"""The benchmark's own reference for the triple scan's similarity matrix.

This is the scan's contract, frozen in the benchmark: a triple {i, j, k}
counts when the smaller eigenvalue of its scatter matrix, clamped at 0, is
strictly below t**2, and W[a, b] counts the accepted triples holding both a
and b. The score expression and its operation order are those of
``linecluster._scan_numpy`` when the benchmark was written, so W matches the
numpy backend byte for byte; every backend, thread count and rerun must
reproduce it. It shares no code with the program, so a change to the
program's scan cannot move the reference.

Each outer index i scores the (j, k) pairs of later points in strips of
rows j, each against the columns k >= the strip's first row, and adds the
mask, so no scatter-add is needed and little of the lower triangle is
scored.
"""

from __future__ import annotations

import numpy as np


STRIP = 64


def similarity(points: np.ndarray, t: float) -> np.ndarray:
    """Symmetric int32 W with zero diagonal for ``points`` (n, 2) at threshold ``t``."""
    pts = np.ascontiguousarray(points, dtype=np.float64)
    x, y = pts[:, 0], pts[:, 1]
    n = pts.shape[0]
    t2 = t * t
    upper = np.zeros((n, n), dtype=np.int32)
    for i in range(n - 2):
        for a in range(i + 1, n - 1, STRIP):
            b = min(a + STRIP, n)
            # Rows j in [a, b), columns k in [a, n); only k > j is counted.
            xj, yj = x[a:b, None], y[a:b, None]
            xk, yk = x[None, a:], y[None, a:]
            # In-place steps keep the program's operation order: cx = (x_i + x_j + x_k) / 3,
            # d = coordinate - centroid, s = d0*d0 + d1*d1 + d2*d2, lambda = mean - root.
            cx = x[i] + xj + xk
            cx /= 3.0
            cy = y[i] + yj + yk
            cy /= 3.0
            dx1, dx2, dx0 = xj - cx, xk - cx, np.subtract(x[i], cx, out=cx)
            dy1, dy2, dy0 = yj - cy, yk - cy, np.subtract(y[i], cy, out=cy)
            sxy = dx0 * dy0
            sxy += dx1 * dy1
            sxy += dx2 * dy2
            sxx = np.multiply(dx0, dx0, out=dx0)
            sxx += np.multiply(dx1, dx1, out=dx1)
            sxx += np.multiply(dx2, dx2, out=dx2)
            syy = np.multiply(dy0, dy0, out=dy0)
            syy += np.multiply(dy1, dy1, out=dy1)
            syy += np.multiply(dy2, dy2, out=dy2)
            mean = sxx + syy
            mean *= 0.5
            diff = np.subtract(sxx, syy, out=sxx)
            diff *= 0.5
            diff *= diff
            diff += np.multiply(sxy, sxy, out=sxy)
            mean -= np.sqrt(diff, out=diff)
            # Clamping lambda at 0 cannot change "lambda < t**2" for t > 0, so it is skipped.
            mask = np.triu(mean < t2, 1)
            upper[a:b, a:] += mask
            upper[i, a:] += mask.sum(axis=0, dtype=np.int32)
            upper[i, a:b] += mask.sum(axis=1, dtype=np.int32)
    return upper + upper.T
