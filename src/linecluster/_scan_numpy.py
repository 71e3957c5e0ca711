"""Vectorized fallback for the triple scan (no compiler needed).

For each outer index i, the (j, k) pairs of later points are scored in
strips of ``_STRIP`` rows j, each against the columns k >= the strip's first
row, by one call of ``linecluster.tls._triple_scores``, the package's one
score expression. The compiled kernel's exact path repeats it operation for
operation, and its filter decides the other triples without a score, only
where the decision provably matches this one's, so both backends accept the
same triples. The strip's upper-triangle mask is added to W as it stands
and its row and column sums to W's row i, so no scatter-add is needed.
20-30x slower than the compiled kernel on one thread; besides W, memory is
O(``_STRIP`` * n).
"""

from __future__ import annotations

import numpy as np

from .tls import _triple_scores

_STRIP = 64


def scan_triples(
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray | None,
    t2: float,
    i_lo: int,
    i_hi: int,
    w: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Scan triples whose smallest index lies in [i_lo, i_hi).

    Accepted triples (score strictly below ``t2``) increment the three pair
    entries of the flat upper-triangle buffer ``w`` (length n*n, entry at
    min*n + max) and ``counts[0]``; triples whose three labels agree also
    increment ``counts[1]`` when ``z`` is given.
    """
    n = x.shape[0]
    upper = w.reshape(n, n)
    acc = 0
    win = 0
    for i in range(i_lo, min(i_hi, n - 2)):
        for a in range(i + 1, n - 1, _STRIP):
            b = min(a + _STRIP, n)
            # Rows j in [a, b), columns k in [a, n); only k > j is a triple.
            lam = _triple_scores(x[i], y[i], x[a:b, None], y[a:b, None], x[None, a:], y[None, a:])
            mask = np.triu(lam < t2, 1)
            hits = mask.sum(axis=1, dtype=np.int32)
            acc += int(hits.sum())
            upper[a:b, a:] += mask
            upper[i, a:] += mask.sum(axis=0, dtype=np.int32)
            upper[i, a:b] += hits
            if z is not None:
                win += int(np.count_nonzero(mask[np.ix_(z[a:b] == z[i], z[a:] == z[i])]))
    counts[0] += acc
    counts[1] += win
