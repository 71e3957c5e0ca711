"""Total-least-squares collinearity scoring for point triples.

For a triple (x_1, x_2, x_3) in the plane, center at the centroid and form
the (un-normalized) scatter sums

    s_xx = sum dx_i^2,   s_xy = sum dx_i dy_i,   s_yy = sum dy_i^2.

The squared TLS residual of the best-fit line through the centroid is the
smallest eigenvalue of the 2x2 scatter matrix,

    sigma_tls_sq = (s_xx + s_yy)/2 - sqrt( ((s_xx - s_yy)/2)^2 + s_xy^2 ),

which is 0 exactly when the triple is collinear. ``_triple_scores`` below is
the canonical evaluation order and the only Python copy of it: the numpy
scan, threshold selection and the Monte-Carlo validators call it. The
compiled scan kernel decides most triples without computing a score, by a
filter proven to agree with this expression, and scores the rest with an
exact path that repeats it operation for operation; so every path accepts
the same triples, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LineClusterError


@dataclass(frozen=True)
class ScatterSummary:
    """Centered second-moment sums of a triple (sums, not means)."""

    s_xx: float
    s_xy: float
    s_yy: float


def _as_triple(triple) -> np.ndarray:
    arr = np.asarray(triple, dtype=np.float64)
    if arr.shape != (3, 2):
        raise LineClusterError(f"a triple must have shape (3, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise LineClusterError("triple contains non-finite coordinates")
    return arr


def _centered_sums(x0, y0, x1, y1, x2, y2):
    # Canonical order (mirrored by the compiled kernel's exact path): left-to-right sums.
    cx = (x0 + x1 + x2) / 3.0
    cy = (y0 + y1 + y2) / 3.0
    dx0 = x0 - cx
    dx1 = x1 - cx
    dx2 = x2 - cx
    dy0 = y0 - cy
    dy1 = y1 - cy
    dy2 = y2 - cy
    s_xx = dx0 * dx0 + dx1 * dx1 + dx2 * dx2
    s_xy = dx0 * dy0 + dx1 * dy1 + dx2 * dy2
    s_yy = dy0 * dy0 + dy1 * dy1 + dy2 * dy2
    return s_xx, s_xy, s_yy


def _triple_scores(x0, y0, x1, y1, x2, y2):
    """Elementwise squared TLS residual (smallest scatter eigenvalue, >= 0).

    Takes the coordinates of the first, second and third point of each
    triple as scalars or equally shaped arrays. This is the one score
    expression of the package: ``sigma_tls_sq``, threshold selection, the
    Monte-Carlo validators and the numpy scan all call it.
    """
    s_xx, s_xy, s_yy = _centered_sums(x0, y0, x1, y1, x2, y2)
    mean = 0.5 * (s_xx + s_yy)
    diff = 0.5 * (s_xx - s_yy)
    root = np.sqrt(diff * diff + s_xy * s_xy)
    return np.maximum(mean - root, 0.0)


def _unit_scale(points: np.ndarray) -> int:
    """The k for which ``2**k * max|points|`` lies in [1, 2); 0 for all-zero points.

    Scores are homogeneous of degree 2, and multiplying by a power of two is
    exact in binary floating point, so a caller that scores ``np.ldexp(points,
    k)`` against ``ldexp(t, k)`` accepts exactly the triples it accepts on
    ``points`` wherever those scores neither overflow nor underflow. At unit
    scale no score overflows, and only a triple whose spread is below about
    1e-77 of the largest coordinate can underflow (the score squares the
    scatter sums, so it is of fourth degree in the spread before its root).
    """
    top = float(np.max(np.abs(points), initial=0.0))
    return 1 - math.frexp(top)[1] if top > 0.0 else 0


def _top_eigen(s_xx: float, s_xy: float, s_yy: float) -> tuple[float, float, tuple[float, float]]:
    """``(lam_max, lam_min, direction)`` of the 2x2 matrix [[s_xx, s_xy], [s_xy, s_yy]].

    ``direction`` is the unit top eigenvector with its first nonzero
    coordinate positive; a tied spectrum resolves to the x-axis.
    ``lam_min`` is not clamped.
    """
    mean = 0.5 * (s_xx + s_yy)
    diff = 0.5 * (s_xx - s_yy)
    root = math.sqrt(diff * diff + s_xy * s_xy)
    lam_max = mean + root
    if root == 0.0:
        direction = (1.0, 0.0)
    else:
        # Pick the better-conditioned of the two analytic eigenvector forms.
        v1 = (s_xy, lam_max - s_xx)
        v2 = (lam_max - s_yy, s_xy)
        v = v1 if (v1[0] * v1[0] + v1[1] * v1[1]) >= (v2[0] * v2[0] + v2[1] * v2[1]) else v2
        norm = math.hypot(v[0], v[1])
        direction = (v[0] / norm, v[1] / norm)
    if direction[0] < 0.0 or (direction[0] == 0.0 and direction[1] < 0.0):
        direction = (-direction[0], -direction[1])
    return lam_max, mean - root, direction


def scatter(triple) -> ScatterSummary:
    """Centered scatter sums of a triple of planar points."""
    s_xx, s_xy, s_yy = _centered_sums(*_as_triple(triple).ravel().tolist())
    return ScatterSummary(s_xx=s_xx, s_xy=s_xy, s_yy=s_yy)


def sigma_tls_sq(triple) -> float:
    """Squared TLS residual of a triple: smallest scatter eigenvalue.

    Non-negative; zero iff the three points are collinear; at most half the
    scatter trace. Scored at unit scale like the scan, then scaled back (see
    ``_unit_scale``), so no intermediate square over- or underflows.
    """
    arr = _as_triple(triple)
    k = _unit_scale(arr)
    return math.ldexp(float(_triple_scores(*np.ldexp(arr, k).ravel().tolist())), -2 * k)

