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

``common_tangents`` solves the side geometry used when reasoning about
mixed triples: the four common tangent lines of two exterior discs centered
on the x-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CirclesNotExteriorError, DegenerateTripleError, LineClusterError


@dataclass(frozen=True)
class ScatterSummary:
    """Centered second-moment sums of a triple (sums, not means)."""

    s_xx: float
    s_xy: float
    s_yy: float

    @property
    def trace(self) -> float:
        return self.s_xx + self.s_yy


@dataclass(frozen=True)
class FittedLine:
    """A line through ``point`` with unit ``direction``."""

    point: tuple[float, float]
    direction: tuple[float, float]


@dataclass(frozen=True)
class TangentLine:
    """The line y = slope * x + intercept."""

    slope: float
    intercept: float


@dataclass(frozen=True)
class CommonTangents:
    """Direct (outer) and transverse (inner) tangent pairs of two discs."""

    direct: tuple[TangentLine, TangentLine]
    transverse: tuple[TangentLine, TangentLine]


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
    scatter trace.
    """
    return float(_triple_scores(*_as_triple(triple).ravel().tolist()))


def best_fit_line(triple) -> FittedLine:
    """TLS line of a triple: through the centroid, along the top scatter
    eigenvector.

    Raises ``DegenerateTripleError`` when all three points coincide (the
    scatter is exactly zero and no direction is preferred). An isotropic
    scatter (top eigenvalue tied with the bottom one) resolves to the
    x-axis direction.
    """
    arr = _as_triple(triple)
    s = scatter(arr)
    if s.trace == 0.0:
        raise DegenerateTripleError("all three points coincide; the fitted line is undefined")
    direction = _top_eigen(s.s_xx, s.s_xy, s.s_yy)[2]
    cx = (float(arr[0, 0]) + float(arr[1, 0]) + float(arr[2, 0])) / 3.0
    cy = (float(arr[0, 1]) + float(arr[1, 1]) + float(arr[2, 1])) / 3.0
    return FittedLine(point=(cx, cy), direction=direction)


def common_tangents(c1: float, r1: float, c2: float, r2: float) -> CommonTangents:
    """The four common tangent lines of two exterior discs on the x-axis.

    Disc k is centered at (c_k, 0) with radius r_k > 0; the discs must be
    strictly exterior (|c1 - c2| > r1 + r2), otherwise
    ``CirclesNotExteriorError`` is raised. Each returned pair is ordered
    (positive slope first; for the slope-0 direct pair of equal radii,
    positive intercept first).
    """
    for name, r in (("r1", r1), ("r2", r2)):
        if not (r > 0.0) or not math.isfinite(r):
            raise LineClusterError(f"{name} must be positive and finite, got {r}")
    if not math.isfinite(c1) or not math.isfinite(c2):
        raise LineClusterError("circle centers must be finite")
    d = abs(c2 - c1)
    if d <= r1 + r2:
        raise CirclesNotExteriorError(
            f"discs must be strictly exterior: |c1-c2| = {d} <= r1 + r2 = {r1 + r2}"
        )

    # Transverse tangents cross between the discs at the internal division
    # point a = (r1 c2 + r2 c1) / (r1 + r2); slope from the tangency condition
    # |m (c - a)| / sqrt(1 + m^2) = r.
    a_t = (r1 * c2 + r2 * c1) / (r1 + r2)
    m_t = (r1 + r2) / math.sqrt(d * d - (r1 + r2) ** 2)
    transverse = (
        TangentLine(slope=m_t, intercept=-m_t * a_t),
        TangentLine(slope=-m_t, intercept=m_t * a_t),
    )

    if r1 == r2:
        direct = (TangentLine(slope=0.0, intercept=r1), TangentLine(slope=0.0, intercept=-r1))
    else:
        a_d = (r1 * c2 - r2 * c1) / (r1 - r2)  # external division point
        m_d = abs(r1 - r2) / math.sqrt(d * d - (r1 - r2) ** 2)
        direct = (
            TangentLine(slope=m_d, intercept=-m_d * a_d),
            TangentLine(slope=-m_d, intercept=m_d * a_d),
        )
    return CommonTangents(direct=direct, transverse=transverse)
