"""Oracle maximum-likelihood baseline for known segment geometry.

Each mixture component has density

    f_k(x) = (1/2h) * Integral_{-h}^{h} N(x; c_k + u v_k, sigma^2 I) du,

a Gaussian tube around segment k. ``density`` evaluates it by fixed-order
Gauss-Legendre quadrature (the contract form, order 128). Classification
uses the mathematically identical separated form: writing s0 = (x-c).v for
the along-line coordinate and d_perp for the orthogonal distance,

    f(x) = exp(-d_perp^2 / (2 sigma^2))
           * [Phi((h-s0)/sigma) - Phi((-h-s0)/sigma)] / (2 h sigma sqrt(2 pi)),

evaluated in log space with stable tail branches; each point's branch is
evaluated on the points that take it only, not all four on every point.
``mle_recover`` classifies in blocks of 16 384 points (``_BLOCK``), so the
dozen temporaries of the two log densities stay in a 2 MB L2 cache; the
labels do not depend on the block size. The separated form stays
exact when sigma is orders of magnitude below the node spacing (where
quadrature collapses to zero between nodes); the two routes agree to
machine precision wherever quadrature is trustworthy, and tests pin that.

``perr_exact`` evaluates the pinned closed-form single-point error integral
for the symmetric cross,

    perr = (1/ell) * Integral_{-ell/2}^{ell/2}
           PhiBar(-u cos t / sigma) * PhiBar(u sin t / sigma) du,  t = alpha/2,

whose small-sigma asymptote is sigma * (tan t + cot t) / (ell sqrt(2 pi)).
It is one of the two disjoint misclassification events; the other has the
same mass (u -> -u), so the oracle's per-point error rate is 2 * perr
(within ~1 SE at six measured cells: sigma 0.00075-0.05, alpha pi/2, pi/6).
The integrand has a width-sigma boundary layer at u = 0, so the quadrature
grid is graded: half the nodes on a central panel of width ~ 40 sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# scipy.special is imported inside the functions that call it, so that
# ``import linecluster`` loads numpy only: scipy adds about 0.3 s and 26 MB
# to every process, and only the oracle, ``perr_exact`` and the bounds
# check use it.

from ._validate import as_float, as_points, positive
from .errors import InvalidAngleError, ZeroSigmaError
from .model import LabeledDataset, Segment
from .spectral import ClusterResult

_DENSITY_NODES = 128
_PERR_NODES = 2048
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_TAYLOR_WIDTH = 1e-7
_BLOCK = 1 << 14


@dataclass(frozen=True)
class MixtureDensity:
    """One component: a Gaussian tube of width sigma around a segment."""

    segment: Segment
    sigma: float

    def __post_init__(self) -> None:
        positive(self.sigma, "sigma", ZeroSigmaError)


@dataclass(frozen=True)
class ErrorReport:
    """Closed-form single-point error probability and its small-sigma slope."""

    perr: float
    asymptote: float  # sigma-free constant: lim_{sigma->0} perr / sigma
    sigma: float
    alpha: float
    ell: float


@lru_cache(maxsize=32)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_legendre

    nodes, weights = roots_legendre(n)
    return nodes, weights


def density(d: MixtureDensity, x) -> float:
    """Quadrature evaluation of the component density at point ``x``."""
    px, py = float(x[0]), float(x[1])
    seg = d.segment
    nodes, weights = _gl_nodes(_DENSITY_NODES)
    h = seg.half_length
    u = h * nodes
    cx = seg.center[0] + u * seg.direction[0]
    cy = seg.center[1] + u * seg.direction[1]
    r2 = (px - cx) ** 2 + (py - cy) ** 2
    phi = np.exp(-r2 / (2.0 * d.sigma * d.sigma)) / (2.0 * math.pi * d.sigma * d.sigma)
    # Gauss-Legendre on [-h, h] has weight factor h; the mixing measure is
    # uniform with density 1/(2h), so the factors combine to 1/2.
    return float(np.dot(weights, phi) * 0.5)


def _log_interval_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(Phi(b) - Phi(a)) elementwise for a < b, stable in both tails.

    Each element takes one branch, evaluated on the elements that take it
    only: Taylor where b - a < 1e-7, else the right tail where a > 0, the
    left tail where b < 0, and the direct difference otherwise (nan too).
    """
    from scipy.special import log_ndtr, ndtr

    out = np.empty(a.shape)
    taylor = b - a < _TAYLOR_WIDTH
    right = ~taylor & (a > 0.0)
    left = ~taylor & ~right & (b < 0.0)
    direct = ~(taylor | right | left)
    with np.errstate(all="ignore"):
        ta, tb = a[taylor], b[taylor]
        mid = 0.5 * (ta + tb)
        out[taylor] = np.log(tb - ta) - 0.5 * mid * mid - _LOG_SQRT_2PI
        ra, rb = log_ndtr(-a[right]), log_ndtr(-b[right])
        out[right] = ra + np.log(-np.expm1(rb - ra))
        la, lb = log_ndtr(a[left]), log_ndtr(b[left])
        out[left] = lb + np.log(-np.expm1(la - lb))
        out[direct] = np.log(ndtr(b[direct]) - ndtr(a[direct]))
    return out


def _log_density(d: MixtureDensity, pts: np.ndarray) -> np.ndarray:
    seg = d.segment
    sigma = d.sigma
    h = seg.half_length
    dx = pts[:, 0] - seg.center[0]
    dy = pts[:, 1] - seg.center[1]
    s0 = dx * seg.direction[0] + dy * seg.direction[1]
    d_perp_sq = np.maximum(dx * dx + dy * dy - s0 * s0, 0.0)
    a = (-h - s0) / sigma
    b = (h - s0) / sigma
    log_mass = _log_interval_mass(a, b)
    return -d_perp_sq / (2.0 * sigma * sigma) + log_mass - (
        math.log(2.0 * h * sigma) + _LOG_SQRT_2PI
    )


def log_density(d: MixtureDensity, points) -> np.ndarray:
    """Exact separated-form log density, vectorized over an (n, 2) array."""
    return _log_density(d, as_points(points))


def mle_recover(dataset: LabeledDataset) -> ClusterResult:
    """Classify every dataset point with the true model parameters; ties go to 2."""
    params = dataset.params
    d1 = MixtureDensity(segment=params.seg1, sigma=params.sigma)
    d2 = MixtureDensity(segment=params.seg2, sigma=params.sigma)
    pts = as_points(dataset.points)
    labels = np.empty(pts.shape[0], dtype=np.int8)
    for lo in range(0, pts.shape[0], _BLOCK):
        block = pts[lo:lo + _BLOCK]
        lf1 = _log_density(d1, block)
        lf2 = _log_density(d2, block)
        labels[lo:lo + _BLOCK] = np.where(lf1 > lf2, 1, 2)
    return ClusterResult(
        labels=labels, embedding=None, kmeans_inertia=None, centers=None, degenerate=False
    )


def _panels(half: float, sigma: float, theta: float, n: int) -> list[tuple[float, float, int]]:
    c, s = math.cos(theta), math.sin(theta)
    w = 40.0 * sigma * max(1.0 / s, 1.0 / c)
    if w >= half:
        return [(-half, half, n)]
    n_mid = max(n // 2, 8)
    n_side = max(n // 4, 8)
    return [(-half, -w, n_side), (-w, w, n_mid), (w, half, n_side)]


def perr_exact(alpha: float, ell: float, sigma: float) -> ErrorReport:
    """Closed-form integral of one of the cross's two disjoint, equal-mass
    misclassification events: the oracle's per-point error rate is 2 * perr."""
    from scipy.special import ndtr

    if not (0.0 < as_float(alpha, "alpha") < math.pi):
        raise InvalidAngleError(f"alpha must lie strictly between 0 and pi, got {alpha}")
    positive(ell, "ell")
    positive(sigma, "sigma", ZeroSigmaError)

    theta = 0.5 * alpha
    c, s = math.cos(theta), math.sin(theta)
    half = 0.5 * ell
    total = 0.0
    for lo, hi, n in _panels(half, sigma, theta, _PERR_NODES):
        nodes, weights = _gl_nodes(n)
        mid = 0.5 * (lo + hi)
        rad = 0.5 * (hi - lo)
        u = mid + rad * nodes
        # PhiBar(-u c / sigma) * PhiBar(u s / sigma) = Phi(u c / s.) * Phi(-u s / s.)
        g = ndtr(u * (c / sigma)) * ndtr(-u * (s / sigma))
        total += rad * float(np.dot(weights, g))
    perr = total / ell
    asymptote = (s / c + c / s) / (ell * math.sqrt(2.0 * math.pi))
    return ErrorReport(perr=perr, asymptote=asymptote, sigma=sigma, alpha=alpha, ell=ell)
