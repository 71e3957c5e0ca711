"""Closed-form probability bounds and the idealized similarity spectrum.

These are the finite-sample inequalities the clustering guarantee rests on;
each is exposed as an executable function so Monte-Carlo experiments can
check them (`linecluster.montecarlo`). Values are clamped to [0, 1] (they
all bound probabilities) and every function validates its domain, raising
``OutOfValidityError`` outside it.

  * ``within_miss_upper``: P(single-component triple rejected at t),
    exp(-(3/2)(r - 1 - log r)) with r = t^2 / (3 sigma^2), valid r > 1.
  * ``between_accept_lower`` / ``between_accept_upper``: two-sided envelope
    for the mixed-triple acceptance probability q(t).
  * ``disc_intersect_upper``: P(a random disc of radius ~t meets both
    segments), the geometric driver of the q upper bound.
  * ``tail_chi2`` / ``cdf_rayleigh`` / ``tail_binomial``: standard tail
    helpers in the exact parametrizations the guarantees use.
  * ``expected_similarity``: the population similarity matrix W* whose
    entries depend only on label agreement, with its closed-form spectrum
    (balanced labels): lam1 = (w_in + w_out) n/2 - w_in,
    lam2 = (w_in - w_out) n/2 - w_in, all remaining eigenvalues -w_in, and
    spectral gap lam2 - lam_rest = n (n - 2) (p - q) / 4.
  * ``davis_kahan``: the sin-Theta misalignment of an observed embedding
    against the idealized one, with its 2 ||W - W*||_F / gap bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_labels
from .errors import LineClusterError, OutOfValidityError
from .hypergraph import SimilarityMatrix
from .spectral import SpectralEmbedding

__all__ = [
    "BoundInputs",
    "ExpectedSimilarity",
    "DKReport",
    "within_miss_upper",
    "between_accept_lower",
    "between_accept_upper",
    "disc_intersect_upper",
    "tail_chi2",
    "cdf_rayleigh",
    "tail_binomial",
    "expected_similarity",
    "davis_kahan",
]


@dataclass(frozen=True)
class BoundInputs:
    """Parameter bundle for evaluating the acceptance-probability bounds."""

    t: float
    sigma: float
    ell: float

    def __post_init__(self) -> None:
        if not (self.t > 0.0) or not math.isfinite(self.t):
            raise LineClusterError(f"t must be positive and finite, got {self.t}")
        if not (self.sigma >= 0.0) or not math.isfinite(self.sigma):
            raise LineClusterError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (self.ell > 0.0) or not math.isfinite(self.ell):
            raise LineClusterError(f"ell must be positive and finite, got {self.ell}")


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def within_miss_upper(t: float, sigma: float) -> float:
    """Upper bound on P(score >= t^2) for a single-component triple.

    Valid for t > sqrt(3) sigma (the bound's ratio r = t^2 / (3 sigma^2)
    must exceed 1).
    """
    if not (t > 0.0 and sigma > 0.0):
        raise OutOfValidityError(f"need t > 0 and sigma > 0, got t = {t}, sigma = {sigma}")
    r = (t * t) / (3.0 * sigma * sigma)
    if r <= 1.0:
        raise OutOfValidityError(
            f"within-miss bound needs t > sqrt(3) sigma; got ratio r = {r:.6g} <= 1"
        )
    return _clamp01(math.exp(-1.5 * (r - 1.0 - math.log(r))))


def between_accept_lower(t: float, sigma: float, ell: float) -> float:
    """Lower bound on the mixed-triple acceptance probability q(t).

    (t sqrt(2)/ell - t^2/(2 ell^2)) * (1 - exp(-t^2 / (8 sigma^2))); the
    geometric factor must be nonnegative (t <= 2 sqrt(2) ell).
    """
    params = BoundInputs(t=t, sigma=sigma, ell=ell)
    base = params.t * math.sqrt(2.0) / params.ell - (params.t * params.t) / (2.0 * params.ell**2)
    if base < 0.0:
        raise OutOfValidityError(
            f"between-acceptance lower bound needs t <= 2 sqrt(2) ell, got t = {t}, ell = {ell}"
        )
    damp = 1.0 if params.sigma == 0.0 else 1.0 - math.exp(
        -(params.t * params.t) / (8.0 * params.sigma * params.sigma)
    )
    return _clamp01(base * damp)


def between_accept_upper(t: float, sigma: float, ell: float) -> float:
    """Upper envelope 4 (t + sigma) log(ell / (t + sigma)) for q(t).

    Valid while t + sigma < ell / e (past that the envelope is not
    monotone and the derivation fails).
    """
    params = BoundInputs(t=t, sigma=sigma, ell=ell)
    u = params.t + params.sigma
    if not (u < params.ell / math.e):
        raise OutOfValidityError(
            f"between-acceptance upper bound needs t + sigma < ell/e = {ell / math.e:.6g}, "
            f"got {u:.6g}"
        )
    return _clamp01(4.0 * u * math.log(params.ell / u))


def disc_intersect_upper(t: float, sigma: float, ell: float) -> float:
    """Upper bound 7 (t + sigma/ell) on the two-segment disc-hit probability."""
    params = BoundInputs(t=t, sigma=sigma, ell=ell)
    return _clamp01(7.0 * (params.t + params.sigma / params.ell))


def tail_chi2(k: int, theta: float) -> float:
    """Chernoff tail of chi-square: P(X >= k theta) <= exp(-(k/2)(theta-1-log theta))."""
    if int(k) < 1:
        raise LineClusterError(f"degrees of freedom k must be >= 1, got {k}")
    if not (theta > 1.0) or not math.isfinite(theta):
        raise OutOfValidityError(f"chi-square tail bound needs theta > 1, got {theta}")
    return _clamp01(math.exp(-0.5 * k * (theta - 1.0 - math.log(theta))))


def cdf_rayleigh(t: float, scale: float) -> float:
    """Exact Rayleigh CDF 1 - exp(-t^2 / (2 scale^2)) (t < 0 gives 0).

    Scale 0 is outside the formula's domain (``OutOfValidityError``); a
    negative or non-finite scale is an error."""
    if not (scale > 0.0) or not math.isfinite(scale):
        error = OutOfValidityError if scale == 0.0 else LineClusterError
        raise error(f"scale must be positive and finite, got {scale}")
    if t <= 0.0:
        return 0.0
    return 1.0 - math.exp(-(t * t) / (2.0 * scale * scale))


def tail_binomial(mu: float, delta: float) -> float:
    """Two-sided multiplicative Chernoff: P(|X - mu| >= delta mu) <= 2 exp(-delta^2 mu / 3)."""
    if not (mu > 0.0) or not math.isfinite(mu):
        raise LineClusterError(f"mean mu must be positive and finite, got {mu}")
    if not (0.0 < delta < 1.0):
        raise OutOfValidityError(f"delta must lie in (0, 1), got {delta}")
    return min(1.0, 2.0 * math.exp(-delta * delta * mu / 3.0))


@dataclass(frozen=True, eq=False)
class ExpectedSimilarity:
    """Population similarity matrix and its spectrum.

    ``lam1 >= lam2`` are the two informative eigenvalues and ``lam_rest``
    the common value of all others; the closed forms hold only for balanced
    labels (``balanced`` is False otherwise, and the spectrum fields are
    taken from a dense eigendecomposition instead).
    """

    matrix: np.ndarray
    w_in: float
    w_out: float
    lam1: float
    lam2: float
    lam_rest: float
    gap: float
    balanced: bool


def expected_similarity(n: int, p: float, q: float, z) -> ExpectedSimilarity:
    """W* with entries w_in / w_out by label agreement, and its spectrum.

    w_in = (n - 2)(p + q)/2 and w_out = (n - 2) q; the closed-form
    eigenvalues apply for balanced labels, with spectral gap
    n (n - 2)(p - q)/4 between lam2 and the bulk.
    """
    if int(n) < 2:
        raise LineClusterError(f"need n >= 2, got {n}")
    for name, v in (("p", p), ("q", q)):
        if not (0.0 <= v <= 1.0):
            raise LineClusterError(f"{name} must lie in [0, 1], got {v}")
    labels = as_labels(z, int(n))
    w_in = (n - 2) * (p + q) / 2.0
    w_out = (n - 2) * q
    same = labels[:, None] == labels[None, :]
    matrix = np.where(same, w_in, w_out).astype(np.float64)
    np.fill_diagonal(matrix, 0.0)

    n1 = int(np.count_nonzero(labels == 1))
    balanced = (2 * n1) == n
    if balanced:
        lam1 = (w_in + w_out) * n / 2.0 - w_in
        lam2 = (w_in - w_out) * n / 2.0 - w_in
        lam_rest = -w_in
        gap = n * (n - 2) * (p - q) / 4.0
    else:
        vals = np.linalg.eigvalsh(matrix)
        lam1, lam2 = float(vals[-1]), float(vals[-2])
        lam_rest = float(vals[-3]) if n >= 3 else math.nan
        gap = lam2 - lam_rest
    return ExpectedSimilarity(
        matrix=matrix,
        w_in=float(w_in),
        w_out=float(w_out),
        lam1=float(lam1),
        lam2=float(lam2),
        lam_rest=float(lam_rest),
        gap=float(gap),
        balanced=balanced,
    )


@dataclass(frozen=True)
class DKReport:
    """sin-Theta misalignment of an observed embedding vs. the ideal one."""

    sin_theta: float
    bound: float
    gap: float
    deviation_fro: float
    ok: bool
    skipped: bool


def davis_kahan(w, z, p_hat: float, q_hat: float, embedding: SpectralEmbedding) -> DKReport:
    """Check ||sin Theta||_F <= 2 ||W - W*||_F / gap for one labeled run.

    W* is the idealized similarity built from the true labels with the
    measured acceptance rates plugged in; its top-two eigenspace U* and the
    spectral gap come from a dense eigendecomposition of W*, making the
    inequality a theorem whenever the gap is positive. Runs with a
    nonpositive gap (p_hat <= q_hat) are reported as skipped.
    """
    mat = w.counts.astype(np.float64) if isinstance(w, SimilarityMatrix) else np.asarray(w, float)
    n = mat.shape[0]
    if n < 3:
        raise LineClusterError(f"the sin-Theta diagnostic needs n >= 3, got {n}")
    labels = as_labels(z, n)
    ideal = expected_similarity(n, p_hat, q_hat, labels)
    vals, vecs = np.linalg.eigh(ideal.matrix)
    gap = float(vals[-2] - vals[-3])
    deviation = float(np.linalg.norm(mat - ideal.matrix))
    if gap <= 1e-12 * max(1.0, abs(float(vals[-1]))):
        return DKReport(
            sin_theta=math.nan, bound=math.inf, gap=gap, deviation_fro=deviation, ok=True,
            skipped=True,
        )
    u_star = vecs[:, -2:]
    overlap = embedding.u.T @ u_star
    sin_theta = math.sqrt(max(0.0, 2.0 - float((overlap**2).sum())))
    bound = 2.0 * deviation / gap
    return DKReport(
        sin_theta=sin_theta,
        bound=bound,
        gap=gap,
        deviation_fro=deviation,
        ok=sin_theta <= bound,
        skipped=False,
    )
