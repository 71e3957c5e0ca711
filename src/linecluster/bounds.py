"""Closed-form probability bounds and the idealized similarity spectrum.

These are the finite-sample inequalities the clustering guarantee rests on;
each is exposed as an executable function so Monte-Carlo experiments can
check them (`linecluster.montecarlo`). Values are clamped to [0, 1] (they
all bound probabilities) and every function validates its domain, raising
``OutOfValidityError`` outside it. The three bounds in (t, sigma, ell) and
the two triple validators first refuse, with ``LineClusterError``, a t or
ell that is not positive and finite and a sigma that is not finite and >= 0.

  * ``within_miss_upper``: P(single-component triple rejected at t),
    exp(-(3/2)(r - 1 - log r)) with r = t^2 / (3 sigma^2), valid r > 1.
  * ``between_accept_lower`` / ``between_accept_upper``: two-sided envelope
    for the mixed-triple acceptance probability q(t).
  * ``disc_intersect_upper``: P(a random disc of radius ~t meets both
    segments), the geometric driver of the q upper bound.
  * ``tail_chi2`` / ``cdf_rayleigh`` / ``tail_binomial``: standard tail
    helpers in the exact parametrizations the guarantees use.
  * ``expected_similarity``: the population similarity matrix W* as the
    two values its entries take by label agreement, and its spectrum in
    closed form for every label split. W* + w_in I has rank 2 and its
    range is spanned by the two label indicators, so the spectrum is that
    of the 2x2 block [[w_in n1, w_out n2], [w_out n1, w_in n2]] shifted by
    -w_in, plus -w_in for all remaining eigenvalues. For balanced labels
    this is lam1 = (w_in + w_out) n/2 - w_in, lam2 = (w_in - w_out) n/2
    - w_in and spectral gap lam2 - lam_rest = n (n - 2) (p - q) / 4.
  * ``davis_kahan``: the sin-Theta misalignment of an observed embedding
    against the idealized one (the normalized label indicators, W*'s exact
    top-two eigenspace), with its 2 ||W - W*||_F / gap bound. No n x n
    array is built: with S_same and S_x W's ordered off-diagonal sums over
    equal-label and unequal-label pairs, ||W - W*||_F^2 = sum W^2
    - 2 (w_in S_same + w_out S_x) + w_in^2 (n1^2 + n2^2 - n) + 2 w_out^2 n1 n2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_float, as_int, as_labels
from .errors import LineClusterError, OutOfValidityError
from .hypergraph import SimilarityMatrix, _label_sums
from .spectral import SpectralEmbedding

__all__ = [
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


def _check_geometry(t: float, sigma: float, ell: float) -> None:
    """``LineClusterError`` unless t > 0, sigma >= 0 and ell > 0, all finite numbers."""
    t, sigma, ell = as_float(t, "t"), as_float(sigma, "sigma"), as_float(ell, "ell")
    if not (t > 0.0) or not math.isfinite(t):
        raise LineClusterError(f"t must be positive and finite, got {t}")
    if not (sigma >= 0.0) or not math.isfinite(sigma):
        raise LineClusterError(f"sigma must be finite and >= 0, got {sigma}")
    if not (ell > 0.0) or not math.isfinite(ell):
        raise LineClusterError(f"ell must be positive and finite, got {ell}")


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
    _check_geometry(t, sigma, ell)
    base = t * math.sqrt(2.0) / ell - (t * t) / (2.0 * ell**2)
    if base < 0.0:
        raise OutOfValidityError(
            f"between-acceptance lower bound needs t <= 2 sqrt(2) ell, got t = {t}, ell = {ell}"
        )
    damp = 1.0 if sigma == 0.0 else 1.0 - math.exp(-(t * t) / (8.0 * sigma * sigma))
    return _clamp01(base * damp)


def between_accept_upper(t: float, sigma: float, ell: float) -> float:
    """Upper envelope 4 (t + sigma) log(ell / (t + sigma)) for q(t).

    Valid while t + sigma < ell / e (past that the envelope is not
    monotone and the derivation fails).
    """
    _check_geometry(t, sigma, ell)
    u = t + sigma
    if not (u < ell / math.e):
        raise OutOfValidityError(
            f"between-acceptance upper bound needs t + sigma < ell/e = {ell / math.e:.6g}, "
            f"got {u:.6g}"
        )
    return _clamp01(4.0 * u * math.log(ell / u))


def disc_intersect_upper(t: float, sigma: float, ell: float) -> float:
    """Upper bound 7 (t + sigma/ell) on the two-segment disc-hit probability."""
    _check_geometry(t, sigma, ell)
    return _clamp01(7.0 * (t + sigma / ell))


def tail_chi2(k: int, theta: float) -> float:
    """Chernoff tail of chi-square: P(X >= k theta) <= exp(-(k/2)(theta-1-log theta))."""
    k = as_int(k, "k")
    if k < 1:
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


@dataclass(frozen=True)
class ExpectedSimilarity:
    """W*, 0 on the diagonal, ``w_in`` within and ``w_out`` across labels, and its spectrum.

    ``lam1 >= lam2`` are the two informative eigenvalues (those of the label
    indicators' span) and ``lam_rest`` the common value of all others (nan
    for n < 3); ``gap = lam2 - lam_rest``. The closed forms hold for every
    label split. When p < q the gap is negative: lam2 then lies below the
    bulk. No n x n array of W* is built."""

    w_in: float
    w_out: float
    lam1: float
    lam2: float
    lam_rest: float
    gap: float


def expected_similarity(n: int, p: float, q: float, z) -> ExpectedSimilarity:
    """W* with entries w_in / w_out by label agreement, and its spectrum.

    w_in = (n - 2)(p + q)/2 and w_out = (n - 2) q. With n1 and n2 points per
    label, half = w_in n/2 and root = sqrt(w_in^2 (n1 - n2)^2 + 4 w_out^2
    n1 n2)/2 give lam1 = half + root - w_in and gap = half - root, the
    latter evaluated as n1 n2 (w_in^2 - w_out^2) / (half + root) to avoid
    cancellation; for balanced labels the gap is n (n - 2)(p - q)/4.
    """
    n = as_int(n, "n")
    if n < 2:
        raise LineClusterError(f"need n >= 2, got {n}")
    for name, v in (("p", p), ("q", q)):
        if not (0.0 <= v <= 1.0):
            raise LineClusterError(f"{name} must lie in [0, 1], got {v}")
    labels = as_labels(z, n)
    w_in = (n - 2) * (p + q) / 2.0
    w_out = (n - 2) * q
    n1 = int(np.count_nonzero(labels == 1))
    n2 = n - n1
    # Eigenvalues half +- root of the 2x2 action of W* + w_in I on the
    # label indicators; every other eigenvalue of W* + w_in I is 0.
    half = w_in * n / 2.0
    root = 0.5 * math.sqrt((w_in * (n1 - n2)) ** 2 + 4.0 * w_out * w_out * n1 * n2)
    top = half + root
    gap = n1 * n2 * (w_in - w_out) * (w_in + w_out) / top if top > 0.0 else 0.0
    return ExpectedSimilarity(
        w_in=float(w_in),
        w_out=float(w_out),
        lam1=float(top - w_in),
        lam2=float(gap - w_in),
        lam_rest=float(-w_in) if n >= 3 else math.nan,
        gap=float(gap),
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
    measured acceptance rates plugged in. Whenever its gap is positive
    (p_hat > q_hat with both labels present) its top-two eigenspace U* is
    spanned by the normalized label indicators 1_A / sqrt(n1) and
    1_B / sqrt(n2), and the inequality is a theorem. Runs with a
    nonpositive gap are reported as skipped. ||W - W*||_F follows the module
    docstring's identity, from sums over row blocks of W, combined exactly:
    exact for the scan's int32 counts (n^2 (n - 2)^2 < 2^53 for n <= 5000),
    within about sqrt(eps) ||W*||_F for a float W."""
    mat = w.counts if isinstance(w, SimilarityMatrix) else np.asarray(w, float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise LineClusterError(f"W must be a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    if n < 3:
        raise LineClusterError(f"the sin-Theta diagnostic needs n >= 3, got {n}")
    labels = as_labels(z, n)
    u = np.asarray(embedding.u)
    if u.shape != (n, 2):
        raise LineClusterError(f"the embedding must have shape ({n}, 2), got {u.shape}")
    ideal = expected_similarity(n, p_hat, q_hat, labels)
    gap = ideal.gap
    in_a = labels == 1
    n1 = int(np.count_nonzero(in_a))
    step = max(1, (1 << 16) // n)
    squares = sum(float(np.square(mat[lo:lo + step], dtype=float).sum())
                  for lo in range(0, n, step))
    if not math.isfinite(squares):
        raise LineClusterError(f"W must be finite with a finite sum of squares, got {squares}")
    same, cross = _label_sums(mat, labels)
    from fractions import Fraction  # imported here: it loads decimal, 3 ms at startup
    f_in, f_out = Fraction(ideal.w_in), Fraction(ideal.w_out)
    dev_sq = (Fraction(squares) - 2 * (f_in * Fraction(same) + f_out * Fraction(cross))
              + f_in**2 * (n1 * n1 + (n - n1) ** 2 - n) + 2 * f_out**2 * n1 * (n - n1))
    deviation = math.sqrt(max(0, dev_sq))
    if gap <= 1e-12 * max(1.0, abs(ideal.lam1)):
        return DKReport(sin_theta=math.nan, bound=math.inf, gap=gap, deviation_fro=deviation,
                        ok=True, skipped=True)
    # ||U^T U*||_F^2, with U*'s columns the normalized label indicators.
    overlap = sum(float((u[rows].sum(axis=0) ** 2).sum()) / np.count_nonzero(rows)
                  for rows in (in_a, ~in_a))
    sin_theta = math.sqrt(max(0.0, 2.0 - overlap))
    bound = 2.0 * deviation / gap
    return DKReport(sin_theta=sin_theta, bound=bound, gap=gap, deviation_fro=deviation,
                    ok=sin_theta <= bound, skipped=False)
