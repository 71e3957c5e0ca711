"""Monte-Carlo validators for the closed-form bounds and error formulas.

Each validator draws from the exact generative object its bound speaks
about and returns a binomial point estimate with its standard error, so
callers can make 3-standard-error comparisons against the theory value.
Every sample, triple or trial count and the chi-square's ``k`` must be an
integer of at least 1 (numpy integers included); anything else raises
``LineClusterError``.
All sampling is deterministic in (seed, domain); see ``linecluster._rng``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_MC, generator
from ._validate import as_int
from .errors import LineClusterError
from .mle import mle_recover
from .model import ModelParams, sample_glmm, standard_cross
from .tls import _triple_scores


@dataclass(frozen=True)
class MCResult:
    """A binomial Monte-Carlo estimate."""

    estimate: float
    se: float
    n: int


def _count(value, name: str, what: str = "Monte-Carlo sample count") -> int:
    """``value`` as an int of at least 1, or ``LineClusterError``."""
    n = as_int(value, name)
    if n < 1:
        raise LineClusterError(f"{what} must be at least 1, got {n}")
    return n


def _binomial(hits: int, n: int) -> MCResult:
    p = hits / n
    return MCResult(estimate=p, se=math.sqrt(p * (1.0 - p) / n), n=n)


def triple_scores(triples: np.ndarray) -> np.ndarray:
    """Vectorized TLS scores for an (m, 3, 2) stack of triples.

    Scored as given, not at unit scale as ``sigma_tls_sq`` and the scan are:
    the validators draw triples at ordinary scales, where no square over- or
    underflows and both ways agree bit for bit, and unit-scaling a stack of
    200 000 triples makes scoring it about 1.5 times as slow.
    """
    tri = np.asarray(triples, dtype=np.float64)
    if tri.ndim != 3 or tri.shape[1:] != (3, 2):
        raise LineClusterError(f"expected shape (m, 3, 2), got {tri.shape}")
    x = tri[:, :, 0]
    y = tri[:, :, 1]
    return _triple_scores(x[:, 0], y[:, 0], x[:, 1], y[:, 1], x[:, 2], y[:, 2])


def mc_within_miss(t: float, sigma: float, ell: float, n_triples: int, seed: int) -> MCResult:
    """P(score >= t^2) for triples drawn from a single noisy segment."""
    n_triples = _count(n_triples, "n_triples")
    if not (0.0 < ell < math.inf):
        raise LineClusterError(f"ell must be positive and finite, got {ell}")
    rng = generator(seed, DOMAIN_MC)
    h = 0.5 * ell
    u = rng.uniform(-h, h, size=(n_triples, 3))
    pts = np.stack([u, np.zeros_like(u)], axis=2)
    pts += sigma * rng.standard_normal((n_triples, 3, 2))
    scores = triple_scores(pts)
    return _binomial(int(np.count_nonzero(scores >= t * t)), n_triples)


def mc_hyperedge_rates(
    t: float, sigma: float, alpha: float, ell: float, n_triples: int, seed: int
) -> tuple[MCResult, MCResult]:
    """(within, mixed) acceptance rates over independent random triples.

    Draws 3 * n_triples points from the cross mixture and groups them in
    consecutive, independent triples; estimates are conditional on the
    triple's label composition (all-same vs. mixed).
    """
    n_triples = _count(n_triples, "n_triples")
    seg1, seg2 = standard_cross(alpha, 0.5 * ell)
    params = ModelParams(seg1=seg1, seg2=seg2, sigma=sigma, n_points=3 * n_triples, seed=seed)
    ds = sample_glmm(params)
    pts = ds.points.reshape(n_triples, 3, 2)
    labs = ds.labels.reshape(n_triples, 3)
    accepted = triple_scores(pts) < t * t
    within_mask = (labs[:, 0] == labs[:, 1]) & (labs[:, 1] == labs[:, 2])
    n_within = int(np.count_nonzero(within_mask))
    n_between = n_triples - n_within
    if n_within == 0 or n_between == 0:
        raise LineClusterError("sample contains no triples of one composition; increase n_triples")
    within = _binomial(int(np.count_nonzero(accepted & within_mask)), n_within)
    between = _binomial(int(np.count_nonzero(accepted & ~within_mask)), n_between)
    return within, between


def mc_chi2_tail(k: int, theta: float, n_samples: int, seed: int) -> MCResult:
    """P(chi2_k >= k * theta) by direct simulation."""
    k = _count(k, "k", "degrees of freedom k")
    n_samples = _count(n_samples, "n_samples")
    rng = generator(seed, DOMAIN_MC)
    x = rng.chisquare(df=k, size=n_samples)
    return _binomial(int(np.count_nonzero(x >= k * theta)), n_samples)


def mc_rayleigh_cdf(t: float, scale: float, n_samples: int, seed: int) -> MCResult:
    """P(Rayleigh(scale) <= t) by direct simulation."""
    n_samples = _count(n_samples, "n_samples")
    rng = generator(seed, DOMAIN_MC)
    x = scale * np.sqrt((rng.standard_normal(n_samples) ** 2) + (rng.standard_normal(n_samples) ** 2))
    return _binomial(int(np.count_nonzero(x <= t)), n_samples)


def mc_binomial_tail(mu: float, delta: float, n_trials: int, n_samples: int, seed: int) -> MCResult:
    """P(|X - mu| >= delta mu) for X ~ Binomial(n_trials, mu / n_trials)."""
    n_trials = _count(n_trials, "n_trials", "n_trials")
    n_samples = _count(n_samples, "n_samples")
    if not (0.0 < mu < n_trials):
        raise LineClusterError(f"need 0 < mu < n_trials, got mu = {mu}, n_trials = {n_trials}")
    rng = generator(seed, DOMAIN_MC)
    x = rng.binomial(n_trials, mu / n_trials, size=n_samples)
    return _binomial(int(np.count_nonzero(np.abs(x - mu) >= delta * mu)), n_samples)


def mc_mle_error(alpha: float, ell: float, sigma: float, n_samples: int, seed: int) -> MCResult:
    """Empirical misclassification rate of the oracle classifier."""
    n_samples = _count(n_samples, "n_samples")
    seg1, seg2 = standard_cross(alpha, 0.5 * ell)
    params = ModelParams(seg1=seg1, seg2=seg2, sigma=sigma, n_points=n_samples, seed=seed)
    ds = sample_glmm(params)
    z_hat = mle_recover(ds).labels
    return _binomial(int(np.count_nonzero(z_hat != ds.labels)), n_samples)
