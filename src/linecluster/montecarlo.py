"""Monte-Carlo validators for the closed-form bounds and error formulas.

Each validator draws from the exact generative object its bound speaks
about and returns a binomial point estimate with its standard error, so
callers can make 3-standard-error comparisons against the theory value.
Every sample, triple or trial count and the chi-square's ``k`` must be an
integer of at least 1 (numpy integers included); anything else raises
``LineClusterError``.
Every other parameter follows ``bounds``' rules and is checked before any
draw: t > 0 and sigma >= 0, both finite, for the triple validators (the
Rayleigh t only finite), scale >= 0 and finite, theta and delta finite.
All sampling is deterministic in (seed, domain); see ``linecluster._rng``.

The validators draw, score and count in blocks: 4 096 samples at a time
(``_BLOCK``), or one sampler chunk of 8 192 points for the two that sample
the mixture. So what they hold does not grow with the sample count, but
for ``mc_rayleigh_cdf``'s first n normals (below); a block's arrays, 32 to
192 KiB each, stay in a 2 MB L2 cache, and two validators running side by
side (``cli._bounds_rows`` runs them on the scan's worker pool) hold about
as much as one. Each validator makes the same draws in the same order as
one whole-sample call, because numpy's ``Generator`` continues one stream
across calls:

* ``mc_within_miss``'s stream is the n triples' (n, 3) uniforms followed
  by their (n, 3, 2) normals. It reads each block's uniforms from one
  generator and its normals from a second, positioned past the uniforms:
  each uniform takes one 64-bit Philox word and Philox makes 4 words per
  counter step, so the second generator is advanced 3 n // 4 steps and
  discards 3 n % 4 more words.
* ``mc_chi2_tail`` and ``mc_binomial_tail`` draw their samples in blocks
  of the one stream.
* ``mc_rayleigh_cdf`` draws and squares its first n normals whole (a
  normal takes a variable number of words, so no generator can be
  positioned at the second n), then the second n in blocks.
* ``mc_hyperedge_rates`` scores the sampler's chunks of 3 * 8 192 points
  (``model._sample_chunk``) as 8 192 consecutive triples each, and
  ``mc_mle_error`` classifies them as drawn; the sampler is chunk-stable,
  so these are the points of one ``sample_glmm`` draw.

Each element goes through the same operations as in one whole-sample
pass, so every estimate is the same bit for bit; blocks only change where
the arrays live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_MC, generator
from ._validate import as_float, as_int
from .bounds import _check_geometry
from .errors import LineClusterError
from .mle import mle_recover
from .model import _CHUNK_POINTS, LabeledDataset, ModelParams, _sample_chunk, standard_cross
from .tls import _triple_scores

_BLOCK = 1 << 12


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


def _finite(value: float, name: str, at_least: float = -math.inf) -> None:
    """``LineClusterError`` unless ``value`` is a finite number of at least ``at_least``."""
    value = as_float(value, name)
    if not (math.isfinite(value) and value >= at_least):
        bound = "" if at_least == -math.inf else f" and >= {at_least:g}"
        raise LineClusterError(f"{name} must be finite{bound}, got {value}")


def _binomial(hits: int, n: int) -> MCResult:
    p = hits / n
    return MCResult(estimate=p, se=math.sqrt(p * (1.0 - p) / n), n=n)


def mc_within_miss(t: float, sigma: float, ell: float, n_triples: int, seed: int) -> MCResult:
    """P(score >= t^2) for triples drawn from a single noisy segment."""
    n_triples = _count(n_triples, "n_triples")
    _check_geometry(t, sigma, ell)
    uniforms, normals = generator(seed, DOMAIN_MC), generator(seed, DOMAIN_MC)
    normals.bit_generator.advance(3 * n_triples // 4)  # past the 3 n uniforms
    normals.bit_generator.random_raw(3 * n_triples % 4)
    h = 0.5 * ell
    misses = 0
    for lo in range(0, n_triples, _BLOCK):
        m = min(_BLOCK, n_triples - lo)
        ub = uniforms.uniform(-h, h, size=(m, 3))
        nb = normals.standard_normal((m, 3, 2))
        cols = []
        for k in range(3):  # point k of each triple: (u_k, 0.0) plus sigma times its noise pair
            cols += [ub[:, k] + sigma * nb[:, k, 0], 0.0 + sigma * nb[:, k, 1]]
        misses += int(np.count_nonzero(_triple_scores(*cols) >= t * t))
    return _binomial(misses, n_triples)


def mc_hyperedge_rates(
    t: float, sigma: float, alpha: float, ell: float, n_triples: int, seed: int
) -> tuple[MCResult, MCResult]:
    """(within, mixed) acceptance rates over independent random triples.

    Draws 3 * n_triples points from the cross mixture and groups them in
    consecutive, independent triples; estimates are conditional on the
    triple's label composition (all-same vs. mixed).
    """
    n_triples = _count(n_triples, "n_triples")
    _check_geometry(t, sigma, ell)
    seg1, seg2 = standard_cross(alpha, 0.5 * ell)
    params = ModelParams(seg1=seg1, seg2=seg2, sigma=sigma, n_points=3 * n_triples, seed=seed)
    n_within = within_hits = accepted_hits = 0
    for start in range(0, 3 * n_triples, 3 * _CHUNK_POINTS):
        pts, labs = _sample_chunk(params, start, min(3 * _CHUNK_POINTS, 3 * n_triples - start))
        pb, lb = pts.reshape(-1, 3, 2), labs.reshape(-1, 3)
        accepted = _triple_scores(*(pb[:, k, d] for k in range(3) for d in (0, 1))) < t * t
        within = (lb[:, 0] == lb[:, 1]) & (lb[:, 1] == lb[:, 2])
        n_within += int(np.count_nonzero(within))
        within_hits += int(np.count_nonzero(accepted & within))
        accepted_hits += int(np.count_nonzero(accepted))
    n_between = n_triples - n_within
    if n_within == 0 or n_between == 0:
        raise LineClusterError("sample contains no triples of one composition; increase n_triples")
    return _binomial(within_hits, n_within), _binomial(accepted_hits - within_hits, n_between)


def mc_chi2_tail(k: int, theta: float, n_samples: int, seed: int) -> MCResult:
    """P(chi2_k >= k * theta) by direct simulation."""
    k = _count(k, "k", "degrees of freedom k")
    n_samples = _count(n_samples, "n_samples")
    _finite(theta, "theta")
    rng = generator(seed, DOMAIN_MC)
    hits = 0
    for lo in range(0, n_samples, _BLOCK):
        x = rng.chisquare(df=k, size=min(_BLOCK, n_samples - lo))
        hits += int(np.count_nonzero(x >= k * theta))
    return _binomial(hits, n_samples)


def mc_rayleigh_cdf(t: float, scale: float, n_samples: int, seed: int) -> MCResult:
    """P(Rayleigh(scale) <= t) by direct simulation."""
    n_samples = _count(n_samples, "n_samples")
    _finite(t, "t")
    _finite(scale, "scale", 0.0)
    rng = generator(seed, DOMAIN_MC)
    first = rng.standard_normal(n_samples) ** 2
    hits = 0
    for lo in range(0, n_samples, _BLOCK):
        second = rng.standard_normal(min(_BLOCK, n_samples - lo)) ** 2
        x = scale * np.sqrt(first[lo:lo + _BLOCK] + second)
        hits += int(np.count_nonzero(x <= t))
    return _binomial(hits, n_samples)


def mc_binomial_tail(mu: float, delta: float, n_trials: int, n_samples: int, seed: int) -> MCResult:
    """P(|X - mu| >= delta mu) for X ~ Binomial(n_trials, mu / n_trials)."""
    n_trials = _count(n_trials, "n_trials", "n_trials")
    n_samples = _count(n_samples, "n_samples")
    if not (0.0 < as_float(mu, "mu") < n_trials):
        raise LineClusterError(f"need 0 < mu < n_trials, got mu = {mu}, n_trials = {n_trials}")
    _finite(delta, "delta")
    rng = generator(seed, DOMAIN_MC)
    hits = 0
    for lo in range(0, n_samples, _BLOCK):
        x = rng.binomial(n_trials, mu / n_trials, size=min(_BLOCK, n_samples - lo))
        hits += int(np.count_nonzero(np.abs(x - mu) >= delta * mu))
    return _binomial(hits, n_samples)


def mc_mle_error(alpha: float, ell: float, sigma: float, n_samples: int, seed: int) -> MCResult:
    """Empirical misclassification rate of the oracle classifier."""
    n_samples = _count(n_samples, "n_samples")
    seg1, seg2 = standard_cross(alpha, 0.5 * ell)
    params = ModelParams(seg1=seg1, seg2=seg2, sigma=sigma, n_points=n_samples, seed=seed)
    wrong = 0
    for start in range(0, n_samples, _CHUNK_POINTS):
        pts, labs = _sample_chunk(params, start, min(_CHUNK_POINTS, n_samples - start))
        z_hat = mle_recover(LabeledDataset(points=pts, labels=labs, params=params)).labels
        wrong += int(np.count_nonzero(z_hat != labs))
    return _binomial(wrong, n_samples)
