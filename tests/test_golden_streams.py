"""Frozen random streams: sha256 digests of the sampler, the oracle and Monte Carlo.

The digests were computed once and pin every bit of:

* ``sample_glmm`` at n = 70 001 (more than one sampling chunk, and not a
  multiple of any chunk size) on the standard cross and on an off-center
  segment pair, points and labels;
* ``mle_recover``'s labels on both draws;
* every Monte-Carlo estimate of the README ``bounds`` example
  (t = 0.05, sigma = 0.01, ell = 2, the right-angle cross, seed 0) at the
  default 200 000 samples: estimate, standard error and count, as hex floats.
  That example misses no within-segment triple, so the two triple
  validators are pinned once more at t = 0.02, where both count misses.

A change to how these are computed (blocking, chunk sizes, branch-only
evaluation) must leave every digest as it is.
"""

import hashlib
import math

import pytest

import linecluster as lc
from linecluster import montecarlo as mc

N = 70_001

OFF_CENTER = (
    lc.Segment(center=(0.3, -0.2), direction=(0.6, 0.8), half_length=0.7),
    lc.Segment(center=(-0.5, 0.4), direction=(1.0, 0.0), half_length=1.3),
)

GOLDEN = {
    "cross": (
        "1115066a492c8683817394ab1570f4532fd34fdcbd1793ca2ac611d1e5efe372",
        "d52d8b1c72c01254399a4c1b7ea3adacfffca6a73208a5bbde98c0d336c5e219",
    ),
    "off-center": (
        "fb26ba1b612e45d2fa6198c73faba10c77313f790d58cd2e9fc5e1097c22c6dc",
        "5508edca002266cdac0e181e2a0a8c0b1282981968c1c911456a0614e6f6498c",
    ),
    "bounds-readme": "8efb9bfe9038af935c28bb27b14c8bfbba0dee75c5ec78e99caadd3f304344df",
    "near-critical": "4d0060f6bae20556728b472b7a14286fe254d62a3ecf9731cd9635f585289926",
}


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _geometry(name: str):
    return lc.standard_cross(math.pi / 2.0, 1.0) if name == "cross" else OFF_CENTER


@pytest.mark.parametrize("name", ["cross", "off-center"])
def test_sampler_and_oracle_streams_are_frozen(name):
    seg1, seg2 = _geometry(name)
    ds = lc.sample_glmm(lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.05, n_points=N, seed=17))
    labels = lc.mle_recover(ds).labels
    assert (_sha(ds.points.tobytes(), ds.labels.tobytes()), _sha(labels.tobytes())) == GOLDEN[name]


def _estimates_digest(results) -> str:
    return _sha(";".join(f"{r.estimate.hex()},{r.se.hex()},{r.n}" for r in results).encode())


def test_bounds_readme_monte_carlo_estimates_are_frozen():
    t, sigma, ell, n, seed = 0.05, 0.01, 2.0, 200_000, 0
    results = [
        mc.mc_within_miss(t, sigma, ell, n, seed),
        *mc.mc_hyperedge_rates(t, sigma, math.pi / 2.0, ell, n, seed),
        mc.mc_chi2_tail(3, 2.0, n, seed),
        mc.mc_rayleigh_cdf(t, sigma, n, seed),
        mc.mc_binomial_tail(300.0, 0.1, 1000, n, seed),
    ]
    assert _estimates_digest(results) == GOLDEN["bounds-readme"]


def test_triple_validators_at_a_near_critical_threshold_are_frozen():
    t, sigma, ell, n, seed = 0.02, 0.01, 2.0, 200_000, 10
    results = [
        mc.mc_within_miss(t, sigma, ell, n, seed),
        *mc.mc_hyperedge_rates(t, sigma, math.pi / 2.0, ell, n, seed),
    ]
    assert 0.0 < results[0].estimate < 1.0 and 0.0 < results[1].estimate < 1.0
    assert _estimates_digest(results) == GOLDEN["near-critical"]
