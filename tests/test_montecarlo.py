"""Monte-Carlo validators: vectorized scoring parity, determinism, estimates."""

import math

import numpy as np
import pytest

import linecluster as lc
from linecluster import montecarlo as mc


def test_vectorized_scores_match_the_scalar_route(rng):
    triples = rng.uniform(-2.0, 2.0, size=(500, 3, 2))
    vectorized = mc.triple_scores(triples)
    scalar = np.array([lc.sigma_tls_sq(t) for t in triples])
    assert np.array_equal(vectorized, scalar)  # one score expression serves both
    assert (vectorized >= 0.0).all()


def test_vectorized_scores_validate_their_shape():
    with pytest.raises(lc.LineClusterError):
        mc.triple_scores(np.zeros((5, 2, 2)))
    with pytest.raises(lc.LineClusterError):
        mc.triple_scores(np.zeros((3, 2)))


def test_validators_are_deterministic_in_the_seed():
    # near-critical cell: misses occur, so seeds are distinguishable
    a = mc.mc_within_miss(0.02, 0.01, 2.0, n_triples=2000, seed=10)
    b = mc.mc_within_miss(0.02, 0.01, 2.0, n_triples=2000, seed=10)
    c = mc.mc_within_miss(0.02, 0.01, 2.0, n_triples=2000, seed=11)
    assert a == b
    assert a.estimate > 0.0
    assert a.estimate != c.estimate

    x = mc.mc_chi2_tail(3, 2.0, 5000, seed=4)
    y = mc.mc_chi2_tail(3, 2.0, 5000, seed=4)
    assert x == y


def test_binomial_standard_error_formula():
    r = mc.mc_chi2_tail(3, 2.0, 20_000, seed=4)
    assert r.n == 20_000
    assert r.se == pytest.approx(math.sqrt(r.estimate * (1.0 - r.estimate) / r.n), rel=1e-12)
    assert 0.0 < r.estimate < 1.0


def test_hyperedge_rates_need_both_triple_compositions():
    # a single triple has exactly one composition, so the split must fail
    with pytest.raises(lc.LineClusterError):
        mc.mc_hyperedge_rates(0.05, 0.01, math.pi / 2.0, 2.0, n_triples=1, seed=0)


def test_hyperedge_rates_report_sane_conditional_estimates():
    within, between = mc.mc_hyperedge_rates(0.1, 0.01, math.pi / 2.0, 2.0, 5000, seed=2)
    assert 0.0 <= within.estimate <= 1.0
    assert 0.0 <= between.estimate <= 1.0
    assert within.n + between.n == 5000
    # a generous threshold accepts nearly every single-component triple
    assert within.estimate > 0.9
    # and mixed triples only rarely
    assert between.estimate < 0.5


def test_oracle_error_validator_matches_the_closed_form_integral():
    r = mc.mc_mle_error(math.pi / 2.0, 2.0, 0.05, 50_000, seed=3)
    wanted = 2.0 * lc.perr_exact(math.pi / 2.0, 2.0, 0.05).perr
    assert r.estimate == pytest.approx(wanted, abs=3.0 * r.se)


def test_binomial_tail_validator_domain():
    with pytest.raises(lc.LineClusterError):
        mc.mc_binomial_tail(3000.0, 0.1, 300, 100, seed=0)  # mu >= n_trials


@pytest.mark.parametrize(
    "call",
    [
        lambda k: mc.mc_chi2_tail(k, 2.0, 100, seed=0),
        lambda n: mc.mc_chi2_tail(3, 2.0, n, seed=0),
        lambda n: mc.mc_rayleigh_cdf(0.05, 0.01, n, seed=0),
        lambda n: mc.mc_within_miss(0.05, 0.01, 2.0, n, seed=0),
        lambda n: mc.mc_hyperedge_rates(0.05, 0.01, math.pi / 2.0, 2.0, n, seed=0),
        lambda n: mc.mc_binomial_tail(3.0, 0.5, 300, n, seed=0),
        lambda n: mc.mc_binomial_tail(0.5, 0.5, n, 100, seed=0),
        lambda n: mc.mc_mle_error(math.pi / 2.0, 2.0, 0.05, n, seed=0),
    ],
    ids=["chi2 k", "chi2 samples", "rayleigh samples", "within-miss triples",
         "hyperedge triples", "binomial samples", "binomial trials", "oracle-error samples"],
)
def test_validators_refuse_a_count_that_is_not_a_positive_integer(call):
    for bad in (2.5, True, 0, -3, "5", None):
        with pytest.raises(lc.LineClusterError):
            call(bad)
    call(np.int64(200))  # numpy integers are accepted
