"""Monte-Carlo validators: vectorized scoring parity, determinism, estimates."""

import math
import tracemalloc

import numpy as np
import pytest

import linecluster as lc
from linecluster import montecarlo as mc
from linecluster._rng import DOMAIN_MC, generator
from linecluster.tls import _triple_scores


def _scores(triples):
    """Scores of an (m, 3, 2) stack, by the validators' one score expression."""
    return _triple_scores(*(triples[:, k, d] for k in range(3) for d in (0, 1)))


def test_vectorized_scores_match_the_scalar_route(rng):
    # The validators score coordinate columns as drawn; sigma_tls_sq scores
    # one triple at unit scale. At ordinary scales both agree bit for bit.
    triples = rng.uniform(-2.0, 2.0, size=(500, 3, 2))
    vectorized = _scores(triples)
    scalar = np.array([lc.sigma_tls_sq(t) for t in triples])
    assert np.array_equal(vectorized, scalar)  # one score expression serves both
    assert (vectorized >= 0.0).all()


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


@pytest.mark.parametrize(
    "n", [4 * mc._BLOCK + d for d in (-1, 0, 1, 2)] + [8 * mc._BLOCK + 1])
def test_blocked_triple_validators_match_one_full_stack_at_block_edges(n):
    """The triple validators score in blocks; scoring the whole (n, 3, 2)
    stack at once, as one array, must give the same counts. Around 4
    blocks, 3 n % 4 takes each of its four values, so ``mc_within_miss``'s
    first normal starts at each word of a Philox step."""
    t, sigma, ell, seed = 0.02, 0.01, 2.0, 3
    rng = generator(seed, DOMAIN_MC)
    u = rng.uniform(-0.5 * ell, 0.5 * ell, size=(n, 3))
    pts = np.stack([u, np.zeros_like(u)], axis=2)
    pts += sigma * rng.standard_normal((n, 3, 2))
    misses = int(np.count_nonzero(_scores(pts) >= t * t))
    assert 0 < misses < n
    assert mc.mc_within_miss(t, sigma, ell, n, seed) == mc._binomial(misses, n)

    seg1, seg2 = lc.standard_cross(math.pi / 2.0, 0.5 * ell)
    ds = lc.sample_glmm(lc.ModelParams(seg1, seg2, sigma, n_points=3 * n, seed=seed))
    accepted = _scores(ds.points.reshape(n, 3, 2)) < t * t
    labs = ds.labels.reshape(n, 3)
    within = (labs[:, 0] == labs[:, 1]) & (labs[:, 1] == labs[:, 2])
    wanted = (mc._binomial(int(np.count_nonzero(accepted & within)), int(within.sum())),
              mc._binomial(int(np.count_nonzero(accepted & ~within)), int((~within).sum())))
    assert mc.mc_hyperedge_rates(t, sigma, math.pi / 2.0, ell, n, seed) == wanted


@pytest.mark.parametrize("n", [mc._BLOCK - 1, mc._BLOCK, mc._BLOCK + 1, 2 * mc._BLOCK + 1])
def test_blocked_tail_validators_match_one_whole_draw_at_block_edges(n):
    """The tail validators draw in blocks of one stream; one whole-sample
    draw from the same generator must give the same counts."""
    k, theta, t, scale, mu, delta, seed = 3, 1.5, 0.03, 0.01, 300.0, 0.05, 5
    x = generator(seed, DOMAIN_MC).chisquare(df=k, size=n)
    hits = int(np.count_nonzero(x >= k * theta))
    assert mc.mc_chi2_tail(k, theta, n, seed) == mc._binomial(hits, n)
    rng = generator(seed, DOMAIN_MC)
    r = scale * np.sqrt(rng.standard_normal(n) ** 2 + rng.standard_normal(n) ** 2)
    assert mc.mc_rayleigh_cdf(t, scale, n, seed) == mc._binomial(int(np.count_nonzero(r <= t)), n)
    b = generator(seed, DOMAIN_MC).binomial(1000, mu / 1000, size=n)
    hits = int(np.count_nonzero(np.abs(b - mu) >= delta * mu))
    assert 0 < hits < n
    assert mc.mc_binomial_tail(mu, delta, 1000, n, seed) == mc._binomial(hits, n)


def test_oracle_error_validator_matches_one_whole_sample():
    # More than one sampler chunk, and not a multiple of the chunk size.
    alpha, ell, sigma, n, seed = math.pi / 6.0, 2.0, 0.05, 70_001, 9
    seg1, seg2 = lc.standard_cross(alpha, 0.5 * ell)
    ds = lc.sample_glmm(lc.ModelParams(seg1, seg2, sigma, n_points=n, seed=seed))
    wrong = int(np.count_nonzero(lc.mle_recover(ds).labels != ds.labels))
    assert mc.mc_mle_error(alpha, ell, sigma, n, seed) == mc._binomial(wrong, n)


def test_oracle_error_validator_refuses_sigma_zero_before_any_draw(monkeypatch):
    monkeypatch.setattr(mc, "_sample_chunk", lambda *args: pytest.fail("drew a chunk"))
    with pytest.raises(lc.ZeroSigmaError, match="sigma must be positive and finite, got 0.0"):
        mc.mc_mle_error(math.pi / 2.0, 2.0, 0.0, 100, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: mc.mc_within_miss(0.05, 0.01, 2.0, n, 0),
        lambda n: mc.mc_chi2_tail(3, 2.0, n, 0),
        lambda n: mc.mc_binomial_tail(300.0, 0.1, 1000, n, 0),
        lambda n: mc.mc_hyperedge_rates(0.05, 0.01, math.pi / 2.0, 2.0, n, 0),
        lambda n: mc.mc_mle_error(math.pi / 2.0, 2.0, 0.05, n, 0),
    ],
    ids=["within-miss", "chi2", "binomial", "hyperedge", "oracle-error"],
)
def test_validator_memory_does_not_grow_with_the_sample(call):
    """Blocks bound what a validator holds: four times the samples, no larger peak."""
    call(1000)  # loads scipy for the oracle, outside the traced calls

    def peak(n):
        tracemalloc.start()
        try:
            call(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(200_000), peak(800_000)
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mc.mc_within_miss(0.05, math.nan, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(0.05, -0.01, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(math.nan, 0.01, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(0.0, 0.01, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(math.inf, 0.01, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(0.05, 0.01, math.nan, 1000, 0),
        lambda: mc.mc_hyperedge_rates(math.nan, 0.01, math.pi / 2.0, 2.0, 1000, 0),
        lambda: mc.mc_hyperedge_rates(-0.05, 0.01, math.pi / 2.0, 2.0, 1000, 0),
        lambda: mc.mc_hyperedge_rates(0.05, math.inf, math.pi / 2.0, 2.0, 1000, 0),
        lambda: mc.mc_rayleigh_cdf(0.05, -1.0, 1000, 0),
        lambda: mc.mc_rayleigh_cdf(0.05, math.nan, 1000, 0),
        lambda: mc.mc_rayleigh_cdf(0.05, math.inf, 1000, 0),
        lambda: mc.mc_rayleigh_cdf(math.nan, 0.01, 1000, 0),
        lambda: mc.mc_chi2_tail(3, math.nan, 1000, 0),
        lambda: mc.mc_chi2_tail(3, math.inf, 1000, 0),
        lambda: mc.mc_binomial_tail(300.0, math.nan, 1000, 1000, 0),
        lambda: mc.mc_binomial_tail(300.0, -math.inf, 1000, 1000, 0),
        # Booleans are not numbers here, and a string is refused, not a TypeError.
        lambda: mc.mc_within_miss(True, 0.01, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(0.05, True, 2.0, 1000, 0),
        lambda: mc.mc_within_miss(0.05, 0.01, True, 1000, 0),
        lambda: mc.mc_hyperedge_rates(0.05, "0.01", math.pi / 2.0, 2.0, 1000, 0),
        lambda: mc.mc_chi2_tail(3, True, 1000, 0),
        lambda: mc.mc_chi2_tail(3, "2", 1000, 0),
        lambda: mc.mc_rayleigh_cdf(True, 0.01, 1000, 0),
        lambda: mc.mc_rayleigh_cdf(0.05, True, 1000, 0),
        lambda: mc.mc_rayleigh_cdf(0.05, "0.01", 1000, 0),
        lambda: mc.mc_binomial_tail(300.0, True, 1000, 1000, 0),
        lambda: mc.mc_binomial_tail(300.0, "0.1", 1000, 1000, 0),
        lambda: mc.mc_binomial_tail(True, 0.1, 1000, 1000, 0),
        lambda: mc.mc_binomial_tail("300", 0.1, 1000, 1000, 0),
    ],
    ids=["within sigma nan", "within sigma < 0", "within t nan", "within t = 0", "within t inf",
         "within ell nan", "hyperedge t nan", "hyperedge t < 0", "hyperedge sigma inf",
         "rayleigh scale < 0", "rayleigh scale nan", "rayleigh scale inf", "rayleigh t nan",
         "chi2 theta nan", "chi2 theta inf", "binomial delta nan", "binomial delta -inf",
         "within t True", "within sigma True", "within ell True", "hyperedge sigma string",
         "chi2 theta True", "chi2 theta string", "rayleigh t True", "rayleigh scale True",
         "rayleigh scale string", "binomial delta True", "binomial delta string",
         "binomial mu True", "binomial mu string"],
)
def test_validators_refuse_invalid_parameters_before_drawing(call):
    with pytest.raises(lc.LineClusterError):
        call()


def test_validators_accept_the_edges_of_their_parameter_domains():
    # sigma = 0 and scale = 0 are noiseless draws; a negative Rayleigh t is P = 0
    assert mc.mc_within_miss(0.05, 0.0, 2.0, 100, 0).estimate == 0.0
    assert mc.mc_rayleigh_cdf(0.05, 0.0, 100, 0).estimate == 1.0
    assert mc.mc_rayleigh_cdf(-1.0, 0.01, 100, 0).estimate == 0.0
    assert mc.mc_chi2_tail(3, 0.0, 100, 0).estimate == 1.0


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
