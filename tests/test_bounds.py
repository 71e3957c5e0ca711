"""Closed-form probability bounds, the idealized spectrum, and sin-Theta checks."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import linecluster as lc

from _oracles import dense_davis_kahan, ideal_matrix

# ---------------------------------------------------------------------------
# frozen values (independently computed with 40-digit quadrature/arithmetic)
# ---------------------------------------------------------------------------


def test_within_miss_upper_frozen_value():
    # t = sqrt(3) * sqrt(3) * sigma gives ratio r = 3
    assert lc.within_miss_upper(0.3, 0.1) == pytest.approx(0.25870119591913694, rel=1e-15)
    assert lc.within_miss_upper(0.3, 0.1) == pytest.approx(
        math.exp(-1.5 * (2.0 - math.log(3.0))), rel=1e-15
    )


def test_between_accept_lower_frozen_value():
    assert lc.between_accept_lower(0.1, 0.01, 2.0) == pytest.approx(
        0.069460419262798307, rel=1e-15
    )
    # sigma = 0 drops the damping factor entirely
    assert lc.between_accept_lower(0.1, 0.0, 2.0) == pytest.approx(
        0.1 * math.sqrt(2.0) / 2.0 - 0.01 / 8.0, rel=1e-15
    )


def test_between_accept_upper_frozen_value_and_clamp():
    assert lc.between_accept_upper(0.1, 0.01, 1.0) == pytest.approx(
        0.97120096180347716, rel=1e-15
    )
    # at ell = 2 the raw envelope evaluates to ~1.276 and is clamped
    assert lc.between_accept_upper(0.1, 0.01, 2.0) == 1.0


def test_disc_intersect_upper_is_exactly_linear():
    assert lc.disc_intersect_upper(0.1, 0.01, 2.0) == 7.0 * (0.1 + 0.005)
    assert lc.disc_intersect_upper(0.2, 0.0, 1.0) == pytest.approx(1.0)  # clamped


def test_tail_chi2_frozen_value():
    assert lc.tail_chi2(3, 2.0) == pytest.approx(0.63110739731278031, rel=1e-15)
    assert lc.tail_chi2(3, 2.0) == pytest.approx(
        math.exp(-1.5 * (1.0 - math.log(2.0))), rel=1e-15
    )


def test_tail_binomial_frozen_value():
    assert lc.tail_binomial(300.0, 0.1) == pytest.approx(0.73575888234288464, rel=1e-15)
    assert lc.tail_binomial(300.0, 0.1) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)


def test_cdf_rayleigh_exact_form():
    assert lc.cdf_rayleigh(1.0, 1.0) == pytest.approx(1.0 - math.exp(-0.5), rel=1e-15)
    assert lc.cdf_rayleigh(0.0, 1.0) == 0.0
    assert lc.cdf_rayleigh(-1.0, 1.0) == 0.0
    assert lc.cdf_rayleigh(50.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# domains and clamping
# ---------------------------------------------------------------------------


def test_bound_domain_violations_raise():
    with pytest.raises(lc.OutOfValidityError):
        lc.within_miss_upper(0.01, 0.01)  # r <= 1
    with pytest.raises(lc.OutOfValidityError):
        lc.within_miss_upper(0.1, 0.0)
    with pytest.raises(lc.OutOfValidityError):
        lc.between_accept_lower(6.0, 0.01, 2.0)  # t > 2 sqrt(2) ell
    with pytest.raises(lc.OutOfValidityError):
        lc.between_accept_upper(0.7, 0.05, 2.0)  # t + sigma >= ell / e
    with pytest.raises(lc.OutOfValidityError):
        lc.tail_chi2(3, 1.0)
    with pytest.raises(lc.LineClusterError):
        lc.tail_chi2(0, 2.0)
    # k is a count: 2.5 and True are refused, not evaluated as 2.5 and 1.
    for k in (2.5, True):
        with pytest.raises(lc.LineClusterError) as info:
            lc.tail_chi2(k, 2.0)
        assert not isinstance(info.value, lc.OutOfValidityError)
    assert lc.tail_chi2(np.int64(3), 2.0) == lc.tail_chi2(3, 2.0)
    with pytest.raises(lc.OutOfValidityError):
        lc.tail_binomial(300.0, 1.5)
    with pytest.raises(lc.LineClusterError):
        lc.tail_binomial(0.0, 0.1)
    # Scale 0 is outside the formula's domain; a negative or non-finite scale
    # is an error, not a skipped bound.
    with pytest.raises(lc.OutOfValidityError):
        lc.cdf_rayleigh(1.0, 0.0)
    for scale in (-1.0, math.inf, math.nan):
        with pytest.raises(lc.LineClusterError) as info:
            lc.cdf_rayleigh(1.0, scale)
        assert not isinstance(info.value, lc.OutOfValidityError)
    # t, sigma and ell are numbers: True is not 1.0, nor "0.1" a bare TypeError.
    for bad in ((0.0, 0.1, 2.0), (0.1, -1.0, 2.0), (0.1, 0.1, 0.0), (True, 0.1, 2.0),
                (0.1, True, 2.0), (0.1, 0.1, True), ("0.1", 0.1, 2.0), (0.1, "0.1", 2.0),
                (0.1, 0.1, "2")):
        for bound in (lc.disc_intersect_upper, lc.between_accept_lower, lc.between_accept_upper):
            with pytest.raises(lc.LineClusterError) as info:
                bound(*bad)
            assert not isinstance(info.value, lc.OutOfValidityError)


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-4, max_value=10.0),
    st.floats(min_value=1e-2, max_value=10.0),
)
def test_every_bound_clamps_into_the_unit_interval(t, sigma, ell):
    values = [lc.disc_intersect_upper(t, sigma, ell)]
    if t * t > 3.0 * sigma * sigma:
        values.append(lc.within_miss_upper(t, sigma))
    if t <= 2.0 * math.sqrt(2.0) * ell:
        values.append(lc.between_accept_lower(t, sigma, ell))
    if t + sigma < ell / math.e:
        values.append(lc.between_accept_upper(t, sigma, ell))
    values.append(lc.cdf_rayleigh(t, sigma))
    assert all(0.0 <= v <= 1.0 for v in values)


# ---------------------------------------------------------------------------
# Monte-Carlo agreement
# ---------------------------------------------------------------------------


def test_within_miss_bound_holds_in_simulation():
    from linecluster import montecarlo as mc

    # comfortably inside the validity region: essentially no misses
    easy = mc.mc_within_miss(0.05, 0.01, 2.0, n_triples=100_000, seed=31)
    assert easy.estimate <= lc.within_miss_upper(0.05, 0.01) + 3.0 * easy.se
    # near-critical ratio r = 4/3: misses actually occur and stay bounded
    hard = mc.mc_within_miss(0.02, 0.01, 2.0, n_triples=50_000, seed=32)
    assert hard.estimate > 0.0
    assert hard.estimate <= lc.within_miss_upper(0.02, 0.01) + 3.0 * hard.se


@pytest.mark.parametrize("t,sigma", [(0.02, 0.002), (0.05, 0.005)])
def test_acceptance_rates_sit_inside_the_two_sided_envelope(t, sigma):
    from linecluster import montecarlo as mc

    within, between = mc.mc_hyperedge_rates(t, sigma, math.pi / 2.0, 2.0, 20_000, seed=41)
    assert within.estimate >= 1.0 - lc.within_miss_upper(t, sigma) - 3.0 * within.se
    lower = lc.between_accept_lower(t, sigma, 2.0)
    upper = lc.between_accept_upper(t, sigma, 2.0)
    assert between.estimate >= lower - 3.0 * between.se
    assert between.estimate <= 2.0 * upper


def test_tail_helpers_hold_in_simulation():
    from linecluster import montecarlo as mc

    chi = mc.mc_chi2_tail(3, 2.0, 200_000, seed=5)
    assert chi.estimate <= lc.tail_chi2(3, 2.0)

    ray = mc.mc_rayleigh_cdf(0.8, 1.0, 200_000, seed=6)
    assert ray.estimate == pytest.approx(lc.cdf_rayleigh(0.8, 1.0), abs=3.0 * ray.se)

    binom = mc.mc_binomial_tail(300.0, 0.1, 3000, 100_000, seed=7)
    assert binom.estimate <= lc.tail_binomial(300.0, 0.1)


# ---------------------------------------------------------------------------
# expected_similarity
# ---------------------------------------------------------------------------


def test_expected_similarity_perfect_acceptance_spectrum():
    ideal = lc.expected_similarity(4, 1.0, 0.0, [1, 1, 2, 2])
    assert ideal.w_in == 1.0 and ideal.w_out == 0.0
    assert (ideal.lam1, ideal.lam2, ideal.lam_rest) == (1.0, 1.0, -1.0)
    assert ideal.gap == 2.0
    wanted = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float
    )
    dense = ideal_matrix(4, 1.0, 0.0, [1, 1, 2, 2])
    assert np.array_equal(dense, wanted)
    assert np.linalg.eigvalsh(dense) == pytest.approx([-1, -1, 1, 1])


def test_expected_similarity_frozen_six_point_gap():
    ideal = lc.expected_similarity(6, 0.8, 0.2, [1, 1, 1, 2, 2, 2])
    assert ideal.w_in == pytest.approx(2.0)
    assert ideal.w_out == pytest.approx(0.8)
    assert ideal.lam1 == pytest.approx(6.4)
    assert ideal.lam2 == pytest.approx(1.6)
    assert ideal.lam_rest == pytest.approx(-2.0)
    assert ideal.gap == pytest.approx(3.6)


@pytest.mark.parametrize("n", [4, 6, 10])
def test_expected_similarity_closed_form_matches_dense_eigendecomposition(n):
    p, q = 0.7, 0.25
    labels = np.repeat([1, 2], n // 2)
    ideal = lc.expected_similarity(n, p, q, labels)
    vals = np.linalg.eigvalsh(ideal_matrix(n, p, q, labels))
    assert vals[-1] == pytest.approx(ideal.lam1, rel=1e-12)
    assert vals[-2] == pytest.approx(ideal.lam2, rel=1e-12)
    assert vals[:-2] == pytest.approx(np.full(n - 2, ideal.lam_rest), rel=1e-12)
    assert ideal.gap == pytest.approx(n * (n - 2) * (p - q) / 4.0, rel=1e-12)
    assert ideal.gap == pytest.approx(ideal.lam2 - ideal.lam_rest, rel=1e-12)
    # Every label split, including one label only, with p > q, p < q and p == q.
    for n1 in (0, 1, n // 3, n // 2, n - 1):
        labels = np.repeat([1, 2], [n1, n - n1])
        for p, q in ((0.7, 0.25), (0.2, 0.6), (0.4, 0.4)):
            ideal = lc.expected_similarity(n, p, q, labels)
            vals = np.linalg.eigvalsh(ideal_matrix(n, p, q, labels))
            tol = 1e-12 * float(np.abs(vals).max())
            closed = np.sort([ideal.lam1, ideal.lam2] + [ideal.lam_rest] * (n - 2))
            assert closed == pytest.approx(vals, rel=0.0, abs=tol)
            assert ideal.gap == pytest.approx(ideal.lam2 - ideal.lam_rest, rel=0.0, abs=tol)


def test_expected_similarity_unbalanced_labels_fall_back_to_dense_spectrum():
    ideal = lc.expected_similarity(5, 0.9, 0.1, [1, 1, 1, 2, 2])
    vals = np.linalg.eigvalsh(ideal_matrix(5, 0.9, 0.1, [1, 1, 1, 2, 2]))
    assert ideal.lam1 == pytest.approx(vals[-1])
    assert ideal.lam2 == pytest.approx(vals[-2])
    assert ideal.gap == pytest.approx(vals[-2] - vals[-3])


def test_expected_similarity_validation():
    with pytest.raises(lc.LineClusterError):
        lc.expected_similarity(1, 0.5, 0.1, [1])
    with pytest.raises(lc.LineClusterError):
        lc.expected_similarity(4, 1.5, 0.1, [1, 1, 2, 2])
    with pytest.raises(lc.LineClusterError):
        lc.expected_similarity(4, 0.5, -0.1, [1, 1, 2, 2])
    with pytest.raises(lc.LengthMismatchError):
        lc.expected_similarity(4, 0.5, 0.1, [1, 2])
    # n is a count: 4.5 is refused, not used in w_in next to four labels.
    for n in (4.5, True):
        with pytest.raises(lc.LineClusterError):
            lc.expected_similarity(n, 0.5, 0.1, [1, 1, 2, 2])
    assert lc.expected_similarity(np.int64(4), 0.5, 0.1, [1, 1, 2, 2]).w_in == 0.6


# ---------------------------------------------------------------------------
# davis_kahan
# ---------------------------------------------------------------------------


def test_sin_theta_inequality_holds_on_a_pipeline_run(make_dataset):
    data = make_dataset(200, 0.02, seed=9)
    result = lc.cluster(data.points, 0.1, 9, data.labels)
    w, stats = result.similarity, result.stats
    rep = lc.davis_kahan(w, data.labels, stats.p_hat, stats.q_hat, result.embedding)
    assert not rep.skipped
    assert rep.ok
    assert 0.0 <= rep.sin_theta <= math.sqrt(2.0) + 1e-12
    assert rep.sin_theta <= rep.bound
    assert rep.gap > 0.0
    assert rep.deviation_fro > 0.0


def test_sin_theta_check_is_skipped_when_the_ideal_gap_vanishes(make_dataset):
    data = make_dataset(200, 0.02, seed=9)
    result = lc.cluster(data.points, 0.1, 9, data.labels)
    rep = lc.davis_kahan(result.similarity, data.labels, 0.3, 0.3, result.embedding)  # p == q
    assert rep.skipped
    assert rep.ok
    assert math.isnan(rep.sin_theta)
    assert rep.bound == math.inf


def test_sin_theta_matches_a_dense_eigendecomposition_of_the_ideal(make_dataset):
    data = make_dataset(240, 0.02, seed=5)
    first = [np.flatnonzero(data.labels == k)[:60] for k in (1, 2)]
    cases = [
        ("unbalanced", np.arange(data.n), None),
        ("balanced", np.concatenate(first), None),
        ("one label", first[0], (0.5, 0.1)),  # no mixed triples, so no measured q
        ("p == q", np.arange(data.n), (0.3, 0.3)),
    ]
    runs = []
    for name, idx, rates in cases:
        points, labels = data.points[idx], data.labels[idx]
        result = lc.cluster(points, 0.1, 5, labels)
        w, stats = result.similarity, result.stats
        p_hat, q_hat = (stats.p_hat, stats.q_hat) if rates is None else rates
        runs.append((name, w, w.counts, labels, p_hat, q_hat, result.embedding))
    # A raw float array whose diagonal is not zero: it counts in ||W - W*||_F.
    _, w, counts, labels, p_hat, q_hat, embedding = runs[1]
    raw = counts * 0.75 + np.diag(np.linspace(0.5, 3.0, w.n))
    runs.append(("raw float", raw, raw, labels, p_hat, q_hat, embedding))
    for name, w, dense_w, labels, p_hat, q_hat, embedding in runs:
        rep = lc.davis_kahan(w, labels, p_hat, q_hat, embedding)
        skipped, sin_theta, gap, deviation = dense_davis_kahan(
            dense_w, labels, p_hat, q_hat, embedding.u
        )
        assert rep.skipped == skipped, name
        assert rep.skipped == (name in ("one label", "p == q")), name
        assert rep.deviation_fro == pytest.approx(deviation, rel=1e-12), name
        if not skipped:
            assert rep.sin_theta == pytest.approx(sin_theta, rel=0.0, abs=1e-12), name
            assert rep.gap == pytest.approx(gap, rel=1e-12), name
    # W = W*: the deviation vanishes up to the identity's cancellation, whose
    # absolute error is about sqrt(eps) ||W*||_F (at most 4.4e-8 ||W*||_F on
    # 600 random float W* up to n = 700, above 1e-9 on half of them).
    ideal = ideal_matrix(labels.size, p_hat, q_hat, labels)
    rep = lc.davis_kahan(ideal, labels, p_hat, q_hat, embedding)
    assert rep.deviation_fro <= 1e-6 * np.linalg.norm(ideal)


def test_sin_theta_needs_at_least_three_points():
    with pytest.raises(lc.LineClusterError):
        lc.davis_kahan(np.zeros((2, 2)), [1, 2], 0.5, 0.1, None)


def test_sin_theta_refuses_a_malformed_w_or_embedding(make_dataset):
    data = make_dataset(60, 0.02, seed=3)
    result = lc.cluster(data.points, 0.1, 3, data.labels)
    w, stats, embedding = result.similarity, result.stats, result.embedding
    with pytest.raises(lc.LineClusterError, match="square"):
        lc.davis_kahan(w.counts[:, :-1], data.labels, stats.p_hat, stats.q_hat, embedding)
    for bad_entry in (math.nan, math.inf):
        raw = w.counts.astype(float)
        raw[0, 1] = bad_entry
        with pytest.raises(lc.LineClusterError, match="finite"):
            lc.davis_kahan(raw, data.labels, stats.p_hat, stats.q_hat, embedding)
    for u in (embedding.u[:-1], embedding.u[:, :1], embedding.u.T):
        bad = lc.SpectralEmbedding(u=u, eigenvalues=embedding.eigenvalues)
        with pytest.raises(lc.LineClusterError, match="embedding"):
            lc.davis_kahan(w, data.labels, stats.p_hat, stats.q_hat, bad)


def test_sin_theta_builds_no_n_by_n_array():
    n = 2000
    rng = np.random.default_rng(11)
    counts = np.triu(rng.integers(0, n - 2, size=(n, n), dtype=np.int32), 1)
    w = lc.SimilarityMatrix(n=n, counts=counts + counts.T)
    labels = np.repeat(np.array([1, 2], dtype=np.int8), n // 2)
    embedding = lc.SpectralEmbedding(u=rng.standard_normal((n, 2)), eigenvalues=(2.0, 1.0))
    tracemalloc.start()
    try:
        rep = lc.davis_kahan(w, labels, 0.6, 0.2, embedding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.skipped and rep.deviation_fro > 0.0
    # One float64 copy of W alone would be n^2 * 8 B = 30.5 MiB.
    assert peak < 4 * 2**20
