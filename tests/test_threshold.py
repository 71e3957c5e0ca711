"""Order-statistic threshold selection and the sample-then-cluster pipeline."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import linecluster as lc

# ---------------------------------------------------------------------------
# choose_order_stat
# ---------------------------------------------------------------------------


def test_order_stat_quarter_of_eight_scores():
    scores = [0.08, 0.01, 0.03, 0.05, 0.02, 0.06, 0.04, 0.07]
    choice = lc.choose_order_stat(scores, 0.25)
    assert choice == lc.ThresholdChoice(t_star=0.02, k=2, theta=0.25, clamped=False)


def test_order_stat_theta_one_takes_the_maximum():
    scores = [0.08, 0.01, 0.03, 0.05, 0.02, 0.06, 0.04, 0.07]
    choice = lc.choose_order_stat(scores, 1.0)
    assert choice == lc.ThresholdChoice(t_star=0.08, k=8, theta=1.0, clamped=False)


def test_order_stat_clamps_k_up_to_one_on_a_single_score():
    choice = lc.choose_order_stat([0.5], 0.25)
    assert choice == lc.ThresholdChoice(t_star=0.5, k=1, theta=0.25, clamped=True)


def test_order_stat_theta_zero_clamps_to_the_minimum():
    choice = lc.choose_order_stat([0.3, 0.1, 0.2], 0.0)
    assert choice.t_star == 0.1
    assert choice.k == 1
    assert choice.clamped


def test_order_stat_rounds_half_away_from_zero():
    # theta*M = 2.5 rounds to 3, not to the even neighbor 2.
    choice = lc.choose_order_stat([5.0, 4.0, 3.0, 2.0, 1.0], 0.5)
    assert choice.k == 3
    assert choice.t_star == 3.0
    assert not choice.clamped


def test_order_stat_validation():
    with pytest.raises(lc.EmptySampleError):
        lc.choose_order_stat([], 0.5)
    for theta in (-0.1, 1.1):
        with pytest.raises(lc.LineClusterError):
            lc.choose_order_stat([1.0], theta)
    # theta is a number: True is not 1.0, nor "0.5" a bare TypeError.
    for theta in (True, "0.5", None):
        with pytest.raises(lc.LineClusterError, match="theta must be a number"):
            lc.choose_order_stat([0.1, 0.2], theta)
    assert lc.choose_order_stat([0.1, 0.2], np.float64(0.5)).theta == 0.5
    with pytest.raises(lc.LineClusterError, match="one-dimensional"):
        lc.choose_order_stat([[0.1, 0.2], [0.3, 0.4]], 0.5)
    with pytest.raises(lc.LineClusterError, match="NaN"):
        lc.choose_order_stat([0.1, math.nan, 0.2], 1.0)


@given(
    hnp.arrays(
        np.float64,
        st.integers(min_value=1, max_value=40),
        elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        unique=True,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_order_stat_tracks_theta_on_distinct_scores(scores, theta):
    choice = lc.choose_order_stat(scores, theta)
    m = scores.size
    assert 1 <= choice.k <= m
    # With distinct scores exactly k of them sit at or below t*.
    assert int(np.count_nonzero(scores <= choice.t_star)) == choice.k
    if not choice.clamped:
        assert abs(choice.k - theta * m) <= 0.5


def test_cdf_inclusion_versus_strict_acceptance_disagree_at_the_threshold():
    """The CDF counts the score equal to t*; hyperedge acceptance would not."""
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    choice = lc.choose_order_stat(scores, 0.5)
    assert choice.t_star == 0.2
    assert int(np.count_nonzero(scores <= choice.t_star)) == 2
    assert int(np.count_nonzero(scores < choice.t_star)) == 1


# ---------------------------------------------------------------------------
# sample_triples / select_threshold
# ---------------------------------------------------------------------------


def test_sampled_triples_have_distinct_nodes_and_are_deterministic():
    triples = lc.sample_triples(50, 40, seed=123)
    assert triples.shape == (40, 3)
    assert triples.dtype == np.int64
    assert triples.min() >= 0 and triples.max() < 50
    for row in triples:
        assert len(set(row.tolist())) == 3
    again = lc.sample_triples(50, 40, seed=123)
    assert np.array_equal(triples, again)
    other = lc.sample_triples(50, 40, seed=124)
    assert not np.array_equal(triples, other)


def test_sample_triples_validation():
    with pytest.raises(lc.LineClusterError):
        lc.sample_triples(2, 5, seed=0)
    with pytest.raises(lc.EmptySampleError):
        lc.sample_triples(10, 0, seed=0)
    # n and m must be integers: 2.5 is not silently 2, nor True 1
    for bad in (10.0, True):
        with pytest.raises(lc.LineClusterError, match="n must be an integer"):
            lc.sample_triples(bad, 5, seed=0)
    for bad in (2.5, True):
        with pytest.raises(lc.LineClusterError, match="m must be an integer"):
            lc.sample_triples(10, bad, seed=0)
        with pytest.raises(lc.LineClusterError, match="m must be an integer"):
            lc.select_threshold(np.zeros((10, 2)), bad, 0.5, seed=0)


def test_small_samples_from_a_large_pool_are_usually_node_disjoint():
    """10 triples from 10^4 nodes rarely collide (birthday bound ~4%)."""
    disjoint = sum(
        np.unique(lc.sample_triples(10_000, 10, seed=s)).size == 30 for s in range(100)
    )
    assert disjoint >= 90


def test_about_a_quarter_of_sampled_triples_are_single_component(make_dataset):
    """P(all three labels equal) = 2 * (1/2)^3 = 1/4 under the balanced model."""
    data = make_dataset(10_000, 0.05, seed=5)
    triples = lc.sample_triples(data.n, 4000, seed=7)
    labels = data.labels[triples]
    same = np.all(labels == labels[:, :1], axis=1)
    assert same.mean() == pytest.approx(0.25, abs=0.02)


def test_select_threshold_scores_match_recomputation(make_dataset):
    data = make_dataset(100, 0.05, seed=2)
    sample, choice = lc.select_threshold(data.points, m=25, theta=0.25, seed=9)
    assert sample.triples.shape == (25, 3)
    recomputed = np.array(
        [math.sqrt(lc.sigma_tls_sq(data.points[row])) for row in sample.triples]
    )
    assert np.array_equal(sample.scores, recomputed)
    assert np.array_equal(sample.touched_nodes, np.unique(sample.triples))
    assert choice.t_star in sample.scores
    assert choice.k == 6  # round(0.25 * 25) = 6, half away from zero
    assert sample.touched_nodes.size <= 75


@pytest.mark.parametrize("k", [-600, 600])
def test_threshold_and_labels_follow_an_exact_power_of_two_rescaling(make_dataset, k):
    # At 2**600 the squared deviations overflow, at 2**-600 they underflow;
    # selection and scan both score at unit scale, so nothing changes but t*.
    data = make_dataset(200, 0.02, seed=4)
    base = lc.autocluster(data.points, m=30, theta=0.25, seed=3)
    scaled = lc.autocluster(np.ldexp(data.points, k), m=30, theta=0.25, seed=3)
    assert np.array_equal(scaled.sample.scores, np.ldexp(base.sample.scores, k))
    assert scaled.choice.t_star == math.ldexp(base.choice.t_star, k)
    assert np.array_equal(scaled.labels, base.labels)


@pytest.mark.parametrize("seed", [0, 2])
def test_a_zero_threshold_accepts_nothing_at_every_scale(seed):
    # Two exact lattices on the axes: on these seeds a sampled triple is
    # collinear and t* = 0, which must accept no triple at 2**-600 either.
    k = np.arange(1, 101) / 8
    points = np.concatenate([np.column_stack([k, 0 * k]), np.column_stack([0 * k, k])])
    base = lc.autocluster(points, m=30, theta=0.25, seed=seed)
    scaled = lc.autocluster(np.ldexp(points, -600), m=30, theta=0.25, seed=seed)
    for res in (base, scaled):
        assert res.choice.t_star == 0.0
        assert not res.similarity.counts.any()
        assert res.degenerate and np.all(res.labels[res.rest_indices] == 1)
    assert np.array_equal(scaled.labels, base.labels)


# ---------------------------------------------------------------------------
# autocluster
# ---------------------------------------------------------------------------


def test_autocluster_recovers_noiseless_data_exactly_on_the_rest_set(make_dataset):
    data = make_dataset(240, 1e-6, seed=11)
    result = lc.autocluster(data.points, m=30, theta=0.25, seed=1)
    # the selected order statistic came from a single-component triple,
    # so it sits on the noise scale
    assert result.choice.t_star < 1e-5
    rest = result.rest_indices
    assert lc.ham_star(result.labels[rest], data.labels[rest]) == 0


def test_autocluster_on_one_line_plus_outlier_keeps_the_line_complete():
    """theta = 1 picks the largest sampled score, so every remaining triple
    of the collinear points is accepted and the co-incidence counts saturate."""
    xs = np.linspace(-1.0, 1.0, 49)
    points = np.vstack([np.column_stack([xs, 0.7 * xs]), [0.0, 3.0]])
    result = lc.autocluster(points, m=40, theta=1.0, seed=0)
    assert result.choice == lc.ThresholdChoice(
        t_star=0.13792669366731125, k=40, theta=1.0, clamped=False
    )
    assert result.choice.t_star == float(np.max(result.sample.scores))
    assert result.rest_indices.size == 6
    assert 49 not in result.rest_indices  # the outlier was consumed by the sample
    w, _ = lc.scan(points[result.rest_indices], result.choice.t_star)
    k = result.rest_indices.size
    complete = 4 * (np.ones((k, k), dtype=np.int32) - np.eye(k, dtype=np.int32))
    assert np.array_equal(w.counts, complete)


def test_autocluster_raises_when_the_sample_consumes_nearly_all_nodes():
    xs = np.linspace(-1.0, 1.0, 49)
    points = np.vstack([np.column_stack([xs, 0.7 * xs]), [0.0, 3.0]])
    with pytest.raises(lc.SampleExhaustsNodesError):
        lc.autocluster(points, m=40, theta=1.0, seed=4)


def test_autocluster_always_raises_when_every_node_is_touched():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(lc.SampleExhaustsNodesError):
        lc.autocluster(points, m=5, theta=0.5, seed=0)  # any triple touches all 3


def test_autocluster_is_deterministic_and_labels_touched_nodes_in_one_two(make_dataset):
    data = make_dataset(150, 0.02, seed=4)
    first = lc.autocluster(data.points, m=20, theta=0.25, seed=6)
    second = lc.autocluster(data.points, m=20, theta=0.25, seed=6)
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.rest_indices, second.rest_indices)
    assert first.choice == second.choice
    touched = first.sample.touched_nodes
    assert set(np.unique(first.labels[touched]).tolist()) <= {1, 2}
    assert set(np.unique(first.labels).tolist()) <= {1, 2}
    # rest indices and touched nodes partition the point set
    merged = np.sort(np.concatenate([touched, first.rest_indices]))
    assert np.array_equal(merged, np.arange(data.n))


def test_autocluster_with_labels_tallies_the_rest_set_without_changing_the_result(make_dataset):
    data = make_dataset(150, 0.02, seed=4)
    plain = lc.autocluster(data.points, m=20, theta=0.25, seed=6)
    labeled = lc.autocluster(data.points, m=20, theta=0.25, seed=6, labels=data.labels)
    assert plain.stats is None
    assert np.array_equal(plain.labels, labeled.labels)
    assert plain.choice == labeled.choice
    assert labeled.stats.total_triples == math.comb(labeled.rest_indices.size, 3)
    assert plain.similarity.n == labeled.similarity.n == labeled.rest_indices.size
    with pytest.raises(lc.LineClusterError):
        lc.autocluster(data.points, m=20, theta=0.25, seed=6, labels=data.labels[:-1])

