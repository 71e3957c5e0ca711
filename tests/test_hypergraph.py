import math
import os

import numpy as np
import pytest

import linecluster as lc
from linecluster import _scan_numpy
from linecluster.errors import LineClusterError, SizeTooSmallError
from linecluster.hypergraph import active_backend, thread_count

from _oracles import brute_force_scan

try:
    from linecluster import _scan as _scan_compiled
except ImportError:  # pragma: no cover - environment without the extension
    _scan_compiled = None


def test_counts_match_the_cubic_reference_scan(make_dataset):
    ds = make_dataset(25, 0.05, 21)
    t = 0.08
    sim, stats = lc.scan(ds.points, t, ds.labels)
    ref_w, ref_accepted, ref_within = brute_force_scan(ds.points, t, ds.labels)
    assert np.array_equal(sim.counts, ref_w)
    assert stats.accepted_triples == ref_accepted
    assert stats.accepted_within == ref_within


def test_unlabeled_scan_returns_no_stats(make_dataset):
    ds = make_dataset(20, 0.05, 2)
    sim, stats = lc.scan(ds.points, 0.05)
    assert stats is None
    assert sim.counts.shape == (20, 20)


def test_four_collinear_points_and_one_outlier():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 5.0]])
    sim, stats = lc.scan(pts, 1e-6, np.array([1, 1, 1, 1, 2], dtype=np.int8))
    # Exactly the C(4,3) = 4 collinear triples are accepted; each pair among
    # the first four points sits in 2 of them.
    assert stats.accepted_triples == 4
    expected = np.zeros((5, 5), dtype=np.int32)
    expected[:4, :4] = 2 * (np.ones((4, 4), dtype=np.int32) - np.eye(4, dtype=np.int32))
    assert np.array_equal(sim.counts, expected)


def test_similarity_matrix_is_symmetric_with_zero_diagonal(make_dataset):
    ds = make_dataset(40, 0.02, 4)
    sim, _ = lc.scan(ds.points, 0.1)
    assert np.array_equal(sim.counts, sim.counts.T)
    assert np.all(np.diag(sim.counts) == 0)
    assert sim.counts.max() <= ds.n - 2


def test_acceptance_threshold_is_strict():
    # Three exactly collinear points score exactly 0.0; the smallest positive
    # threshold squares to zero, and 0.0 < 0.0 is false: nothing is accepted.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    sim, stats = lc.scan(pts, math.ulp(0.0), np.array([1, 1, 1], dtype=np.int8))
    assert stats.accepted_triples == 0
    assert sim.counts.sum() == 0


@pytest.mark.skipif(_scan_compiled is None, reason="compiled kernel not built")
def test_compiled_and_fallback_kernels_agree_bitwise(make_dataset):
    ds = make_dataset(60, 0.03, 17)
    x = np.ascontiguousarray(ds.points[:, 0])
    y = np.ascontiguousarray(ds.points[:, 1])
    z = np.ascontiguousarray(ds.labels)
    n = ds.n
    t2 = 0.05 * 0.05
    results = []
    for kernel in (_scan_numpy, _scan_compiled):
        w = np.zeros(n * n, dtype=np.int32)
        counts = np.zeros(2, dtype=np.int64)
        kernel.scan_triples(x, y, z, t2, 0, n - 2, w, counts)
        results.append((w, counts))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])


def test_scan_is_independent_of_the_thread_count(make_dataset, monkeypatch):
    ds = make_dataset(80, 0.02, 5)
    monkeypatch.setenv("LINECLUSTER_THREADS", "1")
    assert thread_count() == 1
    sim1, stats1 = lc.scan(ds.points, 0.07, ds.labels)
    monkeypatch.setenv("LINECLUSTER_THREADS", "7")
    assert thread_count() == 7
    sim7, stats7 = lc.scan(ds.points, 0.07, ds.labels)
    assert np.array_equal(sim1.counts, sim7.counts)
    assert stats1 == stats7


def test_thread_count_defaults_to_the_cpu_affinity_set(monkeypatch):
    monkeypatch.delenv("LINECLUSTER_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert thread_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 64


def test_acceptance_rates_use_composition_totals(make_dataset):
    ds = make_dataset(30, 0.05, 8)
    _, stats = lc.scan(ds.points, 0.08, ds.labels)
    n1 = int(np.count_nonzero(ds.labels == 1))
    n2 = ds.n - n1
    within_total = math.comb(n1, 3) + math.comb(n2, 3)
    assert stats.total_within == within_total
    assert stats.total_between == math.comb(ds.n, 3) - within_total
    assert 0.0 <= stats.p_hat <= 1.0
    assert 0.0 <= stats.q_hat <= 1.0
    assert stats.accepted_within + stats.accepted_between == stats.accepted_triples


def test_rate_denominators_of_zero_render_as_nan():
    pts = np.array([[0.0, 0.0], [1.0, 0.1], [2.0, -0.1], [3.0, 0.05]])
    labels = np.array([1, 1, 1, 1], dtype=np.int8)
    _, stats = lc.scan(pts, 0.5, labels)
    assert stats.total_between == 0
    assert math.isnan(stats.q_hat)


def test_scan_validates_inputs(make_dataset):
    ds = make_dataset(10, 0.01, 1)
    with pytest.raises(SizeTooSmallError):
        lc.scan(ds.points[:2], 0.1)
    with pytest.raises(LineClusterError):
        lc.scan(ds.points, 0.0)
    with pytest.raises(LineClusterError):
        lc.scan(ds.points, math.nan)
    with pytest.raises(LineClusterError):
        lc.scan(np.full((5, 2), np.inf), 0.1)
    big = np.zeros((5001, 2))
    with pytest.raises(LineClusterError):
        lc.scan(big, 0.1)


def test_backend_name_is_reported():
    assert active_backend() in ("compiled", "numpy")
    if _scan_compiled is not None:
        assert active_backend() == "compiled"


def test_hyperedge_probabilities_match_a_labeled_scan(make_dataset):
    ds = make_dataset(35, 0.04, 6)
    stats = lc.hyperedge_probabilities(ds.points, ds.labels, 0.06)
    _, stats2 = lc.scan(ds.points, 0.06, ds.labels)
    assert stats == stats2
