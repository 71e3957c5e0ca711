import importlib.util
import itertools
import math
import os
import re
import shutil
import subprocess
import threading
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import linecluster as lc
from linecluster import _scan_c, _scan_numpy, hypergraph
from linecluster.errors import LineClusterError, SizeTooSmallError
from linecluster.hypergraph import BUILD_MIN_N, active_backend, thread_count
from linecluster.tls import _centered_sums, _top_eigen, _triple_scores

from _oracles import brute_force_scan

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture()
def compiled():
    """The package's compiled kernel, built into the session cache if needed."""
    assert hypergraph._compiled.ready(build_missing=True)
    return hypergraph._compiled


def _kernel_result(kernel, ds, t, labeled=True):
    n = ds.n
    w = np.zeros(n * n, dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)
    x = np.ascontiguousarray(ds.points[:, 0])
    y = np.ascontiguousarray(ds.points[:, 1])
    z = np.ascontiguousarray(ds.labels) if labeled else None
    kernel(x, y, z, t * t, 0, n, w, counts)
    return w, counts


def _dyadic_grid():
    """40 points on a 1/8 grid, duplicates included: many triples tie on one
    score, and collinear ones can score below 0 before the clamp."""
    rng = np.random.default_rng(0)
    points = rng.integers(0, 9, size=(40, 2)) / 8.0
    return SimpleNamespace(n=40, points=points, labels=rng.integers(1, 3, size=40).astype(np.int8))


def _quarter_lattice():
    """200 points on a 1/4 lattice, duplicates included: at t = 0.5 many
    triples score exactly t * t, so the C kernel's exact path runs in many rows."""
    rng = np.random.default_rng(1)
    points = rng.integers(0, 12, size=(200, 2)) / 4.0
    labels = rng.integers(1, 3, size=200).astype(np.int8)
    return SimpleNamespace(n=200, points=points, labels=labels)


def _shifted(ds, offset):
    return SimpleNamespace(n=ds.n, points=ds.points + offset, labels=ds.labels)


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


@needs_cc
@pytest.mark.parametrize("case", [
    "61", "200", "dyadic-grid", "quarter-lattice", "200-shifted", "near-1e80",
    pytest.param("near-1e160", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_compiled_and_fallback_kernels_agree_bitwise(make_dataset, monkeypatch, compiled, case):
    if case == "dyadic-grid":
        ds, t = _dyadic_grid(), 0.125  # t * t == 1/64, the score of many triples
    elif case == "quarter-lattice":
        ds, t = _quarter_lattice(), 0.5
    elif case == "200-shifted":
        ds, t = _shifted(make_dataset(200, 0.03, 17), 1e3), 0.05
    elif case.startswith("near-"):
        # |p|^2 is past the C kernel's filter limit (1e160 and inf), so its
        # exact path decides every triple. Near 1e80 the scores are ordinary;
        # near 1e160 the score's own squares overflow as well, and both
        # kernels must turn the same infs and NaNs into the same counts.
        big = float(case[len("near-"):])
        spread = big * 1e-10
        ds = make_dataset(200, 0.03, 17)
        ds = SimpleNamespace(n=ds.n, points=big + ds.points * spread, labels=ds.labels)
        t = 0.05 * spread
    else:
        ds, t = make_dataset(int(case), 0.03, 17), 0.05
    n = ds.n
    w_np, counts_np = _kernel_result(_scan_numpy.scan_triples, ds, t)
    w_c, counts_c = _kernel_result(compiled.scan_triples, ds, t)
    assert np.array_equal(w_np, w_c)
    assert np.array_equal(counts_np, counts_c)
    for kernel in (_scan_numpy.scan_triples, compiled.scan_triples):
        w, counts = _kernel_result(kernel, ds, t, labeled=False)
        assert np.array_equal(w, w_np)
        assert (counts[0], counts[1]) == (counts_np[0], 0)
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LINECLUSTER_THREADS", threads)
        sim, stats = lc.scan(ds.points, t, ds.labels)
        assert sim.backend == "compiled"
        results.append((sim.counts, stats))
    upper = w_np.reshape(n, n)
    assert np.array_equal(results[0][0], upper + upper.T)
    assert np.array_equal(results[1][0], results[0][0])
    assert results[0][1] == results[1][1]
    assert (results[0][1].accepted_triples, results[0][1].accepted_within) == tuple(counts_np)


@needs_cc
def test_both_kernels_reject_ties_and_clamp_negative_scores(compiled):
    ds = _dyadic_grid()
    i, j, k = np.array(list(itertools.combinations(range(ds.n), 3))).T
    x, y = ds.points[:, 0], ds.points[:, 1]
    triples = (x[i], y[i], x[j], y[j], x[k], y[k])
    scores = _triple_scores(*triples)
    t = 0.125
    assert t * t == 1 / 64 and np.count_nonzero(scores == t * t) >= 10
    # Before the clamp, rounding puts some collinear triples below 0.
    raw = [_top_eigen(*_centered_sums(*triple))[1] for triple in zip(*triples)]
    assert min(raw) < 0.0
    for kernel in (_scan_numpy.scan_triples, compiled.scan_triples):
        # Strict: a score equal to t * t is rejected.
        assert _kernel_result(kernel, ds, t)[1][0] == np.count_nonzero(scores < t * t)
        # Clamped: at t = 0 nothing is accepted, negative raw scores included.
        w, counts = _kernel_result(kernel, ds, 0.0)
        assert not w.any() and not counts.any()


@needs_cc
def test_gcc_vectorizes_the_kernel_k_loop(tmp_path):
    # A branch brought back into the k loop stops vectorization and costs
    # about 2x; gcc reports each loop it vectorizes with -fopt-info. The AVX2
    # clone vectorizes with 32-byte vectors (and its epilogue with 16-byte
    # ones), so the baseline body is checked on a copy without the clones.
    macros = subprocess.run(["cc", "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True, check=True).stdout
    defined = {line.split()[1] for line in macros.splitlines() if line.startswith("#define ")}
    if "__clang__" in defined or not {"__GNUC__", "__x86_64__"} <= defined:
        pytest.skip("the vectorization report is checked for gcc on x86-64")
    shipped = _scan_c._SOURCE.read_text()
    k_line = next(number for number, line in enumerate(shipped.splitlines(), 1)
                  if "for (int64_t k" in line)
    clones = '__attribute__((target_clones("avx2", "default")))'
    assert shipped.count(clones) == 1
    for text, width in ((shipped, 32), (shipped.replace(clones, ""), 16)):
        source = tmp_path / "_scan.c"
        source.write_text(text)
        report = subprocess.run(["cc", *_scan_c._FLAGS, "-c", "-fopt-info-vec-optimized",
                                 "-o", str(tmp_path / "scan.o"), str(source)],
                                capture_output=True, text=True, check=True).stderr
        vectorized = rf"_scan\.c:{k_line}:\d+: (optimized|note): loop vectorized using {width} byte"
        assert re.search(vectorized, report), report


@needs_cc
def test_near_ties_are_decided_like_the_score(compiled):
    # Triples of every spread and offset, many of them nearly collinear, each
    # scanned at its own score as t * t and at the two neighbouring doubles:
    # only the exact path can decide such a tie, so a filter band too narrow
    # for its rounding errors accepts or rejects some of them wrongly.
    rng = np.random.default_rng(7)
    m = 3000
    spread = 10.0 ** rng.uniform(-6, 3, m)
    offset = np.where(rng.random(m) < 0.2, 0.0, 10.0 ** rng.uniform(0, 6, m))
    squash = 10.0 ** rng.uniform(-8, 0, m)
    pts = rng.standard_normal((m, 3, 2)) * spread[:, None, None]
    pts[:, :, 1] *= squash[:, None]
    pts += offset[:, None, None] * rng.choice([-1.0, 1.0], size=(m, 1, 2))
    scores = _triple_scores(*(pts[:, p, d] for p in range(3) for d in range(2)))
    w = np.zeros(9, dtype=np.int32)
    counts = np.zeros(2, dtype=np.int64)
    wrong = []
    for triple, score in zip(pts, scores):
        x, y = np.ascontiguousarray(triple[:, 0]), np.ascontiguousarray(triple[:, 1])
        for t2 in (np.nextafter(score, -np.inf), score, np.nextafter(score, np.inf)):
            counts[:] = 0
            compiled.scan_triples(x, y, None, float(t2), 0, 3, w, counts)
            if counts[0] != (score < t2):
                wrong.append((triple.tolist(), float(t2)))
    assert wrong == []


@needs_cc
def test_c_kernel_exact_path_takes_only_near_ties(make_dataset, compiled):
    # The filter must decide nearly every triple of noisy data, wherever it
    # sits; a band wide enough to send everything to the slow exact path
    # would still give the right counts.
    def exact_path_triples(ds, t):
        x, y = np.ascontiguousarray(ds.points[:, 0]), np.ascontiguousarray(ds.points[:, 1])
        w = np.zeros(ds.n * ds.n, dtype=np.int32)
        return compiled.scan_triples(x, y, None, t * t, 0, ds.n, w, np.zeros(2, dtype=np.int64))

    ds = make_dataset(200, 0.03, 17)
    for points in (ds, _shifted(ds, 1e3)):
        assert exact_path_triples(points, 0.05) <= 1e-6 * math.comb(ds.n, 3)
    # Exact ties (scores equal to t * t) are left to the exact path.
    assert exact_path_triples(_dyadic_grid(), 0.125) > 0


def test_kernel_allocation_failure_raises_memory_error():
    kernel = _scan_c.CompiledKernel()
    kernel._fn = lambda *args: -1  # what the C kernel returns when malloc fails
    x = np.zeros(3)
    with pytest.raises(MemoryError):
        kernel.scan_triples(x, x, None, 1.0, 0, 3, np.zeros(9, np.int32), np.zeros(2, np.int64))


@needs_cc
def test_small_scan_with_an_empty_cache_starts_no_compiler(make_dataset, monkeypatch, tmp_path):
    ds = make_dataset(BUILD_MIN_N - 1, 0.02, 3)
    expected = _kernel_result(_scan_numpy.scan_triples, ds, 0.05)[0].reshape(ds.n, ds.n)

    def no_process(*args, **kwargs):
        raise AssertionError("a small scan started a process")

    monkeypatch.setattr(hypergraph, "_compiled", _scan_c.CompiledKernel(tmp_path))
    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    sim, _ = lc.scan(ds.points, 0.05)
    assert sim.backend == "numpy"
    assert np.array_equal(sim.counts, expected + expected.T)
    assert list(tmp_path.iterdir()) == []


@needs_cc
def test_racing_builds_leave_one_valid_library(make_dataset, tmp_path):
    target = tmp_path / _scan_c.library_name()
    barrier = threading.Barrier(2)
    errors = []

    def build():
        barrier.wait(timeout=30)
        try:
            _scan_c.build(target)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    builders = [threading.Thread(target=build) for _ in range(2)]
    for thread in builders:
        thread.start()
    for thread in builders:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in builders) and errors == []
    assert list(tmp_path.iterdir()) == [target]
    kernel = _scan_c.CompiledKernel(tmp_path)
    assert kernel.ready(build_missing=False)
    ds = make_dataset(40, 0.03, 9)
    w, counts = _kernel_result(kernel.scan_triples, ds, 0.05)
    w_np, counts_np = _kernel_result(_scan_numpy.scan_triples, ds, 0.05)
    assert np.array_equal(w, w_np) and np.array_equal(counts, counts_np)


@pytest.mark.parametrize("broken", ["no compiler", "cache dir not writable"])
def test_scan_without_a_usable_build_warns_once_and_matches_numpy(
    make_dataset, monkeypatch, tmp_path, broken
):
    ds = make_dataset(BUILD_MIN_N, 0.02, 4)
    expected = _kernel_result(_scan_numpy.scan_triples, ds, 0.05)[0].reshape(ds.n, ds.n)
    if broken == "no compiler":
        monkeypatch.setenv("PATH", "")
        cache = tmp_path
    else:
        cache = tmp_path / "a-file"
        cache.write_text("")
    monkeypatch.setattr(hypergraph, "_compiled", _scan_c.CompiledKernel(cache))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first, _ = lc.scan(ds.points, 0.05)
        second, _ = lc.scan(ds.points, 0.05)
        assert active_backend() == "numpy"
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert messages == [_scan_c.FALLBACK_WARNING]
    for sim in (first, second):
        assert sim.backend == "numpy"
        assert np.array_equal(sim.counts, expected + expected.T)


@needs_cc
@pytest.mark.parametrize("threads", [1, 4])
def test_scan_peak_memory_is_one_buffer_per_worker(make_dataset, monkeypatch, compiled, threads):
    n = 400
    ds = make_dataset(n, 0.01, 3)
    monkeypatch.setenv("LINECLUSTER_THREADS", str(threads))
    tracemalloc.start()
    try:
        sim, _ = lc.scan(ds.points, 0.05, ds.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sim.backend == "compiled"
    # One n*n int32 buffer per worker plus the symmetric result, and slack
    # for the small arrays around them.
    assert peak < (threads + 2) * n * n * 4 + (1 << 16)


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


def test_backend_name_is_reported(make_dataset):
    assert active_backend() in ("compiled", "numpy")
    if shutil.which("cc") is not None:
        assert active_backend() == "compiled"
    # Once the kernel is loaded, small scans run it too, and say so.
    sim, _ = lc.scan(make_dataset(12, 0.01, 1).points, 0.05)
    assert sim.backend == active_backend()


def test_hyperedge_probabilities_match_a_labeled_scan(make_dataset):
    ds = make_dataset(35, 0.04, 6)
    stats = lc.hyperedge_probabilities(ds.points, ds.labels, 0.06)
    _, stats2 = lc.scan(ds.points, 0.06, ds.labels)
    assert stats == stats2


def test_bench_scan_compares_both_kernels_in_process(capsys):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_scan.py"
    spec = importlib.util.spec_from_file_location("bench_scan", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--sizes", "40,60", "--repeats", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    verdict = "yes" if shutil.which("cc") is not None else "not compared"
    assert [row.split()[0] for row in rows] == ["40", "60"]
    assert all(row.endswith(verdict) for row in rows)
