import ctypes
import importlib.util
import itertools
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
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
from linecluster.tls import _centered_sums, _top_eigen, _triple_scores, _unit_scale

from _oracles import brute_force_scan

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


@pytest.fixture()
def compiled():
    """The package's compiled kernel, built into the session cache if needed."""
    assert hypergraph._compiled.ready(build_missing=True)
    return hypergraph._compiled


def _kernel_result(kernel, ds, t):
    """The flat upper-triangle W of one kernel call over all outer indices;
    it sums to 3 times the accepted triples."""
    n = ds.n
    w = np.zeros(n * n, dtype=np.int32)
    x = np.ascontiguousarray(ds.points[:, 0])
    y = np.ascontiguousarray(ds.points[:, 1])
    kernel(x, y, t * t, 0, n, w)
    return w


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


def _near_origin(ds, step):
    """ds at unit scale with its first 12 points moved to a cluster at the
    origin, on a grid of ``step``: their differences, duplicates included,
    are at most 8 * step."""
    points = np.ldexp(ds.points, _unit_scale(ds.points))
    points[:12] = np.random.default_rng(5).integers(-4, 5, size=(12, 2)) * step
    return SimpleNamespace(n=ds.n, points=points, labels=ds.labels)


@pytest.mark.parametrize("case", [
    "random", "one-label", "single-2", "n3", "tiny-t", "huge-t",
])
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
def test_counts_match_the_cubic_reference_scan(make_dataset, monkeypatch, backend, threads, case):
    # The tallies are read off W and the labels, so they are checked against
    # the triple-by-triple count on label layouts where the identity has
    # edge cases: no mixed pair, one lone point, a single triple, nothing
    # accepted and everything accepted.
    if backend == "numpy":
        monkeypatch.setattr(hypergraph, "_use_compiled", lambda n: False)
    else:
        assert hypergraph._compiled.ready(build_missing=True)
    monkeypatch.setenv("LINECLUSTER_THREADS", threads)
    ds = make_dataset(25, 0.05, 21)
    points, labels, t = ds.points, ds.labels, 0.08
    if case == "one-label":
        labels = np.ones(ds.n, dtype=np.int8)
    elif case == "single-2":
        labels = np.ones(ds.n, dtype=np.int8)
        labels[7] = 2
    elif case == "n3":
        points, labels = np.array([[0.0, 0.0], [1.0, 0.01], [2.0, 0.0]]), np.array([1, 2, 1])
    elif case == "tiny-t":
        t = math.ulp(0.0)
    elif case == "huge-t":
        t = 1e300
    n = points.shape[0]
    sim, stats = lc.scan(points, t, labels)
    assert sim.backend == backend
    ref_w, ref_accepted, ref_within = brute_force_scan(points, t, labels)
    assert np.array_equal(sim.counts, ref_w)
    assert stats.accepted_triples == ref_accepted
    assert stats.accepted_within == ref_within
    assert stats.accepted_between == ref_accepted - ref_within
    # Labels change no count: the unlabeled scan gives the same bytes.
    assert lc.scan(points, t)[0].counts.tobytes() == sim.counts.tobytes()
    n1 = int(np.count_nonzero(np.asarray(labels) == 1))
    if case == "one-label":
        assert stats.total_between == 0 and math.isnan(stats.q_hat)
    elif case == "single-2":
        assert (stats.total_within, stats.total_between) == (math.comb(n - 1, 3),
                                                             math.comb(n - 1, 2))
    elif case == "n3":
        assert (stats.accepted_triples, stats.accepted_within) == (1, 0)
    elif case == "tiny-t":
        assert stats.accepted_triples == 0 and not sim.counts.any()
    elif case == "huge-t":
        assert stats.accepted_triples == math.comb(n, 3)
        assert stats.accepted_within == math.comb(n1, 3) + math.comb(n - n1, 3)


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


BITWISE_CASES = [
    "61", "200", "dyadic-grid", "quarter-lattice", "200-shifted", "near-1e80", "near-1e160",
    "dups-below-2^-126", "dups-below-2^-149", "t2-below-FLT_MIN", "t2-above-FLT_MAX",
    "offset-1e6",
]


def _bitwise_case(make_dataset, case):
    """The points and t of one case of the kernels' bitwise agreement.

    The float32 hazards of the C kernel's filter, at the unit scale scan
    works at: differences that are subnormal floats (2^-130 steps) or round
    to 0 as floats (2^-152 steps); t * t below FLT_MIN, with near-duplicates
    whose scores lie around it; t * t above FLT_MAX; and points 1e6 from the
    origin, scanned both as they are and at unit scale."""
    if case == "dyadic-grid":
        ds, t = _dyadic_grid(), 0.125  # t * t == 1/64, the score of many triples
    elif case == "quarter-lattice":
        ds, t = _quarter_lattice(), 0.5
    elif case == "200-shifted":
        ds, t = _shifted(make_dataset(200, 0.03, 17), 1e3), 0.05
    elif case == "dups-below-2^-126":
        ds, t = _near_origin(make_dataset(200, 0.03, 17), 2.0**-130), 0.05
    elif case == "dups-below-2^-149":
        ds, t = _near_origin(make_dataset(200, 0.03, 17), 2.0**-152), 0.05
    elif case == "t2-below-FLT_MIN":
        ds, t = _near_origin(make_dataset(200, 0.03, 17), 2.0**-66), 2.0**-64
    elif case == "t2-above-FLT_MAX":
        ds, t = _near_origin(make_dataset(200, 0.03, 17), 2.0**-130), 2.0**65
    elif case == "offset-1e6":
        ds, t = _shifted(make_dataset(200, 0.03, 17), 1e6), 0.05
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
    return ds, t


@needs_cc
@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))
    if case == "near-1e160" else case for case in BITWISE_CASES
])
def test_compiled_and_fallback_kernels_agree_bitwise(make_dataset, monkeypatch, compiled, case):
    ds, t = _bitwise_case(make_dataset, case)
    n = ds.n
    w_np = _kernel_result(_scan_numpy.scan_triples, ds, t)
    w_c = _kernel_result(compiled.scan_triples, ds, t)
    assert np.array_equal(w_np, w_c)
    # scan runs the kernels on the points scaled by a power of two to unit
    # scale. That changes no count unless the raw scores overflow, as the
    # squares do near 1e160; there scan counts the true scores' acceptances.
    scale = _unit_scale(ds.points)
    unit = SimpleNamespace(n=n, points=np.ldexp(ds.points, scale), labels=ds.labels)
    t_unit = float(np.ldexp(t, scale))
    w_unit = _kernel_result(_scan_numpy.scan_triples, unit, t_unit)
    if case != "near-1e160":
        assert np.array_equal(w_unit, w_np)
    # The within tally, counted by scanning each label's points on their own.
    within = sum(int(_kernel_result(_scan_numpy.scan_triples,
                                    SimpleNamespace(n=int(part.sum()), points=unit.points[part]),
                                    t_unit).sum()) for part in (ds.labels == 1, ds.labels == 2))
    results = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LINECLUSTER_THREADS", threads)
        sim, stats = lc.scan(ds.points, t, ds.labels)
        assert sim.backend == "compiled"
        results.append((sim.counts, stats))
    upper = w_unit.reshape(n, n)
    assert np.array_equal(results[0][0], upper + upper.T)
    assert np.array_equal(results[1][0], results[0][0])
    assert np.array_equal(lc.scan(ds.points, t)[0].counts, results[0][0])
    assert results[0][1] == results[1][1]
    stats = results[0][1]
    assert (3 * stats.accepted_triples, 3 * stats.accepted_within) == (int(w_unit.sum()), within)


@pytest.mark.parametrize("backend", ["numpy", pytest.param("compiled", marks=needs_cc)])
def test_scan_is_exact_under_power_of_two_scaling(make_dataset, monkeypatch, backend):
    # Scaled by 2**600 the squared deviations overflow, by 2**-600 they
    # underflow; the scan works at unit scale, so W does not move.
    if backend == "numpy":
        monkeypatch.setattr(hypergraph, "_use_compiled", lambda n: False)
    else:
        assert hypergraph._compiled.ready(build_missing=True)
    ds, t = make_dataset(200, 0.03, 17), 0.05
    for threads in ("1", "2"):
        monkeypatch.setenv("LINECLUSTER_THREADS", threads)
        ref, ref_stats = lc.scan(ds.points, t, ds.labels)
        assert ref.backend == backend
        for k in (-600, -300, 300, 600):
            sim, stats = lc.scan(np.ldexp(ds.points, k), math.ldexp(t, k), ds.labels)
            assert np.array_equal(sim.counts, ref.counts), k
            assert stats == ref_stats


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
        assert _kernel_result(kernel, ds, t).sum() // 3 == np.count_nonzero(scores < t * t)
        # Clamped: at t = 0 nothing is accepted, negative raw scores included.
        assert not _kernel_result(kernel, ds, 0.0).any()


CLONES = '__attribute__((target_clones("avx512f", "avx2", "default")))'
# The kernel's three bodies: the attribute each is compiled with in place of
# the clones, and the bytes of its vectors.
BODIES = {"avx512f": ('__attribute__((target("avx512f")))', 64),
          "avx2": ('__attribute__((target("avx2")))', 32),
          "default": ("", 16)}


@pytest.fixture(scope="module")
def kernel_bodies(tmp_path_factory):
    """Each body of the kernel compiled alone into a library: its path and
    gcc's vectorization report, by body name."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    macros = subprocess.run(["cc", "-dM", "-E", "-x", "c", os.devnull],
                            capture_output=True, text=True, check=True).stdout
    defined = {line.split()[1] for line in macros.splitlines() if line.startswith("#define ")}
    if "__clang__" in defined or not {"__GNUC__", "__x86_64__"} <= defined:
        pytest.skip("the kernel's bodies are compiled one by one with gcc on x86-64")
    shipped = _scan_c._SOURCE.read_text()
    assert shipped.count(CLONES) == 1
    directory = tmp_path_factory.mktemp("bodies")
    bodies = {}
    for name, (attribute, _) in BODIES.items():
        source = directory / f"{name}.c"
        source.write_text(shipped.replace(CLONES, attribute))
        library = directory / f"{name}.so"
        report = subprocess.run(["cc", *_scan_c._FLAGS, "-fopt-info-vec-optimized",
                                 "-o", str(library), str(source)],
                                capture_output=True, text=True, check=True).stderr
        bodies[name] = library, report
    return bodies


def test_gcc_vectorizes_the_kernel_k_loop(kernel_bodies):
    # A branch brought back into the paired k loop stops vectorization and
    # costs about 2x; gcc reports each loop it vectorizes with -fopt-info.
    # Each body's main loop uses its ISA's full width (its epilogue a
    # narrower one).
    lines = _scan_c._SOURCE.read_text().splitlines()
    k_line = next(number for number, line in enumerate(lines, 1)
                  if "for (int64_t k = j + 2;" in line)
    for name, (_, width) in BODIES.items():
        report = kernel_bodies[name][1]
        found = re.findall(rf"{name}\.c:{k_line}:\d+: (?:optimized|note): "
                           rf"loop vectorized using (\d+) byte", report)
        assert found and max(map(int, found)) == width, (name, report)


def _cpu_flags():
    """The CPU's feature flags, from /proc/cpuinfo (empty where there is none)."""
    try:
        with open("/proc/cpuinfo") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def _wrong_near_ties(scan_triples):
    """Triples of every spread and offset, many of them nearly collinear, that
    ``scan_triples`` decides unlike their score, each scanned at its own score
    as t * t and at the two neighbouring doubles."""
    w = np.zeros(9, dtype=np.int32)
    wrong = []
    for seed in (7, 8):
        rng = np.random.default_rng(seed)
        m = 3000
        spread = 10.0 ** rng.uniform(-6, 3, m)
        offset = np.where(rng.random(m) < 0.2, 0.0, 10.0 ** rng.uniform(0, 6, m))
        squash = 10.0 ** rng.uniform(-12, 0, m)
        pts = rng.standard_normal((m, 3, 2)) * spread[:, None, None]
        pts[:, :, 1] *= squash[:, None]
        pts += offset[:, None, None] * rng.choice([-1.0, 1.0], size=(m, 1, 2))
        scores = _triple_scores(*(pts[:, p, d] for p in range(3) for d in range(2)))
        for triple, score in zip(pts, scores):
            x, y = np.ascontiguousarray(triple[:, 0]), np.ascontiguousarray(triple[:, 1])
            for t2 in (np.nextafter(score, -np.inf), score, np.nextafter(score, np.inf)):
                w[:] = 0
                scan_triples(x, y, float(t2), 0, 3, w)
                # w[1], the pair (0, 1), counts the one triple's acceptance.
                if w[1] != (score < t2):
                    wrong.append((seed, triple.tolist(), float(t2)))
    return wrong


@pytest.mark.parametrize("body", list(BODIES))
def test_every_kernel_body_agrees_with_numpy_bitwise(make_dataset, kernel_bodies, body):
    # The loader runs one body per CPU, so the others would go untested here:
    # each is loaded from its own library. Every scan pairs rows j and j + 1,
    # and its outer points have rows of both parities, so the paired loop,
    # the triple (i, j, j + 1) and a pair whose second row is empty all run;
    # n = 61 and n = 200 (and the 40-point grid) end on both parities.
    if body != "default" and body not in _cpu_flags():
        pytest.skip(f"this CPU lacks {body}")
    lib = ctypes.CDLL(str(kernel_bodies[body][0]))
    lib.scan_triples.argtypes = _scan_c._ARGTYPES
    lib.scan_triples.restype = ctypes.c_int64

    def scan_triples(x, y, t2, i_lo, i_hi, w):
        return lib.scan_triples(x.ctypes.data, y.ctypes.data, x.shape[0], t2, i_lo, i_hi,
                                w.ctypes.data)

    for case in BITWISE_CASES:
        ds, t = _bitwise_case(make_dataset, case)
        with np.errstate(all="ignore"):  # near 1e160 the scores overflow
            expected = _kernel_result(_scan_numpy.scan_triples, ds, t)
        assert np.array_equal(_kernel_result(scan_triples, ds, t), expected), case
    assert _wrong_near_ties(scan_triples) == []


@needs_cc
def test_near_ties_are_decided_like_the_score(compiled):
    # Only the exact path can decide a near tie, so a filter band too narrow
    # for its rounding errors accepts or rejects some of them wrongly.
    assert _wrong_near_ties(compiled.scan_triples) == []


@needs_cc
def test_c_kernel_exact_path_takes_only_near_ties(make_dataset, compiled):
    # The filter must decide nearly every triple of noisy data, wherever it
    # sits; a band wide enough to send everything to the slow exact path
    # would still give the right counts.
    def exact_path_triples(ds, t):
        x, y = np.ascontiguousarray(ds.points[:, 0]), np.ascontiguousarray(ds.points[:, 1])
        w = np.zeros(ds.n * ds.n, dtype=np.int32)
        return compiled.scan_triples(x, y, t * t, 0, ds.n, w)

    ds = make_dataset(200, 0.03, 17)
    for points in (ds, _shifted(ds, 1e3)):
        assert exact_path_triples(points, 0.05) <= 1e-6 * math.comb(ds.n, 3)
    # The benchmark's regime: the cluster workload's n, sigma and t.
    ds = make_dataset(600, 0.01, 11)
    assert exact_path_triples(ds, 0.05) <= 1e-6 * math.comb(ds.n, 3)
    # Exact ties (scores equal to t * t) are left to the exact path.
    assert exact_path_triples(_dyadic_grid(), 0.125) > 0


def test_kernel_allocation_failure_raises_memory_error():
    kernel = _scan_c.CompiledKernel()
    kernel._fn = lambda *args: -1  # what the C kernel returns when malloc fails
    x = np.zeros(3)
    with pytest.raises(MemoryError):
        kernel.scan_triples(x, x, 1.0, 0, 3, np.zeros(9, np.int32))


@needs_cc
def test_small_scan_with_an_empty_cache_starts_no_compiler(make_dataset, monkeypatch, tmp_path):
    ds = make_dataset(BUILD_MIN_N - 1, 0.02, 3)
    expected = _kernel_result(_scan_numpy.scan_triples, ds, 0.05).reshape(ds.n, ds.n)

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
    w = _kernel_result(kernel.scan_triples, ds, 0.05)
    assert np.array_equal(w, _kernel_result(_scan_numpy.scan_triples, ds, 0.05))


@pytest.mark.parametrize("broken", ["no compiler", "cache dir not writable"])
def test_scan_without_a_usable_build_warns_once_and_matches_numpy(
    make_dataset, monkeypatch, tmp_path, broken
):
    ds = make_dataset(BUILD_MIN_N, 0.02, 4)
    expected = _kernel_result(_scan_numpy.scan_triples, ds, 0.05).reshape(ds.n, ds.n)
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
@pytest.mark.parametrize("threads", [1, 2, 4])
def test_scan_peak_memory_is_one_buffer_per_worker(make_dataset, monkeypatch, compiled, threads):
    n = 1000  # large enough that the slack is a quarter of one buffer
    ds = make_dataset(n, 0.01, 3)
    monkeypatch.setenv("LINECLUSTER_THREADS", str(threads))
    peaks = []
    for labels in (ds.labels, None):
        tracemalloc.start()
        try:
            sim, _ = lc.scan(ds.points, 0.05, labels)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sim.backend == "compiled"
    # One n*n int32 buffer per worker, at most one worker per CPU, W made
    # symmetric inside the first; the slack covers the small arrays around them.
    assert peaks[0] <= min(threads, hypergraph._cpus()) * n * n * 4 + (1 << 20)
    # The tallies of a labeled scan are read off W with no n*n temporary.
    assert peaks[0] <= 1.05 * peaks[1]


@needs_cc
def test_scan_drops_each_part_before_w_is_made_symmetric(make_dataset, monkeypatch, compiled):
    # At n = 200 one row block mirrors all of W, a copy of one buffer, so a
    # part kept alive past the sum would raise the peak to three buffers.
    n = 200
    ds = make_dataset(n, 0.02, 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("LINECLUSTER_THREADS", "2")
    tracemalloc.start()
    try:
        lc.scan(ds.points, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 4


def test_thread_count_refuses_a_non_integer_setting(monkeypatch):
    # Called directly: a scan below BUILD_MIN_N runs numpy and never reads it.
    monkeypatch.setenv("LINECLUSTER_THREADS", "abc")
    with pytest.raises(lc.LineClusterError, match="LINECLUSTER_THREADS must be an integer"):
        thread_count()


def test_scan_is_independent_of_the_thread_count(make_dataset, monkeypatch):
    ds = make_dataset(80, 0.02, 5)
    monkeypatch.setenv("LINECLUSTER_THREADS", "1")
    assert thread_count() == 1
    sim1, stats1 = lc.scan(ds.points, 0.07, ds.labels)
    monkeypatch.setenv("LINECLUSTER_THREADS", "7")
    assert thread_count() == min(7, hypergraph._cpus())
    sim7, stats7 = lc.scan(ds.points, 0.07, ds.labels)
    assert np.array_equal(sim1.counts, sim7.counts)
    assert stats1 == stats7
    # The range/fold helper itself, past the CPU cap that scan applies, with
    # more workers than ranges on n = 3 and 4, and with W symmetrized in more
    # than one row block at n = 300 (against U + U.T of one kernel call).
    big = make_dataset(300, 0.02, 5)
    upper = _kernel_result(_scan_numpy.scan_triples, big, 0.07).reshape(300, 300)
    kernels = [_scan_numpy.scan_triples]
    if hypergraph._use_compiled(BUILD_MIN_N):
        kernels.append(hypergraph._compiled.scan_triples)
    for points, t, expected in ((ds.points, 0.07, sim1.counts),
                                (ds.points[:3], 10.0, brute_force_scan(ds.points[:3], 10.0)[0]),
                                (ds.points[:4], 0.5, brute_force_scan(ds.points[:4], 0.5)[0]),
                                (big.points, 0.07, upper + upper.T)):
        x = np.ascontiguousarray(points[:, 0])
        y = np.ascontiguousarray(points[:, 1])
        for kernel, workers in itertools.product(kernels, (1, 2, 3, 7)):
            w = hypergraph._pair_counts(kernel, x, y, t * t, workers)
            assert w.dtype == np.int32 and np.array_equal(w, expected), (kernel, workers)


@needs_cc
def test_scan_runs_no_more_threads_than_cpus(make_dataset, monkeypatch, compiled):
    ds = make_dataset(120, 0.02, 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("LINECLUSTER_THREADS", "64")
    assert thread_count() == 2  # min(K, CPUs): the threads that actually run
    ranges, starts = [], []
    thread_start = threading.Thread.start

    def record_range(x, y, t2, lo, hi, w):
        ranges.append((lo, hi, threading.get_ident()))
        return type(compiled).scan_triples(compiled, x, y, t2, lo, hi, w)

    def record_start(thread):
        starts.append(thread.name)
        thread_start(thread)

    def scan_ranges():
        ranges.clear()
        sim, _ = lc.scan(ds.points, 0.07)
        assert sim.backend == "compiled"
        got = sorted(ranges)
        # Contiguous ranges that cover every index, the first on the caller's thread.
        assert got[0][0] == 0 and got[-1][1] == ds.n
        assert all(hi == lo for (_, hi, _), (lo, _, _) in zip(got, got[1:]))
        assert got[0][2] == threading.get_ident()
        return sim, {ident for _, _, ident in got}

    monkeypatch.setattr(compiled, "scan_triples", record_range)
    monkeypatch.setattr(threading.Thread, "start", record_start)
    sim, idents = scan_ranges()
    # Two CPUs: two ranges on two threads, the caller's and one worker.
    assert len(ranges) == 2 and len(idents) == 2
    # Later scans reuse the pool's workers and start no thread.
    started = len(starts)
    for _ in range(2):
        assert len(scan_ranges()[1]) == 2
    assert len(starts) == started
    # LINECLUSTER_THREADS still lowers the count: one range, on the caller's thread.
    monkeypatch.setenv("LINECLUSTER_THREADS", "1")
    assert scan_ranges()[1] == {threading.get_ident()} and len(ranges) == 1
    monkeypatch.undo()
    assert np.array_equal(sim.counts, lc.scan(ds.points, 0.07)[0].counts)


@needs_cc
@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_scans_with_workers_of_its_own(make_dataset, monkeypatch, compiled):
    ds = make_dataset(150, 0.02, 6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("LINECLUSTER_THREADS", "2")
    expected = lc.scan(ds.points, 0.07)[0].counts  # leaves the parent's pool with a worker
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads running
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if np.array_equal(lc.scan(ds.points, 0.07)[0].counts, expected) else 3
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's scan did not finish in 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


@needs_cc
def test_concurrent_scans_each_get_their_own_w(make_dataset, monkeypatch, compiled):
    sets = [make_dataset(160, 0.02, seed).points for seed in (7, 8, 9)]
    monkeypatch.setenv("LINECLUSTER_THREADS", "1")
    expected = [lc.scan(points, 0.07)[0].counts for points in sets]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setenv("LINECLUSTER_THREADS", "3")
    barrier = threading.Barrier(len(sets))
    results = [[] for _ in sets]

    def scan_repeatedly(points, out):
        barrier.wait(timeout=30)
        for _ in range(20):
            out.append(lc.scan(points, 0.07)[0].counts)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=scan_repeatedly, args=args)
                   for args in zip(sets, results)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, expected):
        assert len(got) == 20 and all(np.array_equal(w, want) for w in got)


@pytest.mark.parametrize("failing", ["first", "last"])
def test_a_failed_range_raises_after_the_other_ranges_return(failing):
    # The caller's range or a worker's fails at once; the two others take 0.1 s.
    n, done = 60, []

    def kernel(x, y, t2, lo, hi, w):
        if (lo == 0) if failing == "first" else (hi == n):
            raise MemoryError("no room for this range")
        time.sleep(0.1)
        done.append(lo)

    coords = np.zeros(n)
    with pytest.raises(MemoryError, match="no room for this range"):
        hypergraph._pair_counts(kernel, coords, coords, 1.0, 3)
    assert len(done) == 2


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_run_tasks_runs_task_i_in_group_min_i_threads_minus_1(threads, monkeypatch):
    ran = []

    def task(i):
        ran.append((i, threading.get_ident()))
        return i * i

    monkeypatch.setattr(hypergraph, "_cpus", lambda: threads)
    monkeypatch.setenv("LINECLUSTER_THREADS", str(threads))
    if threads == 1:  # one thread touches no pool
        monkeypatch.setattr(hypergraph, "_workers", lambda: pytest.fail("pool used"))
    tasks = [lambda i=i: task(i) for i in range(5)]
    assert hypergraph._run_tasks(tasks) == [0, 1, 4, 9, 16]
    assert sorted(i for i, _ in ran) == list(range(5))
    where = dict(ran)
    assert where[0] == threading.get_ident()
    assert len(set(where.values())) <= threads
    # A group's tasks run on one thread, in task order.
    last = list(range(min(threads, 5) - 1, 5))
    assert len({where[i] for i in last}) == 1
    assert [i for i, _ in ran if i in last] == last


@needs_cc
def test_a_fresh_interpreter_exits_after_a_pooled_scan(compiled):
    code = ("import os, sys, threading\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "os.environ['LINECLUSTER_THREADS'] = '2'\n"
            "import numpy as np, linecluster as lc\n"
            "sim, _ = lc.scan(np.random.default_rng(0).random((200, 2)), 0.05)\n"
            "names = [thread.name for thread in threading.enumerate()]\n"
            "if sim.backend != 'compiled' or not any('linecluster-scan' in n for n in names):\n"
            "    sys.exit(f'no pooled scan: {sim.backend}, {names}')\n")
    src = str(Path(lc.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


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
    # t = 0 is the empty hypergraph; a negative, NaN or infinite t is refused.
    sim, stats = lc.scan(ds.points, 0.0, ds.labels)
    assert sim.counts.shape == (10, 10) and not sim.counts.any()
    assert stats.accepted_triples == 0 and stats.p_hat == 0.0
    for bad in (-0.1, -math.ulp(0.0), math.nan, math.inf):
        with pytest.raises(LineClusterError):
            lc.scan(ds.points, bad)
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


def test_bench_scan_compares_both_kernels_in_process(capsys):
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_scan.py"
    spec = importlib.util.spec_from_file_location("bench_scan", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.main(["--sizes", "40,60", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdict = "yes" if shutil.which("cc") is not None else "not compared"
    # With a compiled kernel, a first line names the body the loader picks.
    if verdict == "yes":
        body = lines.pop(0)
        assert re.fullmatch(r"compiled kernel body: (avx512f|avx2|default), on \d+ thread\(s\)",
                            body), body
    header, _, *rows = lines
    assert [row.split()[0] for row in rows] == ["40", "60"]
    # The scan verdict, the two writers' verdict, the eigen and eigh timings
    # and their verdict, then the k-means timing.
    assert header.split()[-2:] == ["eigenvalues", "kmeans"]
    assert all(f" {verdict} " in row and " same " in row and row.split()[-3] == "agree"
               and row.endswith(" s") and float(row.split()[-2]) > 0.0 for row in rows)
    # Next to the scan verdict, the share of triples the C kernel's exact
    # path decided: a fraction, or "-" when no kernel was compared.
    assert header.split()[6] == "exact"
    shares = [row.split(f" {verdict} ")[1].split()[0] for row in rows]
    if verdict == "yes":
        assert all(0.0 <= float(share) <= 1.0 for share in shares)
    else:
        assert shares == ["-", "-"]
