"""Triple-collinearity hypergraph and its pair-similarity projection.

A triple {i, j, k} is a hyperedge iff its squared TLS residual is strictly
below ``t**2``. Projecting to pairs gives the similarity matrix

    W[i, j] = #{ k : {i, j, k} is a hyperedge },

a symmetric integer matrix with zero diagonal and entries at most n - 2.

Two interchangeable scan kernels accept the same triples: a vectorized numpy
fallback, which evaluates the one score expression
(``linecluster.tls._triple_scores``) on every triple, and a plain-C kernel
(``linecluster._scan_c``), compiled on first use into a per-user cache and
run on ``thread_count()`` threads, which decides most triples by a
divide-free filter and re-checks only near-ties with that expression,
operation for operation. A scan builds the C kernel only when
``n >= BUILD_MIN_N``; smaller scans use it when it is already cached and
numpy otherwise. Without a compiler or a writable cache the scan warns once
and uses numpy. No option picks the kernel: counts are integers accumulated
per disjoint outer-index range, so the result is independent of kernel and
thread count, and ``SimilarityMatrix.backend`` names the kernel that ran.

The scan is O(n^3); n is capped at 5000 (about 2.1e10 triples) to keep a
single call within practical time and memory.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _scan_numpy
from ._scan_c import CompiledKernel
from ._validate import as_labels, as_points
from .errors import LineClusterError

_compiled = CompiledKernel()

MAX_POINTS = 5000

# Smallest scan that compiles the C kernel when it is not cached yet, so a
# fresh process doing a tiny scan never starts a compiler. On a 2-vCPU Xeon
# VM the numpy scan took 0.04 s at n=150 and 0.08 s at n=200, and the build
# 0.46-0.56 s (two inlined copies of the vectorized filter loop and of the
# exact path, each cloned for AVX2). A scan just above the cut pays that
# once per machine; every later one loads the cached library. The cut is
# decided per scan, so it stays low: at about n=400, where one numpy scan
# costs one build, a process doing many mid-size scans (an autocluster
# sweep's rest sets of about 220 points) would run numpy for good while the
# cache is cold.
BUILD_MIN_N = 150


def _use_compiled(n: int) -> bool:
    """Whether an n-point scan runs the C kernel, building it if that pays."""
    return _compiled.ready(build_missing=n >= BUILD_MIN_N)


def active_backend() -> str:
    """Kernel a scan of ``BUILD_MIN_N`` or more points uses: 'compiled' or 'numpy'.

    Builds the C kernel if it is not cached yet; see ``SimilarityMatrix.backend``
    for the kernel a given scan ran.
    """
    return "compiled" if _use_compiled(BUILD_MIN_N) else "numpy"


def thread_count() -> int:
    """Scan threads: LINECLUSTER_THREADS if set, else the CPUs this process
    may run on (compiled only)."""
    env = os.environ.get("LINECLUSTER_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise LineClusterError(f"LINECLUSTER_THREADS must be an integer, got {env!r}") from exc
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Pair co-incidence counts of accepted triples."""

    n: int
    counts: np.ndarray  # (n, n) int32, symmetric, zero diagonal
    backend: str | None = None  # kernel that ran the scan: 'compiled' or 'numpy'


@dataclass(frozen=True)
class HyperedgeStats:
    """Acceptance tallies split by triple label composition."""

    total_triples: int
    accepted_triples: int
    accepted_within: int
    accepted_between: int
    total_within: int
    total_between: int

    @property
    def p_hat(self) -> float:
        """Empirical acceptance rate of single-component triples."""
        return self.accepted_within / self.total_within if self.total_within else math.nan

    @property
    def q_hat(self) -> float:
        """Empirical acceptance rate of mixed triples."""
        return self.accepted_between / self.total_between if self.total_between else math.nan


def _partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split outer indices into ranges of roughly equal triple mass."""
    if parts <= 1:
        return [(0, n)]
    weights = np.array([(n - 1 - i) * (n - 2 - i) // 2 for i in range(n)], dtype=np.int64)
    cum = np.cumsum(weights)
    total = int(cum[-1])
    cuts = [0]
    for p in range(1, parts):
        idx = int(np.searchsorted(cum, total * p / parts))
        cuts.append(min(max(idx, cuts[-1]), n))
    cuts.append(n)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a]


def scan(points, t: float, labels=None) -> tuple[SimilarityMatrix, HyperedgeStats | None]:
    """Score all triples against threshold ``t`` in one pass.

    Returns the similarity matrix and, when true ``labels`` are supplied,
    the acceptance tallies split into within-component and mixed triples.
    """
    pts = as_points(points, min_n=3)
    n = pts.shape[0]
    if n > MAX_POINTS:
        raise LineClusterError(
            f"n = {n} exceeds the supported maximum {MAX_POINTS} (the scan is O(n^3))"
        )
    if not (t > 0.0) or not math.isfinite(t):
        raise LineClusterError(f"threshold t must be positive and finite, got {t}")
    z = np.ascontiguousarray(as_labels(labels, n)) if labels is not None else None
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    t2 = t * t

    if _use_compiled(n):
        kernel, backend, threads = _compiled.scan_triples, "compiled", thread_count()
    else:
        kernel, backend, threads = _scan_numpy.scan_triples, "numpy", 1
    ranges = _partition(n, min(threads, n) * 2 if threads > 1 else 1)
    workers = min(threads, len(ranges))

    def run(worker: int) -> tuple[np.ndarray, np.ndarray]:
        # One buffer per worker, for every range it runs.
        w_part = np.zeros(n * n, dtype=np.int32)
        c_part = np.zeros(2, dtype=np.int64)
        for lo, hi in ranges[worker::workers]:
            kernel(x, y, z, t2, lo, hi, w_part, c_part)
        return w_part, c_part

    if workers == 1:
        w_flat, counts = run(0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(workers)))
        w_flat, counts = parts[0]
        for w_part, c_part in parts[1:]:
            w_flat += w_part
            counts += c_part

    upper = w_flat.reshape(n, n)
    w = upper + upper.T
    sim = SimilarityMatrix(n=n, counts=w, backend=backend)

    stats: HyperedgeStats | None = None
    if z is not None:
        total = math.comb(n, 3)
        n1 = int(np.count_nonzero(z == 1))
        total_within = math.comb(n1, 3) + math.comb(n - n1, 3)
        accepted = int(counts[0])
        within = int(counts[1])
        stats = HyperedgeStats(
            total_triples=total,
            accepted_triples=accepted,
            accepted_within=within,
            accepted_between=accepted - within,
            total_within=total_within,
            total_between=total - total_within,
        )
    return sim, stats


def hyperedge_probabilities(points, labels, t: float) -> HyperedgeStats:
    """Empirical within/mixed acceptance rates at threshold ``t``."""
    if labels is None:
        raise LineClusterError("hyperedge_probabilities requires true labels")
    stats = scan(points, t, labels)[1]
    assert stats is not None
    return stats
