"""Triple-collinearity hypergraph and its pair-similarity projection.

A triple {i, j, k} is a hyperedge iff its squared TLS residual is strictly
below ``t**2``. Projecting to pairs gives the similarity matrix

    W[i, j] = #{ k : {i, j, k} is a hyperedge },

a symmetric integer matrix with zero diagonal and entries at most n - 2.
Scores are >= 0 and acceptance is strict, so t = 0 is the empty
hypergraph: when t**2 is 0 at unit scale, ``scan`` returns the all-zero W
without running a kernel. A negative, NaN or infinite t is refused.

Two interchangeable scan kernels accept the same triples: a vectorized numpy
fallback, which evaluates the one score expression
(``linecluster.tls._triple_scores``) on every triple, and a plain-C kernel
(``linecluster._scan_c``), compiled on first use into a per-user cache,
which decides most triples by a divide-free float32 filter and re-checks
only near-ties with that expression, in double and operation for operation.
A scan builds the C kernel only when ``n >= BUILD_MIN_N``; smaller scans use
it when it is already cached and numpy otherwise. Without a compiler or a writable cache
the scan warns once and uses numpy. No option picks the kernel, and
``SimilarityMatrix.backend`` names the kernel that ran.

The C kernel runs on min(``thread_count()``, CPUs) threads, numpy on one.
A scan cuts the outer indices into that many contiguous ranges of about
equal triple mass, each scanned into its own n x n int32 buffer: the calling
thread scans the first, and one process-wide pool of worker threads, started
on the first scan that needs it and reused by every later one, scans the
rest. The ``bounds`` command runs its Monte-Carlo validators side by side
on the same pool, on as many threads (``_run_tasks``). Integer counts
summed over disjoint ranges, in range order, make W independent of kernel
and thread count. Both kernels write only the strict upper triangle, so W
is symmetrized in place by row blocks, and the peak is one n^2 * 4 B buffer
per range.

Labels never reach a kernel: the acceptance tallies of ``HyperedgeStats``
follow from W, the pair projection of the hypergraph, and the labels in
O(n^2). Let S_in be the sum of W[i, j] over unordered pairs with equal
labels and S_x the sum over pairs with different labels. An accepted
one-label triple adds 3 to S_in; an accepted mixed triple adds 1 to S_in and
2 to S_x. So ``accepted_triples = (S_in + S_x) / 3`` and
``accepted_within = (2 S_in - S_x) / 6``, both exact integers.

The scan is O(n^3); n is capped at 5000 (about 2.1e10 triples) to keep a
single call within practical time and memory.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import _scan_numpy
from ._scan_c import CompiledKernel
from ._validate import as_labels, as_points
from .errors import LineClusterError
from .tls import _unit_scale

_compiled = CompiledKernel()

MAX_POINTS = 5000

# Smallest scan that compiles the C kernel when it is not cached yet, so a
# fresh process doing a tiny scan never starts a compiler. On a 2-vCPU Xeon
# VM the numpy scan took 0.04 s at n=150 and 0.08 s at n=200, and the build
# 0.27-0.53 s (one inlined copy of the vectorized filter loop and of the
# exact path, cloned for AVX2). A scan just above the cut pays that once per
# machine; every later one loads the cached library. The cut is decided per
# scan, so it stays low: at n=300-400, where one numpy scan costs about one
# build, a process doing many mid-size scans (an autocluster sweep's rest
# sets of about 220 points) would run numpy for good while the cache is
# cold.
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


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (len(affinity(0)) if affinity else os.cpu_count()) or 1


def thread_count() -> int:
    """Scan threads: LINECLUSTER_THREADS if set, else the CPUs this process
    may run on (compiled only; a scan never runs more threads than CPUs)."""
    env = os.environ.get("LINECLUSTER_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise LineClusterError(f"LINECLUSTER_THREADS must be an integer, got {env!r}") from exc
    return _cpus()


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


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """After ``os.fork``, in the child, where the parent's workers do not run."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _workers() -> ThreadPoolExecutor:
    """The process's worker pool: one worker per CPU but the caller's,
    counted when the pool is made. Workers start as scans or ``bounds``
    need them, wait idle in between and exit with the interpreter."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="linecluster-scan")
        return _pool


def _run_tasks(tasks: list, threads: int) -> list:
    """Every task's result, in task order, from at most ``threads`` threads.

    Task i runs in group min(i, threads - 1), each group's tasks one after
    another: the calling thread runs group 0 and ``_workers`` the others, so
    at one thread nothing touches the pool. The pool is made by the first
    call that needs it and serves every later one, from any thread; a child
    made by ``os.fork`` forgets its parent's and makes its own. The call
    returns, or raises the first error in task order, only once every task
    has returned or raised.
    """

    def run(group: list) -> list:
        outcomes = []
        for task in group:
            try:
                outcomes.append((task(), None))
            except Exception as exc:  # raised below, once every task is done
                outcomes.append((None, exc))
        return outcomes

    cut = max(1, threads) - 1
    first, *rest = [[task] for task in tasks[:cut]] + [tasks[cut:]]
    futures = [_workers().submit(run, group) for group in rest if group]
    try:
        outcomes = run(first)
    finally:
        wait(futures)
    for future in futures:
        outcomes += future.result()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [value for value, _ in outcomes]


def _pair_counts(kernel, x: np.ndarray, y: np.ndarray, t2: float, workers: int) -> np.ndarray:
    """W by ``kernel`` over at most ``workers`` outer-index ranges, one buffer
    each, run side by side by ``_run_tasks``."""
    n = x.shape[0]
    mass = np.cumsum([(n - 1 - i) * (n - 2 - i) // 2 for i in range(n)])
    cuts = [0, *np.searchsorted(mass, mass[-1] * np.arange(1, workers) / workers).tolist(), n]

    def run(lo: int, hi: int) -> np.ndarray:
        w_part = np.zeros((n, n), dtype=np.int32)
        kernel(x, y, t2, lo, hi, w_part.reshape(-1))
        return w_part

    ranges = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    w, *parts = _run_tasks([functools.partial(run, lo, hi) for lo, hi in ranges], len(ranges))
    while parts:
        w += parts.pop(0)  # freed before the mirror below copies a block
    # Rows [lo, hi) add columns [lo, hi) of rows [0, hi), which no earlier
    # block touched; numpy copies that overlapping operand, so keep it small.
    step = max(1, (1 << 16) // n)
    for lo in range(0, n, step):
        w[lo:lo + step, :lo + step] += w[:lo + step, lo:lo + step].T
    return w


def _label_sums(w: np.ndarray, z: np.ndarray) -> tuple:
    """W's ordered off-diagonal sums over equal-label and over unequal-label
    pairs (2 S_in and 2 S_x for the scan's tallies; ``bounds.davis_kahan``
    takes W's inner product with W* from them). Row i of W @ one_hot is row
    i's W-mass on label 1 and on label 2; a row of the scan's W sums to at
    most (n-1)(n-2) < 2**31, so int32 holds it."""
    one_hot = (z[:, None] == np.array([1, 2])).astype(w.dtype)
    mass = w @ one_hot
    acc = np.int64 if np.issubdtype(w.dtype, np.integer) else np.float64
    on_label = (mass * one_hot).sum(dtype=acc)
    same = on_label - np.trace(w, dtype=acc)
    return same.item(), (mass.sum(dtype=acc) - on_label).item()


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
    if not (t >= 0.0) or not math.isfinite(t):
        raise LineClusterError(f"threshold t must be finite and >= 0, got {t}")
    z = as_labels(labels, n) if labels is not None else None
    # Scan at unit scale, so that no score overflows or underflows because of
    # the units of the input alone.
    scale = _unit_scale(pts)
    x = np.ldexp(pts[:, 0], scale)
    y = np.ldexp(pts[:, 1], scale)
    with np.errstate(over="ignore"):
        t_unit = float(np.ldexp(t, scale))  # inf when t dwarfs the points: all accepted
    t2 = t_unit * t_unit

    if _use_compiled(n):
        kernel, backend, workers = _compiled.scan_triples, "compiled", min(thread_count(), _cpus())
    else:
        kernel, backend, workers = _scan_numpy.scan_triples, "numpy", 1
    # Scores are >= 0 and acceptance is strict, so t2 = 0 accepts nothing.
    w = _pair_counts(kernel, x, y, t2, workers) if t2 > 0.0 else np.zeros((n, n), dtype=np.int32)
    sim = SimilarityMatrix(n=n, counts=w, backend=backend)

    stats: HyperedgeStats | None = None
    if z is not None:
        same, cross = _label_sums(w, z)  # 2 S_in and 2 S_x
        accepted, within = (same + cross) // 6, (2 * same - cross) // 12
        total = math.comb(n, 3)
        n1 = int(np.count_nonzero(z == 1))
        total_within = math.comb(n1, 3) + math.comb(n - n1, 3)
        stats = HyperedgeStats(
            total_triples=total,
            accepted_triples=accepted,
            accepted_within=within,
            accepted_between=accepted - within,
            total_within=total_within,
            total_between=total - total_within,
        )
    return sim, stats

