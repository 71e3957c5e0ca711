"""Timing comparison of the two triple-scan kernels, in one interpreter.

For each size the script samples a perpendicular cross and times the full
O(n^3) scan twice: the C kernel through ``linecluster.scan`` (on
min(LINECLUSTER_THREADS, CPUs) threads, best of ``--repeats``), and the
numpy fallback through the very call ``scan`` makes for it,
``_scan_numpy.scan_triples`` over one range of all outer indices on one
thread, folded into W by the same helper. It checks that both give the same
similarity matrix. The numpy kernel is timed once per size, whatever
``--repeats`` says: one call is enough for that check and a rough speedup,
and each takes seconds at n = 1000. The C kernel is built (0.5–0.8 s)
before the first timing if it is not cached; without a compiler
both columns run numpy and the table says "not compared". ``exact`` is the
share of the triples that the C kernel's exact path decided (the rest its
float32 filter decided), from one direct ``_compiled.scan_triples`` call on
the same points; ``scan`` drops that count. ``peak`` is the tracemalloc peak
of one more ``linecluster.scan``, in units of n^2 * 4 B (one int32 n x n
matrix).

On the same W it times ``linecluster.io.write_similarity_csv`` twice: on
the scan's int32 W, which the compiled encoder writes (``write C``), and on
W as int64, which only the numpy encoder takes (``write np``); it checks
that the two files have the same bytes. It then times the eigensolver,
``linecluster.top2_eigen`` (``eigen``), next to a dense
``numpy.linalg.eigh`` of W as float64 (``eigh``), and checks that their two
largest eigenvalues agree to 1e-9 relative, and times k-means,
``linecluster.kmeans2_rows`` with seed 0 on the rows of that embedding
(``kmeans``). So each pipeline layer but sampling and line fitting is timed.
The script exits 1 if the kernels, the two files or the eigenvalues
disagree. Its first line names the compiled kernel's body that the loader
picks on this CPU: the first of ``avx512f`` and ``avx2`` in the CPU's flags
(``/proc/cpuinfo``), else ``default``, so each figure names the code that
made it.

Usage::

    python benchmarks/bench_scan.py [--sizes 200,400,800] [--repeats 3]
                                    [--threads K] [--sigma 0.01] [--t 0.05]
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

# Import linecluster from this checkout's src/, installed or not.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import linecluster as lc  # noqa: E402
from linecluster import _scan_numpy, hypergraph, io  # noqa: E402


def _best(repeats: int, run):
    """Fastest wall time of ``repeats`` calls of ``run``, and its result."""
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _exact_share(x: np.ndarray, y: np.ndarray, t2: float) -> float:
    """Share of the C(n, 3) triples the compiled kernel's exact path decided."""
    n = x.shape[0]
    exact = hypergraph._compiled.scan_triples(x, y, t2, 0, n, np.zeros(n * n, dtype=np.int32))
    return exact / math.comb(n, 3)


def _peak(run) -> int:
    """tracemalloc peak of one call of ``run``, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kernel_body() -> str:
    """The body of ``_scan.c``'s cloned kernel that the loader picks on this
    CPU: the first of its clones whose ISA the CPU's flags list."""
    try:
        with open("/proc/cpuinfo") as fh:
            flags = next((set(line.split(":", 1)[1].split()) for line in fh
                          if line.startswith("flags")), set())
    except OSError:
        flags = set()
    return next((isa for isa in ("avx512f", "avx2") if isa in flags), "default")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800", help="comma-separated point counts")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per size (min is kept); numpy's scan runs once")
    parser.add_argument("--threads", type=int, default=None, help="threads for the compiled run")
    parser.add_argument("--sigma", type=float, default=0.01, help="noise level of the dataset")
    parser.add_argument("--t", type=float, default=0.05, help="scan threshold")
    args = parser.parse_args(argv)
    if args.threads is not None:
        os.environ["LINECLUSTER_THREADS"] = str(args.threads)
    compared = lc.active_backend() == "compiled"
    if not compared:
        print("warning: compiled kernel unavailable; both columns ran numpy, so nothing is compared",
              file=sys.stderr)

    seg1, seg2 = lc.standard_cross(math.pi / 2.0, 1.0)
    if compared:
        threads = hypergraph.thread_count()
        print(f"compiled kernel body: {_kernel_body()}, on {threads} thread(s)")
    header = (f"{'n':>6} {'triples':>14} {'compiled':>14} {'numpy':>12} {'speedup':>9}  identical"
              f" {'exact':>7} {'peak':>5} {'write C':>12} {'write np':>12}  bytes  {'eigen':>12}"
              f" {'eigh':>12}  eigenvalues {'kmeans':>12}")
    print(header, "-" * len(header), sep="\n")
    agree = True
    same_bytes = True
    eigen_agree = True
    tmp = tempfile.TemporaryDirectory()
    c_csv, np_csv = Path(tmp.name) / "compiled.csv", Path(tmp.name) / "numpy.csv"
    for n in (int(s) for s in args.sizes.split(",")):
        points = lc.sample_glmm(lc.ModelParams(seg1, seg2, args.sigma, n, seed=0)).points
        x, y = np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1])
        fast, sim = _best(args.repeats, lambda: lc.scan(points, args.t)[0])
        slow, w = _best(1, lambda: hypergraph._pair_counts(
            _scan_numpy.scan_triples, x, y, args.t * args.t, 1))
        peak = _peak(lambda: lc.scan(points, args.t)) / (4 * n * n)
        same = np.array_equal(sim.counts, w)
        agree &= same
        verdict = f"{slow / fast:>8.1f}x  {'yes' if same else 'NO'}" if compared else "not compared"
        exact = f"{_exact_share(x, y, args.t * args.t):>7.1e}" if compared else f"{'-':>7}"
        counts64 = sim.counts.astype(np.int64)
        write_c, _ = _best(args.repeats, lambda: io.write_similarity_csv(c_csv, sim.counts))
        write_np, _ = _best(args.repeats, lambda: io.write_similarity_csv(np_csv, counts64))
        same_file = c_csv.read_bytes() == np_csv.read_bytes()
        same_bytes &= same_file
        eigen, emb = _best(args.repeats, lambda: lc.top2_eigen(sim))
        dense, vals = _best(args.repeats,
                            lambda: np.linalg.eigh(np.asarray(sim.counts, dtype=np.float64))[0])
        close = np.allclose(emb.eigenvalues, vals[[-1, -2]], rtol=1e-9, atol=0.0)
        eigen_agree &= close
        kmeans, _ = _best(args.repeats, lambda: lc.kmeans2_rows(emb.u, 0))
        print(f"{n:>6} {math.comb(n, 3):>14,} {fast:>12.4f} s {slow:>10.4f} s {verdict:<20}"
              f" {exact} {peak:>5.2f} {write_c:>10.4f} s {write_np:>10.4f} s"
              f"  {'same ' if same_file else 'DIFFER'}"
              f" {eigen:>10.4f} s {dense:>10.4f} s  {'agree ' if close else 'DIFFER'}"
              f"      {kmeans:>10.4f} s")
    tmp.cleanup()
    if not agree:
        print("error: the kernels disagree on the similarity matrix", file=sys.stderr)
    if not same_bytes:
        print("error: the two similarity.csv encoders wrote different bytes", file=sys.stderr)
    if not eigen_agree:
        print("error: top2_eigen and eigh disagree on the top eigenvalues", file=sys.stderr)
    return 0 if agree and same_bytes and eigen_agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
