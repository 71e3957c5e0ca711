"""Timing comparison of the two triple-scan kernels, in one interpreter.

For each size the script samples a perpendicular cross and times the full
O(n^3) scan twice: the C kernel through ``linecluster.scan`` (on
LINECLUSTER_THREADS threads), and the numpy fallback through the very call
``scan`` makes for it, ``_scan_numpy.scan_triples`` over all outer indices
on one thread. It checks that both give the same similarity matrix. The C
kernel is built (about 0.5 s) before the first timing if it is not cached;
without a compiler both columns run numpy and the table says "not compared".

Usage::

    python benchmarks/bench_scan.py [--sizes 200,400,800] [--repeats 3]
                                    [--threads K] [--sigma 0.01] [--t 0.05]
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

# Import linecluster from this checkout's src/, installed or not.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import linecluster as lc  # noqa: E402
from linecluster import _scan_numpy  # noqa: E402


def _best(repeats: int, run):
    """Fastest wall time of ``repeats`` calls of ``run``, and its result."""
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _numpy_scan(x: np.ndarray, y: np.ndarray, t2: float) -> np.ndarray:
    n = x.shape[0]
    w = np.zeros(n * n, dtype=np.int32)
    _scan_numpy.scan_triples(x, y, None, t2, 0, n, w, np.zeros(2, dtype=np.int64))
    upper = w.reshape(n, n)
    return upper + upper.T


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800", help="comma-separated point counts")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per size (min is kept)")
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
    header = f"{'n':>6} {'triples':>14} {'compiled':>14} {'numpy':>12} {'speedup':>9}  identical"
    print(header, "-" * len(header), sep="\n")
    agree = True
    for n in (int(s) for s in args.sizes.split(",")):
        points = lc.sample_glmm(lc.ModelParams(seg1, seg2, args.sigma, n, seed=0)).points
        x, y = np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1])
        fast, sim = _best(args.repeats, lambda: lc.scan(points, args.t)[0])
        slow, w = _best(args.repeats, lambda: _numpy_scan(x, y, args.t * args.t))
        same = np.array_equal(sim.counts, w)
        agree &= same
        verdict = f"{slow / fast:>8.1f}x  {'yes' if same else 'NO'}" if compared else "not compared"
        print(f"{n:>6} {math.comb(n, 3):>14,} {fast:>12.4f} s {slow:>10.4f} s {verdict}")
    if not agree:
        print("error: the kernels disagree on the similarity matrix", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
