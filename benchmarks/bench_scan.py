"""Timing comparison of the two triple-scan kernels.

The kernel is fixed per interpreter: ``LINECLUSTER_FORCE_NUMPY`` is read
when ``linecluster`` is imported, and otherwise every scan of 150 or more
points runs the C kernel, compiled on first use into
``$XDG_CACHE_HOME/linecluster/`` (a first build adds about 0.4 s to the
first size's first repeat; the minimum over repeats hides it). This script
therefore runs each kernel in its own interpreter, times the full O(n^3)
scan over a range of problem sizes, checks that both kernels produce
byte-identical similarity matrices (digests of W), and prints a table.

Usage::

    python benchmarks/bench_scan.py [--sizes 200,400,800] [--repeats 3]
                                    [--threads K] [--sigma 0.01] [--t 0.05]

``--threads`` pins LINECLUSTER_THREADS for the compiled run (the numpy
fallback is always single-threaded).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800", help="comma-separated point counts")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per size (min is kept)")
    parser.add_argument("--threads", type=int, default=None, help="threads for the compiled run")
    parser.add_argument("--sigma", type=float, default=0.01, help="noise level of the dataset")
    parser.add_argument("--t", type=float, default=0.05, help="scan threshold")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _worker(args: argparse.Namespace) -> None:
    """Time the scan in-process and emit one JSON object on stdout."""
    import linecluster as lc

    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        params = lc.ModelParams(
            seg1=lc.standard_cross(math.pi / 2.0, 1.0)[0],
            seg2=lc.standard_cross(math.pi / 2.0, 1.0)[1],
            sigma=args.sigma,
            n_points=n,
            seed=0,
        )
        points = lc.sample_glmm(params).points
        best = math.inf
        for _ in range(max(1, args.repeats)):
            start = time.perf_counter()
            sim, _ = lc.scan(points, args.t)
            best = min(best, time.perf_counter() - start)
        rows.append(
            {
                "n": n,
                "seconds": best,
                "triples": math.comb(n, 3),
                "digest": hashlib.sha256(sim.counts.tobytes()).hexdigest()[:16],
            }
        )
    json.dump({"backend": lc.active_backend(), "rows": rows}, sys.stdout)


def _run_backend(force_numpy: bool, args: argparse.Namespace) -> dict:
    env = os.environ.copy()
    if force_numpy:
        env["LINECLUSTER_FORCE_NUMPY"] = "1"
    else:
        env.pop("LINECLUSTER_FORCE_NUMPY", None)
    if args.threads is not None:
        env["LINECLUSTER_THREADS"] = str(args.threads)
    # Import linecluster from this checkout's src/, installed or not.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, os.path.abspath(__file__), "--worker",
        "--sizes", args.sizes, "--repeats", str(args.repeats),
        "--sigma", str(args.sigma), "--t", str(args.t),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: the {'numpy' if force_numpy else 'default'} backend worker "
                         f"exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if args.worker:
        _worker(args)
        return 0

    fast = _run_backend(force_numpy=False, args=args)
    slow = _run_backend(force_numpy=True, args=args)
    compared = fast["backend"] != slow["backend"]
    if not compared:
        print(
            "warning: compiled kernel unavailable; both runs used the "
            f"{fast['backend']} backend, so nothing is compared",
            file=sys.stderr,
        )

    header = f"{'n':>6} {'triples':>14} {fast['backend']:>14} {slow['backend']:>12} {'speedup':>9}  identical"
    print(header)
    print("-" * len(header))
    for a, b in zip(fast["rows"], slow["rows"]):
        if compared:
            ratio = b["seconds"] / a["seconds"] if a["seconds"] > 0 else math.inf
            verdict = f"{ratio:>8.1f}x  {'yes' if a['digest'] == b['digest'] else 'NO'}"
        else:
            verdict = "not compared"
        print(f"{a['n']:>6} {a['triples']:>14,} {a['seconds']:>12.4f} s {b['seconds']:>10.4f} s {verdict}")
    if any(a["digest"] != b["digest"] for a, b in zip(fast["rows"], slow["rows"])):
        print("error: backends disagree on the similarity matrix", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
