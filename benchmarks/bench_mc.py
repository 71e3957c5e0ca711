"""Timing and memory of the sampler, the Monte-Carlo validators and the oracle.

These are the layers of the ``bounds`` and ``oracle`` commands that run
no scan. For each it prints the best wall time of ``--repeats`` calls, the
tracemalloc peak of one more call (the largest amount of memory that numpy
and Python held at once during it, over what was held before) and a short
sha256 of the call's output, so two source trees can be checked to give the
same bits:

* ``sample_glmm``: 600 000 points (the draw of ``mc_hyperedge_rates`` at
  the default 200 000 triples), sigma 0.01, the right-angle cross;
* the five validators ``bounds`` runs for its README example
  (t = 0.05, sigma = 0.01, ell = 2, 200 000 samples, seed 0):
  ``mc_within_miss``, ``mc_hyperedge_rates``, ``mc_chi2_tail``,
  ``mc_rayleigh_cdf`` and ``mc_binomial_tail``;
* ``mle_recover``: 100 000 points at sigma 0.01 (the size of the
  end-to-end benchmark's ``oracle`` operation), and ``mc_mle_error`` on
  as many points, which samples and classifies them chunk by chunk;
* ``bounds``: the README example's rows (``cli._bounds_rows``, its five
  validators at 200 000 samples) with ``LINECLUSTER_THREADS=1`` and at the
  default thread count, min(``LINECLUSTER_THREADS``, CPUs), where the
  validators run side by side; both digests must agree.

The package is imported from this checkout's ``src/``, installed or not; to
measure another tree, run its own copy of this script.

Usage::

    python benchmarks/bench_mc.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

# Import linecluster from this checkout's src/, installed or not.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import linecluster as lc  # noqa: E402
from bench_scan import _best, _peak  # noqa: E402
from linecluster import cli, hypergraph  # noqa: E402
from linecluster import montecarlo as mc  # noqa: E402

T, SIGMA, ELL, SAMPLES, SEED = 0.05, 0.01, 2.0, 200_000, 0


def _digest(result) -> str:
    """First 12 hex digits of a sha256 of the result's arrays or estimates."""
    if isinstance(result, lc.LabeledDataset):
        data = result.points.tobytes() + result.labels.tobytes()
    elif isinstance(result, lc.ClusterResult):
        data = result.labels.tobytes()
    elif isinstance(result, list):  # bounds rows: floats as their shortest exact text
        data = json.dumps(result, sort_keys=True).encode()
    else:
        parts = result if isinstance(result, tuple) else (result,)
        data = ";".join(f"{r.estimate.hex()},{r.se.hex()},{r.n}" for r in parts).encode()
    return hashlib.sha256(data).hexdigest()[:12]


def _bounds_rows(threads: str | None):
    """The README ``bounds`` example's rows, at LINECLUSTER_THREADS = ``threads``
    (None: as the environment has it)."""
    args = cli.build_parser().parse_args(["bounds", "--t", str(T), "--sigma", str(SIGMA)])
    saved = os.environ.get("LINECLUSTER_THREADS")
    if threads is not None:
        os.environ["LINECLUSTER_THREADS"] = threads
    try:
        return cli._bounds_rows(args)[0]
    finally:
        if saved is None:
            os.environ.pop("LINECLUSTER_THREADS", None)
        else:
            os.environ["LINECLUSTER_THREADS"] = saved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per layer (best kept)")
    args = parser.parse_args(argv)

    seg1, seg2 = lc.standard_cross(math.pi / 2.0, 0.5 * ELL)
    oracle_data = lc.sample_glmm(lc.ModelParams(seg1, seg2, SIGMA, 100_000, seed=SEED))
    cases = (
        ("sample_glmm (600k points)",
         lambda: lc.sample_glmm(lc.ModelParams(seg1, seg2, SIGMA, 3 * SAMPLES, seed=SEED))),
        ("mc_within_miss", lambda: mc.mc_within_miss(T, SIGMA, ELL, SAMPLES, SEED)),
        ("mc_hyperedge_rates",
         lambda: mc.mc_hyperedge_rates(T, SIGMA, math.pi / 2.0, ELL, SAMPLES, SEED)),
        ("mc_chi2_tail", lambda: mc.mc_chi2_tail(3, 2.0, SAMPLES, SEED)),
        ("mc_rayleigh_cdf", lambda: mc.mc_rayleigh_cdf(T, SIGMA, SAMPLES, SEED)),
        ("mc_binomial_tail", lambda: mc.mc_binomial_tail(300.0, 0.1, 1000, SAMPLES, SEED)),
        ("mle_recover (100k points)", lambda: lc.mle_recover(oracle_data)),
        ("mc_mle_error (100k points)",
         lambda: mc.mc_mle_error(math.pi / 2.0, ELL, SIGMA, 100_000, SEED)),
        ("bounds (1 thread)", lambda: _bounds_rows("1")),
        (f"bounds ({hypergraph.thread_count()} threads)",
         lambda: _bounds_rows(None)),
    )
    lc.mle_recover(oracle_data)  # loads scipy.special before any timing
    header = f"{'layer':<26} {'best':>10} {'peak':>10}  digest"
    print(header, "-" * len(header), sep="\n")
    total = 0.0
    for name, run in cases:
        best, result = _best(args.repeats, run)
        total += best
        print(f"{name:<26} {best * 1e3:>7.1f} ms {_peak(run) / 2**20:>7.1f} MB  {_digest(result)}")
    print(f"{'sum':<26} {total * 1e3:>7.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
