"""End-to-end benchmark of linecluster: one workload, one run, one JSON result line.

Usage (from the root of a source checkout)::

    python3 e2ebench/run.py --workload cluster-cli --seed 1 --seconds 20 --trace 0

Steps of one run:

1. write the workload's inputs from ``--seed`` under ``.bench_work/``;
2. run the closed loop in a fresh worker process (``worker.py``) for
   ``--seconds``; without ``--trace`` the worker also times the set-up
   (``setup_s``) in fresh interpreters started between rounds;
3. recompute every scanned input's W with the benchmark's reference
   (``reference.py``) and fail each operation whose scan, or whose
   ``similarity.csv``, does not match it byte for byte;
4. print one ``facts`` line (machine, versions, backend, sample counts,
   known defects) and, last, the result: ``correct``, ``attempted``,
   ``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
   metrics (``--trace 1``). Metric definitions are in ``README.md``.

The run exits 2 without a result when the checkout has no ``src/linecluster``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "op_mean_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "hypergraph.scan_s": "s", "hypergraph.scan_calls": "count", "hypergraph.triples": "count",
    "hypergraph.triples_per_s": "1/s", "hypergraph.accepted_frac": "fraction",
    "hypergraph.w_density": "fraction", "hypergraph.peak_mb": "MB", "hypergraph.scan_1t_s": "s",
    "hypergraph.speedup": "ratio", "spectral.eigen_s": "s", "spectral.kmeans_s": "s",
    "threshold.select_s": "s", "threshold.autocluster_self_s": "s", "io.read_points_s": "s",
    "io.write_similarity_s": "s", "io.similarity_bytes": "bytes", "io.write_other_s": "s",
    "model.sample_s": "s", "recovery.fit_s": "s", "metrics.report_s": "s", "sweep.self_s": "s",
    "sweep.trials": "count", "mle.recover_s": "s", "mle.perr_s": "s", "montecarlo.mc_s": "s",
    "montecarlo.samples": "count", "bounds.closed_form_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "fraction", "quality.rate": "fraction", "quality.failed_frac": "fraction",
}


def program_env() -> dict[str, str]:
    """Environment for the program: no LINECLUSTER_* overrides, so defaults apply."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LINECLUSTER_")}


def check_scans(result: dict, scans_file: Path, similarity) -> None:
    """Mark each operation whose scans or similarity.csv differ from the reference W."""
    expected = {}
    with np.load(scans_file) as data:
        for i, key in enumerate(data["keys"]):
            expected[str(key)] = workloads.counts_digest(similarity(data[f"p{i}"], float(data["t"][i])))
    for rnd in result["rounds"]:
        for op in rnd["ops"]:
            bad = [key for key, digest in op["scans"] if expected.get(key) != digest]
            if "similarity_digest" in op and [d for _, d in op["scans"]] != [op["similarity_digest"]]:
                bad.append("similarity.csv")
            if bad and op["ok"]:
                op["ok"] = False
                op["reason"] = f"W differs from the reference for {', '.join(bad)}"


def per_op_time(rnd: dict) -> float:
    return sum(op["wall_s"] for op in rnd["ops"]) / len(rnd["ops"])


def mean_op_time(rounds: list[dict]) -> float:
    """Loop time of ``rounds`` divided by their operations."""
    return sum(op["wall_s"] for rnd in rounds for op in rnd["ops"]) / sum(len(rnd["ops"]) for rnd in rounds)


def tail(times: list[float]) -> dict | None:
    """Highest whole percentile with at least 10 operations above it, if the run has enough."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    return {"percentile": math.floor(100 * (len(ordered) - 10) / len(ordered)),
            "op_tail_s": ordered[-11], "ops": len(ordered)}


def summarize(result: dict, trace: bool) -> tuple[dict, dict]:
    """Build (the result line, the facts line) from the worker's records."""
    ops = [op for rnd in result["rounds"] for op in rnd["ops"]]
    plain = [rnd for rnd in result["rounds"] if not rnd["traced"]]
    traced = [rnd for rnd in result["rounds"] if rnd["traced"]]
    failed = sum(not op["ok"] for op in ops)
    known = sum(op["known_defect"] for op in ops)
    rates = [op["rate"] for op in ops if op.get("rate") is not None]
    op_mean_s = mean_op_time(plain)
    if trace:
        per_op = spans.mean_metrics([op["metrics"] for rnd in traced for op in rnd["ops"]])
        values = {name: per_op[name] for name in PER_LAYER if name in per_op}
        extra = result["scan_extra"]
        values["hypergraph.peak_mb"] = extra.get("peak_mb", 0.0)
        values["hypergraph.scan_1t_s"] = extra.get("scan_1t_s", 0.0)
        values["hypergraph.speedup"] = (extra["scan_1t_s"] / values["hypergraph.scan_s"]
                                        if "scan_1t_s" in extra else 0.0)
        values["trace.overhead_frac"] = mean_op_time(traced) / op_mean_s - 1.0
        values["quality.rate"] = statistics.median(rates) if rates else 0.0
        values["quality.failed_frac"] = (failed + known) / len(ops)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        layer_self = {name: v for name, v in per_op.items() if name.startswith("layer.")}
    else:
        values = {"setup_s": statistics.median(result["setup_s"]), "op_mean_s": op_mean_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        layer_self = None
    facts = {
        **result["facts"],
        "op_median_s": statistics.median(per_op_time(rnd) for rnd in plain),
        "op_samples": len(plain),
        "ops_per_round": len(result["rounds"][0]["ops"]),
        "op_tail": tail([op["wall_s"] for rnd in plain for op in rnd["ops"]]),
        "rate_median": statistics.median(rates) if rates else None,
        "failed_frac": (failed + known) / len(ops),
        "known_defect_ops": known,
        "failures": sorted({f"{op['name']}: {op['reason']}" for op in ops if not op["ok"]}),
        "known_defects": sorted({f"{op['name']}: {op['reason']}" for op in ops if op["known_defect"]}),
    }
    if not trace:
        facts["setup_samples_s"] = result["setup_s"]
    if layer_self is not None:
        facts["layer_self_s"] = layer_self
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return line, facts


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        similarity=reference.similarity) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, facts line).

    ``similarity`` computes the reference W; the self-test passes a perturbed one.
    """
    if not (ROOT / "src" / "linecluster" / "__init__.py").is_file():
        raise FileNotFoundError(f"no linecluster sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        rounds = workloads.make_rounds(workload, seed, work, size)
        spec = {"src": str(ROOT / "src"), "workload": workload, "rounds": rounds, "seed": seed,
                "seconds": seconds, "trace": trace}
        (work / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                              env=program_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
        result = json.loads((work / "result.json").read_text())
        check_scans(result, work / "scans.npz", similarity)
        line, facts = summarize(result, trace)
        facts.update(workload=workload, seed=seed, seconds=seconds, trace=trace, size=size,
                     distinct_rounds=len({rnd["data"] for rnd in result["rounds"]}))
        return line, facts
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of linecluster.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    try:
        line, facts = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"facts": facts}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
