"""Self-test of the benchmark at toy sizes.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference
import run
import spans
import workloads
import worker

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_json_names_the_metrics_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert units("end_to_end") == run.END_TO_END
    assert units("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_and_reports_every_metric_with_its_unit(workload, trace):
    line, facts = run.run(workload, seed=5, seconds=0.2, trace=trace, size="toy")
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = units("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    assert facts["backend"] in ("numpy", "compiled") and facts["seed"] == 5
    if trace and workload == "validate":
        assert line["metrics"]["hypergraph.scan_calls"]["value"] == 0
        # Both bounds operations hit the documented cdf_rayleigh false failure.
        assert facts["known_defect_ops"] > 0 and line["metrics"]["quality.failed_frac"]["value"] > 0
    if trace and workload == "autocluster-sweep":
        m = line["metrics"]
        assert m["hypergraph.scan_calls"]["value"] == 2 * m["sweep.trials"]["value"]


def test_a_perturbed_reference_digest_trips_the_gate():
    def perturbed(points, t):
        w = reference.similarity(points, t)
        w[0, 1] += 1
        return w

    line, facts = run.run("cluster-cli", seed=5, seconds=0.2, trace=False, size="toy",
                          similarity=perturbed)
    assert not line["correct"] and line["failed"] == line["attempted"]
    assert all("differs from the reference" in reason for reason in facts["failures"])


def test_a_similarity_csv_that_differs_from_the_scan_fails(tmp_path):
    points, _ = workloads.sample_cross(30, 0.01, 2)
    w = reference.similarity(points, 0.05)
    path = tmp_path / "similarity.csv"
    i, j = np.nonzero(np.triu(w, 1))
    path.write_text("i,j,count\n" + "".join(f"{a},{b},{w[a, b] + (a == i[0] and b == j[0])}\n"
                                            for a, b in zip(i, j)))
    assert workloads.counts_digest(workloads.read_similarity(path, 30)) != workloads.counts_digest(w)


def test_the_bounds_gate_accepts_only_the_documented_defect():
    def payload(failing):
        rows = [{"bound_name": "tail_chi2", "pass": "tail_chi2" not in failing},
                {"bound_name": "cdf_rayleigh", "pass": "cdf_rayleigh" not in failing,
                 "mc_estimate": 1.0, "mc_se": 0.0}]
        return json.dumps({"rows": rows})

    op = {"gate": "bounds"}
    assert workloads.check(op, 0, payload([])) == {"ok": True, "known_defect": False, "reason": ""}
    assert workloads.check(op, 1, payload(["cdf_rayleigh"]))["known_defect"]
    assert not workloads.check(op, 1, payload(["tail_chi2"]))["ok"]
    assert not workloads.check(op, 0, payload(["cdf_rayleigh"]))["ok"]


def test_traced_layer_self_times_sum_to_at_most_the_op_wall_time(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import linecluster.cli as cli

    ops = workloads.make_rounds("cluster-cli", 4, tmp_path, "toy")[0]
    ops += workloads.make_rounds("autocluster-sweep", 4, tmp_path, "toy")[0]
    inst = spans.Instrument()
    inst.apply(traced=True)
    try:
        for op in ops:
            inst.reset()
            code, stdout, _, wall = worker.run_op(cli, op["argv"])
            assert workloads.check(op, code, stdout)["ok"]
            metrics = spans.op_metrics(inst.spans, inst.counters, {})
            layer_sum = sum(v for name, v in metrics.items() if name.startswith("layer."))
            assert 0.0 < layer_sum <= wall
            assert min(spans.self_times(inst.spans)) >= 0.0
            assert inst.spans[0][0] == ("cli", "cli_dispatch")
    finally:
        inst.restore()


def test_without_the_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "validate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
