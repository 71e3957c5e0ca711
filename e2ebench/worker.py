"""The benchmark's workload process: a closed loop of CLI operations, in-process.

Started by ``run.py`` as a fresh interpreter, so its peak RSS is the
workload's. It imports linecluster from the checkout's ``src/``, cycles
through the rounds of operations from the spec file while the time lasts
(one client, one operation at a time, the program's default threads), gates
every operation's outputs, and writes ``result.json`` and ``scans.npz`` next
to the spec. The scan digests are checked against the reference by
``run.py``.

Without tracing it also times the set-up (``setup_s``): fresh interpreters,
started between rounds at evenly spaced points of the loop's time, so that
the samples see the machine at different moments of the run. Their time is
not loop time.

Usage: python3 worker.py SPEC_JSON
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import spans
import workloads

SETUP_SAMPLES = 5

# Set-up: a fresh interpreter imports the package and returns one n=12 scan.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import linecluster as lc
lc.scan(np.random.default_rng(int(sys.argv[2])).random((12, 2)), 0.05)
"""


def run_op(cli, argv: list[str]) -> tuple[object, str, str, float]:
    """One CLI command through ``cli_dispatch``.

    Returns (exit code or error text, stdout, stderr, wall seconds).
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.cli_dispatch(argv)
        except Exception as exc:  # noqa: BLE001 - an escaped exception is a failed operation
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def setup_s(src: Path, seed: int, home: Path) -> float:
    """Wall time of one fresh set-up whose HOME and cache dir are the empty ``home``.

    So anything the program caches under HOME is redone by every sample.
    """
    home.mkdir()
    env = dict(os.environ, HOME=str(home), XDG_CACHE_HOME=str(home / ".cache"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(seed)], env=env, check=True,
                   capture_output=True, timeout=60)
    return time.perf_counter() - start


def one_thread_scan_s(lc, points: np.ndarray, t: float) -> float:
    """Wall time of one untraced scan at LINECLUSTER_THREADS=1."""
    os.environ["LINECLUSTER_THREADS"] = "1"
    try:
        start = time.perf_counter()
        lc.scan(points, t)
        return time.perf_counter() - start
    finally:
        del os.environ["LINECLUSTER_THREADS"]


def machine_facts(lc) -> dict:
    import scipy

    facts = {
        "backend": lc.active_backend(),
        "scan_threads": lc.hypergraph.thread_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": "unknown",
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
    return facts


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import linecluster as lc
    import linecluster.cli as cli

    if Path(lc.__file__).resolve().parent.parent != src:
        raise SystemExit(f"linecluster was imported from {lc.__file__}, not from {src}")

    inst = spans.Instrument()
    seconds, trace = spec["seconds"], spec["trace"]
    work = Path(spec_path).parent
    setups = []

    def setup_due(loop_s: float) -> None:
        # The first, discarded sample lets the interpreter write its bytecode
        # caches, which a user's first run also leaves behind.
        while not trace and len(setups) <= SETUP_SAMPLES * min(1.0, loop_s / seconds):
            setups.append(setup_s(src, spec["seed"], work / f"home{len(setups)}"))

    rounds = []
    round_times = []
    # Untraced rounds only without --trace; with it, untraced and traced rounds
    # alternate on the same inputs, so the traced run also measures the tracing
    # overhead. A round starts only if at least half a round of median length
    # still fits in the time, so the loop runs about --seconds on average.
    while True:
        setup_due(sum(round_times))
        round_start = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        data = (len(rounds) // 2 if trace else len(rounds)) % len(spec["rounds"])
        inst.apply(traced)
        ops = []
        for op in spec["rounds"][data]:
            inst.reset()
            code, stdout, stderr, wall = run_op(cli, op["argv"])
            gate = workloads.check(op, code, stdout)
            if not gate["ok"] and stderr:
                gate["reason"] += f" (stderr: {stderr.strip()[-300:]})"
            record = {"name": op["name"], "wall_s": wall, "scans": inst.scans, **gate}
            if traced:
                record["metrics"] = spans.op_metrics(inst.spans, inst.counters, gate)
            ops.append(record)
        rounds.append({"traced": traced, "data": data, "ops": ops})
        round_times.append(time.perf_counter() - round_start)
        left = seconds - sum(round_times)
        if (len(rounds) >= 2 or not trace) and left < statistics.median(round_times) / 2:
            break
    inst.restore()
    setup_due(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scan_extra = {}
    if trace and inst.scan_inputs:
        # The largest scanned input once more, untraced: under tracemalloc for
        # the scan's peak memory and, on cluster-cli, at one thread (the
        # traced rounds give the time at the default thread count).
        points, t = max(inst.scan_inputs.values(), key=lambda item: item[0].shape[0])
        tracemalloc.start()
        lc.scan(points, t)
        scan_extra["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        if spec["workload"] == "cluster-cli":
            scan_extra["scan_1t_s"] = one_thread_scan_s(lc, points, t)

    keys = sorted(inst.scan_inputs)
    np.savez(work / "scans.npz", keys=np.array(keys, dtype=str),
             t=np.array([inst.scan_inputs[k][1] for k in keys]),
             **{f"p{i}": inst.scan_inputs[k][0] for i, k in enumerate(keys)})
    result = {"facts": machine_facts(lc), "rounds": rounds, "peak_rss_mb": peak_rss_mb,
              "scan_extra": scan_extra, "setup_s": setups[1:]}
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    raise SystemExit(main(sys.argv[1]))
