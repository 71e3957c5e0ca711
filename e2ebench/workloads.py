"""Workloads of the end-to-end benchmark: inputs, operations and output gates.

Inputs are generated here from the benchmark seed, without calling the
program, so the program sees only the CSV/JSON files written below and the
gates score its outputs against this module's own truth. Why each workload
exists is written in ``README.md`` next to the metric definitions.

An operation is one CLI command (``argv`` for ``linecluster.cli``). A
workload runs *rounds* of operations in a closed loop, cycling through the
rounds ``make_rounds`` returns. A round has one operation except on
``validate``, which has three. ``autocluster-sweep`` gives each round its own
sweep seed, because its cost follows the data-chosen threshold t*, which
varies widely from one data set to the next; the mean over a run then
covers a dozen data sets instead of one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("cluster-cli", "autocluster-sweep", "validate")

# Full sizes are the benchmark; toy sizes exist for the self-test only.
SIZES = {
    "full": {"cluster_n": 600, "sweep_n": 300, "oracle_n": 100_000},
    "toy": {"cluster_n": 60, "sweep_n": 150, "oracle_n": 1_000},
}
CLUSTER_SIGMA = 0.01
CLUSTER_T = 0.05
SWEEP_SIGMAS = (0.01, 0.02)
# One trial per sigma keeps a sweep to about 2 s, so a run holds a dozen or
# more rounds, each on its own data set; see README.md for why.
SWEEP_TRIALS = 1
SWEEP_ROUNDS = 24  # distinct sweep seeds per run, more than a run's rounds at full size
ORACLE_SIGMA = 0.01

# The one `bounds` false failure known at the time the benchmark was written.
# With the default 200 000 samples the Rayleigh validator draws no sample
# above t = 5 sigma, so its estimate is exactly 1.0 with se = 0, while the
# theory value is 1 - exp(-12.5) = 0.9999963; the check's tolerance is
# 3 * max(se, 1e-12), so `bounds` exits 1. This is a program defect. The
# gate accepts exactly this failure (and the fixed behaviour, exit 0 with
# every check passing) and counts it as a known defect, never as a pass.
KNOWN_DEFECT_BOUND = "cdf_rayleigh"


def sample_cross(n: int, sigma: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n points of the perpendicular cross (half-length 1) and their labels."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, 3, size=n).astype(np.int8)
    offsets = rng.uniform(-1.0, 1.0, size=n)
    c = s = math.sqrt(0.5)
    direction = np.where(labels[:, None] == 1, [c, -s], [c, s])
    points = offsets[:, None] * direction + sigma * rng.standard_normal((n, 2))
    return points, labels


def write_points(path: Path, points: np.ndarray, labels: np.ndarray | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if labels is None:
            fh.write("x,y\n")
            fh.writelines(f"{x:.17g},{y:.17g}\n" for x, y in points)
        else:
            fh.write("x,y,z\n")
            fh.writelines(f"{x:.17g},{y:.17g},{int(z)}\n" for (x, y), z in zip(points, labels))


def make_rounds(workload: str, seed: int, work: Path, size: str = "full") -> list[list[dict]]:
    """Write the workload's inputs under ``work`` and return its rounds of operations.

    Each operation is a dict with ``name``, ``argv``, ``gate`` and what its
    gate needs (``n``, ``truth``, ``rows``, ``out``).
    """
    dims = SIZES[size]
    work.mkdir(parents=True, exist_ok=True)
    if workload == "cluster-cli":
        n = dims["cluster_n"]
        points, labels = sample_cross(n, CLUSTER_SIGMA, seed)
        write_points(work / "points.csv", points)
        np.save(work / "truth.npy", labels)
        out = work / "cluster-out"
        return [[
            {
                "name": "cluster",
                "argv": ["cluster", "--in", str(work / "points.csv"), "--t", str(CLUSTER_T),
                         "--seed", "0", "--out", str(out)],
                "gate": "cluster", "n": n, "truth": str(work / "truth.npy"), "out": str(out),
            }
        ]]
    if workload == "autocluster-sweep":
        out = work / "sweep-out"
        rounds = []
        for r in range(SWEEP_ROUNDS):
            config = {
                "algorithm": "autocluster", "n_points": [dims["sweep_n"]],
                "sigma": list(SWEEP_SIGMAS), "t": "auto", "m": 30, "theta": 0.25,
                "trials": SWEEP_TRIALS, "seed": seed * SWEEP_ROUNDS + r,
            }
            path = work / f"sweep-{r}.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            rounds.append([{
                "name": "sweep",
                "argv": ["sweep", "--config", str(path), "--out", str(out)],
                "gate": "sweep", "rows": len(SWEEP_SIGMAS) * SWEEP_TRIALS, "out": str(out),
            }])
        return rounds
    if workload == "validate":
        n = dims["oracle_n"]
        points, labels = sample_cross(n, ORACLE_SIGMA, seed)
        write_points(work / "oracle-points.csv", points, labels)
        np.save(work / "oracle-truth.npy", labels)
        params = {"alpha": math.pi / 2.0, "half_length": 1.0, "sigma": ORACLE_SIGMA,
                  "n_points": n, "seed": seed}
        (work / "params.json").write_text(json.dumps(params, sort_keys=True, indent=2) + "\n")
        out = work / "oracle-out"
        return [[
            # The README example: Monte Carlo on, default sample count.
            {"name": "bounds-readme", "argv": ["bounds", "--t", "0.05", "--sigma", "0.01"],
             "gate": "bounds"},
            # The regime of acceptance criterion 07.
            {"name": "bounds-c07", "argv": ["bounds", "--t", "0.1", "--sigma", "0.02"],
             "gate": "bounds"},
            {
                "name": "oracle",
                "argv": ["oracle", "--in", str(work / "oracle-points.csv"),
                         "--params", str(work / "params.json"), "--out", str(out)],
                "gate": "oracle", "n": n, "truth": str(work / "oracle-truth.npy"), "out": str(out),
            },
        ]]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def swap_minimal_rate(z_hat: np.ndarray, z: np.ndarray) -> float:
    """Misclassification rate up to the global label swap."""
    wrong = int(np.count_nonzero(z_hat != z))
    return min(wrong, z.size - wrong) / z.size


def counts_digest(counts: np.ndarray) -> str:
    """sha256 of a similarity matrix as C-ordered int32 bytes."""
    return hashlib.sha256(np.ascontiguousarray(counts, dtype=np.int32).tobytes()).hexdigest()


def read_labels(path: Path, n: int) -> np.ndarray:
    """Parse a labels.csv back; it must hold indices 0..n-1 once each, labels in {1, 2}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["index", "z_hat"] or len(rows) - 1 != n:
        raise ValueError(f"{path.name}: header {rows[0]} with {len(rows) - 1} rows, expected {n}")
    body = np.array(rows[1:], dtype=np.int64)
    if not np.array_equal(body[:, 0], np.arange(n)) or not np.isin(body[:, 1], (1, 2)).all():
        raise ValueError(f"{path.name}: indices or labels out of range")
    return body[:, 1].astype(np.int8)


def read_similarity(path: Path, n: int) -> np.ndarray:
    """Rebuild the symmetric int32 W from a similarity.csv (upper-triangle nonzeros)."""
    with open(path) as fh:
        if fh.readline().strip() != "i,j,count":
            raise ValueError(f"{path.name}: bad header")
        body = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
    upper = np.zeros((n, n), dtype=np.int32)
    if body.size:
        i, j, c = body.T
        if not ((i < j).all() and (j < n).all() and (c > 0).all()):
            raise ValueError(f"{path.name}: entries outside the strict upper triangle")
        upper[i, j] = c
    return upper + upper.T


def check(op: dict, code, stdout: str) -> dict:
    """Gate one operation's outputs. Never raises; a failure is reported in ``reason``.

    Returns ``ok``, ``known_defect``, ``reason`` and, where the operation has
    them, ``rate``, ``trials``, ``similarity_digest`` and ``similarity_bytes``.
    """
    try:
        return _check(op, code, stdout)
    except Exception as exc:  # noqa: BLE001 - any malformed output fails the gate
        return {"ok": False, "known_defect": False, "reason": f"{type(exc).__name__}: {exc}"}


def _check(op: dict, code, stdout: str) -> dict:
    result = {"ok": True, "known_defect": False, "reason": ""}
    if op["gate"] == "bounds":
        return _check_bounds(code, json.loads(stdout), result)
    if code != 0:
        raise ValueError(f"exit code {code}")
    json.loads(stdout)
    out = Path(op["out"])
    if op["gate"] == "cluster":
        labels = read_labels(out / "labels.csv", op["n"])
        result["rate"] = swap_minimal_rate(labels, np.load(op["truth"]))
        w_path = out / "similarity.csv"
        result["similarity_digest"] = counts_digest(read_similarity(w_path, op["n"]))
        result["similarity_bytes"] = w_path.stat().st_size
    elif op["gate"] == "oracle":
        labels = read_labels(out / "labels.csv", op["n"])
        result["rate"] = swap_minimal_rate(labels, np.load(op["truth"]))
    elif op["gate"] == "sweep":
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != op["rows"]:
            raise ValueError(f"sweep.csv has {len(rows)} rows, expected {op['rows']}")
        errors = [r["error"] for r in rows if r["error"]]
        if errors:
            raise ValueError(f"sweep error cell: {errors[0]}")
        result["rate"] = float(np.median([float(r["rate"]) for r in rows]))
        result["trials"] = len(rows)
    return result


def _check_bounds(code, payload: dict, result: dict) -> dict:
    failing = [row for row in payload["rows"] if row.get("pass") is False]
    if code == 0 and not failing and all(row.get("pass") for row in payload["rows"] if "pass" in row):
        return result
    if code == 1 and [row["bound_name"] for row in failing] == [KNOWN_DEFECT_BOUND]:
        row = failing[0]
        if row["mc_estimate"] == 1.0 and row["mc_se"] == 0.0:
            result["known_defect"] = True
            result["reason"] = "known defect: cdf_rayleigh estimate 1.0 with se 0"
            return result
    raise ValueError(f"exit code {code}, failing checks {[row['bound_name'] for row in failing]}")
