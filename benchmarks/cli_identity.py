"""Byte-identity digests of the CLI, for comparing two source trees.

The script runs a fixed set of 25 ``linecluster`` commands, each as a fresh
``python -m linecluster`` process with ``PYTHONPATH`` set to the given
``src/`` directory, one after another in the given output directory, and
prints one sha256 per command for its stdout, its stderr, its exit code and
each file under its ``--out`` directory. In ``sweep.csv`` the
``runtime_ms`` column, the one wall-time column, is dropped before hashing.
Two trees whose outputs agree byte for byte print the same lines:

    python benchmarks/cli_identity.py OLD/src /tmp/old > old.txt
    python benchmarks/cli_identity.py src /tmp/new > new.txt
    diff old.txt new.txt

The set covers every subcommand: ``gen``; ``cluster`` on labeled and
unlabeled data, with and without ``--out``; ``autocluster`` labeled and
unlabeled; ``recover-lines`` with ``--params``, with ``--labels`` and with
neither (exit 1); ``oracle`` labeled and unlabeled; ``bounds`` with Monte
Carlo, with a failing check (exit 1) and without Monte Carlo; a
``spectral``, an ``autocluster`` and an ``oracle`` sweep, in which every
trial runs; ``tls-score`` from ``--points`` and from stdin; a missing input
file (exit 1), a missing ``--in`` (exit 2) and ``gen --n 0`` (exit 1). The
dataset has 200 points, so the first ``cluster`` scan builds the C kernel.
Three more commands cross the block boundaries of the sampler, the oracle
and the Monte-Carlo validators: ``gen --n 70000`` (nine sampling chunks),
``oracle`` on that file (five classification blocks) and the README
``bounds`` example at its default 200 000 samples (49 blocks of 4 096 in
each of ``mc_within_miss``, ``mc_chi2_tail``, ``mc_rayleigh_cdf`` and
``mc_binomial_tail``, 25 sampler chunks in ``mc_hyperedge_rates``).
The kernel cache is a fresh directory inside the output directory, so every
run picks its scan kernels the same way, and nothing is written under
``$HOME``.

Usage::

    python benchmarks/cli_identity.py SRC OUT

``OUT`` must not exist yet, or be empty.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SWEEPS = {
    "sweep_spectral.json": {"n_points": [40, 60], "sigma": [0.01, 0.05], "t": [0.1],
                            "trials": 2, "seed": 5},
    "sweep_auto.json": {"n_points": [40, 60], "sigma": [0.01, 0.05], "t": "auto", "trials": 2,
                        "seed": 5, "algorithm": "autocluster", "m": 8},
    "sweep_oracle.json": {"n_points": [40, 60], "sigma": [0.01, 0.05], "t": "auto",
                          "trials": 2, "seed": 5, "algorithm": "oracle"},
}

LABELED, UNLABELED, PARAMS = "data/points.csv", "data/unlabeled.csv", "data/params.json"

# (name, argv, --out directory or None, stdin text or None)
COMMANDS = (
    ("gen", ["gen", "--sigma", "0.02", "--n", "200", "--seed", "3", "--out", "data"], "data", None),
    ("cluster-labeled", ["cluster", "--in", LABELED, "--t", "0.05", "--out", "c_lab"],
     "c_lab", None),
    ("cluster-unlabeled", ["cluster", "--in", UNLABELED, "--t", "0.05", "--out", "c_unl"],
     "c_unl", None),
    ("cluster-no-out", ["cluster", "--in", LABELED, "--t", "0.05", "--seed", "2"], None, None),
    ("autocluster-labeled", ["autocluster", "--in", LABELED, "--m", "20", "--seed", "4",
                             "--out", "a_lab"], "a_lab", None),
    ("autocluster-unlabeled", ["autocluster", "--in", UNLABELED, "--m", "20", "--seed", "4"],
     None, None),
    ("recover-params", ["recover-lines", "--in", LABELED, "--params", PARAMS], None, None),
    ("recover-labels", ["recover-lines", "--in", UNLABELED, "--labels", "c_lab/labels.csv"],
     None, None),
    ("recover-none", ["recover-lines", "--in", UNLABELED], None, None),
    ("oracle-labeled", ["oracle", "--in", LABELED, "--params", PARAMS, "--out", "o_lab"],
     "o_lab", None),
    ("oracle-unlabeled", ["oracle", "--in", UNLABELED, "--params", PARAMS, "--out", "o_unl"],
     "o_unl", None),
    ("bounds-mc", ["bounds", "--t", "0.1", "--sigma", "0.01", "--mc-samples", "2000",
                   "--seed", "1", "--out", "b_mc"], "b_mc", None),
    ("bounds-fail", ["bounds", "--t", "0.1", "--sigma", "0.01", "--mc-samples", "3",
                     "--seed", "2"], None, None),
    ("bounds-no-mc", ["bounds", "--t", "0.05", "--sigma", "0", "--no-mc"], None, None),
    ("sweep-spectral", ["sweep", "--config", "sweep_spectral.json", "--out", "s_spec"],
     "s_spec", None),
    ("sweep-autocluster", ["sweep", "--config", "sweep_auto.json", "--out", "s_auto"],
     "s_auto", None),
    ("sweep-oracle", ["sweep", "--config", "sweep_oracle.json", "--out", "s_orc"], "s_orc", None),
    ("tls-points", ["tls-score", "--points", "0,0;1,0.1;2,-0.05"], None, None),
    ("tls-stdin", ["tls-score"], None, "x,y\n0,0\n1,0\n0.5,0.3\n"),
    ("missing-file", ["cluster", "--in", "missing.csv", "--t", "0.05"], None, None),
    ("missing-in", ["cluster", "--t", "0.05"], None, None),
    ("gen-zero", ["gen", "--sigma", "0.02", "--n", "0", "--seed", "1", "--out", "g0"], "g0", None),
    ("gen-large", ["gen", "--sigma", "0.05", "--n", "70000", "--seed", "8", "--out", "big"],
     "big", None),
    ("oracle-large", ["oracle", "--in", "big/points.csv", "--params", "big/params.json",
                      "--out", "o_big"], "o_big", None),
    ("bounds-readme", ["bounds", "--t", "0.05", "--sigma", "0.01", "--mc", "--out", "b_readme"],
     "b_readme", None),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _artifact_bytes(path: Path) -> bytes:
    """The file's bytes; for sweep.csv, without the runtime_ms column."""
    data = path.read_bytes()
    if path.name != "sweep.csv":
        return data
    rows = [line.split(",") for line in data.decode().splitlines()]
    drop = rows[0].index("runtime_ms")
    return "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows).encode()


def _write_inputs(out: Path) -> None:
    for name, config in SWEEPS.items():
        (out / name).write_text(json.dumps(config))


def _drop_labels(out: Path) -> None:
    """data/unlabeled.csv: gen's points.csv without its z column."""
    lines = (out / LABELED).read_text().splitlines()
    (out / UNLABELED).write_text("".join(",".join(line.split(",")[:2]) + "\n" for line in lines))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) != 2:
        print(__doc__.split("Usage::")[1].strip(), file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "linecluster" / "__init__.py").is_file():
        print(f"error: no linecluster package under {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src), "XDG_CACHE_HOME": str(out / ".cache")}
    _write_inputs(out)
    for name, args, out_dir, stdin in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "linecluster", *args], cwd=out, env=env,
                              input=(stdin or "").encode(), capture_output=True, check=False)
        print(f"{name:22} stdout  {_sha(proc.stdout)}")
        print(f"{name:22} stderr  {_sha(proc.stderr)}")
        print(f"{name:22} exit    {_sha(str(proc.returncode).encode())}")
        if out_dir is not None and (out / out_dir).is_dir():
            for path in sorted((out / out_dir).rglob("*")):
                if path.is_file():
                    print(f"{name:22} {path.relative_to(out)}  {_sha(_artifact_bytes(path))}")
        if name == "gen":
            _drop_labels(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
