"""Command-line interface.

Subcommands: gen, tls-score, cluster, autocluster, recover-lines, oracle,
bounds, sweep. Each ``_cmd_*`` returns its payload (``bounds`` also its exit
status); ``cli_dispatch`` adds the ``command`` key and prints the one JSON
summary to stdout. ``--out DIR`` commands write their CSV artifacts under
that directory (created if missing) with fixed names, in the formats of
``linecluster.io``. Exit codes: 0 on success, 1 on runtime errors (bad
files, invalid values) and failed ``bounds`` checks, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

# scipy.special is imported inside ``_rayleigh_agrees``, its one caller here,
# so that a ``cluster``, ``autocluster`` or ``sweep`` process never loads
# scipy (about 0.3 s and 26 MB); see ``linecluster.mle``.

from . import __version__, bounds, hypergraph, io, metrics, montecarlo
from .errors import LineClusterError, OutOfValidityError
from .mle import mle_recover, perr_exact
from .model import LabeledDataset, ModelParams, sample_glmm, standard_cross
from .recovery import angle_error, center_error, recover_lines
from .spectral import cluster
from .sweep import SweepConfig, run_sweep
from .threshold import autocluster
from .tls import scatter, sigma_tls_sq


def _print_json(payload: dict) -> None:
    payload = {"schema_version": io.SCHEMA_VERSION, **payload}
    print(json.dumps(io.to_jsonable(payload), indent=2, sort_keys=True))


def _artifact(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _rates(z_hat, z) -> dict:
    """The recovery block of a labeling against the truth."""
    rep = metrics.report(z_hat, z)
    return {"ham_star": rep.ham_star, "rate": rep.rate, "exact": rep.exact}


def _write_labels(args, payload: dict, labels) -> None:
    """With ``--out``, write ``labels.csv`` and name it in the payload."""
    if args.out:
        payload["labels_out"] = _artifact(args.out, "labels.csv")
        io.write_labels_csv(payload["labels_out"], labels)


def _cmd_gen(args) -> dict:
    seg1, seg2 = standard_cross(args.alpha, args.half_length)
    params = ModelParams(seg1=seg1, seg2=seg2, sigma=args.sigma, n_points=args.n, seed=args.seed)
    ds = sample_glmm(params)
    points_out = _artifact(args.out, "points.csv")
    params_out = _artifact(args.out, "params.json")
    io.write_points_csv(points_out, ds.points, ds.labels)
    io.write_params_json(params_out, args.alpha, args.half_length, args.sigma, args.n, args.seed)
    return {
        "n": ds.n,
        "sigma": args.sigma,
        "alpha": args.alpha,
        "half_length": args.half_length,
        "seed": args.seed,
        "points_out": points_out,
        "params_out": params_out,
        "label_counts": {
            "1": int(np.count_nonzero(ds.labels == 1)),
            "2": int(np.count_nonzero(ds.labels == 2)),
        },
    }


def _parse_triple(text: str) -> np.ndarray:
    try:
        pts = [[float(v) for v in chunk.split(",")] for chunk in text.split(";")]
    except ValueError as exc:
        raise LineClusterError(f"could not parse --points {text!r}: {exc}") from exc
    arr = np.asarray(pts, dtype=np.float64)
    if arr.shape != (3, 2):
        raise LineClusterError(f"--points needs 'x1,y1;x2,y2;x3,y3', parsed shape {arr.shape}")
    return arr


def _read_triple_stdin() -> np.ndarray:
    rows = []
    for line in sys.stdin.read().splitlines():
        line = line.strip()
        if not line or line.lower().replace(" ", "") in ("x,y", "x,y,z"):
            continue
        parts = line.split(",")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except (ValueError, IndexError) as exc:
            raise LineClusterError(f"stdin: malformed row {line!r}") from exc
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape != (3, 2):
        raise LineClusterError(f"stdin must supply exactly three x,y rows, got {arr.shape[0]}")
    return arr


def _cmd_tls_score(args) -> dict:
    triple = _parse_triple(args.points) if args.points else _read_triple_stdin()
    s = scatter(triple)
    score = sigma_tls_sq(triple)
    return {
        "s_xx": s.s_xx,
        "s_xy": s.s_xy,
        "s_yy": s.s_yy,
        "sigma_tls_sq": score,
        "sigma_tls": math.sqrt(score),
    }


def _cmd_cluster(args) -> dict:
    points, labels = io.read_points_csv(args.infile)
    res = cluster(points, args.t, args.seed, labels)
    payload = {
        "n": res.similarity.n,
        "t": args.t,
        "seed": args.seed,
        "backend": res.similarity.backend,
        "eigenvalues": res.embedding.eigenvalues if res.embedding else None,
        "kmeans_inertia": res.kmeans_inertia,
        "degenerate": res.degenerate,
    }
    if labels is not None:
        payload.update(_rates(res.labels, labels), p_hat=res.stats.p_hat, q_hat=res.stats.q_hat)
    _write_labels(args, payload, res.labels)
    if args.out:
        payload["w_out"] = _artifact(args.out, "similarity.csv")
        io.write_similarity_csv(payload["w_out"], res.similarity.counts)
    return payload


def _cmd_autocluster(args) -> dict:
    points, labels = io.read_points_csv(args.infile)
    res = autocluster(points, args.m, args.theta, args.seed)
    payload = {
        "n": int(points.shape[0]),
        "m": args.m,
        "theta": args.theta,
        "seed": args.seed,
        "t_star": res.choice.t_star,
        "k": res.choice.k,
        "clamped": res.choice.clamped,
        "touched_nodes": int(res.sample.touched_nodes.size),
        "rest": int(res.rest_indices.size),
        "degenerate": res.degenerate,
    }
    if labels is not None:
        rest = res.rest_indices
        payload["full"] = _rates(res.labels, labels)
        payload["rest_only"] = _rates(res.labels[rest], labels[rest])
    _write_labels(args, payload, res.labels)
    return payload


def _cmd_recover_lines(args) -> dict:
    points, truth = io.read_points_csv(args.infile)
    if args.labels:
        labels_hat = io.read_labels_csv(args.labels)
    elif truth is not None:
        labels_hat = truth
    else:
        raise LineClusterError("need --labels, or a z column in the dataset CSV")
    if truth is not None:
        labels_hat = metrics.align_swap(labels_hat, truth)
    est1, est2 = recover_lines(points, labels_hat)
    payload = {"n": int(points.shape[0]), "line1": est1, "line2": est2}
    if args.params:
        params = io.read_params_json(args.params)
        payload["errors"] = {
            "sin_angle_1": angle_error(est1, params.seg1),
            "sin_angle_2": angle_error(est2, params.seg2),
            "center_err_1": center_error(est1, params.seg1.center),
            "center_err_2": center_error(est2, params.seg2.center),
        }
    return payload


def _cmd_oracle(args) -> dict:
    points, labels = io.read_points_csv(args.infile)
    params = io.read_params_json(args.params)
    z = np.ones(points.shape[0], dtype=np.int8) if labels is None else labels
    res = mle_recover(LabeledDataset(points=points, labels=z, params=params))
    # Recover the cross geometry from the segment pair for the error report.
    d1, d2 = params.seg1.direction, params.seg2.direction
    alpha = math.acos(max(-1.0, min(1.0, d1[0] * d2[0] + d1[1] * d2[1])))
    err = perr_exact(alpha, 2.0 * params.seg1.half_length, params.sigma)
    payload = {
        "n": int(points.shape[0]),
        "sigma": params.sigma,
        "perr": err.perr,
        "perr_asymptote": err.asymptote,
    }
    if labels is not None:
        payload.update(_rates(res.labels, labels))
    _write_labels(args, payload, res.labels)
    return payload


# Two-sided level of the exact Rayleigh CDF test: that of a 3-SE normal test.
_RAYLEIGH_LEVEL = math.erfc(3.0 / math.sqrt(2.0))


def _at_most(est, theory: float) -> bool:
    return est.estimate <= theory + 3.0 * est.se


def _at_least(est, theory: float) -> bool:
    return est.estimate >= theory - 3.0 * est.se


def _rayleigh_agrees(est, theory: float) -> bool:
    # The theory value is the exact CDF, so the count of draws <= t is
    # Binomial(n, theory) under it: an exact two-sided tail test at the
    # level of a 3-SE normal test. (A normal test fails falsely when
    # n * (1 - theory) is about 1: one draw beyond t is then many SE out.)
    from scipy.special import bdtr, bdtrc

    hits = round(est.estimate * est.n)
    below = bdtr(hits, est.n, theory)  # P(X <= hits)
    above = bdtrc(hits - 1, est.n, theory) if hits > 0 else 1.0  # P(X >= hits)
    return bool(min(below, above) > _RAYLEIGH_LEVEL / 2.0)


def _bounds_rows(args) -> tuple[list[dict], list[str]]:
    """One row per bound, in a fixed order. A bound outside its domain goes to
    ``skipped``, and a validator that no row needs does not run; each
    validator seeds its own generator, so that changes no other estimate.
    The theory values come first; then each validator runs once, side by
    side with the others on min(``thread_count()``, CPUs) threads of the
    scan's worker pool (``hypergraph._run_tasks``), the longest on the
    calling thread, so the rows are the same at every thread count.
    ``bounds`` and ``montecarlo`` functions are looked up when called, so
    rebinding one works."""
    t, sig, ell, n_mc, seed = args.t, args.sigma, args.ell, args.mc_samples, args.seed
    k, theta, mu, delta = args.chi2_k, args.chi2_theta, args.binom_mu, args.binom_delta
    geo = f"t={t:g};sigma={sig:g};ell={ell:g}"
    # In the order they run: the mixed-triple rate, which both
    # between-acceptance rows check, takes longest.
    validators = {
        "mixed": lambda: montecarlo.mc_hyperedge_rates(t, sig, args.alpha, ell, n_mc, seed)[1],
        "within": lambda: montecarlo.mc_within_miss(t, sig, ell, n_mc, seed),
        "chi2": lambda: montecarlo.mc_chi2_tail(k, theta, n_mc, seed),
        "rayleigh": lambda: montecarlo.mc_rayleigh_cdf(t, sig, n_mc, seed),
        "binomial": lambda: montecarlo.mc_binomial_tail(mu, delta, 1000, n_mc, seed),
    }
    table = (
        ("within_miss_upper", geo, lambda: bounds.within_miss_upper(t, sig), "within", _at_most),
        ("between_accept_lower", geo, lambda: bounds.between_accept_lower(t, sig, ell),
         "mixed", _at_least),
        ("between_accept_upper", geo, lambda: bounds.between_accept_upper(t, sig, ell),
         "mixed", lambda est, theory: est.estimate <= 2.0 * theory),
        ("disc_intersect_upper", geo, lambda: bounds.disc_intersect_upper(t, sig, ell),
         None, None),
        ("tail_chi2", f"k={k};theta={theta:g}", lambda: bounds.tail_chi2(k, theta),
         "chi2", _at_most),
        ("cdf_rayleigh", f"t={t:g};scale={sig:g}", lambda: bounds.cdf_rayleigh(t, sig),
         "rayleigh", _rayleigh_agrees),
        ("tail_binomial", f"mu={mu:g};delta={delta:g}", lambda: bounds.tail_binomial(mu, delta),
         "binomial", _at_most),
    )
    rows: list[dict] = []
    skipped: list[str] = []
    checks = []
    for name, params, theory_of, validator, passes in table:
        try:
            theory = theory_of()
        except OutOfValidityError as exc:
            skipped.append(f"{name}: {exc}")
            continue
        rows.append({"bound_name": name, "params": params, "theory": theory})
        if args.mc and validator is not None:
            checks.append((rows[-1], validator, passes))
    used = {validator for _, validator, _ in checks}
    needed = [key for key in validators if key in used]
    threads = min(hypergraph.thread_count(), hypergraph._cpus()) if needed else 1
    results = hypergraph._run_tasks([validators[key] for key in needed], threads)
    estimates = dict(zip(needed, results))
    for row, validator, passes in checks:
        est = estimates[validator]
        row.update(mc_estimate=est.estimate, mc_se=est.se, **{"pass": passes(est, row["theory"])})
    return rows, skipped


def _cmd_bounds(args) -> tuple[dict, int]:
    """The payload, and exit status 1 when a Monte-Carlo check failed."""
    rows, skipped = _bounds_rows(args)
    payload = {"rows": rows, "skipped": skipped, "mc": bool(args.mc)}
    if args.out:
        payload["out"] = _artifact(args.out, "bounds.csv")
        io.write_bounds_csv(payload["out"], rows)
    return payload, int(any(row.get("pass") is False for row in rows))


def _cmd_sweep(args) -> dict:
    config = SweepConfig.from_json(args.config)
    rows = run_sweep(config)
    ran = [r for r in rows if not r.error]  # a failed trial's nan rate would make any median nan
    payload = {
        "algorithm": config.algorithm,
        "trials": config.trials,
        "rows": len(rows),
        "failed_rows": len(rows) - len(ran),
        "exact_fraction": float(np.mean([r.exact for r in ran])) if ran else math.nan,
        "median_rate": float(np.median([r.rate for r in ran])) if ran else math.nan,
    }
    if args.out:
        payload["out"] = _artifact(args.out, "sweep.csv")
        io.write_sweep_csv(payload["out"], rows)
    return payload


@functools.cache  # built once per process: cli_dispatch parses with it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linecluster",
        description="Two-line clustering of noisy planar points via triple-collinearity scans.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a dataset from the cross mixture")
    p.add_argument("--alpha", type=float, default=math.pi / 2.0, help="cross opening angle (rad)")
    p.add_argument("--half-length", type=float, default=1.0, dest="half_length")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory (points.csv, params.json)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tls-score", help="score one triple (args or stdin CSV)")
    p.add_argument("--points", help="'x1,y1;x2,y2;x3,y3' (otherwise reads three CSV rows from stdin)")
    p.set_defaults(func=_cmd_tls_score)

    p = sub.add_parser("cluster", help="spectral clustering at a fixed threshold")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--t", type=float, required=True, help="acceptance threshold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (labels.csv, similarity.csv)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("autocluster", help="pick the threshold from sampled triples, then cluster")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--m", type=int, default=30, help="number of sampled triples")
    p.add_argument("--theta", type=float, default=0.25, help="order-statistic quantile")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory (labels.csv)")
    p.set_defaults(func=_cmd_autocluster)

    p = sub.add_parser("recover-lines", help="fit a line per cluster label")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--labels", help="labels CSV (default: z column of the dataset)")
    p.add_argument("--params", help="params JSON for error columns")
    p.set_defaults(func=_cmd_recover_lines)

    p = sub.add_parser("oracle", help="classify with the true model parameters")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", help="output directory (labels.csv)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds, optionally vs Monte Carlo")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--ell", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=math.pi / 2.0)
    p.add_argument("--mc", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--mc-samples", dest="mc_samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chi2-k", dest="chi2_k", type=int, default=3)
    p.add_argument("--chi2-theta", dest="chi2_theta", type=float, default=2.0)
    p.add_argument("--binom-mu", dest="binom_mu", type=float, default=300.0)
    p.add_argument("--binom-delta", dest="binom_delta", type=float, default=0.1)
    p.add_argument("--out", help="output directory (bounds.csv)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("sweep", help="run a sweep config")
    p.add_argument("--config", required=True, help="sweep config JSON")
    p.add_argument("--out", help="output directory (sweep.csv)")
    p.set_defaults(func=_cmd_sweep)
    return parser


def cli_dispatch(argv=None) -> int:
    """Parse and run; returns the process exit code (0 ok / 1 runtime / 2 usage)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        result = args.func(args)
        payload, code = result if isinstance(result, tuple) else (result, 0)
        _print_json({"command": args.command, **payload})
    except (LineClusterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(cli_dispatch())
