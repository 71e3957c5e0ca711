"""Grid sweeps over (n, sigma, t) cells with per-trial derived seeds.

Each (cell, trial) pair gets its own seed derived from the master seed via
``SeedSequence(entropy=seed mod 2**64, spawn_key=(cell_index, trial))``, so results
are independent of execution order and a rerun with the same config file
reproduces every row byte-for-byte (the ``runtime_ms`` column excepted).

The per-trial pipeline depends on ``algorithm``:
  * ``spectral``: sample, then ``spectral.cluster`` at the fixed cell
    threshold, whose labeled scan also collects the within/mixed acceptance
    rates;
  * ``autocluster``: sample, then ``threshold.autocluster``, which picks the
    threshold from sampled triples and runs ``spectral.cluster`` on the
    untouched (rest) points (the t column reports the selected t*; p_hat
    and q_hat cover the rest points only, and stay nan when t* = 0);
  * ``oracle``: classify with the exact component densities (t, p_hat and
    q_hat are not applicable and render as nan).

Line-parameter errors are computed from the swap-aligned labels against the
true segments; a degenerate cluster (fewer than 2 points) renders as nan.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from ._rng import _check_seed
from ._validate import as_float, as_int
from .errors import ClusterTooSmallError, LineClusterError
from .metrics import align_swap, report
from .mle import mle_recover
from .model import ModelParams, sample_glmm, standard_cross
from .recovery import angle_error, center_error, recover_lines
from .spectral import cluster
from .threshold import autocluster

_ALGORITHMS = ("spectral", "autocluster", "oracle")


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep grid."""

    n_points: tuple[int, ...]
    sigma: tuple[float, ...]
    t: tuple[float, ...] | str  # explicit thresholds, or "auto"
    alpha: float = math.pi / 2.0
    ell: float = 2.0
    trials: int = 1
    seed: int = 0
    algorithm: str = "spectral"
    m: int = 30  # sampled triples for the auto threshold
    theta: float = 0.25  # order-statistic quantile for the auto threshold

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise LineClusterError(
                f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}"
            )
        # Every field is checked here, so a bad config is refused before any
        # trial runs rather than failing each trial into the error column.
        if not self.n_points or any(as_int(n, "each n_points entry") < 3 for n in self.n_points):
            raise LineClusterError("n_points must be a non-empty list of integers >= 3")
        if not self.sigma or any(not (0.0 <= as_float(s, "each sigma entry") < math.inf)
                                 for s in self.sigma):
            raise LineClusterError("sigma must be a non-empty list of finite values >= 0")
        if self.algorithm == "oracle" and 0.0 in self.sigma:
            raise LineClusterError("algorithm 'oracle' needs every sigma > 0, got 0")
        for key in ("trials", "seed", "m"):
            as_int(getattr(self, key), key)
        for key in ("alpha", "ell", "theta"):
            as_float(getattr(self, key), key)
        if self.trials < 1:
            raise LineClusterError(f"trials must be >= 1, got {self.trials}")
        if self.m < 1:
            raise LineClusterError(f"m must be >= 1, got {self.m}")
        if not (0.0 <= self.theta <= 1.0):
            raise LineClusterError(f"theta must lie in [0, 1], got {self.theta}")
        if not (0.0 < self.alpha < math.pi):
            raise LineClusterError(f"alpha must lie strictly between 0 and pi, got {self.alpha}")
        if not (0.0 < self.ell < math.inf):
            raise LineClusterError(f"ell must be positive and finite, got {self.ell}")
        if isinstance(self.t, str):
            if self.t != "auto":
                raise LineClusterError(f"t must be a list of thresholds or 'auto', got {self.t!r}")
            if self.algorithm == "spectral":
                raise LineClusterError("t='auto' requires algorithm 'autocluster' or 'oracle'")
        else:
            if self.algorithm != "spectral":
                raise LineClusterError(
                    f"algorithm {self.algorithm!r} selects its own threshold; set t to 'auto'"
                )
            if not self.t or any(not (0.0 < as_float(v, "each t entry") < math.inf)
                                 for v in self.t):
                raise LineClusterError("t must be a non-empty list of finite thresholds > 0")
        # The grid is a set of cells: enumerate it in sorted order so the CSV
        # comes out sorted by (n, sigma, t, trial) and cell indices (which
        # seed the trials) do not depend on how the lists were typed in.
        object.__setattr__(self, "n_points", tuple(sorted(int(n) for n in self.n_points)))
        object.__setattr__(self, "sigma", tuple(sorted(float(s) for s in self.sigma)))
        if not isinstance(self.t, str):
            object.__setattr__(self, "t", tuple(sorted(float(v) for v in self.t)))

    @classmethod
    def from_json(cls, path) -> "SweepConfig":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise LineClusterError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise LineClusterError(f"{path}: config must be a JSON object")
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise LineClusterError(f"{path}: unknown config keys {sorted(unknown)}")
        kwargs = dict(payload)
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(kwargs)
        if missing:
            raise LineClusterError(f"{path}: missing config keys {sorted(missing)}")
        for key in ("n_points", "sigma", "t"):
            value = kwargs[key]
            if isinstance(value, list):
                kwargs[key] = tuple(value)
            elif not (key == "t" and isinstance(value, str)):
                raise LineClusterError(f"{path}: {key} must be a list, got {value!r}")
        try:
            return cls(**kwargs)
        except LineClusterError:
            raise
        except (TypeError, ValueError) as exc:
            raise LineClusterError(f"{path}: bad config value ({exc})") from exc


@dataclass(frozen=True)
class SweepRow:
    """One (cell, trial) result. The fields are sweep.csv's columns, in order
    (``io.SWEEP_COLUMNS`` is read off them); a failed trial sets only its cell,
    trial, seed and error, and its metrics keep their nan / False defaults."""

    n: int
    sigma: float
    t: float
    trial: int
    seed: int
    ham_star: int | float = math.nan  # an int, or nan on a failed trial
    rate: float = math.nan
    exact: bool = False
    runtime_ms: float = math.nan
    p_hat: float = math.nan
    q_hat: float = math.nan
    sin_angle_1: float = math.nan
    sin_angle_2: float = math.nan
    center_err_1: float = math.nan
    center_err_2: float = math.nan
    error: str = ""


def _line_errors(points, labels_hat, truth_labels, seg1, seg2) -> tuple[float, float, float, float]:
    aligned = align_swap(labels_hat, truth_labels)
    try:
        est1, est2 = recover_lines(points, aligned)
    except ClusterTooSmallError:
        return math.nan, math.nan, math.nan, math.nan
    return (
        angle_error(est1, seg1),
        angle_error(est2, seg2),
        center_error(est1, seg1.center),
        center_error(est2, seg2.center),
    )


def _run_trial(config: SweepConfig, n: int, sig: float, t_cell: float, trial: int, run_seed: int) -> SweepRow:
    seg1, seg2 = standard_cross(config.alpha, 0.5 * config.ell)
    params = ModelParams(seg1=seg1, seg2=seg2, sigma=sig, n_points=n, seed=run_seed)
    ds = sample_glmm(params)
    start = time.perf_counter()
    if config.algorithm == "spectral":
        res, t_used = cluster(ds.points, t_cell, run_seed, ds.labels), t_cell
    elif config.algorithm == "autocluster":
        res = autocluster(ds.points, config.m, config.theta, run_seed, ds.labels)
        t_used = res.choice.t_star
    else:  # oracle
        res, t_used = mle_recover(ds), math.nan
    runtime_ms = (time.perf_counter() - start) * 1000.0
    # The scan's tallies, where a scan ran at a positive threshold (not for
    # the oracle, nor for an autocluster t* = 0).
    p_hat, q_hat = (res.stats.p_hat, res.stats.q_hat) if t_used > 0.0 else (math.nan, math.nan)

    rep = report(res.labels, ds.labels)
    sin1, sin2, cen1, cen2 = _line_errors(ds.points, res.labels, ds.labels, seg1, seg2)
    return SweepRow(
        n=n,
        sigma=sig,
        t=t_used,
        trial=trial,
        seed=run_seed,
        ham_star=rep.ham_star,
        rate=rep.rate,
        exact=rep.exact,
        runtime_ms=runtime_ms,
        p_hat=p_hat,
        q_hat=q_hat,
        sin_angle_1=sin1,
        sin_angle_2=sin2,
        center_err_1=cen1,
        center_err_2=cen2,
    )


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Run every (n, sigma, t) cell for the configured number of trials.

    A trial that raises is recorded as a row with nan metrics and the message
    in the ``error`` column; the sweep continues with the remaining trials.
    """
    t_values: tuple[float, ...]
    if isinstance(config.t, str):
        t_values = (math.nan,)
    else:
        t_values = tuple(config.t)
    cells = [
        (n, sig, t) for n in config.n_points for sig in config.sigma for t in t_values
    ]
    entropy = _check_seed(config.seed)  # any integer, taken modulo 2**64 as everywhere
    rows: list[SweepRow] = []
    for cell_idx, (n, sig, t_cell) in enumerate(cells):
        for trial in range(config.trials):
            ss = np.random.SeedSequence(entropy=entropy, spawn_key=(cell_idx, trial))
            run_seed = int(ss.generate_state(1, np.uint64)[0])
            try:
                rows.append(_run_trial(config, int(n), float(sig), float(t_cell), trial, run_seed))
            except Exception as exc:  # noqa: BLE001 - a bad cell must not kill the sweep
                rows.append(SweepRow(n=int(n), sigma=float(sig), t=float(t_cell), trial=trial,
                                     seed=run_seed, error=f"{type(exc).__name__}: {exc}"))
    return rows
