"""Sweep grids: seeding, ordering, per-algorithm columns, fault capture."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

import linecluster as lc

from _oracles import derive_trial_seed


def test_grid_is_enumerated_in_sorted_order_with_all_trials():
    config = lc.SweepConfig(
        n_points=[60, 40], sigma=[0.02, 0.01], t=[0.1, 0.05], trials=2, seed=1
    )
    # the config normalizes its grid lists on construction
    assert config.n_points == (40, 60)
    assert config.sigma == (0.01, 0.02)
    assert config.t == (0.05, 0.1)
    rows = lc.run_sweep(config)
    assert len(rows) == 16
    keys = [(r.n, r.sigma, r.t, r.trial) for r in rows]
    assert keys == sorted(keys)
    assert keys[0] == (40, 0.01, 0.05, 0)
    assert keys[-1] == (60, 0.02, 0.1, 1)
    assert all(r.error == "" for r in rows)


def test_rows_are_reproducible_except_for_runtime():
    config = lc.SweepConfig(n_points=[40], sigma=[0.01], t=[0.1], trials=3, seed=7)
    first = lc.run_sweep(config)
    second = lc.run_sweep(config)
    for a, b in zip(first, second):
        da, db = a.__dict__.copy(), b.__dict__.copy()
        da.pop("runtime_ms"), db.pop("runtime_ms")
        assert da == db
        assert a.runtime_ms >= 0.0


def test_trial_seeds_come_from_the_cell_and_trial_spawn_key():
    config = lc.SweepConfig(
        n_points=[40, 60], sigma=[0.01], t=[0.1], trials=2, seed=11
    )
    rows = lc.run_sweep(config)
    for cell_idx in range(2):
        for trial in range(2):
            row = rows[cell_idx * 2 + trial]
            assert row.seed == derive_trial_seed(11, cell_idx, trial)
            assert row.trial == trial


def test_spectral_rows_carry_both_acceptance_rates():
    config = lc.SweepConfig(n_points=[80], sigma=[0.01], t=[0.1], trials=1, seed=3)
    row = lc.run_sweep(config)[0]
    assert row.t == 0.1
    assert 0.0 <= row.q_hat <= row.p_hat <= 1.0
    assert row.ham_star >= 0
    assert row.rate == row.ham_star / 80
    assert np.isfinite(row.sin_angle_1) and np.isfinite(row.sin_angle_2)
    assert np.isfinite(row.center_err_1) and np.isfinite(row.center_err_2)


def test_autocluster_rows_report_the_selected_threshold():
    config = lc.SweepConfig(
        n_points=[120], sigma=[0.01], t="auto", trials=2, seed=5, algorithm="autocluster"
    )
    rows = lc.run_sweep(config)
    assert len(rows) == 2
    for row in rows:
        assert row.error == ""
        assert row.t > 0.0  # the chosen order statistic, not a grid value
        assert np.isfinite(row.p_hat) and np.isfinite(row.q_hat)


def test_autocluster_trials_scan_once_and_report_the_rest_set_rates(monkeypatch, cross):
    real_scan = lc.hypergraph.scan
    calls = []

    def counting_scan(*args, **kwargs):
        calls.append(args[0].shape[0])
        return real_scan(*args, **kwargs)

    # Rebind every module-level alias, so a scan made through any path counts.
    for mod in [m for name, m in sys.modules.items() if name.startswith("linecluster")]:
        if getattr(mod, "scan", None) is real_scan:
            monkeypatch.setattr(mod, "scan", counting_scan)
    config = lc.SweepConfig(
        n_points=[120], sigma=[0.01], t="auto", trials=1, seed=5, algorithm="autocluster"
    )
    row = lc.run_sweep(config)[0]
    assert row.error == ""
    assert len(calls) == 1

    seg1, seg2 = cross
    ds = lc.sample_glmm(
        lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.01, n_points=120, seed=row.seed)
    )
    res = lc.autocluster(ds.points, config.m, config.theta, row.seed, ds.labels)
    rest = res.rest_indices
    assert calls[0] == rest.size
    assert res.choice.t_star == row.t
    assert res.stats == lc.scan(ds.points[rest], row.t, ds.labels[rest])[1]
    assert (row.p_hat, row.q_hat) == (res.stats.p_hat, res.stats.q_hat)


def test_autocluster_rows_leave_rates_blank_when_the_threshold_is_zero():
    # noiseless lines: the low order statistic is a collinear triple's score, 0
    config = lc.SweepConfig(
        n_points=[60], sigma=[0.0], t="auto", trials=1, seed=1, algorithm="autocluster",
        theta=0.05,
    )
    row = lc.run_sweep(config)[0]
    assert row.error == "" and row.t == 0.0
    assert math.isnan(row.p_hat) and math.isnan(row.q_hat)


def test_oracle_rows_leave_threshold_and_rates_blank():
    config = lc.SweepConfig(
        n_points=[50], sigma=[0.05], t="auto", trials=1, seed=0, algorithm="oracle"
    )
    row = lc.run_sweep(config)[0]
    assert math.isnan(row.t)
    assert math.isnan(row.p_hat) and math.isnan(row.q_hat)
    assert row.error == ""
    assert row.ham_star >= 0


def test_noise_above_threshold_defeats_the_spectral_pipeline():
    """sigma = 3t: accepted triples are dominated by chance alignments, so
    recovery degrades to a large misclustering rate."""
    config = lc.SweepConfig(n_points=[200], sigma=[0.3], t=[0.1], trials=5, seed=2)
    rows = lc.run_sweep(config)
    rates = [row.rate for row in rows]
    assert float(np.median(rates)) == pytest.approx(0.285)
    assert float(np.median(rates)) >= 0.05


def test_a_cluster_below_two_points_leaves_the_line_errors_nan():
    # At t = 1e-9 no triple of 6 noisy points is accepted, so W is zero and
    # every point lands in one cluster: the other has no line to fit.
    row = lc.run_sweep(lc.SweepConfig(n_points=[6], sigma=[0.5], t=[1e-9]))[0]
    assert row.error == ""
    assert row.p_hat == 0.0 and row.q_hat == 0.0
    assert all(math.isnan(getattr(row, name)) for name in
               ("sin_angle_1", "sin_angle_2", "center_err_1", "center_err_2"))
    assert row.ham_star == 2 and row.rate == 2 / 6  # the two points drawn from line 2


def test_failing_trials_are_captured_as_error_rows():
    config = lc.SweepConfig(
        n_points=[4], sigma=[0.05], t="auto", trials=1, seed=0, algorithm="autocluster"
    )
    row = lc.run_sweep(config)[0]
    assert row.error.startswith("SampleExhaustsNodesError:")
    assert isinstance(row.ham_star, float) and math.isnan(row.ham_star)
    assert math.isnan(row.rate)
    assert not row.exact
    assert row.n == 4  # the cell identity survives the failure


def test_config_validation():
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[], sigma=[0.1], t=[0.1])
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[2], sigma=[0.1], t=[0.1])
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[], t=[0.1])
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[-0.1], t=[0.1])
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t=[0.0])
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t=[0.1], trials=0)
    # trials and seed must be integers: 2.5 trials is not silently 2
    for bad in ({"trials": 2.5}, {"trials": "3"}, {"trials": True}, {"seed": 1.5},
                {"seed": "7"}):
        with pytest.raises(lc.LineClusterError, match="must be an integer"):
            lc.SweepConfig(n_points=[10], sigma=[0.1], t=[0.1], **bad)
    # every other field is checked too, so a bad config is refused before any
    # trial runs instead of failing each trial into the error column
    for bad, message in (
        ({"n_points": [40.7]}, "each n_points entry must be an integer"),
        ({"n_points": ["5"]}, "each n_points entry must be an integer"),
        ({"n_points": [True, 10]}, "each n_points entry must be an integer"),
        ({"m": 2.5}, "m must be an integer"),
        ({"m": 0}, "m must be >= 1"),
        ({"theta": 1.5}, r"theta must lie in \[0, 1\]"),
        ({"theta": math.nan}, r"theta must lie in \[0, 1\]"),
        ({"alpha": 5}, "alpha must lie strictly between 0 and pi"),
        ({"alpha": 0.0}, "alpha must lie strictly between 0 and pi"),
        ({"ell": -1}, "ell must be positive and finite"),
        ({"ell": math.inf}, "ell must be positive and finite"),
        ({"sigma": [math.inf]}, "sigma must be a non-empty list of finite values"),
        ({"sigma": [math.nan]}, "sigma must be a non-empty list of finite values"),
        ({"t": [math.inf]}, "t must be a non-empty list of finite thresholds"),
        # the float fields take numbers only: true is not 1.0, nor "0.1" 0.1
        ({"sigma": [True]}, "each sigma entry must be a number, got True"),
        ({"sigma": [np.bool_(True)]}, "each sigma entry must be a number"),
        ({"sigma": ["0.1"]}, "each sigma entry must be a number, got '0.1'"),
        ({"sigma": [None]}, "each sigma entry must be a number, got None"),
        ({"t": [True]}, "each t entry must be a number, got True"),
        ({"t": ["0.1"]}, "each t entry must be a number, got '0.1'"),
        ({"theta": True}, "theta must be a number, got True"),
        ({"theta": "0.5"}, "theta must be a number, got '0.5'"),
        ({"alpha": "1"}, "alpha must be a number, got '1'"),
        ({"ell": False}, "ell must be a number, got False"),
    ):
        with pytest.raises(lc.LineClusterError, match=message):
            lc.SweepConfig(**{"n_points": [10], "sigma": [0.1], "t": [0.1], **bad})
    # and under the algorithm that samples m triples
    with pytest.raises(lc.LineClusterError, match="m must be an integer"):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t="auto", algorithm="autocluster", m=2.5)
    # the bounds of each domain are accepted
    lc.SweepConfig(n_points=[3], sigma=[0.0], t="auto", algorithm="autocluster", m=1, theta=0.0)
    lc.SweepConfig(n_points=[np.int64(3)], sigma=[0.1], t="auto", algorithm="autocluster",
                   theta=1.0, seed=np.int64(-3))
    # and integers or numpy numbers in the float fields
    lc.SweepConfig(n_points=[10], sigma=[0, np.float32(0.5)], t=[1], alpha=1, ell=np.int64(2),
                   theta=0)
    # the oracle needs sigma > 0 in every cell, so a zero is refused up front
    with pytest.raises(lc.LineClusterError, match="algorithm 'oracle' needs every sigma > 0"):
        lc.SweepConfig(n_points=[50], sigma=[0.0, 0.05], t="auto", algorithm="oracle")
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t=[0.1], algorithm="votes")
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t="soon")
    # non-spectral algorithms pick their own threshold
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t=[0.1], algorithm="oracle")
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t=[0.1], algorithm="autocluster")
    # and spectral needs explicit thresholds
    with pytest.raises(lc.LineClusterError):
        lc.SweepConfig(n_points=[10], sigma=[0.1], t="auto", algorithm="spectral")


def test_config_round_trips_through_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "n_points": [40, 20],
                "sigma": [0.01],
                "t": [0.05, 0.02],
                "trials": 3,
                "seed": 9,
            }
        )
    )
    config = lc.SweepConfig.from_json(path)
    assert config.n_points == (20, 40)
    assert config.t == (0.02, 0.05)
    assert config.trials == 3
    assert config.seed == 9
    assert config.algorithm == "spectral"


def test_config_json_rejects_unknown_missing_and_invalid(tmp_path):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"n_points": [10], "sigma": [0.1], "t": [0.1], "mode": "x"}))
    with pytest.raises(lc.LineClusterError, match="unknown config keys"):
        lc.SweepConfig.from_json(bad_key)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n_points": [10], "sigma": [0.1]}))
    with pytest.raises(lc.LineClusterError, match="missing config keys"):
        lc.SweepConfig.from_json(missing)

    invalid = tmp_path / "invalid.json"
    invalid.write_text("{not json")
    with pytest.raises(lc.LineClusterError, match="invalid JSON"):
        lc.SweepConfig.from_json(invalid)


def test_config_json_loads_a_config_naming_every_field(tmp_path):
    payload = {"n_points": [30, 20], "sigma": [0.02], "t": "auto", "alpha": 1.0, "ell": 1.5,
               "trials": 2, "seed": 4, "algorithm": "autocluster", "m": 12, "theta": 0.5}
    assert set(payload) == {f.name for f in dataclasses.fields(lc.SweepConfig)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert lc.SweepConfig.from_json(path) == lc.SweepConfig(**payload)

    path.write_text(json.dumps({**payload, "mode": "x", "extra": 1}))
    with pytest.raises(lc.LineClusterError, match=r"unknown config keys \['extra', 'mode'\]$"):
        lc.SweepConfig.from_json(path)
    path.write_text(json.dumps({k: v for k, v in payload.items() if k not in ("sigma", "t")}))
    with pytest.raises(lc.LineClusterError, match=r"missing config keys \['sigma', 't'\]$"):
        lc.SweepConfig.from_json(path)
