"""End-to-end acceptance checks: stated tolerances, fixed seeds, runtime budgets.

Every test prints one summary line (visible with ``pytest -rA`` or on
failure). Two checks are documented expected failures; see README:

  * criterion 03 compares the oracle's empirical error against the
    single-point error integral, whose value covers one component's error
    mass only — the measured rate is twice the integral;
  * criterion 07's median misclustering rate at mid noise sits just above
    its 0.05 budget at these sample sizes (typical medians ~ 0.053).

Both are asserted exactly as stated rather than patched to pass.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import linecluster as lc
from linecluster import io
from linecluster import montecarlo as mc
from linecluster.cli import cli_dispatch

from _oracles import brute_force_tls_min, derive_trial_seed, ideal_matrix

CROSS = lc.standard_cross(math.pi / 2.0, 1.0)


def _dataset(n: int, sigma: float, seed: int) -> lc.LabeledDataset:
    params = lc.ModelParams(seg1=CROSS[0], seg2=CROSS[1], sigma=sigma, n_points=n, seed=seed)
    return lc.sample_glmm(params)


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# shared pipeline regimes (criteria 06, 07 feed criterion 10)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineTrial:
    ham_star: int
    rate: float
    dk_ok: bool
    dk_skipped: bool


def _run_regime(n: int, sigma: float, t: float, trials: int):
    """The fixed-threshold pipeline, trial-seeded exactly like a sweep cell."""
    runs = []
    pipeline_seconds = 0.0
    for trial in range(trials):
        seed = derive_trial_seed(0, 0, trial)
        data = _dataset(n, sigma, seed)
        start = time.perf_counter()
        result = lc.cluster(data.points, t, seed, data.labels)
        rep = lc.report(result.labels, data.labels)
        pipeline_seconds += time.perf_counter() - start
        stats = result.stats
        dk = lc.davis_kahan(result.similarity, data.labels, stats.p_hat, stats.q_hat,
                            result.embedding)
        runs.append(
            PipelineTrial(
                ham_star=rep.ham_star, rate=rep.rate, dk_ok=dk.ok, dk_skipped=dk.skipped
            )
        )
    return runs, pipeline_seconds


@pytest.fixture(scope="module")
def low_noise_runs():
    return _run_regime(n=200, sigma=1e-5, t=2e-4, trials=20)


@pytest.fixture(scope="module")
def mid_noise_runs():
    return _run_regime(n=500, sigma=0.02, t=0.1, trials=20)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_tls_closed_form_matches_brute_force_search(rng):
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        triple = rng.normal(size=(3, 2))
        closed = lc.sigma_tls_sq(triple)
        brute = brute_force_tls_min(triple)
        worst = max(worst, abs(closed - brute) / max(brute, 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _line("01", ok, f"worst relative gap {worst:.3e} over 1000 triples in {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_02_error_integral_matches_its_asymptote():
    start = time.perf_counter()
    rep = lc.perr_exact(math.pi / 2.0, 2.0, 1e-3)
    elapsed = time.perf_counter() - start
    target = (math.tan(math.pi / 4.0) + 1.0 / math.tan(math.pi / 4.0)) / (
        2.0 * math.sqrt(2.0 * math.pi)
    )
    gap = abs(rep.perr / rep.sigma - target)
    ok = gap <= 0.01 * target and elapsed < 1.0
    _line("02", ok, f"sigma^-1 perr = {rep.perr / rep.sigma:.6f} vs {target:.6f} in {elapsed:.3f}s")
    assert target == pytest.approx(0.39894, abs=5e-6)
    assert gap <= 0.01 * target
    assert elapsed < 1.0


def test_criterion_03_empirical_oracle_error_within_3se_of_the_integral():
    start = time.perf_counter()
    est = mc.mc_mle_error(math.pi / 2.0, 2.0, 0.05, 100_000, seed=0)
    elapsed = time.perf_counter() - start
    # perr integrates one of the two disjoint, equal-mass ways a point is
    # misclassified (see perr_exact), so the per-point rate is 2 perr.
    theory = 2.0 * lc.perr_exact(math.pi / 2.0, 2.0, 0.05).perr
    se = math.sqrt(theory * (1.0 - theory) / est.n)
    gap = abs(est.estimate - theory)
    ok = gap <= 3.0 * se and elapsed < 30.0
    _line(
        "03",
        ok,
        f"empirical {est.estimate:.5f} vs 2 x integral {theory:.5f} "
        f"(gap {gap / se:.1f} SE) in {elapsed:.1f}s",
    )
    assert elapsed < 30.0
    assert gap <= 3.0 * se


def test_criterion_04_acceptance_probability_bounds_hold_on_the_grid():
    start = time.perf_counter()
    failures = []
    for sigma in (0.002, 0.01):
        for t in (0.02, 0.05, 0.1):
            within, between = mc.mc_hyperedge_rates(
                t, sigma, math.pi / 2.0, 2.0, 100_000, seed=0
            )
            miss = lc.within_miss_upper(t, sigma)
            lower = lc.between_accept_lower(t, sigma, 2.0)
            upper = lc.between_accept_upper(t, sigma, 2.0)
            if not (1.0 - within.estimate) <= miss + 3.0 * within.se:
                failures.append(f"within sigma={sigma} t={t}")
            if not between.estimate >= lower - 3.0 * between.se:
                failures.append(f"q lower sigma={sigma} t={t}")
            if not between.estimate <= 2.0 * upper:
                failures.append(f"q upper sigma={sigma} t={t}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _line("04", ok, f"6 cells x 3 inequalities, failures: {failures or 'none'} in {elapsed:.1f}s")
    assert not failures
    assert elapsed < 120.0


def test_criterion_05_similarity_spectrum_formulas_match_dense_solver(rng):
    worst = 0.0
    for n in (4, 6, 10):
        p = float(rng.uniform(0.5, 1.0))
        q = float(rng.uniform(0.0, 0.4))
        labels = np.repeat([1, 2], n // 2)
        ideal = lc.expected_similarity(n, p, q, labels)
        vals = np.linalg.eigvalsh(ideal_matrix(n, p, q, labels))
        worst = max(
            worst,
            abs(vals[-1] - ideal.lam1),
            abs(vals[-2] - ideal.lam2),
            float(np.abs(vals[:-2] - ideal.lam_rest).max()),
            abs(ideal.gap - n * (n - 2) * (p - q) / 4.0),
            abs(ideal.gap - (ideal.lam2 - ideal.lam_rest)),
        )
    ok = worst <= 1e-9
    _line("05", ok, f"worst |formula - dense| = {worst:.3e} over N in (4, 6, 10)")
    assert worst <= 1e-9


def test_criterion_06_exact_recovery_in_the_low_noise_regime(low_noise_runs):
    runs, elapsed = low_noise_runs
    exact = sum(1 for r in runs if r.ham_star == 0)
    ok = exact >= 19 and elapsed < 120.0
    _line("06", ok, f"Ham*=0 in {exact}/20 trials (need >= 19) in {elapsed:.1f}s")
    assert exact >= 19
    assert elapsed < 120.0


def test_criterion_07_median_rate_in_the_mid_noise_regime(mid_noise_runs):
    runs, elapsed = mid_noise_runs
    median = float(np.median([r.rate for r in runs]))
    ok = median <= 0.05 and elapsed < 600.0
    _line("07", ok, f"median rate {median:.4f} over 20 trials (budget 0.05) in {elapsed:.1f}s")
    assert elapsed < 600.0
    assert median <= 0.05


def test_criterion_08_data_driven_threshold_recovers_the_rest_set():
    n, budget = 2000, 180.0
    start = time.perf_counter()
    rates = []
    optimal = []
    for trial in range(10):
        seed = derive_trial_seed(0, 0, trial)
        data = _dataset(n, 0.01, seed)
        result = lc.autocluster(data.points, m=30, theta=0.25, seed=seed)
        rest = result.rest_indices
        rates.append(lc.report(result.labels[rest], data.labels[rest]).rate)
        # |F_M(t*) - 1/4| minimal over all order statistics, in exact integers:
        # |4 count(<= s) - M| is proportional to |F_M(s) - 1/4| for M scores.
        scores = result.sample.scores
        m = scores.size
        t_dev = abs(4 * int(np.count_nonzero(scores <= result.choice.t_star)) - m)
        devs = [abs(4 * int(np.count_nonzero(scores <= s)) - m) for s in scores]
        optimal.append(t_dev <= min(devs))
    elapsed = time.perf_counter() - start
    median = float(np.median(rates))
    ok = median <= 0.05 and all(optimal) and elapsed < budget
    _line(
        "08",
        ok,
        f"N={n}: median rest-set rate {median:.4f}, threshold optimal in "
        f"{sum(optimal)}/10 trials, in {elapsed:.1f}s (budget {budget:.0f}s)",
    )
    assert median <= 0.05
    assert all(optimal)
    assert elapsed < budget


def test_criterion_09_line_parameters_recovered_from_true_labels():
    hits = 0
    for trial in range(10):
        seed = derive_trial_seed(0, 0, trial)
        data = _dataset(2000, 0.01, seed)
        est1, est2 = lc.recover_lines(data.points, data.labels)
        if (
            lc.angle_error(est1, CROSS[0]) <= 0.05
            and lc.angle_error(est2, CROSS[1]) <= 0.05
            and lc.center_error(est1, CROSS[0].center) <= 0.05
            and lc.center_error(est2, CROSS[1].center) <= 0.05
        ):
            hits += 1
    ok = hits >= 9
    _line("09", ok, f"angle and center errors within 0.05 in {hits}/10 trials (need >= 9)")
    assert hits >= 9


def test_criterion_10_sin_theta_inequality_on_every_pipeline_run(
    low_noise_runs, mid_noise_runs
):
    runs = low_noise_runs[0] + mid_noise_runs[0]
    violations = sum(1 for r in runs if not r.dk_ok)
    skipped = sum(1 for r in runs if r.dk_skipped)
    ok = violations == 0
    _line("10", ok, f"{violations} violations over {len(runs)} runs ({skipped} skipped)")
    assert violations == 0


def test_criterion_11_reruns_reproduce_byte_identical_artifacts(tmp_path, capsys):
    def dispatch(argv):
        assert cli_dispatch(argv) == 0
        capsys.readouterr()

    data_dir = tmp_path / "data"
    gen = ["gen", "--sigma", "0.01", "--n", "80", "--seed", "1", "--out", str(data_dir)]
    dispatch(gen)
    points_first = (data_dir / "points.csv").read_bytes()
    params_first = (data_dir / "params.json").read_bytes()
    dispatch(gen)
    same_gen = (data_dir / "points.csv").read_bytes() == points_first
    same_params = (data_dir / "params.json").read_bytes() == params_first

    run_dir = tmp_path / "run"
    cluster = [
        "cluster", "--in", str(data_dir / "points.csv"), "--t", "0.1", "--seed", "0",
        "--out", str(run_dir),
    ]
    dispatch(cluster)
    labels_first = (run_dir / "labels.csv").read_bytes()
    w_first = (run_dir / "similarity.csv").read_bytes()
    dispatch(cluster)
    same_cluster = (
        (run_dir / "labels.csv").read_bytes() == labels_first
        and (run_dir / "similarity.csv").read_bytes() == w_first
    )

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"n_points": [40], "sigma": [0.01], "t": [0.05], "trials": 2, "seed": 3})
    )
    sweep_dir = tmp_path / "sweep"
    sweep = ["sweep", "--config", str(config), "--out", str(sweep_dir)]
    dispatch(sweep)

    def rows_without_runtime(path):
        lines = path.read_text().splitlines()
        skip = io.SWEEP_COLUMNS.index("runtime_ms")
        return [
            [v for i, v in enumerate(line.split(",")) if i != skip] for line in lines
        ]

    sweep_first = rows_without_runtime(sweep_dir / "sweep.csv")
    dispatch(sweep)
    same_sweep = rows_without_runtime(sweep_dir / "sweep.csv") == sweep_first

    ok = same_gen and same_params and same_cluster and same_sweep
    _line(
        "11",
        ok,
        f"gen={same_gen}, params={same_params}, cluster={same_cluster}, "
        f"sweep(minus timing)={same_sweep}",
    )
    assert same_gen and same_params and same_cluster and same_sweep
