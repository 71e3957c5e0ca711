"""Exact-density classifier: dual evaluation routes, error integral, optimality."""

import math

import numpy as np
import pytest

import linecluster as lc
from linecluster import mle

from _oracles import reference_log_interval_mass, segment_distance


def _densities(cross, sigma):
    seg1, seg2 = cross
    return (
        lc.MixtureDensity(segment=seg1, sigma=sigma),
        lc.MixtureDensity(segment=seg2, sigma=sigma),
    )


# ---------------------------------------------------------------------------
# density / log_density
# ---------------------------------------------------------------------------


def test_quadrature_and_separated_form_agree_to_machine_precision(cross, rng):
    d = lc.MixtureDensity(segment=cross[0], sigma=0.1)
    special = np.array([[0.0, 0.0], [0.7, -0.7], [0.9, 0.9], [0.0, 0.3]])
    points = np.vstack([rng.uniform(-1.2, 1.2, size=(40, 2)), special])
    for p in points:
        quad = lc.density(d, p)
        closed = math.exp(lc.log_density(d, [p])[0])
        assert quad == pytest.approx(closed, rel=1e-12)


def test_log_density_stays_finite_where_quadrature_underflows(cross):
    d = lc.MixtureDensity(segment=cross[0], sigma=0.1)
    far = [100.0, 100.0]
    assert lc.density(d, far) == 0.0  # the Gaussian factor underflows
    log_val = lc.log_density(d, [far])[0]
    assert np.isfinite(log_val)
    assert log_val < -1e5


def test_separated_form_survives_sigma_below_the_node_spacing():
    """On-segment point between quadrature nodes: the quadrature sum collapses
    to zero while the separated form reports the correct huge density."""
    seg = lc.Segment(center=(0.0, 0.0), direction=(1.0, 0.0), half_length=1.0)
    d = lc.MixtureDensity(segment=seg, sigma=1e-9)
    on_segment = [1.234e-4, 0.0]
    assert lc.density(d, on_segment) == 0.0
    log_val = lc.log_density(d, [on_segment])[0]
    assert np.isfinite(log_val)
    # mass factor ~ 1, so log f ~ -log(2 h sigma sqrt(2 pi))
    assert log_val == pytest.approx(-math.log(2.0 * 1e-9 * math.sqrt(2.0 * math.pi)), rel=1e-6)


def test_density_normalizes_to_one(cross):
    """Integrate the tube density over a generous box with the trapezoid rule."""
    d = lc.MixtureDensity(segment=cross[0], sigma=0.1)
    grid = np.linspace(-1.6, 1.6, 401)
    X, Y = np.meshgrid(grid, grid)
    vals = np.exp(lc.log_density(d, np.column_stack([X.ravel(), Y.ravel()])))
    total = np.trapezoid(
        np.trapezoid(vals.reshape(X.shape), grid, axis=1), grid, axis=0
    )
    assert total == pytest.approx(1.0, abs=2e-4)


def test_branch_only_interval_mass_matches_the_all_branch_reference():
    """Every branch, each on its own points and mixed in one array, bit for bit."""
    lows = np.concatenate([-np.logspace(-12, 3, 61), [0.0], np.logspace(-12, 3, 61)])
    widths = np.concatenate([np.logspace(-15, -7.001, 25), [1e-7], np.logspace(-6.9, 3.5, 40)])
    a, width = (v.ravel() for v in np.meshgrid(lows, widths))
    b = a + width
    branches = {
        "taylor": b - a < 1e-7,
        "right": (b - a >= 1e-7) & (a > 0.0),
        "left": (b - a >= 1e-7) & (b < 0.0),
        "direct": (b - a >= 1e-7) & (a <= 0.0) & (b >= 0.0),
    }
    assert all(mask.sum() >= 100 for mask in branches.values())
    assert np.abs(a).max() == 1e3
    got = mle._log_interval_mass(a, b)
    want = reference_log_interval_mass(a, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    for mask in branches.values():  # a branch alone, as a block holding only it
        assert np.array_equal(mle._log_interval_mass(a[mask], b[mask]).view(np.int64),
                              want[mask].view(np.int64))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_blocked_oracle_matches_the_all_branch_reference_at_block_edges(offset, monkeypatch):
    """n at the classification block size and one either side; points reach
    past the segment ends, so the tail branches run inside the blocks."""
    seg1 = lc.Segment(center=(0.0, 0.0), direction=(1.0, 0.0), half_length=0.5)
    seg2 = lc.Segment(center=(0.1, 0.2), direction=(0.0, 1.0), half_length=0.8)
    params = lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.3, n_points=mle._BLOCK + offset, seed=5)
    ds = lc.sample_glmm(params)
    got = lc.mle_recover(ds).labels
    d1, d2 = (lc.MixtureDensity(segment=s, sigma=0.3) for s in (seg1, seg2))
    monkeypatch.setattr(mle, "_log_interval_mass", reference_log_interval_mass)
    want = np.where(lc.log_density(d1, ds.points) > lc.log_density(d2, ds.points), 1, 2)
    assert got.dtype == np.int8 and got.shape == (params.n_points,)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# classification geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", [0.05, 0.2])
def test_classification_follows_the_quadrant_rule_off_the_axes(cross, sigma):
    """For the perpendicular cross, quadrants I/III belong to the diagonal
    component and II/IV to the anti-diagonal one; the axes are the tie set."""
    d1, d2 = _densities(cross, sigma)
    grid = np.linspace(-1.0, 1.0, 101)
    X, Y = np.meshgrid(grid, grid)
    mask = (X != 0.0) & (Y != 0.0)
    points = np.column_stack([X[mask], Y[mask]])
    lf1 = lc.log_density(d1, points)
    lf2 = lc.log_density(d2, points)
    labels = np.where(lf1 > lf2, 1, 2)
    wanted = np.where(points[:, 0] * points[:, 1] > 0, 2, 1)
    assert np.array_equal(labels, wanted)


def _oracle_labels(cross, sigma, points):
    """``mle_recover`` labels of given points under the cross at ``sigma``."""
    points = np.asarray(points, dtype=np.float64)
    params = lc.ModelParams(
        seg1=cross[0], seg2=cross[1], sigma=sigma, n_points=points.shape[0], seed=0
    )
    labels = np.ones(points.shape[0], dtype=np.int8)
    return lc.mle_recover(lc.LabeledDataset(points=points, labels=labels, params=params)).labels


def test_ties_resolve_to_component_two(cross):
    points = [[0.0, 0.0], [0.0, 0.5], [0.25, 0.0], [0.0, -0.8]]
    assert _oracle_labels(cross, 0.1, points).tolist() == [2, 2, 2, 2]


def test_tiny_sigma_classification_is_the_nearest_line_rule(cross):
    points = [[0.3, 0.2999], [0.3, -0.31], [-0.5, -0.499], [-0.2, 0.21]]
    nearest = [2 if abs(x - y) < abs(x + y) else 1 for x, y in points]
    assert _oracle_labels(cross, 1e-8, points).tolist() == nearest


def test_recover_labels_every_point_with_the_true_parameters(make_dataset):
    data = make_dataset(500, 0.05, seed=17)
    result = lc.mle_recover(data)
    assert result.labels.shape == (500,)
    assert result.labels.dtype == np.int8
    assert set(np.unique(result.labels).tolist()) <= {1, 2}
    assert result.embedding is None
    assert result.similarity is None and result.stats is None  # no scan ran
    assert not result.degenerate
    # deterministic: no RNG anywhere in the oracle path
    assert np.array_equal(result.labels, lc.mle_recover(data).labels)


# ---------------------------------------------------------------------------
# perr_exact
# ---------------------------------------------------------------------------


def test_error_integral_frozen_value():
    rep = lc.perr_exact(math.pi / 2.0, 2.0, 0.01)
    assert rep.perr == pytest.approx(3.9894228040143268e-3, rel=1e-11)
    assert rep.sigma == 0.01
    assert rep.alpha == math.pi / 2.0
    assert rep.ell == 2.0


@pytest.mark.parametrize("alpha", [math.pi / 2.0, math.pi / 3.0, 2.2])
def test_asymptote_is_the_tangent_plus_cotangent_constant(alpha):
    theta = alpha / 2.0
    for ell in (1.0, 2.0):
        rep = lc.perr_exact(alpha, ell, 0.05)
        wanted = (math.tan(theta) + 1.0 / math.tan(theta)) / (ell * math.sqrt(2.0 * math.pi))
        assert rep.asymptote == pytest.approx(wanted, rel=1e-14)


def test_error_integral_tracks_its_asymptote_at_small_sigma():
    rep = lc.perr_exact(math.pi / 2.0, 2.0, 1e-3)
    assert rep.perr / rep.sigma == pytest.approx(rep.asymptote, rel=1e-4)


def test_error_integral_grows_with_noise():
    values = [lc.perr_exact(math.pi / 2.0, 2.0, s).perr for s in (0.01, 0.05, 0.2, 0.5)]
    assert values == sorted(values)
    assert all(0.0 < v < 0.5 for v in values)


def test_empirical_oracle_error_matches_twice_the_single_point_integral(make_dataset):
    """Both mixture components contribute the same one-sided error mass."""
    sigma = 0.05
    data = make_dataset(100_000, sigma, seed=21)
    result = lc.mle_recover(data)
    err = float(np.mean(result.labels != data.labels))
    p = 2.0 * lc.perr_exact(math.pi / 2.0, 2.0, sigma).perr
    se = math.sqrt(p * (1.0 - p) / data.n)
    assert abs(err - p) <= 3.0 * se


# ---------------------------------------------------------------------------
# optimality against simple rules
# ---------------------------------------------------------------------------


def test_exact_rule_is_at_least_as_accurate_as_simple_heuristics(make_dataset, cross):
    seg1, seg2 = cross
    data = make_dataset(10_000, 0.05, seed=13)
    points, truth = data.points, data.labels
    err_mle = float(np.mean(lc.mle_recover(data).labels != truth))

    d1 = np.array([segment_distance(p, seg1) for p in points])
    d2 = np.array([segment_distance(p, seg2) for p in points])
    nearest_segment = np.where(d1 < d2, 1, 2)

    n1 = np.array([-seg1.direction[1], seg1.direction[0]])
    n2 = np.array([-seg2.direction[1], seg2.direction[0]])
    nearest_line = np.where(np.abs(points @ n1) < np.abs(points @ n2), 1, 2)

    ends, end_labels = [], []
    for seg, lab in ((seg1, 1), (seg2, 2)):
        c, v = np.asarray(seg.center), np.asarray(seg.direction) * seg.half_length
        ends += [c - v, c + v]
        end_labels += [lab, lab]
    end_dist = np.stack([np.linalg.norm(points - e, axis=1) for e in ends])
    nearest_endpoint = np.asarray(end_labels)[end_dist.argmin(axis=0)]

    sign_of_x = np.where(points[:, 0] < 0.0, 1, 2)
    constant = np.full(len(points), 2)

    slack = 3.0 * math.sqrt(0.25 / len(points))
    for heuristic in (nearest_segment, nearest_line, nearest_endpoint, sign_of_x, constant):
        assert err_mle <= float(np.mean(heuristic != truth)) + slack


def test_exact_rule_strictly_beats_nearest_line_when_segment_lengths_differ():
    """With unequal segment lengths the short component's tube is denser, so
    the likelihood rule claims territory the distance rules misassign."""
    seg1 = lc.Segment(center=(0.0, 0.0), direction=(1.0, 0.0), half_length=1.0)
    seg2 = lc.Segment(center=(0.0, 0.0), direction=(0.0, 1.0), half_length=0.25)
    params = lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.15, n_points=20_000, seed=8)
    data = lc.sample_glmm(params)
    err_mle = float(np.mean(lc.mle_recover(data).labels != data.labels))
    nearest_line = np.where(np.abs(data.points[:, 1]) < np.abs(data.points[:, 0]), 1, 2)
    err_line = float(np.mean(nearest_line != data.labels))
    assert err_mle < err_line - 0.05


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_sigma_must_be_positive_and_finite(cross):
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(lc.ZeroSigmaError):
            lc.MixtureDensity(segment=cross[0], sigma=bad)
        with pytest.raises(lc.ZeroSigmaError):
            lc.perr_exact(math.pi / 2.0, 2.0, bad)


def test_perr_angle_and_length_validation():
    for alpha in (0.0, math.pi, -1.0):
        with pytest.raises(lc.InvalidAngleError):
            lc.perr_exact(alpha, 2.0, 0.1)
    for ell in (0.0, -2.0, math.inf):
        with pytest.raises(lc.LineClusterError):
            lc.perr_exact(math.pi / 2.0, ell, 0.1)

