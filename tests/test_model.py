import math

import numpy as np
import pytest

import linecluster as lc
from linecluster.errors import InvalidAngleError, LineClusterError

from _oracles import segment_distance


def test_standard_cross_geometry_at_right_angle():
    seg1, seg2 = lc.standard_cross(math.pi / 2.0, 1.0)
    r = math.sqrt(0.5)
    assert seg1.center == (0.0, 0.0) and seg2.center == (0.0, 0.0)
    assert seg1.direction == pytest.approx((r, -r))
    assert seg2.direction == pytest.approx((r, r))
    assert seg1.half_length == 1.0 == seg2.half_length
    # Endpoints are center -/+ h * direction.
    for seg, (a, b) in ((seg1, ((-r, r), (r, -r))), (seg2, ((-r, -r), (r, r)))):
        c, v = np.asarray(seg.center), seg.half_length * np.asarray(seg.direction)
        assert tuple(c - v) == pytest.approx(a) and tuple(c + v) == pytest.approx(b)


def test_standard_cross_opening_angle_is_the_requested_one():
    for alpha in (0.3, 1.0, math.pi / 2.0, 2.8):
        seg1, seg2 = lc.standard_cross(alpha, 1.0)
        d1, d2 = np.asarray(seg1.direction), np.asarray(seg2.direction)
        assert math.acos(float(np.clip(d1 @ d2, -1, 1))) == pytest.approx(alpha, rel=1e-12)


def test_cross_angle_outside_open_interval_is_rejected():
    for alpha in (0.0, math.pi, -0.2, 4.0):
        with pytest.raises(InvalidAngleError):
            lc.standard_cross(alpha, 1.0)


def test_segment_validates_unit_direction_and_positive_half_length():
    with pytest.raises(LineClusterError):
        lc.Segment(center=(0.0, 0.0), direction=(1.0, 1.0), half_length=1.0)
    with pytest.raises(LineClusterError):
        lc.Segment(center=(0.0, 0.0), direction=(1.0, 0.0), half_length=0.0)


def test_model_params_validation():
    seg1, seg2 = lc.standard_cross(math.pi / 2.0, 1.0)
    with pytest.raises(LineClusterError):
        lc.ModelParams(seg1=seg1, seg2=seg2, sigma=-0.1, n_points=10, seed=0)
    with pytest.raises(LineClusterError):
        lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.1, n_points=0, seed=0)
    # n_points must be an integer: 40.7 is not silently 40, nor "12" 12
    for bad in (40.7, "12", True):
        with pytest.raises(LineClusterError, match="n_points must be an integer"):
            lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.1, n_points=bad, seed=0)
    # nor is a seed of True silently 1, or 1.5 left to fail when sampling
    for bad in (True, 1.5, "3"):
        with pytest.raises(LineClusterError, match="seed must be an integer"):
            lc.ModelParams(seg1=seg1, seg2=seg2, sigma=0.1, n_points=10, seed=bad)


def test_segment_distance_interior_and_clamped():
    seg = lc.Segment(center=(0.0, 0.0), direction=(1.0, 0.0), half_length=1.0)
    assert segment_distance((0.5, 2.0), seg) == pytest.approx(2.0)
    assert segment_distance((3.0, 0.0), seg) == pytest.approx(2.0)  # clamps to (1, 0)
    assert segment_distance((-2.0, 1.0), seg) == pytest.approx(math.sqrt(2.0))


def test_sampling_is_deterministic_in_the_seed(make_dataset):
    a = make_dataset(200, 0.05, 42)
    b = make_dataset(200, 0.05, 42)
    c = make_dataset(200, 0.05, 43)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.points, c.points)


def test_longer_samples_extend_shorter_ones(make_dataset):
    small = make_dataset(37, 0.02, 7)
    big = make_dataset(100, 0.02, 7)
    assert np.array_equal(big.points[:37], small.points)
    assert np.array_equal(big.labels[:37], small.labels)


def test_sampling_is_stable_across_the_chunk_boundary(make_dataset):
    # 70_000 points spans multiple internal chunks; the prefix must still
    # agree with a short draw at the same seed.
    big = make_dataset(70_000, 0.01, 11)
    small = make_dataset(1000, 0.01, 11)
    assert np.array_equal(big.points[:1000], small.points)
    assert big.n == 70_000


def test_noiseless_points_lie_on_their_assigned_segment(make_dataset, cross):
    ds = make_dataset(500, 0.0, 3)
    seg1, seg2 = cross
    for p, z in zip(ds.points, ds.labels):
        seg = seg1 if z == 1 else seg2
        assert segment_distance(p, seg) < 1e-12


def test_labels_are_roughly_balanced(make_dataset):
    ds = make_dataset(10_000, 0.1, 5)
    frac = float(np.mean(ds.labels == 1))
    assert abs(frac - 0.5) < 0.02


def test_noise_magnitude_matches_sigma(make_dataset, cross):
    sigma = 0.05
    ds = make_dataset(20_000, sigma, 9)
    seg1, seg2 = cross
    # Perpendicular residual to the infinite line of the assigned segment is
    # N(0, sigma^2); its standard deviation estimates sigma.
    res = []
    for p, z in zip(ds.points, ds.labels):
        seg = seg1 if z == 1 else seg2
        nx, ny = -seg.direction[1], seg.direction[0]
        res.append((p[0] - seg.center[0]) * nx + (p[1] - seg.center[1]) * ny)
    assert np.std(res) == pytest.approx(sigma, rel=0.03)


def test_offsets_cover_the_whole_segment(make_dataset, cross):
    ds = make_dataset(20_000, 0.0, 13)
    seg1, _ = cross
    proj = ds.points[ds.labels == 1] @ np.asarray(seg1.direction)
    assert proj.min() == pytest.approx(-1.0, abs=0.01)
    assert proj.max() == pytest.approx(1.0, abs=0.01)
    # Uniform law on [-1, 1]: mean 0, variance 1/3.
    assert abs(proj.mean()) < 0.02
    assert np.var(proj) == pytest.approx(1.0 / 3.0, rel=0.05)


def test_dataset_shape_and_dtypes(make_dataset):
    ds = make_dataset(50, 0.01, 1)
    assert ds.points.shape == (50, 2) and ds.points.dtype == np.float64
    assert ds.labels.shape == (50,) and set(np.unique(ds.labels)) <= {1, 2}
