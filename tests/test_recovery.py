"""Per-cluster line fits: centers, directions, and spectral diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import linecluster as lc


def _line_points(center, direction, n=40, span=1.0):
    s = np.linspace(-span, span, n)
    return np.asarray(center) + s[:, None] * np.asarray(direction)


def test_noiseless_clusters_are_fit_exactly():
    pts1 = _line_points((0.3, -0.2), (math.cos(0.4), math.sin(0.4)))
    pts2 = _line_points((-1.0, 2.0), (0.0, 1.0))  # vertical line
    points = np.vstack([pts1, pts2])
    labels = np.repeat([1, 2], 40)
    est1, est2 = lc.recover_lines(points, labels)

    assert lc.angle_error(est1, (math.cos(0.4), math.sin(0.4))) <= 1e-12
    assert est1.center == pytest.approx((0.3, -0.2), abs=1e-12)
    assert est1.bottom_eigenvalue <= 1e-15
    assert not est1.rank_deficient

    assert est2.direction == pytest.approx((0.0, 1.0), abs=1e-12)
    assert lc.angle_error(est2, (0.0, -1.0)) <= 1e-12  # line-valued: flip-invariant
    assert est2.center == pytest.approx((-1.0, 2.0), abs=1e-12)
    assert est1.cluster_size == est2.cluster_size == 40


def test_direction_sign_normalization_prefers_positive_first_coordinate():
    r = math.sqrt(0.5)
    # The first nonzero coordinate is made positive: the second one decides
    # for a vertical line.
    cases = (((-0.6, -0.8), (0.6, 0.8)), ((-r, -r), (r, r)), ((0.0, -1.0), (0.0, 1.0)))
    for direction, wanted in cases:
        pts = _line_points((0.0, 0.0), direction)
        est, _ = lc.recover_lines(np.vstack([pts, [[5.0, 5.0], [5.1, 5.0]]]), [1] * 40 + [2, 2])
        assert est.direction == pytest.approx(wanted, abs=1e-12)


def test_covariance_uses_the_one_over_n_normalization(rng):
    """Eigenvalues must match the population (bias=True) covariance, and the
    1/(n-1) sample covariance differs measurably at small n."""
    pts = rng.normal(size=(7, 2))
    other = rng.normal(size=(5, 2)) + 10.0
    points = np.vstack([pts, other])
    labels = [1] * 7 + [2] * 5
    est, _ = lc.recover_lines(points, labels)

    pop = np.cov(pts.T, bias=True)
    evals, evecs = np.linalg.eigh(pop)
    assert est.top_eigenvalue == pytest.approx(evals[1], rel=1e-12)
    assert est.bottom_eigenvalue == pytest.approx(evals[0], rel=1e-12)
    top = evecs[:, 1]
    assert min(
        np.linalg.norm(np.asarray(est.direction) - top),
        np.linalg.norm(np.asarray(est.direction) + top),
    ) <= 1e-12

    sample = np.cov(pts.T, bias=False)
    assert est.top_eigenvalue != pytest.approx(np.linalg.eigvalsh(sample)[1], rel=1e-3)


def test_cluster_covariance_matches_the_segment_population_limit(make_dataset):
    """Uniform-on-segment + isotropic noise: covariance -> (h^2/3) vv^T + sigma^2 I."""
    sigma = 0.05
    data = make_dataset(100_000, sigma, seed=3)
    est1, est2 = lc.recover_lines(data.points, data.labels)
    for est, seg, label in ((est1, data.params.seg1, 1), (est2, data.params.seg2, 2)):
        members = data.points[data.labels == label]
        centered = members - members.mean(axis=0)
        cov = centered.T @ centered / members.shape[0]
        v = np.asarray(seg.direction)
        target = (1.0 / 3.0) * np.outer(v, v) + sigma**2 * np.eye(2)
        assert np.abs(cov - target).max() <= 0.01
        assert est.top_eigenvalue == pytest.approx(1.0 / 3.0 + sigma**2, abs=0.01)
        assert est.bottom_eigenvalue == pytest.approx(sigma**2, abs=0.001)
        assert lc.angle_error(est, seg) <= 2e-3
        assert lc.center_error(est, seg.center) <= 0.02


def test_direction_of_a_triple_is_its_tls_line(rng):
    """The fitted line of a 3-point cluster leaves exactly the TLS residual."""
    filler = np.array([[50.0, 0.0], [51.0, 0.0]])
    for _ in range(50):
        triple = rng.normal(size=(3, 2))
        est, _ = lc.recover_lines(np.vstack([triple, filler]), [1, 1, 1, 2, 2])
        normal = np.array([-est.direction[1], est.direction[0]])
        resid = float((((triple - np.asarray(est.center)) @ normal) ** 2).sum())
        assert resid == pytest.approx(lc.sigma_tls_sq(triple), rel=1e-9, abs=1e-12)


def test_rank_deficient_flag_on_isotropic_and_degenerate_clusters():
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    repeated = np.full((4, 2), 7.0)
    est_iso, est_rep = lc.recover_lines(np.vstack([square, repeated]), [1] * 4 + [2] * 4)
    assert est_iso.rank_deficient  # covariance = I/2: no direction is preferred
    assert est_iso.direction == (1.0, 0.0)
    assert est_iso.top_eigenvalue == pytest.approx(0.5)
    assert est_rep.rank_deficient
    assert est_rep.top_eigenvalue == 0.0
    assert est_rep.center == (7.0, 7.0)


def test_clusters_with_fewer_than_two_points_are_rejected():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
    with pytest.raises(lc.ClusterTooSmallError):
        lc.recover_lines(points, [1, 1, 1, 2])
    with pytest.raises(lc.ClusterTooSmallError):
        lc.recover_lines(points, [1, 1, 1, 1])


def test_angle_error_frozen_values():
    est = lc.LineEstimate(
        center=(0.0, 0.0),
        direction=(1.0, 0.0),
        cluster_size=2,
        top_eigenvalue=1.0,
        bottom_eigenvalue=0.0,
    )
    assert lc.angle_error(est, (0.0, 1.0)) == 1.0
    assert lc.angle_error(est, (1.0, 0.0)) == 0.0
    assert lc.angle_error(est, (1.0, 1.0)) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert lc.angle_error(est, (-1.0, -1.0)) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    with pytest.raises(lc.ClusterTooSmallError):
        lc.angle_error(est, (0.0, 0.0))


def test_angle_error_accepts_segments_and_estimates(cross):
    seg1, seg2 = cross
    est1, _ = lc.recover_lines(
        np.vstack([_line_points(seg1.center, seg1.direction), [[9.0, 9.0], [9.5, 9.0]]]),
        [1] * 40 + [2, 2],
    )
    assert lc.angle_error(est1, seg1) <= 1e-12
    assert lc.angle_error(est1, est1) == 0.0


def test_center_error_is_the_euclidean_distance():
    est = lc.LineEstimate(
        center=(0.3, -0.2),
        direction=(1.0, 0.0),
        cluster_size=2,
        top_eigenvalue=1.0,
        bottom_eigenvalue=0.0,
    )
    assert lc.center_error(est, (0.0, 0.0)) == pytest.approx(math.sqrt(0.13), rel=1e-15)
    assert lc.center_error(est, (0.3, -0.2)) == 0.0


@given(st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=-3.0, max_value=3.0))
def test_angle_error_is_the_sine_of_the_intersection_angle(phi, shift):
    pts = _line_points((shift, -shift), (math.cos(phi), math.sin(phi)))
    filler = np.array([[50.0, 0.0], [51.0, 0.0]])
    est, _ = lc.recover_lines(np.vstack([pts, filler]), [1] * 40 + [2, 2])
    assert lc.angle_error(est, (1.0, 0.0)) == pytest.approx(abs(math.sin(phi)), abs=1e-9)
