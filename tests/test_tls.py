import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import linecluster as lc
from linecluster.errors import CirclesNotExteriorError, DegenerateTripleError, LineClusterError

from _oracles import brute_force_tls_min

finite_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
triple_strategy = st.lists(
    st.tuples(finite_coord, finite_coord), min_size=3, max_size=3
).map(np.asarray)


def test_scatter_matches_hand_computed_sums():
    s = lc.scatter([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)])
    assert s.s_xx == pytest.approx(0.5, abs=0.0)
    assert s.s_xy == 0.0
    assert s.s_yy == pytest.approx(0.06, rel=1e-15)
    assert s.trace == pytest.approx(0.56, rel=1e-15)


def test_score_is_smallest_scatter_eigenvalue_on_axis_aligned_triple():
    # s_xy = 0 here, so the score is simply min(s_xx, s_yy).
    assert lc.sigma_tls_sq([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)]) == pytest.approx(
        0.06, rel=1e-14
    )


def test_equilateral_triangle_has_isotropic_scatter():
    triple = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    assert lc.sigma_tls_sq(triple) == pytest.approx(0.5, rel=1e-14)


def test_collinear_triple_scores_exactly_zero():
    assert lc.sigma_tls_sq([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]) == 0.0
    assert lc.sigma_tls_sq([(0.0, 0.0), (1.0, 1.0), (-3.0, -3.0)]) == 0.0


def test_score_matches_brute_force_line_search(rng):
    worst = 0.0
    for _ in range(150):
        pts = rng.normal(size=(3, 2))
        closed = lc.sigma_tls_sq(pts)
        brute = brute_force_tls_min(pts)
        worst = max(worst, abs(closed - brute) / max(abs(brute), 1e-300))
    assert worst <= 1e-6


@given(triple_strategy)
def test_score_nonnegative_and_at_most_half_trace(triple):
    score = lc.sigma_tls_sq(triple)
    assert score >= 0.0
    assert score <= 0.5 * lc.scatter(triple).trace + 1e-9


@given(triple_strategy, st.floats(min_value=-math.pi, max_value=math.pi))
def test_score_invariant_under_rotation_and_translation(triple, angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    moved = triple @ rot.T + np.array([3.7, -1.2])
    base = lc.sigma_tls_sq(triple)
    assert lc.sigma_tls_sq(moved) == pytest.approx(base, rel=1e-8, abs=1e-9)


@given(triple_strategy, st.floats(min_value=0.1, max_value=10.0))
def test_score_scales_quadratically_with_the_points(triple, scale):
    base = lc.sigma_tls_sq(triple)
    scaled = lc.sigma_tls_sq(scale * triple)
    # Cancellation noise is proportional to the scatter size, so the floor of
    # the comparison scales with the trace rather than being absolute.
    floor = 1e-14 * (1.0 + lc.scatter(scale * triple).trace)
    assert scaled == pytest.approx(scale * scale * base, rel=1e-9, abs=floor)


def test_score_is_exact_at_extreme_scales():
    # Scaling by 2**k is exact, and the score is taken at unit scale, so it
    # scales by exactly 2**(2k) even where squaring the raw coordinates
    # would overflow or lose the score to underflow.
    triple = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.3]])
    base = lc.sigma_tls_sq(triple)
    assert base == pytest.approx(0.06, rel=1e-13)
    for k in (-500, -300, 300, 500):
        assert lc.sigma_tls_sq(np.ldexp(triple, k)) == math.ldexp(base, 2 * k)
    for scale in (1e100, 1e-150):
        assert lc.sigma_tls_sq(scale * triple) == pytest.approx(0.06 * scale * scale, rel=1e-13)


def test_best_fit_line_through_centroid_of_collinear_points():
    line = lc.best_fit_line([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert line.point == pytest.approx((1.0, 0.0))
    assert line.direction == pytest.approx((1.0, 0.0))


def test_best_fit_line_sign_convention_prefers_positive_first_component():
    line = lc.best_fit_line([(0.0, 0.0), (-1.0, -1.0), (-2.0, -2.0)])
    assert line.direction[0] > 0.0


def test_best_fit_line_residual_agrees_with_score(rng):
    for _ in range(50):
        pts = rng.normal(size=(3, 2))
        line = lc.best_fit_line(pts)
        d = np.asarray(pts) - np.asarray(line.point)
        normal = np.array([-line.direction[1], line.direction[0]])
        resid = float(((d @ normal) ** 2).sum())
        assert resid == pytest.approx(lc.sigma_tls_sq(pts), rel=1e-9, abs=1e-12)


def test_best_fit_line_rejects_three_coincident_points():
    with pytest.raises(DegenerateTripleError):
        lc.best_fit_line([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)])


def test_isotropic_scatter_resolves_to_the_x_axis_direction():
    triple = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)]
    assert lc.best_fit_line(triple).direction == pytest.approx((1.0, 0.0))


def test_tangents_of_equal_exterior_circles():
    ct = lc.common_tangents(-1.0, 0.5, 1.0, 0.5)
    slopes = sorted(t.slope for t in ct.transverse)
    assert slopes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
    # Transverse tangents cross midway between equal circles: zero intercept.
    for t in ct.transverse:
        assert t.intercept == pytest.approx(0.0, abs=1e-15)
    assert [(t.slope, t.intercept) for t in ct.direct] == [(0.0, 0.5), (0.0, -0.5)]


def test_tangents_ordering_puts_positive_slope_first():
    ct = lc.common_tangents(-2.0, 0.3, 2.0, 0.8)
    assert ct.transverse[0].slope > 0.0 > ct.transverse[1].slope
    assert ct.direct[0].slope > 0.0 > ct.direct[1].slope


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.2, max_value=8.0),
)
def test_tangent_lines_touch_both_circles(c1, r1, r2, gap):
    c2 = c1 + r1 + r2 + gap
    ct = lc.common_tangents(c1, r1, c2, r2)
    for line in ct.transverse + ct.direct:
        denom = math.hypot(line.slope, 1.0)
        d1 = abs(line.slope * c1 + line.intercept) / denom
        d2 = abs(line.slope * c2 + line.intercept) / denom
        assert d1 == pytest.approx(r1, rel=1e-9, abs=1e-12)
        assert d2 == pytest.approx(r2, rel=1e-9, abs=1e-12)


def test_overlapping_or_touching_circles_are_rejected():
    with pytest.raises(CirclesNotExteriorError):
        lc.common_tangents(0.0, 1.0, 1.5, 1.0)
    with pytest.raises(CirclesNotExteriorError):
        lc.common_tangents(0.0, 1.0, 2.0, 1.0)  # tangent externally: still no 4 lines


def test_tangents_validate_radii_and_centers():
    with pytest.raises(LineClusterError):
        lc.common_tangents(0.0, -1.0, 5.0, 1.0)
    with pytest.raises(LineClusterError):
        lc.common_tangents(math.nan, 1.0, 5.0, 1.0)


def test_scatter_rejects_wrong_shapes():
    with pytest.raises(LineClusterError):
        lc.scatter([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(LineClusterError):
        lc.scatter(np.full((3, 2), np.nan))
