import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import linecluster as lc
from linecluster.errors import LineClusterError
from linecluster.tls import _top_eigen

from _oracles import brute_force_tls_min

finite_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
triple_strategy = st.lists(
    st.tuples(finite_coord, finite_coord), min_size=3, max_size=3
).map(np.asarray)


def _trace(triple) -> float:
    s = lc.scatter(triple)
    return s.s_xx + s.s_yy


def test_scatter_matches_hand_computed_sums():
    s = lc.scatter([(0.0, 0.0), (1.0, 0.0), (0.5, 0.3)])
    assert s.s_xx == pytest.approx(0.5, abs=0.0)
    assert s.s_xy == 0.0
    assert s.s_yy == pytest.approx(0.06, rel=1e-15)


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
    assert score <= 0.5 * _trace(triple) + 1e-9


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
    floor = 1e-14 * (1.0 + _trace(scale * triple))
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


def test_isotropic_scatter_resolves_to_the_x_axis_direction():
    s = lc.scatter([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)])
    assert _top_eigen(s.s_xx, s.s_xy, s.s_yy)[2] == pytest.approx((1.0, 0.0))


def test_scatter_rejects_wrong_shapes():
    with pytest.raises(LineClusterError):
        lc.scatter([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(LineClusterError):
        lc.scatter(np.full((3, 2), np.nan))
