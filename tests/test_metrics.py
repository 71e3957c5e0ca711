"""Swap-invariant recovery metrics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import linecluster as lc

label_vectors = st.lists(st.sampled_from([1, 2]), min_size=1, max_size=60)


def test_single_disagreement_counts_once():
    assert lc.ham_star([1, 1, 2, 2], [1, 2, 2, 2]) == 1


def test_identical_and_fully_swapped_labelings_are_both_exact():
    z = [1, 2, 2, 1, 1]
    assert lc.ham_star(z, z) == 0
    assert lc.ham_star([3 - v for v in z], z) == 0


def test_report_fields():
    rep = lc.report([1, 1, 2, 2], [1, 2, 2, 2])
    assert rep == lc.RecoveryReport(ham_star=1, rate=0.25, exact=False, n=4)
    assert lc.report([2, 1], [1, 2]).exact


@given(label_vectors)
def test_distance_to_self_and_to_the_swap_is_zero(z):
    assert lc.ham_star(z, z) == 0
    assert lc.ham_star([3 - v for v in z], z) == 0


@given(label_vectors, label_vectors)
def test_distance_is_symmetric_and_bounded_by_half(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    d = lc.ham_star(a, b)
    assert d == lc.ham_star(b, a)
    assert 0 <= d <= n // 2


@given(label_vectors, label_vectors)
def test_swapping_either_argument_never_changes_the_distance(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    d = lc.ham_star(a, b)
    assert lc.ham_star([3 - v for v in a], b) == d
    assert lc.ham_star(a, [3 - v for v in b]) == d


@given(label_vectors, label_vectors)
def test_align_swap_realizes_the_minimal_distance(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    aligned = lc.align_swap(a, b)
    assert int(np.count_nonzero(aligned != np.asarray(b))) == lc.ham_star(a, b)
    # aligned is either the input or its swap
    arr = np.asarray(a)
    assert np.array_equal(aligned, arr) or np.array_equal(aligned, 3 - arr)


def test_length_and_value_validation():
    with pytest.raises(lc.LengthMismatchError):
        lc.ham_star([1, 2], [1, 2, 1])
    with pytest.raises(lc.LengthMismatchError):
        lc.align_swap([1, 2], [1, 2, 1])
    with pytest.raises(lc.BadLabelError):
        lc.ham_star([1, 3], [1, 2])
    with pytest.raises(lc.BadLabelError):
        lc.ham_star([1, 2], [0, 2])


@pytest.mark.parametrize("bad", [0, 3, 1.5, math.nan, "1"])
def test_bad_label_message_names_the_first_bad_value(bad):
    # Good labels first and a second bad value last; next to strings every
    # entry is a string, so "1" is then the first bad value.
    with pytest.raises(lc.BadLabelError) as info:
        lc.ham_star([1, 2, bad, 7], [1, 2, 1, 2])
    assert str(info.value) == f"labels must take values in {{1, 2}}, found {np.asarray([bad])[0]!r}"
