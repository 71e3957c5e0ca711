"""Shared argument checks for array-accepting entry points and number fields.

The one rule for numbers: a count goes through ``as_int`` and a real scalar
through ``as_float``, alone or in ``finite`` or ``positive``, so a bool, a
string or None is a ``LineClusterError``; other range tests stay with callers."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import BadLabelError, LengthMismatchError, LineClusterError, SizeTooSmallError


def as_int(value, name: str) -> int:
    """``value`` as an int; a bool, float, string or any other non-integer is
    refused, so 40.7 is not silently 40 nor "5" silently 5."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise LineClusterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(value, name: str) -> float:
    """``value`` as a float; a bool, string or any other non-real is refused,
    so true is not silently 1.0 nor "0.1" silently 0.1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise LineClusterError(f"{name} must be a number, got {value!r}")
    return float(value)


def finite(value, name: str, at_least: float = -math.inf) -> float:
    """``value`` as a float; ``LineClusterError`` unless finite and >= ``at_least``."""
    value = as_float(value, name)
    if not (math.isfinite(value) and value >= at_least):
        bound = "" if at_least == -math.inf else f" and >= {at_least:g}"
        raise LineClusterError(f"{name} must be finite{bound}, got {value}")
    return value


def positive(value, name: str, error: type[LineClusterError] = LineClusterError) -> float:
    """``value`` as a float (see ``as_float``); ``error`` unless positive and finite."""
    value = as_float(value, name)
    if not (value > 0.0 and math.isfinite(value)):
        raise error(f"{name} must be positive and finite, got {value}")
    return value


def as_points(points, min_n: int = 1) -> np.ndarray:
    arr = np.ascontiguousarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise LineClusterError(f"points must have shape (n, 2), got {arr.shape}")
    if arr.shape[0] < min_n:
        raise SizeTooSmallError(f"need at least {min_n} points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise LineClusterError("points contain non-finite coordinates")
    return arr


def as_labels(labels, n: int | None = None) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise LineClusterError(f"labels must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise LengthMismatchError(f"expected {n} labels, got {arr.shape[0]}")
    valid = (arr == 1) | (arr == 2)
    if not valid.all():
        bad = arr[~valid][0]
        raise BadLabelError(f"labels must take values in {{1, 2}}, found {bad!r}")
    return arr.astype(np.int8, copy=False)
