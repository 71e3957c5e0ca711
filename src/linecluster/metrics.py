"""Label-recovery metrics, invariant to the global label swap.

Cluster labels are only identifiable up to swapping 1 <-> 2, so the
canonical distance is

    ham* (z_hat, z) = min( H(z_hat, z), H(swap(z_hat), z) ),

where H is the Hamming distance and swap maps 1 <-> 2 (i.e. z -> 3 - z).
``rate`` is ham*/n and ``exact`` means ham* = 0. ham* is at most n/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._validate import as_labels
from .errors import LengthMismatchError


@dataclass(frozen=True)
class RecoveryReport:
    """Swap-invariant recovery quality of one labeling."""

    ham_star: int
    rate: float
    exact: bool
    n: int


def _mismatches(z_hat, z) -> tuple[np.ndarray, int]:
    """``z_hat`` as validated labels, and its Hamming distance to ``z``."""
    a = as_labels(z_hat)
    b = as_labels(z)
    if a.shape[0] != b.shape[0]:
        raise LengthMismatchError(f"label vectors differ in length: {a.shape[0]} vs {b.shape[0]}")
    return a, int(np.count_nonzero(a != b))


def ham_star(z_hat, z) -> int:
    """Swap-minimal Hamming distance between two {1,2} label vectors."""
    a, direct = _mismatches(z_hat, z)
    return min(direct, a.shape[0] - direct)


def report(z_hat, z) -> RecoveryReport:
    """Full recovery report for one labeling against the truth."""
    a, direct = _mismatches(z_hat, z)
    n = a.shape[0]
    d = min(direct, n - direct)
    return RecoveryReport(ham_star=d, rate=d / n if n else 0.0, exact=d == 0, n=n)


def align_swap(z_hat, z) -> np.ndarray:
    """Return z_hat or its swap, whichever is Hamming-closer to z."""
    a, direct = _mismatches(z_hat, z)
    if direct <= a.shape[0] - direct:
        return a.copy()
    return (3 - a).astype(np.int8)
