"""Exception types raised by the public API.

Every precondition failure raises a subclass of :class:`LineClusterError`
(itself a ``ValueError``), so callers can catch one type at the CLI boundary
while tests can assert the specific failure mode.
"""

from __future__ import annotations


class LineClusterError(ValueError):
    """Base class for all validation and runtime errors in this package."""


class InvalidAngleError(LineClusterError):
    """Cross opening angle outside (0, pi), or a non-positive half-length."""


class SizeTooSmallError(LineClusterError):
    """Fewer points than the operation needs (e.g. n < 3 for triple scans)."""


class EmptySampleError(LineClusterError):
    """The threshold rule was given zero scores or zero triples to sample."""


class SampleExhaustsNodesError(LineClusterError):
    """Threshold sampling touched so many nodes that < 3 points remain."""


class ClusterTooSmallError(LineClusterError):
    """A cluster passed to line recovery has fewer than two points."""


class ZeroSigmaError(LineClusterError):
    """A density evaluation needs sigma > 0."""


class OutOfValidityError(LineClusterError):
    """A closed-form bound was evaluated outside its validity domain."""


class LengthMismatchError(LineClusterError):
    """Two label vectors being compared have different lengths."""


class BadLabelError(LineClusterError):
    """A label vector contains values outside {1, 2}."""
