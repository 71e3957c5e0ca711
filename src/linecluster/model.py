"""Planar two-line Gaussian mixture: geometry and sampling.

A dataset is drawn from the generative model

    X_i = U_i + sigma * Y_i,        i = 1..N,

where z_i are i.i.d. uniform labels on {1, 2}, U_i is uniform on segment
L_{z_i}, and Y_i is a standard bivariate Gaussian. The default geometry is
the *standard cross* with opening angle ``alpha`` and half-length ``h``:

    L_1 = { u (cos t, -sin t) : |u| <= h },   t = alpha / 2,
    L_2 = { u (cos t, +sin t) : |u| <= h },

two segments of length ``2 h`` meeting at the origin at angle ``alpha``.

Sampling is deterministic in the seed and *chunk-stable*: point ``i`` always
consumes the same four 64-bit Philox words (see ``_rng.block_words``), so the
first ``k`` points of a size-N draw equal the full draw of size ``k``.
It draws in chunks of 8 192 points (``_CHUNK_POINTS``): a chunk's 256 KiB of
words and its 64 KiB temporaries stay in a 2 MB L2 cache, and each point's
segment (center, direction, half-length) is picked by its label with
``np.where``, so every point takes one pass with no gather or scatter.
The chunk size does not change the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_MODEL, block_words, uniform_from_word, uniform_open_closed
from ._validate import as_float, as_int, finite, positive
from .errors import InvalidAngleError, LineClusterError

_CHUNK_POINTS = 1 << 13


@dataclass(frozen=True)
class Segment:
    """A closed planar segment: center + unit direction + half-length."""

    center: tuple[float, float]
    direction: tuple[float, float]
    half_length: float

    def __post_init__(self) -> None:
        positive(self.half_length, "half_length")
        norm = math.hypot(*self.direction)
        if not math.isfinite(norm) or abs(norm - 1.0) > 1e-12:
            raise LineClusterError(f"direction must be a unit vector, got norm {norm!r}")


@dataclass(frozen=True)
class ModelParams:
    """Full specification of one mixture draw."""

    seg1: Segment
    seg2: Segment
    sigma: float
    n_points: int
    seed: int

    def __post_init__(self) -> None:
        finite(self.sigma, "sigma", 0.0)
        if as_int(self.n_points, "n_points") < 1:
            raise LineClusterError(f"n_points must be >= 1, got {self.n_points}")
        as_int(self.seed, "seed")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Sampled points with their true component labels (values in {1, 2})."""

    points: np.ndarray  # (n, 2) float64
    labels: np.ndarray  # (n,) int8
    params: ModelParams

    @property
    def n(self) -> int:
        return int(self.points.shape[0])


def standard_cross(alpha: float, half_length: float = 1.0) -> tuple[Segment, Segment]:
    """The two segments of the symmetric cross with opening angle ``alpha``.

    Requires 0 < alpha < pi (the segments must be genuinely distinct lines)
    and half_length > 0.
    """
    if not (0.0 < as_float(alpha, "alpha") < math.pi):
        raise InvalidAngleError(f"alpha must lie strictly between 0 and pi, got {alpha}")
    positive(half_length, "half_length", InvalidAngleError)
    t = 0.5 * alpha
    c, s = math.cos(t), math.sin(t)
    seg1 = Segment(center=(0.0, 0.0), direction=(c, -s), half_length=half_length)
    seg2 = Segment(center=(0.0, 0.0), direction=(c, s), half_length=half_length)
    return seg1, seg2


def _sample_chunk(params: ModelParams, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    words = block_words(params.seed, DOMAIN_MODEL, start, count)
    labels = ((words[:, 0] >> np.uint64(63)).astype(np.int8) + np.int8(1))

    offs = 2.0 * uniform_from_word(words[:, 1]) - 1.0  # uniform on [-1, 1)

    # Box-Muller pair from words 2 and 3.
    u1 = uniform_open_closed(words[:, 2])
    u2 = uniform_from_word(words[:, 3])
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    y0 = radius * np.cos(angle)
    y1 = radius * np.sin(angle)

    first = labels == 1
    seg1, seg2 = params.seg1, params.seg2
    s = offs * np.where(first, seg1.half_length, seg2.half_length)
    pts = np.empty((count, 2), dtype=np.float64)
    for axis, noise in ((0, y0), (1, y1)):
        col = np.where(first, seg1.center[axis], seg2.center[axis])
        col += s * np.where(first, seg1.direction[axis], seg2.direction[axis])
        col += params.sigma * noise
        pts[:, axis] = col
    return pts, labels


def sample_glmm(params: ModelParams) -> LabeledDataset:
    """Draw a labeled dataset from the two-segment mixture.

    Deterministic in ``params.seed``; growing ``n_points`` with the same seed
    extends the draw without changing earlier points.
    """
    n = params.n_points
    points = np.empty((n, 2), dtype=np.float64)
    labels = np.empty(n, dtype=np.int8)
    for start in range(0, n, _CHUNK_POINTS):
        count = min(_CHUNK_POINTS, n - start)
        pts, labs = _sample_chunk(params, start, count)
        points[start : start + count] = pts
        labels[start : start + count] = labs
    return LabeledDataset(points=points, labels=labels, params=params)
