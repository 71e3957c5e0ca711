"""Line-parameter recovery from labeled clusters.

For each cluster k the center estimate is the sample mean and the direction
estimate is the top eigenvector of the *population-normalized* covariance

    S_k = (1/n_k) * sum_i (x_i - mean) (x_i - mean)^T

(1/n_k, not 1/(n_k - 1)). For points uniform on a segment of half-length h
with isotropic Gaussian noise sigma, the population covariance is
(h^2/3) v v^T + sigma^2 I, so the eigengap is h^2/3 and the top eigenvector
recovers the segment direction. Directions are sign-normalized so the first
nonzero coordinate is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._validate import as_labels, as_points
from .errors import ClusterTooSmallError
from .model import Segment
from .tls import _top_eigen

_RANK_GAP_TOL = 1e-12


@dataclass(frozen=True)
class LineEstimate:
    """Center + direction of one recovered line, with spectral diagnostics."""

    center: tuple[float, float]
    direction: tuple[float, float]
    cluster_size: int
    top_eigenvalue: float
    bottom_eigenvalue: float
    rank_deficient: bool = False


def _fit_cluster(points: np.ndarray) -> LineEstimate:
    n_k = points.shape[0]
    mean = points.mean(axis=0)
    centered = points - mean
    cov = (centered.T @ centered) / n_k
    lam_top, lam_bot, direction = _top_eigen(float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]))
    if lam_bot < 0.0:
        lam_bot = 0.0
    return LineEstimate(
        center=(float(mean[0]), float(mean[1])),
        direction=direction,
        cluster_size=n_k,
        top_eigenvalue=lam_top,
        bottom_eigenvalue=lam_bot,
        rank_deficient=(lam_top - lam_bot) < _RANK_GAP_TOL,
    )


def recover_lines(points, labels_hat) -> tuple[LineEstimate, LineEstimate]:
    """Fit one line per label value (1 and 2); each cluster needs >= 2 points."""
    pts = as_points(points, min_n=2)
    labs = as_labels(labels_hat, pts.shape[0])
    estimates = []
    for k in (1, 2):
        members = pts[labs == k]
        if members.shape[0] < 2:
            raise ClusterTooSmallError(
                f"cluster {k} has {members.shape[0]} point(s); need at least 2 to fit a line"
            )
        estimates.append(_fit_cluster(members))
    return estimates[0], estimates[1]


def _direction_of(truth) -> tuple[float, float]:
    if isinstance(truth, (Segment, LineEstimate)):
        dx, dy = truth.direction
    else:
        dx, dy = float(truth[0]), float(truth[1])
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise ClusterTooSmallError("reference direction must be nonzero")
    return dx / norm, dy / norm


def angle_error(est: LineEstimate, truth) -> float:
    """|sin| of the angle between the estimated and reference lines.

    Line-valued (unsigned): invariant to flipping either direction.
    ``truth`` may be a Segment, a LineEstimate, or a raw 2-vector.
    """
    ex, ey = _direction_of(est)
    tx, ty = _direction_of(truth)
    return abs(ex * ty - ey * tx)


def center_error(est: LineEstimate, truth_mu) -> float:
    """Euclidean distance between the estimated center and a reference point."""
    return math.hypot(est.center[0] - float(truth_mu[0]), est.center[1] - float(truth_mu[1]))
