"""Data-driven threshold selection from sampled triples.

Draw M triples uniformly at random (with replacement, distinct nodes per
triple), score each on the *square-root* scale s_i = sqrt(sigma_tls_sq),
and set the threshold to the order statistic

    t* = s_(k),   k = round(theta * M)   (half away from zero),

so the empirical CDF F_M(t) = #{ s_i <= t } / M satisfies F_M(t*) ~= theta;
``choose_order_stat`` applies this rule. Edge rules: k < 1 uses the
smallest score; k > M (impossible for theta in [0, 1], kept defensively)
clamps to the largest with a flag. The CDF comparison is non-strict, while
hyperedge acceptance is strict (score < t^2): the CDF *includes* ties so the
mass at t* is counted, whereas acceptance treats t as an open upper bound.

``autocluster`` runs the full pipeline (``spectral.cluster``) with the
selected threshold on the points not touched by the sample; the touched
nodes (union of sampled triples) receive independent uniform labels, as
their scores were consumed by selection. t* = 0 (a sampled triple exactly
collinear) is passed to the scan as it is: it accepts no triple at any
scale, so the rest points get the degenerate all-1 labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_ASSIGN, DOMAIN_TRIPLES, generator
from ._validate import as_float, as_int, as_labels, as_points
from .errors import EmptySampleError, LineClusterError, SampleExhaustsNodesError
from .spectral import ClusterResult, cluster
from .tls import _triple_scores, _unit_scale


@dataclass(frozen=True, eq=False)
class TripleSample:
    """Uniformly sampled triples with square-root-scale scores."""

    triples: np.ndarray  # (m, 3) int64, each row three distinct node indices
    scores: np.ndarray  # (m,) float64, s_i = sqrt(sigma_tls_sq)
    touched_nodes: np.ndarray  # sorted unique node indices appearing in any triple


@dataclass(frozen=True)
class ThresholdChoice:
    """The selected order statistic and its bookkeeping."""

    t_star: float
    k: int
    theta: float
    clamped: bool = False


@dataclass(frozen=True, eq=False)
class AutoClusterResult(ClusterResult):
    """Cluster labels for all n points plus the threshold-selection record.

    Points in ``rest_indices`` were clustered at ``choice.t_star``; the
    ``sample.touched_nodes`` got independent uniform labels. The inherited
    ``similarity`` and ``stats`` are those of the scan of the rest points
    alone (``stats`` only when true labels were given).
    """

    sample: TripleSample = None  # type: ignore[assignment]
    choice: ThresholdChoice = None  # type: ignore[assignment]
    rest_indices: np.ndarray = None  # type: ignore[assignment]


def choose_order_stat(scores, theta: float) -> ThresholdChoice:
    """Apply the k = round(theta * M) order-statistic rule to given scores."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise LineClusterError(f"scores must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptySampleError("cannot choose a threshold from zero scores")
    if np.isnan(arr).any():
        raise LineClusterError("scores contain NaN")
    theta = as_float(theta, "theta")
    if not (0.0 <= theta <= 1.0):
        raise LineClusterError(f"theta must lie in [0, 1], got {theta}")
    m = arr.size
    k_raw = math.floor(theta * m + 0.5)  # round half away from zero
    k = min(max(k_raw, 1), m)
    ordered = np.sort(arr)
    return ThresholdChoice(t_star=float(ordered[k - 1]), k=k, theta=theta, clamped=k != k_raw)


def sample_triples(n: int, m: int, seed: int) -> np.ndarray:
    """M uniform triples of distinct nodes, sampled with replacement."""
    n = as_int(n, "n")
    m = as_int(m, "m")
    if n < 3:
        raise LineClusterError(f"sampling triples needs n >= 3 points, got {n}")
    if m < 1:
        raise EmptySampleError(f"need at least one sampled triple, got m = {m}")
    rng = generator(seed, DOMAIN_TRIPLES)
    triples = np.empty((m, 3), dtype=np.int64)
    for row in range(m):
        triples[row] = rng.choice(n, size=3, replace=False)
    return triples


def select_threshold(points, m: int, theta: float, seed: int) -> tuple[TripleSample, ThresholdChoice]:
    """Sample M triples and pick t* as the round(theta*M)-th smallest score."""
    pts = as_points(points, min_n=3)
    triples = sample_triples(pts.shape[0], m, seed)
    # Scored at unit scale like the scan, then scaled back (see tls._unit_scale).
    scale = _unit_scale(pts)
    x = np.ldexp(pts[triples, 0], scale)
    y = np.ldexp(pts[triples, 1], scale)
    unit_scores = _triple_scores(x[:, 0], y[:, 0], x[:, 1], y[:, 1], x[:, 2], y[:, 2])
    scores = np.ldexp(np.sqrt(unit_scores), -scale)
    touched = np.unique(triples)
    sample = TripleSample(triples=triples, scores=scores, touched_nodes=touched)
    return sample, choose_order_stat(scores, theta)


def autocluster(points, m: int, theta: float, seed: int, labels=None) -> AutoClusterResult:
    """Select a threshold from sampled triples, then cluster the rest.

    The sampled (touched) nodes are labeled uniformly at random; the
    remaining points go through ``spectral.cluster`` at the selected
    threshold. With true ``labels``, the same scan also tallies the rest
    points' within/mixed acceptance (``stats``). Raises
    ``SampleExhaustsNodesError`` when fewer than 3 points remain.
    """
    pts = as_points(points, min_n=3)
    n = pts.shape[0]
    z = as_labels(labels, n) if labels is not None else None
    sample, choice = select_threshold(pts, m, theta, seed)
    rest = np.setdiff1d(np.arange(n), sample.touched_nodes)
    if rest.size < 3:
        raise SampleExhaustsNodesError(
            f"sample touched {sample.touched_nodes.size} of {n} nodes; "
            f"only {rest.size} points remain to cluster"
        )
    sub = cluster(pts[rest], choice.t_star, seed, z[rest] if z is not None else None)

    labels_hat = np.empty(n, dtype=np.int8)
    labels_hat[rest] = sub.labels
    assign_rng = generator(seed, DOMAIN_ASSIGN)
    labels_hat[sample.touched_nodes] = assign_rng.integers(
        1, 3, size=sample.touched_nodes.size
    ).astype(np.int8)
    return AutoClusterResult(
        labels=labels_hat,
        embedding=sub.embedding,
        kmeans_inertia=sub.kmeans_inertia,
        centers=sub.centers,
        degenerate=sub.degenerate,
        similarity=sub.similarity,
        stats=sub.stats,
        sample=sample,
        choice=choice,
        rest_indices=rest,
    )
