"""Spectral community recovery from the pair-similarity matrix.

The embedding is the pair of eigenvectors of W for the two *largest
algebraic* eigenvalues; points are clustered by k-means (K = 2) on the rows
of the n x 2 embedding. The eigenpairs come from a full dense symmetric
eigendecomposition (``numpy.linalg.eigh``) at every n.

Conventions, fixed so every backend and rerun agrees:
  * each eigenvector's entry of largest absolute value is made positive;
  * k-means uses k-means++ seeding, 10 restarts, at most 100 Lloyd steps,
    relative inertia tolerance 1e-9, and repairs an emptied cluster by
    reassigning the point farthest from its center;
  * the cluster whose center is lexicographically smaller is labeled 1;
  * an all-zero W carries no information: the embedding degenerates to the
    first two standard basis vectors and ``cluster`` returns all labels 1
    with the ``degenerate`` flag set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import DOMAIN_KMEANS, generator
from ._validate import as_points
from .errors import LineClusterError, SizeTooSmallError
from .hypergraph import SimilarityMatrix, scan

_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralEmbedding:
    """Top-two eigenpairs of a similarity matrix (algebraically largest)."""

    u: np.ndarray  # (n, 2): columns are unit eigenvectors
    eigenvalues: tuple[float, float]  # (lam1, lam2) with lam1 >= lam2


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """Labels in {1, 2} plus the clustering diagnostics that produced them."""

    labels: np.ndarray  # (n,) int8
    embedding: SpectralEmbedding | None
    kmeans_inertia: float | None
    centers: np.ndarray | None  # (2, 2): row k is the center of label k+1
    degenerate: bool = False


def _as_matrix(w) -> np.ndarray:
    if isinstance(w, SimilarityMatrix):
        # The scan's own output: integer counts built as upper + upper.T, so
        # square, finite and exactly symmetric; the checks below are for raw arrays.
        return np.asarray(w.counts, dtype=np.float64)
    mat = np.asarray(w, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise LineClusterError(f"similarity matrix must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise SizeTooSmallError("the embedding needs a matrix of size at least 2")
    if not np.all(np.isfinite(mat)):
        raise LineClusterError("similarity matrix contains non-finite entries")
    scale = float(np.abs(mat).max())
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, scale), rtol=0.0):
        raise LineClusterError("similarity matrix must be symmetric")
    return mat


def _fix_signs(u: np.ndarray) -> np.ndarray:
    for col in range(u.shape[1]):
        j = int(np.argmax(np.abs(u[:, col])))
        if u[j, col] < 0.0:
            u[:, col] = -u[:, col]
    return u


def top2_eigen(w) -> SpectralEmbedding:
    """Embedding from the two algebraically largest eigenpairs of ``w``.

    Accepts a ``SimilarityMatrix`` or any symmetric array. An all-zero
    matrix returns the first two standard basis vectors with eigenvalues
    (0, 0). Satisfies ||W u - lam u|| <= 1e-6 max(1, |lam|) per column.
    """
    mat = _as_matrix(w)
    n = mat.shape[0]
    if not mat.any():
        u = np.zeros((n, 2))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        return SpectralEmbedding(u=u, eigenvalues=(0.0, 0.0))
    vals, vecs = np.linalg.eigh(mat)  # ascending
    u = np.column_stack([vecs[:, -1], vecs[:, -2]])
    return SpectralEmbedding(u=_fix_signs(u), eigenvalues=(float(vals[-1]), float(vals[-2])))


def _kmeans_pp_init(rows: np.ndarray, rng) -> np.ndarray:
    n = rows.shape[0]
    first = int(rng.integers(n))
    d2 = ((rows - rows[first]) ** 2).sum(axis=1)
    total = float(d2.sum())
    if total <= 0.0:
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=d2 / total))
    return np.stack([rows[first], rows[second]])


def _lloyd(rows: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n = rows.shape[0]
    inertia = math.inf
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        for k in range(2):
            if not np.any(assign == k):
                far = int(np.argmax(d2[np.arange(n), assign]))
                assign[far] = k
        new_centers = np.stack([rows[assign == k].mean(axis=0) for k in range(2)])
        new_inertia = float(((rows - new_centers[assign]) ** 2).sum())
        improved = inertia - new_inertia
        centers = new_centers
        if improved <= _KMEANS_TOL * max(1.0, abs(inertia)) and math.isfinite(inertia):
            inertia = new_inertia
            break
        inertia = new_inertia
    return assign, centers, inertia


def kmeans2_rows(u, seed: int) -> tuple[np.ndarray, float, np.ndarray, bool]:
    """K = 2 k-means on the rows of ``u``.

    Returns ``(labels, inertia, centers, degenerate)`` where labels take
    values in {1, 2}, label 1 belongs to the lexicographically smaller
    center, and ``degenerate`` flags identical rows (single natural
    cluster; everything is labeled 1).
    """
    rows = as_points(u, min_n=2)
    n = rows.shape[0]
    if np.all(rows == rows[0]):
        return np.ones(n, dtype=np.int8), 0.0, np.stack([rows[0], rows[0]]), True
    rng = generator(seed, DOMAIN_KMEANS)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(_KMEANS_RESTARTS):
        centers0 = _kmeans_pp_init(rows, rng)
        assign, centers, inertia = _lloyd(rows, centers0)
        if best is None or inertia < best[0]:
            best = (inertia, assign, centers)
    inertia, assign, centers = best
    order = sorted(range(2), key=lambda k: (centers[k, 0], centers[k, 1]))
    labels = np.empty(n, dtype=np.int8)
    for new_label, k in enumerate(order, start=1):
        labels[assign == k] = new_label
    return labels, float(inertia), centers[order], False


def cluster_from_similarity(w: SimilarityMatrix, seed: int) -> ClusterResult:
    """Spectral clustering of an already-built similarity matrix."""
    if not w.counts.any():
        embedding = top2_eigen(w)
        return ClusterResult(
            labels=np.ones(w.n, dtype=np.int8),
            embedding=embedding,
            kmeans_inertia=0.0,
            centers=None,
            degenerate=True,
        )
    embedding = top2_eigen(w)
    labels, inertia, centers, degenerate = kmeans2_rows(embedding.u, seed)
    return ClusterResult(
        labels=labels,
        embedding=embedding,
        kmeans_inertia=inertia,
        centers=centers,
        degenerate=degenerate,
    )


def cluster(points, t: float, seed: int) -> ClusterResult:
    """Full pipeline: similarity matrix at threshold ``t``, embedding, k-means."""
    return cluster_from_similarity(scan(points, t)[0], seed)
