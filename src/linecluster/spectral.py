"""Spectral community recovery from the pair-similarity matrix.

The embedding is the pair of eigenvectors of W for the two *largest
algebraic* eigenvalues; points are clustered by k-means (K = 2) on the rows
of the n x 2 embedding. The eigenpairs come from a block Lanczos solve with
block size 2 and full reorthogonalization, the one path at every n:

  * the start block is two Gaussian vectors from the ``DOMAIN_EIG`` stream
    with seed 0, so the solve is a fixed function of W (not the all-ones
    vector, which spans an invariant subspace of a W with equal row sums);
  * each new vector is orthogonalized twice against the whole basis; one
    that is numerically lost (a Krylov space that stopped growing, as for
    the complete graph) is replaced by a fresh draw from the same stream;
  * the solve runs on W times the power of two 1/s that puts its largest
    entry in [1, 2), so no norm of the basis or of its images overflows;
  * Rayleigh-Ritz runs each time the basis grows by 25 %, and the solve
    stops when both top Ritz pairs satisfy ||W u - theta u|| <= 1e-10
    max(s, |theta|), or when the basis spans R^n, where Rayleigh-Ritz is
    exact. There is no iteration cap and no other solver.

The eigenvalues agree with a dense ``numpy.linalg.eigh`` to rounding (about
1e-12 relative), not bit for bit. A repeated top eigenvalue is returned
twice, with two orthonormal vectors of its eigenspace.

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

from ._rng import DOMAIN_EIG, DOMAIN_KMEANS, generator
from ._validate import as_points
from .errors import LineClusterError, SizeTooSmallError
from .hypergraph import SimilarityMatrix, scan

_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-9

_EIG_TOL = 1e-10  # residual bound, relative to max(1, |theta|) at unit scale
_EIG_GROWTH = 1.25  # Rayleigh-Ritz each time the basis grows by this factor
# A new basis vector whose norm fell below this fraction of its norm before
# orthogonalization lies in the span of the basis: it is replaced by a draw.
_EIG_LOST = 1e-8
_SYMMETRY_BLOCK = 2**14  # entries per row block of the symmetry check


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
    """A float64 copy of ``w``, which the caller may overwrite."""
    if isinstance(w, SimilarityMatrix):
        # The scan's own output: integer counts whose upper triangle is mirrored
        # in place, so square, finite and exactly symmetric; the checks below
        # are for raw arrays.
        return np.array(w.counts, dtype=np.float64)
    mat = np.array(w, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise LineClusterError(f"similarity matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    if n < 2:
        raise SizeTooSmallError("the embedding needs a matrix of size at least 2")
    low, high = float(mat.min()), float(mat.max())  # NaN if any entry is
    if not (math.isfinite(low) and math.isfinite(high)):
        raise LineClusterError("similarity matrix contains non-finite entries")
    # |W - W^T| <= 1e-12 max(1, max |W|), checked by row blocks so that no
    # n x n temporary is made.
    atol = 1e-12 * max(1.0, high, -low)
    step = max(1, _SYMMETRY_BLOCK // n)
    for lo in range(0, n, step):
        if not np.all(np.abs(mat[lo:lo + step] - mat[:, lo:lo + step].T) <= atol):
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
    (0, 0). Otherwise the pairs come from a block Lanczos solve (block size
    2, start block from the seed-0 ``DOMAIN_EIG`` stream, see the module
    docstring) that stops when ||W u - lam u|| <= 1e-10 max(s, |lam|) holds
    for both columns, s being the power of two with s <= max |W_ij| < 2s, or
    when its basis spans R^n and the pairs are exact up to rounding. Two
    calls on the same matrix return the same bytes.
    """
    mat = _as_matrix(w)
    n = mat.shape[0]
    top = max(float(mat.max()), -float(mat.min()))
    if top == 0.0:
        u = np.zeros((n, 2))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        return SpectralEmbedding(u=u, eigenvalues=(0.0, 0.0))
    # Solve W times the power of two that puts its largest entry in [1, 2).
    # Below |lam| = 1 the residual bound is absolute, which any vector meets
    # when all of W is tiny; scaled, the bound is never looser than
    # 1e-10 ||W||, and no norm of the basis or of its images can overflow.
    shift = 1 - math.frexp(top)[1]
    theta, u = _block_lanczos_top2(np.ldexp(mat, shift, out=mat))
    theta = np.ldexp(theta, -shift)
    return SpectralEmbedding(u=_fix_signs(u), eigenvalues=(float(theta[0]), float(theta[1])))


def _block_lanczos_top2(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta1, theta2) and the (n, 2) Ritz vectors of the symmetric ``mat``.

    The basis is kept as rows of ``q`` next to their images ``wq = q W``, in
    buffers that double when full, so memory stays O(n m) for a basis of m
    vectors and each vector is multiplied by W once.
    """
    n = mat.shape[0]
    rng = generator(0, DOMAIN_EIG)
    q = np.empty((min(n, 32), n))
    wq = np.empty_like(q)
    m = 0
    block = rng.standard_normal((2, n))
    next_ritz = 4
    while True:
        start = m
        for v in block:
            if m == n:
                break
            v = _orthogonalize(v, q[:m])
            while v is None:  # breakdown: a fresh direction instead
                v = _orthogonalize(rng.standard_normal(n), q[:m])
            if m == q.shape[0]:
                grown = min(n, 2 * m)
                q = np.concatenate([q, np.empty((grown - m, n))])
                wq = np.concatenate([wq, np.empty((grown - m, n))])
            q[m] = v
            m += 1
        wq[start:m] = q[start:m] @ mat  # = (W Q)^T, as W is symmetric
        if m >= next_ritz or m == n:
            t = q[:m] @ wq[:m].T
            vals, vecs = np.linalg.eigh(0.5 * (t + t.T))  # ascending
            theta, s = vals[[-1, -2]], vecs[:, [-1, -2]]
            u = q[:m].T @ s
            resid = np.linalg.norm(wq[:m].T @ s - u * theta, axis=0)
            if m == n or np.all(resid <= _EIG_TOL * np.maximum(1.0, np.abs(theta))):
                return theta, u
            next_ritz = max(m + 2, math.ceil(_EIG_GROWTH * m))
        block = wq[m - 2:m]


def _orthogonalize(v: np.ndarray, basis: np.ndarray) -> np.ndarray | None:
    """``v`` made orthogonal to the orthonormal rows of ``basis`` by two
    Gram-Schmidt passes and normalized; None if it lay in their span."""
    size = float(np.linalg.norm(v))
    for _ in range(2):
        v = v - (basis @ v) @ basis
    rest = float(np.linalg.norm(v))
    if not rest > _EIG_LOST * size:
        return None
    return v / rest


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
    embedding = top2_eigen(w)
    if not w.counts.any():
        return ClusterResult(
            labels=np.ones(w.n, dtype=np.int8),
            embedding=embedding,
            kmeans_inertia=0.0,
            centers=None,
            degenerate=True,
        )
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
