"""Spectral community recovery from the pair-similarity matrix.

``cluster`` is the package's one pipeline: the triple scan (``scan``), the
top-two eigenvectors of its W (``top2_eigen``) and 2-means on their rows
(``kmeans2_rows``). The embedding is the pair of eigenvectors of W for the
two *largest algebraic* eigenvalues; points are clustered by k-means
(K = 2) on the rows of the n x 2 embedding. The eigenpairs come from a
block Lanczos solve with block size 2 and full reorthogonalization, the one
path at every n:

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
    reassigning the point farthest from its center; the 10 starts are drawn
    first and the restarts' Lloyd steps run in lockstep on the coordinate
    columns, with the sums in the order of one restart at a time (see
    ``kmeans2_rows``), so the labels do not depend on how restarts are run;
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
from .hypergraph import HyperedgeStats, SimilarityMatrix, scan

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
    """Labels in {1, 2} plus the clustering diagnostics that produced them.

    ``cluster`` fills in its scan's output: ``similarity``, the W that was
    clustered, so that the result keeps W's n x n int32 counts alive, and
    ``stats``, the acceptance tallies, when true labels were given.
    ``mle_recover`` runs no scan and leaves both None.
    """

    labels: np.ndarray  # (n,) int8
    embedding: SpectralEmbedding | None
    kmeans_inertia: float | None
    centers: np.ndarray | None  # (2, 2): row k is the center of label k+1
    degenerate: bool = False
    similarity: SimilarityMatrix | None = None
    stats: HyperedgeStats | None = None


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


def _kmeans_pp_init(x: np.ndarray, y: np.ndarray, rng) -> tuple[int, int]:
    """Row indices of one k-means++ start: a uniform first row, then a row
    drawn with probability proportional to its squared distance from it."""
    n = x.shape[0]
    first = int(rng.integers(n))
    d2 = (x - x[first]) ** 2 + (y - y[first]) ** 2
    total = float(d2.sum())
    if total <= 0.0:
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=d2 / total))
    return first, second


def _lloyd_lockstep(x: np.ndarray, y: np.ndarray, cx: np.ndarray, cy: np.ndarray):
    """Lloyd steps for R restarts at once from the (R, 2) start centers
    ``(cx, cy)``; a restart leaves the block when its step meets the
    stopping test. Returns the (R, n) assignments (True for cluster 1), the
    final (R, 2) center columns and the (R,) inertias."""
    restarts, n = cx.shape[0], x.shape[0]
    out_assign = np.empty((restarts, n), dtype=bool)
    out_cx, out_cy, out_inertia = np.empty((restarts, 2)), np.empty((restarts, 2)), np.empty(restarts)
    live = np.arange(restarts)
    inertia = np.full(restarts, math.inf)
    # bincount weights: the columns once per restart, so the first k * n
    # entries serve any k live restarts.
    x_all, y_all = np.tile(x, restarts), np.tile(y, restarts)
    offsets = 2 * np.arange(restarts)[:, None]
    sq = np.empty((restarts, n, 2))  # squared residuals, interleaved as (x, y)
    for step in range(_KMEANS_MAX_ITER):
        k = live.size
        d = x - cx[:, :, None]  # (k, 2, n): squared distance to each center
        d *= d
        dy = y - cy[:, :, None]
        dy *= dy
        d += dy
        assign = d[:, 1] < d[:, 0]  # argmin: a tie stays in cluster 0
        ones = np.count_nonzero(assign, axis=1)
        for r, count in enumerate(ones.tolist()):
            # An emptied cluster takes the point farthest from its center.
            if count == n:
                assign[r, np.argmax(d[r, 1])] = False
                ones[r] -= 1
            elif count == 0:
                assign[r, np.argmax(d[r, 0])] = True
                ones[r] += 1
        idx = (assign + offsets[:k]).ravel()
        counts = np.empty((k, 2))
        counts[:, 0] = n - ones
        counts[:, 1] = ones
        # bincount adds in index order: the order of the boolean-mask mean.
        cx = np.bincount(idx, weights=x_all[:k * n], minlength=2 * k).reshape(k, 2) / counts
        cy = np.bincount(idx, weights=y_all[:k * n], minlength=2 * k).reshape(k, 2) / counts
        block = sq[:k]
        np.subtract(x, cx.take(idx).reshape(k, n), out=block[:, :, 0])
        np.subtract(y, cy.take(idx).reshape(k, n), out=block[:, :, 1])
        block *= block
        # Each row's pairwise sum of its own 2n interleaved squares.
        new_inertia = block.reshape(k, 2 * n).sum(axis=1)
        last = step == _KMEANS_MAX_ITER - 1
        done = np.array([last or (math.isfinite(old) and old - new <= _KMEANS_TOL * max(1.0, abs(old)))
                         for old, new in zip(inertia.tolist(), new_inertia.tolist())])
        inertia = new_inertia
        if done.any():
            out = live[done]
            out_assign[out], out_cx[out], out_cy[out], out_inertia[out] = \
                assign[done], cx[done], cy[done], inertia[done]
            keep = ~done
            live, cx, cy, inertia = live[keep], cx[keep], cy[keep], inertia[keep]
            if live.size == 0:
                break
    return out_assign, out_cx, out_cy, out_inertia


def kmeans2_rows(u, seed: int) -> tuple[np.ndarray, float, np.ndarray, bool]:
    """K = 2 k-means on the rows of ``u``.

    Returns ``(labels, inertia, centers, degenerate)`` where labels take
    values in {1, 2}, label 1 belongs to the lexicographically smaller
    center, and ``degenerate`` flags identical rows (single natural
    cluster; everything is labeled 1).

    The 10 k-means++ starts are drawn first, in one stream; the Lloyd steps
    then run for all restarts at once on the coordinate columns, a restart
    leaving the block at the step that meets its stopping test, and the
    first restart of least inertia wins. Labels and inertia are bit for bit
    those of running the restarts one after another with ``argmin`` and
    boolean-mask means, because each sum keeps that order: a point's
    distance is dx^2 + dy^2, a center is its cluster's coordinates added in
    row order (``np.bincount``, not a pairwise ``sum``), and an inertia is
    the pairwise ``sum`` of the restart's own (n, 2) squared residuals. The
    centers can differ only in the sign of an exact zero, as each bincount
    sum starts at +0.0.
    """
    rows = as_points(u, min_n=2)
    n = rows.shape[0]
    if np.all(rows == rows[0]):
        return np.ones(n, dtype=np.int8), 0.0, np.stack([rows[0], rows[0]]), True
    x, y = np.ascontiguousarray(rows[:, 0]), np.ascontiguousarray(rows[:, 1])
    rng = generator(seed, DOMAIN_KMEANS)
    starts = np.array([_kmeans_pp_init(x, y, rng) for _ in range(_KMEANS_RESTARTS)])
    assign, cx, cy, inertias = _lloyd_lockstep(x, y, x[starts], y[starts])
    best = 0
    for r in range(1, _KMEANS_RESTARTS):
        if inertias[r] < inertias[best]:
            best = r
    centers = np.column_stack((cx[best], cy[best]))
    order = sorted(range(2), key=lambda k: (centers[k, 0], centers[k, 1]))
    labels = np.empty(n, dtype=np.int8)
    for new_label, k in enumerate(order, start=1):
        labels[assign[best] == k] = new_label
    return labels, float(inertias[best]), centers[order], False


def cluster(points, t: float, seed: int, labels=None) -> ClusterResult:
    """The pipeline: the triple scan at threshold ``t``, its similarity
    matrix W, the top-two eigenvectors and 2-means. The result carries W and,
    when true ``labels`` are given, the scan's acceptance tallies. An
    all-zero W (t = 0, say) labels every point 1 with ``degenerate`` set."""
    sim, stats = scan(points, t, labels)
    embedding = top2_eigen(sim)
    if sim.counts.any():
        labels_hat, inertia, centers, degenerate = kmeans2_rows(embedding.u, seed)
    else:
        labels_hat, inertia, centers, degenerate = np.ones(sim.n, dtype=np.int8), 0.0, None, True
    return ClusterResult(
        labels=labels_hat,
        embedding=embedding,
        kmeans_inertia=inertia,
        centers=centers,
        degenerate=degenerate,
        similarity=sim,
        stats=stats,
    )
