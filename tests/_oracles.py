"""Slow, independent reference implementations used to check the library.

Everything here is deliberately written the dumb way (grid searches, O(N^3)
loops, textbook formulas) so that agreement with the fast library routines is
meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def orthogonal_ss(centered: np.ndarray, phi: float) -> float:
    """Sum of squared distances to the line through the origin at angle phi."""
    n0, n1 = -math.sin(phi), math.cos(phi)
    r = centered[:, 0] * n0 + centered[:, 1] * n1
    return float(r @ r)


def segment_distance(p, seg) -> float:
    """Euclidean distance from point ``p`` to the closed segment ``seg``."""
    px, py = float(p[0]), float(p[1])
    cx, cy = seg.center
    vx, vy = seg.direction
    s = (px - cx) * vx + (py - cy) * vy
    s = max(-seg.half_length, min(seg.half_length, s))
    return math.hypot(px - cx - s * vx, py - cy - s * vy)


def brute_force_tls_min(points, grid: int = 360, refine_iters: int = 80) -> float:
    """Best-fit-line residual by angle grid search plus golden-section refine.

    The optimal line for a fixed direction passes through the centroid, so
    the search is one-dimensional over the direction angle in [0, pi).
    """
    pts = np.asarray(points, dtype=np.float64)
    centered = pts - pts.mean(axis=0)
    phis = np.linspace(0.0, math.pi, grid, endpoint=False)
    normals = np.stack([-np.sin(phis), np.cos(phis)], axis=1)
    vals = ((centered @ normals.T) ** 2).sum(axis=0)
    i = int(np.argmin(vals))
    a = phis[i] - math.pi / grid
    b = phis[i] + math.pi / grid
    x1 = b - GOLD * (b - a)
    x2 = a + GOLD * (b - a)
    f1 = orthogonal_ss(centered, x1)
    f2 = orthogonal_ss(centered, x2)
    for _ in range(refine_iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLD * (b - a)
            f1 = orthogonal_ss(centered, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLD * (b - a)
            f2 = orthogonal_ss(centered, x2)
    return min(f1, f2)


def brute_force_scan(points, t: float, labels=None):
    """O(N^3) reference for the triple scan: co-incidence counts and totals.

    Returns (counts_matrix, accepted_total, within_accepted_total) where the
    within total is only meaningful when labels are given.
    """
    from linecluster import sigma_tls_sq

    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    w = np.zeros((n, n), dtype=np.int64)
    accepted = 0
    within = 0
    t2 = t * t
    for i, j, k in itertools.combinations(range(n), 3):
        if sigma_tls_sq(pts[[i, j, k]]) < t2:
            accepted += 1
            w[i, j] += 1
            w[i, k] += 1
            w[j, k] += 1
            if labels is not None and labels[i] == labels[j] == labels[k]:
                within += 1
    return w + w.T, accepted, within


def brute_force_kmeans2(rows: np.ndarray) -> float:
    """Exact best 2-means inertia by enumerating every split of the rows."""
    n = rows.shape[0]
    best = math.inf
    # Row 0 stays in cluster A (labels are exchangeable); the bits enumerate
    # the memberships of rows 1..n-1.
    for mask_bits in range(1, 2 ** (n - 1)):
        mask = np.zeros(n, dtype=bool)
        for i in range(1, n):
            mask[i] = (mask_bits >> (i - 1)) & 1
        a, b = rows[~mask], rows[mask]
        inertia = float(((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum())
        best = min(best, inertia)
    return best


def derive_trial_seed(master_seed: int, cell_index: int, trial: int) -> int:
    """The sweep's per-trial seed derivation, duplicated for direct API runs."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(cell_index, trial))
    return int(ss.generate_state(1, np.uint64)[0])


def ideal_matrix(n: int, p: float, q: float, labels) -> np.ndarray:
    """Dense W*: (n - 2)(p + q)/2 within labels, (n - 2) q across, zero diagonal."""
    labels = np.asarray(labels)
    ideal = np.where(labels[:, None] == labels[None, :], (n - 2) * (p + q) / 2.0, (n - 2) * q)
    np.fill_diagonal(ideal, 0.0)
    return ideal


def dense_davis_kahan(w, labels, p_hat: float, q_hat: float, u: np.ndarray):
    """The sin-Theta check by a dense eigendecomposition of W*.

    Returns (skipped, sin_theta, gap, ||W - W*||_F) with the library's skip
    rule.
    """
    mat = np.asarray(w, dtype=np.float64)
    ideal = ideal_matrix(mat.shape[0], p_hat, q_hat, labels)
    deviation = float(np.linalg.norm(mat - ideal))
    vals, vecs = np.linalg.eigh(ideal)
    gap = float(vals[-2] - vals[-3])
    if gap <= 1e-12 * max(1.0, abs(float(vals[-1]))):
        return True, math.nan, gap, deviation
    overlap = u.T @ vecs[:, -2:]
    return False, math.sqrt(max(0.0, 2.0 - float((overlap**2).sum()))), gap, deviation


def _reference_pp_init(rows: np.ndarray, rng) -> np.ndarray:
    n = rows.shape[0]
    first = int(rng.integers(n))
    d2 = ((rows - rows[first]) ** 2).sum(axis=1)
    total = float(d2.sum())
    if total <= 0.0:
        second = int(rng.integers(n))
    else:
        second = int(rng.choice(n, p=d2 / total))
    return np.stack([rows[first], rows[second]])


def _reference_lloyd(rows: np.ndarray, centers: np.ndarray, trace: dict):
    n = rows.shape[0]
    inertia = math.inf
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(100):
        d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        trace["steps"] += 1
        trace["ties"] += int(np.count_nonzero(d2[:, 0] == d2[:, 1]))
        for k in range(2):
            if not np.any(assign == k):
                far = int(np.argmax(d2[np.arange(n), assign]))
                assign[far] = k
                trace["repairs"] += 1
        new_centers = np.stack([rows[assign == k].mean(axis=0) for k in range(2)])
        new_inertia = float(((rows - new_centers[assign]) ** 2).sum())
        improved = inertia - new_inertia
        centers = new_centers
        if improved <= 1e-9 * max(1.0, abs(inertia)) and math.isfinite(inertia):
            inertia = new_inertia
            break
        inertia = new_inertia
    return assign, centers, inertia


def reference_kmeans2(u, seed: int, traces: list | None = None):
    """``kmeans2_rows`` as it was before its restarts ran in lockstep: each of
    the 10 k-means++ restarts runs its own Lloyd loop on the (n, 2) rows
    (argmin over a broadcast distance array, boolean-mask means). Returns
    ``(labels, inertia, centers, degenerate)`` like ``kmeans2_rows``.

    ``traces``, if given, receives one dict per restart: its Lloyd steps, the
    points at exactly equal distance from both centers summed over the steps
    (``ties``) and its empty-cluster repairs."""
    from linecluster._rng import DOMAIN_KMEANS, generator

    rows = np.ascontiguousarray(u, dtype=np.float64)
    n = rows.shape[0]
    if np.all(rows == rows[0]):
        return np.ones(n, dtype=np.int8), 0.0, np.stack([rows[0], rows[0]]), True
    rng = generator(seed, DOMAIN_KMEANS)
    best = None
    for _ in range(10):
        centers0 = _reference_pp_init(rows, rng)
        trace = {"steps": 0, "ties": 0, "repairs": 0}
        assign, centers, inertia = _reference_lloyd(rows, centers0, trace)
        if traces is not None:
            traces.append(trace)
        if best is None or inertia < best[0]:
            best = (inertia, assign, centers)
    inertia, assign, centers = best
    order = sorted(range(2), key=lambda k: (centers[k, 0], centers[k, 1]))
    labels = np.empty(n, dtype=np.int8)
    for new_label, k in enumerate(order, start=1):
        labels[assign == k] = new_label
    return labels, float(inertia), centers[order], False


_TAYLOR_WIDTH = 1e-7
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def reference_log_interval_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(Phi(b) - Phi(a)) with all four branches evaluated on every element.

    The oracle's earlier evaluation, kept verbatim: the library now evaluates
    each element's branch only, and must agree with this bit for bit.
    """
    from scipy.special import log_ndtr, ndtr

    with np.errstate(all="ignore"):
        direct = np.log(ndtr(b) - ndtr(a))
        mid = 0.5 * (a + b)
        taylor = np.log(b - a) - 0.5 * mid * mid - _LOG_SQRT_2PI
        right = log_ndtr(-a) + np.log(-np.expm1(log_ndtr(-b) - log_ndtr(-a)))
        left = log_ndtr(b) + np.log(-np.expm1(log_ndtr(a) - log_ndtr(b)))
    out = np.where(a > 0.0, right, np.where(b < 0.0, left, direct))
    return np.where(b - a < _TAYLOR_WIDTH, taylor, out)
