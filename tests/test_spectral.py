import math
import tracemalloc
import warnings

import numpy as np
import pytest

import linecluster as lc
from linecluster.errors import LineClusterError, SizeTooSmallError
from linecluster import spectral
from linecluster.spectral import _fix_signs, kmeans2_rows

from _oracles import brute_force_kmeans2, reference_kmeans2


def test_complete_count_matrix_has_known_spectrum():
    n, c = 10, 3
    w = c * (np.ones((n, n)) - np.eye(n))
    emb = lc.top2_eigen(w)
    assert emb.eigenvalues[0] == pytest.approx(c * (n - 1), rel=1e-12)
    assert emb.eigenvalues[1] == pytest.approx(-c, rel=1e-12)
    # Leading eigenvector of a complete graph is constant.
    assert emb.u[:, 0] == pytest.approx(np.full(n, 1.0 / math.sqrt(n)), rel=1e-9)


def test_all_zero_matrix_falls_back_to_basis_vectors():
    emb = lc.top2_eigen(np.zeros((4, 4)))
    assert emb.eigenvalues == (0.0, 0.0)
    assert emb.u[:, 0] == pytest.approx([1.0, 0.0, 0.0, 0.0])
    assert emb.u[:, 1] == pytest.approx([0.0, 1.0, 0.0, 0.0])


def test_eigenvectors_are_orthonormal_and_satisfy_the_residual_contract(rng):
    for n in (8, 40):
        a = rng.integers(0, 5, size=(n, n))
        w = np.triu(a, 1)
        w = (w + w.T).astype(np.float64)
        emb = lc.top2_eigen(w)
        u = emb.u
        assert u.T @ u == pytest.approx(np.eye(2), abs=1e-10)
        for col, lam in zip(u.T, emb.eigenvalues):
            assert np.linalg.norm(w @ col - lam * col) <= 1e-10 * max(1.0, abs(lam))


def test_two_largest_by_algebraic_value_not_magnitude():
    # Spectrum {3, 1, -5}: the algebraic top-2 are 3 and 1 even though |-5|
    # dominates.
    emb = lc.top2_eigen(_spectrum_351())
    assert emb.eigenvalues[0] == pytest.approx(3.0, rel=1e-9)
    assert emb.eigenvalues[1] == pytest.approx(1.0, rel=1e-9)


def test_sign_convention_makes_largest_component_positive(rng):
    w = rng.normal(size=(12, 12))
    w = 0.5 * (w + w.T)
    emb = lc.top2_eigen(w)
    for col in emb.u.T:
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_large_matrices_match_the_full_dense_decomposition(rng):
    n = 535
    # A structured counts-like matrix with a clear top-2 gap.
    z = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    base = 5.0 * np.ones((n, n)) + 3.0 * np.outer(z, z)
    noise = rng.normal(scale=0.5, size=(n, n))
    w = base + noise + noise.T
    np.fill_diagonal(w, 0.0)
    emb = lc.top2_eigen(w)
    vals, vecs = np.linalg.eigh(w)
    assert emb.eigenvalues[0] == pytest.approx(vals[-1], rel=1e-9)
    assert emb.eigenvalues[1] == pytest.approx(vals[-2], rel=1e-9)
    assert abs(float(emb.u[:, 0] @ vecs[:, -1])) == pytest.approx(1.0, abs=1e-8)
    assert abs(float(emb.u[:, 1] @ vecs[:, -2])) == pytest.approx(1.0, abs=1e-8)


def _goe(n: int) -> np.ndarray:
    g = np.random.default_rng(n).normal(size=(n, n))
    return (g + g.T) / 2.0


def _circulant(n: int) -> np.ndarray:
    c = np.random.default_rng(n + 1).normal(size=n)
    c = (c + c[-np.arange(n) % n]) / 2.0  # c[k] == c[-k]: symmetric
    return c[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def _block(copies: int) -> np.ndarray:
    a = np.triu(np.random.default_rng(7).integers(0, 5, size=(40, 40)), 1)
    return np.kron(np.eye(copies), (a + a.T).astype(np.float64))


def _spectrum_351() -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    w = q @ np.diag([3.0, 1.0, -5.0]) @ q.T
    return 0.5 * (w + w.T)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of ``v`` whose squares cannot overflow: taken at unit scale."""
    top = float(np.abs(v).max())
    return top * float(np.linalg.norm(v / top)) if top else 0.0


SOLVER_CASES = {
    # W q for a start block q lies in span(q, 1): the second block loses a
    # column, which is replaced by a fresh draw.
    "complete graph n=600 (breakdown)": lambda: np.ones((600, 600)) - np.eye(600),
    "diag(A, A): lam1 == lam2": lambda: _block(2),
    "kron(I3, A): lam1 == lam2 == lam3": lambda: _block(3),
    "GOE n=300 (gapless)": lambda: _goe(300),
    "circulant n=300 (pairs of equal eigenvalues)": lambda: _circulant(300),
    "n=2": lambda: _goe(2),
    "n=3": lambda: _goe(3),
    "spectrum {3, 1, -5}": _spectrum_351,
    # Every entry far below 1, where the absolute residual bound alone would
    # accept any vector.
    "GOE n=100 times 1e-12": lambda: 1e-12 * _goe(100),
    # Entries so large that an unscaled basis vector's squared norm overflows.
    "GOE n=100 times 1e200": lambda: 1e200 * _goe(100),
    "GOE n=100 times 1e300": lambda: 1e300 * _goe(100),
}


@pytest.mark.parametrize("make", SOLVER_CASES.values(), ids=SOLVER_CASES.keys())
def test_solver_matches_the_dense_decomposition_on_edge_cases(make, monkeypatch):
    w = make()
    kept = []  # one entry per vector _orthogonalize was given: was it kept?

    def orthogonalize(v, basis):
        out = orthogonalize.real(v, basis)
        kept.append(out is not None)
        return out

    orthogonalize.real = spectral._orthogonalize
    monkeypatch.setattr(spectral, "_orthogonalize", orthogonalize)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        emb = lc.top2_eigen(w)
    n = w.shape[0]
    # The basis size m: below n the solve stopped on the residual bound.
    assert sum(kept) < n or n <= 3
    vals, vecs = np.linalg.eigh(w)
    scale = float(np.abs(vals).max())
    assert np.abs(np.array(emb.eigenvalues) - vals[[-1, -2]]).max() <= 1e-12 * scale
    u = emb.u
    assert u.T @ u == pytest.approx(np.eye(2), abs=1e-10)
    for col, lam in zip(u.T, emb.eigenvalues):
        assert _norm(w @ col - lam * col) <= 1e-10 * max(1.0, abs(lam))
        # The column lies in the eigenspace of eigh's values equal to lam.
        near = vecs[:, np.abs(vals - lam) <= 1e-9 * scale]
        assert np.linalg.norm(near.T @ col) == pytest.approx(1.0, abs=1e-9)
    again = lc.top2_eigen(w)
    assert again.u.tobytes() == emb.u.tobytes() and again.eigenvalues == emb.eigenvalues


def test_solver_keeps_no_n_by_n_basis(make_dataset):
    n = 600
    sim = lc.scan(make_dataset(n, 0.02, 5).points, 0.1)[0]
    tracemalloc.start()
    try:
        lc.top2_eigen(sim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The float64 copy of the counts, plus a basis of a few dozen vectors.
    assert peak < 1.25 * n * n * 8


def test_solver_makes_no_n_by_n_temporary_on_raw_arrays(make_dataset):
    n = 600
    raw = np.asarray(lc.scan(make_dataset(n, 0.02, 5).points, 0.1)[0].counts, dtype=np.float64)
    tracemalloc.start()
    try:
        lc.top2_eigen(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The checks run by row blocks: the copy that is scaled, plus the basis.
    assert peak < 1.25 * n * n * 8


HELD_OUT_CELLS = [(500, 0.02, 0.1), (300, 0.01, 0.05), (500, 0.03, 0.15), (800, 0.02, 0.08),
                  (200, 1e-5, 2e-4)]


@pytest.mark.parametrize("n, sigma, t", HELD_OUT_CELLS)
def test_labels_match_the_dense_eigh_pipeline_on_held_out_seeds(make_dataset, n, sigma, t):
    for seed in (1000, 1001):
        res = lc.cluster(make_dataset(n, sigma, seed).points, t, seed)
        w = res.similarity
        vals, vecs = np.linalg.eigh(np.asarray(w.counts, dtype=np.float64))
        dense_u = _fix_signs(np.column_stack([vecs[:, -1], vecs[:, -2]]))
        labels, inertia, _, _ = kmeans2_rows(dense_u, seed)
        assert np.array_equal(res.labels, labels)
        assert res.embedding.eigenvalues == pytest.approx(vals[[-1, -2]], rel=1e-12)
        assert res.kmeans_inertia == pytest.approx(inertia, rel=1e-9)


def test_asymmetric_matrix_is_rejected():
    w = np.arange(9.0).reshape(3, 3)
    with pytest.raises(LineClusterError):
        lc.top2_eigen(w)
    with pytest.raises(SizeTooSmallError):
        lc.top2_eigen(np.zeros((1, 1)))


def test_kmeans_separates_two_well_separated_blobs(rng):
    sigma_blob = 0.05
    a = rng.normal(loc=(0.0, 0.0), scale=sigma_blob, size=(50, 2))
    b = rng.normal(loc=(10.0 * sigma_blob * 12, 0.0), scale=sigma_blob, size=(50, 2))
    rows = np.vstack([a, b])
    labels, inertia, centers, degenerate = kmeans2_rows(rows, 0)
    assert not degenerate
    # Nearest-true-center oracle: every point keeps its blob.
    assert len(set(labels[:50])) == 1 and len(set(labels[50:])) == 1
    assert labels[0] != labels[50]


def test_kmeans_reaches_the_exhaustive_optimum_on_small_inputs(rng):
    for trial in range(8):
        rows = rng.normal(size=(9, 2))
        _, inertia, _, _ = kmeans2_rows(rows, trial)
        assert inertia == pytest.approx(brute_force_kmeans2(rows), rel=1e-9, abs=1e-12)


def test_kmeans_label_one_goes_to_the_lexicographically_smaller_center():
    rows = np.array([[1.0, 0.0]] * 5 + [[-1.0, 0.0]] * 5)
    labels, _, centers, _ = kmeans2_rows(rows, 3)
    assert labels[5] == 1 and labels[0] == 2  # (-1, 0) < (1, 0)
    assert tuple(centers[0]) < tuple(centers[1])


def test_kmeans_flags_identical_rows_as_degenerate():
    labels, inertia, _, degenerate = kmeans2_rows(np.ones((6, 2)), 0)
    assert degenerate
    assert inertia == 0.0
    assert np.all(labels == 1)


def test_kmeans_is_deterministic_in_the_seed(rng):
    rows = rng.normal(size=(30, 2))
    out1 = kmeans2_rows(rows, 11)
    out2 = kmeans2_rows(rows, 11)
    assert np.array_equal(out1[0], out2[0]) and out1[1] == out2[1]


def _assert_same_as_sequential_restarts(rows, seed, traces=None):
    got = kmeans2_rows(rows, seed)
    want = reference_kmeans2(rows, seed, traces)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
    # Centers by value, not bytes: each center sum starts at +0.0 in
    # bincount, while a mean may start from its first entry, so a coordinate
    # whose entries are all -0.0 may differ in the sign of its zero.
    assert np.array_equal(got[2], want[2])
    assert got[3] == want[3]


@pytest.mark.parametrize("n", [150, 300])
def test_kmeans_matches_sequential_restarts_bit_for_bit_on_scan_embeddings(make_dataset, n):
    for data_seed in (0, 1):
        u = lc.top2_eigen(lc.scan(make_dataset(n, 0.01, data_seed).points, 0.05)[0]).u
        for seed in (0, 1):
            _assert_same_as_sequential_restarts(u, seed)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_kmeans_matches_sequential_restarts_bit_for_bit_on_random_rows(rng, scale):
    steps = set()
    for trial in range(15):
        rows = rng.normal(size=(int(rng.integers(3, 250)), 2)) * scale
        rows[: rows.shape[0] // 2, 0] += 2.0 * scale
        traces = []
        _assert_same_as_sequential_restarts(rows, trial, traces)
        steps.update(t["steps"] for t in traces)
    assert len(steps) > 1  # restarts leave the lockstep block at different steps


def test_kmeans_matches_sequential_restarts_bit_for_bit_on_edge_cases(rng):
    # Duplicated rows: few distinct points, each repeated.
    for trial in range(6):
        _assert_same_as_sequential_restarts(np.repeat(rng.normal(size=(3, 2)), 7, axis=0), trial)
    # Squared distances that underflow to 0 put every point at equal
    # distance from both centers, so cluster 1 is emptied and repaired.
    traces = []
    _assert_same_as_sequential_restarts(rng.normal(size=(30, 2)) * 1e-200, 0, traces)
    assert all(t["repairs"] > 0 for t in traces)
    # a^2 underflows to 0 but (2a)^2 does not: a start at (0, 0) and (a, 0)
    # puts (-a, 0) strictly nearer center 0, so the repair's choice of the
    # farthest point depends on which distance it reads.
    a = 1.5e-162
    traces = []
    for seed in range(4):
        _assert_same_as_sequential_restarts(np.array([[0.0, 0.0], [a, 0.0], [-a, 0.0]]), seed, traces)
    assert sum(t["repairs"] for t in traces) > 0
    # A grid has points at exactly equal distance from both centers, which
    # stay in cluster 0; its restarts also take different numbers of steps.
    grid = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], dtype=np.float64)
    traces = []
    _assert_same_as_sequential_restarts(grid, 0, traces)
    assert sum(t["ties"] for t in traces) > 0
    assert len({t["steps"] for t in traces}) > 1
    # n = 2.
    _assert_same_as_sequential_restarts(np.array([[0.0, 0.0], [1.0, 1.0]]), 0)
    # A cluster whose x entries are all -0.0 (the case the centers are
    # compared by value for).
    rows = np.array([[-0.0, 0.0], [-0.0, 1.0], [-0.0, 2.0], [5.0, 0.0], [5.0, 1.0], [5.0, 2.0]])
    _assert_same_as_sequential_restarts(rows, 0)


def test_ideal_two_block_embedding_recovers_the_split_exactly():
    n = 20
    z = np.array([1] * 10 + [2] * 10)
    u = np.column_stack(
        [np.full(n, 1.0 / math.sqrt(n)), np.where(z == 1, 1.0, -1.0) / math.sqrt(n)]
    )
    labels, inertia, centers, _ = kmeans2_rows(u, 0)
    assert inertia == pytest.approx(0.0, abs=1e-18)
    assert np.linalg.norm(centers[0] - centers[1]) == pytest.approx(2.0 / math.sqrt(n))
    rep = lc.report(labels, z)
    assert rep.ham_star == 0


def test_cluster_from_all_zero_similarity_is_degenerate(make_dataset):
    ds = make_dataset(12, 0.3, 1)
    for t in (1e-12, 0.0):
        res = lc.cluster(ds.points, t, 0)
        assert not res.similarity.counts.any()
        assert res.degenerate
        assert np.all(res.labels == 1)
        assert res.centers is None and res.kmeans_inertia == 0.0
        assert res.embedding.eigenvalues == (0.0, 0.0)


def test_full_pipeline_recovers_a_clean_cross(make_dataset):
    ds = make_dataset(120, 1e-4, 9)
    # The entry point is the scan, the top-two eigenvectors and 2-means on
    # the same W, and carries the scan's W and, with true labels, its tallies.
    for labels in (None, ds.labels):
        res = lc.cluster(ds.points, 5e-3, 9, labels)
        assert lc.report(res.labels, ds.labels).ham_star == 0
        assert res.embedding.u.shape == (120, 2)
        sim, stats = lc.scan(ds.points, 5e-3, labels)
        embedding = lc.top2_eigen(sim)
        ref_labels, inertia, centers, degenerate = kmeans2_rows(embedding.u, 9)
        assert res.similarity.counts.tobytes() == sim.counts.tobytes()
        assert res.similarity.counts.dtype == np.int32 and res.similarity.n == 120
        assert res.stats == stats and (res.stats is None) == (labels is None)
        assert res.embedding.u.tobytes() == embedding.u.tobytes()
        assert res.embedding.eigenvalues == embedding.eigenvalues
        assert np.array_equal(res.labels, ref_labels)
        assert res.kmeans_inertia == inertia and res.centers.tobytes() == centers.tobytes()
        assert res.degenerate is degenerate is False
