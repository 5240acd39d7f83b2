"""Basis, leverage-score, and sketching primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisycur.linalg import (
    SketchMatrix,
    apply_sketch_transpose,
    build_sketch,
    embedding_distortion,
    leverage_from_svd,
    orthonormal_basis,
    rank_from_singular_values,
    shrinked_row_scores,
)


def svd_projector(a):
    """Independent projector onto span(a), straight from numpy's SVD."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    tol = max(a.shape) * sv[0] * np.finfo(float).eps
    keep = u[:, sv > tol]
    return keep @ keep.T


class TestOrthonormalBasis:
    def test_single_column_normalized(self):
        u = orthonormal_basis(np.array([[3.0], [0.0], [4.0]]))
        assert u.shape == (3, 1)
        np.testing.assert_allclose(np.abs(u[:, 0]), [0.6, 0.0, 0.8],
                                   atol=1e-12)

    def test_identity_is_its_own_basis(self):
        u = orthonormal_basis(np.eye(3))
        assert u.shape == (3, 3)
        np.testing.assert_allclose(u @ u.T, np.eye(3), atol=1e-10)

    def test_duplicated_columns_collapse(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal((4, 1))
        m = np.hstack([col, col])
        u = orthonormal_basis(m)
        assert u.shape[1] == 1
        resid = m - u @ (u.T @ m)
        assert np.linalg.norm(resid) < 1e-8
        # cross-check the projector against the independent SVD route
        np.testing.assert_allclose(u @ u.T, svd_projector(m), atol=1e-10)
        # the same SVD's singular values, all of them, not only the kept
        basis, sv = orthonormal_basis(m, return_singular_values=True)
        np.testing.assert_array_equal(basis, u)
        np.testing.assert_allclose(sv, np.linalg.svd(m, compute_uv=False),
                                   atol=1e-12)
        assert sv.size == 2

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            orthonormal_basis(np.zeros((3, 2)))

    @given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_orthonormality_property(self, m, r, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, r))
        u = orthonormal_basis(a)
        gram = u.T @ u
        assert np.abs(gram - np.eye(u.shape[1])).max() < 1e-10


class TestShrinkedRowScores:
    def test_first_two_columns_of_identity(self):
        u = np.eye(4)[:, :2]
        prof = shrinked_row_scores(u)
        np.testing.assert_allclose(prof, [0.375, 0.375, 0.125, 0.125],
                                   atol=1e-15)

    def test_scalar_matrix(self):
        prof = shrinked_row_scores(np.array([[2.5]]))
        np.testing.assert_allclose(prof, [1.0])

    def test_matches_per_row_brute_force(self):
        rng = np.random.default_rng(3)
        u = orthonormal_basis(rng.standard_normal((6, 3)))
        prof = shrinked_row_scores(u)
        m = u.shape[0]
        fro_sq = np.sum(u * u)
        expected = np.array(
            [0.5 * np.dot(u[i], u[i]) / fro_sq + 0.5 / m for i in range(m)])
        np.testing.assert_allclose(prof, expected, rtol=1e-13)
        assert abs(prof.sum() - 1.0) < 1e-12
        assert (prof >= 1 / 12 - 1e-12).all()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            shrinked_row_scores(np.zeros((3, 2)))

    @given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_sum_one_and_floor(self, m, r, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((m, max(1, min(r, m))))
        prof = shrinked_row_scores(u)
        assert abs(prof.sum() - 1.0) < 1e-12
        assert (prof >= 0.5 / m - 1e-12).all()


def column_leverage(a):
    """leverage_from_svd on a's own thin SVD."""
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    return leverage_from_svd(sv, vt, a.shape)


class TestColumnLeverage:
    def test_identity(self):
        prof, coherence, beta = column_leverage(np.eye(5))
        np.testing.assert_allclose(prof, np.ones(5), atol=1e-12)
        assert coherence == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)

    def test_single_nonzero_column(self):
        a = np.zeros((4, 3))
        a[:, 1] = [1.0, 2.0, 0.0, -1.0]
        prof, coherence, beta = column_leverage(a)
        np.testing.assert_allclose(prof, [0.0, 1.0, 0.0], atol=1e-12)
        assert coherence == pytest.approx(1.0)
        assert beta == pytest.approx(3.0)  # 1 * n / r with n=3, r=1

    def test_scores_sum_to_rank(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((9, 4)) @ rng.standard_normal((4, 7))
        prof, coherence, beta = column_leverage(a)
        assert prof.sum() == pytest.approx(4.0, abs=1e-9)
        assert coherence == pytest.approx(prof.max())
        assert beta == pytest.approx(coherence * 7 / 4)


class TestBuildSketch:
    def test_uniform_scale(self):
        rng = np.random.default_rng(0)
        m, s = 6, 4
        sk = build_sketch(np.full(m, 1 / m), s, rng)
        np.testing.assert_allclose(sk.scales / np.sqrt(sk.counts),
                                   np.sqrt(m / s))

    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        sk = build_sketch(np.array([1.0, 0.0, 0.0, 0.0]), 3, rng)
        assert (sk.indices == 0).all()
        np.testing.assert_array_equal(sk.counts, [3])
        np.testing.assert_allclose(sk.scales / np.sqrt(sk.counts),
                                   1 / np.sqrt(3))

    def test_s_zero_rejected(self):
        with pytest.raises(ValueError):
            build_sketch(np.array([0.5, 0.5]), 0, np.random.default_rng(0))

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(123)
        u = orthonormal_basis(rng.standard_normal((5, 2)))
        p = shrinked_row_scores(u)
        s = 10_000
        sk = build_sketch(p, s, rng)
        counts = np.bincount(sk.indices, weights=sk.counts, minlength=5)
        sigma = np.sqrt(s * p * (1 - p))
        assert (np.abs(counts - s * p) <= 3 * sigma + 1e-9).all()


class TestApplySketch:
    def test_single_row_selection(self):
        sk = SketchMatrix(n_rows=3, indices=np.array([1]),
                          scales=np.array([1.0]))
        out = apply_sketch_transpose(sk, np.eye(3))
        np.testing.assert_array_equal(out, [[0.0, 1.0, 0.0]])

    def test_duplicate_rows(self):
        sk = SketchMatrix(n_rows=4, indices=np.array([2, 2]),
                          scales=np.array([1.5, 1.5]))
        a = np.arange(8.0).reshape(4, 2)
        out = apply_sketch_transpose(sk, a)
        np.testing.assert_array_equal(out[0], out[1])

    def test_matches_dense_materialization(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((8, 5))
        sk = build_sketch(np.full(8, 1 / 8), 6, rng)
        fast = apply_sketch_transpose(sk, a)
        dense = sk.dense().T @ a
        np.testing.assert_allclose(fast, dense, rtol=1e-12)

    def test_dimension_mismatch(self):
        sk = SketchMatrix(n_rows=3, indices=np.array([0]),
                          scales=np.array([1.0]))
        with pytest.raises(ValueError):
            apply_sketch_transpose(sk, np.eye(4))


def per_sample(sk):
    """The s-column form of a sketch: one column per sample."""
    return SketchMatrix(n_rows=sk.n_rows,
                        indices=np.repeat(sk.indices, sk.counts),
                        scales=np.repeat(sk.scales / np.sqrt(sk.counts),
                                         sk.counts))


class TestCollapse:
    """build_sketch keeps one column per sampled row, with its count."""

    def test_same_sketch_product_on_distinct_rows(self):
        rng = np.random.default_rng(12)
        sk = build_sketch(np.full(5, 1 / 5), 40, rng)
        full = per_sample(sk)
        assert sk.n_samples == full.n_cols == 40
        np.testing.assert_array_equal(sk.indices, np.unique(full.indices))
        np.testing.assert_allclose(sk.dense() @ sk.dense().T,
                                   full.dense() @ full.dense().T, rtol=1e-12)

    def test_distinct_rows_keep_their_scales(self):
        # three samples of 1000 rows land on three distinct rows here, so
        # each column is one sample at the per-sample scale
        sk = build_sketch(np.full(1000, 1e-3), 3, np.random.default_rng(0))
        np.testing.assert_array_equal(sk.counts, [1, 1, 1])
        assert (np.diff(sk.indices) > 0).all()
        np.testing.assert_allclose(sk.scales, np.sqrt(1000 / 3), rtol=1e-15)


class TestEmbeddingCheck:
    def test_full_identity_selection(self):
        m = 5
        sk = SketchMatrix(n_rows=m, indices=np.arange(m),
                          scales=np.ones(m))
        u = orthonormal_basis(np.random.default_rng(1).standard_normal((m, 3)))
        assert embedding_distortion(sk, u) <= 1e-6

    def test_rank_deficient_sketch_fails(self):
        rng = np.random.default_rng(2)
        u = orthonormal_basis(rng.standard_normal((6, 2)))
        sk = SketchMatrix(n_rows=6, indices=np.array([0]),
                          scales=np.array([1.0]))
        assert embedding_distortion(sk, u) >= 1.0

    def test_monte_carlo_success_rate(self):
        # at the guarantee sketch size for eps=0.5, delta=0.1 the failure
        # rate is at most delta; 100 trials should succeed >= 90 times
        from noisycur.theory import embedding_sketch_size

        rng = np.random.default_rng(42)
        m, r = 40, 3
        u = orthonormal_basis(rng.standard_normal((m, r)))
        prof = shrinked_row_scores(u)
        s = embedding_sketch_size(r, eps=0.5, delta=0.1)
        hits = sum(
            embedding_distortion(build_sketch(prof, s, rng), u) <= 0.5
            for _ in range(100))
        assert hits >= 90


class TestStatisticalIdentity:
    def test_mean_s_st_is_identity(self):
        rng = np.random.default_rng(2024)
        m, s, n_draws = 6, 4, 100_000
        p = shrinked_row_scores(
            orthonormal_basis(rng.standard_normal((m, 2))))
        acc = np.zeros((m, m))
        diag = np.zeros(m)
        for _ in range(n_draws):
            idx = rng.choice(m, size=s, p=p)
            np.add.at(diag, idx, 1.0 / (s * p[idx]))
        acc[np.arange(m), np.arange(m)] = diag
        mean = acc / n_draws
        assert np.abs(mean - np.eye(m)).max() < 0.05

    def test_mean_via_build_sketch_small(self):
        rng = np.random.default_rng(7)
        m, s = 4, 2
        p = np.full(m, 1 / m)
        acc = np.zeros((m, m))
        n_draws = 20_000
        for _ in range(n_draws):
            sk = build_sketch(p, s, rng)
            d = sk.dense()
            acc += d @ d.T
        assert np.abs(acc / n_draws - np.eye(m)).max() < 0.05


class TestSpectralDiagnostic:
    def test_scale_bound_for_shrinked_profiles(self):
        # every sample of S has squared scale <= 2m/s because shrinked
        # scores are floored at 1/(2m)
        rng = np.random.default_rng(8)
        u = orthonormal_basis(rng.standard_normal((9, 3)))
        prof = shrinked_row_scores(u)
        sk = build_sketch(prof, 6, rng)
        assert (sk.scales**2 / sk.counts <= 2 * 9 / 6 + 1e-12).all()


class TestNumericalRank:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_rank_of_product(self, r, extra, seed):
        rng = np.random.default_rng(seed)
        m, n = r + extra, r + 2
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        sv = np.linalg.svd(a, compute_uv=False)
        assert rank_from_singular_values(sv, a.shape) == min(r, m, n)
