"""Ridge regression core, full pipeline runs, and lambda cross-validation."""

import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisycur.completion import (
    NoisyCurConfig,
    NoisyCurDraw,
    _fold_counts,
    _fold_sums,
    cross_validate_lambda,
    draw_noisycur_samples,
    guarantee_sample_sizes,
    noisycur,
    ridge_solve,
    solve_from_draw,
)
from noisycur.datasets import synthetic_lowrank
from noisycur.linalg import (
    SketchMatrix,
    apply_sketch_transpose,
    embedding_distortion,
    orthonormal_basis,
)
from noisycur.observe import sample_rows_noisy


def ridge_by_gradient_descent(b, y, lam, tol=1e-10, max_iters=200_000):
    """Oracle: minimize ||BX - Y||_F^2 + lam ||X||_F^2 by plain GD.

    Step size 1/(2 (sigma_max(B)^2 + lam)) guarantees descent; iterate until
    the gradient's max entry drops below tol.
    """
    b = np.asarray(b, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x = np.zeros((b.shape[1], y.shape[1]))
    lip = 2 * (np.linalg.norm(b, 2) ** 2 + lam)
    step = 1.0 / lip
    for _ in range(max_iters):
        grad = 2 * (b.T @ (b @ x - y)) + 2 * lam * x
        if np.abs(grad).max() < tol:
            return x
        x = x - step * grad
    raise RuntimeError("gradient descent did not converge")


class TestRidgeSolve:
    def test_scalar(self):
        x = ridge_solve(np.array([[1.0]]), np.array([[2.0]]), 1.0)
        assert x[0, 0] == pytest.approx(1.0)

    def test_lambda_zero_square_invertible(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        y = rng.standard_normal((4, 2))
        x = ridge_solve(b, y, 0.0)
        np.testing.assert_allclose(x, np.linalg.solve(b, y), rtol=1e-10)

    def test_matches_gradient_descent(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 3))
        x = ridge_solve(b, y, 0.3)
        x_gd = ridge_by_gradient_descent(b, y, 0.3)
        assert np.abs(x - x_gd).max() < 1e-8

    def test_gradient_optimality(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((15, 6))
        y = rng.standard_normal((15, 4))
        for lam in (1e-6, 0.1, 10.0):
            x = ridge_solve(b, y, lam)
            grad = 2 * (b.T @ (b @ x - y)) + 2 * lam * x
            scale = np.linalg.norm(b) * np.linalg.norm(y) + 1
            assert np.abs(grad).max() < 1e-8 * scale

    def test_column_separable(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 3))
        batch = ridge_solve(b, y, 0.5)
        per_col = np.column_stack(
            [ridge_solve(b, y[:, [j]], 0.5)[:, 0] for j in range(3)])
        assert np.abs(batch - per_col).max() < 1e-12

    def test_rank_deficient_zero_lambda_warns(self):
        b = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        y = np.array([[1.0], [2.0], [0.0]])
        with pytest.warns(RuntimeWarning):
            x = ridge_solve(b, y, 0.0)
        # minimum-norm solution of a consistent system
        np.testing.assert_allclose(b @ x, y, atol=1e-10)
        assert np.abs(x - np.linalg.pinv(b) @ y).max() < 1e-10

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((9, 4))
        y = rng.standard_normal((9, 2))
        lams = [1e-4, 1e-2, 1.0, 1e2]
        norms = [np.linalg.norm(ridge_solve(b, y, lam)) for lam in lams]
        assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))

    def test_bad_lambda(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.eye(2), -1.0)
        with pytest.raises(ValueError):
            ridge_solve(np.eye(2), np.eye(2), math.inf)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ridge_solve(np.eye(3), np.eye(4), 1.0)

    @given(st.integers(2, 10), st.integers(1, 5), st.integers(1, 4),
           st.floats(1e-6, 1e3), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_normal_equations_residual(self, s, d, n, lam, seed):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((s, d))
        y = rng.standard_normal((s, n))
        x = ridge_solve(b, y, lam)
        lhs = (b.T @ b + lam * np.eye(d)) @ x
        rhs = b.T @ y
        assert np.abs(lhs - rhs).max() < 1e-8 * (1 + np.abs(rhs).max())


class TestNoisyCurConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoisyCurConfig(n_columns=0, n_rows=5, sigma_c=1, sigma_e=0,
                           ridge_lambda=1.0)
        with pytest.raises(ValueError):
            NoisyCurConfig(n_columns=2, n_rows=0, sigma_c=1, sigma_e=0,
                           ridge_lambda=1.0)
        with pytest.raises(ValueError):
            NoisyCurConfig(n_columns=2, n_rows=5, sigma_c=-1, sigma_e=0,
                           ridge_lambda=1.0)
        with pytest.raises(ValueError):
            NoisyCurConfig(n_columns=2, n_rows=5, sigma_c=1, sigma_e=0,
                           ridge_lambda=math.nan)


class TestNoisyCurPipeline:
    def test_noiseless_exact_recovery(self):
        a = synthetic_lowrank(40, 30, 3, rng=np.random.default_rng(0))
        cfg = NoisyCurConfig(n_columns=10, n_rows=20, sigma_c=0.0,
                             sigma_e=0.0, ridge_lambda=1e-12)
        rec = noisycur(a, cfg, np.random.default_rng(17))
        rel = np.linalg.norm(a - rec.estimate) / np.linalg.norm(a)
        assert rel < 1e-6

    def test_zero_matrix_zero_noise(self):
        a = np.zeros((12, 9))
        cfg = NoisyCurConfig(n_columns=3, n_rows=6, sigma_c=0.0,
                             sigma_e=0.0, ridge_lambda=1e-6)
        rec = noisycur(a, cfg, np.random.default_rng(2))
        assert np.abs(rec.estimate).max() == 0.0

    def test_estimate_product_identity(self):
        a = synthetic_lowrank(15, 12, 2, rng=np.random.default_rng(4))
        cfg = NoisyCurConfig(n_columns=4, n_rows=8, sigma_c=0.2,
                             sigma_e=0.05, ridge_lambda=0.5)
        rec = noisycur(a, cfg, np.random.default_rng(9))
        prod = rec.c_tilde @ rec.coefficients
        rel = np.linalg.norm(rec.estimate - prod) / max(
            np.linalg.norm(rec.estimate), 1e-30)
        assert rel < 1e-10

    def test_bit_reproducible(self):
        a = synthetic_lowrank(20, 16, 3, rng=np.random.default_rng(1))
        cfg = NoisyCurConfig(n_columns=6, n_rows=10, sigma_c=0.3,
                             sigma_e=0.1, ridge_lambda=2.0)
        r1 = noisycur(a, cfg, np.random.default_rng(123))
        r2 = noisycur(a, cfg, np.random.default_rng(123))
        np.testing.assert_array_equal(r1.estimate, r2.estimate)
        np.testing.assert_array_equal(r1.column_indices, r2.column_indices)

    def test_identity_sketch_recovers_pinv_coefficients(self):
        # with every row kept at unit scale and lambda -> 0 the sketched
        # problem is the unsketched one, so X must match C^+ A
        rng = np.random.default_rng(21)
        a = synthetic_lowrank(10, 8, 4, rng=rng)
        c_tilde = a[:, :5].copy()
        x = ridge_solve(c_tilde, a, 1e-14)
        x_pinv = np.linalg.pinv(c_tilde) @ a
        assert np.abs(x - x_pinv).max() < 1e-8

    def test_diagnostics_present(self):
        a = synthetic_lowrank(18, 14, 2, rng=np.random.default_rng(6))
        cfg = NoisyCurConfig(n_columns=5, n_rows=9, sigma_c=0.1,
                             sigma_e=0.05, ridge_lambda=1.0)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(3))
        rec = solve_from_draw(draw, cfg.ridge_lambda)
        for key in ("sketch_distortion", "sigma_d_c_tilde",
                    "sigma_d_sketched", "basis_rank", "ridge_lambda"):
            assert key in rec.diagnostics
        assert rec.diagnostics["ridge_lambda"] == 1.0
        assert rec.diagnostics["sigma_d_sketched"] >= 0.0


def per_sample(draw):
    """Reference: the s-row per-sample design and reads of a draw, built by
    repeating each sampled row over its count.  Each sample of row u reads
    t_u / sqrt(k_u), so the reads of a row sum to sqrt(k_u) t_u, as the
    per-sample reads do."""
    sketch = draw.sketch
    k = sketch.counts
    full = SketchMatrix(n_rows=sketch.n_rows,
                        indices=np.repeat(sketch.indices, k),
                        scales=np.repeat(sketch.scales / np.sqrt(k), k))
    reads = np.repeat(draw.row_targets / np.sqrt(k)[:, None], k, axis=0)
    return full, apply_sketch_transpose(full, draw.c_tilde), reads


def per_sample_solve(draw, lam):
    """Reference: ridge_solve on the s x d per-sample design and reads."""
    full, design, reads = per_sample(draw)
    x = ridge_solve(design, reads, lam)
    sv = np.linalg.svd(design, compute_uv=False)
    d = design.shape[1]
    return {
        "estimate": draw.c_tilde @ x,
        "coefficients": x,
        "sigma_d_sketched": sv[d - 1] if d <= sv.size else 0.0,
        "sketch_distortion": (
            embedding_distortion(full, orthonormal_basis(draw.c_tilde))
            if np.any(draw.c_tilde) else 0.0),
    }


def with_sketch(draw, a, sketch, rng):
    """draw with its sketch and row reads replaced, taken as
    draw_noisycur_samples takes them."""
    return dataclasses.replace(
        draw, sketch=sketch,
        row_targets=sample_rows_noisy(a, sketch, draw.sigma_e, rng),
        noise_rng=rng)


class TestCollapsedSolve:
    """solve_from_draw on the sampled rows against the s-row path."""

    def check(self, draw, lam, sigma_d_is_zero=False):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = per_sample_solve(draw, lam)
            rec = solve_from_draw(draw, lam)
        if lam == 0.0 and draw.basis_rank < draw.c_tilde.shape[1]:
            # both solves see the rank deficiency and say so
            assert sum("rank-deficient" in str(w.message)
                       for w in caught) == 2
        for key in ("estimate", "coefficients"):
            diff = np.linalg.norm(getattr(rec, key) - ref[key])
            assert diff <= 1e-10 * np.linalg.norm(ref[key]), key
        np.testing.assert_allclose(rec.diagnostics["sketch_distortion"],
                                   ref["sketch_distortion"], rtol=1e-10)
        if sigma_d_is_zero:
            # the smallest singular value is zero up to rounding on both
            # paths
            scale = np.linalg.norm(
                apply_sketch_transpose(draw.sketch, draw.c_tilde), 2)
            assert rec.diagnostics["sigma_d_sketched"] <= 1e-12 * scale
            assert ref["sigma_d_sketched"] <= 1e-12 * scale
        else:
            np.testing.assert_allclose(rec.diagnostics["sigma_d_sketched"],
                                       ref["sigma_d_sketched"], rtol=1e-10)
        return rec

    def test_duplicate_heavy_sketch(self):
        a = synthetic_lowrank(12, 10, 3, rng=np.random.default_rng(5))
        cfg = NoisyCurConfig(n_columns=5, n_rows=400, sigma_c=0.3,
                             sigma_e=0.1, ridge_lambda=0.5)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(8))
        assert draw.sketch.n_cols <= 12 < draw.sketch.n_samples == 400
        self.check(draw, 0.5)
        self.check(draw, 0.0)

    def test_fewer_samples_than_columns(self):
        # s <= d: the design is wide and the lightest ridges are badly
        # conditioned, where a normal-equations solve loses digits
        a = synthetic_lowrank(30, 20, 4, rng=np.random.default_rng(3))
        cfg = NoisyCurConfig(n_columns=12, n_rows=9, sigma_c=0.3,
                             sigma_e=0.1, ridge_lambda=1e-6)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(5))
        assert draw.sketch.n_samples <= draw.c_tilde.shape[1]
        for lam in (1e-6, 1.0):
            self.check(draw, lam, sigma_d_is_zero=True)

    def test_more_columns_than_rows(self):
        # d > m, the guarantee's shape: more noisy columns than rows
        a = synthetic_lowrank(12, 10, 3, rng=np.random.default_rng(4))
        cfg = NoisyCurConfig(n_columns=20, n_rows=300, sigma_c=0.3,
                             sigma_e=0.1, ridge_lambda=1.0)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(6))
        assert draw.c_tilde.shape[1] > a.shape[0]
        for lam in (1.0, 0.0):
            self.check(draw, lam, sigma_d_is_zero=True)

    def test_lambda_zero_rank_deficient_design(self):
        # noiseless columns of a rank-2 matrix: 5 columns spanning 2
        a = synthetic_lowrank(12, 10, 2, rng=np.random.default_rng(6))
        cfg = NoisyCurConfig(n_columns=5, n_rows=60, sigma_c=0.0,
                             sigma_e=0.05, ridge_lambda=0.0)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(2))
        assert draw.basis_rank == 2
        self.check(draw, 0.0, sigma_d_is_zero=True)

    def test_all_zero_columns(self):
        cfg = NoisyCurConfig(n_columns=3, n_rows=30, sigma_c=0.0,
                             sigma_e=0.1, ridge_lambda=1.0)
        draw = draw_noisycur_samples(np.zeros((8, 6)), cfg,
                                     np.random.default_rng(4))
        assert draw.basis_rank == 0
        rec = self.check(draw, 1.0, sigma_d_is_zero=True)
        assert rec.diagnostics["sketch_distortion"] == 0.0
        assert rec.diagnostics["sigma_d_c_tilde"] == 0.0
        assert not rec.estimate.any()
        self.check(draw, 0.0, sigma_d_is_zero=True)

    def test_fewer_distinct_rows_than_basis_rank(self):
        # ten samples (more than the rank) on only five distinct rows
        a = synthetic_lowrank(12, 10, 3, rng=np.random.default_rng(7))
        cfg = NoisyCurConfig(n_columns=8, n_rows=10, sigma_c=0.3,
                             sigma_e=0.1, ridge_lambda=0.2)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(1))
        assert draw.basis_rank == 8
        sketch = SketchMatrix(n_rows=12, indices=np.arange(5),
                              scales=np.sqrt(2) * np.linspace(0.8, 1.7, 5),
                              counts=np.full(5, 2))
        draw = with_sketch(draw, a, sketch, np.random.default_rng(3))
        rec = self.check(draw, 0.2, sigma_d_is_zero=True)
        assert rec.diagnostics["sigma_d_sketched"] == 0.0
        assert rec.diagnostics["sketch_distortion"] >= 1.0

    def test_design_is_built_on_demand(self):
        # the draw keeps no per-sample array: its sketch and targets have
        # one row per sampled row, however many samples they stand for
        fields = {f.name for f in dataclasses.fields(NoisyCurDraw)}
        assert not {"design", "sample_targets", "collapsed",
                    "inverse"} & fields
        a = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(9))
        cfg = NoisyCurConfig(n_columns=3, n_rows=700, sigma_c=0.2,
                             sigma_e=0.1, ridge_lambda=1.0)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(0))
        assert not hasattr(draw, "design")
        assert draw.sketch.n_samples == 700
        assert draw.sketch.n_cols <= 10
        assert draw.row_targets.shape == (draw.sketch.n_cols, 8)

    def test_reading_sample_targets_leaves_the_solve_alone(self):
        # cross-validation reads the fold sums of the per-sample reads from
        # the row-noise stream; the solve must not see that
        a = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(9))
        cfg = NoisyCurConfig(n_columns=3, n_rows=30, sigma_c=0.2,
                             sigma_e=0.1, ridge_lambda=1.0)
        read, unread = (draw_noisycur_samples(a, cfg, np.random.default_rng(4))
                        for _ in range(2))
        read.cross_validate(np.logspace(-3, 3, 7), 5)
        np.testing.assert_array_equal(solve_from_draw(read, 1.0).estimate,
                                      solve_from_draw(unread, 1.0).estimate)

    def test_cost_does_not_depend_on_s(self):
        # two million samples on 80 rows: the draw, the cross-validation and
        # the solve allocate nothing of s rows (the sample index and scale
        # vectors alone would take 32 MB)
        a = synthetic_lowrank(80, 60, 4, rng=np.random.default_rng(1))
        cfg = NoisyCurConfig(n_columns=10, n_rows=2_000_000, sigma_c=0.2,
                             sigma_e=0.1, ridge_lambda=1.0)
        tracemalloc.start()
        try:
            draw = draw_noisycur_samples(a, cfg, np.random.default_rng(2))
            best, _, _ = draw.cross_validate(np.logspace(-3, 3, 7), 5)
            solve_from_draw(draw, best)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert draw.sketch.n_samples == 2_000_000


class TestPerSampleTargets:
    """The fold sums of the per-sample reads, drawn from the per-row reads
    by Gaussian conditioning."""

    def draw(self, sigma_e, seed=8):
        a = synthetic_lowrank(12, 10, 3, rng=np.random.default_rng(5))
        cfg = NoisyCurConfig(n_columns=5, n_rows=400, sigma_c=0.3,
                             sigma_e=sigma_e, ridge_lambda=0.5)
        return a, draw_noisycur_samples(a, cfg, np.random.default_rng(seed))

    @staticmethod
    def fold_sums(draw):
        counts = draw.sketch.counts
        fold_counts = _fold_counts(counts, 5, np.random.default_rng(0))
        return fold_counts, _fold_sums(draw.row_targets, counts, fold_counts,
                                       draw.sigma_e, np.random.default_rng(1))

    def test_collapse_returns_row_targets(self):
        _, draw = self.draw(0.1)
        counts = draw.sketch.counts
        fold_counts, sums = self.fold_sums(draw)
        np.testing.assert_array_equal(fold_counts.sum(axis=1), counts)
        np.testing.assert_array_equal(fold_counts.sum(axis=0), [80] * 5)
        totals = np.sqrt(counts)[:, None] * draw.row_targets
        np.testing.assert_allclose(sums.sum(axis=1), totals, rtol=0,
                                   atol=1e-12 * np.abs(totals).max())

    def test_noiseless_reads_are_sketched_rows(self):
        a, draw = self.draw(0.0)
        fold_counts, sums = self.fold_sums(draw)
        _, _, reads = per_sample(draw)
        rows = np.cumsum(draw.sketch.counts) - 1
        np.testing.assert_allclose(
            sums, fold_counts[:, :, None] * reads[rows][:, None, :],
            rtol=1e-12, atol=0)
        full, _, _ = per_sample(draw)
        np.testing.assert_allclose(reads, apply_sketch_transpose(full, a),
                                   rtol=1e-12, atol=0)

    def test_residuals_are_independent_reads(self):
        # rows sampled 3, 5 and 1 times, cut into three folds.  Given the
        # rows' reads, each fold sum of K of a row's k reads must vary as
        # sigma_e^2 K (1 - K/k), over 20000 i.i.d. columns, and fold sums of
        # different rows must be uncorrelated.
        counts = np.array([3, 5, 1])
        fold_counts = np.array([[1, 2, 0], [2, 1, 2], [0, 0, 1]])
        targets = np.random.default_rng(2).standard_normal((3, 20_000))
        sums = _fold_sums(targets, counts, fold_counts, 0.3,
                          np.random.default_rng(11))
        share = fold_counts / counts[:, None]
        residual = sums - (share * np.sqrt(counts)[:, None])[:, :, None] \
            * targets[:, None, :]
        expected = 0.09 * fold_counts * (1 - share)
        for u, f in zip(*np.nonzero(expected)):
            np.testing.assert_allclose(residual[u, f].var(), expected[u, f],
                                       rtol=0.05)
        assert not residual[2].any()
        corr = np.corrcoef(residual[0, 0], residual[1, 0])[0, 1]
        assert abs(corr) < 0.03


class TestGuaranteeSampleSizes:
    def test_incoherence_branch_only(self):
        d_min, s_min = guarantee_sample_sizes(
            rank=1, beta=1.0, kappa2=1.0, dense_c=1.0, sigma_c=0.0,
            eps=0.9, delta=0.5)
        # (6 + 2*0.9) / (3*0.81) * log 2 = 2.2246 -> 3
        assert d_min == 3
        lead = (6 + 2 * 0.9) / (3 * 0.9**2)
        assert s_min == math.ceil(lead * 2 * 3 * math.log(3 / 0.5))

    def test_sigma_zero_kills_noise_branch(self):
        loose = guarantee_sample_sizes(2, 1.5, 5.0, 0.1, 0.0, 0.5, 0.1)
        tight = guarantee_sample_sizes(2, 1.5, 1.0, 10.0, 0.0, 0.5, 0.1)
        assert loose[0] == tight[0]  # kappa2/dense_c only enter via noise branch

    def test_monotone_in_eps(self):
        # incoherence branch (6 + 2 eps) / (3 eps^2) decreases on (0, 1);
        # scan with sigma_c = 0 so the U-shaped noise branch stays inactive
        values = [guarantee_sample_sizes(3, 2.0, 2.0, 1.0, 0.0, eps, 0.1)[0]
                  for eps in np.linspace(0.05, 0.95, 19)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            guarantee_sample_sizes(1, 1.0, 1.0, 1.0, 0.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            guarantee_sample_sizes(1, 1.0, 1.0, 1.0, 0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            guarantee_sample_sizes(0, 1.0, 1.0, 1.0, 0.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            guarantee_sample_sizes(1, 1.0, 0.5, 1.0, 0.0, 0.5, 0.1)


class TestCrossValidateLambda:
    def test_singleton_grid(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((10, 3))
        y = rng.standard_normal((10, 2))
        best, curve, folds = cross_validate_lambda(b, y, [0.37], rng)
        assert best == 0.37
        assert curve.shape == (1,)
        assert folds == 0  # one value: nothing to split for

    def test_pure_noise_prefers_largest(self):
        # No signal, so the best predictor is 0 and the curve is flat where
        # X is fully shrunk: which top grid point wins is noise (the last
        # one at about half of all seeds), so every seed must pick from the
        # top half.  On average the fully shrunk end beats the lightest
        # ridge, whose held-out error exceeds it by about 4/19 (4 columns
        # fitted on 24 training rows).
        grid = np.logspace(-4, 6, 15)
        picks, curves = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            b = rng.standard_normal((30, 4))
            y = rng.standard_normal((30, 5))
            best, curve, _ = cross_validate_lambda(b, y, grid, rng)
            picks.append(best)
            curves.append(curve)
        assert min(picks) >= grid[7]
        mean = np.mean(curves, axis=0)
        assert mean[-1] < 0.9 * mean[0]

    def test_noiseless_prefers_smallest(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((40, 4))
        x_true = rng.standard_normal((4, 3))
        y = b @ x_true
        grid = np.logspace(-8, 2, 11)
        best, _, _ = cross_validate_lambda(b, y, grid, rng)
        assert best <= grid[1]  # within one grid step of the minimum

    def test_tie_breaks_to_larger(self):
        # all-zero targets: every lambda achieves exactly zero error
        rng = np.random.default_rng(2)
        b = rng.standard_normal((12, 3))
        y = np.zeros((12, 2))
        grid = [0.1, 1.0, 10.0]
        best, curve, _ = cross_validate_lambda(b, y, grid, rng)
        assert best == 10.0
        assert np.allclose(curve, 0.0)

    def test_too_few_rows(self):
        # three samples split three ways, not five; one cannot be split,
        # so the lightest ridge is taken
        rng = np.random.default_rng(0)
        grid = [1.0, 0.5]
        _, curve, folds = cross_validate_lambda(
            np.ones((3, 1)), np.ones((3, 1)), grid, rng, n_folds=5)
        assert folds == 3 and np.isfinite(curve).all()
        best, curve, folds = cross_validate_lambda(
            np.ones((1, 1)), np.ones((1, 1)), grid, rng, n_folds=5)
        assert (best, folds) == (0.5, 0) and np.isnan(curve).all()

    def test_no_extra_observations_consumed(self):
        # CV must only reorder/partition the rows it was given; with the same
        # generator state the choice is a pure function of (B, Y, grid)
        rng_a = np.random.default_rng(33)
        rng_b = np.random.default_rng(33)
        b = np.random.default_rng(1).standard_normal((20, 3))
        y = np.random.default_rng(2).standard_normal((20, 2))
        grid = np.logspace(-3, 3, 7)
        best_a, curve_a, _ = cross_validate_lambda(b, y, grid, rng_a)
        best_b, curve_b, _ = cross_validate_lambda(b, y, grid, rng_b)
        assert best_a == best_b
        np.testing.assert_array_equal(curve_a, curve_b)

    def test_fold_counts_match_per_sample_folds(self):
        # sigma_e = 0 makes the fold sums exact, so the curve must equal
        # the per-sample curve over folds with the drawn fold counts
        a = synthetic_lowrank(12, 10, 3, rng=np.random.default_rng(5))
        cfg = NoisyCurConfig(n_columns=5, n_rows=400, sigma_c=0.3,
                             sigma_e=0.0, ridge_lambda=1.0)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(8))
        grid = np.logspace(-6, 3, 10)
        rng = copy.deepcopy(draw.noise_rng)
        _, curve, folds = draw.cross_validate(grid, 5)
        fold_counts = _fold_counts(draw.sketch.counts, folds, rng)
        _, design, reads = per_sample(draw)
        fold_of = np.concatenate([np.repeat(np.arange(folds), row)
                                  for row in fold_counts])
        ref = np.zeros(grid.size)
        for f in range(folds):
            held = fold_of == f
            for g, lam in enumerate(grid):
                x = ridge_solve(design[~held], reads[~held], lam)
                ref[g] += np.sum((reads[held] - design[held] @ x) ** 2)
        np.testing.assert_allclose(curve, ref, rtol=1e-10)

    def test_curve_keeps_the_per_sample_law(self):
        # with a zero design every fit predicts 0, so the held-out error is
        # the sum of all s * n squared reads, of mean s n sigma_e^2 for a
        # zero matrix; the fold sums carry only 12 * 5 cells of it, so the
        # scatter constant must carry the rest
        counts = np.random.default_rng(0).multinomial(400, np.full(12, 1 / 12))
        rng = np.random.default_rng(4)
        grid = [0.1, 1.0]
        curves = [
            cross_validate_lambda(
                np.zeros((12, 3)),
                0.5 * rng.standard_normal((12, 10)), grid, rng,
                counts=counts, sigma_e=0.5)[1]
            for _ in range(200)]
        assert np.ptp(curves, axis=1).max() == 0.0
        np.testing.assert_allclose(np.mean(curves), 400 * 10 * 0.25,
                                   rtol=0.05)
