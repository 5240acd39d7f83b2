"""Ridge regression core, full pipeline runs, and lambda cross-validation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisycur.completion import (
    NoisyCurConfig,
    NoisyCurDraw,
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


def per_sample_solve(draw, lam):
    """Reference: the s x d gathered design and the per-sample targets,
    then ridge_solve on them."""
    design = apply_sketch_transpose(draw.sketch, draw.c_tilde)
    x = ridge_solve(design, draw.sample_targets, lam)
    sv = np.linalg.svd(design, compute_uv=False)
    d = design.shape[1]
    return {
        "estimate": draw.c_tilde @ x,
        "coefficients": x,
        "sigma_d_sketched": sv[d - 1] if d <= sv.size else 0.0,
        "sketch_distortion": (
            embedding_distortion(draw.sketch, orthonormal_basis(draw.c_tilde))
            if np.any(draw.c_tilde) else 0.0),
    }


def with_sketch(draw, a, sketch, rng):
    """draw with its sketch and row reads replaced, taken as
    draw_noisycur_samples takes them."""
    collapsed, inverse = sketch.collapse()
    return dataclasses.replace(
        draw, sketch=sketch, collapsed=collapsed, inverse=inverse,
        row_targets=sample_rows_noisy(a, collapsed, draw.sigma_e, rng),
        noise_rng=rng)


class TestCollapsedSolve:
    """solve_from_draw on the distinct sampled rows against the s-row path."""

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
            scale = np.linalg.norm(draw.design, 2)
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
        assert draw.collapsed.n_cols <= 12 < draw.sketch.n_cols
        self.check(draw, 0.5)
        self.check(draw, 0.0)

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
        rows = np.repeat(np.arange(5), 2)
        sketch = SketchMatrix(n_rows=12, indices=rows,
                              scales=np.linspace(0.8, 1.7, 10))
        draw = with_sketch(draw, a, sketch, np.random.default_rng(3))
        rec = self.check(draw, 0.2, sigma_d_is_zero=True)
        assert rec.diagnostics["sigma_d_sketched"] == 0.0
        assert rec.diagnostics["sketch_distortion"] >= 1.0

    def test_design_is_built_on_demand(self):
        fields = {f.name for f in dataclasses.fields(NoisyCurDraw)}
        assert not {"design", "sample_targets"} & fields
        a = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(9))
        cfg = NoisyCurConfig(n_columns=3, n_rows=7, sigma_c=0.2,
                             sigma_e=0.1, ridge_lambda=1.0)
        draw = draw_noisycur_samples(a, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(
            draw.design, apply_sketch_transpose(draw.sketch, draw.c_tilde))
        assert draw.design.shape == (7, 3)
        assert draw.sample_targets.shape == (7, 8)
        assert draw.sample_targets is draw.sample_targets

    def test_reading_sample_targets_leaves_the_solve_alone(self):
        a = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(9))
        cfg = NoisyCurConfig(n_columns=3, n_rows=30, sigma_c=0.2,
                             sigma_e=0.1, ridge_lambda=1.0)
        read, unread = (draw_noisycur_samples(a, cfg, np.random.default_rng(4))
                        for _ in range(2))
        read.sample_targets
        np.testing.assert_array_equal(solve_from_draw(read, 1.0).estimate,
                                      solve_from_draw(unread, 1.0).estimate)


class TestPerSampleTargets:
    """The per-sample reads drawn from the per-row ones by conditioning."""

    @staticmethod
    def weights(sketch):
        """c_j = scale_j / sqrt(w_u), straight from the sketch's scales."""
        w = np.zeros(sketch.n_rows)
        for i, scale in zip(sketch.indices, sketch.scales):
            w[i] += scale * scale
        return sketch.scales / np.sqrt(w[sketch.indices])

    def draw(self, sigma_e, n_cols=10, seed=8):
        a = synthetic_lowrank(12, n_cols, 3, rng=np.random.default_rng(5))
        cfg = NoisyCurConfig(n_columns=5, n_rows=400, sigma_c=0.3,
                             sigma_e=sigma_e, ridge_lambda=0.5)
        return a, draw_noisycur_samples(a, cfg, np.random.default_rng(seed))

    def test_collapse_returns_row_targets(self):
        _, draw = self.draw(0.1)
        c = self.weights(draw.sketch)
        collapsed = np.zeros_like(draw.row_targets)
        for j, u in enumerate(draw.inverse):
            collapsed[u] += c[j] * draw.sample_targets[j]
        np.testing.assert_allclose(collapsed, draw.row_targets, rtol=0,
                                   atol=1e-12)

    def test_noiseless_reads_are_sketched_rows(self):
        a, draw = self.draw(0.0)
        np.testing.assert_allclose(draw.sample_targets,
                                   apply_sketch_transpose(draw.sketch, a),
                                   rtol=1e-12, atol=0)

    def test_residuals_are_independent_reads(self):
        # row 0 sampled three times and row 1 twice, with unequal scales;
        # row 2 once.  Each residual entry must be N(0, sigma_e^2), and two
        # samples of one row uncorrelated, over 20000 i.i.d. columns.
        a, draw = self.draw(0.3, n_cols=20_000)
        sketch = SketchMatrix(n_rows=12, indices=np.array([0, 0, 0, 1, 1, 2]),
                              scales=np.array([0.5, 1.0, 2.0, 0.7, 1.3, 1.0]))
        draw = with_sketch(draw, a, sketch, np.random.default_rng(11))
        residual = draw.sample_targets - apply_sketch_transpose(sketch, a)
        np.testing.assert_allclose(residual.var(axis=1), 0.09, rtol=0.05)
        corr = np.corrcoef(residual)
        for j, k in ((0, 1), (0, 2), (1, 2), (3, 4)):
            assert abs(corr[j, k]) < 0.03, (j, k)


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
        best, curve = cross_validate_lambda(b, y, [0.37], rng)
        assert best == 0.37
        assert curve.shape == (1,)

    def test_pure_noise_prefers_largest(self):
        rng = np.random.default_rng(42)
        b = rng.standard_normal((30, 4))
        y = rng.standard_normal((30, 5))  # no signal: best predictor is 0
        grid = np.logspace(-4, 6, 15)
        best, curve = cross_validate_lambda(b, y, grid, rng)
        assert best == grid[-1]
        # curve flattens at the top end where X is fully shrunk
        assert curve[-1] <= curve[0]

    def test_noiseless_prefers_smallest(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((40, 4))
        x_true = rng.standard_normal((4, 3))
        y = b @ x_true
        grid = np.logspace(-8, 2, 11)
        best, _ = cross_validate_lambda(b, y, grid, rng)
        assert best <= grid[1]  # within one grid step of the minimum

    def test_tie_breaks_to_larger(self):
        # all-zero targets: every lambda achieves exactly zero error
        rng = np.random.default_rng(2)
        b = rng.standard_normal((12, 3))
        y = np.zeros((12, 2))
        grid = [0.1, 1.0, 10.0]
        best, curve = cross_validate_lambda(b, y, grid, rng)
        assert best == 10.0
        assert np.allclose(curve, 0.0)

    def test_too_few_rows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cross_validate_lambda(np.ones((3, 1)), np.ones((3, 1)),
                                  [1.0], rng, n_folds=5)

    def test_no_extra_observations_consumed(self):
        # CV must only reorder/partition the rows it was given; with the same
        # generator state the choice is a pure function of (B, Y, grid)
        rng_a = np.random.default_rng(33)
        rng_b = np.random.default_rng(33)
        b = np.random.default_rng(1).standard_normal((20, 3))
        y = np.random.default_rng(2).standard_normal((20, 2))
        grid = np.logspace(-3, 3, 7)
        best_a, curve_a = cross_validate_lambda(b, y, grid, rng_a)
        best_b, curve_b = cross_validate_lambda(b, y, grid, rng_b)
        assert best_a == best_b
        np.testing.assert_array_equal(curve_a, curve_b)
