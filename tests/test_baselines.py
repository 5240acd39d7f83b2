"""Baseline completions: nuclear-norm solvers, CUR+, two-phase sampling."""

import numpy as np
import pytest

from noisycur.baselines import (
    AdmmSettings,
    PartialMatrix,
    chen_observe,
    curplus,
    nna,
    svt,
)
from noisycur.datasets import synthetic_lowrank
from noisycur.harness import Oracle, resolve_hyper, run_single_cell
from noisycur.observe import ObservationSet, TwoCostModel, sample_entries


def nuclear_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def make_pm(shape, entries=()):
    """PartialMatrix of (row, col, value) triples."""
    cells = np.array(entries, dtype=np.float64).reshape(-1, 3)
    return PartialMatrix(shape, cells[:, 0], cells[:, 1], cells[:, 2])


def full_pm(a):
    """Every cell of ``a`` observed once, exactly."""
    rows, cols = np.indices(a.shape).reshape(2, -1)
    return PartialMatrix(a.shape, rows, cols, a.ravel())


class TestPartialMatrix:
    def test_duplicate_observations_average(self):
        pm = make_pm((3, 3), entries=[(0, 0, 1.0), (0, 0, 3.0)])
        np.testing.assert_array_equal(pm.values, [2.0])
        assert pm.n_cells == 1

    def test_dense_fill_and_mask(self):
        pm = make_pm((2, 2), entries=[(0, 1, 5.0)])
        filled = pm.dense_fill(-1.0)
        np.testing.assert_array_equal(filled, [[-1.0, 5.0], [-1.0, -1.0]])
        np.testing.assert_array_equal(pm.mask(), [[False, True], [False, False]])

    def test_cells_sorted(self):
        pm = make_pm((3, 3), entries=[(2, 0, 1.0), (0, 2, 1.0), (1, 1, 1.0)])
        assert list(zip(pm.rows.tolist(), pm.cols.tolist())) == \
            [(0, 2), (1, 1), (2, 0)]

    def test_cells_row_major_on_a_draw(self):
        # 300 uniform draws over a wide 5 x 40 shape: many cells repeat, and
        # row-major order differs from column-major order
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 5, size=300)
        cols = rng.integers(0, 40, size=300)
        pm = PartialMatrix((5, 40), rows, cols, rng.standard_normal(300))
        flat = pm.rows * 40 + pm.cols
        assert (np.diff(flat) > 0).all()
        np.testing.assert_array_equal(flat, np.unique(rows * 40 + cols))

    def test_subset(self):
        pm = make_pm((3, 3), entries=[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)])
        sub = pm.subset([2, 0])
        assert sub.n_cells == 2
        np.testing.assert_array_equal(sub.rows, [0, 2])
        np.testing.assert_array_equal(sub.values, [1.0, 3.0])
        with pytest.raises(IndexError):
            pm.subset([3])

    def test_bounds_and_validation(self):
        for rows, cols in (([2], [0]), ([0], [2]), ([-1], [0]), ([0], [-1])):
            with pytest.raises(ValueError, match="out of range"):
                PartialMatrix((2, 2), rows, cols, [1.0])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                PartialMatrix((2, 2), [0, 1], [0, 1], [1.0, bad])
        with pytest.raises(ValueError):
            PartialMatrix((2, 2), [0, 1], [0], [1.0])
        with pytest.raises(ValueError):
            PartialMatrix((0, 2))

    def test_from_observations(self):
        obs = ObservationSet(shape=(3, 2),
                             entry_samples=[(2, 1, 7.0), (0, 0, 9.0),
                                            (2, 1, 3.0)])
        pm = PartialMatrix.from_observations(obs)
        assert pm.n_cells == 2
        np.testing.assert_array_equal(pm.rows, [0, 2])
        np.testing.assert_array_equal(pm.cols, [0, 1])
        np.testing.assert_array_equal(pm.values, [9.0, 5.0])


class TestSvt:
    def test_zero_threshold_identity(self):
        a = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_allclose(svt(a, 0.0), a, atol=1e-12)

    def test_large_threshold_annihilates(self):
        a = np.random.default_rng(1).standard_normal((4, 4))
        sigma1 = np.linalg.norm(a, 2)
        assert np.abs(svt(a, sigma1 + 1)).max() == 0.0

    def test_prox_objective_oracle(self):
        # svt(a, tau) must beat random candidates on 0.5||z-a||^2 + tau||z||_*
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 5))
        tau = 0.8
        z_star = svt(a, tau)
        best = 0.5 * np.linalg.norm(z_star - a) ** 2 + tau * nuclear_norm(z_star)
        for _ in range(30):
            z = z_star + 0.1 * rng.standard_normal(a.shape)
            trial = 0.5 * np.linalg.norm(z - a) ** 2 + tau * nuclear_norm(z)
            assert trial >= best - 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            lhs = np.linalg.norm(svt(a, 0.5) - svt(b, 0.5))
            assert lhs <= np.linalg.norm(a - b) + 1e-10

    def test_negative_tau(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)


def noisy_partial(seed, shape=(7, 7), rank=3, fraction=0.6, noise=0.1):
    rng = np.random.default_rng(seed)
    a = synthetic_lowrank(*shape, rank, rng=rng)
    cells = [(i, j, a[i, j] + noise * rng.standard_normal())
             for i in range(shape[0]) for j in range(shape[1])
             if rng.random() < fraction]
    return make_pm(a.shape, cells)


def ball_residual(fit, pm):
    return np.linalg.norm(fit.matrix[pm.rows, pm.cols] - pm.values)


class TestNna:
    def test_fully_observed_zero_delta(self):
        a = synthetic_lowrank(8, 6, 2, rng=np.random.default_rng(0))
        fit = nna(full_pm(a), 0.0)
        assert fit.converged
        assert np.abs(fit.matrix - a).max() < 1e-4

    def test_partial_rank_one_recovery(self):
        # rank-1 incoherent matrix, 70% of cells observed noiselessly:
        # nuclear norm minimization recovers the rest
        rng = np.random.default_rng(5)
        u = 1.0 + 0.1 * rng.standard_normal(9)
        v = 1.0 + 0.1 * rng.standard_normal(7)
        a = np.outer(u, v)
        rows, cols = np.nonzero(rng.random(a.shape) < 0.7)
        pm = PartialMatrix(a.shape, rows, cols, a[rows, cols])
        fit = nna(pm, 1e-6, AdmmSettings(tol=1e-8, max_iters=5000))
        rel = np.linalg.norm(fit.matrix - a) / np.linalg.norm(a)
        assert rel < 1e-2

    def test_constraint_satisfied(self):
        pm = noisy_partial(7)
        delta = 0.1 * np.sqrt(pm.n_cells)
        fit = nna(pm, delta, AdmmSettings(tol=1e-7, max_iters=4000))
        assert ball_residual(fit, pm) <= delta + 1e-3

    @pytest.mark.parametrize("seed", [7, 8])
    def test_warm_start_reaches_cold_solution(self, seed):
        # start from the fit at a larger radius, as the delta-CV path does
        pm = noisy_partial(seed)
        tol = 1e-8
        settings = AdmmSettings(tol=tol, max_iters=10000)
        delta = 0.1 * np.sqrt(pm.n_cells)
        wider = nna(pm, 3 * delta, settings)
        warm = nna(pm, delta, settings, start=wider)
        cold = nna(pm, delta, settings)
        assert wider.converged and warm.converged and cold.converged
        # within ten primal stopping thresholds of the cold solve
        threshold = tol * (np.sqrt(pm.shape[0] * pm.shape[1])
                           + np.linalg.norm(cold.matrix))
        assert np.linalg.norm(warm.matrix - cold.matrix) <= 10 * threshold
        for fit in (warm, cold):
            assert ball_residual(fit, pm) <= delta * (1 + 1e-12)

    def test_balancing_moves_rho(self):
        pm = noisy_partial(7)
        settings = AdmmSettings(rho=1.0, tol=1e-7, max_iters=4000)
        delta = 0.1 * np.sqrt(pm.n_cells)
        fit = nna(pm, delta, settings)
        assert fit.rho != settings.rho
        assert fit.converged
        assert ball_residual(fit, pm) <= delta * (1 + 1e-12)
        # the carried iterate, scaled dual and penalty are a fixed point:
        # restarting from them stops at the first stopping test
        again = nna(pm, delta, settings, start=fit)
        assert again.converged and again.iterations == 1

    def test_huge_delta_gives_zero(self):
        pm = make_pm((4, 4), entries=[(0, 0, 1.0), (1, 2, 2.0)])
        fit = nna(pm, 100.0, AdmmSettings(tol=1e-8, max_iters=4000))
        assert np.abs(fit.matrix).max() < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nna(PartialMatrix((3, 3)), 0.1)

    def test_objective_matches_nuclear_norm(self):
        pm = make_pm((3, 3), entries=[(i, j, float(i == j))
                                      for i in range(3) for j in range(3)])
        fit = nna(pm, 0.0, AdmmSettings(tol=1e-9, max_iters=4000))
        assert fit.objective == pytest.approx(
            nuclear_norm(fit.matrix), abs=1e-6)


class TestCurPlus:
    def test_exact_recovery_noiseless(self):
        a = synthetic_lowrank(10, 8, 2, rng=np.random.default_rng(0))
        c = a[:, [0, 3, 5]]
        r = a[[1, 4], :]
        rng = np.random.default_rng(1)
        cells = [(rng.integers(0, 10), rng.integers(0, 8)) for _ in range(40)]
        pm = make_pm(a.shape, [(i, j, a[i, j]) for i, j in cells])
        fit = curplus(c, r, pm)
        assert np.linalg.norm(fit.estimate - a) / np.linalg.norm(a) < 1e-8

    def test_vectorization_oracle(self):
        # design row for cell (i, j) must be vec(outer(C_i, R_:j)); verify the
        # fit against an explicit Kronecker least-squares solve
        rng = np.random.default_rng(2)
        c = rng.standard_normal((6, 2))
        r = rng.standard_normal((3, 5))
        a_target = rng.standard_normal((6, 5))
        cells = [(0, 0), (1, 2), (2, 4), (3, 1), (4, 3), (5, 0), (2, 2),
                 (0, 4), (1, 1)]
        pm = make_pm((6, 5), [(i, j, a_target[i, j]) for i, j in cells])
        fit = curplus(c, r, pm)
        design = np.stack([np.kron(c[i], r[:, j]) for i, j in sorted(cells)])
        rhs = np.array([a_target[i, j] for i, j in sorted(cells)])
        core = np.linalg.lstsq(design, rhs, rcond=None)[0].reshape(2, 3)
        np.testing.assert_allclose(fit.middle, core, atol=1e-10)

    def test_first_order_optimality(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal((7, 3))
        r = rng.standard_normal((2, 6))
        entries = [(rng.integers(0, 7), rng.integers(0, 6),
                    rng.standard_normal()) for _ in range(15)]
        pm = make_pm((7, 6), entries)
        fit = curplus(c, r, pm)
        # gradient of sum (c_i U r_j - y)^2 wrt U must vanish
        grad = np.zeros_like(fit.middle)
        for i, j, y in zip(pm.rows, pm.cols, pm.values):
            resid = c[i] @ fit.middle @ r[:, j] - y
            grad += resid * np.outer(c[i], r[:, j])
        assert np.abs(grad).max() < 1e-8

    def test_shape_mismatch(self):
        pm = make_pm((4, 4), entries=[(0, 0, 1.0)])
        with pytest.raises(ValueError):
            curplus(np.ones((3, 2)), np.ones((2, 4)), pm)
        with pytest.raises(ValueError):
            curplus(np.ones((4, 2)), np.ones((2, 5)), pm)

    def test_needs_observations(self):
        with pytest.raises(ValueError):
            curplus(np.ones((4, 2)), np.ones((2, 4)), PartialMatrix((4, 4)))


class TestChenObserve:
    def model(self, budget):
        return TwoCostModel(entry_price=1.0, column_price=4.0,
                            sigma_e=0.0, sigma_c=1.0, budget=budget)

    def oracle(self, a, budget):
        return Oracle(a, self.model(budget))

    def test_phase_counts_split_budget(self):
        a = synthetic_lowrank(12, 10, 2, rng=np.random.default_rng(0))
        obs, info = chen_observe(self.oracle(a, 100.0), 0.5,
                                 np.random.default_rng(1), rank=2)
        assert info["phase1_count"] == 50
        assert info["phase2_count"] == 50
        assert len(obs.entry_samples) == 100

    def test_budget_respected_odd_fraction(self):
        a = synthetic_lowrank(12, 10, 2, rng=np.random.default_rng(0))
        obs, info = chen_observe(self.oracle(a, 97.0), 0.35,
                                 np.random.default_rng(2), rank=2)
        n1, n2 = info["phase1_count"], info["phase2_count"]
        assert n1 == 33  # floor(0.35 * 97)
        assert (n1 + n2) * 1.0 <= 97.0

    def test_phase2_targets_heavy_row(self):
        # one row carries nearly all the mass; phase-2 samples concentrate on it
        a = np.full((10, 10), 1e-3)
        a[4] = 10.0
        obs, info = chen_observe(self.oracle(a, 400.0), 0.5,
                                 np.random.default_rng(3), rank=1)
        p2_rows = obs.entry_samples["row"][info["phase1_count"]:]
        assert np.count_nonzero(p2_rows == 4) > 0.5 * len(p2_rows)

    def test_bad_fraction(self):
        a = np.ones((4, 4))
        with pytest.raises(ValueError):
            chen_observe(self.oracle(a, 50.0), 1.0, np.random.default_rng(0), 1)

    def test_all_zero_phase1_rejected(self):
        a = np.zeros((5, 5))
        with pytest.raises(ValueError):
            chen_observe(self.oracle(a, 30.0), 0.5, np.random.default_rng(0), 1)

    def test_end_to_end_solver(self):
        # one delta factor, so no CV: delta = sqrt(#cells) * sigma_e
        a = synthetic_lowrank(9, 8, 2, rng=np.random.default_rng(4))
        hyper = resolve_hyper("chen", {"rank": 2, "delta_factors": [1.0],
                                       "tol": 1e-7, "max_iters": 3000})
        row = run_single_cell(a, self.model(200.0), "chen", 2, seed=5,
                              hyper=hyper)
        assert row["rel_error"] < 0.2


class TestAdmmSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmmSettings(rho=0.0)
        with pytest.raises(ValueError):
            AdmmSettings(tol=-1.0)
        with pytest.raises(ValueError):
            AdmmSettings(max_iters=0)


class TestSampleEntriesIntegration:
    def test_duplicate_entry_cells_average_in_pm(self):
        rng = np.random.default_rng(0)
        a = np.arange(16.0).reshape(4, 4)
        obs = sample_entries(a, 400, 0.5, rng)
        pm = PartialMatrix.from_observations(obs)
        # with 400 draws over 16 cells the per-cell means concentrate
        dense = pm.dense_fill()
        assert np.abs(dense - a).max() < 0.5  # ~25 obs per cell, se ~ 0.1

    def test_cell_means_match_sequential_reference(self):
        # 400 draws over 16 cells: each cell repeats about 25 times, and its
        # mean must equal a plain running sum over the draws in sampling
        # order divided by the count, to the last bit
        rng = np.random.default_rng(0)
        a = np.arange(16.0).reshape(4, 4)
        obs = sample_entries(a, 400, 0.5, rng)
        pm = PartialMatrix.from_observations(obs)
        sums, counts = {}, {}
        for i, j, v in obs.entry_samples:
            key = (int(i), int(j))
            sums[key] = sums.get(key, 0.0) + float(v)
            counts[key] = counts.get(key, 0) + 1
        keys = sorted(sums)
        assert list(zip(pm.rows.tolist(), pm.cols.tolist())) == keys
        assert pm.values.tolist() == [sums[k] / counts[k] for k in keys]
