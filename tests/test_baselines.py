"""Baseline completions: nuclear-norm solvers, CUR+, two-phase sampling."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from noisycur.baselines import (
    AdmmResult,
    PartialMatrix,
    _duality_gap,
    chen_observe,
    curplus,
    nna,
    svt,
)
from noisycur.datasets import synthetic_lowrank
from noisycur.harness import (
    Oracle,
    build_cost_model,
    config_from_dict,
    load_dataset,
    resolve_hyper,
    run_single_cell,
)
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

    @pytest.mark.parametrize("shape", [(80, 60), (60, 80), (500, 100)])
    @pytest.mark.parametrize("ratio", [0.0, 0.01, 0.5])
    def test_matches_svd_reference(self, shape, ratio):
        # ratio is tau / sigma_1; 0.01 is about the smallest the ADMM
        # solves of a sweep reach
        a = noisy_lowrank(shape, seed=sum(shape))
        assert_svd_reference(a, ratio * np.linalg.norm(a, 2))

    @pytest.mark.parametrize("shape", [(80, 60), (60, 80)])
    def test_rank_deficient(self, shape):
        a = noisy_lowrank(shape, seed=7, noise=0.0)
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.count_nonzero(sv > 1e-8 * sv[0]) == 5  # rank 4 plus the mean
        for tau in (0.0, 0.01 * sv[0], 0.5 * sv[4]):
            assert_svd_reference(a, tau)

    @pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_tau_at_interior_singular_value(self, side):
        a = noisy_lowrank((80, 60), seed=2)
        sv = np.linalg.svd(a, compute_uv=False)
        assert_svd_reference(a, side * sv[5])

    @pytest.mark.parametrize("shape", [(80, 60), (60, 80)])
    def test_zero_matrix(self, shape):
        for tau in (0.0, 1.0):
            out = svt(np.zeros(shape), tau)
            assert out.shape == shape
            assert not out.any()


# svt thresholds through an eigh of the small side's Gram, which squares the
# condition number.  Against the SVD form it measured at most 1e-14 relative
# on the inputs below, so 1e-12 leaves two digits of margin.
SVT_RTOL = 1e-12


def assert_svd_reference(a, tau):
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    expected = (u * np.maximum(sv - tau, 0.0)) @ vt
    err = np.linalg.norm(svt(a, tau) - expected)
    assert err <= SVT_RTOL * np.linalg.norm(expected)


def noisy_lowrank(shape, seed, rank=4, noise=0.1):
    """Rank-``rank`` product on a mean of 5, plus Gaussian noise: the
    spectrum of an ADMM iterate, one large value, a few signal values and
    a noise floor."""
    rng = np.random.default_rng(seed)
    m, n = shape
    return (5.0 + rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
            + noise * rng.standard_normal((m, n)))


def noisy_partial(seed, shape=(7, 7), rank=3, fraction=0.6, noise=0.1):
    rng = np.random.default_rng(seed)
    a = synthetic_lowrank(*shape, rank, rng=rng)
    cells = [(i, j, a[i, j] + noise * rng.standard_normal())
             for i in range(shape[0]) for j in range(shape[1])
             if rng.random() < fraction]
    return make_pm(a.shape, cells)


def ball_residual(fit, pm):
    return np.linalg.norm(fit.matrix[pm.rows, pm.cols] - pm.values)


def svd_certificate(fit, pm, delta):
    """nna's certificate evaluated with SVDs: (||W||_*, gap * ||W||_*),
    the second being how far ||W||_* can exceed the optimum."""
    nuclear = nuclear_norm(fit.matrix)
    lam = -fit.rho * fit.dual
    lam = lam / max(1.0, np.linalg.svd(lam, compute_uv=False)[0])
    lam_obs = lam[pm.rows, pm.cols]
    lower = lam_obs @ pm.values - delta * np.linalg.norm(lam_obs)
    return nuclear, nuclear - lower


def assert_same_optimum(pm, delta, *fits):
    """Feasible solves of one problem each bound the optimum from above by
    their nuclear norm and from below by their certificate, so their
    nuclear norms lie within the larger gap * ||W||_* of each other.  The
    certificates are taken by SVD, so roundoff is near machine precision:
    1e-12 relative covers it."""
    certificates = []
    for fit in fits:
        assert ball_residual(fit, pm) <= delta * (1 + 1e-12)
        certificates.append(svd_certificate(fit, pm, delta))
    nuclear = [c[0] for c in certificates]
    excess = max(c[1] for c in certificates)
    assert max(nuclear) - min(nuclear) <= excess + 1e-12 * max(nuclear)


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
        fit = nna(pm, 1e-6, tol=1e-8, max_iters=5000)
        rel = np.linalg.norm(fit.matrix - a) / np.linalg.norm(a)
        assert rel < 1e-2

    def test_constraint_satisfied(self):
        pm = noisy_partial(7)
        delta = 0.1 * np.sqrt(pm.n_cells)
        fit = nna(pm, delta, tol=1e-7, max_iters=4000)
        assert ball_residual(fit, pm) <= delta + 1e-3

    @pytest.mark.parametrize("seed", [7, 8])
    def test_warm_start_reaches_cold_solution(self, seed):
        # start from the fit at a larger radius, as the delta-CV path does
        pm = noisy_partial(seed)
        tol = 1e-8
        settings = {"tol": tol, "max_iters": 10000}
        delta = 0.1 * np.sqrt(pm.n_cells)
        wider = nna(pm, 3 * delta, **settings)
        warm = nna(pm, delta, **settings, start=wider)
        cold = nna(pm, delta, **settings)
        assert wider.converged and warm.converged and cold.converged
        assert_same_optimum(pm, delta, warm, cold)
        # Within ten primal stopping thresholds of the cold solve.  The
        # margin was measured, not derived: the stopping test bounds the
        # last step's residuals, not the distance to the solution.  These
        # two read 2.5 thresholds.  Over 40 random small instances, a plain
        # and an accelerated solve of one problem read up to 17.4.
        threshold = tol * (np.sqrt(pm.shape[0] * pm.shape[1])
                           + np.linalg.norm(cold.matrix))
        assert np.linalg.norm(warm.matrix - cold.matrix) <= 10 * threshold

    def test_balancing_moves_rho(self):
        pm = noisy_partial(7)
        settings = {"tol": 1e-7, "max_iters": 4000}
        delta = 0.1 * np.sqrt(pm.n_cells)
        fit = nna(pm, delta, **settings)
        assert fit.rho != 1.0  # the starting penalty
        assert fit.converged
        assert ball_residual(fit, pm) <= delta * (1 + 1e-12)
        # the carried iterate, scaled dual and penalty are a fixed point:
        # restarting from them stops at the first stopping test
        again = nna(pm, delta, **settings, start=fit)
        assert again.converged and again.iterations == 1

    def test_default_config_cell_pinned(self):
        # A fixed-seed nna cell on the default 80 x 60 config, on a 5-point
        # delta grid.  The plain ADMM took 360 final iterations to the same
        # pick (the grid floor 0.01), with rel_error 0.08653937673872662;
        # the Anderson-accelerated iteration takes 116 and moves rel_error
        # by 1.8e-6.  The pins hold the accelerated values.
        config = config_from_dict({})
        a, spec = load_dataset(config)
        model = build_cost_model(config, a.shape[0], spec.rank)
        hyper = resolve_hyper("nna", {"delta_factors":
                                      {"lo": 1e-2, "hi": 1e2, "num": 5}})
        row = run_single_cell(a, model, "nna", 4, seed=1, hyper=hyper)
        record = json.loads(row["hyperparams"])
        assert record["delta_factor"] == 0.01
        assert record["admm_iterations"] == 116
        assert record["admm_converged"] is True
        assert record["cv_converged"] == 5
        assert 0 <= record["admm_gap"] <= 1e-3
        assert 0 <= record["cv_gap_max"] <= 1e-2
        assert row["rel_error"] == pytest.approx(0.08653756092359456,
                                                 rel=0, abs=1e-9)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_gap_certifies_the_solve(self, seed):
        # the gap is nonnegative up to roundoff at every tolerance, and
        # small once the solve converges
        pm = noisy_partial(seed, (20, 15), 2, 0.5)
        delta = 0.1 * np.sqrt(pm.n_cells)
        loose = nna(pm, delta, tol=1e-2, max_iters=5)
        fit = nna(pm, delta)
        assert loose.gap >= -1e-12
        assert fit.converged
        assert 0 <= fit.gap <= 1e-3

    def test_gap_against_svd_nuclear_norm(self):
        # the certificate evaluated with SVDs instead of Gram eigenvalues
        pm = noisy_partial(8, (20, 15), 2, 0.5)
        delta = 0.1 * np.sqrt(pm.n_cells)
        fit = nna(pm, delta)
        assert not fit.dual[~pm.mask()].any()  # U is zero off the cells
        nuclear, excess = svd_certificate(fit, pm, delta)
        assert fit.gap == pytest.approx(excess / nuclear, rel=0, abs=1e-7)

    def test_huge_delta_gives_zero(self):
        pm = make_pm((4, 4), entries=[(0, 0, 1.0), (1, 2, 2.0)])
        fit = nna(pm, 100.0, tol=1e-8, max_iters=4000)
        assert np.abs(fit.matrix).max() < 1e-4
        # zero lies in the ball, so it is optimal: its gap is defined as 0
        assert not fit.matrix.any()
        assert fit.gap == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nna(PartialMatrix((3, 3)), 0.1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": 0.0}, "tol must be positive and finite"),
        ({"tol": -1.0}, "tol must be positive and finite"),
        ({"tol": np.inf}, "tol must be positive and finite"),
        ({"tol": np.nan}, "tol must be positive and finite"),
        ({"max_iters": 0}, "max_iters must be >= 1"),
    ], ids=["tol-zero", "tol-negative", "tol-inf", "tol-nan", "iters-zero"])
    def test_bad_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            nna(noisy_partial(7), 1.0, **kwargs)

    def test_warm_start_leaves_start_unchanged(self):
        # the ball projection writes into the iterate in place; the result
        # a solve starts from must keep its matrix, dual and penalty
        pm = noisy_partial(7)
        delta = 0.1 * np.sqrt(pm.n_cells)
        fit = nna(pm, 3 * delta, tol=1e-7, max_iters=4000)
        matrix, dual, rho = fit.matrix.copy(), fit.dual.copy(), fit.rho
        nna(pm, delta, tol=1e-7, max_iters=4000, start=fit)
        np.testing.assert_array_equal(fit.matrix, matrix)
        np.testing.assert_array_equal(fit.dual, dual)
        assert fit.rho == rho


def reference_nna(obs, delta, tol, max_iters, start=None):
    """The plain scaled ADMM loop nna ran before its Anderson acceleration:
    the same step, stopping test and residual balancing, no extrapolation.
    Returns the AdmmResult nna would, its gap from nna's certificate."""
    rows, cols, centre = obs.rows, obs.cols, obs.values
    m, n = obs.shape
    if start is None:
        w, u, rho = np.zeros((m, n)), np.zeros((m, n)), 1.0
    else:
        w, u, rho = start.matrix, start.dual, start.rho
    sqrt_mn = np.sqrt(m * n)
    converged = False
    for it in range(1, max_iters + 1):
        z = svt(w - u, 1.0 / rho)
        w_prev = w
        w = z + u
        diff = w[rows, cols] - centre
        norm = np.sqrt(np.sum(diff * diff))
        if norm > delta:
            w[rows, cols] = centre + delta / norm * diff
        u = u + z - w
        primal = np.linalg.norm(z - w)
        dual = rho * np.linalg.norm(w - w_prev)
        eps_pri = sqrt_mn * tol + tol * max(np.linalg.norm(z),
                                            np.linalg.norm(w))
        eps_dual = sqrt_mn * tol + tol * rho * np.linalg.norm(u)
        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u = u / 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u = u * 2.0
    return AdmmResult(matrix=w, converged=converged, iterations=it,
                      primal_residual=primal, dual_residual=dual,
                      gap=_duality_gap(w, u, rho, obs, delta), dual=u, rho=rho)


class TestNnaAgainstReference:
    """The accelerated nna against the plain ADMM loop, at tol 1e-8."""

    TOL = 1e-8

    @classmethod
    def solves(cls, solver):
        """Three cold solves and a warm-started path of three radii, each
        radius started from the solve before it."""
        settings = {"tol": cls.TOL, "max_iters": 20000}
        out = []
        for seed, shape, rank, fraction in [(7, (7, 7), 3, 0.6),
                                            (8, (20, 15), 2, 0.5),
                                            (9, (30, 20), 3, 0.4)]:
            pm = noisy_partial(seed, shape, rank, fraction)
            delta = 0.1 * np.sqrt(pm.n_cells)
            out.append((pm, delta, solver(pm, delta, **settings)))
        pm = noisy_partial(10, (30, 20), 3, 0.4)
        fit = None
        for factor in (0.3, 0.1, 0.03):
            delta = factor * np.sqrt(pm.n_cells)
            fit = solver(pm, delta, **settings, start=fit)
            out.append((pm, delta, fit))
        return out

    @pytest.fixture(scope="class")
    def pairs(self):
        return list(zip(self.solves(reference_nna), self.solves(nna)))

    def test_same_optimum(self, pairs):
        for (pm, delta, ref), (_, _, fit) in pairs:
            assert_same_optimum(pm, delta, ref, fit)

    def test_same_solution(self, pairs):
        for (pm, _, ref), (_, _, fit) in pairs:
            assert ref.converged and fit.converged
            # Within ten primal stopping thresholds of the reference.  The
            # margin was measured on these instances (1.1 to 3.6), not
            # derived: the stopping test bounds the last step's residuals,
            # not the distance to the solution, and over 40 random small
            # instances one pair of solves read 17.4.
            threshold = self.TOL * (np.sqrt(pm.shape[0] * pm.shape[1])
                                    + np.linalg.norm(ref.matrix))
            assert np.linalg.norm(fit.matrix - ref.matrix) <= 10 * threshold

    def test_same_certified_gap(self, pairs):
        # The gap at a 1e-8 stop is of order 1e-8 to 1e-7 on both sides and
        # its ratio per solve scatters (0.5 to 3.8 over 40 random small
        # instances), so the bound is on the largest gap of the set.
        gaps = np.array([[ref.gap, fit.gap]
                         for (*_, ref), (*_, fit) in pairs])
        assert gaps.min() >= -1e-12
        assert gaps[:, 1].max() <= 2 * gaps[:, 0].max()

    def test_fewer_iterations(self, pairs):
        ref = sum(ref.iterations for (*_, ref), _ in pairs)
        fit = sum(fit.iterations for _, (*_, fit) in pairs)
        assert fit < ref


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

    @staticmethod
    def kron_lstsq(c, r, pm, rcond=None):
        """The explicit path: lstsq on the design with one row
        kron(c_i, r_j) per observed cell.  Returns (estimate, design)."""
        design = np.stack([np.kron(c[i], r[:, j])
                           for i, j in zip(pm.rows, pm.cols)])
        core = np.linalg.lstsq(design, pm.values, rcond=rcond)[0]
        return c @ core.reshape(c.shape[1], r.shape[0]) @ r, design

    @staticmethod
    def reference_case(kind):
        """(c, r, pm) on 80x60 for each solve regime."""
        rng = np.random.default_rng(["over", "under", "barely_over",
                                     "barely_under", "rank_deficient",
                                     "ill_conditioned"].index(kind))
        # the rank-deficient C is columns of a rank-2 matrix: rank 2 < d1
        a = synthetic_lowrank(80, 60, 2 if kind == "rank_deficient" else 4,
                              rng=rng)
        d1, d2, draws = {"over": (5, 4, 500), "under": (10, 10, 60),
                         "barely_over": (10, 10, 103),
                         "barely_under": (10, 10, 97),
                         "rank_deficient": (3, 2, 40),
                         "ill_conditioned": (6, 6, 300)}[kind]
        if kind == "rank_deficient":
            c, r = a[:, [0, 3, 5]], a[[1, 4], :]
        else:
            scale = 1e-3 if kind == "ill_conditioned" else 0.2
            noise = scale * rng.standard_normal((80 + 60, d1 + d2))
            c = a[:, rng.integers(0, 60, d1)] + noise[:80, :d1]
            r = a[rng.integers(0, 80, d2)] + noise[80:, d1:].T
        if kind.startswith("barely"):
            cells = rng.choice(80 * 60, draws, replace=False)
            rows, cols = np.divmod(cells, 60)
        else:
            rows, cols = rng.integers(0, 80, draws), rng.integers(0, 60, draws)
        values = a[rows, cols] + 0.1 * rng.standard_normal(rows.size)
        return c, r, PartialMatrix(a.shape, rows, cols, values)

    @pytest.mark.parametrize("kind", ["over", "under", "barely_over",
                                      "barely_under", "rank_deficient",
                                      "ill_conditioned"])
    def test_matches_explicit_lstsq(self, kind):
        c, r, pm = self.reference_case(kind)
        d1, d2 = c.shape[1], r.shape[0]
        eps = np.finfo(float).eps
        size = max(pm.n_cells, d1 * d2)
        # the Gram drops the design's singular values at or below
        # sqrt(size * eps) of the largest; lstsq at its own cutoff only
        # those at or below size * eps
        gram_cutoff = np.sqrt(size * eps)
        expected, design = self.kron_lstsq(
            c, r, pm, rcond=gram_cutoff if kind == "ill_conditioned" else None)
        sv = np.linalg.svd(design, compute_uv=False)
        sv /= sv[0]
        if kind == "over":
            assert pm.n_cells > 4 * d1 * d2
        elif kind == "under":
            assert pm.n_cells < d1 * d2
        elif kind.startswith("barely"):
            # within three of the unknowns, either side, and the design's
            # condition number squared in a Gram is past 1e10.  Solved on
            # the d1*d2 Gram, whose null space blurs its smallest real
            # eigenvectors, barely_under lands 3e-7 away
            assert 0 < abs(pm.n_cells - d1 * d2) <= 3
            assert 1 / sv[-1] > 1e5
        elif kind == "rank_deficient":
            assert np.linalg.matrix_rank(c) == 2
        else:
            # column and row noise of 1e-3 on a rank-4 matrix: condition
            # number about 2e8, some singular values between the two
            # cutoffs and none within a factor 3 of the Gram's.  Against
            # lstsq at its own cutoff the estimate lands 2e-3 away
            assert 1e8 < 1 / sv[-1] < 1e10
            assert (sv <= gram_cutoff).any() and (sv > size * eps).all()
            assert not ((sv > gram_cutoff / 3) & (sv < 3 * gram_cutoff)).any()
        fit = curplus(c, r, pm)
        err = np.linalg.norm(fit.estimate - expected)
        assert err < 1e-8 * np.linalg.norm(expected), err

    @pytest.mark.parametrize("kind", ["under", "rank_deficient"])
    def test_minimum_norm_core(self, kind):
        # the core lies in the design's row space: no part of it is spent
        # on a direction the observations cannot see.  The Gram's
        # eigenvectors carry errors of about eps * cond(D)^2, which is
        # 4e-10 for the rank-deficient C (smallest kept singular value
        # 7e-4 of the largest), so the bound is 1e-8 and not roundoff.
        c, r, pm = self.reference_case(kind)
        _, design = self.kron_lstsq(c, r, pm)
        core = curplus(c, r, pm).middle.ravel()
        _, sv, vt = np.linalg.svd(design, full_matrices=False)
        row_space = vt[sv > max(design.shape) * np.finfo(float).eps * sv[0]]
        off = core - row_space.T @ (row_space @ core)
        assert np.linalg.norm(off) < 1e-8 * np.linalg.norm(core)

    @pytest.mark.parametrize("draws", [4, 400])  # kernel and Gram branch
    def test_zero_columns_give_zero_core(self, draws):
        rng = np.random.default_rng(6)
        pm = PartialMatrix((20, 15), rng.integers(0, 20, draws),
                           rng.integers(0, 15, draws),
                           rng.standard_normal(draws))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = curplus(np.zeros((20, 3)), rng.standard_normal((2, 15)), pm)
        np.testing.assert_array_equal(fit.middle, np.zeros((3, 2)))
        np.testing.assert_array_equal(fit.estimate, np.zeros((20, 15)))

    def test_ratings_shape_memory(self):
        # 5000 x 100, 40k draws, d = 32 (a 16 x 16 core): the design alone
        # would take 38k x 256 doubles, about 79 MB
        rng = np.random.default_rng(7)
        m, n = 5000, 100
        a = rng.standard_normal((m, 5)) @ rng.standard_normal((5, n))
        c = a[:, rng.integers(0, n, 16)] + rng.standard_normal((m, 16))
        r = a[rng.integers(0, m, 16)] + rng.standard_normal((16, n))
        rows, cols = rng.integers(0, m, 40_000), rng.integers(0, n, 40_000)
        pm = PartialMatrix((m, n), rows, cols, a[rows, cols])
        tracemalloc.start()
        try:
            fit = curplus(c, r, pm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000, peak
        assert np.isfinite(fit.estimate).all()

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

    def test_phase1_samples_come_first(self):
        # the merged record starts with exactly the samples a lone phase-1
        # read draws from the same seed, phase 2's follow
        a = synthetic_lowrank(12, 10, 2, rng=np.random.default_rng(0))
        obs, info = chen_observe(self.oracle(a, 100.0), 0.5,
                                 np.random.default_rng(1), rank=2)
        n1 = info["phase1_count"]
        lone = self.oracle(a, 100.0).entries(n1, np.random.default_rng(1))
        assert np.array_equal(obs.entry_samples[:n1], lone.entry_samples)
        assert len(obs.entry_samples) == n1 + info["phase2_count"]

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
