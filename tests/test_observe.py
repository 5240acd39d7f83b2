"""Two-cost observation layer: budget splits, samplers, noise model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisycur.harness import Oracle
from noisycur.linalg import SketchMatrix
from noisycur.observe import (
    InfeasiblePlanError,
    ObservationSet,
    TwoCostModel,
    sample_columns,
    sample_entries,
    sample_rows_noisy,
    snr,
)


def model_with(budget, p_c=4.0, p_e=1.0, sigma_c=1.0, sigma_e=0.1):
    return TwoCostModel(entry_price=p_e, column_price=p_c,
                        sigma_e=sigma_e, sigma_c=sigma_c, budget=budget)


class TestTwoCostModel:
    def test_requires_noisier_columns(self):
        with pytest.raises(ValueError):
            TwoCostModel(entry_price=1.0, column_price=4.0,
                         sigma_e=0.5, sigma_c=0.5, budget=10.0)

    def test_column_cheaper_than_row_of_entries(self):
        m = model_with(100.0, p_c=25.0)
        m.validate_for_rows(30)
        with pytest.raises(ValueError):
            m.validate_for_rows(20)  # 25 >= 20 * 1

    def test_alpha_point_two_pricing(self):
        # column price alpha * m * entry price with alpha = 0.2, m = 20
        m_rows, alpha, p_e = 20, 0.2, 1.0
        model = model_with(50.0, p_c=alpha * m_rows * p_e, p_e=p_e)
        assert model.column_price == pytest.approx(4.0)


def split(budget, n, d, m=12):
    """noisyCUR's budget split through Oracle.noisycur on an m x n matrix:
    (columns read, sketched rows read, oracle)."""
    oracle = Oracle(np.ones((m, n)), model_with(budget))
    draw = oracle.noisycur(d, np.random.default_rng(0))
    return draw.c_tilde.shape[1], draw.sketch.n_samples, oracle


class TestNoisyCurPlan:
    """The budget split of noisyCUR's read: d columns, then as many full
    sketched rows as the rest buys."""

    def test_exact_split(self):
        d, s, oracle = split(100.0, n=10, d=5)
        assert (d, s) == (5, 8)
        assert oracle.spent == pytest.approx(100.0)
        assert oracle.leftover == pytest.approx(0.0)

    def test_d_zero_all_rows(self):
        # no column read: refused, and the whole budget buys 10 rows
        oracle = Oracle(np.ones((12, 10)), model_with(100.0))
        with pytest.raises(InfeasiblePlanError):
            oracle.noisycur(0, np.random.default_rng(0))
        assert oracle.affordable(10 * oracle.model.entry_price) == 10

    def test_infeasible(self):
        with pytest.raises(InfeasiblePlanError):
            split(10.0, n=10, d=5)

    def test_leftover_when_rows_do_not_divide(self):
        _, s, oracle = split(103.0, n=10, d=5)
        assert s == 8
        assert oracle.leftover == pytest.approx(3.0)

    @given(st.floats(10.0, 500.0), st.integers(1, 20), st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_never_overspends_and_reconstructs(self, budget, n, d):
        model = model_with(budget)
        try:
            d_read, s, oracle = split(budget, n=n, d=d)
        except InfeasiblePlanError:
            assert (d * model.column_price > budget + 1e-9
                    or budget - d * model.column_price < n * model.entry_price)
            return
        assert d_read == d and s >= 1
        assert oracle.spent <= budget + 1e-9
        recon = d * model.column_price + s * n * model.entry_price
        assert recon == pytest.approx(oracle.spent)
        assert oracle.spent + oracle.leftover == \
            pytest.approx(budget)

    @given(st.integers(1, 15), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_cost_monotonicity_in_d(self, n, d):
        model = model_with(400.0)
        try:
            _, s_next, _ = split(400.0, n=n, d=d + 1)
        except InfeasiblePlanError:
            return  # no sketched row left to buy at d + 1
        _, s_here, _ = split(400.0, n=n, d=d)
        assert s_next <= s_here
        # one extra column displaces at least floor(p_c / (n p_e)) rows...
        # only when the floor boundary lines up; weak direction always holds
        assert s_here - s_next >= int(model.column_price // (n * model.entry_price)) - 1


class TestSampleColumns:
    def test_zero_noise_exact(self):
        rng = np.random.default_rng(0)
        a = np.arange(12.0).reshape(3, 4)
        c, idx = sample_columns(a, 3, 0.0, rng)
        np.testing.assert_array_equal(c, a[:, idx])

    def test_pigeonhole_duplicate(self):
        rng = np.random.default_rng(0)
        a = np.ones((3, 2))
        _, idx = sample_columns(a, 3, 0.0, rng)
        assert len(set(idx.tolist())) < 3

    def test_moment_check(self):
        rng = np.random.default_rng(99)
        col = np.array([[1.0], [2.0], [-3.0]])
        n_draws, sigma = 10_000, 0.5
        c, _ = sample_columns(np.tile(col, (1, 1)), n_draws, sigma, rng)
        mean = c.mean(axis=1)
        var = c.var(axis=1)
        assert np.abs(mean - col[:, 0]).max() < 3 * sigma / 100
        assert np.abs(var - sigma**2).max() < 0.1 * sigma**2

    def test_duplicates_get_independent_noise(self):
        rng = np.random.default_rng(1)
        a = np.zeros((5, 1))
        c, idx = sample_columns(a, 2, 1.0, rng)
        assert (idx == 0).all()
        assert np.linalg.norm(c[:, 0] - c[:, 1]) > 1e-6


class TestSampleRowsNoisy:
    def test_zero_noise_is_sketch_product(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 3))
        sk = SketchMatrix(n_rows=6, indices=np.array([2, 5]),
                          scales=np.array([1.3, 0.7]))
        y = sample_rows_noisy(a, sk, 0.0, rng)
        np.testing.assert_allclose(y, sk.dense().T @ a, rtol=1e-14)

    def test_unit_scale_single_row(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 5))
        sk = SketchMatrix(n_rows=4, indices=np.array([1]),
                          scales=np.array([1.0]))
        y = sample_rows_noisy(a, sk, 0.05, rng)
        assert np.abs(y[0] - a[1]).max() < 0.05 * 5


class TestSampleEntries:
    def test_coupon_collector_coverage(self):
        rng = np.random.default_rng(2)
        m, n = 20, 20
        a = np.zeros((m, n))
        target = (1 - 1 / np.e) * m * n
        fractions = []
        for _ in range(50):
            obs = sample_entries(a, m * n, 0.0, rng)
            distinct = {(i, j) for i, j, _ in obs.entry_samples}
            fractions.append(len(distinct))
        assert abs(np.mean(fractions) - target) / target < 0.05

    def test_single_cell_weights(self):
        rng = np.random.default_rng(3)
        a = np.arange(6.0).reshape(2, 3)
        w = np.zeros((2, 3))
        w[1, 2] = 1.0
        obs = sample_entries(a, 10, 0.0, rng, weights=w)
        assert all((i, j) == (1, 2) for i, j, _ in obs.entry_samples)
        assert all(v == 5.0 for _, _, v in obs.entry_samples)

    def test_zero_noise_exact_values(self):
        rng = np.random.default_rng(4)
        a = np.random.default_rng(0).standard_normal((5, 7))
        obs = sample_entries(a, 200, 0.0, rng)
        for i, j, v in obs.entry_samples:
            assert v == a[i, j]

    def test_bad_weights(self):
        rng = np.random.default_rng(0)
        a = np.zeros((2, 2))
        with pytest.raises(ValueError):
            sample_entries(a, 5, 0.0, rng, weights=np.array([1.0, -1.0, 0, 0]))
        with pytest.raises(ValueError):
            sample_entries(a, 5, 0.0, rng, weights=np.zeros(4))

    def test_noise_independence_across_duplicates(self):
        # same cell observed twice: noise draws uncorrelated
        rng = np.random.default_rng(6)
        a = np.zeros((1, 1))
        n_trials = 100_000
        obs = sample_entries(a, 2 * n_trials, 1.0, rng)
        vals = np.array([v for _, _, v in obs.entry_samples])
        first, second = vals[::2], vals[1::2]
        corr = np.mean(first * second)  # both mean-zero
        assert abs(corr) < 3 / np.sqrt(n_trials)


class TestObservationSet:
    def test_bounds_checked(self):
        for cell in ((2, 0, 1.0), (0, 2, 1.0), (-1, 0, 1.0)):
            with pytest.raises(ValueError, match="out of range"):
                ObservationSet(shape=(2, 2), entry_samples=[(0, 0, 1.0), cell])
        with pytest.raises(ValueError):
            ObservationSet(shape=(0, 2))

    def test_record_fields(self):
        obs = ObservationSet(shape=(3, 3), entry_samples=[(0, 1, 2.5)])
        assert len(obs.entry_samples) == 1
        assert obs.entry_samples.dtype.names == ("row", "col", "value")
        assert [tuple(r) for r in obs.entry_samples] == [(0, 1, 2.5)]
        assert len(ObservationSet(shape=(3, 3)).entry_samples) == 0


class TestSnr:
    def test_all_ones(self):
        assert snr(np.ones((3, 5)), 1.0) == pytest.approx(1.0)

    def test_homogeneity(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert snr(2 * a, 0.7) == pytest.approx(4 * snr(a, 0.7))

    def test_sigma_ratio(self):
        a = np.random.default_rng(1).standard_normal((8, 6))
        ratio = snr(a, np.sqrt(0.05)) / snr(a, np.sqrt(0.2))
        assert ratio == pytest.approx(4.0)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError):
            snr(np.ones((2, 2)), 0.0)
