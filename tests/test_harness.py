"""Sweep harness: config resolution, budget-priced drivers, CSV output."""

import dataclasses
import json
import math
import platform
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import noisycur.harness as harness
from noisycur.harness import (
    ALGORITHM_NAMES,
    CSV_COLUMNS,
    D_INDEPENDENT,
    ConfigError,
    ExperimentConfig,
    Oracle,
    SweepResult,
    build_cost_model,
    config_from_dict,
    emit_csv,
    error_metrics,
    load_config,
    load_dataset,
    parse_csv,
    read_raw_config,
    resolve_hyper,
    run_single_cell,
    run_sweep,
    summarize,
    write_resolved_config,
)
from noisycur.baselines import PartialMatrix
from noisycur.observe import (
    InfeasiblePlanError,
    TwoCostModel,
    sample_columns,
    sample_entries,
)
from noisycur.rng import cell_seed

TINY_RAW = {
    "dataset": {"kind": "synthetic", "n_rows": 24, "n_cols": 18, "rank": 2},
    "sweep": {"d_grid": [2, 4, 6], "n_trials": 2,
              "algorithms": ["ncur", "nna"], "master_seed": 7},
    "hyper": {
        "ncur": {"lambda_grid": {"lo": 1e-4, "hi": 10.0, "num": 6}},
        "nna": {"delta_factors": {"lo": 0.1, "hi": 10.0, "num": 4},
                "cv_max_iters": 300, "max_iters": 600},
    },
}


def tiny_config(**sweep_overrides):
    raw = json.loads(json.dumps(TINY_RAW))  # deep copy
    raw["sweep"].update(sweep_overrides)
    return config_from_dict(raw)


class TestConfigResolution:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({})
        assert cfg.dataset["kind"] == "synthetic"
        assert cfg.dataset["n_rows"] == 80
        assert cfg.dataset["n_cols"] == 60
        assert cfg.dataset["rank"] == 4
        assert cfg.cost["alpha"] == 0.2
        assert cfg.n_trials == 10
        assert set(cfg.algorithms) <= set(ALGORITHM_NAMES)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"datasets": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"cost": {"price": 2.0}})

    def test_noise_ordering_enforced(self):
        with pytest.raises(ConfigError, match="sigma_c > cost.sigma_e"):
            config_from_dict({"cost": {"sigma_e": 0.5, "sigma_c": 0.5}})

    def test_alpha_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            config_from_dict({"cost": {"alpha": 1.0}})

    def test_d_grid_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            config_from_dict({"sweep": {"d_grid": [4, 2]}})
        with pytest.raises(ConfigError, match="d_grid"):
            config_from_dict({"sweep": {"d_grid": []}})

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithms"):
            config_from_dict({"sweep": {"algorithms": ["svd"]}})

    def test_deleted_nns_rejected(self):
        assert "nns" not in ALGORITHM_NAMES
        with pytest.raises(ConfigError, match="unknown algorithms"):
            config_from_dict({"sweep": {"algorithms": ["nns"]}})
        with pytest.raises(ConfigError, match=r"unknown algorithms: \['nns'\]"):
            config_from_dict({"hyper": {"nns": {"tol": 1e-6}}})

    def test_rank_bound(self):
        with pytest.raises(ConfigError, match="rank exceeds"):
            config_from_dict({"dataset": {"n_rows": 4, "n_cols": 4,
                                          "rank": 5}})

    def test_grid_spec_expansion(self):
        hyper = resolve_hyper("ncur", {"lambda_grid":
                                       {"lo": 0.01, "hi": 100.0, "num": 5}})
        grid = hyper["lambda_grid"]
        assert len(grid) == 5
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(100.0)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_explicit_grid_sorted(self):
        hyper = resolve_hyper("ncur", {"lambda_grid": [5.0, 1.0, 2.0]})
        assert hyper["lambda_grid"] == (1.0, 2.0, 5.0)

    def test_bad_grid_spec(self):
        with pytest.raises(ConfigError, match="grid"):
            resolve_hyper("ncur", {"lambda_grid": {"lo": -1, "hi": 1,
                                                   "num": 3}})
        with pytest.raises(ConfigError, match="grid"):
            resolve_hyper("nna", {"delta_factors": []})

    @pytest.mark.parametrize("algorithm, key, value, message", [
        ("nna", "tol", -1.0, "positive and finite"),
        ("nna", "tol", 0.0, "positive and finite"),
        ("nna", "tol", float("inf"), "positive and finite"),
        ("chen", "cv_tol", float("nan"), "positive and finite"),
        ("nna", "cv_tol", "small", "positive and finite"),
        ("nna", "max_iters", 0, "a positive integer"),
        ("nna", "max_iters", 2.5, "a positive integer"),
        ("chen", "cv_max_iters", -3, "a positive integer"),
        ("ncur", "cv_folds", 0, "a positive integer"),
        ("ncur", "cv_folds", 2.5, "a positive integer"),
        ("chen", "phase1_fraction", 1.5, r"in \(0, 1\)"),
        ("chen", "phase1_fraction", 0.0, r"in \(0, 1\)"),
        ("chen", "rank", 0, "a positive integer or null"),
        ("chen", "rank", 2.5, "a positive integer or null"),
    ])
    def test_bad_hyper_scalar_rejected(self, algorithm, key, value, message):
        with pytest.raises(ConfigError,
                           match=f"hyper.{algorithm}.{key} must be {message}"):
            config_from_dict({"hyper": {algorithm: {key: value}}})

    def test_hyper_scalars_resolved(self):
        # a YAML 1.1 float without a dot reads as a string
        hyper = resolve_hyper("chen", {"tol": "1e-7", "rank": 3,
                                       "phase1_fraction": 0.25})
        assert hyper["tol"] == 1e-7
        assert (hyper["rank"], hyper["phase1_fraction"]) == (3, 0.25)
        assert resolve_hyper("chen")["rank"] is None

    def test_yaml_round_trip(self, tmp_path):
        cfg = tiny_config()
        p = tmp_path / "config.yaml"
        write_resolved_config(cfg, p)
        reloaded = load_config(p)
        assert reloaded == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_malformed_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("dataset: [unclosed\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(p)

    def test_empty_and_non_mapping_files(self, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        assert read_raw_config(empty) == {}
        listed = tmp_path / "list.yaml"
        listed.write_text("[]\n")
        with pytest.raises(ConfigError, match="must be a mapping"):
            read_raw_config(listed)

    def test_file_kind_needs_path(self):
        with pytest.raises(ConfigError, match="needs a path"):
            config_from_dict({"dataset": {"kind": "jester"}})

    @pytest.mark.parametrize("key", ["row_limit", "col_limit"])
    @pytest.mark.parametrize("value", [-5, 0, 2.7, "3"])
    def test_bad_slice_limits_rejected(self, key, value):
        with pytest.raises(ConfigError,
                           match=f"dataset.{key} must be a positive integer"):
            config_from_dict({"dataset": {"kind": "jester", "path": "j.csv",
                                          "rank": 2, key: value}})

    @pytest.mark.parametrize("key, value", [
        ("cost.entry_price", math.inf),
        ("cost.entry_price", "abc"),
        ("cost.budget", math.inf),
        ("cost.budget_factor", "x"),
        ("cost.sigma_c", None),
        ("dataset.mean", "x"),
        ("dataset.std", -1),
        ("dataset.seed", -1),
        ("dataset.seed", "abc"),
        ("dataset.name", 5),
        ("dataset.completion_rank", 0),
        ("sweep.n_trials", True),
        ("sweep.d_grid", [2.7, 4]),
        ("sweep.d_grid", "248"),
        ("sweep.algorithms", "ncur"),
        ("hyper.ncur.lambda_grid", [math.nan, 1.0]),
        ("hyper.ncur.lambda_grid", [math.inf]),
        ("hyper.ncur.lambda_grid", {"lo": 1e-3, "hi": 1.0, "num": 2.5}),
        ("hyper.nna.max_iters", True),
    ])
    def test_bad_value_rejected_naming_its_key(self, key, value):
        raw = value
        for part in reversed(key.split(".")):
            raw = {part: raw}
        with pytest.raises(ConfigError, match="^" + re.escape(key)):
            config_from_dict(raw)

    def test_defaults_pinned(self):
        def log_grid(lo, hi, num):
            return [float(v) for v in np.logspace(lo, hi, num)]

        admm = {"delta_factors": log_grid(-2, 2, 20), "tol": 1e-6,
                "max_iters": 2000, "cv_tol": 1e-5, "cv_max_iters": 800}
        assert config_from_dict({}).to_dict() == {
            "dataset": {"kind": "synthetic", "name": None, "n_rows": 80,
                        "n_cols": 60, "rank": 4, "mean": 5.0, "std": 1.0,
                        "seed": None, "path": None, "row_limit": None,
                        "col_limit": None, "completion_rank": None},
            "cost": {"entry_price": 1.0, "alpha": 0.2, "sigma_e": 0.1,
                     "sigma_c": math.sqrt(0.05), "budget_factor": 2.0,
                     "budget": None},
            "sweep": {"d_grid": [2, 4, 6, 8, 10, 12, 16, 20, 26, 32],
                      "n_trials": 10,
                      "algorithms": ["ncur", "curplus", "nna", "chen"],
                      "master_seed": 0, "workers": 1},
            "hyper": {"ncur": {"lambda_grid": log_grid(-6, 3, 40),
                               "cv_folds": 5},
                      "curplus": {},
                      "nna": admm,
                      "chen": {"phase1_fraction": 0.5, "rank": None,
                               **admm}},
        }

    def test_no_defaults_outside_schema(self):
        # every field comes from config_from_dict, so a hand-built config
        # that leaves one out fails at once, not in run_sweep
        resolved = config_from_dict({})
        given = {key: getattr(resolved, key)
                 for key in ("dataset", "cost", "d_grid", "n_trials",
                             "algorithms", "master_seed", "workers")}
        with pytest.raises(TypeError, match="hyper"):
            ExperimentConfig(**given)


class TestDatasetAndCostModel:
    def test_synthetic_load(self):
        cfg = tiny_config()
        a, ds = load_dataset(cfg)
        assert a.shape == (24, 18)
        assert ds.rank == 2
        assert ds.name == "synthetic"
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[2] < 1e-10 * sv[0]

    def test_synthetic_reproducible_across_calls(self):
        cfg = tiny_config()
        a1, _ = load_dataset(cfg)
        a2, _ = load_dataset(cfg)
        np.testing.assert_array_equal(a1, a2)

    def test_file_kind(self, tmp_path):
        a = np.arange(12.0).reshape(3, 4)
        p = tmp_path / "m.npy"
        np.save(p, a)
        cfg = config_from_dict({
            "dataset": {"kind": "file", "path": str(p), "rank": 2}})
        loaded, ds = load_dataset(cfg)
        np.testing.assert_array_equal(loaded, a)
        assert ds.n_rows == 3 and ds.n_cols == 4

    def test_file_kind_limits_slice(self, tmp_path):
        a = np.arange(40.0).reshape(8, 5)
        p = tmp_path / "m.npy"
        np.save(p, a)
        cfg = config_from_dict({"dataset": {
            "kind": "file", "path": str(p), "rank": 1,
            "row_limit": 2, "col_limit": 3}})
        loaded, ds = load_dataset(cfg)
        np.testing.assert_array_equal(loaded, a[:2, :3])
        assert loaded.flags.c_contiguous
        assert (ds.n_rows, ds.n_cols) == (2, 3)

    def test_jester_limits_slice(self, tmp_path):
        ratings = np.round(np.linspace(-9.0, 9.0, 6 * 100), 2).reshape(6, 100)
        p = tmp_path / "jokes.csv"
        p.write_text("".join(",".join(["100"] + [f"{v:.2f}" for v in row])
                             + "\n" for row in ratings))
        cfg = config_from_dict({"dataset": {
            "kind": "jester", "path": str(p), "rank": 2,
            "row_limit": 4, "col_limit": 7}})
        a, ds = load_dataset(cfg)
        np.testing.assert_array_equal(a, ratings[:4, :7])
        assert (ds.n_rows, ds.n_cols) == (4, 7)

    def test_empty_dataset_rejected(self, tmp_path):
        p = tmp_path / "empty.npy"
        np.save(p, np.zeros((0, 4)))
        cfg = config_from_dict({
            "dataset": {"kind": "file", "path": str(p), "rank": 1}})
        with pytest.raises(ConfigError, match="is empty: shape"):
            load_dataset(cfg)

    @pytest.mark.parametrize("kind", ["jester", "movielens", "file"])
    def test_missing_dataset_file(self, tmp_path, kind):
        cfg = config_from_dict({"dataset": {
            "kind": kind, "path": str(tmp_path / "absent"), "rank": 1}})
        with pytest.raises(ConfigError, match="cannot read"):
            load_dataset(cfg)

    def test_file_kind_not_npy(self, tmp_path):
        p = tmp_path / "m.npy"
        p.write_text("not an array\n")
        cfg = config_from_dict({
            "dataset": {"kind": "file", "path": str(p), "rank": 1}})
        with pytest.raises(ConfigError, match="is not a .npy matrix"):
            load_dataset(cfg)

    def test_movielens_unconverged_completion_warns(self, tmp_path,
                                                    monkeypatch):
        # one rating per user, so no column falls back to the global mean
        p = tmp_path / "u.data"
        p.write_text("".join(f"{u}\t{u % 7 + 1}\t{u % 5 + 1}\t0\n"
                             for u in range(1, 944)))
        real = harness.iterative_svd_complete
        monkeypatch.setattr(harness, "iterative_svd_complete",
                            lambda pm, rank: real(pm, rank, max_iters=1))
        cfg = config_from_dict({
            "dataset": {"kind": "movielens", "path": str(p), "rank": 1}})
        with pytest.warns(RuntimeWarning,
                          match="stopped after 1 iterations without"):
            a, ds = load_dataset(cfg)
        assert a.shape == (1682, 943)

    def test_default_budget_formula(self):
        cfg = tiny_config()
        model = build_cost_model(cfg, n_rows=24, rank=2)
        # budget_factor * m * r * p_e = 2 * 24 * 2
        assert model.budget == pytest.approx(96.0)
        assert model.column_price == pytest.approx(0.2 * 24)

    def test_explicit_budget_wins(self):
        raw = dict(TINY_RAW)
        raw = json.loads(json.dumps(raw))
        raw["cost"] = {"budget": 500.0}
        cfg = config_from_dict(raw)
        model = build_cost_model(cfg, n_rows=24, rank=2)
        assert model.budget == 500.0


class TestErrorMetrics:
    def test_relative(self):
        a = np.eye(3)
        b = np.eye(3) * 1.1
        assert error_metrics(a, b)["rel_error"] == pytest.approx(
            np.linalg.norm(a - b) / np.linalg.norm(a))

    def test_zero_reference(self):
        m = error_metrics(np.zeros((2, 2)), np.ones((2, 2)))
        assert set(m) == {"rel_error", "abs_error_sq"}
        assert m["rel_error"] == pytest.approx(2.0)  # absolute fallback
        assert m["abs_error_sq"] == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_metrics(np.zeros((2, 2)), np.zeros((3, 2)))


class TestRunSingleCell:
    def setup_method(self):
        self.cfg = tiny_config()
        self.a, self.ds = load_dataset(self.cfg)
        self.model = build_cost_model(self.cfg, self.ds.n_rows, self.ds.rank)

    def test_ncur_row_fields(self):
        row = run_single_cell(self.a, self.model, "ncur", 4, seed=11,
                              hyper=self.cfg.hyper["ncur"])
        assert row["feasible"]
        assert row["s"] >= 1
        assert row["spent"] <= self.model.budget + 1e-9
        assert math.isfinite(row["rel_error"])
        hp = json.loads(row["hyperparams"])
        assert "ridge_lambda" in hp
        assert hp["cv_folds"] >= 2

    def test_ncur_charges_every_sampled_entry(self):
        row = run_single_cell(self.a, self.model, "ncur", 4, seed=11,
                              hyper=self.cfg.hyper["ncur"])
        n = self.a.shape[1]
        expected = (4 * self.model.column_price
                    + row["s"] * n * self.model.entry_price)
        assert row["spent"] == pytest.approx(expected, rel=1e-12)
        # six rows and a budget for 21 sketched rows: the sketch repeats
        # rows, and each repeat is still charged its n entries
        model = dataclasses.replace(self.model, budget=400.0)
        row = run_single_cell(self.a[:6], model, "ncur", 2, seed=11,
                              hyper=self.cfg.hyper["ncur"])
        assert row["s"] == 21
        expected = (2 * model.column_price
                    + row["s"] * n * model.entry_price)
        assert row["spent"] == pytest.approx(expected, rel=1e-12)

    def test_rerun_bit_exact(self):
        kw = dict(hyper=self.cfg.hyper["ncur"])
        r1 = run_single_cell(self.a, self.model, "ncur", 4, seed=11, **kw)
        r2 = run_single_cell(self.a, self.model, "ncur", 4, seed=11, **kw)
        assert r1["rel_error"] == r2["rel_error"]
        assert r1["abs_error_sq"] == r2["abs_error_sq"]
        assert r1["spent"] == r2["spent"]
        assert r1["hyperparams"] == r2["hyperparams"]

    def test_infeasible_d_reports_not_raises(self):
        # 24-row dataset: columns cost 4.8 each, budget 96 -> d = 21 breaks
        row = run_single_cell(self.a, self.model, "ncur", 21, seed=0,
                              hyper=self.cfg.hyper["ncur"])
        assert not row["feasible"]
        assert row["s"] == 0
        assert math.isnan(row["rel_error"])
        assert row["spent"] == 0.0
        assert row["leftover"] == self.model.budget
        assert "infeasible" in json.loads(row["hyperparams"])

    def test_curplus_runs(self):
        row = run_single_cell(self.a, self.model, "curplus", 4, seed=3,
                              hyper=resolve_hyper("curplus"))
        assert row["feasible"]
        hp = json.loads(row["hyperparams"])
        assert hp["n_col_samples"] == 2  # ceil(d/2)
        assert hp["n_row_samples"] == 2
        assert hp["n_entry_samples"] >= 1

    def test_nna_ignores_d(self):
        hyper = self.cfg.hyper["nna"]
        r1 = run_single_cell(self.a, self.model, "nna", 2, seed=5,
                             hyper=hyper)
        r2 = run_single_cell(self.a, self.model, "nna", 6, seed=5,
                             hyper=hyper)
        assert r1["rel_error"] == r2["rel_error"]

    def test_chen_needs_rank(self):
        with pytest.raises(ConfigError, match="rank"):
            run_single_cell(self.a, self.model, "chen", 2, seed=0,
                            hyper=resolve_hyper("chen"))

    def test_chen_runs_with_rank(self):
        hyper = resolve_hyper("chen", {
            "rank": 2, "delta_factors": {"lo": 0.1, "hi": 10.0, "num": 3},
            "cv_max_iters": 300, "max_iters": 600})
        row = run_single_cell(self.a, self.model, "chen", 2, seed=9,
                              hyper=hyper)
        assert row["feasible"]
        assert row["spent"] <= self.model.budget + 1e-9
        hp = json.loads(row["hyperparams"])
        assert isinstance(hp["admm_converged"], bool)
        assert 0 <= hp["cv_converged"] <= 3

    def test_nna_replays_after_another_cell(self):
        # the warm-started CV path keeps no state between cells
        hyper = self.cfg.hyper["nna"]
        first = run_single_cell(self.a, self.model, "nna", 2, seed=5,
                                hyper=hyper)
        run_single_cell(self.a, self.model, "nna", 2, seed=6, hyper=hyper)
        again = run_single_cell(self.a, self.model, "nna", 2, seed=5,
                                hyper=hyper)
        del first["wall_ms"], again["wall_ms"]
        assert again == first
        hp = json.loads(first["hyperparams"])
        assert isinstance(hp["admm_converged"], bool)
        assert 0 <= hp["cv_converged"] <= len(hyper["delta_factors"])

    def test_cv_pick_independent_of_grid_order(self):
        hyper = self.cfg.hyper["nna"]
        sigma_e = self.model.sigma_e
        obs = sample_entries(self.a, 96, sigma_e, np.random.default_rng(3))
        pm = PartialMatrix.from_observations(obs)
        grid = tuple(hyper["delta_factors"])
        (up, up_record), (down, down_record) = [
            harness._fit_entry_delta(pm, sigma_e, np.random.default_rng(4),
                                     {**hyper, "delta_factors": factors})
            for factors in (grid, grid[::-1])]
        assert up_record == down_record
        np.testing.assert_array_equal(up.matrix, down.matrix)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            run_single_cell(self.a, self.model, "svd", 2, seed=0)

    def test_refused_row_reports_the_oracles_books(self, monkeypatch):
        # a driver refused after a paid read: the row says what was spent
        def driver(oracle, d, rng, hyper):
            oracle.entries(5, rng)
            oracle.entries(10 * oracle.affordable(1.0), rng)

        monkeypatch.setitem(harness._DRIVERS, "nna", driver)
        row = run_single_cell(self.a, self.model, "nna", 2, seed=0,
                              hyper={})
        assert not row["feasible"]
        assert row["spent"] == 5.0
        assert row["leftover"] == self.model.budget - 5.0
        assert "entry samples" in json.loads(row["hyperparams"])["infeasible"]


def small_model(budget, m=12, entry_price=1.0):
    return TwoCostModel(entry_price=entry_price,
                        column_price=0.2 * m * entry_price, sigma_e=0.1,
                        sigma_c=math.sqrt(0.05), budget=budget)


class TestOracle:
    """Each read charges before it draws; a refused read draws and charges
    nothing."""

    def oracle(self, budget):
        a = np.arange(96.0).reshape(12, 8)
        return Oracle(a, small_model(budget))

    def test_reads_charge_their_prices(self):
        oracle = self.oracle(100.0)
        c_tilde, r_rows, obs = oracle.curplus(3, np.random.default_rng(0))
        assert c_tilde.shape == (12, 2) and r_rows.shape == (1, 8)
        # a full row costs what a column does per entry: 2.4 / 12 * 8
        assert oracle.charges == [("column", 2, pytest.approx(2.4)),
                                         ("row", 1, pytest.approx(1.6)),
                                         ("entry", 93, 1.0)]
        assert len(obs.entry_samples) == 93  # floor(100 - 4.8 - 1.6)
        assert oracle.leftover == pytest.approx(0.6)

    def test_curplus_draws_in_plan_order(self):
        # columns, then rows, then entries, each from the one generator
        a = np.arange(96.0).reshape(12, 8)
        model = small_model(100.0)
        c_tilde, r_rows, obs = Oracle(a, model).curplus(
            3, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        c_ref, _ = sample_columns(a, 2, model.sigma_c, rng)
        index = rng.integers(0, 12, size=1)
        r_ref = a[index] + model.sigma_c * rng.standard_normal((1, 8))
        obs_ref = sample_entries(a, 93, model.sigma_e, rng)
        np.testing.assert_array_equal(c_tilde, c_ref)
        np.testing.assert_array_equal(r_rows, r_ref)
        np.testing.assert_array_equal(obs.entry_samples,
                                      obs_ref.entry_samples)

    def test_unaffordable_curplus_plan_draws_and_charges_nothing(self):
        # the budget buys the plan's 2 columns (4.8) but not its 2 rows
        # (3.2) as well
        oracle = self.oracle(6.0)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(InfeasiblePlanError, match="row"):
            oracle.curplus(4, rng)
        assert oracle.charges == []
        assert oracle.spent == 0.0
        assert rng.bit_generator.state == state

    def test_noisycur_pays_for_every_sketched_entry(self):
        oracle = self.oracle(100.0)
        draw = oracle.noisycur(3, np.random.default_rng(1))
        # 100 - 3 * 2.4 = 92.8 buys 11 rows of 8 entries
        assert draw.sketch.n_samples == 11
        assert oracle.charges == [("column", 3, pytest.approx(2.4)),
                                         ("entry", 88, 1.0)]

    # read, (empty size, overspending size), the refused part; "columns"
    # and "rows" are CUR+ plans refused for their columns and their rows
    READS = {
        "columns": (lambda o, k, rng: o.curplus(k, rng), (0, 80), "column"),
        "rows": (lambda o, k, rng: o.curplus(k, rng), (1, 48), "row"),
        "entries": (lambda o, k, rng: o.entries(k, rng), (0, 91), "entry"),
        "noisycur": (lambda o, k, rng: o.noisycur(k, rng), (0, 40), "column"),
    }

    @pytest.mark.parametrize("kind", sorted(READS))
    @pytest.mark.parametrize("too_many", [False, True],
                             ids=["empty", "overspend"])
    def test_refused_read_draws_and_charges_nothing(self, kind, too_many):
        read, sizes, refused = self.READS[kind]
        oracle = self.oracle(100.0)
        rng = np.random.default_rng(3)
        oracle.entries(10, rng)  # something already spent
        charges, state = list(oracle.charges), rng.bit_generator.state
        with pytest.raises(InfeasiblePlanError, match=f" {refused} "):
            read(oracle, sizes[too_many], rng)
        assert oracle.charges == charges
        assert rng.bit_generator.state == state

    def test_noisycur_without_a_sketched_row_charges_nothing(self):
        # 24 columns leave 100 - 57.6 - 40 = 2.4, less than one 8-entry row
        oracle = self.oracle(100.0)
        rng = np.random.default_rng(4)
        oracle.entries(40, rng)
        state = rng.bit_generator.state
        with pytest.raises(InfeasiblePlanError):
            oracle.noisycur(24, rng)
        assert oracle.charges == [("entry", 40, 1.0)]
        assert rng.bit_generator.state == state

    def test_matrix_is_private(self):
        public = [k for k in vars(self.oracle(10.0)) if not k.startswith("_")]
        assert sorted(public) == ["charges", "model", "spent"]

    def test_violation_raises(self):
        # an overspend is refused at the read, before it is drawn or charged
        oracle = self.oracle(10.0)
        with pytest.raises(InfeasiblePlanError):
            oracle.entries(11, np.random.default_rng(0))
        assert oracle.charges == []
        oracle.entries(10, np.random.default_rng(0))
        assert oracle.leftover == pytest.approx(0.0)

    def test_spent_is_in_order_sum_of_charges(self):
        oracle = self.oracle(100.0)
        rng = np.random.default_rng(5)
        oracle.entries(3, rng)
        oracle.noisycur(1, rng)
        oracle.curplus(2, rng)
        total = 0.0
        for _, count, unit_price in oracle.charges:
            total += count * unit_price
        assert len(oracle.charges) == 6
        assert oracle.spent == total
        assert oracle.leftover == 100.0 - total
        spent, charges = oracle.spent, list(oracle.charges)
        with pytest.raises(InfeasiblePlanError):
            oracle.entries(1, rng)
        assert oracle.spent == spent and oracle.charges == charges


SPEND_HYPER = {
    "ncur": {"lambda_grid": [1e-3, 1e-1, 10.0], "cv_folds": 3},
    "curplus": {},
    "nna": {"delta_factors": [1.0], "max_iters": 200},
    "chen": {"rank": 2, "delta_factors": [1.0], "max_iters": 200},
}


def reads_cost(algorithm, d, row, model, shape):
    """What a row's own record says its reads cost."""
    m, n = shape
    hp = json.loads(row["hyperparams"])
    if algorithm == "ncur":
        return d * model.column_price + row["s"] * n * model.entry_price
    if algorithm == "curplus":
        return (hp["n_col_samples"] * model.column_price
                + hp["n_row_samples"] * model.column_price / m * n
                + hp["n_entry_samples"] * model.entry_price)
    if algorithm == "nna":
        return hp["n_entry_samples"] * model.entry_price
    return (hp["phase1_count"] + hp["phase2_count"]) * model.entry_price


class TestSpendMatchesReads:
    @given(st.floats(1.0, 300.0), st.integers(1, 6),
           st.sampled_from([1.0, 1.3]))
    @settings(max_examples=30, deadline=None)
    def test_spent_is_what_the_reads_cost(self, budget, d, entry_price):
        a = np.random.default_rng(0).standard_normal((12, 8)) + 5.0
        model = small_model(budget, entry_price=entry_price)
        for alg, overrides in SPEND_HYPER.items():
            row = run_single_cell(a, model, alg, d, seed=d,
                                  hyper=resolve_hyper(alg, overrides))
            assert row["spent"] + row["leftover"] == pytest.approx(budget)
            if not row["feasible"]:
                assert row["spent"] == 0.0
                continue
            assert row["spent"] <= budget + 1e-9
            cost = reads_cost(alg, d, row, model, a.shape)
            assert row["spent"] == pytest.approx(cost, rel=1e-12), alg


class TestHoldoutSplit:
    def pm(self):
        obs = sample_entries(np.arange(48.0).reshape(6, 8), 60, 0.1,
                             np.random.default_rng(2))
        return PartialMatrix.from_observations(obs)

    def test_partitions_the_cells(self):
        pm = self.pm()
        train, held = harness._holdout_split(pm, np.random.default_rng(5))
        assert held.size == int(0.2 * pm.n_cells)
        assert train.n_cells + held.size == pm.n_cells
        full = pm.dense_fill(np.nan)
        held_cells = set(zip(pm.rows[held].tolist(), pm.cols[held].tolist()))
        train_cells = set(zip(train.rows.tolist(), train.cols.tolist()))
        assert not held_cells & train_cells
        assert held_cells | train_cells == \
            set(zip(pm.rows.tolist(), pm.cols.tolist()))
        # train keeps each cell's mean and the row-major order
        np.testing.assert_array_equal(train.values,
                                      full[train.rows, train.cols])
        assert (np.diff(train.rows * 8 + train.cols) > 0).all()

    def test_same_rng_same_split(self):
        pm = self.pm()
        first = harness._holdout_split(pm, np.random.default_rng(5))
        again = harness._holdout_split(pm, np.random.default_rng(5))
        np.testing.assert_array_equal(first[1], again[1])
        np.testing.assert_array_equal(first[0].rows, again[0].rows)
        np.testing.assert_array_equal(first[0].values, again[0].values)

    def test_holdout_sse(self):
        pm = self.pm()
        _, held = harness._holdout_split(pm, np.random.default_rng(5))
        estimate = np.zeros(pm.shape)
        assert harness._holdout_sse(estimate, pm, held) == pytest.approx(
            float(np.sum(pm.values[held] ** 2)), rel=1e-15)

    def test_too_few_cells(self):
        pm = PartialMatrix((3, 3), [0, 1], [0, 1], [1.0, 2.0])
        assert harness._holdout_split(pm, np.random.default_rng(0)) == \
            (None, None)


class TestMallocThresholds:
    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or platform.libc_ver()[0] != "glibc",
                        reason="mallopt thresholds are a glibc feature")
    def test_fixed_on_glibc(self):
        assert harness._fix_malloc_thresholds() is True

    def test_no_op_off_linux(self, monkeypatch):
        monkeypatch.setattr(harness.sys, "platform", "darwin")
        assert harness._fix_malloc_thresholds() is False


class TestRunSweep:
    def test_row_grid_and_replication(self):
        cfg = tiny_config()
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 3 * 2  # algs x d values x trials
        assert [r for r in rows] == sorted(
            rows, key=lambda r: (r.dataset, r.algorithm, r.d, r.trial))

        # d-independent rows replicate: same trial -> identical payload
        nna = {(r.d, r.trial): r for r in rows if r.algorithm == "nna"}
        for trial in range(2):
            base = nna[(2, trial)]
            for d in (4, 6):
                rep = nna[(d, trial)]
                assert rep.rel_error == base.rel_error
                assert rep.seed == base.seed
                assert rep.spent == base.spent
                assert rep.hyperparams == base.hyperparams

    def test_seed_keying(self):
        cfg = tiny_config()
        rows = run_sweep(cfg)
        for r in rows:
            key_d = "*" if r.algorithm in D_INDEPENDENT else r.d
            assert r.seed == cell_seed(7, r.algorithm, key_d, r.trial)

    def test_chen_at_a_tiny_budget_is_an_infeasible_row(self):
        # half of 1.5 buys no phase-1 entry: the read is refused, and the
        # sweep goes on past it
        raw = {"dataset": {"kind": "synthetic", "n_rows": 20, "n_cols": 10,
                           "rank": 2},
               "cost": {"budget": 1.5},
               "sweep": {"d_grid": [2], "n_trials": 1,
                         "algorithms": ["nna", "chen"]}}
        rows = {r.algorithm: r for r in run_sweep(config_from_dict(raw))}
        assert not rows["chen"].feasible
        assert rows["chen"].spent == 0.0
        assert "infeasible" in json.loads(rows["chen"].hyperparams)
        assert rows["nna"].feasible
        assert rows["nna"].spent == 1.0

    def test_budget_respected_everywhere(self):
        cfg = tiny_config()
        a, ds = load_dataset(cfg)
        model = build_cost_model(cfg, ds.n_rows, ds.rank)
        for r in run_sweep(cfg):
            assert r.spent <= model.budget + 1e-9
            assert r.spent + r.leftover == pytest.approx(model.budget)

    def test_rerun_cell_from_recorded_seed(self):
        cfg = tiny_config()
        rows = run_sweep(cfg)
        a, ds = load_dataset(cfg)
        model = build_cost_model(cfg, ds.n_rows, ds.rank)
        target = next(r for r in rows
                      if r.algorithm == "ncur" and r.d == 4 and r.trial == 1)
        redo = run_single_cell(a, model, "ncur", 4, target.seed,
                               hyper=cfg.hyper["ncur"])
        assert redo["rel_error"] == target.rel_error
        assert redo["abs_error_sq"] == target.abs_error_sq
        assert redo["s"] == target.s
        assert redo["hyperparams"] == target.hyperparams

    def test_workers_do_not_change_results(self):
        serial = run_sweep(tiny_config(n_trials=1))
        parallel = run_sweep(tiny_config(n_trials=1, workers=2))
        assert len(serial) == len(parallel)
        for r1, r2 in zip(serial, parallel):
            assert r1.rel_error == r2.rel_error
            assert r1.seed == r2.seed
            assert r1.hyperparams == r2.hyperparams


class TestCsvRoundTrip:
    def rows(self):
        return [
            SweepResult(dataset="synthetic", algorithm="ncur", d=2, s=8,
                        trial=0, seed=12345, rel_error=0.125,
                        abs_error_sq=1.0 / 3.0, spent=93.6, leftover=96.0 - 93.6,
                        hyperparams='{"ridge_lambda": 0.1}',
                        wall_ms=12.5, feasible=True),
            SweepResult(dataset="synthetic", algorithm="ncur", d=21, s=0,
                        trial=1, seed=678, rel_error=math.nan,
                        abs_error_sq=math.nan, spent=0.0, leftover=96.0,
                        hyperparams='{"infeasible": "too many columns"}',
                        wall_ms=0.25, feasible=False),
        ]

    def test_round_trip_exact(self, tmp_path):
        # every field comes back equal, floats bit for bit (.17g round-trips
        # float64) and NaN as NaN; without the wall_ms column it reads NaN
        def same(x, y):
            return x == y or (isinstance(x, float) and math.isnan(x)
                              and math.isnan(y))

        for with_wall in (True, False):
            p = tmp_path / f"out-{with_wall}.csv"
            emit_csv(self.rows(), p, include_wall_time=with_wall)
            back = parse_csv(p)
            assert len(back) == 2
            for row, got in zip(self.rows(), back):
                for name in CSV_COLUMNS:
                    want = getattr(row, name)
                    if name == "wall_ms" and not with_wall:
                        want = math.nan
                    assert same(getattr(got, name), want), (name, with_wall)
                    assert type(getattr(got, name)) is type(want), name

    def test_header_matches_schema(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_csv([], p)
        assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_wall_time_column_dropped(self, tmp_path):
        p = tmp_path / "out.csv"
        emit_csv(self.rows(), p, include_wall_time=False)
        header = p.read_text().splitlines()[0]
        assert "wall_ms" not in header
        back = parse_csv(p)
        assert math.isnan(back[0].wall_ms)

    def test_byte_identical_without_wall_time(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(self.rows(), p1, include_wall_time=False)
        emit_csv(self.rows(), p2, include_wall_time=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_csv_reruns_byte_identical(self, tmp_path):
        cfg = tiny_config(n_trials=1, d_grid=[2, 4], algorithms=["ncur"])
        p1 = tmp_path / "r1.csv"
        p2 = tmp_path / "r2.csv"
        emit_csv(run_sweep(cfg), p1, include_wall_time=False)
        emit_csv(run_sweep(cfg), p2, include_wall_time=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_error_names_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write CSV"):
            emit_csv([], tmp_path / "no" / "such" / "dir" / "x.csv")


def summary_row(d, trial, err, wall_ms=1.0, seed=None, algorithm="ncur"):
    """A feasible sweep row, or an infeasible one when err is NaN; each cell
    has its own seed unless one is given."""
    if seed is None:
        seed = cell_seed(0, algorithm, d, trial)
    feasible = not math.isnan(err)
    return SweepResult(
        dataset="synthetic", algorithm=algorithm, d=d, s=5 * feasible,
        trial=trial, seed=seed, rel_error=err, abs_error_sq=err**2,
        spent=1.0 * feasible, leftover=1.0 - feasible, hyperparams="{}",
        wall_ms=wall_ms, feasible=feasible)


class TestSummarize:
    """summarize's mean error-vs-d curve, its best d and whether that d is
    interior."""

    def fake_rows(self, errors_by_d):
        return [summary_row(d, trial, err)
                for d, errors in errors_by_d.items()
                for trial, err in enumerate(errors)]

    def test_interior_minimum(self):
        rows = self.fake_rows({2: [5.0, 5.2], 4: [2.0, 2.1], 6: [4.0, 3.9]})
        ncur = summarize(rows)["ncur"]
        assert ncur["interior"]
        assert ncur["best_d"] == 4
        assert ncur["means"][4] == pytest.approx(2.05)

    def test_endpoint_minimum(self):
        rows = self.fake_rows({2: [5.0], 4: [4.0], 6: [3.0]})
        ncur = summarize(rows)["ncur"]
        assert not ncur["interior"]
        assert ncur["best_d"] == 6

    def test_tie_prefers_smaller_d(self):
        rows = self.fake_rows({2: [2.0], 4: [2.0], 6: [5.0]})
        ncur = summarize(rows)["ncur"]
        assert ncur["best_d"] == 2
        assert not ncur["interior"]

    def test_infeasible_rows_excluded(self):
        rows = self.fake_rows({2: [5.0], 4: [2.0], 6: [4.0], 8: [math.nan]})
        ncur = summarize(rows)["ncur"]
        assert 8 not in ncur["means"]
        assert ncur["interior"] and ncur["best_d"] == 4

    def test_needs_three_points(self):
        ncur = summarize(self.fake_rows({2: [3.0], 4: [2.0]}))["ncur"]
        assert ncur["best_d"] == 4
        assert not ncur["interior"]

    def test_no_feasible_cell(self):
        ncur = summarize([summary_row(2, 0, math.nan)])["ncur"]
        assert ncur["means"] == {} and ncur["best_d"] is None
        assert not ncur["interior"]


class TestSummaryWallTime:
    def test_median_counts_infeasible_cells(self):
        rows = [summary_row(2, 0, 1.0, wall_ms=5.0),
                summary_row(4, 0, 1.0, wall_ms=5.0),
                summary_row(6, 0, math.nan, wall_ms=1.0)]
        assert summarize(rows)["ncur"]["median_wall_ms"] == 5.0

    def test_copies_of_a_cell_count_once(self):
        # one cell copied over three d values and two cells at one d: three
        # cells, so the median is 9, where the five rows' median is 1
        rows = [summary_row(d, 0, 0.5, wall_ms=1.0, seed=11, algorithm="nna")
                for d in (2, 4, 6)]
        rows += [summary_row(2, trial, 0.5, wall_ms=9.0, seed=seed,
                             algorithm="nna")
                 for trial, seed in ((1, 12), (2, 13))]
        assert summarize(rows)["nna"]["median_wall_ms"] == 9.0

    def test_one_entry_per_algorithm(self):
        rows = [summary_row(2, 0, 1.0, wall_ms=2.0),
                summary_row(2, 0, 3.0, wall_ms=7.0, algorithm="nna")]
        summary = summarize(rows)
        assert set(summary) == {"ncur", "nna"}
        assert summary["ncur"]["median_wall_ms"] == 2.0
        assert summary["nna"]["means"] == {2: 3.0}
        assert summary["nna"]["median_wall_ms"] == 7.0
