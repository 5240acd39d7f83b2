"""Command-line interface: exit codes, file outputs, subcommand plumbing."""

import numpy as np
import pytest
import yaml

import noisycur.harness as harness
from noisycur.cli import main
from noisycur.datasets import synthetic_lowrank
from noisycur.harness import parse_csv

TINY_SWEEP = {
    "dataset": {"kind": "synthetic", "n_rows": 24, "n_cols": 18, "rank": 2},
    "sweep": {"d_grid": [2, 4, 6], "n_trials": 1, "algorithms": ["ncur"],
              "master_seed": 3},
    "hyper": {"ncur": {"lambda_grid": {"lo": 1e-4, "hi": 10.0, "num": 5}}},
}


def write_config(tmp_path, payload=TINY_SWEEP, name="config.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload))
    return p


def no_cells(*args, **kwargs):
    raise AssertionError("a cell ran")


class TestGenerate:
    def test_writes_expected_matrix(self, tmp_path, capsys):
        out = tmp_path / "a.npy"
        code = main(["generate", "--rows", "12", "--cols", "9", "--rank", "2",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        a = np.load(out)
        expected = synthetic_lowrank(12, 9, 2, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a, expected)
        assert "12x9" in capsys.readouterr().out

    def test_bad_rank(self, tmp_path):
        code = main(["generate", "--rows", "4", "--cols", "4", "--rank", "9",
                     "--out", str(tmp_path / "a.npy")])
        assert code == 1

    def test_missing_required_option(self, capsys):
        assert main(["generate"]) == 1
        assert "Missing option" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--std", "dataset.std"),
                                           ("--seed", "dataset.seed")])
    def test_negative_std_or_seed_exits_one(self, tmp_path, capsys, flag,
                                            key):
        code = main(["generate", flag, "-1", "--out", str(tmp_path / "a.npy")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "a.npy").exists()


class TestSweep:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "results.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3  # 1 alg x 3 d x 1 trial
        assert all(r.feasible for r in rows)
        resolved = tmp_path / "results.config.yaml"
        assert resolved.exists()
        resolved_cfg = yaml.safe_load(resolved.read_text())
        assert resolved_cfg["sweep"]["master_seed"] == 3
        assert resolved_cfg["cost"]["alpha"] == 0.2
        assert "wrote 3 rows" in capsys.readouterr().out

    def test_cli_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--trials", "2", "--d-grid", "2,4",
                     "--master-seed", "11"])
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 4  # 2 d x 2 trials
        assert {r.d for r in rows} == {2, 4}
        resolved = yaml.safe_load((tmp_path / "o.config.yaml").read_text())
        assert resolved["sweep"]["master_seed"] == 11
        assert resolved["sweep"]["n_trials"] == 2

    def test_no_wall_time_byte_stable(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        for out in (out1, out2):
            assert main(["sweep", "--config", str(cfg), "--out", str(out),
                         "--no-wall-time"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "wall_ms" not in out1.read_text().splitlines()[0]

    def test_bad_d_grid_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv"), "--d-grid", "2,x"])
        assert code == 1
        assert "--d-grid" in capsys.readouterr().err

    def test_missing_config(self, tmp_path):
        code = main(["sweep", "--config", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("hyper", [
        {"nna": {"tol": -1.0}},
        {"nna": {"max_iters": 0}},
        {"chen": {"phase1_fraction": 1.5}},
    ])
    def test_bad_hyper_value_exits_one_before_any_cell(
            self, tmp_path, capsys, monkeypatch, hyper):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "run_single_cell", no_cells)
        cfg = write_config(tmp_path, {**TINY_SWEEP, "hyper": hyper})
        code = main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv"), "--trials", "1",
                     "--algorithms", "nna,chen"])
        assert code == 1
        assert "config error: hyper." in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("cost", "entry_price", "abc"),
        ("cost", "sigma_c", None),
        ("cost", "budget_factor", "x"),
        ("dataset", "seed", -1),
        ("sweep", "algorithms", "ncur"),
        ("sweep", "d_grid", "248"),
    ])
    def test_bad_value_exits_one_before_any_cell(
            self, tmp_path, capsys, monkeypatch, section, key, value):
        monkeypatch.setattr(harness, "run_single_cell", no_cells)
        raw = {**TINY_SWEEP, section: {**TINY_SWEEP.get(section, {}),
                                       key: value}}
        code = main(["sweep", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"config error: {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["jester", "file"])
    def test_missing_dataset_file_exits_one_before_any_cell(
            self, tmp_path, capsys, monkeypatch, kind):
        monkeypatch.setattr(harness, "run_single_cell", no_cells)
        raw = {**TINY_SWEEP, "dataset": {
            "kind": kind, "path": str(tmp_path / "absent"), "rank": 2}}
        code = main(["sweep", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_ratings_file_exits_one(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(harness, "run_single_cell", no_cells)
        bad = tmp_path / "jokes.csv"
        bad.write_text("2,1.0,2.0\n")
        raw = {**TINY_SWEEP, "dataset": {
            "kind": "jester", "path": str(bad), "rank": 2}}
        code = main(["sweep", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"cannot read dataset {bad}: line 1: expected" in err

    def test_one_dimensional_npy_exits_one(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(harness, "run_single_cell", no_cells)
        bad = tmp_path / "bad.npy"
        np.save(bad, np.arange(3.0))
        raw = {**TINY_SWEEP, "dataset": {
            "kind": "file", "path": str(bad), "rank": 2}}
        code = main(["sweep", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: {bad} must be 2-D" in err

    def test_null_sweep_section_takes_defaults(self, tmp_path):
        cfg = write_config(tmp_path, {**TINY_SWEEP, "sweep": None})
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--trials", "1", "--d-grid", "2",
                     "--algorithms", "ncur"])
        assert code == 0
        assert len(parse_csv(out)) == 1
        resolved = yaml.safe_load((tmp_path / "o.config.yaml").read_text())
        defaults = harness.config_from_dict({}).to_dict()["sweep"]
        assert resolved["sweep"]["master_seed"] == defaults["master_seed"]

    def test_unknown_config_key(self, tmp_path):
        cfg = write_config(tmp_path, {"cost": {"prices": 1}})
        code = main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestCheck:
    def test_clean_seed_passes(self, capsys):
        code = main(["check", "--seed", "2", "--instances", "20",
                     "--skip-probabilistic"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ridge-resolvent: 20/20 hold" in out
        assert "all checks passed" in out

    def test_violating_seed_exits_three(self, capsys, shrunken_sketch):
        # shrunken_sketch breaks the deterministic bounds on purpose
        code = main(["check", "--seed", "0", "--instances", "40",
                     "--skip-probabilistic"])
        assert code == 3
        captured = capsys.readouterr()
        assert "hold" in captured.out  # per-battery tallies still printed
        assert "violation" in captured.err

    def test_bad_arguments(self):
        assert main(["check", "--instances", "0"]) == 1


class TestCv:
    def test_curve_and_choice(self, tmp_path, capsys):
        data = tmp_path / "a.npy"
        assert main(["generate", "--rows", "30", "--cols", "20", "--rank",
                     "3", "--seed", "1", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["cv", "--data", str(data), "-d", "5", "-s", "15",
                     "--sigma-c", "0.3", "--sigma-e", "0.05",
                     "--lo", "1e-4", "--hi", "10", "--num", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "<-- chosen" in out
        assert out.count("\n") >= 8

    def test_single_point_grid_skips_cv(self, tmp_path, capsys):
        data = tmp_path / "a.npy"
        main(["generate", "--rows", "20", "--cols", "12", "--rank", "2",
              "--out", str(data)])
        capsys.readouterr()
        code = main(["cv", "--data", str(data), "-d", "3", "-s", "8",
                     "--sigma-c", "0.2", "--lo", "1.0", "--hi", "1.0",
                     "--num", "1"])
        assert code == 0
        assert "no cross-validation split" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--lo", "10", "--hi", "1"],
        ["--lo", "0"],
        ["--num", "0"],
        ["--folds", "0"],
    ])
    def test_bad_grid_or_folds_exit_one(self, tmp_path, capsys, args):
        code = main(["cv", "--data", str(tmp_path / "no.npy"), "-d", "3",
                     "-s", "8", "--sigma-c", "0.2", *args])
        assert code == 1
        assert "hyper.ncur." in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path):
        code = main(["cv", "--data", str(tmp_path / "no.npy"), "-d", "3",
                     "-s", "8", "--sigma-c", "0.2"])
        assert code == 1


class TestInfo:
    def test_data_report(self, tmp_path, capsys):
        data = tmp_path / "a.npy"
        main(["generate", "--rows", "16", "--cols", "12", "--rank", "2",
              "--out", str(data)])
        capsys.readouterr()
        code = main(["info", "--data", str(data), "--rank", "2",
                     "--sigma-c", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "16 x 12" in out
        assert "rank" in out
        assert "snr" in out.lower()

    def test_data_report_takes_one_svd(self, tmp_path, capsys, svd_shapes):
        # the rank, the printed singular values and the coherence all come
        # from one SVD of the matrix
        data = tmp_path / "a.npy"
        np.save(data, synthetic_lowrank(16, 12, 2,
                                        rng=np.random.default_rng(0)))
        svd_shapes.clear()  # the generator's own SVD
        assert main(["info", "--data", str(data)]) == 0
        assert svd_shapes == [(16, 12)]
        assert "numerical rank: 2\n" in capsys.readouterr().out

    def test_config_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["info", "--config", str(cfg)])
        assert code == 0
        assert "24 x 18" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, tmp_path):
        cfg = write_config(tmp_path)
        data = tmp_path / "a.npy"
        np.save(data, np.eye(3))
        assert main(["info"]) == 1
        assert main(["info", "--data", str(data),
                     "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("rank", ["0", "9"])
    def test_rank_out_of_range_exits_one(self, tmp_path, capsys, rank):
        data = tmp_path / "a.npy"
        np.save(data, np.arange(48.0).reshape(8, 6))
        assert main(["info", "--data", str(data), "--rank", rank]) == 1
        assert "rank must be in [1, 6]" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path):
        assert main(["info", "--data", str(tmp_path / "none.npy")]) == 1

    def test_one_dimensional_data_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.npy"
        np.save(bad, np.arange(3.0))
        assert main(["info", "--data", str(bad)]) == 1
        assert f"config error: {bad} must be 2-D" in capsys.readouterr().err

    @pytest.mark.parametrize("name, entries, message", [
        ("bad.npy", np.array([["a", "b"]]), "holds <U1 entries"),
        ("bad.npy", np.eye(2) * 1j, "holds complex128 entries"),
        ("bad.npz", None, "is an .npz archive"),
    ], ids=["strings", "complex", "archive"])
    def test_non_real_data_file_exits_one_naming_file(
            self, tmp_path, capsys, name, entries, message):
        bad = tmp_path / name
        if entries is None:
            np.savez(bad, x=np.eye(2))
        else:
            np.save(bad, entries)
        assert main(["info", "--data", str(bad)]) == 1
        assert f"config error: {bad} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", [[], ["--rank", "2"]],
                             ids=["numerical-rank", "given-rank"])
    def test_zero_matrix_exits_one_naming_file(self, tmp_path, capsys, rank):
        data = tmp_path / "zeros.npy"
        np.save(data, np.zeros((5, 4)))
        assert main(["info", "--data", str(data), *rank]) == 1
        err = capsys.readouterr().err
        assert f"{data}: leverage scores of the zero matrix" in err


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "No such command" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("generate", "sweep", "check", "cv", "info"):
            assert sub in out
