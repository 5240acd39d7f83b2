"""The package still has every name the benchmark uses, and the
benchmark's sweep figures still agree with the package's summary.

bench/tracer.py wraps the functions it traces by name, each workload in
bench/workloads.py names the calls a run must see, and the workloads call
the package's modules and compare the fields of a replayed cell.  A rename
or a cut in the package would otherwise show only as a failed benchmark
run; here it fails in seconds.  bench/workloads.py also keeps its own
copies of the best mean error and the median cell time that
harness.summarize computes; until the benchmark reads the summary itself,
the two are checked against each other here.  Both files are loaded from
their paths and only read.
"""

import ast
import importlib.util
import pathlib

import pytest

import noisycur
from noisycur.harness import (
    CSV_COLUMNS,
    build_cost_model,
    config_from_dict,
    load_dataset,
    run_single_cell,
    run_sweep,
    summarize,
)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")
TRACED = sorted(f"{module}.{name}" for module, names in tracer.TRACED.items()
                for name in names)
SOURCE = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))


def _module_attributes():
    """"module.attribute" for every attribute bench/workloads.py takes from
    a noisycur module it imports by name."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(SOURCE)
               if isinstance(node, ast.ImportFrom)
               and node.module == "noisycur"
               for alias in node.names}
    return sorted({f"{modules[node.value.id]}.{node.attr}"
                   for node in ast.walk(SOURCE)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def _replay_fields():
    """The row fields that LownoiseSweep._replay compares after a re-run."""
    replay = next(node for node in ast.walk(SOURCE)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_replay")
    assign = next(node for node in ast.walk(replay)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "fields"
                          for t in node.targets))
    return ast.literal_eval(assign.value)


def _small_config():
    """A 24 x 18 sweep of the four benchmarked algorithms, trimmed grids."""
    admm = {"delta_factors": {"lo": 0.1, "hi": 10.0, "num": 3},
            "cv_max_iters": 200, "max_iters": 400}
    return config_from_dict({
        "dataset": {"n_rows": 24, "n_cols": 18, "rank": 2},
        "sweep": {"d_grid": [2, 4, 6], "n_trials": 2, "master_seed": 3,
                  "algorithms": list(workloads.SWEEP_ALGORITHMS)},
        "hyper": {"ncur": {"lambda_grid": {"lo": 1e-4, "hi": 10.0,
                                           "num": 6}},
                  "nna": admm, "chen": admm}})


def _resolve(dotted):
    """The package attribute a span name such as "linalg.build_sketch" or
    "baselines.PartialMatrix.from_observations" stands for."""
    owner = noisycur
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_is_callable(name):
    assert callable(_resolve(name))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_expected_calls_are_traced(workload):
    expected = workloads.WORKLOADS[workload].expected_calls
    assert expected <= set(TRACED), sorted(expected - set(TRACED))


@pytest.mark.parametrize("name", _module_attributes())
def test_workload_module_attribute_exists(name):
    _resolve(name)  # AttributeError names what is missing


def test_workload_scan_sees_the_calls():
    names = _module_attributes()
    assert {"harness.run_single_cell", "cli.main",
            "theory.check_recovery_guarantee"} <= set(names), names


def test_cell_row_holds_replayed_fields():
    fields = _replay_fields()
    assert set(fields) <= set(CSV_COLUMNS)
    config = _small_config()
    a, ds = load_dataset(config)
    model = build_cost_model(config, ds.n_rows, ds.rank)
    hyper = {**config.hyper, "chen": {**config.hyper["chen"],
                                      "rank": ds.rank}}
    for alg in workloads.SWEEP_ALGORITHMS:
        row = run_single_cell(a, model, alg, config.d_grid[-1], 5, hyper[alg])
        assert row["feasible"] and set(fields) <= set(row), (alg, row)
    # a refused read still fills every compared field
    refused = run_single_cell(a, model, "ncur", 1000, 5, hyper["ncur"])
    assert not refused["feasible"] and set(fields) <= set(refused)


def test_sweep_figures_match_summary():
    config = _small_config()
    rows = run_sweep(config)
    summary = summarize(rows)
    assert set(summary) == set(workloads.SWEEP_ALGORITHMS)
    for alg, figures in summary.items():
        assert workloads._best_error(rows, alg) == pytest.approx(
            figures["means"][figures["best_d"]], rel=1e-12, abs=0)
        seconds = workloads._cell_seconds([{"rows": rows}], alg,
                                          config.d_grid)
        assert seconds == pytest.approx(figures["median_wall_ms"] / 1e3,
                                        rel=1e-12, abs=0)
