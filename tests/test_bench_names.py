"""The benchmark's traced names still exist in the package, and its sweep
figures still agree with the package's summary.

bench/tracer.py wraps the functions it traces by name, and each workload in
bench/workloads.py names the calls a run must see.  A rename in the package
would otherwise show only as a TraceError in a traced benchmark run; here it
fails in seconds.  bench/workloads.py also keeps its own copies of the best
mean error and the median cell time that harness.summarize computes; until
the benchmark reads the summary itself, the two are checked against each
other here.  Both files are loaded from their paths and only read.
"""

import importlib.util
import pathlib

import pytest

import noisycur
from noisycur.harness import config_from_dict, run_sweep, summarize

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


def test_sweep_figures_match_summary():
    admm = {"delta_factors": {"lo": 0.1, "hi": 10.0, "num": 3},
            "cv_max_iters": 200, "max_iters": 400}
    config = config_from_dict({
        "dataset": {"n_rows": 24, "n_cols": 18, "rank": 2},
        "sweep": {"d_grid": [2, 4, 6], "n_trials": 2, "master_seed": 3,
                  "algorithms": list(workloads.SWEEP_ALGORITHMS)},
        "hyper": {"ncur": {"lambda_grid": {"lo": 1e-4, "hi": 10.0,
                                           "num": 6}},
                  "nna": admm, "chen": admm}})
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
