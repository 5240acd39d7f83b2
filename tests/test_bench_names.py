"""The benchmark's traced names still exist in the package.

bench/tracer.py wraps the functions it traces by name, and each workload in
bench/workloads.py names the calls a run must see.  A rename in the package
would otherwise show only as a TraceError in a traced benchmark run; here it
fails in seconds.  Both files are loaded from their paths and only read.
"""

import importlib.util
import pathlib

import pytest

import noisycur

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
