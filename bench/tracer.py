"""Span tracing from outside the package, for the benchmark's traced runs.

The tracer replaces each traced public function with a wrapper at every
``noisycur`` module namespace that holds it (``completion`` imports
``build_sketch`` by name, so patching ``linalg`` alone would miss those
calls), records one span per call (name, start, end, parent) in memory,
and puts the originals back when the round ends.  Nothing in ``src/``
knows about it.
"""

from __future__ import annotations

import csv
import functools
import itertools
import statistics
import sys
import time
from collections import defaultdict

import noisycur

# Traced functions by module.  A dotted name is a method: the class
# attribute is patched once, since every module shares the class object.
TRACED = {
    "harness": ("load_dataset", "emit_csv", "run_single_cell"),
    "baselines": ("nna", "svt", "curplus", "chen_observe",
                  "PartialMatrix.from_observations"),
    "completion": ("draw_noisycur_samples", "solve_from_draw", "ridge_solve",
                   "cross_validate_lambda"),
    "linalg": ("apply_sketch_transpose", "build_sketch",
               "embedding_distortion", "orthonormal_basis"),
    "observe": ("sample_columns", "sample_rows_noisy", "sample_entries"),
    "datasets": ("load_jester", "synthetic_lowrank"),
    "theory": ("check_recovery_guarantee",),
}


class TraceError(RuntimeError):
    """A traced run that cannot be reported faithfully."""


def _count_admm(counters, result):
    counters["baselines.admm.solves"] += 1
    counters["baselines.admm.converged"] += int(result.converged)
    counters["baselines.admm.iterations"] += result.iterations


def _count_sketch_bytes(counters, result):
    counters["linalg.apply_sketch_transpose.computed_bytes"] += result.nbytes


def _count_entries(counters, result):
    counters["observe.sample_entries.count"] += len(result.entry_samples)


# Counts read off a traced function's return value, where the work happens.
RESULT_COUNTERS = {
    "baselines.nna": _count_admm,
    "linalg.apply_sketch_transpose": _count_sketch_bytes,
    "observe.sample_entries": _count_entries,
}


class Tracer:
    """Records spans of the traced functions during traced rounds.

    Spans nest by call order (the benchmark is single-threaded), so a
    span's parent is the innermost traced call still open when it starts,
    and its self time is its duration minus that of its direct children.
    """

    def __init__(self):
        self.spans = []          # (round, id, parent, name, start, end)
        self._stack = []         # open spans: [id, name, start, child_s]
        self._patches = []       # (owner, attribute, original)
        self._ids = itertools.count()
        self._round = None
        self._totals = None
        self._counters = None

    def begin_round(self, index: int):
        """Install the wrappers and start a round's aggregates."""
        self._round = index
        self._totals = defaultdict(lambda: (0, 0.0, 0.0))
        self._counters = defaultdict(int)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "noisycur" or name.startswith("noisycur.")]
        for module_name, functions in TRACED.items():
            home = getattr(noisycur, module_name)
            for qualname in functions:
                span_name = f"{module_name}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, classmethod(
                        self._wrap(span_name, original.__func__)))
                    continue
                original = getattr(home, qualname)
                wrapped = self._wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapped)

    def end_round(self) -> dict:
        """Put the originals back; per-function (calls, s, self_s) plus
        the result counters of the round."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return {"spans": dict(self._totals), "counters": dict(self._counters)}

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn):
        count = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._close(frame, end)
            if count is not None:
                count(self._counters, result)
            return result

        return traced

    def _close(self, frame, end):
        span_id, name, start, child_s = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((self._round, span_id,
                           -1 if parent is None else parent[0],
                           name, start, end))
        calls, total, self_s = self._totals[name]
        self._totals[name] = (calls + 1, total + duration,
                              self_s + duration - child_s)

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["round", "id", "parent", "name", "start", "end"])
            writer.writerows(self.spans)


def layer_metrics(traced_rounds, expected_calls):
    """Per-layer metrics from the aggregates of the traced rounds.

    Counts must repeat exactly from round to round, since every round runs
    the same operations; times are medians over the rounds.  A function
    the workload is known to call that shows no calls means a wrapper was
    bypassed, which is an error rather than a zero.
    """
    first = traced_rounds[0]
    for other in traced_rounds[1:]:
        calls_a = {k: v[0] for k, v in first["spans"].items()}
        calls_b = {k: v[0] for k, v in other["spans"].items()}
        if calls_a != calls_b or first["counters"] != other["counters"]:
            raise TraceError("call counts differ between traced rounds")
    missing = sorted(name for name in expected_calls
                     if first["spans"].get(name, (0,))[0] == 0)
    if missing:
        raise TraceError(f"no calls seen through {missing}; a refactor may "
                         "bypass these wrappers")

    def median_of(name, slot):
        return statistics.median(r["spans"].get(name, (0, 0.0, 0.0))[slot]
                                 for r in traced_rounds)

    def calls(name):
        return first["spans"].get(name, (0,))[0]

    counters = first["counters"]
    solves = counters.get("baselines.admm.solves", 0)
    return {
        "harness.run_single_cell.calls": calls("harness.run_single_cell"),
        "harness.run_single_cell.self_s":
            median_of("harness.run_single_cell", 2),
        "harness.load_dataset.s": median_of("harness.load_dataset", 1),
        "harness.emit_csv.s": median_of("harness.emit_csv", 1),
        "baselines.nna.calls": calls("baselines.nna"),
        "baselines.nna.self_s": median_of("baselines.nna", 2),
        "baselines.svt.calls": calls("baselines.svt"),
        "baselines.svt.s": median_of("baselines.svt", 1),
        "baselines.admm.iterations":
            counters.get("baselines.admm.iterations", 0),
        "baselines.admm.converged_ratio":
            counters.get("baselines.admm.converged", 0) / solves
            if solves else 0.0,
        "baselines.curplus.s": median_of("baselines.curplus", 1),
        "baselines.chen_observe.s": median_of("baselines.chen_observe", 1),
        "baselines.PartialMatrix.from_observations.s":
            median_of("baselines.PartialMatrix.from_observations", 1),
        "completion.draw_noisycur_samples.s":
            median_of("completion.draw_noisycur_samples", 1),
        "completion.solve_from_draw.self_s":
            median_of("completion.solve_from_draw", 2),
        "completion.ridge_solve.s": median_of("completion.ridge_solve", 1),
        "completion.cross_validate_lambda.calls":
            calls("completion.cross_validate_lambda"),
        "completion.cross_validate_lambda.s":
            median_of("completion.cross_validate_lambda", 1),
        "linalg.apply_sketch_transpose.s":
            median_of("linalg.apply_sketch_transpose", 1),
        "linalg.apply_sketch_transpose.computed_bytes":
            counters.get("linalg.apply_sketch_transpose.computed_bytes", 0),
        "linalg.build_sketch.s": median_of("linalg.build_sketch", 1),
        "linalg.embedding_distortion.s":
            median_of("linalg.embedding_distortion", 1),
        "linalg.orthonormal_basis.s": median_of("linalg.orthonormal_basis", 1),
        "observe.sample_columns.s": median_of("observe.sample_columns", 1),
        "observe.sample_rows_noisy.s": median_of("observe.sample_rows_noisy", 1),
        "observe.sample_entries.s": median_of("observe.sample_entries", 1),
        "observe.sample_entries.count":
            counters.get("observe.sample_entries.count", 0),
        "datasets.load_jester.s": median_of("datasets.load_jester", 1),
        "datasets.synthetic_lowrank.s":
            median_of("datasets.synthetic_lowrank", 1),
        "theory.check_recovery_guarantee.self_s":
            median_of("theory.check_recovery_guarantee", 2),
    }
