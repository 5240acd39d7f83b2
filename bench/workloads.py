"""The benchmark's three workloads, each loading a different layer.

- ``lownoise-sweep``: the package-default 80x60 sweep run through the
  ``sweep`` command in-process.  Nuclear-norm ADMM (``baselines``) takes
  nearly all of it; the sketch layers do almost nothing.
- ``guarantee``: the criterion-5 recovery-guarantee run (d=457, s=71891).
  The sketch, the row sampling and the ridge solve (``linalg``,
  ``observe``, ``completion``) take all of it, ADMM none.
- ``ratings-entries``: ``ncur`` and ``curplus`` over a joke-ratings file
  of several thousand users.  Entry observations and their containers
  (``observe``, ``baselines``) are built in bulk, ADMM does no work.

A workload writes its inputs from the seed, sets up its ground truth
(timed as set-up), warms up, and then runs identical rounds, which run.py
times.  Every round repeats the same operations from the same seed, so
the error figures are the same in each round and the timings are medians
over rounds.  Afterwards the workload checks its outputs against
computations of its own or against properties the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import statistics
import time

import numpy as np
import yaml

from noisycur import cli, completion, datasets, harness, theory

# The package's default budget is budget_factor * n_rows * rank entry
# prices, with budget_factor 2 (README, "Config file").
BUDGET_FACTOR = 2.0


class WorkloadError(RuntimeError):
    """The program could not run a workload's operation at all."""


def _without_wall_ms(text: str) -> str:
    """CSV text with the wall_ms column removed, the part a re-run must
    reproduce byte for byte."""
    records = list(csv.reader(io.StringIO(text)))
    drop = records[0].index("wall_ms")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerows([r[:drop] + r[drop + 1:] for r in records])
    return out.getvalue()


def _executed(rows, d_grid):
    """One row per executed cell: d-independent algorithms run once per
    trial and are replicated across the d grid, so keep their first d."""
    return [r for r in rows
            if r.algorithm not in harness.D_INDEPENDENT or r.d == d_grid[0]]


def _cell_seconds(records, algorithm, d_grid):
    return statistics.median(
        r.wall_ms / 1e3 for rec in records
        for r in _executed(rec["rows"], d_grid) if r.algorithm == algorithm)


def _best_error(rows, algorithm):
    """Mean rel_error over trials at the d where that mean is lowest."""
    by_d = {}
    for r in rows:
        if r.algorithm == algorithm and r.feasible:
            by_d.setdefault(r.d, []).append(r.rel_error)
    return min(statistics.fmean(errors) for errors in by_d.values())


def _failed_cells(rows, d_grid):
    return sum(1 for r in _executed(rows, d_grid)
               if not r.feasible or not math.isfinite(r.rel_error))


def _row_checks(rows, budget):
    """Per-row properties every sweep must have: errors of feasible cells
    finite and below 1 (the zero estimate scores 1), spend within budget,
    and spend plus leftover equal to the budget."""
    failures = []
    for r in rows:
        tag = f"{r.algorithm} d={r.d} trial={r.trial}"
        if r.feasible and not r.rel_error < 1.0:
            failures.append(f"{tag}: rel_error {r.rel_error} not below 1")
        if r.spent > budget * (1 + 1e-12):
            failures.append(f"{tag}: spent {r.spent} over budget {budget}")
        if abs(r.spent + r.leftover - budget) > 1e-9 * budget:
            failures.append(f"{tag}: spent {r.spent} + leftover "
                            f"{r.leftover} != budget {budget}")
    return failures


def _identical_csv(records):
    first = records[0]["csv"]
    for index, rec in enumerate(records[1:], start=1):
        for name, text in rec["csv"].items():
            if _without_wall_ms(text) != _without_wall_ms(first[name]):
                return [f"{name}: round {index} differs from round 0 "
                        "outside wall_ms"]
    return []


class Workload:
    """Interface run.py drives; see the module docstring."""

    name = ""
    setup_repeats = 1
    # Traced functions the workload's rounds must call; a traced run that
    # sees none of their calls fails instead of reporting zeros.
    expected_calls = frozenset()

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.out = out_dir

    def prepare(self):
        """Write the inputs made from the seed (untimed)."""

    def setup(self):
        """Load or generate the ground truth and the cost model (timed)."""
        raise NotImplementedError

    def warm_up(self, state):
        """Untimed calls at the round's sizes, so lazy set-up is paid."""

    def run_round(self, state) -> dict:
        raise NotImplementedError

    def counts(self, record) -> tuple:
        """(operations attempted, operations failed) in one round."""
        raise NotImplementedError

    def check(self, state, records) -> tuple:
        """(failure messages, extra operations run by the checks)."""
        raise NotImplementedError

    def metrics(self, state, records) -> dict:
        """ncur_cell_ms, slowest_cell_s and ncur_rel_error."""
        raise NotImplementedError

    def figures(self, records) -> dict:
        """Per-algorithm cell times and errors, for the trace."""
        raise NotImplementedError


SWEEP_ALGORITHMS = ("ncur", "curplus", "nna", "chen")


def _sweep_figures(records, d_grid, algorithms):
    """Median cell seconds and mean error per algorithm; zero for the
    algorithms the workload does not run."""
    out = {}
    for alg in SWEEP_ALGORITHMS:
        ran = alg in algorithms
        out[f"harness.{alg}.cell_s"] = (
            _cell_seconds(records, alg, d_grid) if ran else 0.0)
        out[f"harness.{alg}.rel_error"] = (
            _best_error(records[0]["rows"], alg) if ran else 0.0)
    return out


class LownoiseSweep(Workload):
    """The criterion-6/9 configuration: the package default (80x60 rank 4,
    budget 640, sigma_e 0.1, sigma_c sqrt(0.05), alpha 0.2) with all four
    default algorithms over the default d grid, through ``noisycur sweep``.

    Two trims keep a run within its time: the ADMM baselines get one trial
    (an ``nna`` cell costs about a thousand ``ncur`` cells) and a 5-point
    delta-factor grid over the default range instead of 20 points; every
    other ADMM setting is the default.  ``ncur`` and ``curplus`` get 50
    trials, so that their best-over-d errors are steady from seed to seed
    and their cell times sample more than a second of the host.
    """

    name = "lownoise-sweep"
    setup_repeats = 50
    cheap = ("ncur", "curplus")
    cheap_trials = 50
    admm = ("nna", "chen")
    admm_trials = 1
    admm_factors = {"lo": 1e-2, "hi": 1e2, "num": 5}
    expected_calls = frozenset({
        "harness.load_dataset", "harness.emit_csv", "harness.run_single_cell",
        "baselines.nna", "baselines.svt", "baselines.curplus",
        "baselines.chen_observe", "baselines.PartialMatrix.from_observations",
        "completion.draw_noisycur_samples", "completion.solve_from_draw",
        "completion.ridge_solve", "completion.cross_validate_lambda",
        "linalg.apply_sketch_transpose", "linalg.build_sketch",
        "linalg.embedding_distortion", "linalg.orthonormal_basis",
        "observe.sample_columns", "observe.sample_rows_noisy",
        "observe.sample_entries", "datasets.synthetic_lowrank",
    })

    def prepare(self):
        self.config_path = self.out / "lownoise.yaml"
        raw = {"hyper": {alg: {"delta_factors": dict(self.admm_factors)}
                         for alg in self.admm}}
        self.config_path.write_text(yaml.safe_dump(raw, sort_keys=True))

    def setup(self):
        config = dataclasses.replace(harness.load_config(self.config_path),
                                     master_seed=self.seed)
        a, ds = harness.load_dataset(config)
        model = harness.build_cost_model(config, ds.n_rows, ds.rank)
        # run_sweep gives chen the dataset's rank as its scout rank
        hyper = dict(config.hyper)
        hyper["chen"] = {**hyper["chen"], "rank": ds.rank}
        self.d_grid = config.d_grid
        return {"config": config, "a": a, "model": model, "hyper": hyper,
                "budget": BUDGET_FACTOR * ds.n_rows * ds.rank}

    def warm_up(self, state):
        for alg in self.cheap:
            for d in (self.d_grid[0], self.d_grid[-1]):
                harness.run_single_cell(state["a"], state["model"], alg, d,
                                        self.seed, state["hyper"][alg])

    def _sweep(self, algorithms, trials, label):
        out = self.out / f"{label}.csv"
        argv = ["sweep", "--config", str(self.config_path), "--out", str(out),
                "--master-seed", str(self.seed), "--workers", "1",
                "--trials", str(trials), "--algorithms", ",".join(algorithms)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise WorkloadError(f"noisycur {' '.join(argv)} exited {code}")
        return out.read_text(encoding="utf-8"), harness.parse_csv(out)

    def run_round(self, state):
        cheap_csv, cheap_rows = self._sweep(self.cheap, self.cheap_trials,
                                            "cheap")
        admm_csv, admm_rows = self._sweep(self.admm, self.admm_trials, "admm")
        return {"csv": {"cheap": cheap_csv, "admm": admm_csv},
                "rows": cheap_rows + admm_rows}

    def counts(self, record):
        return (len(_executed(record["rows"], self.d_grid)),
                _failed_cells(record["rows"], self.d_grid))

    def check(self, state, records):
        rows = records[0]["rows"]
        failures = _row_checks(rows, state["budget"])
        failures += _identical_csv(records)
        best_ncur = _best_error(rows, "ncur")
        nna_mean = statistics.fmean(
            r.rel_error for r in _executed(rows, self.d_grid)
            if r.algorithm == "nna")
        if not best_ncur < nna_mean:
            failures.append(f"ncur best-over-d mean {best_ncur} does not beat "
                            f"nna mean {nna_mean}")
        failures += self._replay(state, rows)
        return failures, len(SWEEP_ALGORITHMS)

    def _replay(self, state, rows):
        """Re-run one cell per algorithm from its recorded seed."""
        failures = []
        fields = ("s", "rel_error", "abs_error_sq", "spent", "leftover",
                  "hyperparams", "feasible")
        for alg in SWEEP_ALGORITHMS:
            # d-independent cells ran at the first d and were replicated
            d = (self.d_grid[0] if alg in harness.D_INDEPENDENT
                 else self.d_grid[-1])
            row = next(r for r in rows
                       if r.algorithm == alg and r.d == d and r.trial == 0)
            again = harness.run_single_cell(state["a"], state["model"], alg,
                                            row.d, row.seed,
                                            state["hyper"][alg])
            diff = [f for f in fields if again[f] != getattr(row, f)]
            if diff:
                failures.append(f"{alg} d={row.d} seed={row.seed}: replay "
                                f"differs in {diff}")
        return failures

    def metrics(self, state, records):
        return {
            "ncur_cell_ms": 1e3 * _cell_seconds(records, "ncur", self.d_grid),
            "slowest_cell_s": max(_cell_seconds(records, alg, self.d_grid)
                                  for alg in SWEEP_ALGORITHMS),
            "ncur_rel_error": _best_error(records[0]["rows"], "ncur"),
        }

    def figures(self, records):
        return _sweep_figures(records, self.d_grid, SWEEP_ALGORITHMS)


class Guarantee(Workload):
    """``theory.check_recovery_guarantee`` at the criterion-5 setting.

    The matrix is criterion 5's own (seed 42): the guaranteed sample sizes
    d=457 and s=71891 are measured on it, and another matrix would give
    other sizes and so another workload.  The seed drives the trials'
    noise, columns and sketch.  A round is five trials, each one call.
    """

    name = "guarantee"
    setup_repeats = 50
    trials = 5
    matrix_seed = 42
    setting = {"sigma_c": math.sqrt(0.05), "sigma_e": 0.1,
               "ridge_lambda": 1.0, "eps": 0.5, "delta": 0.1}
    hold_share = 0.85
    expected_calls = frozenset({
        "theory.check_recovery_guarantee",
        "completion.draw_noisycur_samples", "completion.solve_from_draw",
        "completion.ridge_solve", "linalg.apply_sketch_transpose",
        "linalg.build_sketch", "linalg.embedding_distortion",
        "linalg.orthonormal_basis", "observe.sample_columns",
        "observe.sample_rows_noisy",
    })

    def setup(self):
        return {"a": datasets.synthetic_lowrank(
            80, 60, 4, rng=np.random.default_rng(self.matrix_seed))}

    def warm_up(self, state):
        report = theory.check_recovery_guarantee(
            state["a"], 1, np.random.default_rng([self.seed, 1]),
            **self.setting)[0]
        state["d"], state["s"] = report.params["d"], report.params["s"]

    def run_round(self, state):
        rng = np.random.default_rng(self.seed)
        times, reports = [], []
        for _ in range(self.trials):
            start = time.perf_counter()
            reports += theory.check_recovery_guarantee(state["a"], 1, rng,
                                                       **self.setting)
            times.append(time.perf_counter() - start)
        return {"times": times, "reports": reports}

    def counts(self, record):
        return len(record["reports"]), 0

    def check(self, state, records):
        failures = []
        for index, rec in enumerate(records):
            held = sum(r.holds for r in rec["reports"])
            if held < self.hold_share * len(rec["reports"]):
                failures.append(f"round {index}: bound held in {held} of "
                                f"{len(rec['reports'])} trials")
            if [r.lhs for r in rec["reports"]] != \
                    [r.lhs for r in records[0]["reports"]]:
                failures.append(f"round {index}: errors differ from round 0")
        # Without noise and with a vanishing ridge the estimator must return
        # the matrix itself: the sampled columns span it and the sketch
        # keeps it.
        a = state["a"]
        cfg = completion.NoisyCurConfig(
            n_columns=state["d"], n_rows=state["s"], sigma_c=0.0,
            sigma_e=0.0, ridge_lambda=1e-10)
        rec = completion.noisycur(a, cfg, np.random.default_rng(self.seed))
        rel = np.linalg.norm(a - rec.estimate) / np.linalg.norm(a)
        if not rel < 1e-6:
            failures.append(f"noiseless run at d={state['d']} s={state['s']} "
                            f"has relative error {rel:.3e}")
        return failures, 1

    def metrics(self, state, records):
        trial_s = statistics.median(t for rec in records
                                    for t in rec["times"])
        norm = float(np.linalg.norm(state["a"]))
        return {
            "ncur_cell_ms": 1e3 * trial_s,
            "slowest_cell_s": trial_s,
            "ncur_rel_error": statistics.fmean(
                math.sqrt(r.lhs) / norm for r in records[0]["reports"]),
        }

    def figures(self, records):
        return _sweep_figures(records, [], ())


class RatingsEntries(Workload):
    """``ncur`` and ``curplus`` over a joke-ratings file, via run_sweep.

    The file is written from the seed in the corpus layout: 5000 users
    who rated all 100 jokes from a rank-5 model pushed into [-10, 10] at
    two decimals, and 50 users with 40 gaps each, spread through the file,
    which the loader must drop.  The budget, 2 * 5000 * 5 entry prices,
    buys each cell 34k to 48k entries.  A round is two sweeps, since a
    ``curplus`` cell costs about twenty ``ncur`` cells: ``curplus`` with
    two trials and ``ncur`` with twenty, so its best-over-d error is
    steady from seed to seed.
    """

    name = "ratings-entries"
    setup_repeats = 3
    users = 5000
    gapped = 50
    jokes = 100
    rank = 5
    d_grid = (4, 8, 12, 16, 20, 26, 32)
    trials = {"ncur": 20, "curplus": 2}
    expected_calls = frozenset({
        "harness.load_dataset", "harness.emit_csv", "harness.run_single_cell",
        "baselines.curplus", "baselines.PartialMatrix.from_observations",
        "completion.draw_noisycur_samples", "completion.solve_from_draw",
        "completion.ridge_solve", "completion.cross_validate_lambda",
        "linalg.apply_sketch_transpose", "linalg.build_sketch",
        "linalg.embedding_distortion", "linalg.orthonormal_basis",
        "observe.sample_columns", "observe.sample_rows_noisy",
        "observe.sample_entries", "datasets.load_jester",
    })

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        total = self.users + self.gapped
        scores = (rng.normal(size=(total, self.rank))
                  @ rng.normal(size=(self.rank, self.jokes)))
        ratings = np.clip(2.5 * scores / math.sqrt(self.rank),
                          -10.0, 10.0).round(2)
        gapped = set(rng.choice(total, size=self.gapped, replace=False)
                     .tolist())
        lines = []
        for i in range(total):
            row = [f"{v:.2f}" for v in ratings[i]]
            if i in gapped:
                for j in rng.choice(self.jokes, size=40, replace=False):
                    row[j] = "99"
            n_rated = sum(1 for v in row if v != "99")
            lines.append(",".join([str(n_rated)] + row))
        self.path = self.out / "jokes.csv"
        self.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.complete = ratings[[i for i in range(total) if i not in gapped]]
        self.raw = {
            "dataset": {"kind": "jester", "path": str(self.path),
                        "rank": self.rank, "name": "jokes"},
            "sweep": {"d_grid": list(self.d_grid), "master_seed": self.seed,
                      "workers": 1},
        }

    def setup(self):
        config = harness.config_from_dict(self.raw)
        a, ds = harness.load_dataset(config)
        model = harness.build_cost_model(config, ds.n_rows, ds.rank)
        sweeps = {alg: dataclasses.replace(config, algorithms=(alg,),
                                           n_trials=trials)
                  for alg, trials in self.trials.items()}
        return {"config": config, "sweeps": sweeps, "a": a, "model": model,
                "budget": BUDGET_FACTOR * ds.n_rows * ds.rank}

    def warm_up(self, state):
        for alg in self.trials:
            for d in (self.d_grid[0], self.d_grid[-1]):
                harness.run_single_cell(state["a"], state["model"], alg, d,
                                        self.seed,
                                        state["config"].hyper[alg])

    def run_round(self, state):
        texts, rows = {}, []
        for alg, config in state["sweeps"].items():
            swept = harness.run_sweep(config)
            out = self.out / f"{alg}.csv"
            harness.emit_csv(swept, out)
            texts[alg] = out.read_text(encoding="utf-8")
            rows += swept
        return {"csv": texts, "rows": rows}

    def counts(self, record):
        return len(record["rows"]), _failed_cells(record["rows"], self.d_grid)

    def check(self, state, records):
        failures = []
        a = state["a"]
        if a.shape != self.complete.shape:
            failures.append(f"loaded shape {a.shape}, wrote "
                            f"{self.complete.shape} complete users")
        elif not np.array_equal(a, self.complete):
            worst = float(np.max(np.abs(a - self.complete)))
            failures.append(f"loaded ratings differ from the file's by up to "
                            f"{worst}")
        failures += _row_checks(records[0]["rows"], state["budget"])
        failures += _identical_csv(records)
        return failures, 0

    def metrics(self, state, records):
        return {
            "ncur_cell_ms": 1e3 * _cell_seconds(records, "ncur", self.d_grid),
            "slowest_cell_s": max(_cell_seconds(records, alg, self.d_grid)
                                  for alg in self.trials),
            "ncur_rel_error": _best_error(records[0]["rows"], "ncur"),
        }

    def figures(self, records):
        return _sweep_figures(records, self.d_grid, tuple(self.trials))


WORKLOADS = {w.name: w for w in (LownoiseSweep, Guarantee, RatingsEntries)}
