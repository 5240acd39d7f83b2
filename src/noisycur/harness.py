"""Budget sweep harness: configuration, per-cell execution, CSV emission.

A sweep runs every (algorithm, d, trial) cell of an experiment grid under
one two-cost budget, selecting hyperparameters by cross-validation inside
each cell, and returns one row per cell.  Algorithms whose output does not
depend on the column-sample count d (pure entry samplers) execute once per
trial and are replicated across the d axis so every curve shares an x-grid.
A cell reads its matrix only through an Oracle, which charges the budget
before every read and refuses a read the budget cannot pay for.

Determinism contract: each cell owns a generator seeded by
(master_seed, algorithm, d, trial), rows are assembled in sorted order, and
emit_csv writes floats at 17 significant digits, so a re-run with the same
master seed is byte-identical apart from wall times (which the writer can
exclude).
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from .baselines import AdmmSettings, PartialMatrix, chen_observe, curplus, nna
from .completion import (
    NoisyCurConfig,
    draw_noisycur_samples,
    solve_from_draw,
)
from .datasets import (
    DatasetSpec,
    iterative_svd_complete,
    load_jester,
    load_movielens_100k,
    synthetic_lowrank,
)
from .linalg import as_matrix
from .observe import (
    BudgetLedger,
    InfeasiblePlanError,
    TwoCostModel,
    sample_columns,
    sample_entries,
)
from .rng import cell_seed

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "SweepResult",
    "config_from_dict",
    "load_config",
    "load_dataset",
    "build_cost_model",
    "Oracle",
    "resolve_hyper",
    "run_single_cell",
    "run_sweep",
    "relative_error",
    "error_metrics",
    "emit_csv",
    "parse_csv",
    "write_resolved_config",
    "vshape_interior",
    "ALGORITHM_NAMES",
    "D_INDEPENDENT",
    "CSV_COLUMNS",
]


# glibc's malloc serves an allocation above its mmap threshold from a fresh
# mapping and a smaller one from its heap.  Left to itself, it raises that
# threshold, and the heap's trim threshold with it, to the size of each
# mapped chunk it frees.  Sweep cells allocate arrays of data-dependent
# size, from a few MB to tens of MB, so with sliding thresholds the free
# heap that stays resident, and with it a sweep's peak memory, depends on
# the sizes of the cells that ran before.  Both are fixed at the sliding
# threshold's cap and twice that (the ratio glibc keeps), so that peak
# memory depends on the cell grid alone.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_MMAP_THRESHOLD = 32 << 20
_MALLOC_TRIM_THRESHOLD = 64 << 20


def _fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where there is no glibc."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MALLOC_MMAP_THRESHOLD)
                and mallopt(_M_TRIM_THRESHOLD, _MALLOC_TRIM_THRESHOLD))


_fix_malloc_thresholds()


class ConfigError(ValueError):
    """Configuration that cannot be resolved into a runnable experiment."""


DATASET_KINDS = ("synthetic", "jester", "movielens", "file")

DEFAULT_DATASET = {
    "kind": "synthetic",
    "name": None,
    "n_rows": 80,
    "n_cols": 60,
    "rank": 4,
    "mean": 5.0,
    "std": 1.0,
    "seed": None,
    "path": None,
    "row_limit": None,
    "col_limit": None,
    "completion_rank": None,
}

DEFAULT_COST = {
    "entry_price": 1.0,
    "alpha": 0.2,
    "sigma_e": 0.1,
    "sigma_c": math.sqrt(0.05),
    "budget_factor": 2.0,
    "budget": None,
}

DEFAULT_SWEEP = {
    "d_grid": (2, 4, 6, 8, 10, 12, 16, 20, 26, 32),
    "n_trials": 10,
    "algorithms": ("ncur", "curplus", "nna", "chen"),
    "master_seed": 0,
    "workers": 1,
}

# Per-algorithm hyperparameter defaults.  Grid-valued keys (anything
# ending in _grid or _factors) accept either a list of values or a
# {"lo": ..., "hi": ..., "num": ...} log-spacing spec.
DEFAULT_HYPER = {
    "ncur": {
        "lambda_grid": {"lo": 1e-6, "hi": 1e3, "num": 40},
        "cv_folds": 5,
    },
    "curplus": {},
    "nna": {
        "delta_factors": {"lo": 1e-2, "hi": 1e2, "num": 20},
        "tol": 1e-6,
        "max_iters": 2000,
        "cv_tol": 1e-5,
        "cv_max_iters": 800,
    },
    "chen": {
        "phase1_fraction": 0.5,
        "rank": None,
        "delta_factors": {"lo": 1e-2, "hi": 1e2, "num": 20},
        "tol": 1e-6,
        "max_iters": 2000,
        "cv_tol": 1e-5,
        "cv_max_iters": 800,
    },
}

ALGORITHM_NAMES = tuple(DEFAULT_HYPER)
# Pure entry samplers whose output ignores d; they run once per trial and
# are replicated across the d axis.
D_INDEPENDENT = frozenset({"nna", "chen"})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved sweep description (defaults already applied)."""

    dataset: dict
    cost: dict
    d_grid: tuple
    n_trials: int
    algorithms: tuple
    master_seed: int
    workers: int = 1
    hyper: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        hyper = {}
        for name, values in self.hyper.items():
            hyper[name] = {k: list(v) if isinstance(v, tuple) else v
                           for k, v in values.items()}
        return {
            "dataset": dict(self.dataset),
            "cost": dict(self.cost),
            "sweep": {
                "d_grid": list(self.d_grid),
                "n_trials": self.n_trials,
                "algorithms": list(self.algorithms),
                "master_seed": self.master_seed,
                "workers": self.workers,
            },
            "hyper": hyper,
        }


def _merge_section(defaults: dict, given, section: str) -> dict:
    if given is None:
        return dict(defaults)
    if not isinstance(given, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(given)
    return merged


def _as_grid(value, name: str) -> tuple:
    """A hyperparameter grid: explicit values, or a log-spaced spec."""
    if isinstance(value, dict):
        unknown = set(value) - {"lo", "hi", "num"}
        if unknown:
            raise ConfigError(
                f"unknown grid keys in '{name}': {sorted(unknown)}")
        try:
            lo = float(value["lo"])
            hi = float(value["hi"])
            num = int(value["num"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid spec for '{name}': {exc}") from None
        if not (0 < lo <= hi) or num < 1:
            raise ConfigError(f"grid '{name}' needs 0 < lo <= hi and num >= 1")
        return tuple(float(v) for v in
                     np.logspace(math.log10(lo), math.log10(hi), num))
    try:
        values = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"grid '{name}' must be a list of numbers or a "
                          "lo/hi/num spec") from None
    if not values:
        raise ConfigError(f"grid '{name}' is empty")
    if any(v < 0 for v in values):
        raise ConfigError(f"grid '{name}' has negative values")
    return tuple(sorted(values))


def resolve_hyper(algorithm: str, overrides: dict | None = None) -> dict:
    """Merge per-algorithm hyper settings over the defaults, expanding grids."""
    if algorithm not in DEFAULT_HYPER:
        raise ConfigError(f"unknown algorithm '{algorithm}'; "
                          f"choose from {ALGORITHM_NAMES}")
    merged = _merge_section(DEFAULT_HYPER[algorithm], overrides,
                            f"hyper.{algorithm}")
    for key in list(merged):
        if key.endswith("_grid") or key.endswith("_factors"):
            merged[key] = _as_grid(merged[key], f"hyper.{algorithm}.{key}")
    return merged


def _validate_config(dataset: dict, cost: dict, sweep: dict,
                     hyper: dict) -> ExperimentConfig:
    if dataset["kind"] not in DATASET_KINDS:
        raise ConfigError(f"unknown dataset kind '{dataset['kind']}'; "
                          f"choose from {DATASET_KINDS}")
    if dataset["kind"] == "synthetic":
        for key in ("n_rows", "n_cols", "rank"):
            if not (isinstance(dataset[key], int) and dataset[key] >= 1):
                raise ConfigError(f"dataset.{key} must be a positive integer")
        if dataset["rank"] > min(dataset["n_rows"], dataset["n_cols"]):
            raise ConfigError("dataset.rank exceeds the matrix dimensions")
    else:
        if not dataset["path"]:
            raise ConfigError(f"dataset kind '{dataset['kind']}' needs a path")
        if not (isinstance(dataset["rank"], int) and dataset["rank"] >= 1):
            raise ConfigError("dataset.rank must be a positive integer "
                              "(it sizes the budget)")

    if not cost["entry_price"] > 0:
        raise ConfigError("cost.entry_price must be positive")
    if not 0 < cost["alpha"] < 1:
        raise ConfigError("cost.alpha must be in (0, 1): a column read must "
                          "cost less than reading the column entrywise")
    if not 0 <= cost["sigma_e"] < cost["sigma_c"]:
        raise ConfigError("need cost.sigma_c > cost.sigma_e >= 0")
    if cost["budget"] is None:
        if not cost["budget_factor"] > 0:
            raise ConfigError("cost.budget_factor must be positive")
    elif not cost["budget"] > 0:
        raise ConfigError("cost.budget must be positive when given")

    try:
        d_grid = tuple(int(d) for d in sweep["d_grid"])
    except (TypeError, ValueError):
        raise ConfigError("sweep.d_grid must be a list of integers") from None
    if not d_grid or any(d < 1 for d in d_grid):
        raise ConfigError("sweep.d_grid must be nonempty positive integers")
    if list(d_grid) != sorted(set(d_grid)):
        raise ConfigError("sweep.d_grid must be strictly increasing")
    if not (isinstance(sweep["n_trials"], int) and sweep["n_trials"] >= 1):
        raise ConfigError("sweep.n_trials must be a positive integer")
    algorithms = tuple(sweep["algorithms"])
    if not algorithms:
        raise ConfigError("sweep.algorithms is empty")
    unknown = [a for a in algorithms if a not in ALGORITHM_NAMES]
    if unknown:
        raise ConfigError(f"unknown algorithms {unknown}; "
                          f"choose from {ALGORITHM_NAMES}")
    if len(set(algorithms)) != len(algorithms):
        raise ConfigError("sweep.algorithms has duplicates")
    if not (isinstance(sweep["master_seed"], int)
            and sweep["master_seed"] >= 0):
        raise ConfigError("sweep.master_seed must be a nonnegative integer")
    if not (isinstance(sweep["workers"], int) and sweep["workers"] >= 1):
        raise ConfigError("sweep.workers must be a positive integer")

    if not isinstance(hyper, dict):
        raise ConfigError("section 'hyper' must be a mapping")
    unknown = set(hyper) - set(DEFAULT_HYPER)
    if unknown:
        raise ConfigError(
            f"hyper settings for unknown algorithms: {sorted(unknown)}")
    resolved = {name: resolve_hyper(name, hyper.get(name))
                for name in DEFAULT_HYPER}

    return ExperimentConfig(
        dataset=dataset, cost=cost, d_grid=d_grid,
        n_trials=sweep["n_trials"], algorithms=algorithms,
        master_seed=sweep["master_seed"], workers=sweep["workers"],
        hyper=resolved,
    )


def config_from_dict(raw) -> ExperimentConfig:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping")
    unknown = set(raw) - {"dataset", "cost", "sweep", "hyper"}
    if unknown:
        raise ConfigError(f"unknown top-level sections: {sorted(unknown)}")
    dataset = _merge_section(DEFAULT_DATASET, raw.get("dataset"), "dataset")
    cost = _merge_section(DEFAULT_COST, raw.get("cost"), "cost")
    sweep = _merge_section(DEFAULT_SWEEP, raw.get("sweep"), "sweep")
    return _validate_config(dataset, cost, sweep, raw.get("hyper", {}))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    return config_from_dict(raw)


def write_resolved_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True,
                       default_flow_style=False)


def load_dataset(config: ExperimentConfig):
    """Materialize the ground-truth matrix for a sweep.

    Returns (a, DatasetSpec).  File-backed kinds are read from disk and,
    for movielens, completed to a dense matrix first; the configured rank
    sizes the budget and is not a claim about the data itself.
    """
    ds = config.dataset
    kind = ds["kind"]
    name = ds["name"] or kind
    if kind == "synthetic":
        seed = ds["seed"]
        if seed is None:
            seed = cell_seed(config.master_seed, "dataset", "synthetic")
        rng = np.random.default_rng(int(seed))
        a = synthetic_lowrank(ds["n_rows"], ds["n_cols"], ds["rank"],
                              mean=ds["mean"], std=ds["std"], rng=rng)
        rank = ds["rank"]
        description = (f"best rank-{rank} part of an i.i.d. normal matrix, "
                       f"mean {ds['mean']}, std {ds['std']}")
    elif kind == "jester":
        a = load_jester(ds["path"])
        if ds["row_limit"] is not None:
            a = a[: int(ds["row_limit"])]
        if ds["col_limit"] is not None:
            a = a[:, : int(ds["col_limit"])]
        rank = ds["rank"]
        description = f"complete-user ratings slice from {ds['path']}"
    elif kind == "movielens":
        pm = load_movielens_100k(ds["path"])
        completion_rank = ds["completion_rank"] or ds["rank"]
        a, info = iterative_svd_complete(pm, completion_rank)
        if not info["converged"]:
            warnings.warn(
                f"iterative-SVD completion of {ds['path']} stopped after "
                f"{info['iterations']} iterations without converging; the "
                "dataset is its last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
        rank = ds["rank"]
        description = (f"rank-{completion_rank} iterative-SVD completion "
                       f"of {ds['path']}")
    else:
        a = np.load(ds["path"])
        rank = ds["rank"]
        description = f"dense matrix loaded from {ds['path']}"
    a = as_matrix(a, "dataset")
    spec = DatasetSpec(name=name, n_rows=a.shape[0], n_cols=a.shape[1],
                       rank=rank, description=description)
    return a, spec


def build_cost_model(config: ExperimentConfig, n_rows: int,
                     rank: int) -> TwoCostModel:
    """Two-cost model for a dataset of n_rows rows budgeted at ``rank``.

    Column price is alpha * n_rows * entry_price.  The budget defaults to
    budget_factor * n_rows * rank * entry_price unless given explicitly.
    """
    cost = config.cost
    entry_price = float(cost["entry_price"])
    column_price = float(cost["alpha"]) * n_rows * entry_price
    budget = cost["budget"]
    if budget is None:
        budget = float(cost["budget_factor"]) * n_rows * rank * entry_price
    model = TwoCostModel(entry_price=entry_price, column_price=column_price,
                         sigma_e=float(cost["sigma_e"]),
                         sigma_c=float(cost["sigma_c"]),
                         budget=float(budget))
    model.validate_for_rows(n_rows)
    return model


def relative_error(a, a_bar) -> float:
    """||a - a_bar||_F / ||a||_F, falling back to the absolute error when
    ||a||_F = 0 (error_metrics carries the explicit flag)."""
    return error_metrics(a, a_bar)["rel_error"]


def error_metrics(a, a_bar) -> dict:
    """Relative and squared absolute Frobenius errors, plus a flag marking
    the degenerate zero-norm reference where 'relative' means absolute."""
    a = as_matrix(a, "a")
    a_bar = as_matrix(a_bar, "a_bar")
    if a.shape != a_bar.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {a_bar.shape}")
    diff_sq = float(np.sum((a - a_bar) ** 2))
    denom = float(np.linalg.norm(a))
    zero_norm = denom == 0.0
    rel = math.sqrt(diff_sq) if zero_norm else math.sqrt(diff_sq) / denom
    return {"rel_error": rel, "abs_error_sq": diff_sq, "zero_norm": zero_norm}


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell.  hyperparams is a JSON object string (sorted keys)."""

    dataset: str
    algorithm: str
    d: int
    s: int
    trial: int
    seed: int
    rel_error: float
    abs_error_sq: float
    spent: float
    leftover: float
    hyperparams: str
    wall_ms: float
    feasible: bool


class Oracle:
    """Metered reads of one private matrix under one two-cost budget.

    Every read charges ``ledger`` before it draws.  A read of fewer than
    one sample, or one costing more than is left, raises
    InfeasiblePlanError with nothing drawn and nothing charged.
    """

    def __init__(self, a, model: TwoCostModel):
        self._a = as_matrix(a, "a")
        self.model = model
        self.ledger = BudgetLedger(model.budget)

    def affordable(self, unit_price: float, reserved: float = 0.0) -> int:
        """Reads at unit_price that the budget left, less reserved, buys."""
        return int(math.floor((self.ledger.leftover - reserved) / unit_price
                              + 1e-12))

    def _pay(self, *reads):
        """Charge every (kind, count, unit_price) read, or refuse them all."""
        cost = 0.0
        for kind, count, unit_price in reads:
            if count < 1:
                raise InfeasiblePlanError(f"read of {count} {kind} samples")
            cost += count * unit_price
            if cost > self.ledger.leftover + 1e-9:
                raise InfeasiblePlanError(
                    f"{count} {kind} samples: reads cost {cost}, "
                    f"{self.ledger.leftover} left")
        for read in reads:
            self.ledger.charge(*read)

    def columns(self, count: int, rng: np.random.Generator):
        """observe.sample_columns: (c_tilde, indices), at column_price each."""
        self._pay(("column", count, self.model.column_price))
        return sample_columns(self._a, count, self.model.sigma_c, rng)

    def rows(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """count full rows drawn uniformly with replacement, each entry read
        through N(0, sigma_c^2) noise."""
        m, n = self._a.shape
        # A full noisy row gets the same discount fraction as a noisy
        # column: alpha of its entrywise price.
        self._pay(("row", count, self.model.column_price / m * n))
        index = rng.integers(0, m, size=count)
        return (self._a[index]
                + self.model.sigma_c * rng.standard_normal((count, n)))

    def entries(self, count: int, rng: np.random.Generator, weights=None):
        """observe.sample_entries: an ObservationSet, at entry_price each."""
        self._pay(("entry", count, self.model.entry_price))
        return sample_entries(self._a, count, self.model.sigma_e, rng,
                              weights=weights)

    def noisycur(self, d: int, rng: np.random.Generator):
        """completion.NoisyCurDraw of d noisy columns and as many sketched
        rows s as the rest buys, each charged its n entries."""
        n = self._a.shape[1]
        column_price = self.model.column_price
        s = self.affordable(n * self.model.entry_price,
                            reserved=d * column_price)
        self._pay(("column", d, column_price),
                  ("entry", s * n, self.model.entry_price))
        cfg = NoisyCurConfig(n_columns=d, n_rows=s,
                             sigma_c=self.model.sigma_c,
                             sigma_e=self.model.sigma_e, ridge_lambda=0.0)
        return draw_noisycur_samples(self._a, cfg, rng)


@dataclass
class _CellOutcome:
    estimate: np.ndarray
    n_sketch_rows: int
    hyperparams: dict


def _admm_settings(hyper: dict, cv: bool) -> AdmmSettings:
    if cv:
        return AdmmSettings(tol=float(hyper["cv_tol"]),
                            max_iters=int(hyper["cv_max_iters"]))
    return AdmmSettings(tol=float(hyper["tol"]),
                        max_iters=int(hyper["max_iters"]))


def _holdout_split(pm: PartialMatrix, rng: np.random.Generator,
                   held_fraction: float = 0.2):
    """Split observed cells into (train PartialMatrix, held-out positions
    in pm's cell arrays)."""
    n_held = int(math.floor(held_fraction * pm.n_cells))
    if n_held < 1 or pm.n_cells - n_held < 1:
        return None, None
    order = rng.permutation(pm.n_cells)
    return pm.subset(order[n_held:]), order[:n_held]


def _holdout_sse(estimate: np.ndarray, pm: PartialMatrix, held) -> float:
    diff = estimate[pm.rows[held], pm.cols[held]] - pm.values[held]
    return float(np.sum(diff * diff))


def _cv_entry_delta(pm: PartialMatrix, sigma_e: float, factors,
                    rng: np.random.Generator, hyper: dict):
    """Slack factor for a single-ball nuclear norm fit.

    delta = factor * sqrt(#cells) * sigma_e; the factor is scored on an
    80/20 holdout of the observed cells, with the radius rescaled to the
    train cell count.  The factors are solved from the largest radius to
    the smallest, each solve warm-started from the one before; scores
    keep the grid's order, so ties go to the first factor in the grid.
    Falls back to factor 1 (the expected noise norm) when there are too
    few cells to split.

    Returns (factor, fit, cv_converged): the picked factor, its train fit
    (None when no CV ran) to warm-start the final solve from, and how many
    CV solves converged.
    """
    factors = tuple(factors)
    if len(factors) == 1:
        return factors[0], None, 0
    train, held = _holdout_split(pm, rng)
    if train is None:
        return 1.0, None, 0
    settings = _admm_settings(hyper, cv=True)
    scores = np.full(len(factors), np.inf)
    fit = best_fit = None
    cv_converged = 0
    for k in sorted(range(len(factors)), key=lambda k: -factors[k]):
        delta = factors[k] * math.sqrt(train.n_cells) * sigma_e
        fit = nna(train, delta, settings, start=fit)
        cv_converged += fit.converged
        scores[k] = _holdout_sse(fit.matrix, pm, held)
        # Keep only the fit the final argmin can pick, not every fit: a
        # fit holds two matrices the size of the data.
        if int(np.argmin(scores)) == k:
            best_fit = fit
    return factors[int(np.argmin(scores))], best_fit, cv_converged


def _fit_entry_delta(pm: PartialMatrix, sigma_e: float,
                     rng: np.random.Generator, hyper: dict):
    """Cross-validate the slack factor, then solve on every observed cell,
    warm-started from the picked factor's train fit.

    Returns the final fit and its hyperparameter record, which says whether
    the final solve converged and how many CV solves did.
    """
    factor, cv_fit, cv_converged = _cv_entry_delta(
        pm, sigma_e, hyper["delta_factors"], rng, hyper)
    delta = factor * math.sqrt(pm.n_cells) * sigma_e
    fit = nna(pm, delta, _admm_settings(hyper, cv=False), start=cv_fit)
    return fit, {"delta": delta, "delta_factor": factor,
                 "admm_iterations": fit.iterations,
                 "admm_converged": fit.converged,
                 "cv_converged": cv_converged}


def _run_ncur(oracle: Oracle, d: int, rng: np.random.Generator,
              hyper: dict) -> _CellOutcome:
    draw = oracle.noisycur(d, rng)
    best, _, folds = draw.cross_validate(hyper["lambda_grid"],
                                         int(hyper["cv_folds"]))
    rec = solve_from_draw(draw, best)
    return _CellOutcome(
        estimate=rec.estimate, n_sketch_rows=draw.sketch.n_samples,
        hyperparams={"ridge_lambda": best, "cv_folds": folds},
    )


def _run_curplus(oracle: Oracle, d: int, rng: np.random.Generator,
                 hyper: dict) -> _CellOutcome:
    n_c = (d + 1) // 2
    n_r = d - n_c
    c_tilde, _ = oracle.columns(n_c, rng)
    r_rows = oracle.rows(n_r, rng)
    n_entries = oracle.affordable(oracle.model.entry_price)
    entries = oracle.entries(n_entries, rng)
    fit = curplus(c_tilde, r_rows, PartialMatrix.from_observations(entries))
    return _CellOutcome(
        estimate=fit.estimate, n_sketch_rows=n_r,
        hyperparams={"n_col_samples": n_c, "n_row_samples": n_r,
                     "n_entry_samples": n_entries},
    )


def _run_nna(oracle: Oracle, d: int, rng: np.random.Generator,
             hyper: dict) -> _CellOutcome:
    n_entries = oracle.affordable(oracle.model.entry_price)
    pm = PartialMatrix.from_observations(oracle.entries(n_entries, rng))
    fit, record = _fit_entry_delta(pm, oracle.model.sigma_e, rng, hyper)
    return _CellOutcome(
        estimate=fit.matrix, n_sketch_rows=0,
        hyperparams={**record, "n_entry_samples": n_entries},
    )


def _run_chen(oracle: Oracle, d: int, rng: np.random.Generator,
              hyper: dict) -> _CellOutcome:
    rank = hyper["rank"]
    if rank is None:
        raise ConfigError("chen needs a scout rank (hyper.chen.rank); "
                          "run_sweep fills it from the dataset")
    obs, info = chen_observe(oracle, float(hyper["phase1_fraction"]), rng,
                             int(rank))
    pm = PartialMatrix.from_observations(obs)
    fit, record = _fit_entry_delta(pm, oracle.model.sigma_e, rng, hyper)
    return _CellOutcome(
        estimate=fit.matrix, n_sketch_rows=0,
        hyperparams={**record, "phase1_count": info["phase1_count"],
                     "phase2_count": info["phase2_count"],
                     "scout_rank": int(rank)},
    )


_DRIVERS = {
    "ncur": _run_ncur,
    "curplus": _run_curplus,
    "nna": _run_nna,
    "chen": _run_chen,
}


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def run_single_cell(a, model: TwoCostModel, algorithm: str, d: int,
                    seed: int, hyper: dict | None = None) -> dict:
    """Execute one sweep cell from its recorded seed.

    The driver reads the matrix only through an Oracle over ``model``, so
    it cannot spend more than the budget: a read the budget cannot pay
    for is refused before it draws.  Returns a plain row dict (s,
    rel_error, abs_error_sq, spent, leftover, hyperparams, wall_ms,
    feasible); spent and leftover are the oracle ledger's.  A refused read
    comes back as a row with feasible = False, NaN errors and nothing
    spent instead of raising, so sweeps continue past it.
    """
    if algorithm not in _DRIVERS:
        raise ConfigError(f"unknown algorithm '{algorithm}'; "
                          f"choose from {ALGORITHM_NAMES}")
    if hyper is None:
        hyper = resolve_hyper(algorithm)
    oracle = Oracle(a, model)
    rng = np.random.default_rng(int(seed))
    start = time.perf_counter()
    try:
        outcome = _DRIVERS[algorithm](oracle, int(d), rng, hyper)
    except InfeasiblePlanError as exc:
        wall_ms = (time.perf_counter() - start) * 1e3
        return {
            "s": 0, "rel_error": math.nan, "abs_error_sq": math.nan,
            "spent": 0.0, "leftover": model.budget,
            "hyperparams": json.dumps({"infeasible": str(exc)},
                                      sort_keys=True),
            "wall_ms": wall_ms, "feasible": False,
        }
    metrics = error_metrics(a, outcome.estimate)
    wall_ms = (time.perf_counter() - start) * 1e3
    hyperparams = {k: _jsonable(v) for k, v in outcome.hyperparams.items()}
    return {
        "s": int(outcome.n_sketch_rows),
        "rel_error": metrics["rel_error"],
        "abs_error_sq": metrics["abs_error_sq"],
        "spent": oracle.ledger.spent,
        "leftover": oracle.ledger.leftover,
        "hyperparams": json.dumps(hyperparams, sort_keys=True),
        "wall_ms": wall_ms,
        "feasible": True,
    }


def _pool_cell(payload):
    a, model, algorithm, d, seed, hyper = payload
    return run_single_cell(a, model, algorithm, d, seed, hyper)


def run_sweep(config: ExperimentConfig):
    """Run the full (algorithm, d, trial) grid; returns sorted SweepResults.

    d-independent algorithms execute once per trial under the seed key
    (master_seed, algorithm, "*", trial) and are replicated across the d
    grid.  Worker processes (workers > 1) change scheduling only, never
    results: every cell draws from its own seeded generator.
    """
    a, ds = load_dataset(config)
    model = build_cost_model(config, ds.n_rows, ds.rank)
    hyper = dict(config.hyper)
    if hyper["chen"]["rank"] is None:
        hyper["chen"] = {**hyper["chen"], "rank": ds.rank}

    tasks = {}
    for alg in config.algorithms:
        d_keys = ["*"] if alg in D_INDEPENDENT else list(config.d_grid)
        for d_key in d_keys:
            for trial in range(config.n_trials):
                run_d = config.d_grid[0] if d_key == "*" else d_key
                seed = cell_seed(config.master_seed, alg, d_key, trial)
                tasks[(alg, d_key, trial)] = (alg, run_d, seed)

    items = sorted(tasks.items(),
                   key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2]))
    outcomes = {}
    if config.workers > 1:
        payloads = [(a, model, alg, run_d, seed, hyper[alg])
                    for _, (alg, run_d, seed) in items]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for (key, _), out in zip(items, pool.map(_pool_cell, payloads)):
                outcomes[key] = out
    else:
        for key, (alg, run_d, seed) in items:
            outcomes[key] = run_single_cell(a, model, alg, run_d, seed,
                                            hyper[alg])

    rows = []
    for alg in config.algorithms:
        for d in config.d_grid:
            d_key = "*" if alg in D_INDEPENDENT else d
            for trial in range(config.n_trials):
                out = outcomes[(alg, d_key, trial)]
                seed = tasks[(alg, d_key, trial)][2]
                rows.append(SweepResult(
                    dataset=ds.name, algorithm=alg, d=int(d), s=out["s"],
                    trial=trial, seed=seed, rel_error=out["rel_error"],
                    abs_error_sq=out["abs_error_sq"], spent=out["spent"],
                    leftover=out["leftover"],
                    hyperparams=out["hyperparams"],
                    wall_ms=out["wall_ms"], feasible=out["feasible"],
                ))
    rows.sort(key=lambda r: (r.dataset, r.algorithm, r.d, r.trial))
    return rows


CSV_COLUMNS = ("dataset", "algorithm", "d", "s", "trial", "seed",
               "rel_error", "abs_error_sq", "spent", "leftover",
               "hyperparams", "wall_ms", "feasible")


def _format_field(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_csv(rows, path, include_wall_time: bool = True) -> None:
    """Write SweepResults as CSV: fixed column order, floats at 17
    significant digits, minimal RFC-4180 quoting.

    include_wall_time = False drops the wall_ms column, which is the one
    field that varies between otherwise identical runs; the rest of the
    file is byte-stable for a fixed master seed.
    """
    columns = [c for c in CSV_COLUMNS
               if include_wall_time or c != "wall_ms"]
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL,
                                lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_field(getattr(row, c))
                                 for c in columns])
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def parse_csv(path):
    """Read back an emit_csv file as SweepResults (wall_ms NaN if absent)."""
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            wall = rec.get("wall_ms")
            rows.append(SweepResult(
                dataset=rec["dataset"], algorithm=rec["algorithm"],
                d=int(rec["d"]), s=int(rec["s"]), trial=int(rec["trial"]),
                seed=int(rec["seed"]), rel_error=float(rec["rel_error"]),
                abs_error_sq=float(rec["abs_error_sq"]),
                spent=float(rec["spent"]), leftover=float(rec["leftover"]),
                hyperparams=rec["hyperparams"],
                wall_ms=math.nan if wall is None else float(wall),
                feasible=rec["feasible"] == "true",
            ))
    return rows


def vshape_interior(rows, algorithm: str = "ncur"):
    """Locate the minimum of an algorithm's mean error-vs-d curve.

    Averages rel_error over feasible trials at each d and returns
    (is_interior, best_d, means) where is_interior says the minimizing d
    is neither endpoint of the feasible grid.  Ties pick the smaller d.
    Needs at least three feasible d values to be meaningful.
    """
    by_d = {}
    for row in rows:
        if row.algorithm == algorithm and row.feasible:
            by_d.setdefault(row.d, []).append(row.rel_error)
    if len(by_d) < 3:
        raise ValueError(
            f"need at least three feasible d values for '{algorithm}', "
            f"got {sorted(by_d)}")
    ds = sorted(by_d)
    means = {d: float(np.mean(by_d[d])) for d in ds}
    best = min(ds, key=lambda d: (means[d], d))
    return best not in (ds[0], ds[-1]), best, means
