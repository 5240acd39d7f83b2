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
from dataclasses import dataclass, field, fields

import numpy as np
import yaml

from .baselines import PartialMatrix, chen_observe, curplus, nna
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
    "read_raw_config",
    "load_config",
    "read_matrix",
    "load_dataset",
    "build_cost_model",
    "Oracle",
    "resolve_hyper",
    "run_single_cell",
    "run_sweep",
    "error_metrics",
    "emit_csv",
    "parse_csv",
    "write_resolved_config",
    "summarize",
    "ALGORITHM_NAMES",
    "D_INDEPENDENT",
    "CSV_COLUMNS",
]


# glibc's malloc serves an allocation above its mmap threshold from a fresh
# mapping and a smaller one from its heap, and returns free heap above its
# trim threshold to the system.  Left to itself, it starts both low and
# raises them only as mapped chunks are freed, so the arrays that every
# cell or trial allocates and frees keep going back to the system and
# being faulted in again: about 320 minor page faults per criterion-5
# guarantee trial, against none with the thresholds fixed.  Both are fixed
# at the sliding threshold's cap and twice that (the ratio glibc keeps).
# Measured on one BLAS thread over ten alternating pairs, leaving them to
# slide made the guarantee trials 23% slower (slower in all ten pairs), at
# the same peak memory.
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


def _rule(what: str, convert, nullable: bool = False):
    """A config rule: it maps (value, the key's dotted name) to the value
    convert(value) and raises a ConfigError naming the key where that is
    None or convert raises."""
    if nullable:
        what += " or null"

    def rule(value, name):
        if nullable and value is None:
            return None
        try:
            out = convert(value)
        except (TypeError, ValueError):
            out = None
        if out is None:
            raise ConfigError(f"{name} must be {what}")
        return out
    return rule


def _integer(lo: int, nullable: bool = False):
    """An int >= lo; booleans and floats are refused, not truncated."""
    return _rule("a positive integer" if lo else "a nonnegative integer",
                 lambda v: v if type(v) is int and v >= lo else None,
                 nullable)


def _real(what: str, ok, nullable: bool = False):
    """A finite float x with ok(x).  Numeric strings are read too: YAML 1.1
    loads a float without a dot, such as 1e-6, as a string."""
    def convert(value):
        out = float(value)
        return (out if not isinstance(value, bool) and math.isfinite(out)
                and ok(out) else None)
    return _rule(what, convert, nullable)


_COUNT = _integer(1)
_TEXT = _rule("a string", lambda v: v if isinstance(v, str) else None,
              nullable=True)
_POSITIVE = _real("positive and finite", lambda x: x > 0)
_NONNEGATIVE = _real("nonnegative and finite", lambda x: x >= 0)
_FRACTION = _real("in (0, 1)", lambda x: 0 < x < 1)


def _nonempty_list(value, name: str, what: str) -> None:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{name} must be a nonempty list of {what}")


def _grid(value, name: str) -> tuple:
    """A hyperparameter grid: explicit values >= 0, sorted, or a log-spaced
    {lo, hi, num} spec."""
    if isinstance(value, dict):
        unknown = set(value) - {"lo", "hi", "num"}
        if unknown:
            raise ConfigError(
                f"unknown grid keys in '{name}': {sorted(unknown, key=str)}")
        lo = _POSITIVE(value.get("lo"), f"{name}.lo")
        hi = _POSITIVE(value.get("hi"), f"{name}.hi")
        num = _COUNT(value.get("num"), f"{name}.num")
        if lo > hi:
            raise ConfigError(f"grid '{name}' needs lo <= hi")
        return tuple(
            np.logspace(math.log10(lo), math.log10(hi), num).tolist())
    _nonempty_list(value, name, "numbers or a lo/hi/num grid spec")
    return tuple(sorted(_NONNEGATIVE(v, f"{name}[{k}]")
                        for k, v in enumerate(value)))


def _d_grid(value, name: str) -> tuple:
    _nonempty_list(value, name, "integers")
    d_grid = tuple(_COUNT(d, f"{name}[{k}]") for k, d in enumerate(value))
    if list(d_grid) != sorted(set(d_grid)):
        raise ConfigError(f"{name} must be strictly increasing")
    return d_grid


def _algorithms(value, name: str) -> tuple:
    _nonempty_list(value, name, "algorithm names")
    unknown = [a for a in value if a not in ALGORITHM_NAMES]
    if unknown:
        raise ConfigError(f"{name}: unknown algorithms {unknown}; "
                          f"choose from {ALGORITHM_NAMES}")
    if len(set(value)) != len(value):
        raise ConfigError(f"{name} has duplicates")
    return tuple(value)


DATASET_KINDS = ("synthetic", "jester", "movielens", "file")

_ADMM = {
    "delta_factors": ({"lo": 1e-2, "hi": 1e2, "num": 20}, _grid),
    "tol": (1e-6, _POSITIVE),
    "max_iters": (2000, _COUNT),
    "cv_tol": (1e-5, _POSITIVE),
    "cv_max_iters": (800, _COUNT),
}

# {section: {key: (default, rule)}}, with one such table per algorithm
# under "hyper".  Defaults go through their rules too, so a grid default
# may be a lo/hi/num spec.
SCHEMA = {
    "dataset": {
        "kind": ("synthetic",
                 _rule(f"one of {DATASET_KINDS}",
                       lambda v: v if v in DATASET_KINDS else None)),
        "name": (None, _TEXT),
        "n_rows": (80, _COUNT),
        "n_cols": (60, _COUNT),
        "rank": (4, _COUNT),
        "mean": (5.0, _real("a finite number", lambda x: True)),
        "std": (1.0, _NONNEGATIVE),
        "seed": (None, _integer(0, nullable=True)),
        "path": (None, _TEXT),
        "row_limit": (None, _integer(1, nullable=True)),
        "col_limit": (None, _integer(1, nullable=True)),
        "completion_rank": (None, _integer(1, nullable=True)),
    },
    "cost": {
        "entry_price": (1.0, _POSITIVE),
        "alpha": (0.2, _FRACTION),
        "sigma_e": (0.1, _NONNEGATIVE),
        "sigma_c": (math.sqrt(0.05), _POSITIVE),
        "budget_factor": (2.0, _POSITIVE),
        "budget": (None, _real("positive and finite", lambda x: x > 0,
                               nullable=True)),
    },
    "sweep": {
        "d_grid": ((2, 4, 6, 8, 10, 12, 16, 20, 26, 32), _d_grid),
        "n_trials": (10, _COUNT),
        "algorithms": (("ncur", "curplus", "nna", "chen"), _algorithms),
        "master_seed": (0, _integer(0)),
        "workers": (1, _COUNT),
    },
    "hyper": {
        "ncur": {
            "lambda_grid": ({"lo": 1e-6, "hi": 1e3, "num": 40}, _grid),
            "cv_folds": (5, _COUNT),
        },
        "curplus": {},
        "nna": _ADMM,
        "chen": {
            "phase1_fraction": (0.5, _FRACTION),
            "rank": (None, _integer(1, nullable=True)),
            **_ADMM,
        },
    },
}

ALGORITHM_NAMES = tuple(SCHEMA["hyper"])
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
        """The resolved config in SCHEMA's layout, tuples as lists."""
        def plain(values):
            return {k: list(v) if isinstance(v, tuple) else v
                    for k, v in values.items()}
        return {
            "dataset": plain(self.dataset),
            "cost": plain(self.cost),
            "sweep": plain({key: getattr(self, key)
                            for key in SCHEMA["sweep"]}),
            "hyper": {name: plain(values)
                      for name, values in self.hyper.items()},
        }


def _mapping(given, section: str) -> dict:
    if given is None:
        return {}
    if not isinstance(given, dict):
        raise ConfigError(f"section '{section}' must be a mapping")
    return given


def _resolve(schema: dict, given, section: str) -> dict:
    """Every key of schema, given or defaulted, put through its rule."""
    given = _mapping(given, section)
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown keys in '{section}': {sorted(unknown, key=str)}")
    return {key: rule(given.get(key, default), f"{section}.{key}")
            for key, (default, rule) in schema.items()}


def resolve_hyper(algorithm: str, overrides: dict | None = None) -> dict:
    """Per-algorithm hyper settings over the defaults, grids expanded and
    every value checked, so that a bad value fails before any cell runs."""
    if algorithm not in ALGORITHM_NAMES:
        raise ConfigError(f"unknown algorithm '{algorithm}'; "
                          f"choose from {ALGORITHM_NAMES}")
    return _resolve(SCHEMA["hyper"][algorithm], overrides,
                    f"hyper.{algorithm}")


def config_from_dict(raw) -> ExperimentConfig:
    """Resolve a raw config mapping: SCHEMA's defaults and rules for each
    key, then the rules that tie keys together."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping")
    unknown = set(raw) - set(SCHEMA)
    if unknown:
        raise ConfigError(
            f"unknown top-level sections: {sorted(unknown, key=str)}")
    dataset, cost, sweep = (_resolve(SCHEMA[section], raw.get(section),
                                     section)
                            for section in ("dataset", "cost", "sweep"))
    if dataset["kind"] == "synthetic":
        if dataset["rank"] > min(dataset["n_rows"], dataset["n_cols"]):
            raise ConfigError("dataset.rank exceeds the matrix dimensions")
    elif not dataset["path"]:
        raise ConfigError(f"dataset kind '{dataset['kind']}' needs a path")
    if not cost["sigma_e"] < cost["sigma_c"]:
        raise ConfigError("need cost.sigma_c > cost.sigma_e >= 0")

    hyper = _mapping(raw.get("hyper"), "hyper")
    unknown = set(hyper) - set(ALGORITHM_NAMES)
    if unknown:
        raise ConfigError("hyper settings for unknown algorithms: "
                          f"{sorted(unknown, key=str)}")
    return ExperimentConfig(
        dataset=dataset, cost=cost, **sweep,
        hyper={name: resolve_hyper(name, hyper.get(name))
               for name in ALGORITHM_NAMES})


def read_raw_config(path) -> dict:
    """The top-level mapping of a YAML config file, {} for an empty file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a mapping")
    return raw


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_raw_config(path))


def write_resolved_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.to_dict(), fh, sort_keys=True,
                       default_flow_style=False)


def read_matrix(path) -> np.ndarray:
    """The 2-D matrix stored in a .npy file.  A file that cannot be opened
    or is not a .npy array is a ConfigError."""
    try:
        a = np.load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix {path}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{path} is not a .npy matrix: {exc}") from None
    return as_matrix(a, str(path))


def load_dataset(config: ExperimentConfig):
    """Materialize the ground-truth matrix for a sweep.

    Returns (a, DatasetSpec).  File-backed kinds are read from disk and,
    for movielens, completed to a dense matrix first; the configured rank
    sizes the budget and is not a claim about the data itself.  Every
    kind is then cut to its first row_limit rows and col_limit columns.
    A dataset file that cannot be opened is a ConfigError.
    """
    ds = config.dataset
    kind = ds["kind"]
    name = ds["name"] or kind
    if kind == "synthetic":
        seed = ds["seed"]
        if seed is None:
            seed = cell_seed(config.master_seed, "dataset", "synthetic")
        a = synthetic_lowrank(ds["n_rows"], ds["n_cols"], ds["rank"],
                              mean=ds["mean"], std=ds["std"],
                              rng=np.random.default_rng(seed))
    elif kind == "file":
        a = read_matrix(ds["path"])
    else:
        reader = load_jester if kind == "jester" else load_movielens_100k
        try:
            a = reader(ds["path"])
        except OSError as exc:
            raise ConfigError(
                f"cannot read dataset {ds['path']}: {exc}") from None
        if kind == "movielens":
            completion_rank = ds["completion_rank"] or ds["rank"]
            a, info = iterative_svd_complete(a, completion_rank)
            if not info["converged"]:
                warnings.warn(
                    f"iterative-SVD completion of {ds['path']} stopped "
                    f"after {info['iterations']} iterations without "
                    "converging; the dataset is its last iterate",
                    RuntimeWarning,
                    stacklevel=2,
                )
    a = np.ascontiguousarray(
        as_matrix(a, "dataset")[: ds["row_limit"], : ds["col_limit"]])
    if a.size == 0:
        raise ConfigError(f"dataset '{name}' is empty: shape {a.shape}")
    spec = DatasetSpec(name=name, n_rows=a.shape[0], n_cols=a.shape[1],
                       rank=ds["rank"])
    return a, spec


def build_cost_model(config: ExperimentConfig, n_rows: int,
                     rank: int) -> TwoCostModel:
    """Two-cost model for a dataset of n_rows rows budgeted at ``rank``.

    Column price is alpha * n_rows * entry_price.  The budget defaults to
    budget_factor * n_rows * rank * entry_price unless given explicitly.
    """
    cost = config.cost
    entry_price = cost["entry_price"]
    budget = cost["budget"]
    if budget is None:
        budget = cost["budget_factor"] * n_rows * rank * entry_price
    model = TwoCostModel(entry_price=entry_price,
                         column_price=cost["alpha"] * n_rows * entry_price,
                         sigma_e=cost["sigma_e"], sigma_c=cost["sigma_c"],
                         budget=budget)
    model.validate_for_rows(n_rows)
    return model


def error_metrics(a, a_bar) -> dict:
    """A row's two errors: rel_error ||a - a_bar||_F / ||a||_F, which is
    the absolute error when ||a||_F = 0, and abs_error_sq
    ||a - a_bar||_F^2."""
    a = as_matrix(a, "a")
    a_bar = as_matrix(a_bar, "a_bar")
    if a.shape != a_bar.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {a_bar.shape}")
    diff_sq = float(np.sum((a - a_bar) ** 2))
    denom = float(np.linalg.norm(a)) or 1.0
    return {"rel_error": math.sqrt(diff_sq) / denom, "abs_error_sq": diff_sq}


@dataclass(frozen=True, slots=True)
class SweepResult:
    """One sweep cell; its fields are the CSV columns, in order.
    hyperparams is a JSON object string (sorted keys)."""

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


CSV_COLUMNS = tuple(f.name for f in fields(SweepResult))


class Oracle:
    """Metered reads of one private matrix under one two-cost budget.

    Every read is paid for before it draws: ``charges`` records each
    (kind, count, unit_price) in read order and ``spent`` is their running
    total.  A read of fewer than one sample, or one costing more than is
    left, raises InfeasiblePlanError with nothing drawn and nothing
    charged.
    """

    def __init__(self, a, model: TwoCostModel):
        self._a = as_matrix(a, "a")
        self.model = model
        self.charges = []
        self.spent = 0.0

    @property
    def leftover(self) -> float:
        return self.model.budget - self.spent

    def affordable(self, unit_price: float, reserved: float = 0.0) -> int:
        """Reads at unit_price that the budget left, less reserved, buys."""
        return int(math.floor((self.leftover - reserved) / unit_price
                              + 1e-12))

    def _pay(self, *reads):
        """Charge every (kind, count, unit_price) read, or refuse them all."""
        cost = 0.0
        for kind, count, unit_price in reads:
            if count < 1:
                raise InfeasiblePlanError(f"read of {count} {kind} samples")
            cost += count * unit_price
            if cost > self.leftover + 1e-9:
                raise InfeasiblePlanError(
                    f"{count} {kind} samples: reads cost {cost}, "
                    f"{self.leftover} left")
        for kind, count, unit_price in reads:
            charge = (kind, int(count), float(unit_price))
            self.charges.append(charge)
            self.spent += charge[1] * charge[2]

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


def _holdout_split(pm: PartialMatrix, rng: np.random.Generator):
    """Split observed cells 80/20 into (train PartialMatrix, held-out
    positions in pm's cell arrays)."""
    n_held = int(math.floor(0.2 * pm.n_cells))
    if n_held < 1 or pm.n_cells - n_held < 1:
        return None, None
    order = rng.permutation(pm.n_cells)
    return pm.subset(order[n_held:]), order[:n_held]


def _holdout_sse(estimate: np.ndarray, pm: PartialMatrix, held) -> float:
    diff = estimate[pm.rows[held], pm.cols[held]] - pm.values[held]
    return float(np.sum(diff * diff))


def _fit_entry_delta(pm: PartialMatrix, sigma_e: float,
                     rng: np.random.Generator, hyper: dict):
    """Single-ball nuclear norm fit at a cross-validated slack radius.

    The radius is factor * sqrt(#cells fit) * sigma_e.  Each factor of a
    grid of several is scored on an 80/20 holdout of the observed cells,
    from the largest radius to the smallest, each solve warm-started from
    the one before; ties go to the first factor in the grid.  Too few
    cells to split give factor 1, the expected noise norm.  The final
    solve, on every observed cell, starts from the picked factor's fit.

    Returns the fit and its record: the radius and factor, whether the
    final solve converged and how many CV solves did, the final solve's
    duality gap and the largest CV one (null when no CV ran).
    """
    def radius(factor, cells):
        return factor * math.sqrt(cells.n_cells) * sigma_e

    factors = tuple(hyper["delta_factors"])
    train = held = None
    if len(factors) > 1:
        train, held = _holdout_split(pm, rng)
    factor = factors[0] if len(factors) == 1 else 1.0
    best_fit, cv_converged, cv_gap_max = None, 0, None
    if train is not None:
        scores = np.full(len(factors), np.inf)
        fit, cv_gap_max = None, -math.inf
        for k in sorted(range(len(factors)), key=lambda k: -factors[k]):
            fit = nna(train, radius(factors[k], train), hyper["cv_tol"],
                      hyper["cv_max_iters"], start=fit)
            cv_converged += fit.converged
            cv_gap_max = max(cv_gap_max, fit.gap)
            scores[k] = _holdout_sse(fit.matrix, pm, held)
            # Keep only the fit the final argmin can pick, not every fit: a
            # fit holds two matrices the size of the data.
            if int(np.argmin(scores)) == k:
                best_fit = fit
        factor = factors[int(np.argmin(scores))]
    delta = radius(factor, pm)
    fit = nna(pm, delta, hyper["tol"], hyper["max_iters"], start=best_fit)
    return fit, {"delta": delta, "delta_factor": factor,
                 "admm_iterations": fit.iterations,
                 "admm_converged": fit.converged,
                 "admm_gap": fit.gap,
                 "cv_converged": cv_converged,
                 "cv_gap_max": cv_gap_max}


def _run_ncur(oracle: Oracle, d: int, rng: np.random.Generator,
              hyper: dict) -> _CellOutcome:
    draw = oracle.noisycur(d, rng)
    best, _, folds = draw.cross_validate(hyper["lambda_grid"],
                                         hyper["cv_folds"])
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
    obs, info = chen_observe(oracle, hyper["phase1_fraction"], rng, rank)
    pm = PartialMatrix.from_observations(obs)
    fit, record = _fit_entry_delta(pm, oracle.model.sigma_e, rng, hyper)
    return _CellOutcome(
        estimate=fit.matrix, n_sketch_rows=0,
        hyperparams={**record, "phase1_count": info["phase1_count"],
                     "phase2_count": info["phase2_count"],
                     "scout_rank": rank},
    )


_DRIVERS = {
    "ncur": _run_ncur,
    "curplus": _run_curplus,
    "nna": _run_nna,
    "chen": _run_chen,
}


def run_single_cell(a, model: TwoCostModel, algorithm: str, d: int,
                    seed: int, hyper: dict | None = None) -> dict:
    """Execute one sweep cell from its recorded seed.

    The driver reads the matrix only through an Oracle over ``model``, so
    it cannot spend more than the budget: a read the budget cannot pay
    for is refused before it draws.  Returns the SweepResult fields a
    cell sets, as a plain dict (s, rel_error, abs_error_sq, spent,
    leftover, hyperparams, wall_ms, feasible); spent and leftover are the
    oracle's.  A refused read comes back as a row with feasible = False,
    NaN errors and nothing spent instead of raising, so sweeps continue
    past it.
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
    errors = error_metrics(a, outcome.estimate)
    wall_ms = (time.perf_counter() - start) * 1e3
    return {
        "s": int(outcome.n_sketch_rows),
        **errors,
        "spent": oracle.spent,
        "leftover": oracle.leftover,
        "hyperparams": json.dumps(outcome.hyperparams, sort_keys=True),
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

    # (algorithm, trial, seed, d values filled), in run order
    cells = [(alg, trial, cell_seed(config.master_seed, alg, d_key, trial),
              config.d_grid if d_key == "*" else (d_key,))
             for alg in config.algorithms
             for d_key in (["*"] if alg in D_INDEPENDENT else config.d_grid)
             for trial in range(config.n_trials)]
    payloads = [(a, model, alg, fills[0], seed, hyper[alg])
                for alg, _, seed, fills in cells]
    if config.workers > 1:
        # Imported here: multiprocessing costs every one-worker caller
        # about 1 MB of resident memory.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_pool_cell, payloads))
    else:
        outcomes = [_pool_cell(payload) for payload in payloads]

    rows = [SweepResult(dataset=ds.name, algorithm=alg, d=int(d), trial=trial,
                        seed=seed, **out)
            for (alg, trial, seed, fills), out in zip(cells, outcomes)
            for d in fills]
    rows.sort(key=lambda r: (r.dataset, r.algorithm, r.d, r.trial))
    return rows


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
    """Read back an emit_csv file as SweepResults (wall_ms NaN if absent).

    The dataset and algorithm names are interned, so the rows share one
    string of each.
    """
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            wall = rec.get("wall_ms")
            rows.append(SweepResult(
                dataset=sys.intern(rec["dataset"]),
                algorithm=sys.intern(rec["algorithm"]),
                d=int(rec["d"]), s=int(rec["s"]), trial=int(rec["trial"]),
                seed=int(rec["seed"]), rel_error=float(rec["rel_error"]),
                abs_error_sq=float(rec["abs_error_sq"]),
                spent=float(rec["spent"]), leftover=float(rec["leftover"]),
                hyperparams=rec["hyperparams"],
                wall_ms=math.nan if wall is None else float(wall),
                feasible=rec["feasible"] == "true",
            ))
    return rows


def summarize(rows) -> dict:
    """Each algorithm's figures from sweep rows, {algorithm: figures}:

    - means: {d: mean rel_error over the feasible trials at d};
    - best_d: the d of the lowest mean, ties going to the smaller d (None
      when no cell is feasible);
    - interior: best_d is neither end of the feasible d values, which
      needs at least three of them;
    - median_wall_ms: over executed cells, feasible or not.  The copies of
      a d-independent cell share its seed, so they count once.
    """
    errors, walls = {}, {}
    for row in rows:
        if row.feasible:
            errors.setdefault(row.algorithm, {}).setdefault(
                row.d, []).append(row.rel_error)
        walls.setdefault(row.algorithm, {}).setdefault(row.seed, row.wall_ms)
    out = {}
    for algorithm, by_seed in walls.items():
        by_d = errors.get(algorithm, {})
        ds = sorted(by_d)
        means = {d: float(np.mean(by_d[d])) for d in ds}
        best = min(ds, key=lambda d: (means[d], d)) if ds else None
        out[algorithm] = {
            "means": means, "best_d": best,
            "interior": len(ds) >= 3 and best not in (ds[0], ds[-1]),
            "median_wall_ms": float(np.median(list(by_seed.values())))}
    return out
