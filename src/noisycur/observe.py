"""Two-cost observation model: cheap noisy columns vs costly accurate entries.

Column samples cost column_price each and are read through i.i.d. additive
N(0, sigma_c^2) noise; entry samples cost entry_price each with N(0,
sigma_e^2) noise, sigma_e < sigma_c.  Noise is regenerated per observation:
sampling the same column or cell twice yields independent noise draws.
The samplers here read a matrix without charging anything; a sweep reads
through harness.Oracle, which charges the budget before every read and
refuses, with InfeasiblePlanError, a read the budget cannot pay for.

noisyCUR's sketch holds per-row counts k_u (linalg.build_sketch), and
sample_rows_noisy reads each sampled row once at the sketch's scale with
N(0, sigma_e^2) noise per entry: the exact law of the scaled sum of the
k_u per-sample reads the budget pays for (s * n entries in all).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import SketchMatrix, apply_sketch_transpose, as_matrix

__all__ = [
    "InfeasiblePlanError",
    "TwoCostModel",
    "ObservationSet",
    "sample_columns",
    "sample_rows_noisy",
    "sample_entries",
    "snr",
]


class InfeasiblePlanError(ValueError):
    """A read of fewer than one sample, or one the budget cannot pay for."""


@dataclass(frozen=True)
class TwoCostModel:
    """Prices, noise levels, and total budget of the observation regime.

    sigma_e and sigma_c are standard deviations.  The model requires strictly
    cheaper-per-entry and strictly noisier column samples (sigma_c > sigma_e);
    call validate_for_rows(m) to also enforce column_price < m * entry_price
    once the ambient row count is known.
    """

    entry_price: float
    column_price: float
    sigma_e: float
    sigma_c: float
    budget: float

    def __post_init__(self):
        if not (self.entry_price > 0 and math.isfinite(self.entry_price)):
            raise ValueError("entry_price must be positive and finite")
        if not (self.column_price > 0 and math.isfinite(self.column_price)):
            raise ValueError("column_price must be positive and finite")
        if not (0 <= self.sigma_e < self.sigma_c):
            raise ValueError("need sigma_c > sigma_e >= 0")
        if not (self.budget >= 0 and math.isfinite(self.budget)):
            raise ValueError("budget must be nonnegative and finite")

    def validate_for_rows(self, n_rows: int):
        if not self.column_price < n_rows * self.entry_price:
            raise ValueError(
                f"column_price {self.column_price} must be below "
                f"{n_rows} * entry_price = {n_rows * self.entry_price}"
            )


ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64),
                        ("value", np.float64)])


@dataclass
class ObservationSet:
    """Raw record of noisy entry samples taken from a matrix.

    entry_samples is a structured array of (row, col, value) records, one
    per sample in sampling order, with fields "row", "col" and "value"; a
    list of such triples is converted.  Repeated cells are legal and keep
    their independent noise.
    """

    shape: tuple
    entry_samples: np.ndarray = field(
        default_factory=lambda: np.empty(0, ENTRY_DTYPE))

    def __post_init__(self):
        m, n = self.shape
        if m < 1 or n < 1:
            raise ValueError("shape must be positive")
        self.entry_samples = np.asarray(self.entry_samples, dtype=ENTRY_DTYPE)
        rows, cols = self.entry_samples["row"], self.entry_samples["col"]
        bad = (rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"entry index ({rows[k]}, {cols[k]}) out of range")


def sample_columns(a, d: int, sigma_c: float, rng: np.random.Generator):
    """d columns of ``a`` drawn uniformly with replacement, read through noise.

    Returns (c_tilde, indices) where c_tilde is m x d.  Duplicated indices
    get fresh noise each time; sigma_c = 0 reproduces the columns bit-exactly.
    """
    a = as_matrix(a)
    if d < 1:
        raise ValueError("need d >= 1")
    if sigma_c < 0:
        raise ValueError("sigma_c must be nonnegative")
    indices = rng.integers(0, a.shape[1], size=int(d))
    c_tilde = a[:, indices].copy()
    if sigma_c > 0:
        c_tilde += sigma_c * rng.standard_normal(c_tilde.shape)
    return c_tilde, indices


def sample_rows_noisy(a, sketch: SketchMatrix, sigma_e: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Sketched rows S^T a plus i.i.d. N(0, sigma_e^2) noise on every entry."""
    if sigma_e < 0:
        raise ValueError("sigma_e must be nonnegative")
    y = apply_sketch_transpose(sketch, a)
    if sigma_e > 0:
        y = y + sigma_e * rng.standard_normal(y.shape)
    return y


def sample_entries(a, count: int, sigma_e: float, rng: np.random.Generator,
                   weights=None) -> ObservationSet:
    """count noisy entry observations, i.i.d. with replacement.

    weights is either None (uniform over all cells) or an array of
    nonnegative cell weights, shape (m, n) or flat of length m * n; it is
    normalized internally.  Cells with zero weight are never sampled.
    """
    a = as_matrix(a)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if sigma_e < 0:
        raise ValueError("sigma_e must be nonnegative")
    m, n = a.shape
    if weights is None:
        flat_idx = rng.integers(0, m * n, size=int(count))
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size != m * n:
            raise ValueError(f"weights must have {m * n} cells, got {w.size}")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise ValueError("weights sum to zero")
        flat_idx = rng.choice(m * n, size=int(count), p=w / total)
    rows, cols = np.unravel_index(flat_idx, (m, n))
    values = a[rows, cols]
    if sigma_e > 0:
        values = values + sigma_e * rng.standard_normal(values.shape)
    samples = np.empty(rows.size, ENTRY_DTYPE)
    samples["row"], samples["col"], samples["value"] = rows, cols, values
    return ObservationSet(shape=(m, n), entry_samples=samples)


def snr(a, sigma_c: float) -> float:
    """Signal-to-noise ratio ||a||_F^2 / (m * n * sigma_c^2)."""
    a = as_matrix(a)
    if not sigma_c > 0:
        raise ValueError("sigma_c must be positive")
    signal = float(np.sum(a * a))
    return signal / (a.size * sigma_c**2)
