"""Dataset generation and loading: synthetic low-rank, joke ratings, movie ratings.

The loaders are pure parsers: they never sample or add noise, and malformed
input fails with the offending line number.  The movie-ratings matrix is
incomplete by nature, so experiments against it first densify it with the
iterative truncated-SVD imputer and treat the completed matrix as ground
truth.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .baselines import PartialMatrix
from .linalg import as_matrix

__all__ = [
    "ParseError",
    "DatasetSpec",
    "synthetic_lowrank",
    "load_jester",
    "load_movielens_100k",
    "iterative_svd_complete",
    "truncated_svd_approx",
]

JESTER_N_JOKES = 100
JESTER_MISSING = 99.0
MOVIELENS_N_ITEMS = 1682
MOVIELENS_N_USERS = 943


class ParseError(ValueError):
    """Malformed dataset file; message carries the 1-based line number."""


@dataclass(frozen=True)
class DatasetSpec:
    """Descriptor of a ground-truth matrix used in sweeps."""

    name: str
    n_rows: int
    n_cols: int
    rank: int


def truncated_svd_approx(a, rank: int) -> np.ndarray:
    """Best rank-``rank`` approximation in Frobenius norm via thin SVD."""
    a = as_matrix(a)
    if not 1 <= rank <= min(a.shape):
        raise ValueError(f"rank must be in [1, {min(a.shape)}], got {rank}")
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    return (u[:, :rank] * sv[:rank]) @ vt[:rank]


def synthetic_lowrank(n_rows: int, n_cols: int, rank: int,
                      mean: float = 5.0, std: float = 1.0,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Best rank-r approximation of an i.i.d. N(mean, std^2) matrix.

    Bit-reproducible for a given generator state.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if std < 0:
        raise ValueError("std must be nonnegative")
    rng = rng or np.random.default_rng()
    dense = mean + std * rng.standard_normal((n_rows, n_cols))
    return truncated_svd_approx(dense, rank)


def _split_fields(line: str):
    if "," in line:
        return [f.strip() for f in line.split(",")]
    return line.split()


def load_jester(path, expected_users: int | None = None) -> np.ndarray:
    """Load a joke-ratings file and keep only users who rated every joke.

    Format: one user per row, a leading rated-count column, then 100 ratings
    in [-10, 10] with 99 marking missing.  Returns the complete-user
    submatrix (n_complete x 100).  If expected_users is given and fewer
    complete rows are found, raises with the actual count.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = _split_fields(line)
            if len(fields) != JESTER_N_JOKES + 1:
                raise ParseError(
                    f"line {lineno}: expected {JESTER_N_JOKES + 1} fields, "
                    f"got {len(fields)}"
                )
            try:
                values = [float(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            declared = values[0]
            ratings = np.asarray(values[1:])
            missing = ratings == JESTER_MISSING
            bad = ~missing & (~np.isfinite(ratings)
                              | (ratings < -10.0) | (ratings > 10.0))
            if bad.any():
                raise ParseError(
                    f"line {lineno}: rating {ratings[bad][0]} outside [-10, 10]"
                )
            if not math.isfinite(declared):
                raise ParseError(f"line {lineno}: bad rated-count {declared}")
            n_rated = int((~missing).sum())
            if int(declared) != n_rated:
                warnings.warn(
                    f"line {lineno}: declared count {int(declared)} != "
                    f"observed {n_rated}",
                    stacklevel=2,
                )
            if n_rated == JESTER_N_JOKES:
                rows.append(ratings)
    if expected_users is not None and len(rows) < expected_users:
        raise ValueError(
            f"expected {expected_users} complete users, found {len(rows)}"
        )
    if not rows:
        return np.empty((0, JESTER_N_JOKES))
    return np.vstack(rows)


def load_movielens_100k(path) -> PartialMatrix:
    """Load tab-separated (user, item, rating, timestamp) ratings.

    Returns an items x users PartialMatrix of shape (1682, 943) with cell
    (item - 1, user - 1) = rating.  Ratings must be integers in 1..5;
    duplicate (user, item) pairs keep the last occurrence with a warning.
    """
    last = {}
    dupes = 0
    n_lines = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            n_lines += 1
            fields = line.split()
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: expected 4 fields, got {len(fields)}")
            try:
                user, item, rating = int(fields[0]), int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if not 1 <= user <= MOVIELENS_N_USERS:
                raise ParseError(f"line {lineno}: user id {user} out of range")
            if not 1 <= item <= MOVIELENS_N_ITEMS:
                raise ParseError(f"line {lineno}: item id {item} out of range")
            if not 1 <= rating <= 5:
                raise ParseError(f"line {lineno}: rating {rating} out of range")
            key = (item - 1, user - 1)
            if key in last:
                dupes += 1
            last[key] = float(rating)
    if n_lines == 0:
        warnings.warn(f"{path}: no ratings found", stacklevel=2)
    if dupes:
        warnings.warn(f"{path}: {dupes} duplicate (user, item) pairs, kept last",
                      stacklevel=2)
    cells = np.array(list(last), dtype=np.int64).reshape(-1, 2)
    return PartialMatrix((MOVIELENS_N_ITEMS, MOVIELENS_N_USERS),
                         cells[:, 0], cells[:, 1], list(last.values()))


def iterative_svd_complete(obs: PartialMatrix, rank: int,
                           max_iters: int = 200, tol: float = 1e-4):
    """Complete a partial matrix by alternating rank truncation and refill.

    Missing cells start at their column's observed mean (global mean for an
    all-missing column, with a warning).  Each iteration takes the best
    rank-r approximation of the filled matrix, then refills the missing
    cells from it while resetting observed cells to their observed values.
    Stops when the relative change between successive approximations drops
    below tol.

    Returns (approximation, info); info records the observed-cell residual
    trace (non-increasing), the iteration count, and the convergence flag.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if obs.n_cells == 0:
        raise ValueError("cannot complete a matrix with no observed cells")
    mask = obs.mask()
    observed = obs.dense_fill(0.0)
    m, n = obs.shape

    col_counts = mask.sum(axis=0)
    col_sums = observed.sum(axis=0)
    global_mean = observed[mask].mean()
    if (col_counts == 0).any():
        warnings.warn(
            f"{int((col_counts == 0).sum())} columns have no observations; "
            "filling with the global mean",
            stacklevel=2,
        )
    col_means = np.where(col_counts > 0,
                         col_sums / np.maximum(col_counts, 1), global_mean)

    filled = np.where(mask, observed, np.broadcast_to(col_means, (m, n)))
    trace = []
    approx = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        prev = approx
        approx = truncated_svd_approx(filled, rank)
        trace.append(float(np.linalg.norm((observed - approx)[mask])))
        if mask.all():
            converged = True
            break
        if prev is not None:
            denom = max(float(np.linalg.norm(prev)), 1e-30)
            if float(np.linalg.norm(approx - prev)) / denom < tol:
                converged = True
                break
        filled = np.where(mask, observed, approx)
    info = {
        "trace": np.asarray(trace),
        "iterations": iterations,
        "converged": converged,
    }
    return approx, info
