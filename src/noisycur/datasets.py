"""Dataset generation and loading: synthetic low-rank, joke ratings, movie ratings.

The loaders are pure parsers: they never sample or add noise, and malformed
input fails with the offending line number.  The movie-ratings matrix is
incomplete by nature, so experiments against it first densify it with the
iterative truncated-SVD imputer and treat the completed matrix as ground
truth.
"""

import warnings
from array import array
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
                      *, rng: np.random.Generator) -> np.ndarray:
    """Best rank-r approximation of an i.i.d. N(mean, std^2) matrix.

    Bit-reproducible for a given generator state; like every randomized
    stage, it takes an explicit Generator.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if std < 0:
        raise ValueError("std must be nonnegative")
    dense = mean + std * rng.standard_normal((n_rows, n_cols))
    return truncated_svd_approx(dense, rank)


def _split_fields(line: str):
    if "," not in line:
        return line.split()
    fields = line.split(",")
    if len(line.split(maxsplit=1)) > 1:  # whitespace inside: strip fields
        fields = list(map(str.strip, fields))
    return fields


def load_jester(path, expected_users: int | None = None) -> np.ndarray:
    """Load a joke-ratings file and keep only users who rated every joke.

    Format: one user per row, a leading rated-count column, then 100 ratings
    in [-10, 10] with 99 marking missing.  Returns the complete-user
    submatrix (n_complete x 100).  If expected_users is given and fewer
    complete rows are found, raises with the actual count.

    The file is read in one streaming pass: each row's fields go through
    Python's ``float`` into one flat buffer, and the range, rated-count and
    declared-count checks then run on the whole array at once.  Errors and
    warnings come out as a line-by-line parser would give them: the first
    error in file order wins, whether it is a field-count, number, range or
    rated-count error (or a read error), and each declared-count mismatch
    on a line before it warns, in file order.  On one line a range error
    comes before a bad rated-count, and neither line warns.
    """
    width = JESTER_N_JOKES + 1
    buf, linenos = array("d"), []
    stop = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                fields = _split_fields(line)
                if len(fields) != width:
                    raise ParseError(f"line {lineno}: expected {width} "
                                     f"fields, got {len(fields)}")
                try:  # a row that fails to parse adds nothing to buf
                    buf.fromlist(list(map(float, fields)))
                except ValueError as exc:
                    raise ParseError(f"line {lineno}: {exc}") from None
                linenos.append(lineno)
    except (OSError, ValueError) as exc:
        # Rows read before the failing line are checked first: one of them
        # may hold an earlier error.
        stop = exc
    data = np.frombuffer(buf).reshape(-1, width)
    declared, ratings = data[:, 0], data[:, 1:]
    valid = ratings == JESTER_MISSING
    n_rated = JESTER_N_JOKES - valid.sum(axis=1)
    valid |= (ratings >= -10.0) & (ratings <= 10.0)  # false on NaN
    row_bad = ~valid.all(axis=1) | ~np.isfinite(declared)
    n_ok = int(row_bad.argmax()) if row_bad.any() else len(data)
    for k in np.flatnonzero(np.trunc(declared[:n_ok]) != n_rated[:n_ok]):
        warnings.warn(f"line {linenos[k]}: declared count {int(declared[k])}"
                      f" != observed {n_rated[k]}", stacklevel=2)
    if n_ok < len(data):
        bad = ratings[n_ok][~valid[n_ok]]
        if bad.size:
            raise ParseError(f"line {linenos[n_ok]}: rating {bad[0]} "
                             "outside [-10, 10]")
        raise ParseError(f"line {linenos[n_ok]}: bad rated-count "
                         f"{float(declared[n_ok])}")
    if stop is not None:
        raise stop
    complete = ratings[n_rated == JESTER_N_JOKES]
    if expected_users is not None and len(complete) < expected_users:
        raise ValueError(
            f"expected {expected_users} complete users, found {len(complete)}"
        )
    return complete


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
