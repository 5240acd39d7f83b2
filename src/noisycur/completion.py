"""The noisyCUR estimator: noisy column capture plus sketched ridge completion.

Pipeline: sample d columns through heavy noise, take an orthonormal basis U
of the noisy column matrix, sketch s rows by shrinked leverage scores of U,
observe those rows at entry precision, then ridge-regress the sketched rows
onto the sketched columns.  The reconstruction is c_tilde @ X.

The sketch is per-row counts k_u (linalg.build_sketch), so the ridge runs
on the sampled rows, each read once (observe.sample_rows_noisy): the sum
T_u of row u's k_u per-sample reads has the law of sqrt(k_u) times that
read.  Cross-validation cuts the s samples into folds by per-row counts
K_uf, and draws the fold sums of the reads given T_u,

    Y_uf = (K_uf / k_u) T_u + sigma_e (R_uf - (K_uf / k_u) sum_f' R_uf'),

with R_uf ~ N(0, K_uf I) independent: the joint law of the fold sums of
k_u independent reads, which sum back to T_u.  No path holds s rows.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    RANK_TOL_FACTOR,
    LeverageProfile,
    SketchMatrix,
    apply_sketch_transpose,
    as_matrix,
    build_sketch,
    embedding_distortion,
    orthonormal_basis,
    shrinked_row_scores,
)
from .observe import sample_columns, sample_rows_noisy

__all__ = [
    "NoisyCurConfig",
    "NoisyCurDraw",
    "Reconstruction",
    "ridge_solve",
    "draw_noisycur_samples",
    "solve_from_draw",
    "noisycur",
    "guarantee_sample_sizes",
    "cross_validate_lambda",
]


@dataclass(frozen=True)
class NoisyCurConfig:
    """Sample counts, noise levels, and ridge weight for one run."""

    n_columns: int
    n_rows: int
    sigma_c: float
    sigma_e: float
    ridge_lambda: float

    def __post_init__(self):
        if self.n_columns < 1:
            raise ValueError("n_columns must be >= 1")
        if self.n_rows < 1:
            raise ValueError("n_rows must be >= 1")
        if self.sigma_c < 0 or self.sigma_e < 0:
            raise ValueError("noise levels must be nonnegative")
        if not (self.ridge_lambda >= 0 and math.isfinite(self.ridge_lambda)):
            raise ValueError("ridge_lambda must be nonnegative and finite")


@dataclass
class NoisyCurDraw:
    """Everything random in one run: noisy columns, sketch, sketched targets.

    basis and singular_values come from one SVD of c_tilde (an all-zero
    c_tilde has an empty basis and zero singular values).  row_targets
    holds one read per sampled row u, sketch.scales[u] a_u plus
    N(0, sigma_e^2) per entry (module docstring).
    """

    c_tilde: np.ndarray
    column_indices: np.ndarray
    basis: np.ndarray
    singular_values: np.ndarray
    sketch: SketchMatrix
    row_targets: np.ndarray  # S^T a + noise, (sketch.n_cols, n)
    sigma_e: float
    noise_rng: np.random.Generator = field(repr=False)

    @property
    def basis_rank(self) -> int:
        return self.basis.shape[1]

    def cross_validate(self, grid, n_folds: int):
        """cross_validate_lambda on the draw, from the row-noise stream."""
        return cross_validate_lambda(
            apply_sketch_transpose(self.sketch, self.c_tilde),
            self.row_targets, grid, self.noise_rng, n_folds,
            counts=self.sketch.counts, sigma_e=self.sigma_e)


@dataclass
class Reconstruction:
    """Output of one noisyCUR run.

    estimate = c_tilde @ coefficients always holds by construction.
    diagnostics records the measured sketch distortion on span(c_tilde),
    the smallest singular values of c_tilde and of the sketched design, and
    the ridge weight actually used.
    """

    estimate: np.ndarray
    c_tilde: np.ndarray
    coefficients: np.ndarray
    column_indices: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _svd_kernel(design: np.ndarray):
    """Thin SVD (u, sigma, v^T) of design without the singular values at or
    below linalg's rank tolerance, max(shape) * sigma_1 * RANK_TOL_FACTOR."""
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > max(design.shape) * sv[0] * RANK_TOL_FACTOR
    return u[:, keep], sv[keep], vt[keep]


def ridge_solve(design, targets, ridge_lambda: float, *,
                return_singular_values: bool = False):
    """Solve min_X ||targets - design @ X||_F^2 + ridge_lambda * ||X||_F^2.

    One thin SVD B = U diag(sigma) V^T, truncated at linalg's rank
    tolerance, gives X = V diag(sigma / (sigma^2 + lambda)) U^T Y without
    squaring the condition number in B^T B.  ridge_lambda = 0 gives the
    minimum-norm solution, and warns when fewer singular values than
    columns are kept.  return_singular_values adds the kept ones.
    """
    b = as_matrix(design, "design")
    y = as_matrix(targets, "targets")
    if b.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {b.shape[0]} rows but targets has {y.shape[0]}"
        )
    if not (ridge_lambda >= 0 and math.isfinite(ridge_lambda)):
        raise ValueError("ridge_lambda must be nonnegative and finite")
    u, sv, vt = _svd_kernel(b)
    if ridge_lambda == 0.0 and sv.size < b.shape[1]:
        warnings.warn(
            f"rank-deficient design ({sv.size} < {b.shape[1]}) at "
            "lambda = 0; returning the minimum-norm solution",
            RuntimeWarning,
            stacklevel=2,
        )
    shrink = sv / (sv * sv + ridge_lambda)
    x = vt.T @ (shrink[:, None] * (u.T @ y))
    return (x, sv) if return_singular_values else x


def draw_noisycur_samples(a, cfg: NoisyCurConfig,
                          rng: np.random.Generator) -> NoisyCurDraw:
    """Run the observation half of the pipeline and return all intermediates.

    Three child generators are split off ``rng`` so the column-sampling,
    row-sketching, and row-noise streams stay isolated and replayable.
    """
    a = as_matrix(a)
    rng_cols, rng_sketch, rng_rows = rng.spawn(3)
    c_tilde, indices = sample_columns(a, cfg.n_columns, cfg.sigma_c, rng_cols)
    if np.any(c_tilde):
        basis, singular_values = orthonormal_basis(
            c_tilde, return_singular_values=True)
        profile = shrinked_row_scores(basis)
    else:
        # all-zero observed columns span nothing; sketch rows uniformly so
        # the pipeline still runs (the ridge solve then returns X = 0)
        basis = np.zeros((a.shape[0], 0))
        singular_values = np.zeros(min(c_tilde.shape))
        profile = LeverageProfile(
            np.full(a.shape[0], 1.0 / a.shape[0]), "shrinked-row")
    sketch = build_sketch(profile, cfg.n_rows, rng_sketch)
    row_targets = sample_rows_noisy(a, sketch, cfg.sigma_e, rng_rows)
    return NoisyCurDraw(
        c_tilde=c_tilde,
        column_indices=indices,
        basis=basis,
        singular_values=singular_values,
        sketch=sketch,
        row_targets=row_targets,
        sigma_e=cfg.sigma_e,
        noise_rng=rng_rows,
    )


def _smallest_of_d(singular_values: np.ndarray, d: int) -> float:
    """sigma_d of a matrix with d columns: 0 below d singular values."""
    return float(singular_values[d - 1]) if d <= singular_values.size else 0.0


def solve_from_draw(draw: NoisyCurDraw,
                    ridge_lambda: float) -> Reconstruction:
    """Ridge-solve a draw and package the reconstruction with diagnostics.

    The solve runs on the sampled rows, whose Gram matrix is that of the
    s x d per-sample design, so sigma_d_sketched, from the solve's own
    SVD, is that design's too.
    """
    design = apply_sketch_transpose(draw.sketch, draw.c_tilde)
    x, design_sv = ridge_solve(design, draw.row_targets, ridge_lambda,
                               return_singular_values=True)
    estimate = draw.c_tilde @ x

    d = draw.c_tilde.shape[1]
    diagnostics = {
        "sketch_distortion": (
            embedding_distortion(draw.sketch, draw.basis)
            if draw.basis_rank else 0.0),
        "sigma_d_c_tilde": _smallest_of_d(draw.singular_values, d),
        "sigma_d_sketched": _smallest_of_d(design_sv, d),
        "basis_rank": draw.basis_rank,
        "ridge_lambda": float(ridge_lambda),
    }
    return Reconstruction(
        estimate=estimate,
        c_tilde=draw.c_tilde,
        coefficients=x,
        column_indices=draw.column_indices,
        diagnostics=diagnostics,
    )


def noisycur(a, cfg: NoisyCurConfig,
             rng: np.random.Generator) -> Reconstruction:
    """Full noisyCUR run on ``a`` under ``cfg``; see the module docstring."""
    draw = draw_noisycur_samples(a, cfg, rng)
    return solve_from_draw(draw, cfg.ridge_lambda)


def guarantee_sample_sizes(rank: int, beta: float, kappa2: float,
                           dense_c: float, sigma_c: float,
                           eps: float, delta: float):
    """Column and row sample counts required by the recovery guarantee.

    d must clear two branches: an incoherence branch
    (6 + 2 eps) / (3 eps^2) * beta * rank * log(rank / delta) and a noise
    branch 8 (1 + delta)^2 / (dense_c^2 (1 - eps) eps) * rank * kappa2^2 *
    sigma_c^2, where dense_c lower-bounds at least half the entry magnitudes
    and kappa2 is the ratio of extreme nonzero singular values.  The row
    count then needs s >= (6 + 2 eps) / (3 eps^2) * 2 d * log(d / delta).

    Returns (d_min, s_min), both ceiled to integers >= 1.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if beta <= 0 or dense_c <= 0:
        raise ValueError("beta and dense_c must be positive")
    if kappa2 < 1:
        raise ValueError("kappa2 must be >= 1")
    if sigma_c < 0:
        raise ValueError("sigma_c must be nonnegative")

    lead = (6 + 2 * eps) / (3 * eps * eps)
    incoherence_branch = lead * beta * rank * math.log(rank / delta)
    noise_branch = (8 * (1 + delta) ** 2 / (dense_c**2 * (1 - eps) * eps)
                    * rank * kappa2**2 * sigma_c**2)
    d_min = max(1, math.ceil(max(incoherence_branch, noise_branch)))
    s_min = max(1, math.ceil(lead * 2 * d_min * math.log(d_min / delta)))
    return d_min, s_min


def _fold_counts(counts: np.ndarray, n_folds: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Samples of each row in each fold, (rows, n_folds), drawn fold by fold
    with the law of cutting a random permutation of the samples as
    np.array_split does."""
    out = np.zeros((counts.size, n_folds), dtype=np.int64)
    size, extra = divmod(int(counts.sum()), n_folds)
    left = counts.copy()
    for f in range(n_folds):
        out[:, f] = rng.multivariate_hypergeometric(left, size + (f < extra))
        left -= out[:, f]
    return out


def _fold_sums(targets: np.ndarray, counts: np.ndarray,
               fold_counts: np.ndarray, sigma_e: float,
               rng: np.random.Generator) -> np.ndarray:
    """Fold sums Y_uf of the per-sample reads, shape (rows, folds, n), given
    T_u = sqrt(k_u) targets[u] (module docstring)."""
    share = (fold_counts / counts[:, None])[:, :, None]
    sums = share * (np.sqrt(counts)[:, None] * targets)[:, None, :]
    multi = counts > 1  # a row sampled once has one fold sum, T_u
    if sigma_e > 0 and multi.any():
        r = rng.standard_normal((np.count_nonzero(multi),) + sums.shape[1:])
        r *= sigma_e * np.sqrt(fold_counts[multi])[:, :, None]
        r -= share[multi] * r.sum(axis=1, keepdims=True)
        sums[multi] += r
    return sums


def _held_out_sse(train_design, train_targets, test_design, test_targets,
                  grid: np.ndarray) -> np.ndarray:
    """Held-out squared error of the ridge fit for every lambda in grid:
    with T = test_design V, Q = U^T train_targets, R the residual at the
    lightest ridge and E its shrinkage sigma / (sigma^2 + lambda) minus
    lambda's, ||R||^2 + 2 E . diag(T^T R Q^T) + E^T ((T^T T) o (Q Q^T)) E,
    whose terms shrink with E rather than cancel."""
    u, sv, vt = _svd_kernel(train_design)
    q = u.T @ train_targets
    tv = test_design @ vt.T
    shrink = sv / (sv * sv + grid[:, None])
    lightest = shrink[np.argmin(grid)]
    resid = test_targets - tv @ (lightest[:, None] * q)
    e = lightest - shrink
    cross = np.sum((tv.T @ resid) * q, axis=1)
    quad = (tv.T @ tv) * (q @ q.T)
    return (float(np.sum(resid * resid)) + 2 * (e @ cross)
            + np.sum((e @ quad) * e, axis=1))


def cross_validate_lambda(design, targets, grid, rng: np.random.Generator,
                          n_folds: int = 5, *, counts=None,
                          sigma_e: float = 0.0):
    """Pick the ridge weight by k-fold cross-validation over sketched samples.

    Row u stands for k_u = counts[u] samples (default 1) of design row
    p_u = design[u] / sqrt(k_u), whose reads sum to T_u = sqrt(k_u)
    targets[u].  The s samples are cut into min(n_folds, s) folds by fold
    counts K_uf and fold sums Y_uf drawn from rng (module docstring).  Fold
    f scores the whole grid from one SVD of its training rows, design
    sqrt(k_u - K_uf) p_u and target (T_u - Y_uf) / sqrt(k_u - K_uf) (the
    normal equations of row u's other samples).  Its K_uf reads y_j score

        sum_j ||y_j - p_u X||^2 = ||Y_uf / sqrt(K_uf) - sqrt(K_uf) p_u X||^2
                                  + sum_j ||y_j||^2 - ||Y_uf||^2 / K_uf,

    whose last terms, the reads' scatter, do not depend on lambda and,
    given the fold sums, are sigma_e^2 chi^2((K_uf - 1) n) independently.
    One chi^2 draw of the summed degrees of freedom is added to the curve,
    which so keeps the per-sample held-out error's law and argmin.

    Returns (best_lambda, curve, folds), curve[i] being the held-out
    squared error for grid[i].  With one grid value or fewer than two
    folds no split runs: best_lambda is the smallest grid value, curve is
    NaN and folds is 0.  Exact ties go to the larger lambda.
    """
    b = as_matrix(design, "design")
    y = as_matrix(targets, "targets")
    if b.shape[0] != y.shape[0]:
        raise ValueError("design and targets row counts differ")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1-D vector")
    if not np.isfinite(grid).all() or (grid < 0).any():
        raise ValueError("grid values must be finite and nonnegative")
    k = (np.ones(b.shape[0], dtype=np.int64) if counts is None
         else np.asarray(counts, dtype=np.int64))
    if k.shape != (b.shape[0],) or (k < 1).any():
        raise ValueError("counts must be positive, one per row")
    if sigma_e < 0:
        raise ValueError("sigma_e must be nonnegative")
    s = int(k.sum())
    folds = min(int(n_folds), s)
    if grid.size == 1 or folds < 2:
        return float(grid.min()), np.full(grid.size, np.nan), 0

    fold_counts = _fold_counts(k, folds, rng)
    fold_sums = _fold_sums(y, k, fold_counts, sigma_e, rng)
    per_sample = b / np.sqrt(k)[:, None]
    totals = np.sqrt(k)[:, None] * y
    curve = np.zeros(grid.size)
    for f in range(folds):
        held, rest = fold_counts[:, f], k - fold_counts[:, f]
        train, test = rest > 0, held > 0
        w = np.sqrt(rest[train])[:, None]
        v = np.sqrt(held[test])[:, None]
        curve += _held_out_sse(
            w * per_sample[train], (totals - fold_sums[:, f])[train] / w,
            v * per_sample[test], fold_sums[test, f] / v, grid)
    scatter_dof = y.shape[1] * (s - np.count_nonzero(fold_counts))
    if sigma_e > 0 and scatter_dof > 0:
        curve += sigma_e * sigma_e * rng.chisquare(scatter_dof)
    best = float(np.max(grid[curve == curve.min()]))
    return best, curve, folds
