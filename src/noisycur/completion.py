"""The noisyCUR estimator: noisy column capture plus sketched ridge completion.

Pipeline: sample d columns through heavy noise, take an orthonormal basis U
of the noisy column matrix, sketch s rows by shrinked leverage scores of U,
observe those rows at entry precision, then ridge-regress the sketched rows
onto the sketched columns.  The reconstruction is c_tilde @ X.

The sketch samples its s rows with replacement, so S S^T is diagonal with
weights w_u, and the ridge problem has the same normal equations on the
distinct sampled rows alone, each with scale sqrt(w_u).  Rows are observed
on that collapsed sketch too.  Sample j of row u reads
y_j = scale_j a_u + sigma_e z_j with z_j i.i.d. N(0, I); with
c_j = scale_j / sqrt(w_u), so that the c_j of row u have unit norm, the
sum t_u = sum_j c_j y_j = sqrt(w_u) a_u + sigma_e N(0, I) is one noisy read
of row u at the collapsed scale.  So the solve draws one target per
distinct row (at most m of them, however large s is), and the s per-sample
targets that cross-validation folds over are drawn from t by Gaussian
conditioning only when read: y_j = c_j t_u + sigma_e (r_j - c_j
sum_{k in u} c_k r_k) with r i.i.d. N(0, I), which has the joint law above
and sums back to t_u.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .linalg import (
    LeverageProfile,
    SketchMatrix,
    apply_sketch_transpose,
    as_matrix,
    build_sketch,
    embedding_distortion,
    orthonormal_basis,
    shrinked_row_scores,
)
from .observe import SamplingPlan, sample_columns, sample_rows_noisy

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
    holds one noisy read per distinct sampled row, on the collapsed sketch:
    its row u is sqrt(w_u) a_u plus N(0, sigma_e^2) per entry, the
    scale-weighted sum of that row's per-sample reads (module docstring).
    The per-sample targets and design, shape (s, n) and (s, d), are built
    on demand only: the solve never needs them, cross-validation over
    samples does.
    """

    c_tilde: np.ndarray
    column_indices: np.ndarray
    basis: np.ndarray
    singular_values: np.ndarray
    scores: np.ndarray
    sketch: SketchMatrix
    collapsed: SketchMatrix
    inverse: np.ndarray  # collapsed column of each sample
    row_targets: np.ndarray  # collapsed S^T a + noise, (collapsed.n_cols, n)
    sigma_e: float
    noise_rng: np.random.Generator = field(repr=False)

    @property
    def basis_rank(self) -> int:
        return self.basis.shape[1]

    @property
    def design(self) -> np.ndarray:
        """S^T c_tilde, shape (s, d), gathered afresh on every access."""
        return apply_sketch_transpose(self.sketch, self.c_tilde)

    @cached_property
    def sample_targets(self) -> np.ndarray:
        """Per-sample targets S^T a + noise, shape (s, n), drawn on first read.

        The noise comes from the row-noise stream, after the row draw, by
        Gaussian conditioning on row_targets (module docstring), so the
        per-sample reads have the law of s independent reads and collapse
        back to row_targets.
        """
        c = self.sketch.scales / self.collapsed.scales[self.inverse]
        y = c[:, None] * self.row_targets[self.inverse]
        if self.sigma_e > 0:
            r = self.noise_rng.standard_normal(y.shape)
            s = self.sketch.n_cols
            # sum_{k in u} c_k r_k for every sampled row u, one nonzero per
            # column, so no sort is needed
            row_sums = scipy.sparse.csc_array(
                (c, self.inverse, np.arange(s + 1)),
                shape=(self.collapsed.n_cols, s)) @ r
            y += self.sigma_e * (r - c[:, None] * row_sums[self.inverse])
        return y


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
    plan: SamplingPlan | None = None


def ridge_solve(design, targets, ridge_lambda: float) -> np.ndarray:
    """Solve min_X ||targets - design @ X||_F^2 + ridge_lambda * ||X||_F^2.

    For ridge_lambda > 0 the normal equations (B^T B + lambda I) X = B^T Y
    are solved by Cholesky factorization; if roundoff makes the shifted Gram
    matrix numerically indefinite the solver falls back to a least-squares
    solve of the stacked system.  ridge_lambda = 0 returns the minimum-norm
    least-squares solution and warns when the design is rank deficient.
    """
    b = as_matrix(design, "design")
    y = as_matrix(targets, "targets")
    if b.shape[0] != y.shape[0]:
        raise ValueError(
            f"design has {b.shape[0]} rows but targets has {y.shape[0]}"
        )
    if not (ridge_lambda >= 0 and math.isfinite(ridge_lambda)):
        raise ValueError("ridge_lambda must be nonnegative and finite")
    d = b.shape[1]

    if ridge_lambda == 0.0:
        x, _, rank, _ = np.linalg.lstsq(b, y, rcond=None)
        if rank < d:
            warnings.warn(
                f"rank-deficient design ({rank} < {d}) at lambda = 0; "
                "returning the minimum-norm solution",
                RuntimeWarning,
                stacklevel=2,
            )
        return x

    shifted = b.T @ b + ridge_lambda * np.eye(d)
    rhs = b.T @ y
    try:
        factor = scipy.linalg.cho_factor(shifted, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    except scipy.linalg.LinAlgError:
        # Shifted Gram numerically indefinite (tiny lambda on a near-singular
        # design); the stacked formulation is slower but unconditionally safe.
        stacked = np.vstack([b, math.sqrt(ridge_lambda) * np.eye(d)])
        padded = np.vstack([y, np.zeros((d, y.shape[1]))])
        return np.linalg.lstsq(stacked, padded, rcond=None)[0]


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
    collapsed, inverse = sketch.collapse()
    row_targets = sample_rows_noisy(a, collapsed, cfg.sigma_e, rng_rows)
    return NoisyCurDraw(
        c_tilde=c_tilde,
        column_indices=indices,
        basis=basis,
        singular_values=singular_values,
        scores=profile.scores,
        sketch=sketch,
        collapsed=collapsed,
        inverse=inverse,
        row_targets=row_targets,
        sigma_e=cfg.sigma_e,
        noise_rng=rng_rows,
    )


def _smallest_of_d(singular_values: np.ndarray, d: int) -> float:
    """sigma_d of a matrix with d columns: 0 when it has fewer than d rows."""
    return float(singular_values[d - 1]) if d <= singular_values.size else 0.0


def solve_from_draw(draw: NoisyCurDraw, ridge_lambda: float,
                    plan: SamplingPlan | None = None) -> Reconstruction:
    """Ridge-solve a draw and package the reconstruction with diagnostics.

    The solve runs on the collapsed sketch: row u carries the design row
    sqrt(w_u) c_tilde[u] and its target draw.row_targets[u].  The Gram matrix
    equals the per-sample one, so sigma_d_sketched, taken from the
    singular values of this design of at most m rows, is that of the
    s x d per-sample design too.
    """
    design = apply_sketch_transpose(draw.collapsed, draw.c_tilde)
    x = ridge_solve(design, draw.row_targets, ridge_lambda)
    estimate = draw.c_tilde @ x

    d = draw.c_tilde.shape[1]
    diagnostics = {
        "sketch_distortion": (
            embedding_distortion(draw.collapsed, draw.basis)
            if draw.basis_rank else 0.0),
        "sigma_d_c_tilde": _smallest_of_d(draw.singular_values, d),
        "sigma_d_sketched": _smallest_of_d(
            np.linalg.svd(design, compute_uv=False), d),
        "basis_rank": draw.basis_rank,
        "ridge_lambda": float(ridge_lambda),
    }
    return Reconstruction(
        estimate=estimate,
        c_tilde=draw.c_tilde,
        coefficients=x,
        column_indices=draw.column_indices,
        diagnostics=diagnostics,
        plan=plan,
    )


def noisycur(a, cfg: NoisyCurConfig, rng: np.random.Generator,
             plan: SamplingPlan | None = None) -> Reconstruction:
    """Full noisyCUR run on ``a`` under ``cfg``; see the module docstring."""
    draw = draw_noisycur_samples(a, cfg, rng)
    return solve_from_draw(draw, cfg.ridge_lambda, plan=plan)


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


def cross_validate_lambda(design, targets, grid, rng: np.random.Generator,
                          n_folds: int = 5):
    """Pick the ridge weight by k-fold cross-validation over sketched rows.

    The rows of (design, targets) are shuffled once and split into n_folds
    contiguous folds; for every grid value the model is fit on the
    complement and scored by squared error on the held-out rows, reusing one
    SVD per fold across the whole grid.  No new observations are drawn.

    Returns (best_lambda, curve) where curve[i] is the total held-out
    squared error for grid[i].  Exact ties are broken toward the larger
    lambda.
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
    s = b.shape[0]
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    if s < n_folds:
        raise ValueError(f"cannot split {s} rows into {n_folds} folds")

    perm = rng.permutation(s)
    folds = np.array_split(perm, n_folds)
    curve = np.zeros(grid.size)
    for held_out in folds:
        train = np.setdiff1d(perm, held_out, assume_unique=True)
        u, sv, vt = np.linalg.svd(b[train], full_matrices=False)
        keep = sv > max(b.shape) * sv[0] * 1e-12 if sv.size and sv[0] > 0 else sv > 0
        u, sv, vt = u[:, keep], sv[keep], vt[keep]
        uty = u.T @ y[train]                    # (k, n)
        test_v = b[held_out] @ vt.T             # (t, k)
        y_test = y[held_out]
        for g, lam in enumerate(grid):
            if sv.size == 0:
                pred = np.zeros_like(y_test)
            else:
                shrink = sv / (sv * sv + lam) if lam > 0 else 1.0 / sv
                pred = (test_v * shrink) @ uty
            diff = pred - y_test
            curve[g] += float(np.sum(diff * diff))
    best = float(np.max(grid[curve == curve.min()]))
    return best, curve
