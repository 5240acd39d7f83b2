"""Completion baselines: nuclear-norm solvers, CUR+, and two-phase entry sampling.

The nuclear-norm solver minimizes ||Z||_* subject to one Frobenius ball
around the observed entries, by ADMM with a singular-value thresholding
step on Z and a projection onto the ball on the splitting variable.  Every
baseline reads entry observations only, aggregated into a PartialMatrix.

The ADMM penalty rho starts at AdmmSettings.rho and is balanced against the
residuals as the solve runs (Boyd et al. 2011, section 3.4.1: mu = 10,
tau = 2), with the scaled dual rescaled by rho_old / rho_new at each change.
A solve can be warm-started from an earlier AdmmResult, whose final iterate,
scaled dual and penalty it carries, so that a path of radii is solved from
one radius to the next (Mazumder, Hastie & Tibshirani 2010).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .observe import ObservationSet

__all__ = [
    "PartialMatrix",
    "AdmmSettings",
    "AdmmResult",
    "CurPlusFit",
    "svt",
    "nna",
    "curplus",
    "chen_observe",
]


class PartialMatrix:
    """Mean observation of each observed cell.

    Built from raw (rows, cols, values) observations, repeats allowed.
    rows and cols hold the distinct observed cells in row-major sorted
    order, and values the mean of each cell's observations, whose sum runs
    in input order.
    """

    def __init__(self, shape, rows=(), cols=(), values=()):
        m, n = int(shape[0]), int(shape[1])
        if m < 1 or n < 1:
            raise ValueError("shape must be positive")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(cols, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if not rows.size == cols.size == values.size:
            raise ValueError("rows, cols and values differ in length")
        if ((rows < 0) | (rows >= m) | (cols < 0) | (cols >= n)).any():
            raise ValueError(f"observed cell out of range for shape {(m, n)}")
        if not np.isfinite(values).all():
            raise ValueError("observed values must be finite")
        cells, inverse = np.unique(rows * n + cols, return_inverse=True)
        self.shape = (m, n)
        self.rows, self.cols = np.divmod(cells, n)
        self.values = (np.bincount(inverse, values, cells.size)
                       / np.bincount(inverse, minlength=cells.size))

    @classmethod
    def from_observations(cls, obs: ObservationSet) -> "PartialMatrix":
        samples = obs.entry_samples
        return cls(obs.shape, samples["row"], samples["col"], samples["value"])

    @property
    def n_cells(self) -> int:
        return self.rows.size

    def dense_fill(self, fill: float = 0.0) -> np.ndarray:
        out = np.full(self.shape, float(fill))
        out[self.rows, self.cols] = self.values
        return out

    def mask(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        out[self.rows, self.cols] = True
        return out

    def subset(self, positions) -> "PartialMatrix":
        """New PartialMatrix of the cells at the given positions of the cell
        arrays, their means kept."""
        return PartialMatrix(self.shape, self.rows[positions],
                             self.cols[positions], self.values[positions])


def svt(a, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau, floor at 0.

    This is the proximal operator of tau * ||.||_*; svt(a, 0) returns ``a``
    (up to roundoff) and any tau >= sigma_1 returns the zero matrix.
    """
    a = as_matrix(a)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    shrunk = np.maximum(sv - tau, 0.0)
    return (u * shrunk) @ vt


@dataclass(frozen=True)
class AdmmSettings:
    """Initial penalty weight, stopping tolerance, and iteration cap for ADMM."""

    rho: float = 1.0
    tol: float = 1e-6
    max_iters: int = 2000

    def __post_init__(self):
        if self.rho <= 0 or not math.isfinite(self.rho):
            raise ValueError("rho must be positive and finite")
        if self.tol <= 0 or not math.isfinite(self.tol):
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class AdmmResult:
    """Solver output: the iterate plus its convergence certificate."""

    matrix: np.ndarray
    converged: bool
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float  # ||Z||_* + (rho/2) ||Z - W||_F^2 at the last iterate
    dual: np.ndarray  # scaled dual U at the last iterate, for warm starts
    rho: float  # penalty after the last balancing step


def _project_ball(v, target, rows, cols, radius):
    """Project v onto {W : ||P_omega(W - target)||_F <= radius}, omega the
    cells (rows, cols); cells outside omega are unconstrained."""
    w = v.copy()
    diff = v[rows, cols] - target[rows, cols]
    norm = math.sqrt(float(np.sum(diff * diff)))
    if norm > radius:
        w[rows, cols] = target[rows, cols] + radius / norm * diff
    return w


def _admm_nuclear(target, rows, cols, radius: float, settings: AdmmSettings,
                  start: AdmmResult | None = None) -> AdmmResult:
    """min ||Z||_* s.t. ||P_omega(Z - target)||_F <= radius, omega the cells
    (rows, cols).

    Scaled two-block ADMM: a singular value thresholding step on Z, a ball
    projection step on the splitting variable W, and a dual update.  Boyd-
    style combined absolute/relative stopping with settings.tol for both.

    settings.rho is the initial penalty.  After each iteration's stopping
    test the penalty is balanced against the residuals (Boyd et al. 2011,
    section 3.4.1, with mu = 10 and tau = 2): rho doubles when the primal
    residual exceeds ten times the dual one and halves in the opposite
    case, and the scaled dual U is rescaled by rho_old / rho_new so that
    the unscaled dual rho * U is unchanged.

    ``start`` warm-starts the solve from an earlier result, typically the
    previous radius on a regularisation path (Mazumder, Hastie &
    Tibshirani 2010): W, U and rho are taken from it, and Z is recomputed
    from W - U in the first step.  The ball need not match the earlier
    solve's.

    The reported objective is ||Z||_* + (rho/2) ||Z - W||_F^2, evaluated
    once at the last iterate with the final rho.
    """
    m, n = target.shape
    if start is None:
        w = np.zeros((m, n))
        u = np.zeros((m, n))
        rho = settings.rho
    else:
        w, u, rho = start.matrix, start.dual, start.rho
    tol = settings.tol
    sqrt_mn = math.sqrt(m * n)

    primal = dual = math.inf
    converged = False
    it = 0
    for it in range(1, settings.max_iters + 1):
        z = svt(w - u, 1.0 / rho)
        w_prev = w
        w = _project_ball(z + u, target, rows, cols, radius)
        u = u + z - w

        gap = z - w
        primal = float(np.linalg.norm(gap))
        dual = rho * float(np.linalg.norm(w - w_prev))

        eps_pri = sqrt_mn * tol + tol * max(np.linalg.norm(z), np.linalg.norm(w))
        eps_dual = sqrt_mn * tol + tol * rho * float(np.linalg.norm(u))
        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break
        if primal > 10.0 * dual:
            rho *= 2.0
            u = u / 2.0
        elif dual > 10.0 * primal:
            rho /= 2.0
            u = u * 2.0

    nuclear = float(np.linalg.svd(z, compute_uv=False).sum())
    # Report the feasible iterate: W satisfies the ball constraints exactly.
    return AdmmResult(
        matrix=w,
        converged=converged,
        iterations=it,
        primal_residual=primal,
        dual_residual=dual,
        objective=nuclear + 0.5 * rho * primal**2,
        dual=u,
        rho=rho,
    )


def nna(obs: PartialMatrix, delta: float,
        settings: AdmmSettings | None = None,
        start: AdmmResult | None = None) -> AdmmResult:
    """Nuclear-norm completion with all observations in a single ball.

    min ||Z||_* s.t. ||P_omega(Z - observed)||_F <= delta, over every
    observed cell.  ``start`` warm-starts the solver from an earlier result
    (see _admm_nuclear).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if obs.n_cells == 0:
        raise ValueError("no observed cells")
    settings = settings or AdmmSettings()
    return _admm_nuclear(obs.dense_fill(0.0), obs.rows, obs.cols,
                         float(delta), settings, start)


@dataclass
class CurPlusFit:
    """CUR+ output: the reconstruction and its fitted core matrix."""

    estimate: np.ndarray
    middle: np.ndarray


def curplus(c_cols, r_rows, obs: PartialMatrix) -> CurPlusFit:
    """Fit the CUR+ core: min_U sum over observed cells of (C U R - value)^2.

    c_cols is the noisy m x d1 column matrix, r_rows the noisy d2 x n row
    matrix, and obs the accurate entry observations the core is fitted on.
    The least-squares system is solved in vectorized form with the
    minimum-norm solution when underdetermined.
    """
    c = as_matrix(c_cols, "columns")
    r = as_matrix(r_rows, "rows")
    if obs.n_cells == 0:
        raise ValueError("CUR+ needs at least one observed entry")
    m, n = obs.shape
    if c.shape[0] != m or r.shape[1] != n:
        raise ValueError("column/row factors do not match the observation shape")
    d1, d2 = c.shape[1], r.shape[0]

    # Row k is vec(outer(c[i], r[:, j])) for the k-th observed cell (i, j).
    design = (c[obs.rows][:, :, None] * r[:, obs.cols].T[:, None, :]
              ).reshape(obs.n_cells, d1 * d2)
    core_flat = np.linalg.lstsq(design, obs.values, rcond=None)[0]
    core = core_flat.reshape(d1, d2)
    return CurPlusFit(estimate=c @ core @ r, middle=core)


def chen_observe(oracle, phase1_fraction: float, rng: np.random.Generator,
                 rank: int):
    """Two-phase entry sampling: uniform scout pass, then leverage-guided pass.

    Both passes read entries through ``oracle`` (a harness.Oracle), which
    charges each read to its budget before drawing it.  Phase 1 reads as
    many uniform entries as phase1_fraction of the budget buys.  The
    zero-filled phase-1 matrix is truncated to ``rank`` and its singular
    factors give estimated row and column leverage scores; phase 2 spends
    what is left on entries drawn from the product distribution q_ij
    proportional to row_lev_i * col_lev_j.  A budget that buys no phase-1
    entry is refused with InfeasiblePlanError, as any empty read is.

    Returns (observations, info): the merged record, phase 1 first, and
    info with both phase counts and the estimated scores.
    """
    if not 0 < phase1_fraction < 1:
        raise ValueError("phase1_fraction must be in (0, 1)")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    entry_price = oracle.model.entry_price
    # phase1_fraction of the budget buys what the whole budget buys at
    # entry_price / phase1_fraction
    phase1 = oracle.entries(oracle.affordable(entry_price / phase1_fraction),
                            rng)
    n1 = len(phase1.entry_samples)

    scout = PartialMatrix.from_observations(phase1).dense_fill(0.0)
    u, sv, vt = np.linalg.svd(scout, full_matrices=False)
    k = min(rank, int(np.count_nonzero(sv > 0)))
    if k == 0:
        raise ValueError("phase 1 observed only zeros; cannot estimate leverage")
    row_lev = np.einsum("ij,ij->i", u[:, :k], u[:, :k])
    col_lev = np.einsum("ij,ij->j", vt[:k], vt[:k])
    weights = np.outer(row_lev, col_lev)

    n2 = oracle.affordable(entry_price)
    obs = phase1
    if n2 >= 1:
        obs = phase1.merged(oracle.entries(n2, rng, weights=weights))
    info = {
        "phase1_count": n1,
        "phase2_count": len(obs.entry_samples) - n1,
        "row_leverage": row_lev,
        "col_leverage": col_lev,
        "rank_used": k,
    }
    return obs, info
