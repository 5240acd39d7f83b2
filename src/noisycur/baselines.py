"""Completion baselines: nuclear-norm solvers, CUR+, and two-phase entry sampling.

All the nuclear-norm variants minimize ||Z||_* subject to Frobenius balls
around the observed entries, solved by ADMM with a singular-value
thresholding step.  The two constraint supports (noisy column cells, accurate
entry cells) are disjoint, so projecting onto the intersection splits into
independent ball projections per support.

The ADMM penalty rho starts at AdmmSettings.rho and is balanced against the
residuals as the solve runs (Boyd et al. 2011, section 3.4.1: mu = 10,
tau = 2), with the scaled dual rescaled by rho_old / rho_new at each change.
A solve can be warm-started from an earlier AdmmResult, whose final iterate,
scaled dual and penalty it carries, so that a path of radii is solved from
one radius to the next (Mazumder, Hastie & Tibshirani 2010).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix
from .observe import ObservationSet, TwoCostModel, sample_entries

__all__ = [
    "PartialMatrix",
    "AdmmSettings",
    "AdmmResult",
    "CurPlusFit",
    "svt",
    "nna",
    "nns",
    "curplus",
    "chen_observe",
]

ENTRY_MODE = "entry"
COLUMN_MODE = "column"


class PartialMatrix:
    """Aggregated view of repeated noisy observations of some cells.

    Each observed cell keeps the mean of all its observations plus a
    provenance tag: a cell is entry-mode as soon as any observation of it
    came from the accurate entry channel, otherwise column-mode.  The two
    mode index sets are therefore always disjoint.
    """

    def __init__(self, shape):
        m, n = int(shape[0]), int(shape[1])
        if m < 1 or n < 1:
            raise ValueError("shape must be positive")
        self.shape = (m, n)
        self._cells = {}  # (i, j) -> [value_sum, count, entry_count]

    @classmethod
    def from_observations(cls, obs: ObservationSet) -> "PartialMatrix":
        pm = cls(obs.shape)
        for j, col in obs.column_samples:
            for i, v in enumerate(col):
                pm.add(i, j, float(v), COLUMN_MODE)
        for i, j, v in obs.entry_samples:
            pm.add(i, j, v, ENTRY_MODE)
        return pm

    def add(self, i: int, j: int, value: float, mode: str):
        m, n = self.shape
        if not (0 <= i < m and 0 <= j < n):
            raise ValueError(f"cell ({i}, {j}) out of range for shape {self.shape}")
        if mode not in (ENTRY_MODE, COLUMN_MODE):
            raise ValueError(f"unknown observation mode {mode!r}")
        if not math.isfinite(value):
            raise ValueError("observed value must be finite")
        slot = self._cells.setdefault((i, j), [0.0, 0, 0])
        slot[0] += value
        slot[1] += 1
        if mode == ENTRY_MODE:
            slot[2] += 1

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def cells(self):
        """Observed cells in deterministic (row, col) order."""
        return sorted(self._cells)

    def value(self, i: int, j: int) -> float:
        total, count, _ = self._cells[(i, j)]
        return total / count

    def mode(self, i: int, j: int) -> str:
        return ENTRY_MODE if self._cells[(i, j)][2] > 0 else COLUMN_MODE

    def indices(self, mode: str | None = None):
        """(rows, cols) arrays of observed cells, optionally one mode only."""
        keys = [k for k in self.cells() if mode is None or self.mode(*k) == mode]
        if not keys:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        arr = np.asarray(keys, dtype=np.int64)
        return arr[:, 0], arr[:, 1]

    def dense_fill(self, fill: float = 0.0) -> np.ndarray:
        out = np.full(self.shape, float(fill))
        for (i, j), (total, count, _) in self._cells.items():
            out[i, j] = total / count
        return out

    def mask(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=bool)
        for i, j in self._cells:
            out[i, j] = True
        return out

    def subset(self, keys) -> "PartialMatrix":
        """New PartialMatrix restricted to the given cells (aggregates copied)."""
        pm = PartialMatrix(self.shape)
        for key in keys:
            if key not in self._cells:
                raise KeyError(f"cell {key} is not observed")
            pm._cells[key] = list(self._cells[key])
        return pm


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


def _project_balls(v, target, constraints):
    """Project v onto the intersection of per-support Frobenius balls.

    constraints is a list of ((rows, cols), radius); the supports must be
    disjoint, which makes the joint projection separable.  Cells outside
    every support are unconstrained.
    """
    w = v.copy()
    for (rows, cols), radius in constraints:
        if rows.size == 0:
            continue
        diff = v[rows, cols] - target[rows, cols]
        norm = math.sqrt(float(np.sum(diff * diff)))
        if norm > radius:
            scale = radius / norm if norm > 0 else 0.0
            w[rows, cols] = target[rows, cols] + scale * diff
    return w


def _admm_nuclear(target, constraints, settings: AdmmSettings,
                  start: AdmmResult | None = None) -> AdmmResult:
    """min ||Z||_* s.t. ||P_omega_k(Z - target)||_F <= radius_k for each k.

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
    from W - U in the first step.  The constraints need not match the
    earlier solve's.

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
        w = _project_balls(z + u, target, constraints)
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
    observed cell regardless of mode.  ``start`` warm-starts the solver
    from an earlier result (see _admm_nuclear).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if obs.n_cells == 0:
        raise ValueError("no observed cells")
    settings = settings or AdmmSettings()
    target = obs.dense_fill(0.0)
    rows, cols = obs.indices()
    return _admm_nuclear(target, [((rows, cols), float(delta))], settings,
                         start)


def nns(obs: PartialMatrix, c1: float, c2: float, d: int,
        sigma_c: float, sigma_e: float,
        settings: AdmmSettings | None = None) -> AdmmResult:
    """Nuclear-norm completion with split constraints per observation mode.

    The column-mode cells sit in a ball of squared radius c1 * d * m *
    sigma_c^2 (d column samples of length m each), the entry-mode cells in
    one of squared radius c2 * f * sigma_e^2 with f the number of distinct
    entry-mode cells.
    """
    if c1 < 0 or c2 < 0:
        raise ValueError("constraint constants must be nonnegative")
    if obs.n_cells == 0:
        raise ValueError("no observed cells")
    settings = settings or AdmmSettings()
    m = obs.shape[0]
    target = obs.dense_fill(0.0)
    rows_c, cols_c = obs.indices(COLUMN_MODE)
    rows_e, cols_e = obs.indices(ENTRY_MODE)
    f = rows_e.size
    radius_c = math.sqrt(c1 * d * m * sigma_c**2)
    radius_e = math.sqrt(c2 * f * sigma_e**2)
    constraints = [((rows_c, cols_c), radius_c), ((rows_e, cols_e), radius_e)]
    return _admm_nuclear(target, constraints, settings)


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

    keys = obs.cells()
    design = np.empty((len(keys), d1 * d2))
    rhs = np.empty(len(keys))
    for k, (i, j) in enumerate(keys):
        design[k] = np.outer(c[i], r[:, j]).ravel()
        rhs[k] = obs.value(i, j)
    core_flat = np.linalg.lstsq(design, rhs, rcond=None)[0]
    core = core_flat.reshape(d1, d2)
    return CurPlusFit(estimate=c @ core @ r, middle=core)


def chen_observe(a, model: TwoCostModel, phase1_fraction: float,
                 rng: np.random.Generator, rank: int):
    """Two-phase entry sampling: uniform scout pass, then leverage-guided pass.

    Phase 1 spends phase1_fraction of the budget on uniform entry samples.
    The zero-filled phase-1 matrix is truncated to ``rank`` and its singular
    factors give estimated row and column leverage scores; phase 2 spends
    the remaining budget on entries drawn from the product distribution
    q_ij proportional to row_lev_i * col_lev_j.

    Returns (observations, info) where info records both phases and the
    estimated scores.
    """
    a = as_matrix(a)
    if not 0 < phase1_fraction < 1:
        raise ValueError("phase1_fraction must be in (0, 1)")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    m, n = a.shape
    n1 = int(math.floor(phase1_fraction * model.budget / model.entry_price))
    if n1 < 1:
        raise ValueError("budget too small for phase 1")
    phase1 = sample_entries(a, n1, model.sigma_e, rng)

    scout = PartialMatrix.from_observations(phase1).dense_fill(0.0)
    u, sv, vt = np.linalg.svd(scout, full_matrices=False)
    k = min(rank, int(np.count_nonzero(sv > 0)))
    if k == 0:
        raise ValueError("phase 1 observed only zeros; cannot estimate leverage")
    row_lev = np.einsum("ij,ij->i", u[:, :k], u[:, :k])
    col_lev = np.einsum("ij,ij->j", vt[:k], vt[:k])
    weights = np.outer(row_lev, col_lev)

    n2 = int(math.floor((model.budget - n1 * model.entry_price)
                        / model.entry_price))
    phase2 = None
    obs = phase1
    if n2 >= 1:
        phase2 = sample_entries(a, n2, model.sigma_e, rng, weights=weights)
        obs = phase1.merged(phase2)
    info = {
        "phase1_count": n1,
        "phase2_count": n2 if phase2 is not None else 0,
        "phase2_cells": [] if phase2 is None else
            [(i, j) for i, j, _ in phase2.entry_samples],
        "row_leverage": row_lev,
        "col_leverage": col_lev,
        "rank_used": k,
    }
    return obs, info
