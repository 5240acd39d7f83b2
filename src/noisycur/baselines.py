"""Completion baselines: nuclear-norm solvers, CUR+, and two-phase entry sampling.

The nuclear-norm solver minimizes ||Z||_* subject to one Frobenius ball
around the observed entries, by ADMM with a singular-value thresholding
step on Z and a projection onto the ball on the splitting variable.  The
thresholding step takes no SVD: it is one eigh of the Gram of the
matrix's smaller side (see svt).  The ADMM step is a Douglas-Rachford
fixed-point map, and the iteration is Anderson-accelerated over it
(Walker & Ni 2011; Fu, Zhang & Boyd 2020), still with one svt call per
iteration.  Each solve is certified by a duality gap built from its
scaled dual.  Every baseline reads entry observations only, aggregated
into a PartialMatrix.

The ADMM penalty rho starts at 1 and is balanced against the residuals
as the solve runs (Boyd et al. 2011, section 3.4.1: mu = 10, tau = 2),
with the scaled dual rescaled by rho_old / rho_new at each change.
A solve can be warm-started from an earlier AdmmResult, whose final iterate,
scaled dual and penalty it carries, so that a path of radii is solved from
one radius to the next (Mazumder, Hastie & Tibshirani 2010).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, leverage_from_svd, rank_from_singular_values
from .observe import ObservationSet

__all__ = [
    "PartialMatrix",
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

    This is the proximal operator of tau * ||.||_* (Cai, Candes & Shen
    2010); svt(a, 0) returns ``a`` (up to roundoff) and any tau >= sigma_1
    returns the zero matrix: exactly zero once tau^2 reaches the Gram's top
    eigenvalue, which is sigma_1^2 to within roundoff, so at tau = sigma_1
    itself entries of order eps_mach * sigma_1 can remain.

    No SVD is taken.  With t the one of a and a^T that has fewer columns,
    the eigenpairs (w, v) of the Gram t^T t give sigma = sqrt(w) and the
    right singular vectors; those with w > tau^2 are kept and the result is
    (t v) diag((sigma - tau) / sigma) v^T, transposed back for a wide a.
    The scale (sigma - tau) / sigma lies in [0, 1), so no column is divided
    by a small sigma alone.  Cost: the Gram squares the condition number,
    so a singular value near tau carries an absolute error of about
    eps_mach * sigma_1^2 / tau, against eps_mach * sigma_1 for an SVD; at
    tau = 0 the singular values near zero are resolved only to about
    sqrt(eps_mach) * sigma_1.
    """
    a = as_matrix(a)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    wide = a.shape[1] > a.shape[0]
    t = a.T if wide else a
    w, v = np.linalg.eigh(t.T @ t)
    kept = np.searchsorted(w, tau * tau, side="right")  # w ascends
    sigma = np.sqrt(w[kept:])
    v = v[:, kept:]
    out = ((t @ v) * ((sigma - tau) / sigma)) @ v.T
    return out.T if wide else out


@dataclass
class AdmmResult:
    """Solver output: the iterate plus its convergence certificate."""

    matrix: np.ndarray
    converged: bool
    iterations: int
    primal_residual: float
    dual_residual: float
    gap: float  # relative duality gap of matrix (see _duality_gap)
    dual: np.ndarray  # scaled dual U at the last iterate, for warm starts
    rho: float  # penalty after the last balancing step


def _ball_split(x, cells, centre, delta):
    """(W, U) = (Pi(x), x - Pi(x)), Pi the projection onto the ball.

    cells holds the flat (row-major) indices of omega.  Cells outside
    omega are unconstrained, so U is exactly zero there.
    """
    w = x.copy()
    flat = w.reshape(-1)
    diff = flat[cells] - centre
    norm = math.sqrt(float(diff @ diff))
    if norm > delta:
        flat[cells] = centre + delta / norm * diff
    return w, x - w


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a, ascending, from the eigenvalues of the Gram of
    its smaller side (resolved to about sqrt(eps_mach) * sigma_1)."""
    t = a.T if a.shape[1] > a.shape[0] else a
    return np.sqrt(np.maximum(np.linalg.eigvalsh(t.T @ t), 0.0))


def _duality_gap(w, u, rho, obs: PartialMatrix, delta: float) -> float:
    """Relative suboptimality bound of a W in the ball, from the scaled
    dual U.

    For any Lambda supported on omega with ||Lambda||_2 <= 1 and any Z in
    the ball, ||Z||_* >= <Lambda, Z> >= <Lambda, y> - delta ||Lambda||_F,
    y the cell means.  U vanishes off omega and -rho U tends to a
    subgradient of ||.||_* at the solution, so Lambda = -rho U /
    max(1, ||rho U||_2) gives the lower bound, and the gap is
    (||W||_* - <Lambda, y> + delta ||Lambda||_F) / ||W||_*: nonnegative up
    to roundoff, since W lies in the ball.  A zero W lies in the ball, so
    it is optimal and its gap is 0.  Costs two eigvalsh of a Gram, which
    resolve W's singular values only to about sqrt(eps_mach) times the
    largest: on the 80 x 60 sweep solves the gap stayed within 1e-8 of
    the one from SVDs.
    """
    nuclear = float(_singular_values(w).sum())
    if nuclear == 0.0:
        return 0.0
    lam = -rho * u
    lam_obs = lam[obs.rows, obs.cols] / max(1.0, _singular_values(lam)[-1])
    lower = float(lam_obs @ obs.values) - delta * math.sqrt(lam_obs @ lam_obs)
    return (nuclear - lower) / nuclear


class _Anderson:
    """Type-II Anderson extrapolation, memory 5, for a fixed-point map T.

    Holds the residuals g_i = T(x_i) - x_i and images T(x_i) of the last
    6 pairs in ring buffers, and their Gram H_ij = <g_i, g_j>, one row
    updated per pair.  The extrapolate is sum_i alpha_i T(x_i), with alpha
    minimising ||sum_i alpha_i g_i|| subject to sum_i alpha_i = 1, that is
    the newest pair corrected along 5 differences (Walker & Ni 2011; Fu,
    Zhang & Boyd 2020).  alpha is proportional to (H + eta I)^-1 1, with
    the Tikhonov term eta = 1e-10 tr H.
    """

    def __init__(self, size: int):
        self.residuals = np.empty((6, size))
        self.images = np.empty((6, size))
        self.gram = np.empty((6, 6))
        self.count = 0  # pairs held, in slots 0 .. count - 1
        self.slot = 0  # the slot the next pair overwrites

    def clear(self):
        self.count = self.slot = 0

    def push(self, residual: np.ndarray, image: np.ndarray):
        s, pairs = self.slot, len(self.gram)
        self.residuals[s] = residual.reshape(-1)
        self.images[s] = image.reshape(-1)
        self.count = min(self.count + 1, pairs)
        self.slot = (s + 1) % pairs
        k = self.count
        row = self.residuals[:k] @ self.residuals[s]
        self.gram[s, :k] = row
        self.gram[:k, s] = row

    def extrapolate(self) -> np.ndarray:
        """The extrapolated state, flat.  The newest residual must be
        nonzero, so that H + eta I is positive definite."""
        k = self.count
        h = self.gram[:k, :k]
        alpha = np.linalg.solve(h + 1e-10 * np.trace(h) * np.eye(k),
                                np.ones(k))
        return (alpha / alpha.sum()) @ self.images[:k]


def nna(obs: PartialMatrix, delta: float, tol: float = 1e-6,
        max_iters: int = 2000, start: AdmmResult | None = None) -> AdmmResult:
    """Nuclear-norm completion with all observations in a single ball.

    min ||Z||_* s.t. ||P_omega(Z - observed)||_F <= delta, omega every
    observed cell, the ball centred on the cell means.

    Scaled two-block ADMM, Anderson-accelerated: a singular value
    thresholding step on Z, a ball projection step on the splitting
    variable W, and a dual update.  Boyd-style combined absolute/relative
    stopping with tol for both, after at most max_iters iterations.

    The step is the Douglas-Rachford map T of the state x = W + U, with
    W = Pi(x) and U = x - Pi(x), Pi the ball projection: Z = svt(2 Pi(x) -
    x, 1 / rho) and T(x) = Z + x - Pi(x).  Each iteration takes one step
    and applies the stopping test to it; then x is replaced by the type-II
    Anderson extrapolate (_Anderson, memory 5) of the pairs (x, T(x)) seen
    since the history last restarted.  It restarts whenever rho changes,
    since T changes with it, and whenever ||T(x) - x|| grows, so a bad
    extrapolate is followed by a plain step.  So each iteration makes one
    svt call, U stays exactly zero off omega, and the returned W, the
    projection of a step's T(x), lies in the ball.

    The penalty rho starts at 1.  After each iteration's stopping test it
    is balanced against the residuals (Boyd et al. 2011, section 3.4.1,
    with mu = 10 and tau = 2): rho doubles when the primal residual
    exceeds ten times the dual one and halves in the opposite case, and
    the scaled dual U is rescaled by rho_old / rho_new so that the
    unscaled dual rho * U is unchanged.

    ``start`` warm-starts the solve from an earlier result, typically the
    previous radius on a regularisation path (Mazumder, Hastie &
    Tibshirani 2010): W, U and rho are taken from it, and Z is recomputed
    from W - U in the first step.  The ball need not match the earlier
    solve's, so W need not be Pi(W + U), and that first step does not
    enter the history.  The earlier result is left unchanged.

    The result carries the relative duality gap of W (_duality_gap).
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if obs.n_cells == 0:
        raise ValueError("no observed cells")
    if tol <= 0 or not math.isfinite(tol):
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    m, n = obs.shape
    cells, centre = obs.rows * n + obs.cols, obs.values
    if start is None:
        w = np.zeros((m, n))
        u = np.zeros((m, n))
        rho = 1.0
    else:
        w, u, rho = start.matrix, start.dual, start.rho
    sqrt_mn = math.sqrt(m * n)
    history = _Anderson(m * n)
    last_step = math.inf

    primal = dual = math.inf
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        z = svt(w - u, 1.0 / rho)
        w_prev = w
        x = z + u  # T of the state w_prev + u
        w, u = _ball_split(x, cells, centre, delta)

        primal = float(np.linalg.norm(z - w))
        dual = rho * float(np.linalg.norm(w - w_prev))

        eps_pri = sqrt_mn * tol + tol * max(np.linalg.norm(z), np.linalg.norm(w))
        eps_dual = sqrt_mn * tol + tol * rho * float(np.linalg.norm(u))
        if primal <= eps_pri and dual <= eps_dual:
            converged = True
            break
        if primal > 10.0 * dual or dual > 10.0 * primal:
            scale = 2.0 if primal > dual else 0.5
            rho *= scale
            u = u / scale
            history.clear()  # T changes with rho
            last_step = math.inf
            continue
        residual = z - w_prev  # T(x) - x
        step = float(np.linalg.norm(residual))
        if step > last_step:
            history.clear()
        last_step = step
        if it > 1 or start is None:
            history.push(residual, x)
        # A zero residual would have passed the stopping test.  The last
        # iteration keeps its step's W, which the residuals describe.
        if history.count > 1 and it < max_iters:
            x = history.extrapolate().reshape(m, n)
            w, u = _ball_split(x, cells, centre, delta)

    # Report the feasible iterate: W satisfies the ball constraints exactly.
    return AdmmResult(
        matrix=w,
        converged=converged,
        iterations=it,
        primal_residual=primal,
        dual_residual=dual,
        gap=_duality_gap(w, u, rho, obs, delta),
        dual=u,
        rho=rho,
    )


@dataclass
class CurPlusFit:
    """CUR+ output: the reconstruction and its fitted core matrix."""

    estimate: np.ndarray
    middle: np.ndarray


def _pinv_factor(gram: np.ndarray, size: int) -> np.ndarray:
    """F with F F^T the pseudo-inverse of a symmetric positive semidefinite
    Gram matrix.

    Eigenvalues at or below size * eps * lambda_max are dropped, below
    which eigh cannot resolve an eigenvalue.  For a Gram D^T D or D D^T
    that drops every singular value of D at or below
    sqrt(size * eps) * sigma_max, not lstsq's size * eps * sigma_max.  A
    zero Gram gives an empty F, so a zero pseudo-inverse.
    """
    vals, vecs = np.linalg.eigh(gram)
    cutoff = size * np.finfo(np.float64).eps * vals.max(initial=0.0)
    kept = np.searchsorted(vals, cutoff, side="right")  # vals ascend
    return vecs[:, kept:] / np.sqrt(vals[kept:])


def _kron_gram(c: np.ndarray, r: np.ndarray, obs: PartialMatrix) -> np.ndarray:
    """D^T D for the CUR+ design D, whose rows are kron(c_i, r_j) over the
    observed cells (i, j): sum over cells of (c_i c_i^T) kron (r_j r_j^T).

    That sum is P^T W Q, with P = rows c_i kron c_i (m x d1^2), Q = rows
    r_j kron r_j (n x d2^2) and W the 0/1 mask of the cells, reordered from
    (a, a', b, b') to (a, b, a', b').
    """
    (m, d1), (d2, n) = c.shape, r.shape
    mask = np.zeros((m, n))
    mask[obs.rows, obs.cols] = 1.0
    p = (c[:, :, None] * c[:, None, :]).reshape(m, d1 * d1)
    q = (r.T[:, :, None] * r.T[:, None, :]).reshape(n, d2 * d2)
    gram = ((mask.T @ p).T @ q).reshape(d1, d1, d2, d2)
    return gram.transpose(0, 2, 1, 3).reshape(d1 * d2, d1 * d2)


def curplus(c_cols, r_rows, obs: PartialMatrix) -> CurPlusFit:
    """Fit the CUR+ core: min_U sum over observed cells of (C U R - value)^2.

    c_cols is the noisy m x d1 column matrix, r_rows the noisy d2 x n row
    matrix, and obs the accurate entry observations the core is fitted on.
    The answer is the minimum-norm least-squares core, x = D^+ y, where the
    design D has one row kron(c_i, r_j) per observed cell (i, j) and y holds
    the cell means.  D itself is never built.

    With at least as many cells as unknowns the solve runs on the d1*d2
    normal equations, whose Gram D^T D is built from Kronecker-structured
    products of C and R (_kron_gram).  With fewer cells it runs on the
    cells x cells kernel D D^T, whose entry (k, l) is (c_i . c_i')
    (r_j . r_j'), and x = D^T z.  There D^T D would have a null space of
    d1*d2 - cells dimensions, whose roundoff eigenvalues blur the
    eigenvectors of the smallest real ones; the kernel has none, and it is
    the smaller matrix.  D^T s is vec(sum over cells of s_k c_i r_j^T) and
    D x the per-cell c_i^T X r_j.  Either Gram is pseudo-inverted once
    (_pinv_factor), and one step of iterative refinement on the residual
    y - D x wins back the accuracy that forming a Gram, which squares D's
    condition number, costs.

    Directions of D with singular values at or below
    sqrt(max(cells, d1*d2) * eps) times the largest are dropped
    (_pinv_factor), where lstsq would keep them down to
    max(cells, d1*d2) * eps.  So the core is D^+ y only while D's
    condition number stays below 1 / sqrt(max(cells, d1*d2) * eps), which
    is 3e5 at 40000 cells and 1e7 at 25; past that it is the truncated
    minimum-norm solution, and it can differ from lstsq's.
    """
    c = as_matrix(c_cols, "columns")
    r = as_matrix(r_rows, "rows")
    if obs.n_cells == 0:
        raise ValueError("CUR+ needs at least one observed entry")
    m, n = obs.shape
    if c.shape[0] != m or r.shape[1] != n:
        raise ValueError("column/row factors do not match the observation shape")
    d1, d2 = c.shape[1], r.shape[0]
    size = max(obs.n_cells, d1 * d2)
    kernel = obs.n_cells < d1 * d2
    if not kernel:
        # Before the gathers, so that the Gram's m x n mask and m x d1^2
        # products are freed before the two cells x d arrays exist.
        f = _pinv_factor(_kron_gram(c, r, obs), size)

    c_obs, r_obs = c[obs.rows], r[:, obs.cols].T

    def design_t(s):
        return (c_obs.T @ (s[:, None] * r_obs)).ravel()

    def residual(x):
        return obs.values - np.einsum("kb,kb->k", c_obs @ x.reshape(d1, d2),
                                      r_obs)

    if kernel:
        f = _pinv_factor((c_obs @ c_obs.T) * (r_obs @ r_obs.T), size)
        x = design_t(f @ (f.T @ obs.values))
        x += design_t(f @ (f.T @ residual(x)))
    else:
        x = f @ (f.T @ design_t(obs.values))
        x += f @ (f.T @ design_t(residual(x)))
    core = x.reshape(d1, d2)
    return CurPlusFit(estimate=c @ core @ r, middle=core)


def chen_observe(oracle, phase1_fraction: float, rng: np.random.Generator,
                 rank: int):
    """Two-phase entry sampling: uniform scout pass, then leverage-guided pass.

    Both passes read entries through ``oracle`` (a harness.Oracle), which
    charges each read to its budget before drawing it.  Phase 1 reads as
    many uniform entries as phase1_fraction of the budget buys.  The
    zero-filled phase-1 matrix is truncated to ``rank``, or to its
    numerical rank where that is lower, and its singular factors give
    estimated row and column leverage scores; phase 2 spends
    what is left on entries drawn from the product distribution q_ij
    proportional to row_lev_i * col_lev_j.  A budget that buys no phase-1
    entry is refused with InfeasiblePlanError, as any empty read is.

    Returns (observations, info): the merged record, phase 1 first, and
    info with the two phase counts, phase1_count and phase2_count.
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
    # a zero scout has rank 0, which leverage_from_svd refuses
    k = min(rank, rank_from_singular_values(sv, scout.shape))
    row_lev = leverage_from_svd(sv, u.T, scout.shape[::-1], k)[0]
    col_lev = leverage_from_svd(sv, vt, scout.shape, k)[0]
    weights = np.outer(row_lev, col_lev)

    n2 = oracle.affordable(entry_price)
    samples = phase1.entry_samples
    if n2 >= 1:
        phase2 = oracle.entries(n2, rng, weights=weights)
        samples = np.concatenate([samples, phase2.entry_samples])
    obs = ObservationSet(shape=phase1.shape, entry_samples=samples)
    info = {
        "phase1_count": n1,
        "phase2_count": len(obs.entry_samples) - n1,
    }
    return obs, info
