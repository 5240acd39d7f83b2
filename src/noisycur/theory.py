"""Numerical checkers for the estimator's recovery guarantees.

Each checker builds random instances satisfying the hypotheses of one
guarantee, evaluates both sides of the guaranteed inequality, and returns
one BoundReport per trial.  Two of the inequalities are deterministic once
the sketch is a verified subspace embedding (the ridge resolvent bound and
the sketched ridge bound), so a single violation of those is a defect in
the code, not bad luck.  The rest are probabilistic; their reports carry
the stated failure probability in params so callers can compare empirical
failure rates against it.

Each battery rejects an instance that violates a precondition up front,
naming the failed hypothesis, except check_recovery_guarantee: at
acceptance criterion 5 its sizes give d = 457 > m = 80 and a sigma gap of
-17.02, outside its hypotheses, and it runs anyway (ROADMAP.md item 4).
Each checker decomposes each matrix it draws or is given once: rank,
spectrum, basis and leverage all come from one SVD of that matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .completion import NoisyCurConfig, noisycur
from .linalg import (
    apply_sketch_transpose,
    as_matrix,
    build_sketch,
    embedding_distortion,
    leverage_from_svd,
    orthonormal_basis,
    rank_from_singular_values,
    shrinked_row_scores,
)

__all__ = [
    "BOUND_SLACK",
    "HypothesisError",
    "BoundReport",
    "success_rate",
    "rate_verdict",
    "ridge_contraction_factor",
    "ridge_resolvent_constant",
    "embedding_sketch_size",
    "guarantee_sample_sizes",
    "draw_embedding_sketch",
    "recovery_probability_floor",
    "check_embedding_rate",
    "check_ridge_resolvent_bound",
    "check_sketched_ridge_bound",
    "check_span_capture_bound",
    "check_perturbed_sigma",
    "check_recovery_guarantee",
]

# Relative slack when deciding whether lhs <= rhs, so exact ties at the
# boundary do not flap with rounding.
BOUND_SLACK = 1e-12
# Sketches draw_embedding_sketch tries before it gives up on s.
MAX_DRAWS = 50


class HypothesisError(ValueError):
    """An instance violates a precondition of the guarantee being checked."""


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality, oriented so that holding means lhs <= rhs.

    Lower bounds (the perturbed bottom-singular-value check) put the
    guaranteed value in lhs and the observed quantity in rhs, keeping the
    orientation uniform.  margin is rhs - lhs.  params records the full
    instance descriptor (shapes, noise levels, eps, delta, ...).
    """

    check: str
    lhs: float
    rhs: float
    holds: bool
    margin: float
    params: dict = field(default_factory=dict)


def _report(check: str, lhs, rhs, params: dict) -> BoundReport:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = BOUND_SLACK * max(1.0, abs(lhs), abs(rhs))
    return BoundReport(
        check=check,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + slack),
        margin=rhs - lhs,
        params=params,
    )


def success_rate(reports) -> float:
    reports = list(reports)
    if not reports:
        raise ValueError("cannot take the success rate of zero reports")
    return sum(1 for r in reports if r.holds) / len(reports)


def rate_verdict(reports) -> tuple:
    """(observed, allowed, ok) for n reports: their failure rate, the
    stated rate p (param fail_prob) plus three binomial standard errors
    3 sqrt(p (1 - p) / n), and observed <= allowed up to 1e-12."""
    reports = list(reports)
    observed = 1.0 - success_rate(reports)
    stated = float(reports[0].params.get("fail_prob", 0.0))
    allowed = stated + 3 * math.sqrt(stated * (1 - stated) / len(reports))
    return observed, allowed, observed <= allowed + 1e-12


def ridge_contraction_factor(ridge_lambda: float, sigma_sq: float,
                             eps: float) -> float:
    """Regularization penalty gamma in the sketched ridge bound.

    gamma = 2 lam^2 ridge_resolvent_constant(lam, sigma_sq, eps)
          = 2 [(1+eps)/(1-eps) * lam / ((1+eps) sigma_sq + lam)]^2
    where sigma_sq is the squared smallest singular value of the
    regression design (or a guaranteed lower bound on it);
    check_sketched_ridge_bound's docstring has the proof.  Vanishes with
    the ridge weight; approaches 2 ((1+eps)/(1-eps))^2 when the ridge
    weight dominates the spectrum.
    """
    if ridge_lambda == 0 and sigma_sq >= 0 and 0 <= eps < 1:
        return 0.0  # ridge_resolvent_constant validates every other input
    return (2 * ridge_lambda * ridge_lambda
            * ridge_resolvent_constant(ridge_lambda, sigma_sq, eps))


def ridge_resolvent_constant(ridge_lambda: float, sigma_sq: float,
                             eps: float) -> float:
    """Constant c in the resolvent bound
    ||A (A^T S S^T A + lam I)^{-1} v||^2 <= c ||A v||^2.

    c = ((1+eps)/(1-eps))^2 / ((1+eps) sigma_sq + lam)^2 with sigma_sq the
    squared smallest singular value of A and eps the measured embedding
    distortion; check_ridge_resolvent_bound's docstring has the proof.
    """
    if not 0 <= eps < 1:
        raise ValueError("eps must be in [0, 1)")
    if ridge_lambda < 0 or sigma_sq < 0:
        raise ValueError("ridge_lambda and sigma_sq must be nonnegative")
    gain = (1 + eps) / (1 - eps) / ((1 + eps) * sigma_sq + ridge_lambda)
    return gain * gain


def _embedding_lead(eps: float) -> float:
    """(6 + 2 eps) / (3 eps^2), the leading constant of both the embedding
    sketch size and the guarantee's incoherence branch."""
    return (6 + 2 * eps) / (3 * eps * eps)


def embedding_sketch_size(d: int, eps: float, delta: float) -> int:
    """Rows needed for a shrinked-leverage sketch of a d-column matrix to
    be a (1 +/- eps) subspace embedding with failure probability <= delta:
    s >= (6 + 2 eps) / (3 eps^2) * 2 d log(d / delta).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return max(1, math.ceil(_embedding_lead(eps) * 2 * d
                            * math.log(d / delta)))


def guarantee_sample_sizes(rank: int, beta: float, kappa2: float,
                           dense_c: float, sigma_c: float,
                           eps: float, delta: float):
    """Column and row sample counts required by the recovery guarantee.

    d must clear two branches: an incoherence branch
    (6 + 2 eps) / (3 eps^2) * beta * rank * log(rank / delta) and a noise
    branch 8 (1 + delta)^2 / (dense_c^2 (1 - eps) eps) * rank * kappa2^2 *
    sigma_c^2, where dense_c lower-bounds at least half the entry magnitudes
    and kappa2 is the ratio of extreme nonzero singular values.  The row
    count s is then embedding_sketch_size(d, eps, delta).

    Returns (d_min, s_min), both integers >= 1.
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

    incoherence_branch = (_embedding_lead(eps) * beta * rank
                          * math.log(rank / delta))
    noise_branch = (8 * (1 + delta) ** 2 / (dense_c**2 * (1 - eps) * eps)
                    * rank * kappa2**2 * sigma_c**2)
    d_min = max(1, math.ceil(max(incoherence_branch, noise_branch)))
    return d_min, embedding_sketch_size(d_min, eps, delta)


def draw_embedding_sketch(basis, s: int, rng: np.random.Generator, *,
                          eps: float):
    """Draw shrinked-leverage sketches until one is a verified
    (1 +/- eps) embedding for span(basis).

    ``basis`` must have orthonormal columns (linalg.orthonormal_basis), so
    a caller that also needs the singular values takes them from the same
    SVD.  Returns (sketch, measured_distortion, n_draws).  The measured
    distortion, not the target eps, is what the deterministic bound
    checkers plug into their constants.  Raises RuntimeError if MAX_DRAWS
    sketches all fail, which signals s is far too small for eps.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    profile = shrinked_row_scores(basis)
    for attempt in range(1, MAX_DRAWS + 1):
        sketch = build_sketch(profile, s, rng)
        distortion = embedding_distortion(sketch, basis)
        if distortion <= eps:
            return sketch, distortion, attempt
    raise RuntimeError(
        f"no (1 +/- {eps}) embedding found in {MAX_DRAWS} draws at s={s}; "
        "increase s or relax eps"
    )


def check_embedding_rate(n_trials: int, rng: np.random.Generator, *,
                         m: int = 80, d: int = 6):
    """Empirical subspace-embedding success rate at the guaranteed size.

    Fixes one Gaussian m x d matrix, then draws n_trials independent
    shrinked-leverage sketches with s rows, the guaranteed size for
    eps = 0.5 and delta = 0.1, and records the measured distortion against
    eps.  The stated failure probability delta rides along in params.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if d > m:
        raise HypothesisError(f"need d <= m, got d={d} > m={m}")
    eps, delta = 0.5, 0.1
    s = embedding_sketch_size(d, eps, delta)
    target = rng.standard_normal((m, d))
    basis = orthonormal_basis(target)
    profile = shrinked_row_scores(basis)
    reports = []
    for trial in range(n_trials):
        sketch = build_sketch(profile, s, rng)
        distortion = embedding_distortion(sketch, basis)
        reports.append(_report(
            "subspace-embedding", distortion, eps,
            {"m": m, "d": d, "s": s, "eps": eps, "delta": delta,
             "fail_prob": delta, "trial": trial},
        ))
    return reports


def check_ridge_resolvent_bound(n_instances: int, rng: np.random.Generator, *,
                                ridge_lambda: float = 1.0):
    """Resolvent bound under a verified embedding, on Gaussian 25 x 4 A,
    a verified 25-row sketch at eps = 0.5 and Gaussian v.

    For full-column-rank A (m x d, d <= m), a verified (1 +/- eps)
    embedding S for A, lam > 0 and any v:

        ||A (A^T S S^T A + lam I)^{-1} v||^2
            <= ((1+eps)/(1-eps))^2 * (1 / ((1+eps) sigma_d(A)^2 + lam))^2
               * ||A v||^2

    with eps the measured distortion (linalg.embedding_distortion).

    Proof.  Write A = U Sigma V^T (thin SVD) and K = U^T S S^T U, so that
    (1-eps) I <= K <= (1+eps) I.  With y = Sigma V^T v, Av = U y and
    A (A^T S S^T A + lam I)^{-1} v = U (Sigma^2 K + lam I)^{-1} y, and

        (Sigma^2 K + lam I)^{-1} = K^{-1} (Sigma^2 + lam K^{-1})^{-1}.

    ||K^{-1}|| <= 1/(1-eps), and the symmetric Sigma^2 + lam K^{-1} has
    every eigenvalue >= sigma_d^2 + lam/(1+eps), so the map Av -> lhs
    vector has norm at most 1/(1-eps) * 1/(sigma_d^2 + lam/(1+eps)),
    which is the square root of the constant above.  A one-dimensional
    instance with K = 1-eps attains it as lam -> 0.

    Squaring matters: the unsquared prefactor (1+eps)/(1-eps) is false.
    That one-dimensional instance has lhs/||Av||^2 =
    1/((1-eps)sigma^2+lam)^2, which exceeds the unsquared form whenever
    lam < sigma^2 * sqrt(1-eps^2).  Neither does
    (1/((1-eps) sigma_d^2 + lam))^2 bound every instance: with eps=0.5,
    sigma^2 = (1, 376), lam=27.5 and K's eigenvectors turned by 30
    degrees it is exceeded by a factor 1.23.  tests/test_theory.py pins
    both counterexamples.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if ridge_lambda <= 0:
        raise HypothesisError("ridge_lambda must be > 0")
    m, d, s, eps = 25, 4, 25, 0.5
    reports = []
    for trial in range(n_instances):
        a = rng.standard_normal((m, d))
        basis, sv = orthonormal_basis(a, return_singular_values=True)
        sketch, measured, draws = draw_embedding_sketch(
            basis, s, rng, eps=eps)
        v = rng.standard_normal(d)

        sa = apply_sketch_transpose(sketch, a)
        gram = sa.T @ sa
        w = np.linalg.solve(gram + ridge_lambda * np.eye(d), v)
        lhs = float(np.sum((a @ w) ** 2))

        sigma_d_sq = float(sv[-1] ** 2)
        rhs = (ridge_resolvent_constant(ridge_lambda, sigma_d_sq, measured)
               * float(np.sum((a @ v) ** 2)))

        reports.append(_report(
            "ridge-resolvent", lhs, rhs,
            {"m": m, "d": d, "s": s, "ridge_lambda": ridge_lambda,
             "eps": eps, "eps_measured": measured,
             "sigma_d_sq": sigma_d_sq, "sketch_draws": draws,
             "trial": trial},
        ))
    return reports


def check_sketched_ridge_bound(n_instances: int, rng: np.random.Generator, *,
                               sigma_e: float = 0.1):
    """Deterministic reconstruction bound for sketched noisy ridge fits.

    B (m x d) full column rank, targets T (m x k) arbitrary, observed
    T + E, S a verified embedding for B with measured distortion eps, a
    proximal point X (d x k), and Z the sketched ridge fit pulled towards X

        Z = argmin_Z ||S^T (T + E - B Z)||_F^2 + lam ||Z - X||_F^2
          = ((S^T B)^T S^T B + lam I)^{-1} ((S^T B)^T S^T (T + E) + lam X).

    Then with gamma = ridge_contraction_factor(lam, sigma_d(B)^2, eps) and
    P the orthogonal projector onto span(B):

        ||T - B Z||_F^2 <= ||(I-P) T||_F^2 + gamma ||B X - P T||_F^2
                           + 4/(1-eps) ||S^T E||_F^2
                           + 4/(1-eps) ||S^T (I-P) T||_F^2.

    Proof.  Write Bs = S^T B, R = (Bs^T Bs + lam I)^{-1}, T' = (I-P) T and
    y = S^T (T' + E).  Since S^T P T = Bs B^+ T, Z - B^+ T = R (Bs^T y +
    lam (X - B^+ T)), and B (Z - B^+ T) is orthogonal to T'.  So by
    Pythagoras and (a+b)^2 <= 2a^2 + 2b^2 the left side is at most
    ||T'||^2 + 2 ||lam B R (X - B^+ T)||^2 + 2 ||B R Bs^T y||^2.  The
    resolvent bound (check_ridge_resolvent_bound) takes the middle term to
    2 lam^2 c ||B X - P T||^2, c = ridge_resolvent_constant(lam,
    sigma_d(B)^2, eps), which is gamma.  With B = U Sigma V^T, G = S^T U
    and K = G^T G >= (1-eps) I, B R Bs^T = U (K + lam Sigma^-2)^{-1} G^T
    has squared norm at most ||(K + lam Sigma^-2)^{-1}|| <= 1/(1-eps), and
    a second split of ||y||^2 gives the noise gain 4/(1-eps).  The earlier
    gamma lacked a factor (1+eps)/(1-eps); tests/test_theory.py pins a 1-D
    instance whose left side is 1.46 times its right side.

    The battery fits Gaussian B (30 x 5) and 8 targets with lam = 1 and a
    verified 25-row sketch at eps = 0.5, E ~ N(0, sigma_e^2).  Each
    instance is checked twice on the same B and sketch: the matrix form
    (sketched-ridge-matrix) with X = 0 on all the targets, and the vector
    form (sketched-ridge-vector) on the first column with a random
    proximal point x; by Pythagoras, f(x) - f(B^+ b) = ||B x - P b||^2 for
    f(z) = ||B z - b||^2, so the vector form is the same inequality.  Both
    must hold on every accepted instance.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if sigma_e < 0:
        raise HypothesisError("sigma_e must be nonnegative")
    m, d, n_targets, s, ridge_lambda, eps = 30, 5, 8, 25, 1.0, 0.5
    reports = []
    eye = np.eye(d)
    for trial in range(n_instances):
        design = rng.standard_normal((m, d))
        targets = rng.standard_normal((m, n_targets))
        noise = sigma_e * rng.standard_normal((m, n_targets))
        q, sv = orthonormal_basis(design, return_singular_values=True)
        sketch, measured, draws = draw_embedding_sketch(
            q, s, rng, eps=eps)
        # drawn after the sketch, pulled away from the least-squares fit
        prox = rng.standard_normal((d, 1))

        sigma_d_sq = float(sv[-1] ** 2)
        gamma = ridge_contraction_factor(ridge_lambda, sigma_d_sq, measured)
        noise_gain = 4.0 / (1.0 - measured)
        sb = apply_sketch_transpose(sketch, design)
        regularized = sb.T @ sb + ridge_lambda * eye

        def sides(t, e, x):
            """(lhs, rhs) on targets t, noise e and proximal point x."""
            fit = np.linalg.solve(
                regularized,
                sb.T @ apply_sketch_transpose(sketch, t + e)
                + ridge_lambda * x)
            projected = q @ (q.T @ t)
            residual = t - projected
            lhs = float(np.sum((t - design @ fit) ** 2))
            rhs = (float(np.sum(residual ** 2))
                   + gamma * float(np.sum((design @ x - projected) ** 2))
                   + noise_gain * float(np.sum(
                       apply_sketch_transpose(sketch, e) ** 2))
                   + noise_gain * float(np.sum(
                       apply_sketch_transpose(sketch, residual) ** 2)))
            return lhs, rhs

        params = {"m": m, "d": d, "n_targets": n_targets, "s": s,
                  "ridge_lambda": ridge_lambda, "eps": eps,
                  "eps_measured": measured, "sigma_e": sigma_e,
                  "gamma": gamma, "sketch_draws": draws, "trial": trial}
        reports.append(_report(
            "sketched-ridge-matrix",
            *sides(targets, noise, np.zeros((d, n_targets))), dict(params)))
        reports.append(_report(
            "sketched-ridge-vector",
            *sides(targets[:, :1], noise[:, :1], prox), dict(params)))
    return reports


def check_span_capture_bound(rank: int, n_instances: int,
                             rng: np.random.Generator, *,
                             sigma_c: float | None = None):
    """Span capture under additive Gaussian noise on the sampled columns.

    Builds A = U M (200 x 40) and C = U W (200 x 6) with a shared
    orthonormal U (m x rank) and full-row-rank M, W, so C spans the column
    space of A exactly.  With eps = 0.5 and delta = 0.3, when the smallest
    nonzero singular value of C clears the noise threshold

        sigma_r(C) >= 2 (1 + delta) sigma_c sqrt(m / eps),

    projecting A onto span(C + G), G i.i.d. N(0, sigma_c^2), loses at most
    an eps fraction of energy:

        ||(I - P_{C+G}) A||_F^2 <= eps ||A||_F^2

    with failure probability at most exp(-m delta^2 / 2) over G.  A and C
    are drawn once; each trial redraws G only, matching the probability
    space of the guarantee.

    sigma_c defaults to the largest level the hypothesis admits; passing a
    larger value raises HypothesisError.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    m, d, n_cols, eps, delta = 200, 6, 40, 0.5, 0.3
    if not 1 <= rank <= min(m, d):
        raise HypothesisError(
            f"need 1 <= rank <= min(m, d); got rank={rank}, m={m}, d={d}")

    u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    coeff_a = rng.standard_normal((rank, n_cols))
    coeff_c = rng.standard_normal((rank, d))
    a = u @ coeff_a
    c = u @ coeff_c
    sv = np.linalg.svd(c, compute_uv=False)
    if rank_from_singular_values(sv, c.shape) != rank:
        raise HypothesisError("drawn column sample lost rank; retry with a "
                              "different seed")
    sigma_min_c = float(sv[rank - 1])

    sigma_c_max = sigma_min_c * math.sqrt(eps / m) / (2 * (1 + delta))
    if sigma_c is None:
        sigma_c = sigma_c_max
    elif sigma_c < 0:
        raise HypothesisError("sigma_c must be nonnegative")
    elif sigma_c > sigma_c_max * (1 + 1e-12):
        raise HypothesisError(
            f"sigma_c={sigma_c:.6g} violates the singular value threshold "
            f"(largest admissible level {sigma_c_max:.6g})")

    norm_a_sq = float(np.sum(a ** 2))
    fail_prob = math.exp(-m * delta * delta / 2)
    params = {"m": m, "n": n_cols, "r": rank, "d": d, "eps": eps,
              "delta": delta, "sigma_c": sigma_c,
              "sigma_min_c": sigma_min_c, "sigma_c_max": sigma_c_max,
              "fail_prob": fail_prob}
    reports = []
    for trial in range(n_instances):
        perturbed = c + sigma_c * rng.standard_normal((m, d))
        q = orthonormal_basis(perturbed)
        lhs = float(np.sum((a - q @ (q.T @ a)) ** 2))
        reports.append(_report("span-capture", lhs, eps * norm_a_sq,
                               {**params, "trial": trial}))
    return reports


def _sigma_gap(m: int, rank: int, d: int) -> float:
    """1/2 sqrt(m - r) - sqrt(d): the bottom singular value of a rank-r
    m x d matrix plus N(0, sigma^2) noise is at least this times sigma,
    with high probability, when it is positive."""
    return 0.5 * math.sqrt(m - rank) - math.sqrt(d)


def check_perturbed_sigma(n_instances: int, rng: np.random.Generator, *,
                          m: int = 400, d: int = 5, rank: int = 2,
                          sigma: float = 1.0):
    """Lower bound on the bottom singular value after Gaussian perturbation.

    For a fixed rank-r C (m x d) and E i.i.d. N(0, sigma^2):

        sigma_d(C + E)^2 >= (1/2 sqrt(m - r) - sqrt(d))^2 sigma^2

    with failure probability at most exp(-(m - r) delta^2 / 2), delta =
    0.3.  The
    report puts the guaranteed value in lhs and the observed squared
    singular value in rhs.  Instances with 1/2 sqrt(m - r) <= sqrt(d) are
    rejected: the bound's pre-square term goes negative and the displayed
    constant becomes meaningless.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be >= 1")
    if not 1 <= rank <= min(m, d):
        raise HypothesisError(
            f"need 1 <= rank <= min(m, d); got rank={rank}, m={m}, d={d}")
    if sigma < 0:
        raise HypothesisError("sigma must be nonnegative")
    gap = _sigma_gap(m, rank, d)
    if gap <= 0:
        raise HypothesisError(
            f"bound is vacuous for m={m}, d={d}, rank={rank}: "
            "1/2 sqrt(m - r) must exceed sqrt(d)")

    c = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
    bound = gap * gap * sigma * sigma
    delta = 0.3
    fail_prob = math.exp(-(m - rank) * delta * delta / 2)
    params = {"m": m, "d": d, "r": rank, "sigma": sigma, "delta": delta,
              "fail_prob": fail_prob, "direction": "lower"}
    reports = []
    for trial in range(n_instances):
        perturbed = c + sigma * rng.standard_normal((m, d))
        observed = float(np.linalg.svd(perturbed, compute_uv=False)[-1] ** 2)
        reports.append(_report("perturbed-sigma", bound, observed,
                               {**params, "trial": trial}))
    return reports


def recovery_probability_floor(m: int, n: int, rank: int, s: int,
                               delta: float) -> float:
    """Stated success probability of the end-to-end recovery bound:
    0.9 - 2 delta - 2 exp(-(m - r) delta^2 / 2) - exp(-s n / 32).
    Can be negative for small shapes; callers clamp as needed.
    """
    return (0.9 - 2 * delta
            - 2 * math.exp(-(m - rank) * delta * delta / 2)
            - math.exp(-s * n / 32))


def _upper_median(values: np.ndarray) -> float:
    """Largest c such that at least half the values are >= c."""
    flat = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    return float(np.partition(flat, flat.size // 2)[flat.size // 2])


def check_recovery_guarantee(a, n_trials: int, rng: np.random.Generator, *,
                             sigma_c: float, sigma_e: float,
                             ridge_lambda: float, eps: float, delta: float):
    """End-to-end additive error bound for the full estimator.

    Measures the hypotheses on the given matrix: exact rank r, column
    incoherence beta and condition number kappa2 over the nonzero spectrum,
    all from one thin SVD, and the denseness constant c (largest value with
    at least half the entries at least that large in magnitude).  The
    estimator runs at the sample counts (d, s) that
    guarantee_sample_sizes gives for them and (eps, delta).  Each trial
    runs it and checks

        ||A - Ahat||_F^2 <= (gamma + eps + 40 eps/(1-eps)) ||A||_F^2
                            + 12 eps (sigma_e^2/sigma_c^2) d sigma_r(A)^2

    where gamma uses the guaranteed lower bound
    (1/2 sqrt(m-r) - sqrt(d))^2 sigma_c^2 for the bottom singular value of
    the noisy column sample.  Entry noise without column noise is
    rejected: its noise term would be infinite, and every trial would hold.
    The stated success probability rides along in params as prob_floor.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not 0 < eps < 1:
        raise HypothesisError("eps must be in (0, 1)")
    if not 0 < delta < 1:
        raise HypothesisError("delta must be in (0, 1)")
    if sigma_c < 0 or sigma_e < 0:
        raise HypothesisError("noise levels must be nonnegative")
    if sigma_c == 0 < sigma_e:
        raise HypothesisError(
            "sigma_e > 0 needs sigma_c > 0: the bound's noise term "
            "sigma_e^2 / sigma_c^2 would be infinite")
    if ridge_lambda < 0:
        raise HypothesisError("ridge_lambda must be nonnegative")

    a = as_matrix(a, "a")
    m, n = a.shape
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    rank = rank_from_singular_values(sv, a.shape)
    if rank == 0:
        raise HypothesisError("matrix is zero; rank hypothesis unmet")
    dense_c = _upper_median(a)
    if dense_c <= 0:
        raise HypothesisError(
            "denseness hypothesis unmet: more than half the entries vanish")
    _, _, beta = leverage_from_svd(sv, vt, a.shape, rank)
    kappa2 = float(sv[0] / sv[rank - 1])
    sigma_r_sq = float(sv[rank - 1] ** 2)
    norm_sq = float(np.sum(sv ** 2))

    d, s = guarantee_sample_sizes(
        rank, beta, kappa2, dense_c, sigma_c, eps, delta)

    gap = _sigma_gap(m, rank, d)
    gamma = ridge_contraction_factor(
        ridge_lambda, gap * gap * sigma_c * sigma_c, eps)
    noise_ratio = (sigma_e / sigma_c) ** 2 if sigma_e else 0.0
    rhs = ((gamma + eps + 40 * eps / (1 - eps)) * norm_sq
           + 12 * eps * noise_ratio * d * sigma_r_sq)
    floor = recovery_probability_floor(m, n, rank, s, delta)

    params = {"m": m, "n": n, "r": rank, "d": d, "s": s,
              "sigma_c": sigma_c, "sigma_e": sigma_e,
              "ridge_lambda": ridge_lambda, "eps": eps, "delta": delta,
              "dense_c": dense_c, "beta": beta, "kappa2": kappa2,
              "gamma": gamma, "sigma_gap": gap, "prob_floor": floor}
    cfg = NoisyCurConfig(n_columns=d, n_rows=s, sigma_c=sigma_c,
                         sigma_e=sigma_e, ridge_lambda=ridge_lambda)
    reports = []
    for trial in range(n_trials):
        rec = noisycur(a, cfg, rng)
        lhs = float(np.sum((a - rec.estimate) ** 2))
        reports.append(_report("recovery-guarantee", lhs, rhs,
                               {**params, "trial": trial}))
    return reports
