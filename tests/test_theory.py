"""Numerical bound checkers: embeddings, ridge bounds, recovery guarantee."""

import math

import numpy as np
import pytest

from noisycur.linalg import (
    SketchMatrix,
    apply_sketch_transpose,
    embedding_distortion,
    orthonormal_basis,
)
from noisycur.theory import (
    BoundReport,
    HypothesisError,
    check_embedding_rate,
    check_perturbed_sigma,
    check_recovery_guarantee,
    check_ridge_resolvent_bound,
    check_sketched_ridge_bound,
    check_span_capture_bound,
    draw_embedding_sketch,
    embedding_sketch_size,
    guarantee_sample_sizes,
    rate_verdict,
    recovery_probability_floor,
    ridge_contraction_factor,
    ridge_resolvent_constant,
    success_rate,
)


class TestBoundReport:
    def test_orientation(self):
        r = BoundReport(check="x", lhs=1.0, rhs=2.0, holds=True, margin=1.0)
        assert r.margin == r.rhs - r.lhs

    def test_rates(self):
        reps = [BoundReport("c", 0, 1, True, 1),
                BoundReport("c", 2, 1, False, -1)]
        assert success_rate(reps) == 0.5
        with pytest.raises(ValueError):
            success_rate([])

    @pytest.mark.parametrize("fails, stated, ok", [
        (2, 0.1, True),    # 0.5 <= 0.1 + 3 sqrt(0.09 / 4) = 0.55
        (3, 0.1, False),   # 0.75 > 0.55
        (0, 0.0, True),    # a stated rate of 0 allows no failure
        (1, 0.0, False),
    ])
    def test_rate_verdict(self, fails, stated, ok):
        reps = [BoundReport("c", 0, 1, k >= fails, 1, {"fail_prob": stated})
                for k in range(4)]
        observed, allowed, verdict = rate_verdict(reps)
        assert observed == fails / 4
        assert allowed == pytest.approx(
            stated + 3 * math.sqrt(stated * (1 - stated) / 4), rel=1e-15)
        assert verdict is ok


class TestRidgeContractionFactor:
    def test_zero_lambda(self):
        assert ridge_contraction_factor(0.0, 3.0, 0.5) == 0.0

    def test_large_lambda_limit(self):
        val = ridge_contraction_factor(1e12, 1.0, 0.5)
        assert val == pytest.approx(2 * (1.5 / 0.5) ** 2, rel=1e-6)

    def test_hand_value(self):
        # lam=1, sigma_sq=1, eps=0.5: 2 * (3 / 2.5)^2 = 2.88
        assert ridge_contraction_factor(1.0, 1.0, 0.5) == pytest.approx(2.88)

    def test_one_dimensional_counterexample(self):
        # noiseless, targets in the span, ||S^T b||^2 = (1-eps) ||b||^2:
        # the sketched fit is z = (1-eps) / (1-eps+lam), and with ||P b|| =
        # 1 the error ||b - B z||^2 is 1.46 times the earlier gamma, one
        # factor (1+eps)/(1-eps) short
        b = np.array([[1.0]])
        sketch = SketchMatrix(1, np.array([0]), np.array([math.sqrt(0.5)]))
        eps = embedding_distortion(sketch, b)
        assert eps == pytest.approx(0.5, abs=1e-15)
        lam, sigma_sq = 0.01, 1.0
        sb = apply_sketch_transpose(sketch, b)
        fit = np.linalg.solve(sb.T @ sb + lam, sb.T @ sb)  # T = B, X = 0
        lhs = float(np.sum((b - b @ fit) ** 2))
        earlier = (2 * (1 + eps) / (1 - eps)
                   * (lam / ((1 + eps) * sigma_sq + lam)) ** 2)
        assert lhs / earlier == pytest.approx(1.461, abs=1e-3)
        gamma = ridge_contraction_factor(lam, sigma_sq, eps)
        assert lhs / gamma == pytest.approx(0.487, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ridge_contraction_factor(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ridge_contraction_factor(-1.0, 1.0, 0.5)


class TestEmbeddingSketchSize:
    def test_formula(self):
        d, eps, delta = 6, 0.5, 0.1
        lead = (6 + 2 * eps) / (3 * eps**2)
        expected = math.ceil(lead * 2 * d * math.log(d / delta))
        assert embedding_sketch_size(d, eps, delta) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            embedding_sketch_size(0, 0.5, 0.1)
        with pytest.raises(ValueError):
            embedding_sketch_size(3, 1.5, 0.1)


class TestDrawEmbeddingSketch:
    def test_returns_verified_sketch(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((40, 4))
        s = embedding_sketch_size(4, 0.5, 0.1)
        sketch, measured, draws = draw_embedding_sketch(
            orthonormal_basis(a), s, rng, eps=0.5)
        assert measured <= 0.5
        assert draws >= 1
        assert sketch.n_samples == s

    def test_impossible_size_raises(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((30, 5))
        with pytest.raises(RuntimeError, match="increase s"):
            draw_embedding_sketch(orthonormal_basis(a), 2, rng, eps=0.1)


class TestEmbeddingRate:
    def test_rate_at_guaranteed_size(self):
        rng = np.random.default_rng(7)
        reports = check_embedding_rate(100, rng)
        assert success_rate(reports) >= 0.90
        assert reports[0].params["fail_prob"] == 0.1

    def test_purity(self):
        r1 = check_embedding_rate(10, np.random.default_rng(3))
        r2 = check_embedding_rate(10, np.random.default_rng(3))
        assert [r.lhs for r in r1] == [r.lhs for r in r2]
        assert [r.holds for r in r1] == [r.holds for r in r2]

    def test_d_above_m_rejected(self):
        with pytest.raises(HypothesisError):
            check_embedding_rate(5, np.random.default_rng(0), m=4, d=6)


class TestRidgeResolventBound:
    def test_identity_sketch_case_direct(self):
        # unsketched operator: per singular direction the claim tightens to
        # sigma_i^2/(sigma_i^2+lam)^2 <= sigma_i^2/(sigma_d^2+lam)^2, which
        # holds since sigma_i >= sigma_d; verify numerically
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 4))
        lam = 0.3
        sigma_d_sq = np.linalg.svd(a, compute_uv=False)[-1] ** 2
        for _ in range(20):
            v = rng.standard_normal(4)
            lhs = np.sum((a @ np.linalg.solve(a.T @ a + lam * np.eye(4), v)) ** 2)
            rhs = (1.0 / (sigma_d_sq + lam)) ** 2 * np.sum((a @ v) ** 2)
            assert lhs <= rhs + 1e-12 * max(1, rhs)

    def test_null_space_vector_both_sides_vanish(self):
        rng = np.random.default_rng(1)
        # rank-2 A in a 4-column space; v orthogonal to the row space
        a = rng.standard_normal((10, 2)) @ rng.standard_normal((2, 4))
        _, _, vt = np.linalg.svd(a)
        v = vt[-1]  # null direction
        assert np.linalg.norm(a @ v) < 1e-10
        lam = 0.7
        lhs = np.sum((a @ np.linalg.solve(a.T @ a + lam * np.eye(4), v)) ** 2)
        assert lhs < 1e-20

    def test_all_hold_at_fixed_seed(self):
        reports = check_ridge_resolvent_bound(20, np.random.default_rng(2))
        assert len(reports) == 20
        assert success_rate(reports) == 1.0
        for r in reports:
            assert r.params["eps_measured"] <= r.params["eps"]

    def test_violations_reported_honestly(self, shrunken_sketch,
                                          monkeypatch):
        # a sketch shrunk below its measured distortion breaks the bound on
        # purpose; the checker must say so rather than clamp
        reports = check_ridge_resolvent_bound(20, np.random.default_rng(0))
        assert not any(r.holds for r in reports)
        for r in reports:
            assert r.margin < 0
        # the draws and the measured eps are the honest run's, so rhs is
        # unchanged and the whole violation sits in lhs
        monkeypatch.undo()
        honest = check_ridge_resolvent_bound(20, np.random.default_rng(0))
        assert [r.rhs for r in reports] == [r.rhs for r in honest]
        assert all(r.holds for r in honest)

    def test_constant_hand_value(self):
        # lam=1, sigma_sq=1, eps=0.5: (3 / 2.5)^2 = 1.44
        assert ridge_resolvent_constant(1.0, 1.0, 0.5) == pytest.approx(1.44)
        with pytest.raises(ValueError):
            ridge_resolvent_constant(1.0, 1.0, 1.0)

    def test_constant_counterexamples(self):
        # the squared constant holds where the unsquared one and the
        # (1-eps) sigma_d^2 variant both fail; instances are built with
        # exact sketches and eps is measured as the checker measures it
        def worst_ratio(a, sketch, lam):
            # max over v of ||A (A^T S S^T A + lam I)^{-1} v||^2 / ||A v||^2
            sa = apply_sketch_transpose(sketch, a)
            op = a @ np.linalg.inv(sa.T @ sa + lam * np.eye(a.shape[1]))
            return np.linalg.eigvals(
                np.linalg.solve(a.T @ a, op.T @ op)).real.max()

        # one dimension: ||S^T a||^2 = (1-eps) ||a||^2, lam < sigma^2
        # sqrt(1-eps^2) = 0.866
        a = np.array([[1.0]])
        sketch = SketchMatrix(1, np.array([0]), np.array([math.sqrt(0.5)]))
        eps = embedding_distortion(sketch, a)
        assert eps == pytest.approx(0.5, abs=1e-15)
        lam, sigma_sq = 0.1, 1.0
        ratio = worst_ratio(a, sketch, lam)
        assert ratio == pytest.approx(1 / ((1 - eps) * sigma_sq + lam) ** 2)
        unsquared = (1 + eps) / (1 - eps) / ((1 + eps) * sigma_sq + lam) ** 2
        assert ratio > 2 * unsquared
        assert ratio <= ridge_resolvent_constant(lam, sigma_sq, eps)

        # two dimensions, ill-conditioned: A = U diag(1, sqrt(376)) with U
        # a 30-degree rotation, so K = U^T S S^T U = U^T diag(1.5, 0.5) U
        turn = math.pi / 6
        u = np.array([[math.cos(turn), -math.sin(turn)],
                      [math.sin(turn), math.cos(turn)]])
        a = u @ np.diag([1.0, math.sqrt(376.0)])
        sketch = SketchMatrix(2, np.array([0, 1]),
                              np.sqrt(np.array([1.5, 0.5])))
        eps = embedding_distortion(sketch, u)  # span(a) = span(u) = R^2
        assert eps == pytest.approx(0.5, abs=1e-12)
        lam, sigma_sq = 27.5, 1.0
        ratio = worst_ratio(a, sketch, lam)
        assert ratio > 1.2 / ((1 - eps) * sigma_sq + lam) ** 2
        assert ratio <= ridge_resolvent_constant(lam, sigma_sq, eps)
    def test_zero_lambda_rejected(self):
        with pytest.raises(HypothesisError):
            check_ridge_resolvent_bound(1, np.random.default_rng(0),
                                        ridge_lambda=0.0)

    def test_purity(self):
        r1 = check_ridge_resolvent_bound(5, np.random.default_rng(9))
        r2 = check_ridge_resolvent_bound(5, np.random.default_rng(9))
        assert [r.lhs for r in r1] == [r.lhs for r in r2]
        assert [r.rhs for r in r1] == [r.rhs for r in r2]


class TestSketchedRidgeBound:
    def test_identity_sketch_zero_lambda_direct(self):
        # S = I, lam = 0, E = 0: the fit is plain least squares, so the
        # error is exactly the orthogonal residual and the bound has slack
        # 4 * that residual
        rng = np.random.default_rng(2)
        b = rng.standard_normal((15, 4))
        a = rng.standard_normal((15, 6))
        coeffs = np.linalg.lstsq(b, a, rcond=None)[0]
        q = orthonormal_basis(b)
        resid_sq = np.sum((a - q @ (q.T @ a)) ** 2)
        lhs = np.sum((a - b @ coeffs) ** 2)
        assert lhs == pytest.approx(resid_sq, rel=1e-10)
        gamma = ridge_contraction_factor(0.0, 1.0, 0.0)
        rhs = resid_sq + gamma * np.sum((q @ (q.T @ a)) ** 2) + 4 * resid_sq
        assert lhs <= rhs

    def test_hundred_instances_hold(self):
        rng = np.random.default_rng(11)
        reports = check_sketched_ridge_bound(50, rng)
        assert len(reports) == 100  # matrix + vector per instance
        assert success_rate(reports) == 1.0
        kinds = {r.check for r in reports}
        assert kinds == {"sketched-ridge-matrix", "sketched-ridge-vector"}

    def test_vector_form_matches_least_squares_reference(self):
        # the vector form as first written, f(z*) against
        # f_opt + gamma (f(x) - f_opt) with f_opt from lstsq, replayed on
        # each instance's draws in the checker's order
        m, d, k, s, lam, eps, sigma_e = 30, 5, 8, 25, 1.0, 0.5, 0.1
        reports = check_sketched_ridge_bound(20, np.random.default_rng(12))
        vector = [r for r in reports if r.check == "sketched-ridge-vector"]
        rng = np.random.default_rng(12)
        for report in vector:
            design = rng.standard_normal((m, d))
            b = rng.standard_normal((m, k))[:, 0]
            e = sigma_e * rng.standard_normal((m, k))[:, 0]
            q, sv = orthonormal_basis(design, return_singular_values=True)
            sketch, measured, _ = draw_embedding_sketch(q, s, rng, eps=eps)
            prox = rng.standard_normal(d)
            sb = apply_sketch_transpose(sketch, design)
            z_star = np.linalg.solve(
                sb.T @ sb + lam * np.eye(d),
                sb.T @ apply_sketch_transpose(sketch, (b + e)[:, None]).ravel()
                + lam * prox)
            z_opt = np.linalg.lstsq(design, b, rcond=None)[0]
            f_opt = np.sum((design @ z_opt - b) ** 2)
            f_prox = np.sum((design @ prox - b) ** 2)
            orth_b = b - q @ (q.T @ b)
            gamma = ridge_contraction_factor(lam, sv[-1] ** 2, measured)
            gain = 4.0 / (1.0 - measured)
            lhs = np.sum((design @ z_star - b) ** 2)
            rhs = (f_opt + gamma * (f_prox - f_opt)
                   + gain * np.sum(
                       apply_sketch_transpose(sketch, e[:, None]) ** 2)
                   + gain * np.sum(
                       apply_sketch_transpose(sketch, orth_b[:, None]) ** 2))
            assert report.params["gamma"] == gamma
            assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
            assert report.rhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_zero_noise_still_holds(self):
        reports = check_sketched_ridge_bound(
            10, np.random.default_rng(4), sigma_e=0.0)
        assert success_rate(reports) == 1.0

    def test_purity(self):
        r1 = check_sketched_ridge_bound(4, np.random.default_rng(6))
        r2 = check_sketched_ridge_bound(4, np.random.default_rng(6))
        assert [r.lhs for r in r1] == [r.lhs for r in r2]


class TestSpanCaptureBound:
    def test_zero_noise_exact_containment(self):
        reports = check_span_capture_bound(
            3, 5, np.random.default_rng(0), sigma_c=0.0)
        for r in reports:
            assert r.lhs < 1e-18 * r.params.get("m", 1)
            assert r.holds

    def test_default_instance_holds(self):
        reports = check_span_capture_bound(3, 100, np.random.default_rng(1))
        # stated failure probability exp(-200 * 0.09 / 2) ~ 1.2e-4
        assert success_rate(reports) == 1.0
        assert reports[0].params["fail_prob"] == pytest.approx(
            math.exp(-200 * 0.3**2 / 2))

    def test_margin_far_above_threshold(self):
        # A and C are drawn before any trial, so one trial at the same seed
        # gives the instance's largest admissible level
        probe = check_span_capture_bound(3, 1, np.random.default_rng(2))
        reports = check_span_capture_bound(
            3, 50, np.random.default_rng(2),
            sigma_c=probe[0].params["sigma_c_max"] / 10)
        ratios = sorted(r.lhs / (r.rhs / r.params["eps"]) for r in reports)
        median = ratios[len(ratios) // 2]
        assert median < reports[0].params["eps"] / 10

    def test_oversized_sigma_rejected(self):
        with pytest.raises(HypothesisError, match="threshold"):
            check_span_capture_bound(3, 5, np.random.default_rng(3),
                                     sigma_c=100.0)

    def test_rank_bounds(self):
        with pytest.raises(HypothesisError):
            check_span_capture_bound(7, 5, np.random.default_rng(0))


class TestPerturbedSigma:
    def test_zero_sigma_trivial(self):
        reports = check_perturbed_sigma(5, np.random.default_rng(0),
                                        sigma=0.0)
        for r in reports:
            assert r.lhs == 0.0
            assert r.holds

    def test_default_instance_rate(self):
        reports = check_perturbed_sigma(100, np.random.default_rng(1))
        assert success_rate(reports) >= 0.99
        assert reports[0].params["direction"] == "lower"

    def test_vacuous_shape_rejected(self):
        with pytest.raises(HypothesisError, match="vacuous"):
            check_perturbed_sigma(5, np.random.default_rng(0), m=9, d=4,
                                  rank=2)

    def test_lower_bound_orientation(self):
        reports = check_perturbed_sigma(3, np.random.default_rng(2))
        for r in reports:
            assert r.lhs <= r.rhs or not r.holds  # lhs carries the bound


class TestRecoveryProbabilityFloor:
    def test_formula(self):
        val = recovery_probability_floor(80, 60, 4, 100, 0.1)
        expected = (0.9 - 0.2 - 2 * math.exp(-76 * 0.01 / 2)
                    - math.exp(-100 * 60 / 32))
        assert val == pytest.approx(expected)

    def test_negative_for_tiny_shapes(self):
        assert recovery_probability_floor(10, 5, 2, 1, 0.4) < 0.9


class TestRecoveryGuarantee:
    def test_noiseless_limit_holds_trivially(self):
        from noisycur.datasets import synthetic_lowrank
        a = synthetic_lowrank(30, 20, 2, rng=np.random.default_rng(0))
        reports = check_recovery_guarantee(
            a, 3, np.random.default_rng(1), sigma_c=0.0, sigma_e=0.0,
            ridge_lambda=1e-10, eps=0.9, delta=0.49)
        for r in reports:
            assert r.holds
            # with both noise levels zero the rhs carries no noise term:
            # it is exactly (gamma + eps + 40 eps/(1-eps)) ||A||_F^2
            expected_rhs = ((r.params["gamma"] + 0.9 + 40 * 0.9 / 0.1)
                            * np.sum(a * a))
            assert r.rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert reports[0].params["prob_floor"] <= 0.9

    def test_entry_noise_without_column_noise_rejected(self):
        # sigma_c = 0 < sigma_e makes the noise term, and so the rhs,
        # infinite: every trial would hold
        from noisycur.datasets import synthetic_lowrank
        a = synthetic_lowrank(80, 60, 4, rng=np.random.default_rng(42))
        with pytest.raises(HypothesisError, match="needs sigma_c > 0"):
            check_recovery_guarantee(
                a, 1, np.random.default_rng(0), sigma_c=0.0, sigma_e=0.1,
                ridge_lambda=1.0, eps=0.5, delta=0.1)

    def test_zero_matrix_rejected(self):
        with pytest.raises(HypothesisError):
            check_recovery_guarantee(
                np.zeros((20, 10)), 1, np.random.default_rng(0),
                sigma_c=0.1, sigma_e=0.0, ridge_lambda=1.0,
                eps=0.5, delta=0.1)

    def test_params_expose_measured_hypotheses(self):
        from noisycur.datasets import synthetic_lowrank
        a = synthetic_lowrank(30, 20, 2, rng=np.random.default_rng(4))
        reports = check_recovery_guarantee(
            a, 1, np.random.default_rng(5), sigma_c=0.0, sigma_e=0.0,
            ridge_lambda=1e-8, eps=0.9, delta=0.49)
        p = reports[0].params
        for key in ("beta", "kappa2", "dense_c", "gamma", "prob_floor"):
            assert key in p
        assert (p["d"], p["s"]) == guarantee_sample_sizes(
            p["r"], p["beta"], p["kappa2"], p["dense_c"], 0.0, 0.9, 0.49)


class TestOneSvdPerInput:
    """Each checker decomposes each matrix it draws or is given once."""

    def test_recovery_guarantee(self, svd_shapes):
        # rank, beta, kappa2 and the spectrum come from one SVD of a; the
        # trials' SVDs are of the noisy columns and the sketched design,
        # (30, 27) and (rows, 27) here
        from noisycur.datasets import synthetic_lowrank
        a = synthetic_lowrank(30, 20, 2, rng=np.random.default_rng(4))
        svd_shapes.clear()  # the generator's own SVD
        reports = check_recovery_guarantee(
            a, 2, np.random.default_rng(5), sigma_c=0.0, sigma_e=0.0,
            ridge_lambda=1e-8, eps=0.9, delta=0.49)
        assert reports[0].params["d"] != a.shape[1]
        assert svd_shapes[0] == a.shape
        assert svd_shapes.count(a.shape) == 1

    def test_ridge_resolvent(self, svd_shapes):
        check_ridge_resolvent_bound(5, np.random.default_rng(0))
        assert svd_shapes == [(25, 4)] * 5

    def test_sketched_ridge(self, svd_shapes, monkeypatch):
        # both forms come from the design's one basis: no second
        # decomposition by a least-squares solver
        def no_lstsq(*args, **kwargs):
            raise AssertionError("lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        check_sketched_ridge_bound(5, np.random.default_rng(0))
        assert svd_shapes == [(30, 5)] * 5

    def test_span_capture(self, svd_shapes):
        # one SVD of c for its rank and sigma_min, then one basis of the
        # perturbed c per trial
        check_span_capture_bound(2, 3, np.random.default_rng(3))
        assert svd_shapes == [(200, 6)] * (1 + 3)
