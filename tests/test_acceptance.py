"""Acceptance battery: nine numbered criteria plus the ratings-data checks.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every criterion carries its own tolerance and wall-clock limit
inline.  Criterion 3 has two deterministic bound batteries that must hold
on every instance, plus a command-line check that a violated bound, built
on purpose from sketches shrunk below their measured distortion, fails the
build.  The resolvent constant is the squared one proven in
check_ridge_resolvent_bound's docstring; the unsquared form first stated
is false, and tests/test_theory.py pins its counterexample.
"""

import time

import numpy as np
import pytest

from noisycur.baselines import PartialMatrix
from noisycur.cli import main
from noisycur.completion import NoisyCurConfig, noisycur, ridge_solve
from noisycur.datasets import (
    iterative_svd_complete,
    load_jester,
    load_movielens_100k,
    synthetic_lowrank,
)
from noisycur.harness import (
    build_cost_model,
    config_from_dict,
    emit_csv,
    error_metrics,
    load_dataset,
    run_sweep,
    summarize,
)
from noisycur.theory import (
    check_embedding_rate,
    check_perturbed_sigma,
    check_recovery_guarantee,
    check_ridge_resolvent_bound,
    check_sketched_ridge_bound,
    check_span_capture_bound,
    rate_verdict,
)

pytestmark = pytest.mark.slow

# Low-noise comparison sweep: 80x60 rank-4, entry noise 0.01 (variance),
# column noise 0.05, alpha = 0.2, budget 2*m*r = 640 (13% of cells if
# spent on entries alone).  All of that is the package default; only the
# algorithm pair and the seed are pinned here.
FIG2_RAW = {"sweep": {"algorithms": ["ncur", "nna"], "master_seed": 20}}

N_JOKES = 100


def _line(tag, msg):
    print(f"{tag}: {msg}")


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def fig2_sweep():
    cfg = config_from_dict(FIG2_RAW)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, rows, elapsed


@pytest.fixture(scope="module")
def jester_file(tmp_path_factory):
    """Synthetic ratings file in the joke-corpus layout.

    510 users rate all 100 jokes, 10 leave gaps, so the complete-user
    slice is 510x100 before the row limit.  Values come from a rank-5
    model pushed into [-10, 10].
    """
    rng = np.random.default_rng(99)
    scores = rng.normal(size=(520, 5)) @ rng.normal(size=(5, N_JOKES))
    ratings = np.clip(2.5 * scores / np.sqrt(5), -10.0, 10.0).round(2)
    lines = []
    for i in range(520):
        row = ratings[i].copy()
        if i >= 510:
            holes = rng.choice(N_JOKES, size=40, replace=False)
            row[holes] = 99.0
        n_rated = int((row != 99.0).sum())
        lines.append(",".join([str(n_rated)] + [f"{v:.2f}" for v in row]))
    path = tmp_path_factory.mktemp("ratings") / "jokes.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def jester_sweep(jester_file):
    raw = {
        "dataset": {"kind": "jester", "path": str(jester_file),
                    "row_limit": 500, "col_limit": 100, "rank": 5,
                    "name": "jokes-500x100"},
        "sweep": {"d_grid": [4, 8, 12], "n_trials": 3,
                  "algorithms": ["ncur", "nna"], "master_seed": 8},
        # trimmed hyper grids: this sweep checks plumbing and the ledger,
        # not tuning quality
        "hyper": {"nna": {"delta_factors": {"lo": 1e-2, "hi": 1e2, "num": 8},
                          "cv_max_iters": 400, "max_iters": 1200}},
    }
    cfg = config_from_dict(raw)
    t0 = time.perf_counter()
    rows = run_sweep(cfg)
    elapsed = time.perf_counter() - t0
    return cfg, rows, elapsed


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_noiseless_exact_recovery():
    t0 = time.perf_counter()
    cfg = NoisyCurConfig(n_columns=10, n_rows=20, sigma_c=0.0, sigma_e=0.0,
                         ridge_lambda=1e-12)
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(1000 + trial)
        a = synthetic_lowrank(40, 30, 3, rng=rng)
        rel = error_metrics(a, noisycur(a, cfg, rng).estimate)["rel_error"]
        worst = max(worst, rel)
        assert rel < 1e-6
    elapsed = time.perf_counter() - t0
    _line("criterion 1", f"10/10 exact, worst rel err {worst:.2e}, "
          f"{elapsed:.2f}s")
    assert elapsed < 1.0


def test_criterion_2_ridge_matches_gradient_oracle():
    def ridge_gd(b, y, lam):
        # plain gradient descent on ||Bx - y||^2 + lam ||x||^2, step from
        # the exact Lipschitz constant
        smax = np.linalg.svd(b, compute_uv=False)[0]
        step = 1.0 / (2.0 * (smax**2 + lam))
        x = np.zeros((b.shape[1], y.shape[1]))
        for _ in range(200_000):
            grad = 2.0 * (b.T @ (b @ x - y) + lam * x)
            if np.linalg.norm(grad) < 1e-10:
                break
            x -= step * grad
        return x

    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    lams = (0.01, 0.3, 10.0)
    worst = 0.0
    for k in range(50):
        b = rng.normal(size=(12, 5))
        y = rng.normal(size=(12, 3))
        lam = lams[k % 3]
        x = ridge_solve(b, y, lam)
        x_gd = ridge_gd(b, y, lam)
        rel = np.linalg.norm(x - x_gd) / np.linalg.norm(x_gd)
        worst = max(worst, rel)
        assert rel < 1e-8
    elapsed = time.perf_counter() - t0
    _line("criterion 2", f"50/50 oracle matches, worst rel {worst:.2e}, "
          f"{elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_3_sketched_ridge_bound_deterministic():
    t0 = time.perf_counter()
    reports = check_sketched_ridge_bound(100, np.random.default_rng(0))
    n_hold = sum(r.holds for r in reports)
    elapsed = time.perf_counter() - t0
    _line("criterion 3a", f"sketched-ridge {n_hold}/{len(reports)} hold, "
          f"{elapsed:.2f}s")
    assert elapsed < 30.0
    assert n_hold == len(reports) >= 100


def test_criterion_3_resolvent_bound_deterministic():
    t0 = time.perf_counter()
    reports = check_ridge_resolvent_bound(100, np.random.default_rng(0))
    violations = [r for r in reports if not r.holds]
    elapsed = time.perf_counter() - t0
    _line("criterion 3b", f"resolvent {100 - len(violations)}/100 hold, "
          f"{elapsed:.2f}s")
    assert elapsed < 30.0
    assert not violations, (
        f"{len(violations)}/100 instances violate the resolvent bound "
        f"(worst margin {min(r.margin for r in reports):.3e}). The "
        "constant is proven in check_ridge_resolvent_bound's docstring "
        "for any verified embedding, so a violation is a defect in the "
        "code."
    )


def test_criterion_3_violation_fails_build(capsys, shrunken_sketch):
    # same battery through the command line, fed sketches shrunk below
    # their measured distortion: a violated deterministic bound must fail
    # the build with exit code 3
    code = main(["check", "--seed", "0", "--instances", "100",
                 "--skip-probabilistic"])
    captured = capsys.readouterr()
    _line("criterion 3c", f"cli exit code {code} on shrunken sketches")
    assert code == 3
    assert "ridge-resolvent: 0/100 hold" in captured.out
    assert "violation" in captured.err


def test_criterion_4_embedding_success_rate():
    t0 = time.perf_counter()
    reports = check_embedding_rate(100, np.random.default_rng(0))
    n_hold = sum(r.holds for r in reports)
    elapsed = time.perf_counter() - t0
    s = reports[0].params["s"]
    _line("criterion 4a", f"embedding {n_hold}/100 within eps at s={s}, "
          f"{elapsed:.1f}s")
    assert n_hold >= 90
    assert elapsed < 120.0


def test_criterion_4_span_capture_rate():
    t0 = time.perf_counter()
    reports = check_span_capture_bound(3, 500, np.random.default_rng(0))
    fails = sum(not r.holds for r in reports)
    _, allowed, ok = rate_verdict(reports)
    elapsed = time.perf_counter() - t0
    _line("criterion 4b", f"span capture {fails}/500 fail "
          f"(allowed rate {allowed:.2e}), {elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_criterion_4_perturbed_sigma_rate():
    t0 = time.perf_counter()
    reports = check_perturbed_sigma(500, np.random.default_rng(0))
    fails = sum(not r.holds for r in reports)
    _, allowed, ok = rate_verdict(reports)
    elapsed = time.perf_counter() - t0
    _line("criterion 4c", f"perturbed sigma_min {fails}/500 fail "
          f"(allowed rate {allowed:.2e}), {elapsed:.1f}s")
    assert ok
    assert elapsed < 120.0


def test_criterion_5_end_to_end_bound():
    t0 = time.perf_counter()
    a = synthetic_lowrank(80, 60, 4, rng=np.random.default_rng(42))
    reports = check_recovery_guarantee(
        a, 200, np.random.default_rng(0),
        sigma_c=float(np.sqrt(0.05)), sigma_e=0.1, ridge_lambda=1.0,
        eps=0.5, delta=0.1)
    n_hold = sum(r.holds for r in reports)
    elapsed = time.perf_counter() - t0
    p = reports[0].params
    _line("criterion 5", f"full bound {n_hold}/200 hold at d={p['d']} "
          f"s={p['s']}, {elapsed:.0f}s")
    assert n_hold >= 170  # 85% of 200
    assert elapsed < 300.0


def test_criterion_6_low_noise_comparison(fig2_sweep):
    cfg, rows, elapsed = fig2_sweep
    model = build_cost_model(cfg, cfg.dataset["n_rows"], cfg.dataset["rank"])
    n_cells = cfg.dataset["n_rows"] * cfg.dataset["n_cols"]
    # entry-only spending must stay under 20% coverage or the comparison
    # is too easy for the entry samplers
    coverage = model.budget / model.entry_price / n_cells
    assert coverage < 0.20

    summary = summarize(rows)
    ncur, nna = summary["ncur"], summary["nna"]
    best = ncur["means"][ncur["best_d"]]
    nna_mean = nna["means"][nna["best_d"]]  # the same at every d
    _line("criterion 6", f"best ncur mean {best:.4f} at d={ncur['best_d']} "
          f"vs nna {nna_mean:.4f}, interior={ncur['interior']}, "
          f"{elapsed:.0f}s")
    assert best < nna_mean
    assert ncur["interior"]
    assert elapsed < 600.0


def test_criterion_7_wall_time_ratio(fig2_sweep):
    _, rows, _ = fig2_sweep
    summary = summarize(rows)
    ncur_ms = summary["ncur"]["median_wall_ms"]
    nna_ms = summary["nna"]["median_wall_ms"]
    _line("criterion 7", f"median wall ncur {ncur_ms:.1f}ms "
          f"vs nna {nna_ms:.1f}ms")
    assert ncur_ms < nna_ms


def test_criterion_8_budget_ledger(fig2_sweep, jester_sweep):
    checked = 0
    for cfg, rows, _ in (fig2_sweep, jester_sweep):
        _, spec = load_dataset(cfg)
        model = build_cost_model(cfg, spec.n_rows, spec.rank)
        for r in rows:
            assert r.spent <= model.budget + 1e-9, (r.algorithm, r.d, r.trial)
            assert r.spent + r.leftover == pytest.approx(model.budget)
            assert r.leftover >= -1e-9
            checked += 1
    _line("criterion 8", f"{checked} rows, zero overspends")


def test_criterion_9_reproducible_csv(fig2_sweep, tmp_path):
    cfg, rows, _ = fig2_sweep
    first = tmp_path / "first.csv"
    again = tmp_path / "again.csv"
    emit_csv(rows, first, include_wall_time=False)
    # The re-run uses two worker processes, so it also checks that the
    # CSV does not depend on how cells are scheduled.
    pooled = {"sweep": {**FIG2_RAW["sweep"], "workers": 2}}
    t0 = time.perf_counter()
    emit_csv(run_sweep(config_from_dict(pooled)), again,
             include_wall_time=False)
    elapsed = time.perf_counter() - t0
    identical = first.read_bytes() == again.read_bytes()
    _line("criterion 9", f"2-worker re-run byte-identical={identical}, "
          f"{elapsed:.0f}s")
    assert identical


# ---------------------------------------------------------------------------
# ratings-data acceptance: loaders, completion, reduced sweep


def test_jester_loader_fixture(jester_file):
    a = load_jester(jester_file)
    _line("ratings loader", f"complete-user slice {a.shape[0]}x{a.shape[1]}")
    assert a.shape == (510, N_JOKES)
    assert np.abs(a).max() <= 10.0


def test_movielens_loader_fixture(tmp_path):
    path = tmp_path / "u.data"
    path.write_text("1\t10\t3\t881250949\n"
                    "2\t10\t5\t881250950\n"
                    "1\t20\t1\t881250951\n"
                    "943\t1682\t4\t881250952\n")
    pm = load_movielens_100k(path)
    assert pm.shape == (1682, 943)  # items x users
    filled = pm.dense_fill(np.nan)
    assert filled[9, 0] == 3.0
    assert filled[9, 1] == 5.0
    assert filled[19, 0] == 1.0
    assert filled[1681, 942] == 4.0
    assert pm.n_cells == 4
    _line("ratings loader", "movielens fixture cells all placed")


def test_iterative_svd_monotone(jester_file):
    a = load_jester(jester_file)[:500]
    rng = np.random.default_rng(3)
    mask = rng.random(a.shape) < 0.7
    rows, cols = np.nonzero(mask)
    pm = PartialMatrix(a.shape, rows, cols, a[rows, cols])
    _, info = iterative_svd_complete(pm, 5)
    trace = info["trace"]
    diffs = np.diff(trace)
    _line("ratings completion", f"{len(trace)} iterations, max trace "
          f"increase {diffs.max() if len(diffs) else 0.0:.2e}")
    assert len(trace) >= 1
    if len(diffs):
        assert diffs.max() <= 1e-9


def test_jester_reduced_sweep(jester_sweep):
    cfg, rows, elapsed = jester_sweep
    assert len(rows) == 18  # 2 algorithms x 3 d x 3 trials
    feasible = [r for r in rows if r.feasible]
    assert len(feasible) == 18
    for r in feasible:
        assert np.isfinite(r.rel_error)
    _line("ratings sweep", f"18 cells clean, {elapsed:.0f}s")
    assert elapsed < 900.0
