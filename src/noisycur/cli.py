"""Command-line front end.

Subcommands: generate (synthetic matrix to .npy), sweep (budget sweep to
CSV), check (bound-check batteries), cv (standalone ridge-weight search),
info (dataset stats).  Exit codes: 0 success, 1 bad configuration, 2
runtime failure, 3 a checked bound was violated.
"""

from __future__ import annotations

import math
import pathlib
import sys

import click
import numpy as np

from .completion import NoisyCurConfig, draw_noisycur_samples
from .harness import (
    SCHEMA,
    ConfigError,
    config_from_dict,
    emit_csv,
    load_config,
    load_dataset,
    read_matrix,
    read_raw_config,
    resolve_hyper,
    run_sweep,
    write_resolved_config,
)
from .linalg import leverage_from_svd, rank_from_singular_values
from .observe import snr
from .theory import (
    HypothesisError,
    check_embedding_rate,
    check_perturbed_sigma,
    check_ridge_resolvent_bound,
    check_sketched_ridge_bound,
    check_span_capture_bound,
    rate_verdict,
)

__all__ = ["main", "cli"]


class BoundViolation(Exception):
    """A checked mathematical bound failed; maps to exit code 3."""


def _defaults(schema: dict) -> dict:
    """{key: default} of one harness.SCHEMA table."""
    return {key: default for key, (default, _) in schema.items()}


_DATASET = _defaults(SCHEMA["dataset"])
_NCUR = _defaults(SCHEMA["hyper"]["ncur"])


@click.group()
def cli():
    """Matrix completion from noisy column and entry samples under a
    two-cost budget."""


@cli.command()
@click.option("--rows", type=int, default=_DATASET["n_rows"],
              show_default=True)
@click.option("--cols", type=int, default=_DATASET["n_cols"],
              show_default=True)
@click.option("--rank", type=int, default=_DATASET["rank"],
              show_default=True)
@click.option("--mean", type=float, default=_DATASET["mean"],
              show_default=True)
@click.option("--std", type=float, default=_DATASET["std"],
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="destination .npy file")
def generate(rows, cols, rank, mean, std, seed, out):
    """Write a synthetic low-rank matrix to a .npy file."""
    a, _ = load_dataset(config_from_dict({"dataset": {
        "n_rows": rows, "n_cols": cols, "rank": rank, "mean": mean,
        "std": std, "seed": seed}}))
    np.save(out, a)
    click.echo(f"wrote {rows}x{cols} rank-{rank} matrix to {out}")


def _int_list(text: str, name: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be a comma-separated integer "
                          f"list, got '{text}'") from None


@cli.command()
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              required=True, help="experiment config (YAML)")
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="destination CSV")
@click.option("--master-seed", type=int, default=None,
              help="override sweep.master_seed")
@click.option("--trials", type=int, default=None,
              help="override sweep.n_trials")
@click.option("--workers", type=int, default=None,
              help="override sweep.workers")
@click.option("--d-grid", default=None,
              help="override sweep.d_grid (comma-separated)")
@click.option("--algorithms", default=None,
              help="override sweep.algorithms (comma-separated)")
@click.option("--no-wall-time", is_flag=True,
              help="omit the wall_ms column so re-runs are byte-identical")
def sweep(config_path, out, master_seed, trials, workers, d_grid,
          algorithms, no_wall_time):
    """Run the budget sweep described by a config file; write one CSV row
    per (algorithm, d, trial) cell plus the resolved config beside it."""
    raw = read_raw_config(config_path)
    overrides = raw.get("sweep")
    if overrides is None:  # an empty `sweep:` section takes the defaults
        overrides = raw["sweep"] = {}
    if not isinstance(overrides, dict):
        raise ConfigError("section 'sweep' must be a mapping")
    if master_seed is not None:
        overrides["master_seed"] = master_seed
    if trials is not None:
        overrides["n_trials"] = trials
    if workers is not None:
        overrides["workers"] = workers
    if d_grid is not None:
        overrides["d_grid"] = _int_list(d_grid, "--d-grid")
    if algorithms is not None:
        overrides["algorithms"] = [part.strip() for part in
                                   algorithms.split(",") if part.strip()]
    config = config_from_dict(raw)

    rows = run_sweep(config)
    emit_csv(rows, out, include_wall_time=not no_wall_time)
    resolved = pathlib.Path(out).with_suffix(".config.yaml")
    write_resolved_config(config, resolved)
    n_feasible = sum(1 for r in rows if r.feasible)
    click.echo(f"wrote {len(rows)} rows ({n_feasible} feasible) to {out}")
    click.echo(f"resolved config: {resolved}")


def _echo_battery(label: str, reports) -> list:
    """Print held/total per check name; return the failed reports."""
    by_name = {}
    for rep in reports:
        held, total, worst = by_name.get(rep.check, (0, 0, math.inf))
        by_name[rep.check] = (held + int(rep.holds), total + 1,
                              min(worst, rep.margin))
    for name in sorted(by_name):
        held, total, worst = by_name[name]
        click.echo(f"  {name}: {held}/{total} hold "
                   f"(worst margin {worst:.3e})")
    return [rep for rep in reports if not rep.holds]


@cli.command()
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--instances", type=int, default=100, show_default=True,
              help="instances per deterministic battery")
@click.option("--trials", type=int, default=200, show_default=True,
              help="Monte-Carlo trials per probabilistic battery")
@click.option("--skip-probabilistic", is_flag=True,
              help="run only the deterministic batteries")
def check(seed, instances, trials, skip_probabilistic):
    """Verify the library's bounds on random instances.

    Deterministic bounds must hold on every accepted instance;
    probabilistic ones must fail no more often than stated plus three
    binomial standard errors.  Any violation exits with code 3.
    """
    if instances < 1 or trials < 1:
        raise ConfigError("need instances >= 1 and trials >= 1")
    rng = np.random.default_rng(seed)
    failures = []

    click.echo("deterministic bounds:")
    failures += _echo_battery(
        "ridge-resolvent", check_ridge_resolvent_bound(instances, rng))
    failures += _echo_battery(
        "sketched-ridge", check_sketched_ridge_bound(instances, rng))
    if failures:
        raise BoundViolation(
            f"{len(failures)} deterministic bound violations "
            f"(worst margin {min(r.margin for r in failures):.3e})")

    if not skip_probabilistic:
        click.echo("probabilistic bounds:")
        batteries = {
            "subspace-embedding": check_embedding_rate(trials, rng),
            "span-capture": check_span_capture_bound(3, trials, rng),
            "perturbed-sigma": check_perturbed_sigma(trials, rng),
        }
        exceeded = []
        for name, reports in batteries.items():
            observed, allowed, ok = rate_verdict(reports)
            click.echo(f"  {name}: failure rate {observed:.4f} observed, "
                       f"{allowed:.4f} allowed "
                       f"({'ok' if ok else 'EXCEEDED'})")
            if not ok:
                exceeded.append(name)
        if exceeded:
            raise BoundViolation(
                "failure rate above stated + 3 SE for: "
                + ", ".join(exceeded))
    click.echo("all checks passed")


@cli.command()
@click.option("--data", type=click.Path(dir_okay=False), required=True,
              help=".npy matrix file")
@click.option("--n-columns", "-d", "n_columns", type=int, required=True,
              help="column samples d")
@click.option("--n-rows", "-s", "n_rows", type=int, required=True,
              help="sketched rows s")
@click.option("--sigma-c", type=float, required=True,
              help="column noise standard deviation")
@click.option("--sigma-e", type=float, default=0.0, show_default=True,
              help="entry noise standard deviation")
@click.option("--lo", type=float, default=_NCUR["lambda_grid"]["lo"],
              show_default=True)
@click.option("--hi", type=float, default=_NCUR["lambda_grid"]["hi"],
              show_default=True)
@click.option("--num", type=int, default=_NCUR["lambda_grid"]["num"],
              show_default=True)
@click.option("--folds", type=int, default=_NCUR["cv_folds"],
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def cv(data, n_columns, n_rows, sigma_c, sigma_e, lo, hi, num, folds,
       seed):
    """Cross-validate the ridge weight for one draw of the sampler."""
    hyper = resolve_hyper("ncur", {"lambda_grid": {"lo": lo, "hi": hi,
                                                   "num": num},
                                   "cv_folds": folds})
    a = read_matrix(data)
    try:
        cfg = NoisyCurConfig(n_columns=n_columns, n_rows=n_rows,
                             sigma_c=sigma_c, sigma_e=sigma_e,
                             ridge_lambda=0.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    draw = draw_noisycur_samples(a, cfg, np.random.default_rng(seed))
    grid = hyper["lambda_grid"]
    best, curve, folds = draw.cross_validate(grid, hyper["cv_folds"])
    if not folds:
        click.echo(f"lambda {best:.6g} (no cross-validation split)")
        return
    click.echo(f"lambda {best:.6g} by {folds}-fold cross-validation")
    for value, score in zip(grid, curve):
        marker = "  <-- chosen" if value == best else ""
        click.echo(f"  {value:12.6g}  {score:.6e}{marker}")


@cli.command()
@click.option("--data", type=click.Path(dir_okay=False), default=None,
              help=".npy matrix file")
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              default=None, help="experiment config; its dataset is loaded")
@click.option("--rank", type=int, default=None,
              help="rank for the leverage profile (default: numerical "
                   "rank, or the config's rank)")
@click.option("--sigma-c", type=float, default=None,
              help="column noise level for the SNR line (default: the "
                   "config's value if given)")
def info(data, config_path, rank, sigma_c):
    """Shape, rank, incoherence, and noise statistics of a dataset."""
    if (data is None) == (config_path is None):
        raise ConfigError("give exactly one of --data or --config")
    if config_path is not None:
        config = load_config(config_path)
        a, spec = load_dataset(config)
        name = spec.name
        if rank is None:
            rank = spec.rank
        if sigma_c is None:
            sigma_c = config.cost["sigma_c"]
    else:
        a = read_matrix(data)
        name = str(data)

    m, n = a.shape
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    num_rank = rank_from_singular_values(sv, a.shape)
    rank_used = rank if rank is not None else num_rank
    try:
        _, coherence, beta = leverage_from_svd(sv, vt, a.shape, rank_used)
    except ValueError as exc:  # a zero matrix, or a rank out of range
        raise ConfigError(f"{name}: {exc}") from None
    click.echo(f"dataset: {name}")
    click.echo(f"shape: {m} x {n}")
    click.echo(f"numerical rank: {num_rank}"
               + (f" (profile uses rank {rank_used})"
                  if rank is not None else ""))
    click.echo(f"frobenius norm: {float(np.linalg.norm(a)):.6g}")
    click.echo(f"singular values: top {sv[0]:.6g}, "
               f"r-th {sv[min(rank_used, sv.size) - 1]:.6g}, "
               f"smallest {sv[-1]:.6g}")
    click.echo(f"column coherence: {coherence:.6g} (beta {beta:.6g})")
    if sigma_c is not None and sigma_c > 0:
        click.echo(f"snr at sigma_c={sigma_c:.6g}: "
                   f"{snr(a, sigma_c):.6g}")


def main(argv=None) -> int:
    """Entry point mapping exceptions to the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="noisycur", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        click.echo("aborted", err=True)
        return 2
    except click.UsageError as exc:
        exc.show()
        return 1
    except (ConfigError, HypothesisError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except BoundViolation as exc:
        click.echo(f"bound violation: {exc}", err=True)
        return 3
    except Exception as exc:  # CLI boundary: everything else is exit 2
        click.echo(f"error: {exc}", err=True)
        return 2
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
