"""The noisycur benchmark: one workload per run, timed end to end, or
traced layer by layer.

    python3 bench/run.py --workload lownoise-sweep --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports the package from ``src/``.
The workloads are described in ``workloads.py`` and ``README.md``.

A run writes its inputs from ``--seed``, times the set-up several times,
warms up, and then repeats identical rounds of the workload until
``--seconds`` have passed (two rounds at least, so that a re-run can be
compared byte for byte).  Then it checks the outputs.  With ``--trace 1``
every other round runs with the tracer installed: the per-layer metrics
come from the traced rounds, and their wall time against that of the
untraced rounds is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` without tracing, its per-layer metrics with
it.  Run outputs and the span file go to ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
# One BLAS thread: the reference host has two cores shared with other
# work, and a single thread keeps round times steady.
BLAS_THREADS = "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _measure(workload, seconds, tracer):
    """Set up, warm up, run rounds; returns everything the report needs.

    The set-up is repeated before every round, so that its median samples
    the host over the whole run rather than over its first moments.
    """
    workload.prepare()
    setup_times = []

    def set_up():
        for _ in range(workload.setup_repeats):
            elapsed, state = _timed(workload.setup)
            setup_times.append(elapsed)
        return state

    state = set_up()
    workload.warm_up(state)

    rounds, layer_rounds = [], []   # rounds: (wall_s, record, traced)
    begin = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - begin < seconds:
        if rounds:
            set_up()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.begin_round(len(rounds))
        try:
            wall, record = _timed(workload.run_round, state)
        finally:
            if traced:
                layer_rounds.append(tracer.end_round())
        rounds.append((wall, record, traced))
    # Read before the checks: they run extra cases, such as the noiseless
    # guarantee run, that are not part of the workload.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return state, setup_times, rounds, layer_rounds, peak_rss_mb


def _host_line(np, scipy):
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas} "
            f"blas_threads={BLAS_THREADS}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import numpy as np
        import scipy

        import tracer as tracing
        import workloads
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot load the package or BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / "bench" / "out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    tracer = tracing.Tracer() if args.trace else None
    try:
        state, setup_times, rounds, layer_rounds, peak_rss_mb = _measure(
            workload, args.seconds, tracer)
        records = [rec for _, rec, _ in rounds]
        plain = [rec for _, rec, traced in rounds if not traced]
        plain_walls = [wall for wall, _, traced in rounds if not traced]
        traced_walls = [wall for wall, _, traced in rounds if traced]
        failures, extra_ops = workload.check(state, records)
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(plain_walls),
            "peak_rss_mb": peak_rss_mb,
            **workload.metrics(state, plain),
        }
        layers = {}
        if tracer is not None:
            tracer.write(out_dir / "spans.csv")
            layers = {
                **tracing.layer_metrics(layer_rounds, workload.expected_calls),
                **workload.figures(plain),
                "trace.overhead_ratio":
                    statistics.median(traced_walls) / end_to_end["wall_s"],
            }
    except (workloads.WorkloadError, tracing.TraceError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    counts = [workload.counts(rec) for rec in records]
    attempted = sum(a for a, _ in counts) + extra_ops
    failed = sum(f for _, f in counts)
    reported = layers if args.trace else end_to_end
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(reported) != set(units):
        print(f"bench: metrics {sorted(set(reported) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1

    print(_host_line(np, scipy))
    print(f"workload: {args.workload} seed={args.seed} "
          f"rounds={len(plain)} untraced + {len(traced_walls)} traced, "
          f"set-ups={len(setup_times)}")
    print("  round walls (s, * traced): " + " ".join(
        f"{wall:.3f}{'*' if traced else ''}" for wall, _, traced in rounds))
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g} {e2e_units[name]}")
    for name, value in layers.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for message in failures:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
