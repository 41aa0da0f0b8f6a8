"""The rerail benchmark: one command for every workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The run generates its inputs from the seed, repeats whole rounds
of the workload until ``--seconds`` have passed (at least three rounds, two
when traced), checks every round's outputs, and prints as its last line one
JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, medians over the rounds; with ``--trace 1``
untraced and traced rounds alternate, and the metrics are the per-layer
numbers from the traced rounds plus the tracing overhead. Scratch files go
under ``.bench_work/`` and are removed at the end, except the spans of the
last traced run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ROUNDS = 3
MODES = ("rerailer", "sc", "mad")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "rerail" / "__init__.py").is_file():
        raise SystemExit(f"bench: {SRC / 'rerail'} not found; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import rerail

    if not Path(rerail.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported rerail from {rerail.__file__}, not from {SRC}")


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_metrics(tracer, rounds) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    metrics = tracer.layer_metrics(len(traced))
    lookups = sum(r.lookups for r in traced)
    metrics["gateway.cache_lookups"] = lookups / len(traced)
    metrics["gateway.cache_hit_ratio"] = sum(r.hits for r in traced) / lookups if lookups else 0.0
    for mode in MODES:
        depths = [d for r in untraced for d in r.depth.get(mode, [])]
        metrics[f"harness.call_depth.{mode}.p50"] = statistics.median(depths) if depths else 0
    plain = statistics.median(r.run_s for r in untraced)
    metrics["trace.overhead_pct"] = (statistics.median(r.run_s for r in traced) - plain) / plain * 100.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import tracing
    import workloads

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    subprocess.run(
        [sys.executable, str(BENCH / "generate.py"), "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)],
        check=True,
    )
    parallelism = min(generate.WORKLOADS[args.workload]["parallelism"], len(os.sched_getaffinity(0)))
    workload = workloads.make(args.workload, inputs, work, parallelism)
    tracer = tracing.Tracer() if args.trace else None
    min_rounds = 2 if args.trace else MIN_ROUNDS

    rounds: list = []
    error = None
    try:
        workload.prepare()
        start = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                tracer.install([(workloads.LatencyBackend, "call", "bench.LatencyBackend.call")])
            try:
                rnd = workload.round(len(rounds), traced)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.append(rnd)
            print(
                f"round {len(rounds)}{' traced' if traced else ''}: attempted={rnd.executed} failed={rnd.failed} "
                f"setup_s={rnd.setup_s:.4f} run_s={rnd.run_s:.4f} replay_s={rnd.replay_s:.4f} "
                f"question_ms samples={len(rnd.question_ms)}",
                flush=True,
            )
        workloads.check_deterministic(rounds)
    except workloads.CheckFailed as exc:
        error = str(exc)
        print(f"bench: check failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None and tracer.spans:
        tracer.write(WORK / "spans" / f"{args.workload}.jsonl")
    if error is None and args.trace:
        metrics = layer_metrics(tracer, rounds)
    elif error is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = workloads.end_to_end(rounds, peak_rss_mb)
    else:
        metrics = {}
    units = declared_units(1 if args.trace else 0)
    if error is None and set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))} are not declared in BENCHMARK.json both ways")
    result = {
        "correct": error is None,
        "attempted": max(1, sum(r.executed for r in rounds)),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
