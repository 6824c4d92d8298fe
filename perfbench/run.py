"""perfbench: measure one workload in a fresh process and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper-eval --seed 7 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs untraced and traced passes in turn and prints every
per-layer metric. The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Before it, one
line per metric and an ``env`` line recording the machine and code; the
same record goes to ``.perfbench/runs/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # setup_s counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import bootstrap

SETUP_PROBES = 2  # extra fresh-process set-ups per run; setup_s is the median


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print the set-up seconds and exit",
    )
    return parser.parse_args(argv)


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up seconds of one fresh process running the same workload."""
    done = subprocess.run(
        [
            sys.executable, __file__, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe",
        ],
        capture_output=True, text=True, timeout=150, check=True,
        cwd=bootstrap.ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float):
    """Untimed check after each timed pass, until ``seconds`` have run."""
    walls, passes = [], []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        workload.before_pass(len(walls))
        start = time.perf_counter()
        result = workload.run_pass()
        walls.append(time.perf_counter() - start)
        workload.check(result)
        passes.append(result)
    return walls, passes


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced passes; traced outcomes must match."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced, passes = [], [], []
    begin = time.perf_counter()
    while not traced or time.perf_counter() - begin < seconds:
        workload.before_pass(len(traced))
        start = time.perf_counter()
        untraced = workload.run_pass()
        plain.append(time.perf_counter() - start)
        workload.before_pass(len(traced))
        with tracing.installed(tracer):
            start = time.perf_counter()
            result = workload.run_pass(tracer)
            traced.append(time.perf_counter() - start)
        workload.check(untraced)
        workload.check(result)
        if result.fingerprint() != untraced.fingerprint():
            result.fail(result.attempted, "traced outcomes differ from untraced")
        passes += [untraced, result]
    leftovers = tracing.leftover_wrappers()
    if leftovers:
        passes[-1].fail(1, f"wrappers left installed: {leftovers}")
    return tracer, plain, traced, passes


def layer_metrics(workload, tracer, plain, traced, passes) -> dict:
    import tracing
    from workloads import LockstepSweep

    traced_passes = passes[1::2]
    spans = tracer.spans
    per = sum(workload.per_unit(result) for result in traced_passes)
    metrics = tracing.layer_metrics(spans, sum(traced), per)
    metrics.update(tracing.inference_metrics(spans))
    fractions = tracing.live_row_fractions(spans)
    for cell in LockstepSweep.cells:
        metrics[f"eval.live_row_fraction.{cell}"] = fractions.get(cell, 0.0)
    batch, scalar = tracing.engine_cells(spans)
    metrics["eval.batch_cells"] = batch
    metrics["eval.scalar_cells"] = scalar
    episodes = sum(result.episodes for result in traced_passes)
    trace_bytes = sum(r.extra.get("trace_bytes", 0) for r in traced_passes)
    events = sum(r.extra.get("events", 0) for r in traced_passes)
    ingest_ns = sum(s.self_ns for s in spans if s.layer == "obsv.ingest")
    metrics["telemetry.bytes_per_episode"] = (
        trace_bytes / episodes if trace_bytes else 0.0
    )
    metrics["obsv.ingest.us_per_event"] = (
        ingest_ns / 1e3 / events if events else 0.0
    )
    metrics["trace_overhead"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    return metrics


def environment(cleared: list[str]) -> dict:
    import numpy as np

    from repro.experiments import registry
    from repro.sim.config import ScenarioConfig
    from repro.telemetry.provenance import collect

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    weights = {
        name: registry.artifacts_dir() / name for name in registry.ALL_ARTIFACTS
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": bootstrap.BLAS_THREADS,
            "pinned_by": list(bootstrap.THREAD_VARS),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_env": f"cleared before timing: {cleared or 'none set'}",
        "provenance": collect(ScenarioConfig(), weights).to_json(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = bootstrap.prepare()
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())

    import workloads
    from reference import Reference

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workloads.require_artifacts()
    workload = workloads.WORKLOADS[args.workload](args.seed, Reference())
    workload.warm_up()
    setup = [time.perf_counter() - _START]
    if args.setup_probe:
        print(setup[0])
        return 0

    if args.trace:
        tracer, plain, traced, passes = measure_traced(workload, args.seconds)
        metrics = layer_metrics(workload, tracer, plain, traced, passes)
        declared = spec["per_layer"]
        walls = {"untraced": plain, "traced": traced}
        printed = {}
    else:
        walls, passes = measure(workload, args.seconds)
        setup += [probe_setup(args) for _ in range(SETUP_PROBES)]
        metrics = {
            "pass_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            ),
        }
        declared = spec["end_to_end"]
        name, value, unit = workload.headline(walls, passes)
        printed = {name: {"value": value, "unit": unit}}

    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    for problem in [p for result in passes for p in result.problems][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    out = {
        m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    printed.update(out)
    printed["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(cleared),
        "attempted": attempted,
        "failed": failed,
        "pass_walls_s": walls,
        "setup_samples_s": setup,
        "metrics": printed,
    }
    runs = bootstrap.OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(bootstrap.OUT / "spans" / f"{stem}.jsonl")

    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, metric in printed.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
