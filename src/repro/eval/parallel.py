"""Seed-sharded parallel episode evaluation over a process pool.

This is the end-to-end demo (and the reference implementation) of the
multi-process telemetry fabric: a sweep of seeds is partitioned across N
worker processes, each worker installs its own
:class:`~repro.telemetry.context.TraceContext` from the same environment
variables a shell launcher would export (``REPRO_RUN_ID`` /
``REPRO_WORKER_ID`` / ``REPRO_SPAN_PATH`` plus ``REPRO_TRACE`` with
``REPRO_TRACE_SHARD=1``), and appends its episodes to a private shard
file ``trace.w<worker>.jsonl`` — N writers, zero contention. Each shard
also records the worker's span tree as ``span`` events, so the merged
Chrome export (:func:`repro.telemetry.trace.to_chrome_trace` over
:func:`repro.telemetry.context.merge_shards`) shows one labelled lane
per worker with the worker's spans nested under the coordinator's
``sweep`` span.

Episodes are seed-deterministic, so the sweep's per-episode results are
bit-identical whether the same seeds run serially (``workers<=1``, which
runs in-process without touching global state) or across any number of
processes — asserted by ``tests/telemetry/test_determinism.py``.

Run the demo end to end::

    python -m repro.eval.parallel --episodes 8 --workers 4 --out runs/sweep
    python -m repro.obsv ingest runs/sweep
    python -m repro.obsv serve runs/sweep
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.eval.episodes import EpisodeResult, run_seeds
from repro.telemetry.context import (
    ENV_RUN_ID,
    ENV_SPAN_PATH,
    ENV_TRACE_SHARD,
    ENV_WORKER_ID,
    TraceContext,
    new_run_id,
    reset_context,
    shard_path,
)
from repro.telemetry.log import get_logger
from repro.telemetry.provenance import ENV_PROVENANCE, collect
from repro.telemetry.spans import get_tracer, span
from repro.telemetry.trace import (
    TraceWriter,
    default_writer,
    reset_default_writer,
)

log = get_logger("eval.parallel")

#: Victim agents constructible by name inside a worker process.
VICTIMS = ("modular", "e2e")
#: Attackers constructible by name inside a worker process.
ATTACKERS = ("none", "oracle")


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs — plain data, cheap to pickle."""

    worker: int
    seeds: tuple[int, ...]
    victim: str = "modular"
    attacker: str = "oracle"
    budget: float = 1.0
    #: Directory for ``trace.w<worker>.jsonl`` (None = no trace files).
    out_dir: str | None = None
    #: Logical run id shared by all shards of the sweep.
    run: str = ""
    #: The coordinator's open span path at dispatch time.
    parent: str = ""
    #: Coordinator provenance as JSON ("" = collect in the worker);
    #: installed as ``REPRO_PROVENANCE`` so every shard stamps the same
    #: git SHA / config hash / weights checksums.
    provenance: str = ""


@dataclass
class ShardOutcome:
    """One worker's report back to the coordinator."""

    worker: int
    pid: int
    trace_path: str | None
    #: ``(seed, result)`` pairs in the order the shard ran them.
    results: list[tuple[int, EpisodeResult]] = field(default_factory=list)


@dataclass
class SweepResult:
    """A completed sweep, reassembled in seed order."""

    run: str
    seeds: list[int]
    #: One result per seed, ordered to match ``seeds``.
    results: list[EpisodeResult]
    shards: list[ShardOutcome]
    out_dir: Path | None

    @property
    def trace_paths(self) -> list[Path]:
        return [
            Path(s.trace_path) for s in self.shards if s.trace_path
        ]


def _victim_factory(name: str):
    if name == "modular":
        from repro.agents.modular import ModularAgent

        return lambda world: ModularAgent(world.road)
    if name == "e2e":
        from repro.experiments import registry

        return registry.e2e_victim
    raise ValueError(f"victim must be one of {VICTIMS}, got {name!r}")


def _make_attacker(name: str, budget: float):
    if name == "none":
        return None
    if name == "oracle":
        from repro.core.attackers import OracleAttacker

        return OracleAttacker(budget=budget)
    raise ValueError(f"attacker must be one of {ATTACKERS}, got {name!r}")


def _execute(
    spec: ShardSpec, writer: TraceWriter | None
) -> list[tuple[int, EpisodeResult]]:
    """Run one shard's episodes (shared by the worker and serial paths).

    :func:`~repro.eval.episodes.run_seeds` picks the engine, so process
    sharding stacks with the lockstep batch engine whenever the victim
    and attacker have batched twins.
    """
    results = run_seeds(
        _victim_factory(spec.victim),
        lambda: _make_attacker(spec.attacker, spec.budget),
        spec.seeds,
        trace=writer,
    )
    return list(zip(spec.seeds, results))


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Process-pool entry point: one worker, one shard.

    Installs the context through the environment — exactly the variables
    a shell launcher would export — then lets the fabric do the rest:
    :func:`~repro.telemetry.context.current_context` picks the identity
    up, and the env-installed default writer shards the trace path.
    """
    os.environ[ENV_RUN_ID] = spec.run
    os.environ[ENV_WORKER_ID] = str(spec.worker)
    if spec.parent:
        os.environ[ENV_SPAN_PATH] = spec.parent
    else:
        os.environ.pop(ENV_SPAN_PATH, None)
    if spec.provenance:
        os.environ[ENV_PROVENANCE] = spec.provenance
    else:
        os.environ.pop(ENV_PROVENANCE, None)
    if spec.out_dir is not None:
        os.environ["REPRO_TRACE"] = str(Path(spec.out_dir) / "trace.jsonl")
        os.environ[ENV_TRACE_SHARD] = "1"
    reset_context()
    reset_default_writer()
    tracer = get_tracer()
    tracer.reset()
    tracer.enable(record_events=True)
    writer = default_writer()
    try:
        results = _execute(spec, writer)
        if writer is not None:
            # Persist this worker's span tree into its shard so the
            # merged Chrome export gets real per-worker lanes.
            for name, start, duration in tracer.events:
                writer.emit(
                    "span", name=name, start_s=start, duration_s=duration
                )
            writer.flush()
    finally:
        reset_default_writer()
    trace_path = (
        str(shard_path(Path(spec.out_dir) / "trace.jsonl", spec.worker))
        if spec.out_dir is not None
        else None
    )
    return ShardOutcome(spec.worker, os.getpid(), trace_path, results)


def _run_shard_serial(spec: ShardSpec) -> ShardOutcome:
    """The in-process reference path: same episodes, no global state."""
    writer = None
    if spec.out_dir is not None:
        context = TraceContext(
            run=spec.run, worker=spec.worker, pid=os.getpid(),
            parent=spec.parent,
        )
        writer = TraceWriter(
            shard_path(Path(spec.out_dir) / "trace.jsonl", spec.worker),
            context=context,
        )
        if spec.provenance:
            # Stamp the coordinator's block directly (the serial path
            # must not mutate process environment); the episode runners
            # then see the writer as already stamped.
            writer.emit("provenance", **json.loads(spec.provenance))
            writer._provenance_stamped = True
    try:
        results = _execute(spec, writer)
    finally:
        if writer is not None:
            writer.close()
    return ShardOutcome(
        spec.worker,
        os.getpid(),
        writer and str(
            shard_path(Path(spec.out_dir) / "trace.jsonl", spec.worker)
        ),
        results,
    )


def run_sweep(
    n_episodes: int = 8,
    workers: int = 2,
    victim: str = "modular",
    attacker: str = "oracle",
    budget: float = 1.0,
    seed: int = 0,
    seeds: list[int] | None = None,
    out_dir: str | Path | None = None,
    run_id: str | None = None,
) -> SweepResult:
    """Evaluate a seed sweep, sharded across ``workers`` processes.

    Seeds are dealt round-robin to workers (worker ``k`` gets
    ``seeds[k::workers]``), each worker writes its own trace shard under
    ``out_dir``, and results come back reassembled in seed order.
    ``workers <= 1`` runs the same shards serially in-process — the
    bit-identical reference the determinism suite compares against.
    """
    seeds = list(seeds) if seeds is not None else list(
        range(seed, seed + n_episodes)
    )
    run_id = run_id or new_run_id()
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    workers = max(1, min(int(workers), len(seeds))) if seeds else 1

    # Collect provenance once in the coordinator — including checkpoint
    # checksums for weight-backed victims — so every shard stamps an
    # identical block and the store can group the whole sweep as one run.
    weights = None
    if victim == "e2e":
        from repro.experiments import registry

        weights = registry.artifact_checksums((registry.E2E_DRIVER,))
    provenance_json = json.dumps(
        collect(weights=weights).to_json(), sort_keys=True
    )

    shards: list[ShardOutcome] = []
    with span("sweep"):
        parent = get_tracer().current_path()
        specs = [
            ShardSpec(
                worker=k,
                seeds=tuple(seeds[k::workers]),
                victim=victim,
                attacker=attacker,
                budget=budget,
                out_dir=None if out_dir is None else str(out_dir),
                run=run_id,
                parent=parent,
                provenance=provenance_json,
            )
            for k in range(workers)
            if seeds[k::workers]
        ]
        if workers <= 1:
            shards = [_run_shard_serial(spec) for spec in specs]
        else:
            with ProcessPoolExecutor(max_workers=len(specs)) as pool:
                shards = list(pool.map(run_shard, specs))
    by_seed = {
        seed: result
        for shard in shards
        for seed, result in shard.results
    }
    log.info(
        "parallel.sweep_done", run=run_id, episodes=len(seeds),
        workers=len(shards),
        out_dir=None if out_dir is None else str(out_dir),
    )
    return SweepResult(
        run=run_id,
        seeds=seeds,
        results=[by_seed[s] for s in seeds],
        shards=sorted(shards, key=lambda s: s.worker),
        out_dir=out_dir,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.parallel",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--episodes", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--victim", choices=VICTIMS, default="modular")
    parser.add_argument("--attacker", choices=ATTACKERS, default="oracle")
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=None,
        help="run directory for per-worker trace shards + Chrome export",
    )
    parser.add_argument("--run-id", default=None)
    args = parser.parse_args(argv)

    # Record the coordinator's spans so workers inherit "sweep" as their
    # parent path and the merged Chrome export nests their lanes under it.
    get_tracer().enable(record_events=True)
    sweep = run_sweep(
        n_episodes=args.episodes,
        workers=args.workers,
        victim=args.victim,
        attacker=args.attacker,
        budget=args.budget,
        seed=args.seed,
        out_dir=args.out,
        run_id=args.run_id,
    )
    collided = sum(r.collision is not None for r in sweep.results)
    side = sum(r.side_collision for r in sweep.results)
    sys.stdout.write(
        f"run {sweep.run}: {len(sweep.results)} episodes across"
        f" {len(sweep.shards)} worker(s) — {collided} collisions"
        f" ({side} side)\n"
    )
    for shard in sweep.shards:
        sys.stdout.write(
            f"  worker {shard.worker} (pid {shard.pid}):"
            f" {len(shard.results)} episode(s)"
            + (f" -> {shard.trace_path}" if shard.trace_path else "")
            + "\n"
        )
    if sweep.out_dir is not None:
        from repro.telemetry.context import merge_shards
        from repro.telemetry.trace import to_chrome_trace

        chrome = sweep.out_dir / "trace.chrome.json"
        to_chrome_trace(merge_shards(sweep.out_dir), path=chrome)
        sys.stdout.write(f"chrome trace -> {chrome}\n")
        sys.stdout.write(
            f"next: python -m repro.obsv ingest {sweep.out_dir}"
            f" && python -m repro.obsv serve {sweep.out_dir}\n"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
