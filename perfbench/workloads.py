"""The perfbench workloads: inputs drawn from a seed, one timed pass, checks.

Every workload is closed-loop: one caller, each call waits for the one
before it. A *pass* is the workload's fixed unit of work (a sweep over its
cells, or one training stage); the driver in ``run.py`` repeats passes
for the measured time. Passes call the program only through its public
entry points, looked up on their modules at call time so the traced run's
wrappers (:mod:`tracing`) see every call.
"""

from __future__ import annotations

import dataclasses
import statistics
import traceback
from dataclasses import dataclass, field

import numpy as np

import bootstrap
from cells import CELLS, TRAIN_POOL, train_config
from reference import Reference, outcome
from repro.core import training as training_mod
from repro.eval import batch as batch_mod
from repro.eval import episodes as episodes_mod
from repro.experiments import registry
from repro.obsv import compare as compare_mod
from repro.obsv.store import TelemetryStore
from repro.telemetry.trace import TraceWriter


@dataclass
class PassResult:
    """What one pass did, and what went wrong in it."""

    #: Episodes simulated (every episode, training rollouts included).
    episodes: int = 0
    #: Operations attempted: episodes evaluated, observability calls, or
    #: training stages.
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: ``(cell, seeds, results)`` per evaluated cell.
    runs: list = field(default_factory=list)
    #: Workload-specific outputs checked after the pass.
    extra: dict = field(default_factory=dict)

    def fail(self, count: int, *problems: str) -> None:
        self.failed += count
        self.problems.extend(problems)

    def fingerprint(self) -> list:
        """Episode outcomes and returned metrics, for exact comparison."""
        rows = [
            (cell, [outcome(result) for result in results])
            for cell, _, results in self.runs
        ]
        return rows + [self.extra.get("train_metrics")]


def _window(rng, steps: list[int], n: int, tolerance: float = 0.05) -> int:
    """Start of ``n`` consecutive pool seeds with a representative length.

    Only windows whose total reference episode length is within
    ``tolerance`` of ``n`` times the pool mean are drawn, so a seed cannot
    pick an unusually short or long sweep.
    """
    lengths = np.asarray(steps, dtype=float)
    target = n * lengths.mean()
    totals = np.convolve(lengths, np.ones(n), mode="valid")
    starts = np.flatnonzero(np.abs(totals - target) <= tolerance * target)
    return int(rng.choice(starts))


def _stratified(rng, steps: list[int], n: int) -> list[int]:
    """``n`` pool seeds, one from each of ``n`` strata of episode length.

    Every batch then carries the pool's mix of short and long episodes,
    stragglers included, whatever the seed.
    """
    order = np.argsort(np.asarray(steps), kind="stable")
    return sorted(int(rng.choice(part)) for part in np.array_split(order, n))


def _guarded(result: PassResult, operations: int, label: str, call):
    """Run ``call``; an exception fails ``operations`` operations."""
    result.attempted += operations
    try:
        return call()
    except Exception:  # the benchmark counts failures and keeps going
        result.fail(operations, f"{label}: {traceback.format_exc()}")
        return None


class Workload:
    """Base class: the inputs of one ``--seed`` and how to run them."""

    name = ""
    cells: tuple[str, ...] = ()

    #: Episodes per cell of the unchecked warm-up pass run in set-up.
    warm_up_episodes = 2

    def __init__(self, reference: Reference) -> None:
        self.reference = reference

    def warm_up(self) -> None:
        """Fill lazy caches before the first timed call (part of set-up)."""
        self.before_pass(0)
        self.run_pass(limit=self.warm_up_episodes)

    def before_pass(self, index: int) -> None:
        """Untimed housekeeping before pass ``index`` (a traced run calls
        it with the same index for its untraced and traced pass)."""

    def run_pass(self, tracer=None, limit: int | None = None) -> PassResult:
        """One pass; ``limit`` keeps only each cell's first seeds."""
        return self._run_cells(tracer, self.run_cell, limit)

    def check(self, result: PassResult) -> None:
        """Compare a pass's outcomes with the stored reference."""
        for cell, seeds, results in result.runs:
            problems = self.reference.check_episodes(cell, seeds, results)
            result.fail(len(problems), *problems)

    def per_unit(self, result: PassResult) -> int:
        """The count per-layer ``calls`` are divided by (episodes)."""
        return result.episodes

    def headline(self, walls: list[float], passes: list[PassResult]):
        """``(name, value, unit)`` of the workload's own throughput figure.

        Printed with the end-to-end metrics; it is a fixed function of
        ``pass_s`` because a pass always runs the same episodes.
        """
        rates = [p.episodes / wall for p, wall in zip(passes, walls)]
        return "episodes_per_s", statistics.median(rates), "1/s"

    def _run_cells(self, tracer, run_cell, limit) -> PassResult:
        result = PassResult()
        for cell in self.cells:
            if tracer is not None:
                tracer.cell = cell
            seeds = self.seeds[cell][:limit]
            episodes = _guarded(
                result, len(seeds), cell, lambda: run_cell(cell, seeds)
            )
            if episodes is not None:
                result.episodes += len(episodes)
                result.runs.append((cell, seeds, episodes))
        return result


class PaperEval(Workload):
    """The paper's cells through the default ``run_episodes`` path."""

    name = "paper-eval"
    warm_up_episodes = 1
    cells = (
        "e2e-nominal",
        "e2e-camera-1.0",
        "modular-camera-1.0",
        "e2e-imu-1.0",
        "pnn0.2-camera-1.0",
    )

    def __init__(
        self, seed: int, reference: Reference, episodes: int = 8
    ) -> None:
        super().__init__(reference)
        rng = np.random.default_rng(seed)
        # run_episodes takes consecutive seeds, as the experiments call it.
        self.seeds = {}
        for cell in self.cells:
            start = _window(rng, reference.steps(cell), episodes)
            self.seeds[cell] = list(range(start, start + episodes))

    @staticmethod
    def run_cell(cell: str, seeds: list[int]):
        spec = CELLS[cell]
        return episodes_mod.run_episodes(
            spec.victim_factory(),
            spec.attacker_factory(),
            n_episodes=len(seeds),
            seed=seeds[0],
        )


class LockstepSweep(Workload):
    """Explicit ``run_episode_batch`` calls at N = 64 per cell."""

    name = "lockstep-sweep"
    #: The e2e victim under camera budgets 0 (nominal), 0.25, 0.5 and 1,
    #: plus the modular victim under camera budget 1.
    cells = (
        "e2e-nominal",
        "e2e-camera-0.25",
        "e2e-camera-0.5",
        "e2e-camera-1.0",
        "modular-camera-1.0",
    )

    def __init__(self, seed: int, reference: Reference, n: int = 64) -> None:
        super().__init__(reference)
        rng = np.random.default_rng(seed)
        self.seeds = {
            cell: _stratified(rng, reference.steps(cell), n)
            for cell in self.cells
        }

    @staticmethod
    def run_cell(cell: str, seeds: list[int], trace=None):
        spec = CELLS[cell]
        attacker_factory = spec.attacker_factory()
        return batch_mod.run_episode_batch(
            spec.victim_factory(),
            attacker=attacker_factory() if attacker_factory else None,
            seeds=seeds,
            trace=trace,
        )


class RecordedEval(LockstepSweep):
    """Lockstep cells recorded to a JSONL trace, then ingested, queried
    and compared through the observability stack."""

    name = "recorded-eval"
    cells = ("e2e-camera-1.0", "modular-camera-1.0")

    def __init__(self, seed: int, reference: Reference, n: int = 64) -> None:
        super().__init__(seed, reference, n)
        work = bootstrap.OUT / "work"
        self.trace_path = work / "recorded-eval.jsonl"
        self.store_path = work / "recorded-eval.sqlite"

    def before_pass(self, index: int) -> None:
        self.trace_path.parent.mkdir(parents=True, exist_ok=True)
        for path in (self.trace_path, self.store_path):
            path.unlink(missing_ok=True)

    def run_pass(self, tracer=None, limit: int | None = None) -> PassResult:
        with TraceWriter(self.trace_path) as writer:
            result = self._run_cells(
                tracer,
                lambda cell, seeds: self.run_cell(cell, seeds, trace=writer),
                limit,
            )
        extra = result.extra
        extra["trace_bytes"] = self.trace_path.stat().st_size

        def ingest_and_query():
            with TelemetryStore(self.store_path) as store:
                extra["events"] = store.ingest_trace(self.trace_path).events
                ((extra["stored_steps"],),) = store.aggregate(
                    "steps", "sum", kind="episode_end"
                )
                ((extra["stored_episodes"],),) = store.aggregate(
                    "steps", "count", kind="episode_end"
                )

        def compare():
            from_trace, prov_a, _ = compare_mod.load_run(self.trace_path)
            from_store, prov_b, _ = compare_mod.load_run(self.store_path)
            extra["comparison"] = compare_mod.compare_runs(
                from_trace,
                from_store,
                provenance_a=prov_a,
                provenance_b=prov_b,
            )

        _guarded(result, 1, "ingest+query", ingest_and_query)
        _guarded(result, 1, "compare", compare)
        return result

    def check(self, result: PassResult) -> None:
        super().check(result)
        extra = result.extra
        episodes = sum(len(seeds) for _, seeds, _ in result.runs)
        steps = sum(r.steps for _, _, results in result.runs for r in results)
        if "stored_steps" in extra and (
            extra["stored_episodes"] != episodes
            or extra["stored_steps"] != steps
        ):
            result.fail(
                1,
                f"store holds {extra['stored_episodes']} episodes / "
                f"{extra['stored_steps']} steps, ran {episodes} / {steps}",
            )
        comparison = extra.get("comparison")
        if comparison is not None:
            same = (
                not comparison.unmatched_a
                and not comparison.unmatched_b
                and len(comparison.cells) == len(result.runs)
                and all(
                    metric.diff == 0.0 and metric.n_a == metric.n_b
                    for cell in comparison.cells
                    for metric in cell.metrics
                )
            )
            if not same:
                result.fail(1, "trace and store disagree in compare_runs")


class AttackerTrain(Workload):
    """Camera-attacker training stages against the e2e victim.

    One pass is one stage. Passes take the training seeds in the order
    ``--seed`` shuffles them to, so the pass time is a median over
    different stages.
    """

    name = "attacker-train"

    def __init__(self, seed: int, reference: Reference) -> None:
        super().__init__(reference)
        rng = np.random.default_rng(seed)
        self.train_seeds = [int(s) for s in rng.permutation(TRAIN_POOL)]
        self.train_seed = self.train_seeds[0]

    def config(self, train_seed: int):
        return train_config(train_seed)

    def before_pass(self, index: int) -> None:
        self.train_seed = self.train_seeds[index % len(self.train_seeds)]

    def warm_up(self) -> None:
        config = self.config(self.train_seed)
        tiny = dataclasses.replace(
            config,
            bc_episodes=1,
            bc=dataclasses.replace(config.bc, epochs=1),
            eval_episodes=1,
            sac_steps=config.sac.batch_size + 2,
            sac=dataclasses.replace(config.sac, actor_delay=0),
        )
        training_mod.train_camera_attacker(registry.e2e_victim, tiny)

    def run_pass(self, tracer=None, limit: int | None = None) -> PassResult:
        result = PassResult()
        if tracer is not None:
            tracer.cell = "train-stage"
        built = [0]

        def victim(world):
            built[0] += 1  # one victim per simulated episode
            return registry.e2e_victim(world)

        config = self.config(self.train_seed)
        trained = _guarded(
            result,
            1,
            "train_camera_attacker",
            lambda: training_mod.train_camera_attacker(victim, config),
        )
        result.episodes = built[0]
        result.extra["train_seed"] = self.train_seed
        result.extra["sac_steps"] = config.sac_steps
        if trained is not None:
            result.extra["train_metrics"] = trained[1]
        return result

    def check(self, result: PassResult) -> None:
        metrics = result.extra.get("train_metrics")
        if metrics is not None:
            problems = self.reference.check_train(
                result.extra["train_seed"], metrics
            )
            result.fail(1 if problems else 0, *problems)

    def per_unit(self, result: PassResult) -> int:
        """Per-layer ``calls`` are per SAC train step on this workload."""
        return result.extra["sac_steps"]

    def headline(self, walls: list[float], passes: list[PassResult]):
        return "train_stage_s", statistics.median(walls), "s"


WORKLOADS = {
    workload.name: workload
    for workload in (PaperEval, LockstepSweep, AttackerTrain, RecordedEval)
}


def require_artifacts() -> None:
    """Abort (``FileNotFoundError``) unless every shipped checkpoint exists."""
    for name in registry.ALL_ARTIFACTS:
        registry.artifact_path(name)
