"""Per-layer timing for the traced run.

:func:`installed` wraps the public functions of each layer with timers
and restores the originals on exit; the program itself is not changed.
Each wrapper records one span: layer, wrapped function, the cell being
run, start, end, parent span and self time (its duration minus the time
of the wrapped spans nested inside it), as a :class:`Span`. A call that re-enters its own
layer (``BevCamera.observe`` calling ``render``) stays inside the outer
span, so ``calls`` counts entries into the layer. Spans stay in memory
until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

#: layer -> the functions it wraps, as ``module:attribute.path``.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.tick": (
        "repro.sim.world:World.tick",
        "repro.sim.batch:BatchWorld.tick",
    ),
    "sensors.bev": (
        "repro.sensors.camera:BevCamera.render",
        "repro.sensors.camera:BevCamera.observe",
        "repro.sensors.camera:BevCamera.render_batch",
        "repro.sensors.camera:BevCamera.observe_batch",
    ),
    "sensors.imu": (
        "repro.core.observations:ImuAttackObservation.observe",
        "repro.sensors.imu:Imu.observe",
    ),
    "rl.infer": (
        "repro.rl.policy:SquashedGaussianPolicy.act",
        "repro.rl.policy:SquashedGaussianPolicy.act_batch",
        "repro.rl.pnn:ProgressivePolicy.act",
    ),
    "agents.act": (
        "repro.agents.e2e.agent:EndToEndAgent.act",
        "repro.agents.modular.agent:ModularAgent.act",
        "repro.agents.batch:BatchPolicyActor.act_batch",
        "repro.agents.batch:BatchModularActor.act_batch",
    ),
    "agents.plan": (
        "repro.agents.modular.behavior:BehaviorPlanner.update",
        "repro.agents.modular.behavior:BatchBehaviorPlanner.update",
    ),
    "core.attack": (
        "repro.core.attackers:NullAttacker.delta",
        "repro.core.attackers:OracleAttacker.delta",
        "repro.core.attackers:LearnedAttacker.delta",
        "repro.core.attackers:BatchNullAttacker.deltas",
        "repro.core.attackers:BatchOracleAttacker.deltas",
        "repro.core.attackers:BatchLearnedAttacker.deltas",
    ),
    "core.rewards": (
        "repro.core.rewards:AdversarialReward.step",
        "repro.core.rewards:AdversarialReward.step_batch",
    ),
    "agents.reward": (
        "repro.agents.e2e.reward:DrivingReward.step",
        "repro.agents.e2e.reward:DrivingReward.step_batch",
    ),
    "defense.switch": ("repro.defense.pnn_defense:SimplexSwitchedAgent.act",),
    "rl.sac_update": ("repro.rl.sac:Sac.update",),
    "rl.replay": (
        "repro.rl.replay:ReplayBuffer.add",
        "repro.rl.replay:ReplayBuffer.sample",
    ),
    "rl.bc_fit": ("repro.rl.bc:BehaviorCloner.fit",),
    "core.env_step": ("repro.core.attack_env:AttackEnv.step",),
    "telemetry.emit": (
        "repro.telemetry.trace:TraceWriter.emit",
        "repro.telemetry.trace:TraceWriter.flush",
    ),
    "obsv.ingest": ("repro.obsv.store:TelemetryStore.ingest_trace",),
    "obsv.query": ("repro.obsv.store:TelemetryStore.aggregate",),
    "obsv.compare": (
        "repro.obsv.compare:load_run",
        "repro.obsv.compare:compare_runs",
    ),
    "eval.loop": (
        "repro.eval.episodes:run_episode",
        "repro.eval.batch:run_episode_batch",
        "repro.eval:run_episode",
        "repro.eval:run_episode_batch",
    ),
}

_MARK = "__perfbench_layer__"


def _resolve(target: str):
    """``(owner, attribute)`` for a ``module:attribute.path`` target."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


def _linear_layers(policy) -> list:
    if hasattr(policy, "column2_layers"):  # progressive (PNN) policy
        trunk = [*policy.column1.trunk.layers, *policy.column2_layers]
    else:
        trunk = list(policy.trunk.layers)
    return [*trunk, policy.mean_head, policy.log_std_head]


def inference_cost(policy, obs) -> tuple[int, int]:
    """Computed ``(flop, bytes)`` of one policy forward on ``obs``.

    From the layer shapes: per linear layer a ``rows x in x out`` matmul
    (2 flop per multiply-add), the bias add and the activation; bytes are
    the float64 weights and biases read plus the layer input read and
    output written.
    """
    rows = 1 if obs.ndim == 1 else obs.shape[0]
    flop = moved = 0
    for layer in _linear_layers(policy):
        fan_in, fan_out = layer.in_dim, layer.out_dim
        flop += rows * fan_out * (2 * fan_in + 2)
        moved += 8 * (fan_in * fan_out + fan_out + rows * (fan_in + fan_out))
    return flop, moved


def _live_rows(args) -> tuple[int, int]:
    """``(live rows, N)`` of the batch a ``BatchWorld.tick`` advances."""
    batch = args[0]
    return int((~batch.done).sum()), int(batch.n)


def _policy_cost(args) -> tuple[int, int]:
    policy, obs = args[:2]
    return inference_cost(policy, obs)


#: Target -> data read from the call's arguments (stored on its span).
PROBES = {
    "repro.sim.batch:BatchWorld.tick": _live_rows,
    "repro.rl.policy:SquashedGaussianPolicy.act": _policy_cost,
    "repro.rl.policy:SquashedGaussianPolicy.act_batch": _policy_cost,
    "repro.rl.pnn:ProgressivePolicy.act": _policy_cost,
}


class Span(NamedTuple):
    id: int
    parent: int  # -1 at the top level
    layer: str
    target: str
    cell: str | None
    start_ns: int
    end_ns: int
    self_ns: int
    #: What the target's probe read from the call's arguments, if any.
    extra: tuple | None


class Tracer:
    """Collects spans from the wrappers while they are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: The cell the workload is running (set by the workload).
        self.cell: str | None = None
        self._stack: list[list] = []  # [span id, layer, child ns]
        self._next = 0

    def wrap(self, layer: str, target: str, fn):
        probe = PROBES.get(target)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = self._next
            self._next += 1
            parent = stack[-1][0] if stack else -1
            extra = probe(args) if probe is not None else None
            frame = [span_id, layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                self.spans.append(
                    Span(
                        span_id, parent, layer, target, self.cell,
                        start, end, end - start - frame[2], extra,
                    )
                )

        setattr(wrapper, _MARK, layer)
        return wrapper

    def write(self, path: Path) -> None:
        """Dump every span as one JSON array per line (``Span`` order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer target for the ``with`` body, then restore."""
    saved = []
    try:
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attribute = _resolve(target)
                own = attribute in vars(owner)
                original = getattr(owner, attribute)
                saved.append((owner, attribute, own, vars(owner).get(attribute)))
                setattr(owner, attribute, tracer.wrap(layer, target, original))
        yield tracer
    finally:
        for owner, attribute, own, original in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def leftover_wrappers() -> list[str]:
    """Targets still carrying a perfbench wrapper (empty when restored)."""
    return [
        target
        for targets in LAYERS.values()
        for target in targets
        if hasattr(getattr(*_resolve(target)), _MARK)
    ]


def layer_metrics(spans: list[Span], wall_s: float, per: int) -> dict:
    """``<layer>.self_us`` / ``.calls`` / ``.share`` for every layer.

    ``self_us`` is the median self time per call, ``calls`` the calls per
    ``per`` (episodes, or train steps) and ``share`` the layer's total
    self time over the traced wall time. Layers a workload never enters
    report 0.
    """
    self_ns: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for span in spans:
        self_ns[span.layer].append(span.self_ns)
    metrics = {}
    for layer, values in self_ns.items():
        metrics[f"{layer}.self_us"] = (
            statistics.median(values) / 1e3 if values else 0.0
        )
        metrics[f"{layer}.calls"] = len(values) / per if per else 0.0
        metrics[f"{layer}.share"] = sum(values) / 1e9 / wall_s
    return metrics


def inference_metrics(spans: list[Span]) -> dict:
    """Computed FLOP figures of ``rl.infer`` (0 when it never ran)."""
    calls = [s for s in spans if s.layer == "rl.infer" and s.extra is not None]
    flop = sum(span.extra[0] for span in calls)
    moved = sum(span.extra[1] for span in calls)
    busy_ns = sum(span.self_ns for span in calls)
    return {
        "rl.infer.flop_per_call": flop / len(calls) if calls else 0.0,
        "rl.infer.mflop_per_s": flop * 1e3 / busy_ns if busy_ns else 0.0,
        "rl.infer.flop_per_byte": flop / moved if moved else 0.0,
    }


def live_row_fractions(spans: list[Span]) -> dict[str, float]:
    """Per cell: live row-ticks / (N x lockstep iterations)."""
    rows: dict[str, list[int]] = {}
    for span in spans:
        if span.layer == "sim.tick" and span.extra is not None:
            live, n = span.extra
            totals = rows.setdefault(span.cell, [0, 0])
            totals[0] += live
            totals[1] += n
    return {cell: live / n for cell, (live, n) in rows.items()}


def engine_cells(spans: list[Span]) -> tuple[int, int]:
    """``(batch cells, scalar cells)``: which episode loop ran each cell.

    A cell that entered both loops (a batch attempt that fell back to the
    scalar path) counts in both.
    """
    batch, scalar = set(), set()
    for span in spans:
        if span.layer == "eval.loop":
            engine = batch if span.target.endswith("_batch") else scalar
            engine.add(span.cell)
    return len(batch), len(scalar)
