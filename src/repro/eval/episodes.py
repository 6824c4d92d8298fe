"""The canonical episode runner used by training, experiments and benches.

Runs one victim agent (modular or end-to-end) under an optional attacker
and records every metric the paper reports: nominal shaped driving reward,
cumulative adversarial reward, collision outcome, NPCs passed, trajectory
deviation from the privileged reference path, attack effort, and the time
from attack initiation to collision.

:func:`run_seeds` (and :func:`run_episodes` on top of it) is the one
engine dispatcher: it sends configurations with batched twins through
the lockstep engine of :mod:`repro.eval.batch` and everything else
through the scalar :func:`run_episode` loop, which also serves as the
reference oracle for the batch engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.agents.base import DrivingAgent
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BehaviorPlanner
from repro.core.attackers import NullAttacker
from repro.core.injection import ACTIVE_THRESHOLD
from repro.core.rewards import AdversarialReward, AdversarialRewardConfig
from repro.sim.collision import Collision, CollisionKind
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.sim.world import World
from repro.telemetry.metrics import get_registry
from repro.telemetry.provenance import stamp_provenance
from repro.telemetry.spans import span
from repro.telemetry.trace import TraceWriter, default_writer

VictimFactory = Callable[[World], DrivingAgent]


@dataclass(frozen=True)
class EpisodeResult:
    """Everything measured in one evaluation episode."""

    steps: int
    duration: float
    collision: Collision | None
    passed_npcs: int
    nominal_return: float
    adversarial_return: float
    #: Mean |delta| over active attack steps (Fig. 5 / 7 x-axis).
    mean_effort: float
    #: RMSE of lateral deviation from the reference path, normalized by
    #: the lane width (Fig. 5 / 7 y-axis).
    deviation_rmse: float
    #: Largest instantaneous normalized deviation.
    deviation_max: float
    #: Seconds from the first injected perturbation to the collision
    #: (None when no attack was injected or no collision happened).
    time_to_collision: float | None

    @property
    def side_collision(self) -> bool:
        return (
            self.collision is not None
            and self.collision.kind is CollisionKind.SIDE
        )

    @property
    def attack_successful(self) -> bool:
        """The attacker's definition of success: a side collision."""
        return self.side_collision


#: Seeds advanced together per lockstep pass when :func:`run_seeds` picks
#: the batch engine.
BATCH_CHUNK = 64


def start_episode(
    trace: TraceWriter | None,
    scenario: ScenarioConfig,
    episode_id: int | str,
    seed: int,
    victim,
    attacker,
) -> None:
    """Stamp provenance and emit ``episode_start`` (both engines)."""
    if trace is None:
        return
    stamp_provenance(trace, scenario)
    trace.emit(
        "episode_start",
        episode=episode_id,
        seed=seed,
        victim=str(getattr(victim, "name", "agent")),
        attacker=str(getattr(attacker, "name", "none")),
        budget=float(getattr(attacker, "budget", 0.0)),
        scenario="default" if scenario == ScenarioConfig() else "custom",
    )


def gap_fields(
    fields: dict, gap: float, previous_gap: float, dt: float
) -> None:
    """Add ``npc_gap`` to a tick record, and ``ttc`` when the gap is closing.

    ``previous_gap`` is NaN on an episode's first tick.
    """
    fields["npc_gap"] = gap
    closing = (previous_gap - gap) / dt
    if closing > 1e-6:
        fields["ttc"] = gap / closing


def finish_episode(
    result: EpisodeResult,
    trace: TraceWriter | None,
    episode_id: int | str,
    activations: int,
    active_ticks: int,
) -> None:
    """Count a finished episode and emit its ``episode_end`` (both engines)."""
    registry = get_registry()
    registry.counter("episodes_total").inc()
    if activations:
        registry.counter("attack_activations_total").inc(activations)
    if active_ticks:
        registry.counter("attack_active_ticks_total").inc(active_ticks)
    registry.histogram("episode_steps").observe(result.steps)
    registry.histogram("episode_nominal_return").observe(result.nominal_return)
    registry.histogram("episode_adversarial_return").observe(
        result.adversarial_return
    )
    if trace is not None:
        collision = result.collision
        trace.emit(
            "episode_end",
            episode=episode_id,
            steps=result.steps,
            duration=result.duration,
            collision=collision.kind.name if collision is not None else None,
            collision_with=collision.other if collision is not None else None,
            nominal_return=result.nominal_return,
            adversarial_return=result.adversarial_return,
            passed_npcs=result.passed_npcs,
        )


def run_episode(
    victim_factory: VictimFactory,
    attacker=None,
    seed: int = 0,
    scenario: ScenarioConfig | None = None,
    reward_config: DrivingRewardConfig | None = None,
    adversarial_config: AdversarialRewardConfig | None = None,
    trace: TraceWriter | None = None,
    episode_id: int | str | None = None,
    observer: Callable[[World, float], None] | None = None,
) -> EpisodeResult:
    """Run one full episode and measure it.

    The scalar reference loop: the lockstep engine
    (:func:`repro.eval.batch.run_episode_batch`) must reproduce it, and
    configurations without a batched twin run here.

    Args:
        victim_factory: builds the victim for the fresh world.
        attacker: a ``SteerInjector`` (``None`` = nominal driving).
        seed: controls spawn jitter; equal seeds give equal worlds.
        trace: optional JSONL event writer receiving ``episode_start`` /
            per-``tick`` / ``episode_end`` records; defaults to the
            process-wide writer installed via ``REPRO_TRACE`` (usually
            none). Telemetry is read-only: it never changes the episode.
        episode_id: id stamped on trace events (defaults to ``seed``).
        observer: called as ``observer(world, delta)`` on the fresh world
            (``delta`` 0) and after every tick; it must not mutate the
            world.
    """
    scenario = scenario or ScenarioConfig()
    world = make_world(scenario, rng=np.random.default_rng(seed))
    victim = victim_factory(world)
    victim.reset(world)
    attacker = attacker if attacker is not None else NullAttacker()
    attacker.reset(world)

    planner = BehaviorPlanner(world.road)
    planner.reset(world)
    nominal_reward = DrivingReward(reward_config)
    adversarial_reward = AdversarialReward(adversarial_config)

    trace = trace if trace is not None else default_writer()
    episode_id = episode_id if episode_id is not None else seed
    start_episode(trace, scenario, episode_id, seed, victim, attacker)
    if observer is not None:
        observer(world, 0.0)

    nominal_total = 0.0
    adversarial_total = 0.0
    deviations: list[float] = []
    first_attack_time: float | None = None
    result = None
    # The attack *strike* begins when the injection reaches half the
    # attacker's budget; smaller values are lurk-phase dithering.
    strike_level = max(
        ACTIVE_THRESHOLD, 0.5 * float(getattr(attacker, "budget", 0.0))
    )
    active_ticks = 0
    activations = 0
    previously_active = False
    previous_gap = math.nan

    with span("episode"):
        while not world.done:
            plan = planner.update(world)
            control = victim.act(world)
            delta = float(attacker.delta(world, control))
            result = world.tick(control, steer_delta=delta)
            if observer is not None:
                observer(world, delta)
            if abs(delta) >= strike_level and first_attack_time is None:
                first_attack_time = result.time - scenario.dt

            nominal_step = nominal_reward.step(
                world, plan, result.collision
            ).total
            adversarial_step = adversarial_reward.step(
                world, delta, result.collision
            ).total
            nominal_total += nominal_step
            adversarial_total += adversarial_step
            ego_s, ego_d, _ = world.road.to_frenet(world.ego.state.position)
            deviation = abs(ego_d - plan.reference_offset(ego_s))
            deviations.append(deviation / world.road.config.lane_width)

            is_active = abs(delta) >= ACTIVE_THRESHOLD
            if is_active:
                active_ticks += 1
                if not previously_active:
                    activations += 1
            previously_active = is_active

            if trace is not None:
                state = world.ego.state
                fields = dict(
                    episode=episode_id,
                    tick=result.step,
                    t=result.time,
                    delta=delta,
                    x=state.x,
                    y=state.y,
                    yaw=state.yaw,
                    speed=state.speed,
                    reward_nominal=nominal_step,
                    reward_adversarial=adversarial_step,
                    lateral=deviations[-1],
                )
                nearest = world.nearest_npc()
                if nearest is not None:
                    gap = float(
                        np.linalg.norm(
                            nearest.vehicle.state.position
                            - world.ego.state.position
                        )
                    )
                    gap_fields(fields, gap, previous_gap, scenario.dt)
                    previous_gap = gap
                trace.emit("tick", **fields)

    time_to_collision = None
    if result.collision is not None and first_attack_time is not None:
        time_to_collision = result.collision.time - first_attack_time

    episode = EpisodeResult(
        steps=result.step,
        duration=result.time,
        collision=result.collision,
        passed_npcs=world.passed_npcs,
        nominal_return=nominal_total,
        adversarial_return=adversarial_total,
        mean_effort=float(getattr(attacker, "mean_effort", 0.0)),
        deviation_rmse=float(np.sqrt(np.mean(np.square(deviations)))),
        deviation_max=float(np.max(deviations)),
        time_to_collision=time_to_collision,
    )
    finish_episode(episode, trace, episode_id, activations, active_ticks)
    if trace is not None:
        trace.flush()
    return episode


def run_seeds(
    victim_factory: VictimFactory,
    attacker_factory: Callable[[], object] | None,
    seeds: Iterable[int],
    **kwargs,
) -> list[EpisodeResult]:
    """Run one episode per seed on the engine the configuration supports.

    The only engine dispatcher: when
    :func:`~repro.eval.batch.supports_batch` holds for a victim built on
    the first seed's world and a fresh attacker, the seeds run in
    lockstep chunks of :data:`BATCH_CHUNK` through
    :func:`~repro.eval.batch.run_episode_batch`, otherwise one by one
    through :func:`run_episode` (``kwargs`` go to either). Results match
    either way (discrete outcomes exactly, floats to 1e-9), and an error
    raised by either engine propagates.

    ``attacker_factory`` is called once per scalar episode or lockstep
    chunk, so attackers with internal state start fresh each time.
    """
    from repro.eval import batch as batch_engine

    seeds = list(seeds)
    if not seeds:
        return []
    make_attacker = attacker_factory or (lambda: None)
    attacker = make_attacker()
    batched = batch_engine.supports_batch(
        victim_factory(
            make_world(
                kwargs.get("scenario") or ScenarioConfig(),
                rng=np.random.default_rng(seeds[0]),
            )
        ),
        attacker,
    )
    step = BATCH_CHUNK if batched else 1
    results: list[EpisodeResult] = []
    for start in range(0, len(seeds), step):
        if start:
            attacker = make_attacker()
        if batched:
            results += batch_engine.run_episode_batch(
                victim_factory,
                attacker=attacker,
                seeds=seeds[start : start + step],
                **kwargs,
            )
        else:
            results.append(
                run_episode(
                    victim_factory, attacker=attacker, seed=seeds[start],
                    **kwargs,
                )
            )
    return results


def run_episodes(
    victim_factory: VictimFactory,
    attacker_factory: Callable[[], object] | None = None,
    n_episodes: int = 10,
    seed: int = 0,
    **kwargs,
) -> list[EpisodeResult]:
    """Run ``n_episodes`` with consecutive seeds (see :func:`run_seeds`)."""
    return run_seeds(
        victim_factory,
        attacker_factory,
        range(seed, seed + n_episodes),
        **kwargs,
    )
