"""Lockstep batch-episode runner: N seeds per pass through the tick loop.

The vectorized twin of :func:`repro.eval.episodes.run_episode`. One
:class:`~repro.sim.batch.BatchWorld` advances every episode together;
victims and attackers run through their batched actors
(:func:`repro.agents.batch.as_batch_actor`,
:func:`repro.core.attackers.as_batch_attacker`); rewards, deviations and
attack bookkeeping accumulate as masked array expressions. Finished
episodes freeze in place until the slowest seed ends, so per-episode
results match scalar runs of the same seeds (see :mod:`repro.sim.batch`
for the determinism contract). :func:`supports_batch` decides which
configurations have twins.

Trace records carry the same fields and schema as the scalar runner —
only the interleaving differs (ticks from concurrent episodes alternate,
and all ``episode_end`` records follow the loop). Diff by episode id,
e.g. via ``repro.obsv.replay.diff_ticks``.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.agents.batch import as_batch_actor, unbatchable_victim
from repro.agents.e2e.reward import DrivingReward, DrivingRewardConfig
from repro.agents.modular.behavior import BatchBehaviorPlanner
from repro.core.attackers import as_batch_attacker, unbatchable_attacker
from repro.core.injection import ACTIVE_THRESHOLD
from repro.core.rewards import AdversarialReward, AdversarialRewardConfig
from repro.eval.episodes import (
    EpisodeResult,
    VictimFactory,
    finish_episode,
    gap_fields,
    start_episode,
)
from repro.sim.batch import KIND_NONE, make_batch_world
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.telemetry.spans import get_tracer, span
from repro.telemetry.trace import TraceWriter, default_writer


def supports_batch(victim, attacker) -> bool:
    """Whether the lockstep engine has twins for this victim and attacker.

    :func:`run_seeds <repro.eval.episodes.run_seeds>` picks the engine
    with it. It composes :func:`~repro.agents.batch.unbatchable_victim`
    and :func:`~repro.core.attackers.unbatchable_attacker`, which sit
    next to the twin factories that raise their reason as
    :class:`TypeError` when it does not hold.
    """
    return unbatchable_victim(victim) is None and (
        unbatchable_attacker(attacker) is None
    )


def run_episode_batch(
    victim_factory: VictimFactory,
    attacker=None,
    seeds: Sequence[int] = (0,),
    scenario: ScenarioConfig | None = None,
    reward_config: DrivingRewardConfig | None = None,
    adversarial_config: AdversarialRewardConfig | None = None,
    trace: TraceWriter | None = None,
    episode_ids: Sequence[int | str] | None = None,
) -> list[EpisodeResult]:
    """Run one episode per seed in lockstep and measure each.

    Args:
        victim_factory: builds the (scalar) victim; its batched twin
            drives every episode. Raises :class:`TypeError` for agents
            with no batched path.
        attacker: a scalar attacker template (``None`` = nominal); its
            batched twin injects per episode.
        seeds: spawn-jitter seeds, one episode per seed — the same seeds
            passed to :func:`~repro.eval.episodes.run_episode` give the
            same spawns.
        trace: optional JSONL event writer (defaults to the process-wide
            writer); records match the scalar runner's schema.
        episode_ids: ids stamped on trace events (default: the seeds).

    Returns:
        One :class:`~repro.eval.episodes.EpisodeResult` per seed, in
        seed order.
    """
    scenario = scenario or ScenarioConfig()
    seeds = list(seeds)
    if not seeds:
        return []
    batch = make_batch_world(scenario, seeds=seeds)
    n = batch.n

    template = make_world(
        scenario, rng=np.random.default_rng(seeds[0]), road=batch.road
    )
    victim = victim_factory(template)
    actor = as_batch_actor(victim, batch)
    actor.reset(batch)
    battacker = as_batch_attacker(attacker, batch)

    planner = BatchBehaviorPlanner(batch.road)
    planner.reset(batch)
    nominal_reward = DrivingReward(reward_config)
    adversarial_reward = AdversarialReward(adversarial_config)

    trace = trace if trace is not None else default_writer()
    ids = list(episode_ids) if episode_ids is not None else list(seeds)
    if len(ids) != n:
        raise ValueError(f"need one episode id per seed: got {len(ids)}")
    for i in range(n):
        start_episode(trace, scenario, ids[i], seeds[i], victim, battacker)

    nominal_total = np.zeros(n)
    adversarial_total = np.zeros(n)
    deviation_sq_sum = np.zeros(n)
    deviation_max = np.zeros(n)
    deviation_ticks = np.zeros(n, dtype=np.int64)
    first_attack_time = np.full(n, np.nan)
    strike_level = max(
        ACTIVE_THRESHOLD, 0.5 * float(getattr(battacker, "budget", 0.0))
    )
    active_ticks = np.zeros(n, dtype=np.int64)
    activations = np.zeros(n, dtype=np.int64)
    previously_active = np.zeros(n, dtype=bool)
    previous_gap = np.full(n, np.nan)
    lane_width = batch.road.config.lane_width

    tracer = get_tracer()
    batch_path = ""
    batch_start = time.perf_counter()
    with span("episode_batch"):
        if tracer.enabled:
            batch_path = tracer.current_path()
        while not batch.all_done:
            live = ~batch.done
            plan = planner.update(batch)
            steer, thrust = actor.act_batch(batch)
            delta = battacker.deltas(batch)
            result = batch.tick(steer, thrust, steer_delta=delta)

            striking = live & (np.abs(delta) >= strike_level)
            stamp = striking & np.isnan(first_attack_time)
            first_attack_time[stamp] = result.time[stamp] - scenario.dt

            collided = result.collision_kind != KIND_NONE
            nominal_step = nominal_reward.step_batch(batch, plan, collided)
            adversarial_step = adversarial_reward.step_batch(
                batch, delta, result.collision_kind
            )
            nominal_total[live] += nominal_step[live]
            adversarial_total[live] += adversarial_step[live]

            ego_s, ego_d, _ = batch.ego_frenet()
            deviation = (
                np.abs(ego_d - plan.reference_offset(ego_s)) / lane_width
            )
            deviation_sq_sum[live] += deviation[live] ** 2
            deviation_max[live] = np.maximum(
                deviation_max[live], deviation[live]
            )
            deviation_ticks[live] += 1

            is_active = live & (np.abs(delta) >= ACTIVE_THRESHOLD)
            active_ticks[is_active] += 1
            activations[is_active & ~previously_active] += 1
            previously_active[live] = is_active[live]

            if trace is not None:
                gap = batch.nearest_npc_gap() if batch.m else None
                for i in np.flatnonzero(live):
                    fields = dict(
                        episode=ids[i],
                        tick=int(result.step[i]),
                        t=float(result.time[i]),
                        delta=float(delta[i]),
                        x=float(batch.x[i, 0]),
                        y=float(batch.y[i, 0]),
                        yaw=float(batch.yaw[i, 0]),
                        speed=float(batch.speed[i, 0]),
                        reward_nominal=float(nominal_step[i]),
                        reward_adversarial=float(adversarial_step[i]),
                        lateral=float(deviation[i]),
                    )
                    if gap is not None:
                        gap_fields(
                            fields,
                            float(gap[i]),
                            float(previous_gap[i]),
                            scenario.dt,
                        )
                        previous_gap[i] = gap[i]
                    trace.emit("tick", **fields)

    if batch_path:
        # Scalar-path parity: credit each episode its share of the batch
        # wall-clock as a child span, weighted by the steps it ran. The
        # lockstep loop advances all rows together, so per-step cost is
        # the fairest per-episode attribution available without timing
        # each row separately (which the vectorized loop cannot do).
        batch_total = time.perf_counter() - batch_start
        steps = np.maximum(batch.step_count.astype(float), 1.0)
        shares = steps / steps.sum()
        offset = batch_start
        for i in range(n):
            duration = float(batch_total * shares[i])
            # No parent child_total credit: the tick spans inside the
            # batch already credited it, and double-counting would zero
            # out episode_batch's self time in profiles.
            tracer.record(
                f"{batch_path}/episode", duration, start=offset
            )
            offset += duration

    results: list[EpisodeResult] = []
    for i in range(n):
        collision = batch.collision(i)
        time_to_collision = None
        if collision is not None and not np.isnan(first_attack_time[i]):
            time_to_collision = collision.time - float(first_attack_time[i])
        mean_effort = getattr(battacker, "mean_effort", 0.0)
        if isinstance(mean_effort, np.ndarray):
            mean_effort = float(mean_effort[i])
        result = EpisodeResult(
            steps=int(batch.step_count[i]),
            duration=float(batch.time[i]),
            collision=collision,
            passed_npcs=int(batch.passed_npcs[i]),
            nominal_return=float(nominal_total[i]),
            adversarial_return=float(adversarial_total[i]),
            mean_effort=float(mean_effort),
            deviation_rmse=float(
                np.sqrt(deviation_sq_sum[i] / max(deviation_ticks[i], 1))
            ),
            deviation_max=float(deviation_max[i]),
            time_to_collision=time_to_collision,
        )
        finish_episode(
            result, trace, ids[i], int(activations[i]), int(active_ticks[i])
        )
        results.append(result)
    if trace is not None:
        trace.flush()
    return results
