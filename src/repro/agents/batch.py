"""Lockstep twins of the driving agents for the batch-episode engine.

Each scalar :class:`~repro.agents.base.DrivingAgent` has a batched actor
exposing ``reset(batch)`` / ``act_batch(batch) -> (steer[N], thrust[N])``.
The actors replicate the scalar control law per row — same planner state
machine, same PID arithmetic, same policy forward — so a batched episode
tracks its scalar counterpart to numerical tolerance (see
:mod:`repro.sim.batch` for the determinism contract).

Use :func:`as_batch_actor` to derive the twin from a configured scalar
agent; unsupported agents raise :class:`TypeError` rather than silently
degrading (:func:`unbatchable_victim` says why).
"""

from __future__ import annotations

import math

import numpy as np

from repro.agents.e2e.agent import EndToEndAgent
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.modular.agent import ModularAgent, ModularAgentConfig
from repro.agents.modular.behavior import BatchBehaviorPlanner
from repro.agents.modular.pid import BatchPid
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim.config import EPSILON_MECH


class BatchModularActor:
    """Vectorized plan-then-track pipeline: one update covers N episodes."""

    name = "modular"

    def __init__(
        self,
        road,
        n: int,
        config: ModularAgentConfig | None = None,
        dt: float = 0.1,
    ) -> None:
        self.config = config or ModularAgentConfig()
        self.planner = BatchBehaviorPlanner(road, self.config.behavior)
        self._lateral = BatchPid(self.config.lateral_gains, dt, n)
        self._longitudinal = BatchPid(self.config.longitudinal_gains, dt, n)

    def reset(self, batch) -> None:
        self.planner.reset(batch)
        self._lateral.reset()
        self._longitudinal.reset()

    def act_batch(self, batch) -> tuple[np.ndarray, np.ndarray]:
        plan = self.planner.update(batch)
        ego_s, _, _ = batch.ego_frenet()
        speed = batch.speed[:, 0]

        cfg = self.config
        lookahead = np.clip(
            cfg.lookahead_gain * speed, cfg.lookahead_min, cfg.lookahead_max
        )
        target_s = ego_s + lookahead
        target_d = plan.reference_offset(target_s)
        target_xy, _ = batch.road.to_world_batch(target_s, target_d)
        dx = target_xy[:, 0] - batch.x[:, 0]
        dy = target_xy[:, 1] - batch.y[:, 0]
        bearing = np.arctan2(dy, dx) - batch.yaw[:, 0]
        bearing = (bearing + math.pi) % (2.0 * math.pi) - math.pi
        # Positive steer turns right; a target to the left needs negative.
        steer = self._lateral.step(-bearing)
        thrust = self._longitudinal.step(plan.target_speed - speed)
        return steer, thrust


class BatchPolicyActor:
    """Batched deterministic rollout of an end-to-end driving policy."""

    name = "end-to-end"

    def __init__(self, agent: EndToEndAgent, n: int) -> None:
        template = agent.observation
        self.policy = agent.policy
        self.observation = DrivingObservation(
            camera_config=template._stack.inner.config,
            frames=template._stack.k,
            reference_speed=template.reference_speed,
        )
        self.plan = self.policy.inference_plan(n)

    def reset(self, batch) -> None:
        self.observation.reset()

    def act_batch(self, batch) -> tuple[np.ndarray, np.ndarray]:
        obs = self.observation.observe_batch(batch)
        actions = self.policy.act_batch(obs, deterministic=True, plan=self.plan)
        steer = np.clip(actions[:, 0], -EPSILON_MECH, EPSILON_MECH)
        thrust = np.clip(actions[:, 1], -EPSILON_MECH, EPSILON_MECH)
        return steer, thrust


def wrong_type(owner, **expected: type) -> str | None:
    """The first attribute of ``owner`` not exactly of its expected type."""
    for attribute, kind in expected.items():
        got = type(getattr(owner, attribute))
        if got is not kind:
            return (
                f"batched rollout needs {attribute} of type {kind.__name__},"
                f" got {got.__name__}"
            )
    return None


def unbatchable_victim(victim) -> str | None:
    """Why ``victim`` has no lockstep twin, or ``None`` when it has one.

    Types match exactly, so a subclass that overrides ``act()`` always
    runs on the scalar path.
    """
    kind = type(victim)
    if kind is ModularAgent:
        return None
    if kind is not EndToEndAgent:
        return f"no batched twin for agent type {kind.__name__}"
    if not victim.deterministic:
        return "batched rollout supports deterministic policies only"
    return wrong_type(
        victim, policy=SquashedGaussianPolicy, observation=DrivingObservation
    )


def as_batch_actor(victim, batch):
    """The lockstep twin of a scalar driving agent, sized for ``batch``.

    Raises :class:`TypeError` with the reason from
    :func:`unbatchable_victim` for agents with no batched path (custom
    agents, stochastic policies, progressive columns).
    """
    reason = unbatchable_victim(victim)
    if reason is not None:
        raise TypeError(reason)
    if type(victim) is ModularAgent:
        return BatchModularActor(
            batch.road, batch.n, config=victim.config, dt=victim._lateral.dt
        )
    return BatchPolicyActor(victim, batch.n)
