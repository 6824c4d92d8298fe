"""Attack policies: the scripted oracle baseline and the learned attacker.

Every attacker implements the :class:`~repro.agents.e2e.env.SteerInjector`
protocol — ``reset(world)`` then ``delta(world, control)`` once per tick —
so victims and evaluation protocols never see attack internals.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.agents.batch import wrong_type
from repro.core.injection import (
    BatchInjectionChannel,
    InjectionChannel,
    InjectionChannelConfig,
)
from repro.core.observations import CameraAttackObservation, ImuAttackObservation
from repro.core.rewards import BETA, _omega, _omega_batch
from repro.rl.policy import SquashedGaussianPolicy
from repro.sensors.base import Sensor
from repro.sim.vehicle import Control
from repro.sim.world import World
from repro.utils.serialization import load_checkpoint, save_checkpoint

#: Hidden widths used by all shipped attack policies.
ATTACKER_HIDDEN = (128, 128)


class NullAttacker:
    """No attack: the epsilon = 0 baseline."""

    name = "none"
    budget = 0.0

    def reset(self, world: World) -> None:
        """Nothing to prepare."""

    def delta(self, world: World, control: Control) -> float:
        return 0.0

    @property
    def mean_effort(self) -> float:
        return 0.0


class OracleAttacker:
    """Geometry-aware scripted attacker (model-based baseline).

    Uses privileged world state: inside the critical window of Section IV-D
    it steers the ego toward the nearest NPC at full budget; outside it
    stays silent. Serves both as the comparison baseline and as the
    behaviour-cloning teacher that warm-starts the learned camera attacker.
    """

    name = "oracle"

    def __init__(
        self,
        budget: float = 1.0,
        beta: float = BETA,
        #: Only act when the target NPC is within this range, meters.
        max_range: float = 25.0,
    ) -> None:
        self.channel = InjectionChannel(InjectionChannelConfig(budget=budget))
        self.beta = float(beta)
        self.max_range = float(max_range)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> float:
        return self.channel.mean_effort

    def reset(self, world: World) -> None:
        self.channel.reset()

    def normalized_action(self, world: World) -> float:
        """The oracle's decision in [-1, 1] (before budget scaling)."""
        npc = world.nearest_npc()
        if npc is None:
            return 0.0
        ego = world.ego
        offset = npc.vehicle.state.position - ego.state.position
        if float(np.linalg.norm(offset)) > self.max_range:
            return 0.0
        omega = _omega(world)
        if omega is None or abs(omega) > self.beta:
            return 0.0
        # Steer toward the target: positive steer turns right (toward
        # negative lateral offsets in the ego frame).
        local = ego.footprint().to_local(npc.vehicle.state.position)
        return -1.0 if local[1] > 0.0 else 1.0

    def delta(self, world: World, control: Control) -> float:
        return self.channel.inject(self.normalized_action(world))


class LearnedAttacker:
    """A DRL attack policy behind a sensor and the injection channel."""

    def __init__(
        self,
        policy: SquashedGaussianPolicy,
        sensor: Sensor,
        channel: InjectionChannel | None = None,
        name: str = "learned",
        deterministic: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.policy = policy
        self.sensor = sensor
        self.channel = channel or InjectionChannel()
        self.name = name
        self.deterministic = deterministic
        self.rng = rng or np.random.default_rng(0)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> float:
        return self.channel.mean_effort

    def with_budget(self, budget: float) -> "LearnedAttacker":
        """A copy of this attacker operating under a different budget."""
        return LearnedAttacker(
            policy=self.policy,
            sensor=self.sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
            name=self.name,
            deterministic=self.deterministic,
            rng=self.rng,
        )

    def reset(self, world: World) -> None:
        self.sensor.reset()
        self.channel.reset()

    def normalized_action(self, world: World) -> float:
        obs = self.sensor.observe(world)
        action = self.policy.act(
            obs, deterministic=self.deterministic, rng=self.rng
        )
        return float(action[0])

    def delta(self, world: World, control: Control) -> float:
        return self.channel.inject(self.normalized_action(world))

    # -- persistence ---------------------------------------------------------------

    def save(self, path: str | Path, extra_meta: dict | None = None) -> Path:
        meta = {
            "kind": f"attacker-{self.name}",
            "obs_dim": self.policy.obs_dim,
            "action_dim": self.policy.action_dim,
            "hidden": list(self.policy.hidden),
            "sensor": type(self.sensor).__name__,
        }
        meta.update(extra_meta or {})
        return save_checkpoint(path, self.policy.state_dict(), meta)

    @classmethod
    def load(
        cls, path: str | Path, budget: float = 1.0, **kwargs
    ) -> "LearnedAttacker":
        """Restore an attacker; the sensor is rebuilt from metadata."""
        arrays, meta = load_checkpoint(path)
        policy = SquashedGaussianPolicy(
            int(meta["obs_dim"]),
            int(meta["action_dim"]),
            tuple(meta.get("hidden", ATTACKER_HIDDEN)),
        )
        policy.load_state_dict(arrays)
        sensor_name = meta.get("sensor", "CameraAttackObservation")
        if sensor_name == "ImuAttackObservation":
            sensor: Sensor = ImuAttackObservation()
            name = "imu"
        else:
            sensor = CameraAttackObservation()
            name = "camera"
        return cls(
            policy,
            sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
            name=meta.get("name", name),
            **kwargs,
        )


# -- batched twins ---------------------------------------------------------------
#
# Each scalar attacker has a lockstep counterpart exposing
# ``deltas(batch) -> [N]`` (called once per tick, before ``batch.tick``).
# Rows that are already done inject 0 and freeze their effort bookkeeping,
# so per-episode statistics match a scalar run of the same seed.


class BatchNullAttacker:
    """Batched epsilon = 0 baseline."""

    name = "none"
    budget = 0.0

    def __init__(self, n: int) -> None:
        self.n = int(n)

    def deltas(self, batch) -> np.ndarray:
        return np.zeros(self.n)

    @property
    def mean_effort(self) -> np.ndarray:
        return np.zeros(self.n)


class BatchOracleAttacker:
    """Vectorized :class:`OracleAttacker`: one geometry pass for N episodes."""

    name = "oracle"

    def __init__(
        self,
        n: int,
        budget: float = 1.0,
        beta: float = BETA,
        max_range: float = 25.0,
    ) -> None:
        self.channel = BatchInjectionChannel(
            InjectionChannelConfig(budget=budget), n=n
        )
        self.beta = float(beta)
        self.max_range = float(max_range)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> np.ndarray:
        return self.channel.mean_effort

    def normalized_actions(self, batch) -> np.ndarray:
        """The oracle's per-episode decisions in [-1, 1]."""
        if batch.m == 0:
            return np.zeros(batch.n)
        rows = np.arange(batch.n)
        j = batch.nearest_npc_index()
        offset = batch.npc_positions[rows, j] - batch.ego_position
        dist = np.sqrt(np.einsum("nj,nj->n", offset, offset))
        omega, _, has_dir = _omega_batch(batch)
        window = (
            (dist <= self.max_range) & has_dir & (np.abs(omega) <= self.beta)
        )
        # Ego-frame lateral offset of the target (footprint().to_local y).
        yaw = batch.yaw[:, 0]
        local_y = -offset[:, 0] * np.sin(yaw) + offset[:, 1] * np.cos(yaw)
        side = np.where(local_y > 0.0, -1.0, 1.0)
        return np.where(window, side, 0.0)

    def deltas(self, batch) -> np.ndarray:
        return self.channel.inject(self.normalized_actions(batch), ~batch.done)


class BatchLearnedAttacker:
    """Batched deterministic rollout of a :class:`LearnedAttacker`.

    Rebuilds the camera observation pipeline with batch support and runs
    the policy through its fused inference plan. Only deterministic
    camera attackers are supported: the IMU trace sensor has no batched
    observation path, and stochastic evaluation is done on the scalar
    path where noise streams are per-episode by construction.
    """

    def __init__(self, attacker: LearnedAttacker, n: int) -> None:
        sensor = attacker.sensor
        self.name = attacker.name
        self.policy = attacker.policy
        self.sensor = CameraAttackObservation(
            camera_config=sensor._stack.inner.config,
            frames=sensor._stack.k,
        )
        self.channel = BatchInjectionChannel(attacker.channel.config, n=n)
        self.plan = self.policy.inference_plan(n)

    @property
    def budget(self) -> float:
        return self.channel.budget

    @property
    def mean_effort(self) -> np.ndarray:
        return self.channel.mean_effort

    def normalized_actions(self, batch) -> np.ndarray:
        obs = self.sensor.observe_batch(batch)
        actions = self.policy.act_batch(
            obs, deterministic=True, plan=self.plan
        )
        return actions[:, 0]

    def deltas(self, batch) -> np.ndarray:
        return self.channel.inject(self.normalized_actions(batch), ~batch.done)


def unbatchable_attacker(attacker) -> str | None:
    """Why ``attacker`` has no lockstep twin, or ``None`` when it has one.

    Types match exactly, as in
    :func:`~repro.agents.batch.unbatchable_victim`. IMU sensors,
    stochastic policies and noisy injection channels stay scalar, where
    each episode draws its own noise stream.
    """
    kind = type(attacker)
    if attacker is None or kind in (NullAttacker, OracleAttacker):
        return None
    if kind is not LearnedAttacker:
        return f"no batched twin for attacker type {kind.__name__}"
    if not attacker.deterministic:
        return "batched rollout supports deterministic policies only"
    reason = wrong_type(
        attacker,
        channel=InjectionChannel,
        sensor=CameraAttackObservation,
        policy=SquashedGaussianPolicy,
    )
    if reason is None and attacker.channel.config.noise_std > 0.0:
        reason = "batched rollout needs a noise-free injection channel"
    return reason


def as_batch_attacker(attacker, batch):
    """The lockstep twin of a scalar attacker, sized for ``batch``.

    Raises :class:`TypeError` with the reason from
    :func:`unbatchable_attacker` for attackers with no batched path (IMU
    sensors, stochastic policies or channels, custom injectors).
    """
    reason = unbatchable_attacker(attacker)
    if reason is not None:
        raise TypeError(reason)
    if attacker is None or type(attacker) is NullAttacker:
        return BatchNullAttacker(batch.n)
    if type(attacker) is OracleAttacker:
        return BatchOracleAttacker(
            batch.n,
            budget=attacker.budget,
            beta=attacker.beta,
            max_range=attacker.max_range,
        )
    return BatchLearnedAttacker(attacker, batch.n)
