"""Training pipelines for the attack policies (Sections IV-D and IV-E).

* **Camera attacker** — behaviour-cloned from the scripted oracle (the
  model-based baseline), then refined with SAC on the adversarial reward
  ``R_adv`` in the black-box adversarial MDP. The refined policy is kept
  only if it improves the mean cumulative adversarial reward.
* **IMU attacker** — 'learning-from-teacher' (Section IV-E): the camera
  policy drives the attack while the student records IMU traces and the
  teacher's actions; the student is distilled supervised, then optionally
  refined with SAC on ``R_adv^IMU`` (which adds the ``p_se`` discrepancy
  term against the teacher).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.attack_env import AttackEnv, VictimFactory
from repro.core.attackers import (
    ATTACKER_HIDDEN,
    LearnedAttacker,
    OracleAttacker,
)
from repro.core.injection import InjectionChannel, InjectionChannelConfig
from repro.core.observations import CameraAttackObservation, ImuAttackObservation
from repro.eval.episodes import run_episodes
from repro.eval.metrics import success_rate
from repro.rl.bc import BcConfig, BehaviorCloner
from repro.rl.loop import sac_loop
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import SacConfig
from repro.sim.config import ScenarioConfig
from repro.sim.scenario import make_world
from repro.telemetry.log import get_logger

log = get_logger("core.training")


@dataclass
class AttackTrainConfig:
    """Budgets and hyper-parameters for attacker training."""

    bc_episodes: int = 30
    bc: BcConfig = field(default_factory=lambda: BcConfig(epochs=30))
    sac_steps: int = 6_000
    sac: SacConfig = field(
        default_factory=lambda: SacConfig(
            hidden=ATTACKER_HIDDEN,
            batch_size=128,
            buffer_capacity=40_000,
            start_steps=0,
            actor_lr=2e-5,
            critic_lr=3e-4,
            alpha=0.005,
            autotune_alpha=False,
            update_every=2,
            actor_delay=1_500,
        )
    )
    #: Attack budget used during training (evaluation sweeps re-scale it).
    budget: float = 1.0
    #: Independent BC fits (different init seeds); the best by evaluated
    #: adversarial return is kept. Behaviour cloning of the bang-bang
    #: oracle is cheap but init-sensitive, so restarts buy robustness.
    bc_restarts: int = 3
    eval_episodes: int = 8
    seed: int = 0


def collect_demonstrations(
    teacher,
    sensor,
    victim_factory: VictimFactory,
    n_episodes: int,
    rng: np.random.Generator,
    scenario: ScenarioConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Teacher attack rollouts recorded through the student's ``sensor``.

    The teacher (the scripted oracle for the camera attacker, the camera
    attacker for the IMU student) *executes* its attack, so the recorded
    observations carry the attack-induced motion the student must learn
    to recognize. Returns ``(observations, normalized_actions)`` where
    actions are the teacher's decisions in ``[-1, 1]``.
    """
    scenario = scenario or ScenarioConfig()
    observations: list[np.ndarray] = []
    actions: list[float] = []
    for _ in range(n_episodes):
        world = make_world(scenario, rng=rng)
        victim = victim_factory(world)
        victim.reset(world)
        teacher.reset(world)
        sensor.reset()
        while not world.done:
            observations.append(sensor.observe(world))
            action = teacher.normalized_action(world)
            actions.append(action)
            control = victim.act(world)
            world.tick(control, steer_delta=teacher.channel.inject(action))
    return np.asarray(observations), np.asarray(actions)[:, None]


def evaluate_attacker(
    attacker: LearnedAttacker,
    victim_factory: VictimFactory,
    n_episodes: int = 8,
    seed: int = 5_000,
) -> dict[str, float]:
    """Success rate and mean adversarial return over fresh episodes."""
    results = run_episodes(
        victim_factory,
        attacker_factory=lambda: attacker,
        n_episodes=n_episodes,
        seed=seed,
    )
    return {
        "success_rate": success_rate(results),
        "mean_adversarial_return": float(
            np.mean([r.adversarial_return for r in results])
        ),
        "mean_nominal_return": float(
            np.mean([r.nominal_return for r in results])
        ),
    }


def _make_attacker(
    policy: SquashedGaussianPolicy, sensor, budget: float, name: str
) -> LearnedAttacker:
    return LearnedAttacker(
        policy,
        sensor,
        channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
        name=name,
    )


def _fit_best_of(
    observations: np.ndarray,
    actions: np.ndarray,
    sensor,
    victim_factory: VictimFactory,
    config: AttackTrainConfig,
    rng: np.random.Generator,
    label: str,
    progress: bool,
) -> tuple[SquashedGaussianPolicy, dict[str, float]]:
    """Fit ``bc_restarts`` policies on the dataset and keep the best one
    by evaluated mean adversarial return (ties broken by success rate)."""
    best_policy: SquashedGaussianPolicy | None = None
    best_metrics: dict[str, float] | None = None
    for restart in range(max(config.bc_restarts, 1)):
        policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, ATTACKER_HIDDEN, rng=rng
        )
        losses = BehaviorCloner(policy, config.bc, rng=rng).fit(
            observations, actions
        )
        attacker = _make_attacker(policy, sensor, config.budget, label)
        metrics = evaluate_attacker(
            attacker, victim_factory, config.eval_episodes
        )
        (log.info if progress else log.debug)(
            "bc.restart", label=label, restart=restart,
            loss=float(losses[-1]), **metrics,
        )
        better = best_metrics is None or (
            metrics["mean_adversarial_return"],
            metrics["success_rate"],
        ) > (
            best_metrics["mean_adversarial_return"],
            best_metrics["success_rate"],
        )
        if better:
            best_policy, best_metrics = policy, metrics
    return best_policy, best_metrics


def train_camera_attacker(
    victim_factory: VictimFactory,
    config: AttackTrainConfig | None = None,
    progress: bool = False,
) -> tuple[LearnedAttacker, dict[str, float]]:
    """Full camera-attacker pipeline; returns (attacker, eval metrics)."""
    config = config or AttackTrainConfig()
    rng = np.random.default_rng(config.seed)

    observations, actions = collect_demonstrations(
        OracleAttacker(budget=1.0), CameraAttackObservation(),
        victim_factory, config.bc_episodes, rng,
    )
    sensor = CameraAttackObservation()
    policy, metrics = _fit_best_of(
        observations,
        actions,
        sensor,
        victim_factory,
        config,
        rng,
        label="bc-attack",
        progress=progress,
    )
    attacker = _make_attacker(policy, sensor, config.budget, "camera")

    if config.sac_steps > 0:
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        env = AttackEnv(
            victim_factory,
            CameraAttackObservation(),
            budget=config.budget,
            rng=rng,
        )
        sac_loop(env, policy, config.sac, config.sac_steps, rng,
                 loop="sac-attack", progress=progress)
        refined = _make_attacker(policy, sensor, config.budget, "camera")
        refined_metrics = evaluate_attacker(
            refined, victim_factory, config.eval_episodes
        )
        (log.info if progress else log.debug)(
            "sac.eval", loop="sac-attack", **refined_metrics
        )
        if (
            refined_metrics["mean_adversarial_return"]
            >= metrics["mean_adversarial_return"]
        ):
            metrics = refined_metrics
        else:
            policy.load_state_dict(before)
    return attacker, metrics


def train_imu_attacker(
    teacher: LearnedAttacker,
    victim_factory: VictimFactory,
    config: AttackTrainConfig | None = None,
    progress: bool = False,
) -> tuple[LearnedAttacker, dict[str, float]]:
    """Learning-from-teacher pipeline for the covert IMU attacker."""
    config = config or AttackTrainConfig()
    rng = np.random.default_rng(config.seed + 1)

    observations, actions = collect_demonstrations(
        teacher, ImuAttackObservation(), victim_factory, config.bc_episodes,
        rng,
    )
    sensor = ImuAttackObservation()
    policy, metrics = _fit_best_of(
        observations,
        actions,
        sensor,
        victim_factory,
        config,
        rng,
        label="distill-imu",
        progress=progress,
    )
    attacker = _make_attacker(policy, sensor, config.budget, "imu")

    if config.sac_steps > 0:
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        env = AttackEnv(
            victim_factory,
            ImuAttackObservation(),
            budget=config.budget,
            rng=rng,
            teacher=teacher,
        )
        sac_loop(env, policy, config.sac, config.sac_steps, rng,
                 loop="sac-imu", progress=progress)
        refined = _make_attacker(policy, sensor, config.budget, "imu")
        refined_metrics = evaluate_attacker(
            refined, victim_factory, config.eval_episodes
        )
        (log.info if progress else log.debug)(
            "sac.eval", loop="sac-imu", **refined_metrics
        )
        if (
            refined_metrics["mean_adversarial_return"]
            >= metrics["mean_adversarial_return"]
        ):
            metrics = refined_metrics
        else:
            policy.load_state_dict(before)
    return attacker, metrics
