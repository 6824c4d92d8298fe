"""Smoke tests for the SAC-based refinement paths (tiny step budgets).

These exercise the paper-literal SAC stages — driver refinement, attacker
refinement, and SAC adversarial fine-tuning — which the shipped artifacts
only use when ``--sac`` is passed, so that the code paths stay healthy.
"""

import numpy as np
import pytest

from repro.agents.e2e import EndToEndAgent
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.e2e.training import (
    DriverTrainConfig,
    evaluate_driver,
    refine_driver_sac,
    train_driver,
)
from repro.agents.modular import ModularAgent
from repro.core import (
    CameraAttackObservation,
    InjectionChannel,
    InjectionChannelConfig,
    LearnedAttacker,
)
from repro.core.attack_env import AttackEnv
from repro.defense import FinetuneConfig, adversarial_finetune_sac
from repro.rl.bc import BcConfig
from repro.rl.loop import sac_loop
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import SacConfig
from repro.sim.config import ScenarioConfig
from repro.telemetry.trace import TraceWriter

#: A scenario whose ego speed is not the encoder's 16 m/s default.
SLOW = ScenarioConfig(ego_speed=12.0, max_steps=25)


def tiny_sac(**overrides):
    defaults = dict(
        hidden=(16, 16),
        batch_size=16,
        buffer_capacity=2_000,
        start_steps=0,
        update_every=4,
    )
    defaults.update(overrides)
    return SacConfig(**defaults)


def fresh_driver_policy():
    return SquashedGaussianPolicy(
        DrivingObservation().observation_dim, 2, (16, 16),
        np.random.default_rng(2),
    )


@pytest.fixture(scope="module")
def tiny_driver():
    config = DriverTrainConfig(
        bc_episodes=2, bc=BcConfig(epochs=3), sac_steps=0, eval_episodes=1
    )
    agent, _ = train_driver(config)
    return agent


class TestDriverSacRefinement:
    def test_refine_driver_sac_runs(self, tiny_driver):
        config = DriverTrainConfig(sac_steps=60, eval_episodes=1)
        config.sac = tiny_sac(hidden=tiny_driver.policy.hidden)
        policy, metrics = refine_driver_sac(
            tiny_driver.policy, config, np.random.default_rng(0)
        )
        assert policy is tiny_driver.policy  # refined in place
        assert "mean_return" in metrics

    def test_train_steps_carry_episode(self):
        config = DriverTrainConfig(sac_steps=60, eval_episodes=1)
        config.sac = tiny_sac()
        trace = TraceWriter()
        refine_driver_sac(
            fresh_driver_policy(), config, np.random.default_rng(0),
            trace=trace, scenario=SLOW,
        )
        steps = [e for e in trace.events if e["event"] == "train_step"]
        assert len(steps) == 60
        assert all(e["loop"] == "sac-driver" for e in steps)
        # Finished-episode count: the record that ends episode k still
        # carries k, the next step carries k + 1.
        for prev, cur in zip(steps, steps[1:]):
            assert cur["episode"] == prev["episode"] + int(prev["done"])
        assert steps[0]["episode"] == 0 and steps[-1]["episode"] >= 2

    def test_evaluated_with_training_observation_scale(self):
        config = DriverTrainConfig(sac_steps=20, eval_episodes=1)
        config.sac = tiny_sac()
        policy, metrics = refine_driver_sac(
            fresh_driver_policy(), config, np.random.default_rng(0),
            trace=TraceWriter(), scenario=SLOW,
        )
        agent = EndToEndAgent(
            policy, observation=DrivingObservation(reference_speed=12.0)
        )
        assert metrics == evaluate_driver(
            agent, 1, seed=10_000, scenario=SLOW
        )

    def test_train_driver_with_sac_selection(self):
        config = DriverTrainConfig(
            bc_episodes=2,
            bc=BcConfig(epochs=2),
            sac_steps=40,
            eval_episodes=1,
        )
        config.sac = tiny_sac(hidden=(128, 128))
        agent, metrics = train_driver(config)
        assert isinstance(agent, EndToEndAgent)


class TestAttackerSacRefinement:
    def test_sac_refine_runs_in_attack_env(self):
        env = AttackEnv(
            lambda w: ModularAgent(w.road),
            CameraAttackObservation(),
            budget=1.0,
            rng=np.random.default_rng(1),
        )
        policy = SquashedGaussianPolicy(
            env.observation_dim, 1, (16, 16), np.random.default_rng(2)
        )
        sac_loop(env, policy, tiny_sac(), 50, np.random.default_rng(3),
                 loop="sac-attack")
        # Policy still produces valid actions afterwards.
        action = policy.act(np.zeros(env.observation_dim))
        assert abs(float(action[0])) <= 1.0


class TestSacAdversarialFinetune:
    def test_adversarial_finetune_sac_runs(self, tiny_driver):
        sensor = CameraAttackObservation()
        attack_policy = SquashedGaussianPolicy(
            sensor.observation_dim, 1, (8,), np.random.default_rng(4)
        )
        attacker = LearnedAttacker(
            attack_policy,
            sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=1.0)),
        )
        sac_config = DriverTrainConfig(sac_steps=40, eval_episodes=1)
        sac_config.sac = tiny_sac(hidden=tiny_driver.policy.hidden)
        tuned = adversarial_finetune_sac(
            tiny_driver,
            attacker,
            FinetuneConfig(rho=0.5, episodes=1),
            sac_config=sac_config,
        )
        assert isinstance(tuned, EndToEndAgent)
        assert "sac" in tuned.name

    def test_returned_agent_uses_scenario_speed(self, tiny_driver):
        sensor = CameraAttackObservation()
        attacker = LearnedAttacker(
            SquashedGaussianPolicy(
                sensor.observation_dim, 1, (8,), np.random.default_rng(4)
            ),
            sensor,
            channel=InjectionChannel(InjectionChannelConfig(budget=1.0)),
        )
        sac_config = DriverTrainConfig(sac_steps=10, eval_episodes=1)
        sac_config.sac = tiny_sac(hidden=tiny_driver.policy.hidden)
        tuned = adversarial_finetune_sac(
            tiny_driver, attacker, FinetuneConfig(rho=0.5, episodes=1),
            sac_config=sac_config, scenario=SLOW,
        )
        assert tuned.observation.reference_speed == SLOW.ego_speed
