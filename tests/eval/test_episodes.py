"""Tests for the canonical episode runner."""

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.eval import EpisodeResult, run_episode, run_episodes
from repro.sim import ScenarioConfig


def modular_victim(world):
    return ModularAgent(world.road)


class ScalarOnlyVictim(ModularAgent):
    """A subclass, so the batch engine never takes it."""

    def __init__(self, world):
        super().__init__(world.road)


class TestRunEpisode:
    def test_nominal_episode_metrics(self):
        result = run_episode(modular_victim, seed=3)
        assert result.steps == 180
        assert result.collision is None
        assert result.passed_npcs == 6
        assert result.nominal_return > 120.0
        assert result.adversarial_return < 5.0
        assert result.mean_effort == 0.0
        assert result.time_to_collision is None
        assert not result.attack_successful
        assert result.deviation_rmse < 0.05

    def test_attacked_episode_metrics(self):
        result = run_episode(
            modular_victim, attacker=OracleAttacker(budget=1.0), seed=3
        )
        assert result.collision is not None
        assert result.mean_effort > 0.5
        assert result.nominal_return < 60.0
        if result.attack_successful:
            assert result.adversarial_return > 0.0
            assert result.time_to_collision is not None
            assert result.time_to_collision > 0.0

    def test_same_seed_is_deterministic(self):
        a = run_episode(modular_victim, seed=11)
        b = run_episode(modular_victim, seed=11)
        assert a.nominal_return == pytest.approx(b.nominal_return)
        assert a.deviation_rmse == pytest.approx(b.deviation_rmse)

    def test_different_seeds_differ(self):
        a = run_episode(modular_victim, seed=11)
        b = run_episode(modular_victim, seed=12)
        assert a.nominal_return != b.nominal_return

    def test_scenario_override(self):
        result = run_episode(
            modular_victim, seed=0, scenario=ScenarioConfig(max_steps=10)
        )
        assert result.steps == 10


class TestRunEpisodes:
    def test_count_and_seeding(self):
        results = run_episodes(modular_victim, None, n_episodes=3, seed=5)
        assert len(results) == 3
        singles = [run_episode(modular_victim, seed=5 + i) for i in range(3)]
        for batch, single in zip(results, singles):
            assert batch.nominal_return == pytest.approx(single.nominal_return)

    def test_attacker_factory_called_per_episode(self):
        calls = []

        def factory():
            attacker = OracleAttacker(budget=0.5)
            calls.append(attacker)
            return attacker

        # Scalar path: one fresh attacker per episode.
        run_episodes(ScalarOnlyVictim, factory, n_episodes=3, seed=0)
        assert len(calls) == 3
        # Lockstep path: one fresh attacker per chunk of seeds.
        calls.clear()
        run_episodes(modular_victim, factory, n_episodes=3, seed=0)
        assert len(calls) == 1
