"""Tests for replay verification (trace fidelity proofs)."""

import pytest

from repro.agents.modular import ModularAgent
from repro.core.attackers import NullAttacker, OracleAttacker
from repro.eval.episodes import run_episode, run_episodes
from repro.eval.recorder import record_episode
from repro.experiments import registry
from repro.obsv import ReplayError, replay_episode, split_episodes
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.obsv


def record(seed=3, attacker=None, runner=run_episode):
    writer = TraceWriter()
    runner(
        lambda w: ModularAgent(w.road),
        attacker=attacker,
        seed=seed,
        trace=writer,
        episode_id=seed,
    )
    return split_episodes(writer.events)[0]


class TestReplayFidelity:
    def test_oracle_episode_replays_exactly(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()
        assert report.diffs == []
        assert report.end_diffs == []
        assert report.steps_recorded == report.steps_replayed
        assert report.fields_compared > 0
        assert max(report.max_error.values()) <= 1e-9

    def test_nominal_episode_replays_exactly(self):
        episode = record(seed=11, attacker=NullAttacker())
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()

    def test_recorder_trace_replays_through_runner(self):
        # record_episode is run_episode with a trajectory observer, so it
        # emits the runner's full tick fields; replay reproduces them all.
        episode = record(
            seed=4, attacker=OracleAttacker(budget=1.0), runner=record_episode
        )
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()

    def test_doctored_trace_is_flagged(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.ticks[10]["x"] += 0.5  # falsify one recorded pose
        report = replay_episode(episode)
        assert not report.ok
        assert any(
            d.fld == "x" and d.tick == episode.ticks[10]["tick"]
            for d in report.diffs
        )
        assert "MISMATCH" in report.to_markdown()

    def test_uniform_tolerance_can_mask_small_doctoring(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.ticks[10]["x"] += 1e-4
        assert not replay_episode(episode).ok
        assert replay_episode(episode, tolerance=1e-2).ok

    def test_tolerance_env_override(self, monkeypatch):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.ticks[5]["speed"] += 1e-4
        monkeypatch.setenv("REPRO_OBSV_TOLERANCE", "0.01")
        assert replay_episode(episode).ok


@pytest.mark.skipif(
    not all(
        registry.has_artifact(name)
        for name in (
            registry.E2E_DRIVER,
            registry.PNN_COLUMN,
            registry.CAMERA_ATTACKER_E2E,
        )
    ),
    reason="shipped artifacts missing; run examples/train_all.py",
)
@pytest.mark.parametrize("sigma, budget", [(0.2, 0.5), (0.4, 0.0)])
def test_lockstep_pnn_cell_replays(sigma, budget):
    """A Fig. 7 cell recorded by the lockstep engine replays by name: the
    PNN victim is rebuilt with the episode's recorded budget."""
    writer = TraceWriter()
    run_episodes(
        lambda world: registry.pnn_victim(world, sigma, budget),
        (lambda: registry.camera_attacker(budget)) if budget else None,
        n_episodes=3,
        seed=0,
        trace=writer,
    )
    episodes = split_episodes(writer.events)
    assert len(episodes) == 3
    for episode in episodes:
        assert episode.victim == f"pnn(sigma={sigma})"
        report = replay_episode(episode)
        assert report.ok, report.to_markdown()


class TestReplayErrors:
    def test_missing_start_event(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.start = None
        with pytest.raises(ReplayError):
            replay_episode(episode)

    def test_custom_scenario_is_rejected(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.start["scenario"] = "custom"
        with pytest.raises(ReplayError, match="custom scenario"):
            replay_episode(episode)

    def test_unknown_victim_and_attacker(self):
        episode = record(attacker=OracleAttacker(budget=1.0))
        episode.start["victim"] = "mystery-agent"
        with pytest.raises(ReplayError, match="not replayable"):
            replay_episode(episode)
        episode.start["victim"] = "modular"
        episode.start["attacker"] = "mystery-attack"
        with pytest.raises(ReplayError, match="not replayable"):
            replay_episode(episode)
