"""Scalar vs batch engine equivalence: the contract behind the speedup.

Every configuration the paper evaluates — nominal and attacked, modular
and end-to-end — must produce the same episodes whether run through
:func:`repro.eval.run_episode` or in lockstep through
:func:`repro.eval.run_episode_batch`. Discrete outcomes (steps,
collisions, passed NPCs) must match exactly; floats must match within
the replay tolerances of :mod:`repro.obsv.replay`, whose diff machinery
does the tick-by-tick comparison here.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.batch import as_batch_actor
from repro.agents.e2e.agent import EndToEndAgent
from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.core.attackers import LearnedAttacker, as_batch_attacker
from repro.core.injection import InjectionChannel, InjectionChannelConfig
from repro.core.observations import (
    CameraAttackObservation,
    ImuAttackObservation,
)
from repro.defense.pnn_defense import SimplexSwitchedAgent
from repro.eval import batch as batch_mod
from repro.eval import episodes as episodes_mod
from repro.eval import run_episode, run_episode_batch, run_episodes
from repro.eval.batch import supports_batch
from repro.eval.episodes import run_seeds
from repro.experiments import registry
from repro.obsv.replay import DEFAULT_TOLERANCES, diff_ticks
from repro.rl.pnn import ProgressivePolicy
from repro.rl.policy import SquashedGaussianPolicy
from repro.sim import make_world
from repro.sim.batch import BatchWorld, make_batch_world
from repro.sim.presets import PRESETS
from repro.telemetry.trace import TraceWriter

pytestmark = pytest.mark.batch

SEEDS = [3, 7, 19, 31]

needs_artifacts = pytest.mark.skipif(
    not (
        registry.has_artifact(registry.E2E_DRIVER)
        and registry.has_artifact(registry.CAMERA_ATTACKER_E2E)
    ),
    reason="shipped artifacts missing; run examples/train_all.py",
)


def modular_victim(world):
    return ModularAgent(world.road)


def _ticks_by_episode(writer: TraceWriter) -> dict:
    ticks: dict = {}
    for event in writer.events:
        if event["event"] == "tick":
            ticks.setdefault(event["episode"], []).append(event)
    return ticks


def assert_equivalent(victim_factory, attacker_factory, seeds=SEEDS):
    scalar_writer = TraceWriter()
    scalar = [
        run_episode(
            victim_factory,
            attacker=attacker_factory(),
            seed=seed,
            trace=scalar_writer,
        )
        for seed in seeds
    ]
    batch_writer = TraceWriter()
    batched = run_episode_batch(
        victim_factory,
        attacker=attacker_factory(),
        seeds=seeds,
        trace=batch_writer,
    )

    assert_same_results(scalar, batched)

    # Tick-by-tick through the replay diff machinery.
    scalar_ticks = _ticks_by_episode(scalar_writer)
    batch_ticks = _ticks_by_episode(batch_writer)
    for seed in seeds:
        assert len(batch_ticks[seed]) == len(scalar_ticks[seed])
        diffs, _, compared = diff_ticks(
            scalar_ticks[seed], batch_ticks[seed], DEFAULT_TOLERANCES
        )
        assert compared > 0
        assert not diffs, f"seed {seed}: {[str(d) for d in diffs[:5]]}"
    return scalar, batched


class TestModularEquivalence:
    def test_nominal(self):
        assert_equivalent(modular_victim, lambda: None)

    def test_oracle_attacked(self):
        scalar, _ = assert_equivalent(
            modular_victim, lambda: OracleAttacker(budget=1.0)
        )
        # The sweep must actually exercise the attacked regime.
        assert any(r.collision is not None for r in scalar)


@needs_artifacts
class TestEndToEndEquivalence:
    def test_nominal(self):
        assert_equivalent(registry.e2e_victim, lambda: None, seeds=SEEDS[:2])

    def test_camera_attacked(self):
        scalar, _ = assert_equivalent(
            registry.e2e_victim,
            lambda: registry.camera_attacker(0.7, victim="e2e"),
            seeds=SEEDS[:2],
        )
        assert any(r.collision is not None for r in scalar)


def assert_same_results(scalar, batched):
    """Discrete outcomes exactly, floats to 1e-9 (the engines' contract)."""
    assert len(batched) == len(scalar)
    for a, b in zip(scalar, batched):
        assert (b.steps, b.passed_npcs) == (a.steps, a.passed_npcs)
        assert (b.collision is None) == (a.collision is None)
        if a.collision is not None:
            assert (b.collision.kind, b.collision.other, b.collision.step) == (
                a.collision.kind, a.collision.other, a.collision.step
            )
        assert (b.time_to_collision is None) == (a.time_to_collision is None)
        for fld in FLOAT_FIELDS:
            want, got = getattr(a, fld), getattr(b, fld)
            if want is not None:
                assert got == pytest.approx(want, abs=1e-9), fld


FLOAT_FIELDS = (
    "duration",
    "nominal_return",
    "adversarial_return",
    "mean_effort",
    "deviation_rmse",
    "deviation_max",
    "time_to_collision",
)


@pytest.fixture()
def engine_calls(monkeypatch):
    """Which episode loop each ``run_episodes`` call reached."""
    calls = []
    for module, name in ((batch_mod, "run_episode_batch"),
                         (episodes_mod, "run_episode")):
        original = getattr(module, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestRunEpisodesBatchRouting:
    def test_batchable_config_runs_lockstep(self, engine_calls):
        batched = run_episodes(
            modular_victim, lambda: OracleAttacker(budget=1.0),
            n_episodes=5, seed=3,
        )
        assert engine_calls == ["run_episode_batch"]
        scalar = [
            run_episode(
                modular_victim, attacker=OracleAttacker(budget=1.0),
                seed=seed,
            )
            for seed in range(3, 8)
        ]
        assert_same_results(scalar, batched)
        # The seed count plays no part in the choice: one seed is a
        # lockstep batch of one.
        engine_calls.clear()
        single = run_episodes(modular_victim, n_episodes=1, seed=3)
        assert engine_calls == ["run_episode_batch"]
        assert_same_results([run_episode(modular_victim, seed=3)], single)

    def test_chunks_cover_every_seed(self, engine_calls, monkeypatch):
        monkeypatch.setattr(episodes_mod, "BATCH_CHUNK", 2)
        factory_calls = []

        def attacker_factory():
            factory_calls.append(1)
            return OracleAttacker(budget=1.0)

        writer = TraceWriter()
        batched = run_episodes(
            modular_victim, attacker_factory, n_episodes=5, seed=11,
            trace=writer,
        )
        # Three chunks (2 + 2 + 1), one fresh attacker each.
        assert engine_calls == ["run_episode_batch"] * 3
        assert len(factory_calls) == 3
        ends = [e["episode"] for e in writer.events
                if e["event"] == "episode_end"]
        assert ends == list(range(11, 16))
        engine_calls.clear()
        scalar = run_seeds(
            lambda world: _OddVictim(world),
            lambda: OracleAttacker(budget=1.0),
            range(11, 16),
        )
        assert engine_calls == ["run_episode"] * 5
        assert_same_results(scalar, batched)

    def test_unsupported_victim_falls_back_to_scalar(self, engine_calls):
        results = run_episodes(
            lambda world: _OddVictim(world), n_episodes=2, seed=0
        )
        assert engine_calls == ["run_episode", "run_episode"]
        reference = run_episodes(modular_victim, n_episodes=2, seed=0)
        assert_same_results(results, reference)

    def test_type_error_mid_batch_propagates_once(self, monkeypatch):
        original = BatchWorld.tick

        def failing_tick(self, *args, **kwargs):
            if self.step_count.max() >= 3:
                raise TypeError("boom inside the lockstep loop")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BatchWorld, "tick", failing_tick)
        writer = TraceWriter()
        with pytest.raises(TypeError, match="boom"):
            run_episodes(
                modular_victim, lambda: OracleAttacker(budget=1.0),
                n_episodes=3, seed=0, trace=writer,
            )
        starts = [e["episode"] for e in writer.events
                  if e["event"] == "episode_start"]
        # No scalar rerun: each episode started exactly once.
        assert starts == [0, 1, 2]


class TestSupportsBatch:
    def test_paper_configs_are_batchable(self):
        world = make_world()
        policy = SquashedGaussianPolicy(4, 2, (8,))
        camera = LearnedAttacker(
            SquashedGaussianPolicy(4, 1, (8,)), CameraAttackObservation()
        )
        for victim in (ModularAgent(world.road), EndToEndAgent(policy)):
            for attacker in (None, OracleAttacker(budget=0.5), camera):
                assert supports_batch(victim, attacker)

    def test_imu_pnn_and_stochastic_configs_stay_scalar(self):
        world = make_world()
        modular = ModularAgent(world.road)
        attacker_policy = SquashedGaussianPolicy(4, 1, (8,))
        imu = LearnedAttacker(attacker_policy, ImuAttackObservation())
        stochastic = LearnedAttacker(
            attacker_policy, CameraAttackObservation(), deterministic=False
        )
        driver = SquashedGaussianPolicy(4, 2, (8,))
        pnn = SimplexSwitchedAgent(
            EndToEndAgent(driver), ProgressivePolicy(driver)
        )
        assert not supports_batch(modular, imu)
        assert not supports_batch(modular, stochastic)
        assert not supports_batch(pnn, None)
        assert not supports_batch(EndToEndAgent(driver, deterministic=False),
                                  None)
        noisy = LearnedAttacker(
            attacker_policy,
            CameraAttackObservation(),
            channel=InjectionChannel(
                InjectionChannelConfig(budget=1.0, noise_std=0.1)
            ),
        )
        assert not supports_batch(modular, noisy)

    def test_subclasses_are_never_batched(self):
        world = make_world()
        assert not supports_batch(_OddVictim(world), None)

        class TunedOracle(OracleAttacker):
            pass

        assert not supports_batch(ModularAgent(world.road), TunedOracle())

    def test_twin_factories_raise_the_predicate_reason(self):
        world = make_world()
        batch = make_batch_world(seeds=[0])
        imu = LearnedAttacker(
            SquashedGaussianPolicy(4, 1, (8,)), ImuAttackObservation()
        )
        with pytest.raises(TypeError, match="CameraAttackObservation"):
            as_batch_attacker(imu, batch)
        with pytest.raises(TypeError, match="_OddVictim"):
            as_batch_actor(_OddVictim(world), batch)


window = st.tuples(st.integers(0, 5_000), st.integers(2, 5))


class TestRunEpisodesProperty:
    @given(
        window,
        st.sampled_from(sorted(PRESETS)),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_run_episodes_matches_per_seed_run_episode(
        self, seeds, preset, budget
    ):
        start, count = seeds
        scenario = PRESETS[preset]()

        def attacker_factory():
            return OracleAttacker(budget=budget) if budget else None

        batched = run_episodes(
            modular_victim, attacker_factory, n_episodes=count, seed=start,
            scenario=scenario,
        )
        scalar = [
            run_episode(
                modular_victim, attacker=attacker_factory(), seed=seed,
                scenario=scenario,
            )
            for seed in range(start, start + count)
        ]
        assert_same_results(scalar, batched)


class _OddVictim(ModularAgent):
    """A subclass with its own ``act`` (no batched twin: runs scalar)."""

    name = "odd"

    def __init__(self, world):
        super().__init__(world.road)

    def act(self, world):
        return super().act(world)
