"""Scalar vs batch engine equivalence: the contract behind the speedup.

Every configuration the paper evaluates — nominal and attacked, modular
and end-to-end — must produce the same episodes whether run through
:func:`repro.eval.run_episode` or in lockstep through
:func:`repro.eval.run_episode_batch`. Discrete outcomes (steps,
collisions, passed NPCs) must match exactly; floats must match within
the replay tolerances of :mod:`repro.obsv.replay`, whose diff machinery
does the tick-by-tick comparison here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.batch import BatchPolicyActor, as_batch_actor
from repro.agents.e2e.agent import EndToEndAgent
from repro.agents.e2e.observation import DrivingObservation
from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.core.attackers import LearnedAttacker, as_batch_attacker
from repro.core.injection import InjectionChannel, InjectionChannelConfig
from repro.core.observations import (
    CameraAttackObservation,
    ImuAttackObservation,
)
from repro.defense.detector import DetectorSwitchedAgent
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
from repro.sensors import GaussianNoise, ImuConfig
from repro.sensors import camera as camera_mod
from repro.sensors.camera import BevCamera
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


needs_imu_artifacts = pytest.mark.skipif(
    not (
        registry.has_artifact(registry.E2E_DRIVER)
        and registry.has_artifact(registry.IMU_ATTACKER)
    ),
    reason="shipped artifacts missing; run examples/train_all.py",
)

needs_pnn_artifacts = pytest.mark.skipif(
    not (
        registry.has_artifact(registry.E2E_DRIVER)
        and registry.has_artifact(registry.PNN_COLUMN)
        and registry.has_artifact(registry.CAMERA_ATTACKER_E2E)
    ),
    reason="shipped artifacts missing; run examples/train_all.py",
)


def modular_victim(world):
    return ModularAgent(world.road)


def tiny_policy(obs_dim, action_dim, seed):
    """A small random policy with actions of order one (the mean head's
    initial scale of 1e-2 would leave it all but silent)."""
    policy = SquashedGaussianPolicy(
        obs_dim, action_dim, (16,), rng=np.random.default_rng(seed)
    )
    policy.mean_head.weight.data *= 100.0
    return policy


def imu_attacker(policy, budget, include_lateral=False):
    return LearnedAttacker(
        policy,
        ImuAttackObservation(ImuConfig(include_lateral=include_lateral)),
        channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
        name="imu",
    )


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


class TestImuEquivalence:
    """The IMU attacker's lockstep twin against per-seed scalar runs."""

    @needs_imu_artifacts
    @pytest.mark.parametrize("budget", [0.25, 1.0])
    @pytest.mark.parametrize("victim", ["e2e", "modular"])
    def test_shipped_attacker(self, victim, budget):
        victim_factory = (
            registry.e2e_victim if victim == "e2e" else modular_victim
        )
        scalar, _ = assert_equivalent(
            victim_factory, lambda: registry.imu_attacker(budget)
        )
        assert any(r.mean_effort > 0.0 for r in scalar)

    @pytest.mark.parametrize("budget", [0.25, 1.0])
    @pytest.mark.parametrize("victim", ["e2e", "modular"])
    def test_lateral_channel(self, victim, budget):
        if victim == "e2e":
            if not registry.has_artifact(registry.E2E_DRIVER):
                pytest.skip("shipped e2e driver missing")
            victim_factory = registry.e2e_victim
        else:
            victim_factory = modular_victim
        policy = tiny_policy(192, 1, seed=1)
        scalar, _ = assert_equivalent(
            victim_factory,
            lambda: imu_attacker(policy, budget, include_lateral=True),
            seeds=SEEDS[:2],
        )
        assert any(r.mean_effort > 0.0 for r in scalar)


@needs_pnn_artifacts
class TestSimplexEquivalence:
    """The Simplex/PNN victim's twin drives with the switcher's route."""

    @pytest.mark.parametrize("sigma", [0.2, 0.4])
    @pytest.mark.parametrize("budget", [0.0, 0.1, 0.5, 1.0])
    def test_both_routes(self, sigma, budget):
        def victim_factory(world):
            return registry.pnn_victim(world, sigma, budget)

        pnn = victim_factory(make_world())
        assert (pnn.active is pnn.hardened) == (budget > sigma)
        def attacker_factory():
            return registry.camera_attacker(budget) if budget else None

        assert_equivalent(victim_factory, attacker_factory, seeds=SEEDS[:2])

    def test_twin_renders_only_the_active_encoder(self):
        batch = make_batch_world(seeds=[0, 1])
        pnn = registry.pnn_victim(make_world(), 0.2, 1.0)
        actor = as_batch_actor(pnn, batch)
        assert type(actor) is BatchPolicyActor
        assert actor.policy is pnn.hardened.policy
        pnn.inform_budget(0.2)
        assert as_batch_actor(pnn, batch).policy is pnn.original.policy


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

    def test_imu_and_simplex_twins_are_batchable(self):
        world = make_world()
        attacker_policy = SquashedGaussianPolicy(4, 1, (8,))
        driver = SquashedGaussianPolicy(4, 2, (8,))
        pnn = SimplexSwitchedAgent(
            EndToEndAgent(driver), ProgressivePolicy(driver)
        )
        victims = (ModularAgent(world.road), EndToEndAgent(driver), pnn)
        for lateral in (False, True):
            imu = LearnedAttacker(
                attacker_policy,
                ImuAttackObservation(ImuConfig(include_lateral=lateral)),
            )
            for victim in victims:
                assert supports_batch(victim, imu)
        for budget in (0.0, 0.5):  # original and hardened routes
            pnn.inform_budget(budget)
            assert supports_batch(pnn, None)
        assert supports_batch(EndToEndAgent(ProgressivePolicy(driver)), None)

    def test_noisy_detector_and_subclasses_stay_scalar(self):
        world = make_world()
        modular = ModularAgent(world.road)
        attacker_policy = SquashedGaussianPolicy(4, 1, (8,))
        noisy_imu = LearnedAttacker(
            attacker_policy, ImuAttackObservation(noise=GaussianNoise(0.1))
        )
        stochastic = LearnedAttacker(
            attacker_policy, CameraAttackObservation(), deterministic=False
        )
        noisy_channel = LearnedAttacker(
            attacker_policy,
            CameraAttackObservation(),
            channel=InjectionChannel(
                InjectionChannelConfig(budget=1.0, noise_std=0.1)
            ),
        )
        for attacker in (noisy_imu, stochastic, noisy_channel):
            assert not supports_batch(modular, attacker)

        driver = SquashedGaussianPolicy(4, 2, (8,))
        assert not supports_batch(
            EndToEndAgent(driver, deterministic=False), None
        )
        detector = DetectorSwitchedAgent(
            EndToEndAgent(driver), ProgressivePolicy(driver)
        )
        assert not supports_batch(detector, None)

        class TunedSimplex(SimplexSwitchedAgent):
            pass

        class TunedProgressive(ProgressivePolicy):
            pass

        assert not supports_batch(
            TunedSimplex(EndToEndAgent(driver), ProgressivePolicy(driver)),
            None,
        )
        hardened = SimplexSwitchedAgent(
            EndToEndAgent(driver), TunedProgressive(driver)
        )
        hardened.inform_budget(1.0)
        assert not supports_batch(hardened, None)
        assert not supports_batch(
            EndToEndAgent(TunedProgressive(driver)), None
        )

    def test_subclasses_are_never_batched(self):
        world = make_world()
        assert not supports_batch(_OddVictim(world), None)

        class TunedOracle(OracleAttacker):
            pass

        assert not supports_batch(ModularAgent(world.road), TunedOracle())

    def test_twin_factories_raise_the_predicate_reason(self):
        world = make_world()
        batch = make_batch_world(seeds=[0])
        noisy_imu = LearnedAttacker(
            SquashedGaussianPolicy(4, 1, (8,)),
            ImuAttackObservation(noise=GaussianNoise(0.1)),
        )
        with pytest.raises(TypeError, match="GaussianNoise"):
            as_batch_attacker(noisy_imu, batch)
        with pytest.raises(TypeError, match="_OddVictim"):
            as_batch_actor(_OddVictim(world), batch)


window = st.tuples(st.integers(0, 5_000), st.integers(2, 5))


def tiny_victim_factory(kind, budget, sigma):
    """A victim factory for ``kind``; learned victims share tiny random
    weights across episodes, as the shipped ones share their checkpoint."""
    if kind == "modular":
        return modular_victim
    driver = tiny_policy(DrivingObservation().observation_dim, 2, seed=2)
    if kind == "e2e":
        return lambda world: EndToEndAgent(driver)
    hardened = ProgressivePolicy(driver, rng=np.random.default_rng(3))
    hardened.mean_head.weight.data *= 100.0

    def simplex(world):
        agent = SimplexSwitchedAgent(
            EndToEndAgent(driver), hardened, sigma=sigma
        )
        agent.inform_budget(budget)
        return agent

    return simplex


def tiny_attacker_factory(kind, budget):
    if kind == "none" or budget == 0.0:
        return lambda: None
    if kind == "oracle":
        return lambda: OracleAttacker(budget=budget)
    if kind == "camera":
        sensor = CameraAttackObservation
        policy = tiny_policy(sensor().observation_dim, 1, seed=4)
    else:
        lateral = kind == "imu-lateral"
        sensor = lambda: ImuAttackObservation(
            ImuConfig(include_lateral=lateral)
        )
        policy = tiny_policy(sensor().observation_dim, 1, seed=5)
    return lambda: LearnedAttacker(
        policy,
        sensor(),
        channel=InjectionChannel(InjectionChannelConfig(budget=budget)),
    )


class TestRunEpisodesProperty:
    @given(
        window,
        st.sampled_from(sorted(PRESETS)),
        st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        st.sampled_from(["modular", "e2e", "simplex"]),
        st.sampled_from(["none", "oracle", "camera", "imu", "imu-lateral"]),
        st.sampled_from([0.2, 0.4]),
    )
    @settings(max_examples=16, deadline=None)
    def test_run_episodes_matches_per_seed_run_episode(
        self, seeds, preset, budget, victim, attacker, sigma
    ):
        start, count = seeds
        scenario = PRESETS[preset]()
        victim_factory = tiny_victim_factory(victim, budget, sigma)
        attacker_factory = tiny_attacker_factory(attacker, budget)
        assert supports_batch(
            victim_factory(make_world(scenario)), attacker_factory()
        )

        batched = run_episodes(
            victim_factory, attacker_factory, n_episodes=count, seed=start,
            scenario=scenario,
        )
        scalar = [
            run_episode(
                victim_factory, attacker=attacker_factory(), seed=seed,
                scenario=scenario,
            )
            for seed in range(start, start + count)
        ]
        assert_same_results(scalar, batched)


class TestSharedRaster:
    """The victim and the camera attacker observe the same world state in
    each lockstep iteration; only the first of them rasterizes it."""

    @pytest.mark.parametrize("victim", ["e2e", "simplex"])
    def test_one_raster_per_lockstep_iteration(self, victim, monkeypatch):
        monkeypatch.setattr(camera_mod, "_last_frame", None)
        counts = {"render": 0, "tick": 0}
        render_batch, tick = BevCamera.render_batch, BatchWorld.tick

        def counting_render(self, batch):
            counts["render"] += 1
            return render_batch(self, batch)

        def counting_tick(self, *args, **kwargs):
            counts["tick"] += 1
            return tick(self, *args, **kwargs)

        monkeypatch.setattr(BevCamera, "render_batch", counting_render)
        monkeypatch.setattr(BatchWorld, "tick", counting_tick)
        run_episode_batch(
            tiny_victim_factory(victim, 1.0, 0.2),
            tiny_attacker_factory("camera", 1.0)(),
            seeds=SEEDS,
            trace=TraceWriter(),
        )
        assert counts["tick"] > 0
        assert counts["render"] == counts["tick"]


class TestCompaction:
    """Once at most half of the batch is live, ``run_episode_batch``
    gathers the live rows into a smaller batch; results, traces and
    per-row effort must not notice."""

    #: Seeds 0-7 end at mixed lengths in each case, so the batch
    #: compacts at least twice.
    CASES = [
        ("modular", "camera", 0.5),
        ("e2e", "camera", 1.0),
        ("modular", "imu", 1.0),
        ("modular", "oracle", 1.0),
        ("simplex", "none", 0.5),
    ]

    @pytest.mark.parametrize("victim, attacker, budget", CASES)
    def test_compacted_batch_matches_scalar(
        self, victim, attacker, budget, monkeypatch
    ):
        monkeypatch.setattr(camera_mod, "_last_frame", None)
        sizes, renders = [], [0]
        tick, render_batch = BatchWorld.tick, BevCamera.render_batch

        def counting_tick(self, *args, **kwargs):
            sizes.append(self.n)
            return tick(self, *args, **kwargs)

        def counting_render(self, batch):
            renders[0] += 1
            return render_batch(self, batch)

        monkeypatch.setattr(BatchWorld, "tick", counting_tick)
        monkeypatch.setattr(BevCamera, "render_batch", counting_render)
        seeds = list(range(8))
        scalar, batched = assert_equivalent(
            tiny_victim_factory(victim, budget, 0.2),
            tiny_attacker_factory(attacker, budget),
            seeds=seeds,
        )

        # The batch shrank at least twice, each time to at most half,
        # and it stepped fewer rows than the frozen-row loop would have.
        shrinks = [(a, b) for a, b in zip(sizes, sizes[1:]) if a != b]
        assert len(shrinks) >= 2
        assert all(0 < 2 * b <= a for a, b in shrinks)
        assert sizes[0] == len(seeds)
        assert sum(sizes) < len(seeds) * len(sizes)
        longest = max(r.steps for r in scalar)
        assert len(sizes) == longest
        # One raster per lockstep iteration, whatever the batch size.
        uses_camera = attacker == "camera" or victim != "modular"
        assert renders[0] == (len(sizes) if uses_camera else 0)
        if attacker in ("camera", "imu"):
            # Efforts differ per row, so a row mix-up would show.
            assert len({round(r.mean_effort, 9) for r in batched}) > 1

    def test_trace_keeps_seed_order(self):
        writer = TraceWriter()
        seeds = [5, 3, 7, 0, 1, 6, 2, 4]
        run_episode_batch(
            tiny_victim_factory("modular", 1.0, 0.2),
            attacker=OracleAttacker(budget=1.0),
            seeds=seeds,
            trace=writer,
        )
        ends = [e["episode"] for e in writer.events
                if e["event"] == "episode_end"]
        assert ends == seeds
        for seed, ticks in _ticks_by_episode(writer).items():
            assert [t["tick"] for t in ticks] == list(
                range(1, len(ticks) + 1)
            ), seed


class _OddVictim(ModularAgent):
    """A subclass with its own ``act`` (no batched twin: runs scalar)."""

    name = "odd"

    def __init__(self, world):
        super().__init__(world.road)

    def act(self, world):
        return super().act(world)
