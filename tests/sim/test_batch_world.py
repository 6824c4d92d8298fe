"""The SoA batch world against the scalar reference simulator."""

import numpy as np
import pytest

from repro.sim import ScenarioConfig, make_batch_world
from repro.sim.batch import KIND_NONE, BatchWorld
from repro.sim.presets import PRESETS
from repro.sim.scenario import make_world
from repro.sim.vehicle import Control

pytestmark = pytest.mark.batch

SEEDS = [0, 11, 29, 47]


def _scripted_controls(seed: int, ticks: int):
    rng = np.random.default_rng(1000 + seed)
    return rng.uniform(-1.0, 1.0, size=(ticks, 3))  # steer, thrust, delta


class TestSpawnParity:
    def test_spawns_match_scalar_bitwise(self):
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        for i, seed in enumerate(SEEDS):
            world = make_world(cfg, rng=np.random.default_rng(seed))
            vehicles = [world.ego] + [npc.vehicle for npc in world.npcs]
            for col, vehicle in enumerate(vehicles):
                s = vehicle.state
                assert batch.x[i, col] == s.x
                assert batch.y[i, col] == s.y
                assert batch.yaw[i, col] == s.yaw
                assert batch.speed[i, col] == s.speed

    def test_n_and_m_shapes(self):
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        assert batch.n == len(SEEDS)
        assert batch.m == cfg.n_npcs
        assert batch.x.shape == (len(SEEDS), 1 + cfg.n_npcs)


class TestTickParity:
    def test_scripted_rollout_matches_scalar(self):
        """Full trajectory, collisions and bookkeeping match per row."""
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        worlds = [
            make_world(cfg, rng=np.random.default_rng(s)) for s in SEEDS
        ]
        scripts = [_scripted_controls(s, 200) for s in SEEDS]

        for t in range(200):
            if batch.all_done:
                break
            for i, world in enumerate(worlds):
                if world.done:
                    continue
                steer, thrust, delta = scripts[i][t]
                world.tick(Control(steer, thrust), steer_delta=delta)
            controls = np.array(
                [scripts[i][t] for i in range(len(SEEDS))]
            )
            batch.tick(
                controls[:, 0], controls[:, 1], steer_delta=controls[:, 2]
            )

        for i, world in enumerate(worlds):
            state = world.ego.state
            assert batch.x[i, 0] == state.x
            assert batch.y[i, 0] == state.y
            assert batch.yaw[i, 0] == state.yaw
            assert batch.speed[i, 0] == state.speed
            assert batch.step_count[i] == world.step_count
            assert batch.done[i] == world.done
            assert batch.passed_npcs[i] == world.passed_npcs
            collision = batch.collision(i)
            if world.collisions:
                assert collision is not None
                assert collision.kind is world.collisions[0].kind
                assert collision.other == world.collisions[0].other
                assert collision.step == world.collisions[0].step
            else:
                assert collision is None

    def test_done_rows_freeze(self):
        cfg = ScenarioConfig(max_steps=5)
        batch = make_batch_world(cfg, seeds=[1, 2])
        for _ in range(5):
            batch.tick(np.zeros(2), np.zeros(2))
        assert batch.all_done
        frozen = batch.x.copy()
        with pytest.raises(RuntimeError):
            batch.tick(np.ones(2), np.ones(2))
        assert np.array_equal(batch.x, frozen)

    def test_tick_result_reports_this_tick_only(self):
        cfg = ScenarioConfig(max_steps=30)
        batch = make_batch_world(cfg, seeds=SEEDS)
        saw_collision = np.zeros(batch.n, dtype=bool)
        while not batch.all_done:
            result = batch.tick(
                np.full(batch.n, 0.3), np.full(batch.n, 1.0)
            )
            new = result.collision_kind != KIND_NONE
            # A collision is reported exactly once, on its tick.
            assert not np.any(new & saw_collision)
            saw_collision |= new


class TestImuTrace:
    """``BatchWorld.tick`` records the ego IMU samples of ``Vehicle``."""

    CHANNELS = ("accel_long", "accel_lat", "yaw_rate")

    def _rollout(self, cfg, seeds, ticks=200):
        """Lockstep and scalar runs of the same scripted controls; yields
        ``(batch, worlds, live)`` after every tick."""
        batch = make_batch_world(cfg, seeds=seeds)
        worlds = [
            make_world(cfg, rng=np.random.default_rng(s)) for s in seeds
        ]
        scripts = [_scripted_controls(s, ticks) for s in seeds]
        for t in range(ticks):
            if batch.all_done:
                return
            live = ~batch.done
            controls = np.array([script[t] for script in scripts])
            for i, world in enumerate(worlds):
                if not world.done:
                    steer, thrust, delta = controls[i]
                    world.tick(Control(steer, thrust), steer_delta=delta)
            batch.tick(
                controls[:, 0], controls[:, 1], steer_delta=controls[:, 2]
            )
            yield batch, worlds, live

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_samples_match_vehicle_trace_bitwise(self, preset):
        cfg = PRESETS[preset]()
        ticks = 0
        for batch, worlds, live in self._rollout(cfg, SEEDS):
            ticks += 1
            for i in np.flatnonzero(live):
                trace = worlds[i].ego.imu_trace
                assert len(trace) == cfg.substeps
                for channel in self.CHANNELS:
                    recorded = getattr(batch, f"imu_{channel}")[i]
                    want = [getattr(sample, channel) for sample in trace]
                    assert recorded.tolist() == want, (channel, i)
        assert ticks > 1

    def test_starts_empty_and_frozen_rows_keep_last_samples(self):
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        for channel in self.CHANNELS:
            assert getattr(batch, f"imu_{channel}").shape == (len(SEEDS), 0)
        last = {}
        for batch, _, live in self._rollout(cfg, SEEDS):
            for channel in self.CHANNELS:
                samples = getattr(batch, f"imu_{channel}")
                assert samples.shape == (len(SEEDS), cfg.substeps)
                for i in np.flatnonzero(~live):
                    assert samples[i].tolist() == last[channel, i]
                for i in np.flatnonzero(live):
                    last[channel, i] = samples[i].tolist()
        assert batch.done.any()


class TestQueries:
    def test_frenet_and_gap_match_scalar(self):
        cfg = ScenarioConfig()
        batch = make_batch_world(cfg, seeds=SEEDS)
        worlds = [
            make_world(cfg, rng=np.random.default_rng(s)) for s in SEEDS
        ]
        s_arr, d_arr, _ = batch.ego_frenet()
        gaps = batch.nearest_npc_gap()
        for i, world in enumerate(worlds):
            s, d, _ = world.road.to_frenet(world.ego.state.position)
            assert s_arr[i] == pytest.approx(s, abs=1e-12)
            assert d_arr[i] == pytest.approx(d, abs=1e-12)
            nearest = world.nearest_npc()
            gap = float(
                np.linalg.norm(
                    nearest.vehicle.state.position - world.ego.state.position
                )
            )
            assert gaps[i] == pytest.approx(gap, abs=1e-9)

    def test_frenet_is_shared_read_only_until_tick(self):
        batch = make_batch_world(ScenarioConfig(), seeds=SEEDS)
        ego, npc = batch.ego_frenet(), batch.npc_frenet()
        assert batch.ego_frenet() is ego and batch.npc_frenet() is npc
        fresh = batch.road.frenet_batch(batch.ego_position)
        for got, want in zip(ego, fresh):
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 0.0
        pts = np.stack([batch.x[:, 1:].ravel(), batch.y[:, 1:].ravel()], 1)
        assert np.array_equal(
            npc[1], batch.road.frenet_batch(pts)[1].reshape(batch.n, batch.m)
        )
        batch.tick(np.zeros(batch.n), np.ones(batch.n))
        moved = batch.ego_frenet()
        assert moved is not ego
        assert np.array_equal(
            moved[0], batch.road.frenet_batch(batch.ego_position)[0]
        )
        batch.take(np.array([1]))
        assert batch.ego_frenet()[0].shape == (1,)
        assert batch.npc_frenet()[0].shape == (1, batch.m)

    def test_explicit_state_constructor(self):
        cfg = ScenarioConfig()
        road = make_world(cfg).road
        n, m = 2, 1
        batch = BatchWorld(
            road,
            cfg,
            x=np.full((n, 1 + m), 30.0),
            y=np.zeros((n, 1 + m)),
            yaw=np.zeros((n, 1 + m)),
            speed=np.full((n, 1 + m), 5.0),
            npc_lane=np.zeros((n, m), dtype=np.int64),
            npc_target_speed=np.full((n, m), 6.0),
        )
        assert batch.n == n and batch.m == m
        assert not batch.all_done


class TestTake:
    def test_taken_rows_continue_like_the_full_batch(self):
        """Row ``k`` after ``take(rows)`` is the old row ``rows[k]``: same
        state and bookkeeping, and the same trajectory from then on."""
        cfg = ScenarioConfig()
        full = make_batch_world(cfg, seeds=SEEDS)
        part = make_batch_world(cfg, seeds=SEEDS)
        scripts = np.stack([_scripted_controls(s, 60) for s in SEEDS], axis=1)
        keep = np.array([3, 0])
        for t, controls in enumerate(scripts):
            if t == 20:
                part.take(keep)
            rows = keep if t >= 20 else slice(None)
            steer, thrust, delta = controls.T
            full.tick(steer, thrust, steer_delta=delta)
            part.tick(steer[rows], thrust[rows], steer_delta=delta[rows])
            if full.done[keep].all():
                break
        assert part.n == len(keep)
        for name in ("x", "y", "yaw", "speed", "steer_act", "thrust_act",
                     "step_count", "time", "done", "passed",
                     "collision_kind", "collision_other", "collision_step",
                     "collision_time", "imu_accel_long", "imu_yaw_rate"):
            assert np.array_equal(
                getattr(part, name), getattr(full, name)[keep]
            ), name
