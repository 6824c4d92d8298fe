"""Tests for the semantic segmentation cameras."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.e2e.observation import POLICY_CAMERA
from repro.sensors import camera as camera_mod
from repro.sensors.camera import (
    BevCamera,
    BevCameraConfig,
    PanoramaCamera,
    PanoramaCameraConfig,
    SemanticClass,
)
from repro.sim import (
    Control,
    Road,
    RoadConfig,
    ScenarioConfig,
    VehicleConfig,
    default_road,
    make_batch_world,
    make_world,
)


class TestBevCamera:
    def test_observation_dim(self):
        camera = BevCamera(BevCameraConfig(rows=10, cols=6))
        assert camera.observation_dim == 60

    def test_observe_normalized(self, quiet_world):
        camera = BevCamera()
        obs = camera.observe(quiet_world)
        assert obs.shape == (camera.observation_dim,)
        assert obs.min() >= 0.0 and obs.max() <= 1.0

    def test_sees_road_under_ego(self, quiet_world):
        camera = BevCamera()
        grid = camera.render(quiet_world)
        road_like = {
            int(SemanticClass.ROAD),
            int(SemanticClass.LANE_MARKING),
            int(SemanticClass.VEHICLE),
        }
        # The center of the grid sits on the roadway.
        assert int(grid[grid.shape[0] // 2, grid.shape[1] // 2]) in road_like

    def test_sees_off_road_at_edges(self, quiet_world):
        camera = BevCamera(BevCameraConfig(half_width=20.0, cols=21))
        grid = camera.render(quiet_world)
        assert int(grid[0, 0]) == int(SemanticClass.OFF_ROAD)
        assert int(grid[0, -1]) == int(SemanticClass.OFF_ROAD)

    def test_sees_npc_ahead(self, quiet_world):
        camera = BevCamera()
        grid = camera.render(quiet_world)
        assert np.any(grid == int(SemanticClass.VEHICLE))

    def test_npc_pixels_move_closer_as_ego_approaches(self, quiet_world):
        camera = BevCamera()
        before = camera.render(quiet_world)
        rows_before = np.where(before == int(SemanticClass.VEHICLE))[0]
        for _ in range(15):
            quiet_world.tick(Control())
        after = camera.render(quiet_world)
        rows_after = np.where(after == int(SemanticClass.VEHICLE))[0]
        assert rows_before.size and rows_after.size
        # Row index grows toward the ego's forward direction; the nearest
        # vehicle pixel appears at a smaller forward distance after closing in.
        assert rows_after.min() <= rows_before.min()

    def test_view_rotates_with_ego(self, quiet_world):
        camera = BevCamera(BevCameraConfig(half_width=20.0, cols=21))
        quiet_world.ego.state.yaw = np.pi / 2.0  # face across the road
        grid = camera.render(quiet_world)
        # Looking across the road, far forward cells are off-road.
        assert int(grid[-1, grid.shape[1] // 2]) == int(SemanticClass.OFF_ROAD)

    def test_lane_markings_present_at_high_resolution(self, quiet_world):
        camera = BevCamera(BevCameraConfig(rows=40, cols=120, half_width=9.0))
        grid = camera.render(quiet_world)
        assert np.any(grid == int(SemanticClass.LANE_MARKING))

    @given(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_road_layer_matches_min_over_boundaries(self, offsets):
        road = default_road()
        boundaries = np.array(
            [
                -road.half_width + i * road.config.lane_width
                for i in range(road.config.n_lanes + 1)
            ]
        )
        # Exact marking edges and the barrier lines join the random draws.
        d = np.concatenate(
            [
                offsets,
                boundaries - 0.2,
                boundaries + 0.2,
                [road.half_width, -road.half_width],
            ]
        )
        nearest = np.min(np.abs(d[:, None] - boundaries[None, :]), axis=1)
        expected = np.where(
            np.abs(d) <= road.half_width,
            np.where(nearest <= 0.2, 2, 1),
            0,
        )
        np.testing.assert_array_equal(
            camera_mod._road_classes(road, d), expected
        )
        np.testing.assert_array_equal(
            camera_mod._road_classes(road, d.reshape(1, -1)),
            expected.reshape(1, -1),
        )

    def test_reset_is_noop(self, quiet_world):
        camera = BevCamera()
        first = camera.observe(quiet_world)
        camera.reset()
        np.testing.assert_array_equal(first, camera.observe(quiet_world))


@pytest.mark.batch
class TestBevCameraBatch:
    def test_render_batch_matches_scalar_grids(self):
        from repro.sim import ScenarioConfig, make_batch_world
        from repro.sim.scenario import make_world as make_scalar

        cfg = ScenarioConfig()
        seeds = [0, 5, 9]
        batch = make_batch_world(cfg, seeds=seeds)
        camera = BevCamera(BevCameraConfig(rows=12, cols=8))
        grids = camera.render_batch(batch)
        assert grids.shape == (len(seeds), 12, 8)
        for i, seed in enumerate(seeds):
            world = make_scalar(cfg, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(grids[i], camera.render(world))

    def test_observe_batch_matches_scalar_after_ticks(self):
        from repro.sim import ScenarioConfig, make_batch_world
        from repro.sim.scenario import make_world as make_scalar

        cfg = ScenarioConfig()
        seeds = [3, 7]
        batch = make_batch_world(cfg, seeds=seeds)
        worlds = [
            make_scalar(cfg, rng=np.random.default_rng(s)) for s in seeds
        ]
        for _ in range(5):
            for world in worlds:
                world.tick(Control(steer=0.2, thrust=0.5))
            batch.tick(np.full(2, 0.2), np.full(2, 0.5))
        camera = BevCamera()
        obs = camera.observe_batch(batch)
        for i, world in enumerate(worlds):
            np.testing.assert_array_equal(obs[i], camera.observe(world))


def uncached(camera, world) -> np.ndarray:
    """The normalized frame straight from the raster, bypassing the memo."""
    if hasattr(world, "n"):
        grids = camera.render_batch(world).reshape(world.n, -1)
    else:
        grids = camera.render(world).ravel()
    return grids.astype(np.float64) / float(max(SemanticClass))


#: One edit of a world: (kind, vehicle, amount). Kinds: shift one pose
#: coordinate of the vehicle, resize it (scalar worlds only) or tick the
#: whole world.
edits = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "yaw", "resize", "tick"]),
        st.integers(0, 6),
        st.floats(-4.0, 4.0).filter(lambda amount: amount != 0.0),
    ),
    min_size=1,
    max_size=8,
)


class TestSharedFrame:
    """``observe``/``observe_batch`` return one memoized frame per world
    state: exact against a fresh raster, shared, and read-only."""

    @given(
        seed=st.one_of(st.none(), st.integers(0, 2**16)),
        sequence=edits,
    )
    @settings(max_examples=25, deadline=None)
    def test_scalar_observe_equals_fresh_render(self, seed, sequence):
        rng = None if seed is None else np.random.default_rng(seed)
        world = make_world(rng=rng)
        victim, attacker = BevCamera(POLICY_CAMERA), BevCamera(POLICY_CAMERA)
        for kind, index, amount in sequence:
            vehicles = [world.ego] + [npc.vehicle for npc in world.npcs]
            vehicle = vehicles[index % len(vehicles)]
            if kind == "tick":
                if not world.done:
                    world.tick(Control(steer=amount / 4.0, thrust=0.5))
            elif kind == "resize":
                vehicle.config = dataclasses.replace(
                    vehicle.config,
                    length=vehicle.config.length + abs(amount),
                    width=vehicle.config.width + abs(amount) / 2.0,
                )
            else:
                scale = 0.2 if kind == "yaw" else 1.0
                setattr(
                    vehicle.state,
                    kind,
                    getattr(vehicle.state, kind) + scale * amount,
                )
            expected = uncached(victim, world)
            np.testing.assert_array_equal(victim.observe(world), expected)
            np.testing.assert_array_equal(attacker.observe(world), expected)

    @given(
        seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
        sequence=edits,
    )
    @settings(max_examples=25, deadline=None)
    def test_batch_observe_equals_fresh_render(self, seeds, sequence):
        batch = make_batch_world(ScenarioConfig(), seeds=seeds)
        victim, attacker = BevCamera(POLICY_CAMERA), BevCamera(POLICY_CAMERA)
        for kind, index, amount in sequence:
            row, col = index % batch.n, index % (1 + batch.m)
            if kind == "tick":
                if not batch.all_done:
                    batch.tick(
                        np.full(batch.n, amount / 4.0), np.full(batch.n, 0.5)
                    )
            elif kind != "resize":  # one vehicle size per batch
                scale = 0.2 if kind == "yaw" else 1.0
                getattr(batch, kind)[row, col] += scale * amount
            expected = uncached(victim, batch)
            np.testing.assert_array_equal(victim.observe_batch(batch), expected)
            np.testing.assert_array_equal(
                attacker.observe_batch(batch), expected
            )

    def test_equal_configs_share_one_read_only_frame(self, quiet_world):
        victim = BevCamera(POLICY_CAMERA)
        attacker = BevCamera(dataclasses.replace(POLICY_CAMERA))
        frame = victim.observe(quiet_world)
        assert attacker.observe(quiet_world) is frame
        assert not frame.flags.writeable
        with pytest.raises(ValueError):
            frame[0] = 1.0

        batch = make_batch_world(ScenarioConfig(), seeds=[1, 2])
        frames = victim.observe_batch(batch)
        assert attacker.observe_batch(batch) is frames
        assert not frames.flags.writeable

    def test_different_inputs_never_share(self, quiet_world):
        policy = BevCamera(POLICY_CAMERA)
        wider = BevCamera(dataclasses.replace(POLICY_CAMERA, half_width=9.0))
        frame = policy.observe(quiet_world)
        other = wider.observe(quiet_world)
        assert other is not frame
        assert not np.array_equal(other, frame)
        assert policy.observe(quiet_world) is not frame

        # An equal road that is another object is another input.
        twin = make_world(rng=None, road=Road.straight(RoadConfig()))
        first = policy.observe(quiet_world)
        assert policy.observe(twin) is not first
        np.testing.assert_array_equal(policy.observe(twin), first)

    def test_batch_vehicle_size_is_part_of_the_key(self):
        seeds = [4, 8]
        camera = BevCamera(POLICY_CAMERA)
        small = make_batch_world(ScenarioConfig(), seeds=seeds)
        large = make_batch_world(
            ScenarioConfig(vehicle=VehicleConfig(length=9.0, width=3.0)),
            seeds=seeds,
        )
        np.testing.assert_array_equal(small.x, large.x)
        frame = camera.observe_batch(small)
        assert camera.observe_batch(large) is not frame
        np.testing.assert_array_equal(
            camera.observe_batch(large), uncached(camera, large)
        )

    def test_repeat_observe_renders_once(self, quiet_world, monkeypatch):
        monkeypatch.setattr(camera_mod, "_last_frame", None)
        calls = []
        render = BevCamera.render
        monkeypatch.setattr(
            BevCamera,
            "render",
            lambda self, world: calls.append(1) or render(self, world),
        )
        camera = BevCamera(POLICY_CAMERA)
        camera.observe(quiet_world)
        camera.observe(quiet_world)
        assert len(calls) == 1
        quiet_world.npcs[0].vehicle.state.x += 0.5  # moved outside tick
        camera.observe(quiet_world)
        assert len(calls) == 2


class TestPanoramaCamera:
    def test_paper_resolution(self):
        camera = PanoramaCamera()
        assert camera.config.height == 84
        assert camera.config.width == 420
        assert camera.observation_dim == 84 * 420

    def test_render_shape_and_classes(self, quiet_world):
        camera = PanoramaCamera(PanoramaCameraConfig(height=21, width=60))
        image = camera.render(quiet_world)
        assert image.shape == (21, 60)
        assert set(np.unique(image)) <= {0, 1, 2, 3}

    def test_sees_vehicle_ahead(self, quiet_world):
        camera = PanoramaCamera(PanoramaCameraConfig(height=42, width=210))
        image = camera.render(quiet_world)
        assert np.any(image == int(SemanticClass.VEHICLE))

    def test_forward_column_is_road(self, quiet_world):
        camera = PanoramaCamera(PanoramaCameraConfig(height=21, width=61))
        image = camera.render(quiet_world)
        center = image[:, image.shape[1] // 2]
        assert int(SemanticClass.ROAD) in set(center.tolist()) | {
            int(SemanticClass.VEHICLE)
        }
