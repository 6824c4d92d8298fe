"""The collision broad phase against brute-force separating-axis tests.

Both engines skip the separating-axis test (SAT) for vehicle pairs whose
centres are farther apart than :func:`repro.sim.collision.contact_reach`.
These properties place NPCs at centre distances within 1e-6 m of the
circumradius sum, often corner to corner, and check that culling never
changes an outcome: the result must equal ``OrientedBox.intersects`` on
every pair plus classification, NPCs in spawn order, barrier last.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.batch import (
    KIND_BARRIER,
    KIND_FRONT,
    KIND_NONE,
    KIND_REAR,
    KIND_SIDE,
    BatchWorld,
)
from repro.sim.collision import (
    CollisionKind,
    check_barrier,
    check_vehicle_pair,
    classify_vehicle_collision,
    contact_reach,
)
from repro.sim.config import ScenarioConfig, VehicleConfig
from repro.sim.road import default_road
from repro.sim.vehicle import Vehicle, VehicleState

CONFIG = VehicleConfig()
REACH = 2.0 * math.hypot(CONFIG.length / 2.0, CONFIG.width / 2.0)
DIAGONAL = math.atan2(CONFIG.width, CONFIG.length)

_CODES = {
    CollisionKind.SIDE: KIND_SIDE,
    CollisionKind.FRONT: KIND_FRONT,
    CollisionKind.REAR: KIND_REAR,
}

angles = st.floats(-math.pi, math.pi)


@st.composite
def npc_pose(draw, x0, y0, yaw0):
    """An NPC pose around the ego's circumradius sum.

    Half the draws put the NPC along one of the ego's diagonals with a
    parallel or opposite heading, so the two boxes meet corner to corner
    when the distance is exactly the circumradius sum.
    """
    if draw(st.booleans()):
        corner = draw(st.sampled_from([0, 1, 2, 3]))
        direction = yaw0 + (
            DIAGONAL, math.pi - DIAGONAL, math.pi + DIAGONAL, -DIAGONAL
        )[corner]
        yaw = yaw0 + draw(st.sampled_from([0.0, math.pi]))
    else:
        direction, yaw = draw(angles), draw(angles)
    distance = REACH + draw(st.floats(-1e-6, 1e-6))
    return (
        x0 + distance * math.cos(direction),
        y0 + distance * math.sin(direction),
        yaw,
    )


@st.composite
def scenes(draw, npcs=3):
    """An ego pose (near the road, so the barrier sometimes matters) and
    ``npcs`` NPC poses around it."""
    x0 = draw(st.floats(50.0, 400.0))
    y0 = draw(st.floats(-9.0, 9.0))
    yaw0 = draw(angles)
    return (x0, y0, yaw0), [
        draw(npc_pose(x0, y0, yaw0)) for _ in range(npcs)
    ]


def vehicle(name, pose, config=CONFIG):
    x, y, yaw = pose
    return Vehicle(name, config, VehicleState(x=x, y=y, yaw=yaw))


def brute_force_pair(ego, other):
    if not ego.footprint().intersects(other.footprint()):
        return None
    return classify_vehicle_collision(ego, other)


def sat_margin(ego, other) -> float:
    """The smallest overlap over the four SAT axes (negative: apart)."""
    a, b = ego.footprint(), other.footprint()
    ca, cb = a.corners(), b.corners()
    margins = []
    for axis in np.concatenate([a.axes(), b.axes()]):
        pa, pb = ca @ axis, cb @ axis
        margins.append(min(pa.max() - pb.min(), pb.max() - pa.min()))
    return min(margins)


def batch_of(road, config, ego_pose, npc_poses):
    poses = np.array([ego_pose, *npc_poses])
    m = len(npc_poses)
    return BatchWorld(
        road,
        config,
        x=poses[None, :, 0],
        y=poses[None, :, 1],
        yaw=poses[None, :, 2],
        speed=np.zeros((1, 1 + m)),
        npc_lane=np.zeros((1, m), dtype=int),
        npc_target_speed=np.zeros((1, m)),
    )


class TestBroadPhase:
    @given(scenes())
    @settings(max_examples=300, deadline=None)
    def test_scalar_pair_check_matches_brute_force(self, scene):
        ego_pose, npc_poses = scene
        ego = vehicle("ego", ego_pose)
        for j, pose in enumerate(npc_poses):
            npc = vehicle(f"npc_{j}", pose)
            assert check_vehicle_pair(ego, npc) == brute_force_pair(ego, npc)

    @given(scenes())
    @settings(max_examples=300, deadline=None)
    def test_batch_collisions_match_brute_force(self, scene):
        ego_pose, npc_poses = scene
        road = default_road()
        ego = vehicle("ego", ego_pose)
        npcs = [vehicle(f"npc_{j}", p) for j, p in enumerate(npc_poses)]
        if any(abs(sat_margin(ego, npc)) < 1e-9 for npc in npcs):
            # Boxes that touch to within rounding: the two engines build
            # corners with different arithmetic, so either verdict holds.
            return
        want = (KIND_NONE, -1)
        for j, npc in enumerate(npcs):
            kind = brute_force_pair(ego, npc)
            if kind is not None:
                want = (_CODES[kind], j)
                break
        else:
            if check_barrier(ego, road):
                want = (KIND_BARRIER, -1)
        batch = batch_of(road, ScenarioConfig(), ego_pose, npc_poses)
        kind, other = batch._detect_collisions(~batch.done)
        assert (int(kind[0]), int(other[0])) == want

    def test_exact_corner_contact_is_never_culled(self):
        """Boxes meeting exactly corner to corner: SAT calls them touching,
        and their centre distance rounds past the unpadded circumradius
        sum, so only the pad keeps the pair."""
        config = VehicleConfig(length=5.0, width=2.0)
        ego_pose, npc_pose_ = (100.0, 0.0, 0.0), (105.0, 2.0, 0.0)
        radius = math.hypot(2.5, 1.0)
        assert 5.0**2 + 2.0**2 > (2.0 * radius) ** 2
        assert 5.0**2 + 2.0**2 <= contact_reach(config, config) ** 2

        ego = vehicle("ego", ego_pose, config)
        npc = vehicle("npc_0", npc_pose_, config)
        assert ego.footprint().intersects(npc.footprint())
        assert check_vehicle_pair(ego, npc) is CollisionKind.FRONT

        scenario = ScenarioConfig(vehicle=config)
        batch = batch_of(default_road(), scenario, ego_pose, [npc_pose_])
        kind, other = batch._detect_collisions(~batch.done)
        assert (int(kind[0]), int(other[0])) == (KIND_FRONT, 0)

    def test_lowest_index_contact_wins(self):
        ego_pose = (100.0, 0.0, 0.0)
        far, rear, front = (130.0, 0.0, 0.0), (96.0, 0.0, 0.0), (104.0, 0.0, 0.0)
        batch = batch_of(
            default_road(), ScenarioConfig(), ego_pose, [far, rear, front]
        )
        kind, other = batch._detect_collisions(~batch.done)
        assert (int(kind[0]), int(other[0])) == (KIND_REAR, 1)
