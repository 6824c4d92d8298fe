"""Adversarial state spaces (Section IV-C).

Two sensor options for the attacker:

* **Camera** — a roof-mounted semantic-segmentation camera with a wide
  field of view: informative (sees nearby NPC vehicles directly) but
  conspicuous. Encoded exactly like the driver's camera: a 3-frame stack
  of bird's-eye semantic grids.
* **IMU** — a hidden triaxial IMU: covert but indirect. Encoded as the
  rolling 3.2 s trace of longitudinal acceleration and yaw rate at 20 sps
  (64 samples x 2 channels).
"""

from __future__ import annotations

import numpy as np

from repro.agents.e2e.observation import POLICY_CAMERA
from repro.sensors.base import FrameStack, Sensor
from repro.sensors.camera import BevCamera, BevCameraConfig
from repro.sensors.imu import Imu, ImuConfig
from repro.sensors.noise import NoiseModel
from repro.sim.world import World


class CameraAttackObservation(Sensor):
    """s^img: stacked bird's-eye semantic frames from the extra camera."""

    def __init__(
        self,
        camera_config: BevCameraConfig | None = None,
        frames: int = 3,
    ) -> None:
        self._stack = FrameStack(
            BevCamera(camera_config or POLICY_CAMERA), k=frames
        )

    def observe(self, world: World) -> np.ndarray:
        return self._stack.observe(world)

    def observe_batch(self, batch) -> np.ndarray:
        return self._stack.observe_batch(batch)

    def reset(self) -> None:
        self._stack.reset()

    def take(self, rows: np.ndarray) -> None:
        self._stack.take(rows)

    @property
    def observation_dim(self) -> int:
        return self._stack.observation_dim


class ImuAttackObservation(Sensor):
    """s^imu: the rolling inertial trace from the hidden IMU."""

    def __init__(
        self,
        imu_config: ImuConfig | None = None,
        noise: NoiseModel | None = None,
        #: Scales raw accelerations/rates into roughly [-1, 1] for the MLP.
        accel_scale: float = 8.0,
        yaw_rate_scale: float = 0.5,
    ) -> None:
        self._imu = Imu(imu_config or ImuConfig(), noise=noise)
        self.accel_scale = float(accel_scale)
        self.yaw_rate_scale = float(yaw_rate_scale)

    def observe(self, world: World) -> np.ndarray:
        return self._scaled(self._imu.observe(world))

    def observe_batch(self, batch) -> np.ndarray:
        return self._scaled(self._imu.observe_batch(batch))

    def _scaled(self, trace: np.ndarray) -> np.ndarray:
        """A scaled copy: the first window by ``accel_scale``, the rest by
        ``yaw_rate_scale`` (the last axis of one trace or ``[N, dim]``)."""
        window = self._imu.config.window
        scaled = trace.copy()
        scaled[..., :window] /= self.accel_scale
        scaled[..., window:] /= self.yaw_rate_scale
        return scaled

    def reset(self) -> None:
        self._imu.reset()

    def take(self, rows: np.ndarray) -> None:
        self._imu.take(rows)

    @property
    def observation_dim(self) -> int:
        return self._imu.observation_dim
