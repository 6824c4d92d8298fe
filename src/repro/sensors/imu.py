"""Triaxial IMU model (Section IV-C of the paper).

The attacker's covert sensor: a rolling trace of the ego vehicle's
longitudinal acceleration (x axis) and yaw rate (z axis), sampled at the
physics sub-step rate (20 sps by default) over a 3.2 s window — 64 samples
per channel. The y (lateral) axis is recorded by the hardware but, per the
paper, carries little steering information and is excluded from the
observation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sensors.base import Sensor
from repro.sensors.noise import NoiseModel
from repro.sim.world import World
from repro.telemetry.spans import timed


@dataclass(frozen=True)
class ImuConfig:
    """IMU observation window."""

    #: Samples retained per channel (paper: 20 sps * 3.2 s = 64).
    window: int = 64
    #: Whether to include the (uninformative) lateral channel.
    include_lateral: bool = False


class Imu(Sensor):
    """Rolling inertial trace of the ego vehicle.

    :meth:`observe` drains the sub-step samples the vehicle recorded during
    the last control tick into a ring buffer and returns the flattened
    window, ordered ``[accel_long x window, yaw_rate x window]`` (plus the
    lateral channel when enabled). The window is zero-padded at episode
    start.
    """

    def __init__(
        self,
        config: ImuConfig | None = None,
        noise: NoiseModel | None = None,
    ) -> None:
        self.config = config or ImuConfig()
        self.noise = noise or NoiseModel()
        window = self.config.window
        self._accel_long: deque[float] = deque(maxlen=window)
        self._accel_lat: deque[float] = deque(maxlen=window)
        self._yaw_rate: deque[float] = deque(maxlen=window)
        #: ``[N, channels, window]`` windows of the batched path.
        self._batch_window: np.ndarray | None = None

    @timed("imu.observe")
    def observe(self, world: World) -> np.ndarray:
        for sample in world.ego.imu_trace:
            raw = np.array(
                [sample.accel_long, sample.accel_lat, sample.yaw_rate]
            )
            noisy = np.asarray(self.noise.apply(raw))
            self._accel_long.append(float(noisy[0]))
            self._accel_lat.append(float(noisy[1]))
            self._yaw_rate.append(float(noisy[2]))
        channels = [self._padded(self._accel_long), self._padded(self._yaw_rate)]
        if self.config.include_lateral:
            channels.insert(1, self._padded(self._accel_lat))
        return np.concatenate(channels)

    def observe_batch(self, batch) -> np.ndarray:
        """Windows for every episode of a batch world, ``[N, dim]``.

        Drains the ego samples ``BatchWorld.tick`` recorded into an
        ``[N, channels, window]`` buffer, zero-padded at episode start,
        with the channel order of :meth:`observe`. Only the identity
        noise model has a batched path: noisy IMUs draw a per-episode
        stream and stay scalar.
        """
        if type(self.noise) is not NoiseModel:
            raise NotImplementedError(
                f"no batched path for IMU noise {type(self.noise).__name__}"
            )
        channels = [batch.imu_accel_long, batch.imu_yaw_rate]
        if self.config.include_lateral:
            channels.insert(1, batch.imu_accel_lat)
        samples = np.stack(channels, axis=1)
        window = self.config.window
        if self._batch_window is None:
            self._batch_window = np.zeros((batch.n, len(channels), window))
        if samples.shape[2]:
            joined = np.concatenate([self._batch_window, samples], axis=2)
            self._batch_window = joined[:, :, -window:]
        return self._batch_window.reshape(batch.n, -1)

    def take(self, rows: np.ndarray) -> None:
        """Keep only the batch windows of episodes ``rows``, in that order."""
        if self._batch_window is not None:
            self._batch_window = self._batch_window[rows]

    def _padded(self, buffer: deque[float]) -> np.ndarray:
        window = self.config.window
        data = np.zeros(window)
        if buffer:
            values = np.fromiter(buffer, dtype=float)
            data[window - len(values):] = values
        return data

    def reset(self) -> None:
        self._accel_long.clear()
        self._accel_lat.clear()
        self._yaw_rate.clear()
        self._batch_window = None
        self.noise.reset()

    @property
    def observation_dim(self) -> int:
        channels = 3 if self.config.include_lateral else 2
        return channels * self.config.window
