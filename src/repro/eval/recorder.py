"""Episode trajectory recording and lightweight rendering.

Records per-tick vehicle states during an episode into a
:class:`Trajectory`, exports them as CSV, and renders a top-down ASCII
strip chart (the textual analogue of Fig. 1(b)'s collision snapshot) —
useful for debugging attacks without a display server.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from repro.eval.episodes import run_episode
from repro.sim.world import World
from repro.telemetry.trace import TraceWriter


@dataclass(frozen=True)
class ActorSample:
    """One actor's pose at one tick."""

    name: str
    x: float
    y: float
    yaw: float
    speed: float


@dataclass
class Trajectory:
    """Time series of every actor's pose plus per-tick attack deltas."""

    times: list[float] = field(default_factory=list)
    samples: list[list[ActorSample]] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)

    def record(self, world: World, delta: float = 0.0) -> None:
        """Append the current world state."""
        frame = [
            ActorSample(
                "ego",
                world.ego.state.x,
                world.ego.state.y,
                world.ego.state.yaw,
                world.ego.state.speed,
            )
        ]
        for npc in world.npcs:
            state = npc.vehicle.state
            frame.append(
                ActorSample(
                    npc.vehicle.name, state.x, state.y, state.yaw, state.speed
                )
            )
        self.times.append(world.time)
        self.samples.append(frame)
        self.deltas.append(float(delta))

    def __len__(self) -> int:
        return len(self.times)

    def positions(self) -> dict[str, np.ndarray]:
        """Per-actor position arrays, each shape ``(ticks, 2)``.

        Computed in one pass over the recording and cached until another
        tick is recorded (the renderer below used to rescan every frame
        per actor per frame — O(actors x frames^2)).
        """
        cached = getattr(self, "_positions_cache", None)
        if cached is not None and cached[0] == len(self.times):
            return cached[1]
        rows: dict[str, list[tuple[float, float]]] = {}
        for frame in self.samples:
            for sample in frame:
                rows.setdefault(sample.name, []).append((sample.x, sample.y))
        positions = {
            name: np.asarray(values) for name, values in rows.items()
        }
        self._positions_cache = (len(self.times), positions)
        return positions

    def actor(self, name: str) -> np.ndarray:
        """Positions of ``name`` over time, shape ``(ticks, 2)``."""
        positions = self.positions()
        if name not in positions:
            raise KeyError(name)
        return positions[name]

    def to_csv(self) -> str:
        """The full recording as CSV text."""
        buffer = io.StringIO()
        buffer.write("time,actor,x,y,yaw,speed,delta\n")
        for time, frame, delta in zip(self.times, self.samples, self.deltas):
            for sample in frame:
                buffer.write(
                    f"{time:.2f},{sample.name},{sample.x:.3f},"
                    f"{sample.y:.3f},{sample.yaw:.4f},{sample.speed:.3f},"
                    f"{delta:.3f}\n"
                )
        return buffer.getvalue()

    def to_jsonl(self) -> str:
        """The recording as JSONL: one object per tick with nested actors."""
        lines = []
        for time, frame, delta in zip(self.times, self.samples, self.deltas):
            lines.append(
                json.dumps(
                    {
                        "t": time,
                        "delta": delta,
                        "actors": [
                            {
                                "name": s.name,
                                "x": s.x,
                                "y": s.y,
                                "yaw": s.yaw,
                                "speed": s.speed,
                            }
                            for s in frame
                        ],
                    },
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "Trajectory":
        """Rebuild a trajectory from :meth:`to_jsonl` output."""
        trajectory = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            trajectory.times.append(float(row["t"]))
            trajectory.deltas.append(float(row["delta"]))
            trajectory.samples.append(
                [
                    ActorSample(
                        a["name"], a["x"], a["y"], a["yaw"], a["speed"]
                    )
                    for a in row["actors"]
                ]
            )
        return trajectory

    def render_ascii(
        self, road_half_width: float = 8.0, width: int = 100
    ) -> str:
        """Top-down strip chart: 'E' ego path, digits NPC paths.

        The x axis is compressed to ``width`` columns across the recorded
        longitudinal extent; the y axis spans the road width.
        """
        if not self.samples:
            return "(empty trajectory)"
        positions = self.positions()
        ego = positions["ego"]
        x_min = min(float(positions[s.name][:, 0].min())
                    for s in self.samples[0])
        x_max = max(float(positions[s.name][:, 0].max())
                    for s in self.samples[0])
        span = max(x_max - x_min, 1e-6)
        rows = 17
        grid = [[" "] * width for _ in range(rows)]

        def put(x: float, y: float, char: str) -> None:
            col = int((x - x_min) / span * (width - 1))
            row = int(
                (road_half_width - y) / (2.0 * road_half_width) * (rows - 1)
            )
            if 0 <= row < rows and 0 <= col < width:
                grid[row][col] = char

        for index, frame in enumerate(self.samples[0][1:], start=1):
            for x, y in positions[frame.name]:
                put(x, y, str(index % 10))
        for x, y in ego:
            put(x, y, "E")
        border = "+" + "-" * width + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in grid)
        return f"{border}\n{body}\n{border}"


def record_episode(
    victim_factory,
    attacker=None,
    seed: int = 0,
    scenario=None,
    trace: TraceWriter | None = None,
    episode_id: int | str | None = None,
) -> tuple[Trajectory, World]:
    """Run one episode and record every tick.

    A :func:`~repro.eval.episodes.run_episode` with a trajectory observer:
    returns the trajectory and the final world (for collision inspection),
    and writes the same trace records as the runner.
    """
    trajectory = Trajectory()
    final: list[World] = []

    def observe(world: World, delta: float) -> None:
        trajectory.record(world, delta)
        final[:] = [world]

    run_episode(
        victim_factory, attacker=attacker, seed=seed, scenario=scenario,
        trace=trace, episode_id=episode_id, observer=observe,
    )
    return trajectory, final[0]
