"""The benchmark's inputs: evaluation cells, the seed pool, the train stage.

A cell is one (victim, attacker, budget) configuration of the paper's
evaluation. Every workload draws its episode seeds from ``[0, POOL)``;
``reference.json`` holds the scalar-oracle outcome of every cell on every
pool seed, so any ``--seed`` can be checked without re-running the oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.training import AttackTrainConfig
from repro.experiments import registry
from repro.experiments.fig6 import victim_factory_for

#: Episode seeds ``[0, POOL)`` carry a stored reference for every cell.
POOL = 256
#: Training stages are seeded from ``[0, TRAIN_POOL)``.
TRAIN_POOL = 16


@dataclass(frozen=True)
class Cell:
    """One evaluation configuration, built the way ``repro.experiments`` does."""

    name: str
    #: ``"e2e"``, ``"modular"`` or ``"pnn0.2"`` (the Simplex-switched PNN
    #: agent with sigma = 0.2, Fig. 7).
    victim: str
    #: ``None`` (nominal), ``"camera"`` or ``"imu"``.
    attacker: str | None = None
    budget: float = 0.0

    def victim_factory(self):
        if self.victim == "e2e":
            return registry.e2e_victim
        if self.victim == "modular":
            return registry.modular_victim
        if self.victim == "pnn0.2":
            return victim_factory_for("pnn sigma=0.2", self.budget)
        raise KeyError(self.victim)

    def attacker_factory(self):
        """A fresh-attacker factory (``None`` for nominal driving)."""
        budget = self.budget
        if self.attacker is None:
            return None
        if self.attacker == "imu":
            return lambda: registry.imu_attacker(budget)
        victim = "modular" if self.victim == "modular" else "e2e"
        return lambda: registry.camera_attacker(budget, victim=victim)


CELLS = {
    cell.name: cell
    for cell in (
        Cell("e2e-nominal", "e2e"),
        Cell("e2e-camera-0.25", "e2e", "camera", 0.25),
        Cell("e2e-camera-0.5", "e2e", "camera", 0.5),
        Cell("e2e-camera-1.0", "e2e", "camera", 1.0),
        Cell("modular-camera-1.0", "modular", "camera", 1.0),
        Cell("e2e-imu-1.0", "e2e", "imu", 1.0),
        Cell("pnn0.2-camera-1.0", "pnn0.2", "camera", 1.0),
    )
}


def train_config(seed: int) -> AttackTrainConfig:
    """The shipped camera-attacker config, scaled down to a short stage.

    Fewer demonstration/eval episodes, one BC fit and 500 SAC steps; the
    actor delay shrinks with the step count so actor updates still run
    (SAC updates every 2 steps once 128 transitions are buffered, so 186
    updates happen and the last 86 train the actor).
    """
    shipped = AttackTrainConfig()
    return dataclasses.replace(
        shipped,
        bc_episodes=4,
        bc=dataclasses.replace(shipped.bc, epochs=10),
        bc_restarts=1,
        eval_episodes=2,
        sac_steps=500,
        sac=dataclasses.replace(shipped.sac, actor_delay=100),
        seed=seed,
    )
