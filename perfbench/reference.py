"""Stored reference outcomes and the checks against them.

``reference.json`` holds, for every cell of :mod:`cells` and every pool
seed, the outcome of the scalar oracle :func:`repro.eval.run_episode`,
and for every training seed the eval metrics a train stage returns.
Regenerate it (about 5 minutes on two cores) with::

    python3 perfbench/reference.py

Discrete fields must match exactly; floats to 1e-9 absolute, the
tolerance of ``tests/eval/test_batch_equivalence.py``.
"""

from __future__ import annotations

if __name__ == "__main__":
    import bootstrap

    bootstrap.prepare()

import json
import math
import multiprocessing
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"
#: One row per episode, in this field order.
FIELDS = (
    "steps",
    "collision",
    "collision_with",
    "collision_step",
    "passed_npcs",
    "duration",
    "nominal_return",
    "adversarial_return",
    "mean_effort",
    "deviation_rmse",
    "deviation_max",
    "time_to_collision",
)
DISCRETE = frozenset(FIELDS[:5])
TOLERANCE = 1e-9


def outcome(result) -> list:
    """An :class:`~repro.eval.episodes.EpisodeResult` as a reference row."""
    collision = result.collision
    return [
        result.steps,
        None if collision is None else collision.kind.name,
        None if collision is None else collision.other,
        None if collision is None else collision.step,
        result.passed_npcs,
        result.duration,
        result.nominal_return,
        result.adversarial_return,
        result.mean_effort,
        result.deviation_rmse,
        result.deviation_max,
        result.time_to_collision,
    ]


def _differs(want, got, exact: bool) -> bool:
    if exact or want is None or got is None:
        return want != got
    return not abs(float(want) - float(got)) <= TOLERANCE


class Reference:
    """The loaded reference file; a missing file raises ``FileNotFoundError``."""

    def __init__(self, path: Path = PATH) -> None:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if tuple(document["fields"]) != FIELDS:
            raise ValueError(f"{path}: field list does not match this code")
        self.pool = int(document["pool"])
        self.cells: dict[str, list[list]] = document["cells"]
        self.train: dict[str, dict[str, float]] = document["train"]

    def steps(self, cell: str) -> list[int]:
        """Reference episode lengths of ``cell``, indexed by pool seed."""
        return [row[0] for row in self.cells[cell]]

    def check_episodes(self, cell: str, seeds, results) -> list[str]:
        """One message per episode whose outcome differs from the oracle."""
        if len(results) != len(seeds):
            return [
                f"{cell} seed {seed}: {len(results)} results for "
                f"{len(seeds)} seeds"
                for seed in seeds
            ]
        problems = []
        for seed, result in zip(seeds, results):
            want = self.cells[cell][seed]
            got = outcome(result)
            for field, a, b in zip(FIELDS, want, got):
                if _differs(a, b, exact=field in DISCRETE):
                    problems.append(
                        f"{cell} seed {seed}: {field} {b!r} != reference {a!r}"
                    )
                    break
        return problems

    def check_train(self, seed: int, metrics: dict[str, float]) -> list[str]:
        """Messages for every train-stage eval metric off its reference."""
        want = self.train[str(seed)]
        if set(want) != set(metrics):
            return [f"train seed {seed}: metric keys {sorted(metrics)}"]
        return [
            f"train seed {seed}: {name} {metrics[name]!r} != {value!r}"
            for name, value in want.items()
            if _differs(value, metrics[name], exact=name == "success_rate")
        ]


# -- generation ----------------------------------------------------------------


def _cell_rows(task: tuple[str, list[int]]) -> tuple[str, list[int], list]:
    from cells import CELLS
    from repro.eval.episodes import run_episode

    name, seeds = task
    cell = CELLS[name]
    attacker_factory = cell.attacker_factory()
    rows = [
        outcome(
            run_episode(
                cell.victim_factory(),
                attacker=attacker_factory() if attacker_factory else None,
                seed=seed,
            )
        )
        for seed in seeds
    ]
    return name, seeds, rows


def _train_metrics(seed: int) -> tuple[int, dict[str, float]]:
    from cells import train_config
    from repro.core.training import train_camera_attacker
    from repro.experiments import registry

    _, metrics = train_camera_attacker(registry.e2e_victim, train_config(seed))
    return seed, {k: float(v) for k, v in metrics.items()}


def _dumps(document: dict) -> str:
    """JSON with one episode row per line (floats keep every digit)."""
    cells = ",\n".join(
        f"  {json.dumps(name)}: [\n"
        + ",\n".join(f"   {json.dumps(row)}" for row in rows)
        + "\n  ]"
        for name, rows in document["cells"].items()
    )
    return (
        "{\n"
        f' "pool": {document["pool"]},\n'
        f' "oracle": {json.dumps(document["oracle"])},\n'
        f' "fields": {json.dumps(document["fields"])},\n'
        f' "train": {json.dumps(document["train"], sort_keys=True)},\n'
        f' "cells": {{\n{cells}\n }}\n'
        "}\n"
    )


def generate(workers: int = 2, chunk: int = 32) -> dict:
    """Run the scalar oracle over the whole pool and every train seed."""
    from cells import CELLS, POOL, TRAIN_POOL

    tasks = [
        (name, list(range(start, min(start + chunk, POOL))))
        for name in CELLS
        for start in range(0, POOL, chunk)
    ]
    cells: dict[str, list] = {name: [None] * POOL for name in CELLS}
    train: dict[str, dict[str, float]] = {}
    context = multiprocessing.get_context("spawn")
    with context.Pool(workers) as pool:
        trained = pool.map_async(_train_metrics, range(TRAIN_POOL))
        for name, seeds, rows in pool.imap_unordered(_cell_rows, tasks):
            for seed, row in zip(seeds, rows):
                cells[name][seed] = row
        for seed, metrics in trained.get():
            train[str(seed)] = metrics
    for name, rows in cells.items():
        for row in rows:
            for value in row[5:]:
                if value is not None and not math.isfinite(value):
                    raise ValueError(f"{name}: non-finite outcome {row}")
    return {
        "pool": POOL,
        "oracle": "repro.eval.run_episode",
        "fields": list(FIELDS),
        "train": train,
        "cells": cells,
    }


if __name__ == "__main__":
    PATH.write_text(_dumps(generate()), encoding="utf-8")
    print(f"wrote {PATH}")
