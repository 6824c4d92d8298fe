"""Generate ``benchmarks/BASELINE_metrics.json`` — the scientific baseline.

Runs the paper's headline configuration cells in-process (seeds 0..N-1,
on the engine :func:`repro.eval.episodes.run_seeds` picks) and snapshots
their episode-level metric distributions with seeded bootstrap CIs via
:func:`repro.obsv.compare.metric_snapshot`. The committed snapshot is the
baseline side of ``python -m repro.obsv regress <current> <baseline>
--metrics``: any future build whose cell means leave these CIs fails the
gate, the scientific twin of the ``BASELINE_telemetry.json`` perf gate.

Cells cover both victims nominal and under the learned action-space
attacks (claims anchor to EXPERIMENTS.md):

* modular pipeline, nominal and under the camera attacker at eps 1.0;
* end-to-end driver, nominal and under the camera attacker at eps 1.0
  and 0.5, plus the IMU attacker at eps 1.0.

A missing checkpoint or a cell without complete episodes is an error:
the script lists what is missing and exits nonzero, so the gate never
passes on a snapshot that silently lost cells. Regenerate after an
intentional behaviour change:

    PYTHONPATH=src python benchmarks/make_baseline_metrics.py

and commit the refreshed JSON together with the change that moved the
numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.eval.episodes import run_seeds
from repro.experiments import registry
from repro.obsv.compare import StatConfig, cell_key, metric_snapshot
from repro.obsv.loader import split_episodes
from repro.telemetry.trace import TraceWriter

#: Episodes per configuration cell (seeds ``0..N-1``).
DEFAULT_EPISODES = 20

#: Default output path, relative to this file.
DEFAULT_OUT = Path(__file__).resolve().parent / "BASELINE_metrics.json"


def _cells() -> list[dict]:
    """The configuration cells the baseline covers.

    ``attacker`` is a zero-arg factory (checkpoint loading deferred until
    ``needs`` has been checked).
    """
    return [
        {
            "victim": registry.modular_victim,
            "attacker": None,
            "needs": (),
            "claim": "EXPERIMENTS.md: modular pipeline nominal driving",
        },
        {
            "victim": registry.modular_victim,
            "attacker": lambda: registry.camera_attacker(1.0, "modular"),
            "needs": (registry.CAMERA_ATTACKER_MODULAR,),
            "claim": "EXPERIMENTS.md: camera attack vs modular, eps 1.0",
        },
        {
            "victim": registry.e2e_victim,
            "attacker": None,
            "needs": (registry.E2E_DRIVER,),
            "claim": "EXPERIMENTS.md: end-to-end driver nominal driving",
        },
        {
            "victim": registry.e2e_victim,
            "attacker": lambda: registry.camera_attacker(1.0, "e2e"),
            "needs": (registry.E2E_DRIVER, registry.CAMERA_ATTACKER_E2E),
            "claim": "EXPERIMENTS.md: camera attack vs e2e, eps 1.0",
        },
        {
            "victim": registry.e2e_victim,
            "attacker": lambda: registry.camera_attacker(0.5, "e2e"),
            "needs": (registry.E2E_DRIVER, registry.CAMERA_ATTACKER_E2E),
            "claim": "EXPERIMENTS.md: camera attack vs e2e, eps 0.5",
        },
        {
            "victim": registry.e2e_victim,
            "attacker": lambda: registry.imu_attacker(1.0),
            "needs": (registry.E2E_DRIVER, registry.IMU_ATTACKER),
            "claim": "EXPERIMENTS.md: IMU attack vs e2e, eps 1.0",
        },
    ]


def run_cell(cell: dict, episodes: int) -> tuple[list, dict | None]:
    """Run one cell and return (episode traces, provenance payload)."""
    writer = TraceWriter(None)
    run_seeds(cell["victim"], cell["attacker"], range(episodes), trace=writer)
    provenance = next(
        (e for e in writer.events if e.get("event") == "provenance"), None
    )
    return split_episodes(writer.events), provenance


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--episodes", type=int, default=DEFAULT_EPISODES,
        help=f"episodes per cell (default {DEFAULT_EPISODES})",
    )
    parser.add_argument(
        "--out", default=str(DEFAULT_OUT),
        help="output snapshot path (default benchmarks/BASELINE_metrics.json)",
    )
    parser.add_argument(
        "--stat-seed", type=int, default=0,
        help="bootstrap RNG seed recorded in the snapshot (default 0)",
    )
    args = parser.parse_args(argv)

    stat = StatConfig(stat_seed=args.stat_seed)
    all_episodes = []
    claims: dict[str, str] = {}
    provenance = None
    cells = _cells()
    missing = sorted(
        {n for c in cells for n in c["needs"] if not registry.has_artifact(n)}
    )
    if missing:
        print(
            f"missing artifacts: {', '.join(missing)} — run "
            "examples/train_all.py; nothing written",
            file=sys.stderr,
        )
        return 1
    for cell in cells:
        episodes, cell_provenance = run_cell(cell, args.episodes)
        provenance = provenance or cell_provenance
        complete = [e for e in episodes if e.complete]
        if not complete:
            print(
                f"no complete episodes: {cell['claim']}; nothing written",
                file=sys.stderr,
            )
            return 1
        first = complete[0]
        claims[cell_key(first.victim, first.attacker, first.budget)] = (
            cell["claim"]
        )
        all_episodes.extend(complete)
        print(f"ran {len(complete)} episodes: {cell['claim']}")

    snapshot = metric_snapshot(
        all_episodes, stat, claims=claims, provenance=provenance
    )
    out = Path(args.out)
    out.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"wrote {out} — {len(snapshot['cells'])} cell(s),"
        f" stat seed {stat.stat_seed}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
