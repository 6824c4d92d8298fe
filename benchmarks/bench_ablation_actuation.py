"""Ablation bench — Eq. (1) actuation smoothing (steer retain rate alpha).

The per-step blend ``a_t = (1-alpha) nu_t + alpha a_{t-1}`` governs how
fast both the victim's corrections and the attacker's perturbations reach
the wheels. This ablation sweeps alpha for the modular victim under the
oracle attack: sluggish actuation (large alpha) delays the PID's
counter-steer more than it delays the attack ramp, shifting the outcome.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.agents.modular import ModularAgent
from repro.core import OracleAttacker
from repro.eval import run_episodes
from repro.experiments.common import Table, fmt
from repro.sim import ScenarioConfig, VehicleConfig

ALPHAS = (0.2, 0.4, 0.6, 0.8)


@pytest.mark.experiment
def test_actuation_smoothing_ablation(benchmark):
    def sweep():
        rows = []
        for alpha in ALPHAS:
            scenario = ScenarioConfig(
                vehicle=VehicleConfig(steer_retain=alpha)
            )
            results = run_episodes(
                lambda world: ModularAgent(world.road),
                lambda: OracleAttacker(budget=0.8),
                n_episodes=10,
                scenario=scenario,
            )
            rows.append(
                (
                    alpha,
                    sum(r.attack_successful for r in results) / len(results),
                    float(np.mean([r.deviation_rmse for r in results])),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = Table(
        "Ablation — Eq. (1) steer retain rate alpha (modular victim, "
        "oracle attack, budget 0.8)",
        ["alpha", "attack success", "deviation RMSE"],
    )
    for alpha, success, rmse in rows:
        table.add(fmt(alpha, 1), fmt(success), fmt(rmse, 3))
    table.show()
    assert len(rows) == len(ALPHAS)
