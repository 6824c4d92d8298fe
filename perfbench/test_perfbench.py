"""Tests of the benchmark itself.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import bootstrap

bootstrap.prepare()

import dataclasses
import time

import pytest

import tracing
import workloads
from reference import Reference


@pytest.fixture(scope="module")
def reference() -> Reference:
    return Reference()


class _SmallTrain(workloads.AttackerTrain):
    """A train stage cut to a few SAC updates (its metrics have no reference)."""

    def config(self, train_seed: int):
        config = super().config(train_seed)
        return dataclasses.replace(
            config,
            bc_episodes=1,
            eval_episodes=1,
            sac_steps=config.sac.batch_size + 6,
            sac=dataclasses.replace(config.sac, actor_delay=1),
        )


@pytest.mark.parametrize(
    "make",
    [
        lambda ref: workloads.PaperEval(3, ref, episodes=1),
        lambda ref: workloads.LockstepSweep(3, ref, n=3),
        lambda ref: workloads.RecordedEval(3, ref, n=3),
        lambda ref: _SmallTrain(0, ref),
    ],
    ids=["paper-eval", "lockstep-sweep", "recorded-eval", "attacker-train"],
)
def test_traced_run_matches_untraced_and_leaves_no_wrapper(make, reference):
    workload = make(reference)
    workload.before_pass(0)
    plain = workload.run_pass()
    tracer = tracing.Tracer()
    workload.before_pass(0)
    with tracing.installed(tracer):
        assert len(tracing.leftover_wrappers()) == sum(
            len(targets) for targets in tracing.LAYERS.values()
        )
        traced = workload.run_pass(tracer)
    assert tracing.leftover_wrappers() == []
    assert plain.failed == traced.failed == 0, plain.problems + traced.problems
    assert traced.fingerprint() == plain.fingerprint()
    layers = {span.layer for span in tracer.spans}
    assert {"sim.tick", "rl.infer"} <= layers
    if not isinstance(workload, workloads.AttackerTrain):
        workload.check(plain)
        assert plain.failed == 0, plain.problems


def test_wrappers_are_removed_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert tracing.leftover_wrappers() == []


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", "t:inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", "t:outer", outer_body)()
    spans = {span.layer: span for span in tracer.spans}
    outer, nested = spans["outer"], spans["inner"]
    assert nested.parent == outer.id
    inner_ns = nested.end_ns - nested.start_ns
    assert outer.end_ns - outer.start_ns - outer.self_ns == inner_ns
    assert nested.self_ns == inner_ns


def test_reentering_a_layer_stays_in_the_outer_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("same", "t:inner", lambda: None)
    tracer.wrap("same", "t:outer", inner)()
    assert [span.target for span in tracer.spans] == ["t:outer"]


def test_reference_check_flags_changed_outcomes(reference):
    workload = workloads.LockstepSweep(5, reference, n=2)
    cell = "e2e-camera-1.0"
    seeds = workload.seeds[cell]
    results = workload.run_cell(cell, seeds)
    assert reference.check_episodes(cell, seeds, results) == []
    first = results[0]
    for changed in (
        dataclasses.replace(first, steps=first.steps + 1),
        dataclasses.replace(first, nominal_return=first.nominal_return + 1e-6),
        dataclasses.replace(first, passed_npcs=first.passed_npcs + 1),
    ):
        problems = reference.check_episodes(cell, seeds, [changed, *results[1:]])
        assert len(problems) == 1
    within = dataclasses.replace(
        first, nominal_return=first.nominal_return + 1e-12
    )
    assert reference.check_episodes(cell, seeds, [within, *results[1:]]) == []
