"""Tests for the injection channel (budget, quantization, noise, effort)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.injection import (
    ACTIVE_THRESHOLD,
    BatchInjectionChannel,
    InjectionChannel,
    InjectionChannelConfig,
)


class TestConfigValidation:
    def test_budget_bounds(self):
        InjectionChannelConfig(budget=0.0)
        InjectionChannelConfig(budget=1.2)
        with pytest.raises(ValueError):
            InjectionChannelConfig(budget=-0.1)
        with pytest.raises(ValueError):
            InjectionChannelConfig(budget=2.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            InjectionChannelConfig(noise_std=-1.0)
        with pytest.raises(ValueError):
            InjectionChannelConfig(quantization=-1.0)


class TestInjection:
    def test_scaling_by_budget(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=0.5))
        assert channel.inject(1.0) == pytest.approx(0.5)
        assert channel.inject(-0.5) == pytest.approx(-0.25)

    def test_action_clipped_before_scaling(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=0.5))
        assert channel.inject(10.0) == pytest.approx(0.5)

    @given(st.floats(-2.0, 2.0), st.floats(0.0, 1.2))
    @settings(max_examples=50)
    def test_never_exceeds_budget(self, action, budget):
        channel = InjectionChannel(InjectionChannelConfig(budget=budget))
        assert abs(channel.inject(action)) <= budget + 1e-12

    def test_quantization(self):
        channel = InjectionChannel(
            InjectionChannelConfig(budget=1.0, quantization=0.25)
        )
        assert channel.inject(0.3) == pytest.approx(0.25)
        assert channel.inject(0.4) == pytest.approx(0.5)

    def test_noise_bounded_by_budget(self):
        channel = InjectionChannel(
            InjectionChannelConfig(budget=0.5, noise_std=1.0),
            rng=np.random.default_rng(0),
        )
        for _ in range(100):
            assert abs(channel.inject(1.0)) <= 0.5

    def test_zero_budget_always_zero(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=0.0))
        assert channel.inject(1.0) == 0.0


class TestEffortAccounting:
    def test_effort_over_active_steps_only(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=1.0))
        channel.inject(1.0)
        channel.inject(0.0)  # lurking
        channel.inject(-1.0)
        assert channel.active_steps == 2
        assert channel.steps == 3
        assert channel.mean_effort == pytest.approx(1.0)

    def test_tiny_injections_count_as_lurking(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=1.0))
        channel.inject(ACTIVE_THRESHOLD / 2.0)
        assert channel.active_steps == 0
        assert channel.mean_effort == 0.0

    def test_reset_clears_counters(self):
        channel = InjectionChannel()
        channel.inject(1.0)
        channel.reset()
        assert channel.total_effort == 0.0
        assert channel.mean_effort == 0.0
        assert channel.steps == 0

    def test_effort_reflects_partial_magnitude(self):
        channel = InjectionChannel(InjectionChannelConfig(budget=1.0))
        channel.inject(0.5)
        channel.inject(0.5)
        assert channel.mean_effort == pytest.approx(0.5)


class TestBatchTake:
    def test_taken_lanes_continue_like_scalar_channels(self):
        """After ``take`` each kept lane carries on with its own effort
        counters and noise stream, like a scalar channel fed its actions."""
        config = InjectionChannelConfig(budget=0.5, noise_std=0.05)
        actions = np.random.default_rng(0).uniform(-1.0, 1.0, (12, 4))
        scalars = [
            InjectionChannel(config, rng=np.random.default_rng(seed))
            for seed in range(4)
        ]
        lanes = BatchInjectionChannel(
            config, n=4, rngs=[np.random.default_rng(s) for s in range(4)]
        )
        active = np.ones(4, dtype=bool)
        for step in actions[:6]:
            lanes.inject(step, active)
            for channel, action in zip(scalars, step):
                channel.inject(action)
        keep = np.array([3, 1])
        lanes.take(keep)
        assert lanes.n == 2
        for step in actions[6:]:
            got = lanes.inject(step[keep], np.ones(2, dtype=bool))
            want = [scalars[i].inject(step[i]) for i in keep]
            assert got.tolist() == pytest.approx(want, abs=1e-15)
        for k, i in enumerate(keep):
            assert lanes.mean_effort[k] == pytest.approx(
                scalars[i].mean_effort, abs=1e-15
            )
            assert lanes.steps[k] == scalars[i].steps
