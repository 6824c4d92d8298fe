"""Per-update learner health emission for the SAC training loop.

The SAC loop (:func:`repro.rl.loop.sac_loop`, which every SAC stage
runs: attacker refinement, driver refinement, adversarial fine-tuning)
funnels its post-update statistics through a
:class:`HealthEmitter`, which writes schema-checked ``update_health``
records (see :mod:`repro.telemetry.trace`) into the loop's trace writer
every ``health_every`` gradient updates. The records carry everything the
live watchdogs in :mod:`repro.obsv.alerts` evaluate: losses, alpha,
Q-value mean/max, policy entropy, actor/critic gradient norms,
replay-buffer occupancy, and environment steps per second.

Emission is off by default (``health_every = 0``); enable it with
:attr:`repro.rl.sac.SacConfig.health_every`. Like the rest of the
telemetry layer it is a pure observer — it never touches an RNG or feeds
back into training.
"""

from __future__ import annotations

import time

from repro.telemetry.trace import TraceWriter

#: Learner statistics copied verbatim from ``Sac.update()`` results.
_HEALTH_FIELDS = (
    "critic_loss",
    "actor_loss",
    "alpha_loss",
    "alpha",
    "q_mean",
    "q_max",
    "entropy",
    "actor_grad_norm",
    "critic_grad_norm",
)


class HealthEmitter:
    """Writes one ``update_health`` record every N gradient updates."""

    def __init__(
        self,
        trace: TraceWriter | None,
        loop: str,
        every: int = 0,
        clock=time.perf_counter,
    ) -> None:
        self.trace = trace
        self.loop = loop
        self.every = max(int(every), 0)
        self._clock = clock
        self._last_time: float | None = None
        self._last_step = 0
        self.emitted = 0

    @property
    def enabled(self) -> bool:
        return self.trace is not None and self.every > 0

    def after_update(self, sac, step: int, stats: dict) -> dict | None:
        """Emit a health record if this update lands on the interval.

        Args:
            sac: the live :class:`~repro.rl.sac.Sac` learner.
            step: the environment-step index of the enclosing loop.
            stats: the dict returned by :meth:`~repro.rl.sac.Sac.update`.

        Returns the emitted record, or ``None`` when skipped.
        """
        if not self.enabled or sac.total_updates % self.every != 0:
            return None
        now = self._clock()
        fields = {k: float(stats[k]) for k in _HEALTH_FIELDS if k in stats}
        fields.update(sac.health())
        if self._last_time is not None and now > self._last_time:
            fields["steps_per_s"] = (step - self._last_step) / (
                now - self._last_time
            )
        self._last_time, self._last_step = now, step
        self.emitted += 1
        return self.trace.emit(
            "update_health",
            loop=self.loop,
            step=int(step),
            update=int(sac.total_updates),
            **fields,
        )
