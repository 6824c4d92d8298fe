"""The SAC training loop shared by every SAC stage of the paper.

Attacker refinement on ``R_adv`` (Sections IV-D/E), driver refinement on
the shaped reward (Section III-C) and adversarial fine-tuning with
attacks injected (Section VI-A) all run :func:`sac_loop`; they differ
only in the environment they hand it. :class:`~repro.core.attack_env.AttackEnv`
embeds the frozen victim, :class:`~repro.agents.e2e.env.DrivingEnv` the
injected attacker, so the loop itself never knows which side it trains.

Crash-safe: the loop defers ``env.reset`` to the top of the next
iteration so episode boundaries are pure learner state.
:class:`~repro.rl.checkpoint.SacLoopGuard` snapshots a resumable
:class:`~repro.rl.checkpoint.TrainState` there when
``config.checkpoint_every`` is set, and resumes bit-identically when
``config.resume`` finds one.
"""

from __future__ import annotations

import numpy as np

from repro.rl.checkpoint import SacLoopGuard
from repro.rl.health import HealthEmitter
from repro.rl.policy import SquashedGaussianPolicy
from repro.rl.sac import Sac, SacConfig
from repro.telemetry.log import get_logger
from repro.telemetry.spans import span
from repro.telemetry.trace import TraceWriter, default_writer

log = get_logger("rl.loop")

#: Finished episodes between ``sac.episode`` progress log lines.
LOG_EVERY_EPISODES = 20


def sac_loop(
    env,
    policy: SquashedGaussianPolicy,
    config: SacConfig,
    steps: int,
    rng: np.random.Generator,
    *,
    loop: str,
    trace: TraceWriter | None = None,
    progress: bool = False,
) -> None:
    """Refine ``policy`` in place with SAC for ``steps`` env steps.

    ``env`` needs ``reset() -> obs``, ``step(action) -> (obs, reward,
    done, info)`` with ``info["truncated"]``, and ``observation_dim`` /
    ``action_dim``. ``loop`` labels the trace records, the span
    (``train.<loop>``) and the checkpoint subdirectory. ``trace`` (or the
    ``REPRO_TRACE`` default writer) receives one ``train_step`` event per
    env step, plus ``update_health`` records when
    ``config.health_every`` is set.
    """
    trace = trace if trace is not None else default_writer()
    sac = Sac(env.observation_dim, env.action_dim, config, rng=rng,
              actor=policy)
    health = HealthEmitter(trace, loop, every=config.health_every)
    guard = SacLoopGuard(sac, loop, rng, trace=trace)
    start = guard.start()
    obs = None
    episode_return, episode = 0.0, guard.episode
    with span(f"train.{loop}"):
        for step in range(start, steps):
            guard.on_step(step)
            if obs is None:  # episode boundary: snapshot, then reset
                guard.at_boundary(step, episode)
                obs = env.reset()
                episode_return = 0.0
            action = sac.act(obs)
            next_obs, reward, done, info = env.step(action)
            sac.observe(obs, action, reward, next_obs,
                        done and not info["truncated"])
            episode_return += reward
            obs = next_obs
            if trace is not None:
                trace.emit(
                    "train_step", loop=loop, step=step,
                    reward=float(reward), done=bool(done), episode=episode,
                )
            if done:
                episode += 1
                if episode % LOG_EVERY_EPISODES == 0:
                    (log.info if progress else log.debug)(
                        "sac.episode", loop=loop, step=step,
                        episode=episode, episode_return=episode_return,
                    )
                obs = None
            if step % config.update_every == 0 and len(sac.replay) >= (
                config.batch_size
            ):
                stats = sac.update()
                health.after_update(sac, step, stats)
                guard.after_update(step, stats)
    guard.finish(steps, episode)
    if trace is not None:
        trace.flush()
