"""Soft actor-critic (Haarnoja et al., 2018).

The DRL algorithm used by the paper for the end-to-end driving agent, the
adversarial attack policies, and adversarial fine-tuning. Twin Q critics
with polyak-averaged targets, a tanh-Gaussian actor, and automatic
entropy-temperature tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.rl.nn.autograd import Tensor, minimum
from repro.rl.nn.optim import Adam
from repro.rl.policy import QNetwork, SquashedGaussianPolicy
from repro.rl.replay import ReplayBuffer
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span


@dataclass
class SacConfig:
    """Hyper-parameters of the SAC learner."""

    hidden: tuple[int, ...] = (128, 128)
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    alpha_lr: float = 3e-4
    #: Initial entropy temperature.
    alpha: float = 0.1
    #: Automatically tune alpha toward ``target_entropy``.
    autotune_alpha: bool = True
    #: Defaults to ``-action_dim`` when None.
    target_entropy: float | None = None
    batch_size: int = 128
    buffer_capacity: int = 100_000
    #: Environment steps of uniform-random exploration before the policy.
    start_steps: int = 1_000
    #: Steps between gradient updates (1 = every step).
    update_every: int = 1
    #: Gradient updates performed per update round.
    updates_per_round: int = 1
    #: Number of initial updates that train the critics only. Warm-started
    #: (behaviour-cloned) actors would otherwise be dragged toward the
    #: randomly initialized critics' argmax and forget the warm start.
    actor_delay: int = 0
    max_grad_norm: float = 10.0
    #: Emit one ``update_health`` trace record every this many gradient
    #: updates (0 = disabled).
    health_every: int = 0
    #: Snapshot resumable training state every this many environment
    #: steps (0 = disabled). Snapshots land at the first episode boundary
    #: at or after the due step, where the loop state is fully
    #: serializable.
    checkpoint_every: int = 0
    #: Directory for training snapshots; the loop label is appended as a
    #: subdirectory.
    checkpoint_dir: str = "checkpoints"
    #: Keep the newest K periodic snapshots.
    checkpoint_keep: int = 3
    #: Resume from the latest snapshot in the checkpoint directory. With
    #: no snapshot present, train from scratch.
    resume: bool = False
    #: On a critical watchdog alert (``nan_loss``/``q_divergence``),
    #: snapshot and raise ``TrainingHalted`` instead of training on.
    halt_on_alert: bool = False


class Sac:
    """The SAC learner: actor, twin critics, targets, and replay."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        config: SacConfig | None = None,
        rng: np.random.Generator | None = None,
        actor: SquashedGaussianPolicy | None = None,
    ) -> None:
        """Build the learner.

        Args:
            actor: optional pre-built policy (e.g. a behaviour-cloned warm
                start or a progressive-network policy); defaults to a fresh
                :class:`SquashedGaussianPolicy`.
        """
        self.config = config or SacConfig()
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.rng = rng or np.random.default_rng(0)
        cfg = self.config

        self.actor = actor or SquashedGaussianPolicy(
            obs_dim, action_dim, cfg.hidden, rng=self.rng
        )
        self.q1 = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q2 = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q1_target = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q2_target = QNetwork(obs_dim, action_dim, cfg.hidden, rng=self.rng)
        self.q1_target.load_state_dict(self.q1.state_dict())
        self.q2_target.load_state_dict(self.q2.state_dict())

        self.log_alpha = Tensor(
            np.array(np.log(cfg.alpha)), requires_grad=cfg.autotune_alpha
        )
        self.target_entropy = (
            cfg.target_entropy
            if cfg.target_entropy is not None
            else -float(action_dim)
        )

        self.actor_opt = Adam(
            self.actor.parameters(), cfg.actor_lr, max_grad_norm=cfg.max_grad_norm
        )
        self.critic_opt = Adam(
            self.q1.parameters() + self.q2.parameters(),
            cfg.critic_lr,
            max_grad_norm=cfg.max_grad_norm,
        )
        self.alpha_opt = Adam([self.log_alpha], cfg.alpha_lr)

        self.replay = ReplayBuffer(cfg.buffer_capacity, obs_dim, action_dim)
        self.total_updates = 0

        # Cached telemetry handles; the gauges track the *latest* SAC
        # instance to update (one learner is live at a time in practice).
        registry = get_registry()
        self._gauge_critic = registry.gauge("sac_critic_loss")
        self._gauge_actor = registry.gauge("sac_actor_loss")
        self._gauge_alpha = registry.gauge("sac_alpha")
        self._gauge_replay = registry.gauge("sac_replay_occupancy")
        self._gauge_entropy = registry.gauge("sac_policy_entropy")
        self._gauge_q_max = registry.gauge("sac_q_max")
        self._counter_updates = registry.counter("sac_updates_total")

    # -- acting -------------------------------------------------------------------

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha.data))

    def act(self, obs: np.ndarray, deterministic: bool = False) -> np.ndarray:
        """Policy action in ``[-1, 1]^action_dim``."""
        return self.actor.act(obs, deterministic=deterministic, rng=self.rng)

    def random_action(self) -> np.ndarray:
        """Uniform exploration action (used for the first ``start_steps``)."""
        return self.rng.uniform(-1.0, 1.0, size=self.action_dim)

    # -- learning ------------------------------------------------------------------

    def observe(
        self,
        obs: np.ndarray,
        action: np.ndarray,
        reward: float,
        next_obs: np.ndarray,
        done: bool,
    ) -> None:
        """Store one transition in the replay buffer."""
        self.replay.add(obs, action, reward, next_obs, done)

    def update(self) -> dict[str, float]:
        """One SAC gradient update from a replay minibatch."""
        with span("sac.update"):
            stats = self._update()
        self._gauge_critic.set(stats["critic_loss"])
        self._gauge_actor.set(stats["actor_loss"])
        self._gauge_alpha.set(stats["alpha"])
        self._gauge_replay.set(len(self.replay))
        self._gauge_entropy.set(stats["entropy"])
        self._gauge_q_max.set(stats["q_max"])
        self._counter_updates.inc()
        return stats

    def health(self) -> dict[str, int]:
        """Learner-level health fields (merged into ``update_health``)."""
        return {
            "buffer_size": len(self.replay),
            "buffer_capacity": self.replay.capacity,
        }

    def _update(self) -> dict[str, float]:
        cfg = self.config
        batch = self.replay.sample(cfg.batch_size, self.rng)
        obs = batch["obs"]
        actions = batch["actions"]
        rewards = batch["rewards"]
        next_obs = batch["next_obs"]
        dones = batch["dones"]

        # Bellman targets (no gradients needed -> numpy fast path).
        next_actions, next_log_prob = self.actor.sample_np(next_obs, self.rng)
        q_next = np.minimum(
            self.q1_target.forward_np(next_obs, next_actions),
            self.q2_target.forward_np(next_obs, next_actions),
        )
        alpha = self.alpha
        targets = rewards + cfg.gamma * (1.0 - dones) * (
            q_next - alpha * next_log_prob
        )

        # Critic update.
        obs_t = Tensor(obs)
        act_t = Tensor(actions)
        target_t = Tensor(targets)
        q1_pred = self.q1(obs_t, act_t)
        q2_pred = self.q2(obs_t, act_t)
        critic_loss = ((q1_pred - target_t) ** 2.0).mean() + (
            (q2_pred - target_t) ** 2.0
        ).mean()
        self.critic_opt.zero_grad()
        critic_loss.backward()
        plan = faults.active_plan()
        if plan is not None:
            plan.on_gradients("critic", self.critic_opt.params, self.total_updates)
        critic_grad_norm = self.critic_opt.step()

        # Actor update through frozen critics: the backward pass reaches
        # the actions but computes no critic weight gradients.
        actor_loss_value = 0.0
        actor_grad_norm = 0.0
        log_prob = None
        if self.total_updates >= cfg.actor_delay:
            noise = self.rng.standard_normal((cfg.batch_size, self.action_dim))
            new_actions, log_prob = self.actor.rsample(obs_t, noise)
            with self.q1.frozen(), self.q2.frozen():
                q_new = minimum(
                    self.q1(obs_t, new_actions), self.q2(obs_t, new_actions)
                )
            actor_loss = (log_prob * alpha - q_new).mean()
            self.actor_opt.zero_grad()
            actor_loss.backward()
            actor_grad_norm = self.actor_opt.step()
            actor_loss_value = float(actor_loss.data)

        # Temperature update.
        alpha_loss_value = 0.0
        if cfg.autotune_alpha and log_prob is not None:
            entropy_gap = Tensor(log_prob.data + self.target_entropy)
            alpha_loss = -(self.log_alpha * entropy_gap).mean()
            self.alpha_opt.zero_grad()
            alpha_loss.backward()
            self.alpha_opt.step()
            alpha_loss_value = float(alpha_loss.data)

        self._polyak(self.q1, self.q1_target)
        self._polyak(self.q2, self.q2_target)
        self.total_updates += 1
        # Entropy estimate from the freshest log-probs available: the
        # actor's reparameterized batch when the actor trained this round,
        # else the target-sampling batch (critic-only warmup).
        log_probs = log_prob.data if log_prob is not None else next_log_prob
        return {
            "critic_loss": float(critic_loss.data),
            "actor_loss": actor_loss_value,
            "alpha_loss": alpha_loss_value,
            "alpha": self.alpha,
            "q1_mean": float(q1_pred.data.mean()),
            "q_mean": float(q1_pred.data.mean()),
            "q_max": float(
                max(np.abs(q1_pred.data).max(), np.abs(q2_pred.data).max())
            ),
            "entropy": float(-np.mean(log_probs)),
            "actor_grad_norm": actor_grad_norm,
            "critic_grad_norm": critic_grad_norm,
        }

    def _polyak(self, source: QNetwork, target: QNetwork) -> None:
        tau = self.config.tau
        source_params = source.named_parameters()
        for name, param in target.named_parameters().items():
            param.data *= 1.0 - tau
            param.data += tau * source_params[name].data

    # -- checkpoints ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {}
        for prefix, module in (
            ("actor", self.actor),
            ("q1", self.q1),
            ("q2", self.q2),
            ("q1_target", self.q1_target),
            ("q2_target", self.q2_target),
        ):
            for name, value in module.state_dict().items():
                state[f"{prefix}:{name}"] = value
        state["log_alpha"] = self.log_alpha.data.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for prefix, module in (
            ("actor", self.actor),
            ("q1", self.q1),
            ("q2", self.q2),
            ("q1_target", self.q1_target),
            ("q2_target", self.q2_target),
        ):
            module.load_state_dict(
                {
                    name[len(prefix) + 1:]: value
                    for name, value in state.items()
                    if name.startswith(f"{prefix}:")
                }
            )
        self.log_alpha.data = np.asarray(state["log_alpha"], dtype=np.float64)
