"""Actor and critic networks for soft actor-critic.

The actor is a tanh-squashed diagonal Gaussian (actions in ``[-1, 1]^n``),
the critic an action-value MLP. Both offer a fast numpy inference path for
rollouts and target computation, and an autodiff path for updates.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rl.nn import autograd
from repro.rl.nn.autograd import Tensor, concat, gaussian_log_prob
from repro.rl.nn.layers import InferencePlan, Linear, Mlp, Module, relu

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_LOG2 = math.log(2.0)


def row_stack(obs: np.ndarray) -> np.ndarray:
    """``[batch, obs_dim]`` as a stack of ``[1, obs_dim]`` rows.

    numpy multiplies a stack of single rows by a matrix one row at a time
    (a BLAS gemv each): the product a lone observation gets in ``act``.
    One ``[batch, obs_dim]`` product (a gemm) sums in another order, so
    its rows differ from ``act`` in the last bits, at several times the
    speed for wide batches.
    """
    return obs[:, None, :]


class PolicyInferencePlan:
    """Preallocated buffers for the policy's fused no-grad forward.

    Bundles the trunk's :class:`~repro.rl.nn.layers.InferencePlan` with
    pinned output buffers for the mean/log-std heads and the action, so a
    steady-state ``act_batch`` loop allocates nothing per call.
    """

    def __init__(self, policy: "SquashedGaussianPolicy", max_batch: int) -> None:
        self.max_batch = int(max_batch)
        self.trunk = policy.trunk.inference_plan(max_batch)
        self._mean = np.empty((self.max_batch, policy.action_dim))
        self._log_std = np.empty((self.max_batch, policy.action_dim))
        self._action = np.empty((self.max_batch, policy.action_dim))

    def fits(self, batch: int) -> bool:
        return batch <= self.max_batch

    def mean(self, batch: int) -> np.ndarray:
        return self._mean[:batch]

    def log_std(self, batch: int) -> np.ndarray:
        return self._log_std[:batch]

    def action(self, batch: int) -> np.ndarray:
        return self._action[:batch]


class SquashedGaussianPolicy(Module):
    """Stochastic policy ``pi(a | s) = tanh(N(mu(s), sigma(s)))``."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        hidden: tuple[int, ...] = (128, 128),
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hidden = tuple(hidden)
        self.trunk = Mlp(
            (obs_dim, *hidden), activation=relu, output_activation=relu, rng=rng
        )
        self.mean_head = Linear(hidden[-1], action_dim, rng=rng, scale=1e-2)
        self.log_std_head = Linear(hidden[-1], action_dim, rng=rng, scale=1e-2)

    # -- autodiff path ---------------------------------------------------------

    def distribution(self, obs: Tensor) -> tuple[Tensor, Tensor]:
        """Mean and (bounded) log-std of the pre-squash Gaussian."""
        features = self.trunk(obs)
        mean = self.mean_head(features)
        raw = self.log_std_head(features)
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (
            raw.tanh() + 1.0
        )
        return mean, log_std

    def rsample(
        self, obs: Tensor, noise: np.ndarray
    ) -> tuple[Tensor, Tensor]:
        """Reparameterized sample and its log-probability.

        Args:
            obs: batch of observations, shape ``(n, obs_dim)``.
            noise: standard-normal draws, shape ``(n, action_dim)``.

        Returns:
            ``(action, log_prob)`` with the tanh change-of-variables
            correction applied in its numerically stable softplus form.
        """
        mean, log_std = self.distribution(obs)
        std = log_std.exp()
        pre_squash = mean + std * Tensor(noise)
        action = pre_squash.tanh()
        log_prob = gaussian_log_prob(pre_squash, mean, log_std)
        # log(1 - tanh(x)^2) = 2 * (log 2 - x - softplus(-2x))
        correction = ((-pre_squash + _LOG2) - (pre_squash * -2.0).softplus()) * 2.0
        log_prob = log_prob - correction.sum(axis=-1)
        return action, log_prob

    # -- numpy inference path ------------------------------------------------------

    def inference_plan(self, max_batch: int) -> PolicyInferencePlan:
        """Buffers enabling the fused ``forward_np`` / ``act_batch`` path."""
        return PolicyInferencePlan(self, max_batch)

    def forward_np(
        self,
        obs: np.ndarray,
        plan: PolicyInferencePlan | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and log-std without building a graph.

        With ``plan`` and a 2-D or 3-D ``obs`` whose rows (all but the
        last axis) fit, the trunk and both heads write into preallocated
        buffers (same ops, fused in place); the returned arrays alias the
        plan and stay valid until its next use.
        """
        batch = math.prod(obs.shape[:-1])
        hook = autograd.FLOP_HOOK
        if hook is not None:
            for head in (self.mean_head, self.log_std_head):
                hook.matmul(batch, head.in_dim, head.out_dim)
                hook.elementwise("add_fwd", batch * head.out_dim)
            hook.elementwise("tanh_fwd", batch * self.action_dim)
        if plan is not None and obs.ndim in (2, 3) and plan.fits(batch):
            features = self.trunk.forward_np(obs, plan=plan.trunk)
            shape = obs.shape[:-1] + (self.action_dim,)
            mean = plan.mean(batch).reshape(shape)
            np.matmul(features, self.mean_head.weight.data, out=mean)
            mean += self.mean_head.bias.data
            log_std = plan.log_std(batch).reshape(shape)
            np.matmul(features, self.log_std_head.weight.data, out=log_std)
            log_std += self.log_std_head.bias.data
            # In place: LOG_STD_MIN + 0.5 * (MAX - MIN) * (tanh(raw) + 1).
            np.tanh(log_std, out=log_std)
            log_std += 1.0
            log_std *= 0.5 * (LOG_STD_MAX - LOG_STD_MIN)
            log_std += LOG_STD_MIN
            return mean, log_std
        features = self.trunk.forward_np(obs)
        mean = features @ self.mean_head.weight.data + self.mean_head.bias.data
        raw = (
            features @ self.log_std_head.weight.data
            + self.log_std_head.bias.data
        )
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (
            np.tanh(raw) + 1.0
        )
        return mean, log_std

    def act(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Action for a single observation (or batch), in ``[-1, 1]``."""
        squeeze = obs.ndim == 1
        batch = obs[None, :] if squeeze else obs
        mean, log_std = self.forward_np(batch)
        if deterministic:
            action = np.tanh(mean)
        else:
            rng = rng or np.random.default_rng()
            noise = rng.standard_normal(mean.shape)
            action = np.tanh(mean + np.exp(log_std) * noise)
        return action[0] if squeeze else action

    def act_batch(
        self,
        obs: np.ndarray,
        deterministic: bool = False,
        rngs: list[np.random.Generator] | None = None,
        plan: PolicyInferencePlan | None = None,
        exact_rows: bool = False,
    ) -> np.ndarray:
        """Actions for a ``[batch, obs_dim]`` matrix, in ``[-1, 1]``.

        The batched twin of :meth:`act` for lockstep evaluation: one fused
        forward covers every episode. Rows match :meth:`act` to the last
        bits, and bit for bit with ``exact_rows`` (see :func:`row_stack`).
        In sampling mode each row draws its noise from its own generator
        in ``rngs`` (one per episode), so a batched episode consumes
        exactly the stream its scalar counterpart would — batch
        composition never leaks across episodes.
        """
        if obs.ndim != 2:
            raise ValueError("act_batch expects a [batch, obs_dim] matrix")
        batch = obs.shape[0]
        mean, log_std = self.forward_np(
            row_stack(obs) if exact_rows else obs, plan=plan
        )
        mean = mean.reshape(batch, self.action_dim)
        log_std = log_std.reshape(batch, self.action_dim)
        if deterministic:
            if plan is not None and plan.fits(batch):
                action = plan.action(batch)
                np.tanh(mean, out=action)
                return action
            return np.tanh(mean)
        if rngs is None:
            rngs = [np.random.default_rng() for _ in range(batch)]
        if len(rngs) != batch:
            raise ValueError(
                f"need one rng per row: got {len(rngs)} for batch {batch}"
            )
        noise = np.stack(
            [rng.standard_normal((1, self.action_dim))[0] for rng in rngs]
        )
        return np.tanh(mean + np.exp(log_std) * noise)

    def sample_np(
        self, obs: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Numpy-only sample + log-prob (for SAC target computation)."""
        mean, log_std = self.forward_np(obs)
        std = np.exp(log_std)
        noise = rng.standard_normal(mean.shape)
        pre_squash = mean + std * noise
        action = np.tanh(pre_squash)
        z = (pre_squash - mean) / std
        log_prob = np.sum(
            -0.5 * z * z - log_std - 0.5 * math.log(2.0 * math.pi), axis=-1
        )
        correction = 2.0 * (
            _LOG2 - pre_squash - np.logaddexp(0.0, -2.0 * pre_squash)
        )
        log_prob = log_prob - correction.sum(axis=-1)
        return action, log_prob


class QNetwork(Module):
    """Action-value critic ``Q(s, a)``."""

    def __init__(
        self,
        obs_dim: int,
        action_dim: int,
        hidden: tuple[int, ...] = (128, 128),
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.net = Mlp((obs_dim + action_dim, *hidden, 1), rng=rng)

    def __call__(self, obs: Tensor, action: Tensor) -> Tensor:
        """Q values, shape ``(n,)``."""
        joint = concat([obs, action], axis=-1)
        return self.net(joint).sum(axis=-1)

    def forward_np(self, obs: np.ndarray, action: np.ndarray) -> np.ndarray:
        joint = np.concatenate([obs, action], axis=-1)
        return self.net.forward_np(joint)[:, 0]
