"""Neural-network modules built on the autodiff core."""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.rl.nn import autograd
from repro.rl.nn.autograd import Tensor


class Module:
    """Base class: parameter registration and checkpoint (de)serialization."""

    def parameters(self) -> list[Tensor]:
        """All trainable tensors, discovered recursively."""
        params: list[Tensor] = []
        for value in self.__dict__.values():
            params.extend(_collect(value))
        return params

    def named_parameters(self) -> dict[str, Tensor]:
        """Stable ``name -> tensor`` mapping for checkpoints."""
        named: dict[str, Tensor] = {}
        for key, value in self.__dict__.items():
            for suffix, tensor in _collect_named(value):
                named[f"{key}{suffix}"] = tensor
        return named

    def state_dict(self) -> dict[str, np.ndarray]:
        return {
            name: tensor.data.copy()
            for name, tensor in self.named_parameters().items()
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        missing = set(named) - set(state)
        extra = set(state) - set(named)
        if missing or extra:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        for name, tensor in named.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != tensor.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {tensor.data.shape}"
                )
            tensor.data = value.copy()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def freeze(self) -> None:
        """Mark all parameters non-trainable (used for PNN column 1)."""
        for param in self.parameters():
            param.requires_grad = False

    def trainable_parameters(self) -> list[Tensor]:
        return [p for p in self.parameters() if p.requires_grad]

    @contextmanager
    def frozen(self) -> Iterator[None]:
        """Graphs recorded inside take no gradient into this module's
        parameters (a later ``backward`` still flows through them)."""
        params = self.trainable_parameters()
        for param in params:
            param.requires_grad = False
        try:
            yield
        finally:
            for param in params:
                param.requires_grad = True


def _collect(value) -> list[Tensor]:
    if isinstance(value, Tensor):
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Tensor] = []
        for item in value:
            out.extend(_collect(item))
        return out
    return []


def _collect_named(value, prefix: str = "") -> list[tuple[str, Tensor]]:
    if isinstance(value, Tensor):
        return [(prefix, value)]
    if isinstance(value, Module):
        return [
            (f"{prefix}.{name}", tensor)
            for name, tensor in value.named_parameters().items()
        ]
    if isinstance(value, (list, tuple)):
        out: list[tuple[str, Tensor]] = []
        for index, item in enumerate(value):
            out.extend(_collect_named(item, f"{prefix}.{index}"))
        return out
    return []


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with orthogonal-ish init."""

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator | None = None,
        scale: float | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        limit = scale if scale is not None else math.sqrt(2.0 / in_dim)
        self.weight = Tensor(
            rng.normal(0.0, limit, size=(in_dim, out_dim)), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.data.shape[1]


Activation = Callable[[Tensor], Tensor]


class InferencePlan:
    """Preallocated activation buffers for tape-free batched inference.

    One plan pins a ``[max_batch, width]`` output buffer per layer so a
    steady-state inference loop (policy rollouts, batched evaluation)
    performs zero allocations per forward: each layer's matmul writes into
    its buffer (``np.matmul(..., out=)``), the bias add and activation run
    in place, and the buffer is reused on the next call. Plans are
    per-network and not thread-safe; results are valid until the next
    forward that uses the same plan.
    """

    def __init__(self, widths: Sequence[int], max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self._buffers = [
            np.empty((self.max_batch, int(width))) for width in widths
        ]

    def out(self, index: int, batch: int) -> np.ndarray:
        """The ``[batch, width]`` output view for layer ``index``."""
        return self._buffers[index][:batch]

    def fits(self, batch: int) -> bool:
        return batch <= self.max_batch


def relu(x: Tensor) -> Tensor:
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


class Mlp(Module):
    """A feed-forward stack of :class:`Linear` layers.

    Args:
        sizes: layer widths including input and output,
            e.g. ``(obs_dim, 128, 128, act_dim)``.
        activation: hidden-layer nonlinearity.
        output_activation: applied to the final layer (``None`` = linear).
    """

    def __init__(
        self,
        sizes: Sequence[int],
        activation: Activation = relu,
        output_activation: Activation | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        rng = rng or np.random.default_rng(0)
        self.layers = [
            Linear(a, b, rng=rng) for a, b in zip(sizes[:-1], sizes[1:])
        ]
        self.activation = activation
        self.output_activation = output_activation
        self.sizes = tuple(sizes)

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = self.activation(layer(x))
        x = self.layers[-1](x)
        if self.output_activation is not None:
            x = self.output_activation(x)
        return x

    def hidden_features(self, x: Tensor) -> list[Tensor]:
        """Activations after each hidden layer (PNN lateral sources)."""
        features = []
        for layer in self.layers[:-1]:
            x = self.activation(layer(x))
            features.append(x)
        return features

    def inference_plan(self, max_batch: int) -> InferencePlan:
        """Buffers for the fused :meth:`forward_np` path on this stack."""
        return InferencePlan(
            [layer.out_dim for layer in self.layers], max_batch
        )

    def forward_np(
        self, x: np.ndarray, plan: InferencePlan | None = None
    ) -> np.ndarray:
        """Fast inference path without building an autodiff graph.

        With ``plan`` (from :meth:`inference_plan`) and a 2-D or 3-D input
        whose rows (all but the last axis) fit, every Linear+activation
        pair runs fused into the plan's preallocated buffers — no per-call
        allocations, identical results (``np.matmul(out=)`` + in-place
        bias/activation compute the same ops as the allocating
        expressions). The returned array aliases the plan's last buffer
        and is only valid until the next planned call.
        """
        batch = math.prod(x.shape[:-1])
        hook = autograd.FLOP_HOOK
        if hook is not None:
            # One batched sweep over the whole stack: matmul + bias +
            # activation per layer, same bookkeeping as the taped path
            # (shared by the allocating and the fused plan path).
            for layer in self.layers:
                hook.matmul(batch, layer.in_dim, layer.out_dim)
                hook.elementwise("add_fwd", batch * layer.out_dim)
            for layer in self.layers[:-1]:
                hook.elementwise(
                    _activation_op(self.activation), batch * layer.out_dim
                )
            if self.output_activation is not None:
                hook.elementwise(
                    _activation_op(self.output_activation),
                    batch * self.layers[-1].out_dim,
                )
        if plan is not None and x.ndim in (2, 3) and plan.fits(batch):
            for index, layer in enumerate(self.layers):
                out = plan.out(index, batch).reshape(
                    x.shape[:-1] + (layer.out_dim,)
                )
                np.matmul(x, layer.weight.data, out=out)
                out += layer.bias.data
                activation = (
                    self.activation
                    if index < len(self.layers) - 1
                    else self.output_activation
                )
                if activation is not None:
                    _apply_np_inplace(activation, out)
                x = out
            return x
        for layer in self.layers[:-1]:
            x = x @ layer.weight.data + layer.bias.data
            x = _apply_np(self.activation, x)
        x = x @ self.layers[-1].weight.data + self.layers[-1].bias.data
        if self.output_activation is not None:
            x = _apply_np(self.output_activation, x)
        return x


def _activation_op(activation: Activation) -> str:
    if activation is relu:
        return "relu_fwd"
    if activation is tanh:
        return "tanh_fwd"
    return "activation_fwd"


def _apply_np(activation: Activation, x: np.ndarray) -> np.ndarray:
    if activation is relu:
        return np.maximum(x, 0.0)
    if activation is tanh:
        return np.tanh(x)
    return activation(Tensor(x)).data


def _apply_np_inplace(activation: Activation, x: np.ndarray) -> None:
    """In-place activation for the fused buffer path."""
    if activation is relu:
        np.maximum(x, 0.0, out=x)
    elif activation is tanh:
        np.tanh(x, out=x)
    else:
        x[...] = activation(Tensor(x)).data
