"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small tape-based autodiff engine — the substrate that
replaces a GPU deep-learning framework for this reproduction. It supports
exactly the operations needed by SAC, behaviour cloning and progressive
networks: affine maps, pointwise nonlinearities, broadcasting arithmetic,
reductions, elementwise min, and concatenation.

Gradient correctness is verified against finite differences in
``tests/rl/test_autograd.py``.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np
from scipy.special import expit

ArrayLike = "np.ndarray | float | int"

#: FLOP-accounting hook — ``None`` (the default) means counting is off
#: and every op pays exactly one identity comparison. Set to the
#: process-wide :class:`repro.rl.nn.flops.FlopCounter` by its
#: ``enable()``; the ops below then report matmul / elementwise work.
FLOP_HOOK = None


def _matmul_dims(
    a_shape: tuple[int, ...], b_shape: tuple[int, ...]
) -> tuple[int, int, int]:
    """Effective ``(m, k, n)`` of ``a @ b`` (1-D operands rank-extended)."""
    k = a_shape[-1]
    m = 1
    for dim in a_shape[:-1]:
        m *= dim
    n = b_shape[-1] if len(b_shape) > 1 else 1
    return m, k, n


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum across axes that were expanded from size one.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    __array_priority__ = 100  # keep numpy from hijacking reflected ops

    def __init__(
        self,
        data: "ArrayLike",
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- graph bookkeeping ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients flow only into tensors that required one when the op
        that consumed them was recorded: constants, and nodes built from
        constants alone, get no ``.grad``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _lift(value: "ArrayLike | Tensor") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _needs(self, *others: "Tensor") -> bool:
        return self.requires_grad or any(o.requires_grad for o in others)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "ArrayLike | Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data
        if FLOP_HOOK is not None:
            FLOP_HOOK.elementwise("add_fwd", out_data.size)

        self_needs, other_needs = self.requires_grad, other.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self_needs:
                self._accumulate(grad)
            if other_needs:
                other._accumulate(grad)

        return Tensor(
            out_data,
            requires_grad=self._needs(other),
            _parents=(self, other),
            _backward=backward,
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor(
            -self.data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def __sub__(self, other: "ArrayLike | Tensor") -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: "ArrayLike | Tensor") -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: "ArrayLike | Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        self_needs, other_needs = self.requires_grad, other.requires_grad

        def backward(grad: np.ndarray) -> None:
            if self_needs:
                self._accumulate(grad * other.data)
            if other_needs:
                other._accumulate(grad * self.data)

        return Tensor(
            out_data,
            requires_grad=self._needs(other),
            _parents=(self, other),
            _backward=backward,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ArrayLike | Tensor") -> "Tensor":
        other = self._lift(other)
        return self * other ** -1.0

    def __rtruediv__(self, other: "ArrayLike | Tensor") -> "Tensor":
        return self._lift(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def __matmul__(self, other: "ArrayLike | Tensor") -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data
        if FLOP_HOOK is not None:
            FLOP_HOOK.matmul(*_matmul_dims(self.data.shape, other.data.shape))

        self_needs, other_needs = self.requires_grad, other.requires_grad

        def backward(grad: np.ndarray) -> None:
            if FLOP_HOOK is not None:
                FLOP_HOOK.matmul(
                    *_matmul_dims(self.data.shape, other.data.shape),
                    backward=True,
                    grad_a=self_needs,
                    grad_b=other_needs,
                )
            if self_needs:
                self._accumulate(grad @ other.data.T)
            if other_needs:
                other._accumulate(self.data.T @ grad)

        return Tensor(
            out_data,
            requires_grad=self._needs(other),
            _parents=(self, other),
            _backward=backward,
        )

    # -- nonlinearities -----------------------------------------------------------

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)
        if FLOP_HOOK is not None:
            FLOP_HOOK.elementwise("tanh_fwd", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if FLOP_HOOK is not None:
                FLOP_HOOK.elementwise("tanh_bwd", out_data.size)
            self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)
        if FLOP_HOOK is not None:
            FLOP_HOOK.elementwise("relu_fwd", out_data.size)

        def backward(grad: np.ndarray) -> None:
            if FLOP_HOOK is not None:
                FLOP_HOOK.elementwise("relu_bwd", out_data.size)
            self._accumulate(grad * (self.data > 0.0))

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))``."""
        out_data = np.logaddexp(0.0, self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * expit(self.data))

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data))

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is zero outside ``[low, high]``."""
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            inside = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * inside)

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    # -- reductions --------------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = np.asarray(grad)
            if axis is not None and not keepdims:
                expanded = np.expand_dims(expanded, axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return Tensor(
            out_data,
            requires_grad=self.requires_grad,
            _parents=(self,),
            _backward=backward,
        )

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = (
            self.data.size
            if axis is None
            else self.data.shape[axis]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- misc ----------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum; the gradient routes to the smaller input
    (split evenly on exact ties)."""
    out_data = np.minimum(a.data, b.data)
    a_needs, b_needs = a.requires_grad, b.requires_grad

    def backward(grad: np.ndarray) -> None:
        a_smaller = a.data < b.data
        b_smaller = b.data < a.data
        ties = a.data == b.data
        if a_needs:
            a._accumulate(grad * (a_smaller + 0.5 * ties))
        if b_needs:
            b._accumulate(grad * (b_smaller + 0.5 * ties))

    return Tensor(
        out_data,
        requires_grad=a_needs or b_needs,
        _parents=(a, b),
        _backward=backward,
    )


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (used by PNN lateral inputs)."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in tensors]

    def backward(grad: np.ndarray) -> None:
        for tensor, need, start, stop in zip(
            tensors, needs, offsets[:-1], offsets[1:]
        ):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            if need:
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor(
        out_data,
        requires_grad=any(needs),
        _parents=tuple(tensors),
        _backward=backward,
    )


GAUSSIAN_LOG_NORM = 0.5 * math.log(2.0 * math.pi)


def gaussian_log_prob(x: Tensor, mean: Tensor, log_std: Tensor) -> Tensor:
    """Per-dimension diagonal Gaussian log density, summed over the last axis."""
    std = log_std.exp()
    z = (x - mean) / std
    per_dim = -(z ** 2.0) * 0.5 - log_std - GAUSSIAN_LOG_NORM
    return per_dim.sum(axis=-1)
