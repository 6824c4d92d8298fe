"""Gradient-correctness tests for the autodiff engine.

Every op is validated against central finite differences, plus a few
hypothesis property tests on broadcasting and accumulation.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.nn.autograd import Tensor, concat, gaussian_log_prob, minimum


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=float)
    flat = grad.ravel()
    x_flat = x.ravel()
    for i in range(x.size):
        original = x_flat[i]
        x_flat[i] = original + eps
        up = fn(x.reshape(x.shape))
        x_flat[i] = original - eps
        down = fn(x.reshape(x.shape))
        x_flat[i] = original
        flat[i] = (up - down) / (2.0 * eps)
    return grad


def check_op(op, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autodiff and numeric gradients for ``scalar = op(x).sum()``."""
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t).sum()
    out.backward()

    def scalar_fn(arr):
        return float(op(Tensor(arr)).sum().data)

    expected = numeric_grad(scalar_fn, x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


RNG = np.random.default_rng(7)
X = RNG.normal(size=(4, 3))


class TestElementwiseGradients:
    def test_add_scalar(self):
        check_op(lambda t: t + 3.0, X)

    def test_mul_scalar(self):
        check_op(lambda t: t * -2.5, X)

    def test_neg(self):
        check_op(lambda t: -t, X)

    def test_sub(self):
        check_op(lambda t: 5.0 - t, X)

    def test_pow(self):
        check_op(lambda t: t ** 3.0, X)

    def test_div(self):
        check_op(lambda t: t / 2.0, X)

    def test_rdiv(self):
        check_op(lambda t: 1.0 / t, X + 3.0)

    def test_tanh(self):
        check_op(lambda t: t.tanh(), X)

    def test_relu(self):
        check_op(lambda t: t.relu(), X + 0.01)

    def test_exp(self):
        check_op(lambda t: t.exp(), X)

    def test_log(self):
        check_op(lambda t: t.log(), np.abs(X) + 0.5)

    def test_softplus(self):
        check_op(lambda t: t.softplus(), X * 3.0)

    def test_softplus_saturated_gradient_is_finite_and_silent(self):
        t = Tensor(np.array([-1000.0, 1000.0]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t.softplus().sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0])

    def test_abs(self):
        check_op(lambda t: t.abs(), X + 0.01)

    def test_clip_inside_and_outside(self):
        check_op(lambda t: t.clip(-0.5, 0.5), X)

    def test_chained_expression(self):
        check_op(lambda t: ((t * 2.0).tanh() + t.exp() * 0.1) ** 2.0, X)


class TestMatmulAndReductions:
    def test_matmul_left(self):
        w = RNG.normal(size=(3, 2))
        check_op(lambda t: t @ Tensor(w), X)

    def test_matmul_right(self):
        a = RNG.normal(size=(2, 4))
        check_op(lambda t: Tensor(a) @ t, X)

    def test_mean(self):
        check_op(lambda t: t.mean(), X)

    def test_sum_axis(self):
        check_op(lambda t: t.sum(axis=0), X)

    def test_mean_axis_keepdims(self):
        check_op(lambda t: t.mean(axis=1, keepdims=True) * 2.0, X)

    def test_broadcast_add(self):
        bias = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        t = Tensor(X.copy(), requires_grad=True)
        (t + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 4.0))
        np.testing.assert_allclose(t.grad, np.ones_like(X))

    def test_broadcast_mul_grad(self):
        scale = RNG.normal(size=(1, 3))

        def op(t):
            return t * Tensor(scale)

        check_op(op, X)


class TestMinimumConcat:
    def test_minimum_grad_routing(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        minimum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])

    def test_minimum_tie_splits(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        minimum(a, b).sum().backward()
        assert a.grad[0] == pytest.approx(0.5)
        assert b.grad[0] == pytest.approx(0.5)

    def test_concat_grads(self):
        a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        out = concat([a, b], axis=-1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * 3.0 + t * 4.0).sum().backward()
        assert t.grad[0] == pytest.approx(7.0)

    def test_detach_stops_gradient(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t.detach() * 3.0).sum().backward()
        assert t.grad is None

    def test_backward_requires_scalar(self):
        t = Tensor(X.copy(), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_diamond_graph(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        a = t * 2.0
        (a * a).sum().backward()  # d/dt (2t)^2 = 8t = 24
        assert t.grad[0] == pytest.approx(24.0)

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_pow_requires_scalar_exponent(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(TypeError):
            t ** np.ones(2)

    @given(st.integers(1, 5), st.integers(1, 4))
    @settings(max_examples=20)
    def test_shapes_preserved(self, n, m):
        data = np.ones((n, m))
        t = Tensor(data, requires_grad=True)
        (t.tanh() * 2.0).sum().backward()
        assert t.grad.shape == (n, m)


class TestGaussianLogProb:
    def test_standard_normal_at_zero(self):
        x = Tensor(np.zeros((1, 1)))
        mean = Tensor(np.zeros((1, 1)))
        log_std = Tensor(np.zeros((1, 1)))
        lp = gaussian_log_prob(x, mean, log_std)
        assert lp.data[0] == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_matches_scipy(self):
        from scipy import stats

        x = RNG.normal(size=(5, 2))
        mean = RNG.normal(size=(5, 2))
        log_std = RNG.normal(size=(5, 2)) * 0.3
        lp = gaussian_log_prob(Tensor(x), Tensor(mean), Tensor(log_std))
        expected = stats.norm.logpdf(x, mean, np.exp(log_std)).sum(axis=1)
        np.testing.assert_allclose(lp.data, expected, atol=1e-10)

    def test_gradient_wrt_mean(self):
        x = RNG.normal(size=(3, 2))
        log_std = RNG.normal(size=(3, 2)) * 0.1

        def op(t):
            return gaussian_log_prob(Tensor(x), t, Tensor(log_std))

        check_op(op, RNG.normal(size=(3, 2)))
