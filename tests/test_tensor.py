"""Autodiff engine: op-level gradients against finite differences, softmax
contracts."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casetag.errors import InputError, NumericError
from casetag.nn import (
    Tensor,
    concat,
    cross_entropy,
    log_softmax,
    no_grad,
    softmax_np,
    stack,
    zeros,
)


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build, arrays, tol=1e-7):
    """build(tensors) -> scalar Tensor; compares each input's grad with FD."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = build(tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        def f(t=t):
            with no_grad():
                return build([Tensor(x.data) for x in tensors]).item()
        fd = numeric_grad(f, t.data)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert np.allclose(got, fd, atol=tol), f"analytic {got} vs fd {fd}"


rng = np.random.default_rng(123)


def test_add_mul_grads():
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    check_op(lambda ts: ((ts[0] + ts[1]) * ts[0]).sum(), [a, b])


def test_broadcast_add_bias_grad():
    a, b = rng.normal(size=(3, 4)), rng.normal(size=4)
    check_op(lambda ts: ((ts[0] + ts[1]) * (ts[0] + ts[1])).sum(), [a, b])


def test_matmul_grads():
    A, B = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    check_op(lambda ts: (ts[0] @ ts[1]).sum(), [A, B])
    A, x = rng.normal(size=(3, 4)), rng.normal(size=4)
    check_op(lambda ts: ((ts[0] @ ts[1]) * (ts[0] @ ts[1])).sum(), [A, x])
    v, B = rng.normal(size=3), rng.normal(size=(3, 2))
    check_op(lambda ts: (ts[0] @ ts[1]).sum(), [v, B])


def test_getitem_scatter_grads():
    a = rng.normal(size=(4, 3))
    check_op(lambda ts: (ts[0][1:3] * ts[0][0:2]).sum(), [a])
    idx = np.array([0, 2, 2, 1])
    check_op(lambda ts: ts[0][idx].sum() + ts[0][(np.arange(3), np.array([0, 1, 1]))].sum(), [a])


def test_concat_stack_max_grads():
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    check_op(lambda ts: concat([ts[0], ts[1]], axis=1).max(axis=1).sum(), [a, b])
    check_op(lambda ts: stack([ts[0][0], ts[1][1]], axis=0).sum(), [a, b])


def test_pointwise_grads():
    a = rng.normal(size=(2, 3))
    check_op(lambda ts: ts[0].tanh().sum(), [a])
    check_op(lambda ts: ts[0].sigmoid().sum(), [a])


def test_cross_entropy_grad():
    a = rng.normal(size=(4, 3))
    labels = np.array([0, 2, 1, 1])
    check_op(lambda ts: cross_entropy(ts[0], labels), [a])


def test_backward_accumulates_shared_node():
    x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    y = x * x + x * x  # d/dx = 4x
    y.sum().backward()
    assert np.allclose(x.grad, 4 * x.data)


def test_backward_linear_sum_gives_input_rows():
    rng2 = np.random.default_rng(7)
    W = Tensor(rng2.normal(size=(3, 5)), requires_grad=True)
    x = Tensor(rng2.normal(size=5))
    (W @ x).sum().backward()
    assert np.array_equal(W.grad, np.tile(x.data, (3, 1)))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(InputError):
        (x * 2).backward()


def test_no_grad_builds_no_tape():
    w = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        out = (w * 2.0).sum()
    assert out.requires_grad is False
    out.backward()  # no tape: a silent no-op
    assert w.grad is None
    # a fresh graph outside the context still works
    (w.sum()).backward()
    assert np.all(w.grad == 1.0)


def test_softmax_trivial_values():
    assert np.allclose(softmax_np(np.array([0.0, 0.0])), [0.5, 0.5])
    assert np.allclose(softmax_np(np.array([np.log(2.0), 0.0])), [2 / 3, 1 / 3])


def test_softmax_extreme_logits_stable():
    out = softmax_np(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(NumericError):
        softmax_np(np.array([np.inf, 0.0]))
    with pytest.raises(NumericError):
        log_softmax(Tensor([np.nan, 0.0]))


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8),
       st.floats(min_value=-30, max_value=30))
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    base = softmax_np(np.array(logits))
    assert abs(base.sum() - 1.0) <= 1e-9
    assert np.all(base > 0)
    shifted = softmax_np(np.array(logits) + shift)
    assert np.allclose(base, shifted, atol=1e-9)


def test_log_softmax_grads():
    a = rng.normal(size=5)
    check_op(lambda ts: (log_softmax(ts[0]) * np.arange(5.0)).sum(), [a])


def test_forward_bit_reproducible():
    def run():
        r = np.random.default_rng(99)
        x = Tensor(r.normal(size=(4, 3)))
        w = Tensor(r.normal(size=(3, 2)))
        return (x @ w).tanh().sum().item()
    assert run() == run()
