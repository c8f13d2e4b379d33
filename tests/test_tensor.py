"""Autodiff engine: op-level gradients against finite differences, softmax
contracts, how every node builder records, and the fused cross_entropy node
against its tape oracle, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casetag.crf import Crf, crf_nll
from casetag.errors import InputError, NumericError
from casetag.ner import EmbeddingTable
from casetag.nn import (BiLSTM, CharCNN, Linear, LSTMCell, Tensor, concat, cross_entropy,
                        no_grad, softmax_np)
from casetag.nn.tensor import _toposort

from crf_oracles import logsumexp, reshape
from tape_oracles import log_softmax, max_over, sigmoid, stack, tanh, tape_cross_entropy


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
    check_op(lambda ts: max_over(concat([ts[0], ts[1]], axis=1), axis=1).sum(), [a, b])
    check_op(lambda ts: stack([ts[0][0], ts[1][1]], axis=0).sum(), [a, b])


def test_pointwise_grads():
    a = rng.normal(size=(2, 3))
    check_op(lambda ts: tanh(ts[0]).sum(), [a])
    check_op(lambda ts: sigmoid(ts[0]).sum(), [a])


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


def test_grad_buffer_zero_fills_on_first_touch_only():
    t = Tensor(np.ones((2, 3)), requires_grad=True)
    buf = t._grad_buffer()
    assert buf is t.grad and np.array_equal(buf, np.zeros((2, 3))) and not np.signbit(buf).any()
    buf += 1.5
    assert t._grad_buffer() is buf and np.array_equal(buf, np.full((2, 3), 1.5))


def test_every_node_builder_records_only_under_grad_mode_with_a_recording_parent():
    r = np.random.default_rng(8)
    x, y, v = (Tensor(r.normal(size=shape), requires_grad=True) for shape in [(3, 3), (3, 3), 3])
    cell, bi, cnn, crf = LSTMCell(3, 2, r), BiLSTM(3, 2, r), CharCNN(3, 2, 2, r), Crf(3, r)
    table = EmbeddingTable.random(["a", "b"], 3, r)
    builders = {
        "add": lambda: x + v, "neg": lambda: -x, "mul": lambda: x * y, "matmul": lambda: x @ y,
        "getitem": lambda: x[np.array([0, 0, 2])], "T": lambda: x.T, "sum": lambda: x.sum(0),
        "concat": lambda: concat([x, y], axis=1), "stack": lambda: stack([x, y]),
        "cross_entropy": lambda: cross_entropy(x, [0, 2, 2]), "lstm_run": lambda: cell.run(x),
        "bilstm": lambda: bi(x), "char_cnn": lambda: cnn(x, [(0, 1), (2, 3)]),
        "crf_nll": lambda: crf_nll(x, [0, 1, 2], crf), "embedding": lambda: table(["a", "zz"]),
        "tanh": lambda: tanh(x), "sigmoid": lambda: sigmoid(x), "max_over": lambda: max_over(x, 0),
        "log_softmax": lambda: log_softmax(x), "logsumexp": lambda: logsumexp(x, axis=0),
        "reshape": lambda: reshape(x, (9,)),
    }
    recorded = {name: build() for name, build in builders.items()}
    with no_grad():
        silent = [(name, build()) for name, build in builders.items()]
    for t in [x, y, v] + [p for m in (cell, bi, cnn, crf, table) for _, p in m.named_params()]:
        t.requires_grad = False
    silent += [(name, build()) for name, build in builders.items()]
    for name, node in silent:
        assert recorded[name]._parents and recorded[name]._backward is not None, name
        assert not node.requires_grad and node._parents == () and node._backward is None, name
        assert np.array_equal(node.data, recorded[name].data), name


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
        return tanh(x @ w).sum().item()
    assert run() == run()


# -- the fused cross-entropy node ---------------------------------------------------

def ce_and_grad(ce, data, labels, scale):
    """The loss value and the logits gradient; the upstream gradient is
    `scale`, as `aux * aux_weight` scales the auxiliary loss's."""
    logits = Tensor(data.copy(), requires_grad=True)
    loss = ce(logits, labels)
    (loss if scale == 1.0 else loss * scale).backward()
    return loss.data, logits.grad


@pytest.mark.parametrize("classes", [2, 3])
@pytest.mark.parametrize("scale", [1.0, 0.3, 2.5, 0.0])
def test_cross_entropy_matches_tape_bit_for_bit(classes, scale):
    # (-g) * (1/n) and -(g/n) round apart for g = 0.3 at n = 7 and 13, and
    # for g = 2.5 at n = 3 and 7
    r = np.random.default_rng(classes)
    for n in [1, 1, 2, 3, 7, 13, 40] * 10:
        data = r.normal(0.0, r.choice([0.1, 1.0, 30.0]), size=(n, classes))
        labels = r.integers(0, classes, size=n)  # labels repeat across rows
        value, grad = ce_and_grad(cross_entropy, data, labels, scale)
        want_value, want_grad = ce_and_grad(tape_cross_entropy, data, labels, scale)
        assert np.array_equal(value, want_value)
        assert np.array_equal(grad, want_grad)


def test_cross_entropy_records_one_node_and_none_under_no_grad():
    r = np.random.default_rng(4)
    lin = Linear(3, 2, r)
    x = Tensor(r.normal(size=(6, 3)))
    logits = lin(x)
    loss = cross_entropy(logits, r.integers(0, 2, size=6))
    assert _toposort(loss) == _toposort(logits) + [loss]
    assert loss._parents == (logits,)
    with no_grad():
        loss = cross_entropy(lin(x), r.integers(0, 2, size=6))
    assert not loss.requires_grad and loss._parents == () and loss._backward is None


@pytest.mark.parametrize("shape,labels", [
    ((3, 2), [0, 1]), ((3, 2), [0, 1, 0, 1]), ((3, 2), [[0, 1, 0]]), ((3, 2), 1),
    ((3,), [0, 1, 0]),  # a single row of logits is still (1, classes)
])
def test_cross_entropy_rejects_a_label_count_unlike_the_rows(shape, labels):
    with pytest.raises(InputError):
        cross_entropy(Tensor(np.zeros(shape), requires_grad=True), labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cross_entropy_rejects_non_finite_logits(bad):
    with pytest.raises(NumericError):
        cross_entropy(Tensor([[bad, 0.0], [1.0, 2.0]], requires_grad=True), [0, 1])
