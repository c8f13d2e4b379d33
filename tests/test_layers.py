"""Layer oracles: scalar reference implementations for the affine layer, the
LSTM cell, the BiLSTM, and the character CNN, plus dropout statistics."""

import math

import numpy as np
import pytest

from casetag.errors import ConfigError, InputError
from casetag.nn import (
    BiLSTM,
    CharCNN,
    Embedding,
    Linear,
    LSTMCell,
    Tensor,
    concat,
    cross_entropy,
    dropout,
    gradient_check,
    no_grad,
    prefixed,
    zeros,
)
from casetag.nn.tensor import _toposort

from cnn_oracle import per_token_cnn
from tape_oracles import lstm_step, stack


# -- scalar reference implementations (independent of the tensor engine) ----

def linear_ref(x, W, b):
    out = [0.0] * len(b)
    for o in range(len(b)):
        acc = b[o]
        for h in range(len(x)):
            acc += W[o][h] * x[h]
        out[o] = acc
    return out


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def lstm_step_ref(x, h, c, W_ih, W_hh, b):
    """Gate blocks i, f, g, o; scalar loops and math.* only."""
    H = len(h)
    gates = []
    for r in range(4 * H):
        acc = b[r]
        for k in range(len(x)):
            acc += W_ih[r][k] * x[k]
        for k in range(H):
            acc += W_hh[r][k] * h[k]
        gates.append(acc)
    h_new, c_new = [0.0] * H, [0.0] * H
    for j in range(H):
        i = _sig(gates[j])
        f = _sig(gates[H + j])
        g = math.tanh(gates[2 * H + j])
        o = _sig(gates[3 * H + j])
        c_new[j] = f * c[j] + i * g
        h_new[j] = o * math.tanh(c_new[j])
    return h_new, c_new


def lstm_run_ref(xs, W_ih, W_hh, b, reverse=False):
    H = len(W_hh[0])
    h, c = [0.0] * H, [0.0] * H
    outs = [None] * len(xs)
    order = range(len(xs) - 1, -1, -1) if reverse else range(len(xs))
    for t in order:
        h, c = lstm_step_ref(list(xs[t]), h, c, W_ih, W_hh, b)
        outs[t] = h
    return outs


def char_cnn_ref(chars, W, b, width):
    """Zero padding so every position produces an output; tanh; max over positions."""
    n, d = len(chars), len(chars[0])
    left = (width - 1) // 2
    padded = [[0.0] * d for _ in range(left)] + [list(r) for r in chars]
    padded += [[0.0] * d for _ in range(width - 1 - left)]
    F = len(b)
    out = [-math.inf] * F
    for pos in range(n):
        window = []
        for k in range(width):
            window.extend(padded[pos + k])
        for f in range(F):
            acc = b[f]
            for j in range(len(window)):
                acc += W[f][j] * window[j]
            out[f] = max(out[f], math.tanh(acc))
    return out


# -- linear ------------------------------------------------------------------

def test_linear_unit_basis_selects_column():
    rng = np.random.default_rng(0)
    lin = Linear(2, 2, rng)
    lin.W.data[:] = [[2.0, 3.0], [4.0, 5.0]]
    lin.b.data[:] = 0.0
    assert np.allclose(lin(Tensor([1.0, 0.0])).data, [2.0, 4.0])


def test_linear_zero_input_returns_bias():
    rng = np.random.default_rng(0)
    lin = Linear(3, 2, rng)
    lin.b.data[:] = [7.0, -1.0]
    assert np.allclose(lin(Tensor([0.0, 0.0, 0.0])).data, [7.0, -1.0])


def test_linear_matches_scalar_loop_oracle():
    rng = np.random.default_rng(42)
    H, O = 5, 3
    x = rng.normal(size=H)
    W = rng.normal(size=(O, H))
    b = rng.normal(size=O)
    lin = Linear(H, O, np.random.default_rng(0))
    lin.W.data[:] = W
    lin.b.data[:] = b
    got = lin(Tensor(x)).data
    want = linear_ref(list(x), W.tolist(), b.tolist())
    assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_linear_dimension_mismatch_names_both_shapes():
    lin = Linear(4, 2, np.random.default_rng(0))
    with pytest.raises(ConfigError) as err:
        lin(Tensor(np.ones(3)))
    assert "(3,)" in str(err.value) and "(2, 4)" in str(err.value)


def test_linear_gradient_check_tight():
    rng = np.random.default_rng(5)
    lin = Linear(4, 3, rng)
    x = Tensor(rng.normal(size=(2, 4)))
    labels = np.array([0, 2])
    report = gradient_check(lambda: cross_entropy(lin(x), labels), prefixed("lin", lin))
    assert report.max_error <= 1e-6


# -- lstm cell ----------------------------------------------------------------

def test_lstm_zero_params_zero_output():
    cell = LSTMCell(3, 2, np.random.default_rng(1))
    cell.W_ih.data[:] = 0.0
    cell.W_hh.data[:] = 0.0
    cell.b.data[:] = 0.0
    h, c = lstm_step(cell, Tensor([5.0, -2.0, 1.0]), zeros(2), zeros(2))
    assert np.all(h.data == 0.0) and np.all(c.data == 0.0)


def test_lstm_matches_scalar_reference():
    rng = np.random.default_rng(7)
    cell = LSTMCell(3, 2, rng)
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    c0 = rng.normal(size=2)
    h, c = lstm_step(cell, Tensor(x), Tensor(h0), Tensor(c0))
    h_ref, c_ref = lstm_step_ref(
        list(x), list(h0), list(c0),
        cell.W_ih.data.tolist(), cell.W_hh.data.tolist(), cell.b.data.tolist())
    assert np.allclose(h.data, h_ref, atol=1e-12, rtol=0)
    assert np.allclose(c.data, c_ref, atol=1e-12, rtol=0)
    assert np.all(np.abs(h.data) < 1.0)


def test_lstm_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    cell = LSTMCell(3, 2, rng)
    x = Tensor(rng.normal(size=3))
    h0, c0 = Tensor(rng.normal(size=2)), Tensor(rng.normal(size=2))
    w = rng.normal(size=2)

    def loss():
        h, c = lstm_step(cell, x, h0, c0)
        return (h * w).sum() + (c * c).sum()

    report = gradient_check(loss, prefixed("cell", cell))
    assert report.max_error <= 1e-4


# -- fused lstm run ------------------------------------------------------------

def step_oracle_run(cell, xs, reverse=False):
    """run() as a per-step tape: the hoisted projections xs @ W_ih.T + b,
    then one lstm_step() per position.  lstm_step() sums W_ih @ x + W_hh @ h
    + b; an identity W_ih and a zero b make that pre[t] + W_hh @ h exactly,
    since I @ v == v and v + 0 == v, which is the sum run() takes."""
    H = cell.hidden_dim
    proj = LSTMCell(4 * H, H, np.random.default_rng(0))
    proj.W_ih = Tensor(np.eye(4 * H))
    proj.W_hh = cell.W_hh
    proj.b = zeros((4 * H,))
    pre = xs @ cell.W_ih.T + cell.b
    h, c = zeros((H,)), zeros((H,))
    L = xs.shape[0]
    outs = [None] * L
    for t in (range(L - 1, -1, -1) if reverse else range(L)):
        h, c = lstm_step(proj, pre[t], h, c)
        outs[t] = h
    return stack(outs, axis=0)


def run_and_grads(run, cell, xs, w):
    for _, p in cell.named_params():
        p.grad = None
    xs.grad = None
    out = run(xs)
    (out * Tensor(w)).sum().backward()
    return [out.data, xs.grad] + [p.grad for _, p in cell.named_params()]


def perturbed_cell(in_dim, hidden, rng):
    cell = LSTMCell(in_dim, hidden, rng)
    for _, p in cell.named_params():
        p.data += rng.normal(0, 0.3, p.shape)
    return cell


# (50, 100) sums dW_hh's 400 rows in a block of 327 and a ragged one of 73;
# (228, 256) is the paper's tagger, 8 blocks of 128 rows
@pytest.mark.parametrize("in_dim,hidden", [(16, 24), (50, 100), (228, 256)])
@pytest.mark.parametrize("L", [1, 7, 40])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_run_matches_step_tape_bit_for_bit(in_dim, hidden, L, reverse):
    rng = np.random.default_rng(L + hidden)
    cell = perturbed_cell(in_dim, hidden, rng)
    xs = Tensor(rng.normal(size=(L, in_dim)), requires_grad=True)
    w = rng.normal(size=(L, hidden))
    fused = run_and_grads(lambda x: cell.run(x, reverse), cell, xs, w)
    oracle = run_and_grads(lambda x: step_oracle_run(cell, x, reverse), cell, xs, w)
    for name, a, b in zip(["out", "xs", "W_ih", "W_hh", "b"], fused, oracle):
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("in_dim,hidden", [(50, 100), (228, 256)])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_run_adds_to_a_held_W_hh_gradient_bit_for_bit(in_dim, hidden, reverse):
    """W_hh.grad already holds a gradient when backward() runs, as when an
    earlier node of the tape has added to it: each step's product is added
    onto it, latest step first, as the per-step tape adds them."""
    rng = np.random.default_rng(hidden)
    cell = perturbed_cell(in_dim, hidden, rng)
    xs = Tensor(rng.normal(size=(7, in_dim)))
    w = Tensor(rng.normal(size=(7, hidden)))
    held = rng.normal(size=cell.W_hh.shape)
    grads = []
    for run in (lambda x: cell.run(x, reverse), lambda x: step_oracle_run(cell, x, reverse)):
        cell.W_hh.grad = held.copy()
        (run(xs) * w).sum().backward()
        grads.append(cell.W_hh.grad)
    assert np.array_equal(grads[0], grads[1])
    assert not np.array_equal(grads[0], held)


def test_lstm_run_honours_requires_grad_and_no_grad():
    rng = np.random.default_rng(5)
    cell = LSTMCell(3, 4, rng)
    xs = Tensor(rng.normal(size=(6, 3)))
    (cell.run(xs, reverse=True) * Tensor(rng.normal(size=(6, 4)))).sum().backward()
    assert xs.grad is None
    assert all(p.grad is not None for _, p in cell.named_params())
    with no_grad():
        out = cell.run(Tensor(xs.data, requires_grad=True))
    assert not out.requires_grad and out._parents == () and out._backward is None


def test_lstm_run_keeps_activations_only_when_recording(monkeypatch):
    cell = LSTMCell(3, 4, np.random.default_rng(6))
    xs = Tensor(np.random.default_rng(7).normal(size=(5, 3)))
    kept = []
    scan = LSTMCell._scan

    def recording_scan(runs, xs, saved=None):
        kept.append(saved)
        return scan(runs, xs, saved)

    monkeypatch.setattr(LSTMCell, "_scan", staticmethod(recording_scan))
    cell.run(xs)
    with no_grad():
        cell.run(xs)
    cell.W_ih.requires_grad = cell.W_hh.requires_grad = cell.b.requires_grad = False
    cell.run(xs)
    assert [k is None for k in kept] == [False, True, True]
    assert len(kept[0]) == 5


def test_lstm_reversed_run_gradient_check():
    rng = np.random.default_rng(17)
    cell = LSTMCell(3, 2, rng)
    xs = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 2)))

    def loss():
        return (cell.run(xs, reverse=True) * w).sum()

    report = gradient_check(loss, prefixed("cell", cell) + [("xs", xs)])
    assert report.max_error <= 1e-4


# -- bilstm ---------------------------------------------------------------------

def test_bilstm_length_one_concatenates_directions():
    rng = np.random.default_rng(2)
    bi = BiLSTM(3, 2, rng)
    x = Tensor(rng.normal(size=(1, 3)))
    out = bi(x)
    assert out.shape == (1, 4)
    hf, _ = lstm_step(bi.fwd, x[0], zeros(2), zeros(2))
    hb, _ = lstm_step(bi.bwd, x[0], zeros(2), zeros(2))
    assert np.allclose(out.data[0], np.concatenate([hf.data, hb.data]), atol=1e-12)


def test_bilstm_reversal_symmetry():
    rng = np.random.default_rng(3)
    bi = BiLSTM(3, 2, rng)
    flipped = BiLSTM(3, 2, np.random.default_rng(0))
    for (name, p), (_, q) in zip(prefixed("a", bi.fwd) + prefixed("a", bi.bwd),
                                 prefixed("a", flipped.bwd) + prefixed("a", flipped.fwd)):
        q.data[:] = p.data
    xs = rng.normal(size=(4, 3))
    out = bi(Tensor(xs)).data
    out_flipped = flipped(Tensor(xs[::-1].copy())).data
    H = 2
    swapped = np.concatenate([out_flipped[::-1, H:], out_flipped[::-1, :H]], axis=1)
    assert np.allclose(out, swapped, atol=1e-12)


def test_bilstm_matches_unrolled_scalar_oracle():
    rng = np.random.default_rng(13)
    bi = BiLSTM(3, 2, rng)
    xs = rng.normal(size=(4, 3))
    got = bi(Tensor(xs)).data
    fwd = lstm_run_ref(xs, bi.fwd.W_ih.data.tolist(), bi.fwd.W_hh.data.tolist(),
                       bi.fwd.b.data.tolist())
    bwd = lstm_run_ref(xs, bi.bwd.W_ih.data.tolist(), bi.bwd.W_hh.data.tolist(),
                       bi.bwd.b.data.tolist(), reverse=True)
    want = np.array([f + b for f, b in zip(fwd, bwd)])
    assert np.allclose(got, want, atol=1e-10, rtol=0)


def test_bilstm_rejects_empty_sequence():
    bi = BiLSTM(3, 2, np.random.default_rng(0))
    with pytest.raises(InputError):
        bi(Tensor(np.zeros((0, 3))))


# -- bilstm node ------------------------------------------------------------------

def bilstm_oracle(bi, xs):
    """The BiLSTM as two per-step tapes and a concat of their states."""
    return concat([step_oracle_run(bi.fwd, xs), step_oracle_run(bi.bwd, xs, reverse=True)],
                  axis=1)


def perturbed_bilstm(in_dim, hidden, rng):
    bi = BiLSTM(in_dim, hidden, rng)
    for _, p in bi.named_params():
        p.data += rng.normal(0, 0.3, p.shape)
    return bi


def bilstm_and_grads(forward, bi, xs, w, held=None):
    """The output and the gradients of xs and of the six parameters after one
    backward(); `held` maps parameter names to a gradient they start with
    instead of None."""
    for name, p in bi.named_params():
        start = (held or {}).get(name)
        p.grad = None if start is None else start.copy()
    xs.grad = None
    out = forward(xs)
    (out * Tensor(w)).sum().backward()
    return [out.data, xs.grad] + [p.grad for _, p in bi.named_params()]


BILSTM_GRADS = ["out", "xs", "fwd.W_ih", "fwd.W_hh", "fwd.b", "bwd.W_ih", "bwd.W_hh", "bwd.b"]


def assert_same_bits(fused, oracle):
    for name, a, b in zip(BILSTM_GRADS, fused, oracle):
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


# (3, 2) has gate blocks narrower than a SIMD register; (228, 256) is the
# paper's tagger, whose dW_hh sum runs over 8 row blocks
@pytest.mark.parametrize("in_dim,hidden", [(16, 24), (40, 24), (228, 256), (3, 2)])
@pytest.mark.parametrize("L", [1, 2, 7, 40])
def test_bilstm_node_matches_two_step_tapes_bit_for_bit(in_dim, hidden, L):
    rng = np.random.default_rng(3 * L + hidden)
    bi = perturbed_bilstm(in_dim, hidden, rng)
    xs = Tensor(rng.normal(size=(L, in_dim)), requires_grad=True)
    w = rng.normal(size=(L, 2 * hidden))
    w[rng.random(w.shape) < 0.2] = 0.0
    fused = bilstm_and_grads(bi, bi, xs, w)
    oracle = bilstm_and_grads(lambda x: bilstm_oracle(bi, x), bi, xs, w)
    assert all(a is not None for a in fused)
    assert_same_bits(fused, oracle)


@pytest.mark.parametrize("held", ["fwd.W_hh", "bwd.W_hh"])
def test_bilstm_node_adds_to_a_W_hh_gradient_held_by_one_direction(held):
    rng = np.random.default_rng(len(held))
    bi = perturbed_bilstm(50, 100, rng)
    xs = Tensor(rng.normal(size=(7, 50)), requires_grad=True)
    w = rng.normal(size=(7, 200))
    start = rng.normal(size=(400, 100))
    fused = bilstm_and_grads(bi, bi, xs, w, {held: start})
    oracle = bilstm_and_grads(lambda x: bilstm_oracle(bi, x), bi, xs, w, {held: start})
    assert_same_bits(fused, oracle)
    assert not np.array_equal(fused[BILSTM_GRADS.index(held)], start)


def test_bilstm_node_leaves_an_input_without_requires_grad_alone():
    rng = np.random.default_rng(8)
    bi = perturbed_bilstm(5, 4, rng)
    xs = Tensor(rng.normal(size=(6, 5)))
    w = rng.normal(size=(6, 8))
    fused = bilstm_and_grads(bi, bi, xs, w)
    oracle = bilstm_and_grads(lambda x: bilstm_oracle(bi, x), bi, xs, w)
    assert fused[1] is None
    assert_same_bits(fused, oracle)


@pytest.mark.parametrize("frozen", [("fwd",), ("bwd",), ("fwd", "bwd")])
def test_bilstm_node_with_frozen_cells(frozen):
    rng = np.random.default_rng(len(frozen))
    bi = perturbed_bilstm(5, 4, rng)
    for name, p in bi.named_params():
        p.requires_grad = name.split(".")[0] not in frozen
    xs = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    w = rng.normal(size=(6, 8))
    fused = bilstm_and_grads(bi, bi, xs, w)
    oracle = bilstm_and_grads(lambda x: bilstm_oracle(bi, x), bi, xs, w)
    assert_same_bits(fused, oracle)
    assert [g is None for g in fused[2:]] == [n.split(".")[0] in frozen for n in BILSTM_GRADS[2:]]
    xs.requires_grad = False
    if len(frozen) == 2:
        assert not bi(xs).requires_grad


def test_bilstm_node_records_nothing_under_no_grad():
    rng = np.random.default_rng(9)
    bi = perturbed_bilstm(3, 4, rng)
    xs = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    with no_grad():
        out = bi(xs)
    assert not out.requires_grad and out._parents == () and out._backward is None
    assert np.array_equal(out.data, bi(xs).data)


def test_bilstm_is_one_tape_node_per_call():
    rng = np.random.default_rng(10)
    bi = perturbed_bilstm(3, 4, rng)
    xs = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    out = bi(xs)
    params = [p for _, p in bi.named_params()]
    assert out._parents == (xs, *params)
    assert [node for node in _toposort(out) if node._parents] == [out]


def test_bilstm_node_gradient_check():
    rng = np.random.default_rng(19)
    bi = BiLSTM(3, 2, rng)
    xs = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 4)))
    report = gradient_check(lambda: (bi(xs) * w).sum(), prefixed("bi", bi) + [("xs", xs)])
    assert report.max_error <= 1e-4


# -- char cnn --------------------------------------------------------------------

def test_char_cnn_single_char_is_single_window():
    rng = np.random.default_rng(4)
    cnn = CharCNN(3, 5, 3, rng)
    c = rng.normal(size=(1, 3))
    got = cnn(Tensor(c), [(0, 1)]).data
    want = char_cnn_ref(c.tolist(), cnn.W.data.tolist(), cnn.b.data.tolist(), 3)
    assert np.allclose(got, [want], atol=1e-12)


def test_char_cnn_zero_filters_zero_output():
    cnn = CharCNN(3, 4, 3, np.random.default_rng(0))
    cnn.W.data[:] = 0.0
    cnn.b.data[:] = 0.0
    out = cnn(Tensor(np.random.default_rng(1).normal(size=(6, 3))), [(0, 2), (3, 6)])
    assert out.shape == (2, 4) and np.all(out.data == 0.0)


def test_char_cnn_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    cnn = CharCNN(4, 6, 3, rng)
    chars = rng.normal(size=(9, 4))
    spans = [(0, 5), (6, 7), (8, 9)]
    got = cnn(Tensor(chars), spans).data
    want = [char_cnn_ref(chars[a:b].tolist(), cnn.W.data.tolist(), cnn.b.data.tolist(), 3)
            for a, b in spans]
    assert np.allclose(got, want, atol=1e-10, rtol=0)


def test_char_cnn_gradient_check():
    rng = np.random.default_rng(21)
    cnn = CharCNN(3, 4, 3, rng)
    chars = Tensor(rng.normal(size=(5, 3)))
    w = rng.normal(size=4)
    report = gradient_check(lambda: (cnn(chars, [(0, 5)]) * w).sum(), prefixed("cnn", cnn))
    assert report.max_error <= 1e-4


def cnn_and_grads(forward, cnn, chars, w):
    for _, p in cnn.named_params():
        p.grad = None
    chars.grad = None
    out = forward(chars)
    (out * Tensor(w)).sum().backward()
    return [out.data, chars.grad, cnn.W.grad, cnn.b.grad]


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_char_cnn_sentence_node_matches_per_token_tape(width):
    """One node over a sentence of 1-8 tokens of 1-11 characters, the rows of
    the joining spaces included, against a tape of one CNN per token."""
    rng = np.random.default_rng(width)
    for _ in range(12):
        in_dim, filters = (int(k) for k in rng.integers(1, 7, size=2))
        cnn = CharCNN(in_dim, filters, width, rng)
        cnn.b.data += rng.normal(size=filters)
        spans, start = [], 0
        for length in rng.integers(1, 12, size=int(rng.integers(1, 9))):
            spans.append((start, start + int(length)))
            start += int(length) + 1
        chars = Tensor(rng.normal(size=(start - 1, in_dim)), requires_grad=True)
        w = rng.normal(size=(len(spans), filters))
        fused = cnn_and_grads(lambda c: cnn(c, spans), cnn, chars, w)
        oracle = cnn_and_grads(lambda c: per_token_cnn(cnn, c, spans), cnn, chars, w)
        for name, a, b in zip(["out", "chars", "W", "b"], fused, oracle):
            assert np.allclose(a, b, atol=1e-12, rtol=0), name
        assert not fused[1][[start for _, start in spans[:-1]]].any()  # joining spaces


def test_char_cnn_tied_maximum_takes_the_first_position():
    """Repeated characters tie at the maximum; as Tensor.max does, the first
    of them gets the gradient."""
    rng = np.random.default_rng(23)
    cnn = CharCNN(3, 4, 1, rng)
    x, y = rng.normal(size=(2, 3))
    chars = Tensor(np.array([x, x, y, y, x, x]), requires_grad=True)
    spans = [(0, 3), (4, 6)]
    w = rng.normal(size=(2, 4))
    fused = cnn_and_grads(lambda c: cnn(c, spans), cnn, chars, w)
    oracle = cnn_and_grads(lambda c: per_token_cnn(cnn, c, spans), cnn, chars, w)
    for name, a, b in zip(["out", "chars", "W", "b"], fused, oracle):
        assert np.allclose(a, b, atol=1e-12, rtol=0), name
    assert not fused[1][[1, 5]].any()


def test_char_cnn_sentence_gradient_check():
    rng = np.random.default_rng(22)
    cnn = CharCNN(3, 4, 3, rng)
    chars = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
    spans = [(0, 1), (2, 6), (7, 9), (9, 10)]
    w = Tensor(rng.normal(size=(4, 4)))
    report = gradient_check(lambda: (cnn(chars, spans) * w).sum(),
                            prefixed("cnn", cnn) + [("chars", chars)])
    assert report.max_error <= 1e-4


def test_char_cnn_rejects_an_empty_token():
    cnn = CharCNN(3, 4, 3, np.random.default_rng(0))
    chars = Tensor(np.ones((3, 3)))
    for spans in ([], [(0, 3), (3, 3)]):
        with pytest.raises(InputError):
            cnn(chars, spans)


# -- embedding --------------------------------------------------------------------

def test_embedding_rows_and_scatter_grad():
    rng = np.random.default_rng(6)
    emb = Embedding(5, 3, rng)
    ids = np.array([1, 1, 4])
    out = emb(ids)
    assert np.allclose(out.data, emb.table.data[ids])
    out.sum().backward()
    expected = np.zeros_like(emb.table.data)
    expected[1] = 2.0
    expected[4] = 1.0
    assert np.allclose(emb.table.grad, expected)


# -- dropout ----------------------------------------------------------------------

def test_dropout_rate_zero_and_eval_are_identity():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert dropout(x, 0.0, np.random.default_rng(0), train=True) is x
    assert dropout(x, 0.9, None, train=False) is x


def test_dropout_rejects_rate_one():
    with pytest.raises(ConfigError):
        dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0), train=True)


def test_dropout_statistics():
    x = Tensor(np.ones(10 ** 6))
    out = dropout(x, 0.25, np.random.default_rng(1), train=True).data
    zero_fraction = float(np.mean(out == 0.0))
    assert abs(out.mean() - 1.0) <= 0.01
    assert abs(zero_fraction - 0.25) <= 0.0025
    survivors = out[out != 0.0]
    assert np.allclose(survivors, 1.0 / 0.75)
