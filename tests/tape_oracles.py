"""Per-op tape references: the oracles that tests hold the fused nodes
against.

Each function records one tape node per operation, built on `_result` like
the general ops of casetag.nn.tensor; no product path records these ops.

- `lstm_step` is one LSTM timestep; the tests hold `LSTMCell.run` against a
  loop of it, bit for bit.
- `tanh`, `sigmoid`, `max_over` and `stack` are the pointwise, reduction
  and shape ops that it and the per-token char CNN (cnn_oracle.py) use.
- `tape_cross_entropy` is log-softmax, a pick of each row's label, sum,
  times 1/n and negation; the tests hold the fused `cross_entropy` against
  it, bit for bit.
"""

from typing import Sequence

import numpy as np

from casetag.nn import LSTMCell, Tensor, sigmoid_np
from casetag.nn.tensor import _result, log_softmax_np


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)
    out = _result(y, (t,))
    if out.requires_grad:
        def bw(g, a=t, y=y):
            a._accumulate(g * (1.0 - y * y))
        out._backward = bw
    return out


def sigmoid(t: Tensor) -> Tensor:
    s = sigmoid_np(t.data)
    out = _result(s, (t,))
    if out.requires_grad:
        def bw(g, a=t, s=s):
            a._accumulate(g * s * (1.0 - s))
        out._backward = bw
    return out


def max_over(t: Tensor, axis: int) -> Tensor:
    """Maximum along `axis`; the gradient goes to the first maximal position."""
    idx = np.argmax(t.data, axis=axis)
    out = _result(np.take_along_axis(t.data, np.expand_dims(idx, axis), axis).squeeze(axis), (t,))
    if out.requires_grad:
        def bw(g, a=t, idx=idx, axis=axis):
            gz = np.zeros_like(a.data)
            np.put_along_axis(gz, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis)
            a._accumulate(gz)
        out._backward = bw
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = _result(np.stack([t.data for t in tensors], axis=axis), tensors)
    if out.requires_grad:
        def bw(g, ts=tensors, axis=axis):
            for i, t in enumerate(ts):
                if t.requires_grad:
                    t._accumulate(np.take(g, i, axis=axis))
        out._backward = bw
    return out


def lstm_step(cell: LSTMCell, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    """One timestep of `cell`: the new (h, c)."""
    H = cell.hidden_dim
    gates = cell.W_ih @ x + cell.W_hh @ h + cell.b
    i = sigmoid(gates[0:H])
    f = sigmoid(gates[H:2 * H])
    g = tanh(gates[2 * H:3 * H])
    o = sigmoid(gates[3 * H:4 * H])
    c_new = f * c + i * g
    h_new = o * tanh(c_new)
    return h_new, c_new


def log_softmax(t: Tensor) -> Tensor:
    """Row-wise log-softmax (along the last axis)."""
    ls = log_softmax_np(t.data)
    out = _result(ls, (t,))
    if out.requires_grad:
        soft = np.exp(ls)
        def bw(g, a=t, soft=soft):
            a._accumulate(g - soft * g.sum(axis=-1, keepdims=True))
        out._backward = bw
    return out


def tape_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the labels, one node per operation."""
    labels = np.asarray(labels)
    n = len(labels)
    picked = log_softmax(logits)[(np.arange(n), labels)]
    return -(picked.sum() * (1.0 / n))
