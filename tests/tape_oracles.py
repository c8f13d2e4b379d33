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
    return _result(y, (t,), lambda g: t._accumulate(g * (1.0 - y * y)))


def sigmoid(t: Tensor) -> Tensor:
    s = sigmoid_np(t.data)
    return _result(s, (t,), lambda g: t._accumulate(g * s * (1.0 - s)))


def max_over(t: Tensor, axis: int) -> Tensor:
    """Maximum along `axis`; the gradient goes to the first maximal position."""
    idx = np.expand_dims(np.argmax(t.data, axis=axis), axis)

    def bw(g):
        gz = np.zeros_like(t.data)
        np.put_along_axis(gz, idx, np.expand_dims(g, axis), axis)
        t._accumulate(gz)
    return _result(np.take_along_axis(t.data, idx, axis).squeeze(axis), (t,), bw)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)

    def bw(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))
    return _result(np.stack([t.data for t in tensors], axis=axis), tensors, bw)


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
    return _result(ls, (t,),
                   lambda g: t._accumulate(g - np.exp(ls) * g.sum(axis=-1, keepdims=True)))


def tape_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the labels, one node per operation."""
    labels = np.asarray(labels)
    n = len(labels)
    picked = log_softmax(logits)[(np.arange(n), labels)]
    return -(picked.sum() * (1.0 / n))
