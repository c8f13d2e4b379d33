"""Differentiable layers: embeddings, affine, LSTM, BiLSTM, char CNN, dropout.

Initialization: uniform ±sqrt(6/(fan_in+fan_out)) for matrices, zeros for
biases, forget-gate bias 1.0.  Every layer exposes named_params() with
stable identifiers used by the serialization container.

Each layer's infer() is its evaluation-mode forward on plain numpy arrays:
it records no tape and builds no Tensor, and runs the same float operations
in the same order as the Tensor forward, so the outputs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from casetag.errors import ConfigError, InputError
from casetag.nn.tensor import DTYPE, Tensor, _result, concat, sigmoid_np, zeros


def glorot(shape: tuple[int, int], rng: np.random.Generator) -> Tensor:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(DTYPE), requires_grad=True)


class Linear:
    """y = W x + b with W of shape (out_dim, in_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = glorot((out_dim, in_dim), rng)
        self.b = zeros((out_dim,), requires_grad=True)

    def _check(self, shape: tuple) -> None:
        if shape[-1] != self.in_dim:
            raise ConfigError(
                f"linear layer expects inner dimension {self.in_dim}, "
                f"got input shape {shape} against weight shape {self.W.shape}")

    def __call__(self, x: Tensor) -> Tensor:
        self._check(x.shape)
        return x @ self.W.T + self.b

    def infer(self, x: np.ndarray) -> np.ndarray:
        self._check(x.shape)
        return x @ self.W.data.T + self.b.data

    def named_params(self):
        return [("W", self.W), ("b", self.b)]


class Embedding:
    """Row-lookup table; ids index rows of a (count, dim) matrix."""

    def __init__(self, count: int, dim: int, rng: np.random.Generator):
        self.table = glorot((count, dim), rng)

    def __call__(self, ids) -> Tensor:
        return self.table[np.asarray(ids, dtype=np.intp)]

    def infer(self, ids) -> np.ndarray:
        return self.table.data[np.asarray(ids, dtype=np.intp)]

    def named_params(self):
        return [("table", self.table)]


class LSTMCell:
    """Standard gated cell; gate blocks ordered input, forget, candidate, output."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.W_ih = glorot((4 * hidden_dim, in_dim), rng)
        self.W_hh = glorot((4 * hidden_dim, hidden_dim), rng)
        b = np.zeros(4 * hidden_dim, dtype=DTYPE)
        b[hidden_dim:2 * hidden_dim] = 1.0
        self.b = Tensor(b, requires_grad=True)

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One timestep on the tape, one node per operation: the reference
        that the tests hold run()'s forward and backward against."""
        H = self.hidden_dim
        gates = self.W_ih @ x + self.W_hh @ h + self.b
        i = gates[0:H].sigmoid()
        f = gates[H:2 * H].sigmoid()
        g = gates[2 * H:3 * H].tanh()
        o = gates[3 * H:4 * H].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def _scan(self, xs: np.ndarray, reverse: bool, saved: list | None = None) -> np.ndarray:
        """The recurrence on numpy arrays, input projections hoisted out of
        the loop; returns the (L, H) states.  Given a list, appends to it, for
        each step in the order it ran, what the backward pass reads: the
        sigmoid of all 4H gate pre-activations (the candidate block's is
        unused), the candidate tanh, the cell state and its tanh.  Inference
        keeps none of them."""
        H = self.hidden_dim
        L = xs.shape[0]
        pre = xs @ self.W_ih.data.T + self.b.data
        W_hh = self.W_hh.data
        h = np.zeros(H, dtype=DTYPE)
        c = np.zeros(H, dtype=DTYPE)
        out = np.empty((L, H), dtype=DTYPE)
        for t in (range(L - 1, -1, -1) if reverse else range(L)):
            gates = pre[t] + W_hh @ h
            s = sigmoid_np(gates)
            g = np.tanh(gates[2 * H:3 * H])
            c = s[H:2 * H] * c + s[0:H] * g
            tc = np.tanh(c)
            h = s[3 * H:4 * H] * tc
            out[t] = h
            if saved is not None:
                saved.append((s, g, c, tc))
        return out

    def run(self, xs: Tensor, reverse: bool = False) -> Tensor:
        """Run over a (L, in_dim) sequence; returns (L, hidden_dim) states.

        The whole sequence is one tape node whose backward is hand-written
        backpropagation through time.  Forward and backward compute the same
        floats, in the same order, as a tape of one node per operation: the
        hoisted projections `pre = xs @ W_ih.T + b`, then at each step
        `pre[t] + W_hh @ h` and step()'s gate operations.  So training is
        bit-identical to that tape."""
        saved = []
        out = self._scan(xs.data, reverse, saved)
        node = _result(out, (xs, self.W_ih, self.W_hh, self.b))
        if node.requires_grad:
            W_ih, W_hh = self.W_ih.data, self.W_hh.data

            def bw(g):
                dpre = self._bptt(g, out, saved, W_hh, reverse)
                if xs.requires_grad:
                    xs._accumulate(dpre @ W_ih)
                if self.W_ih.requires_grad:
                    self.W_ih._accumulate((xs.data.T @ dpre).T)
                if self.b.requires_grad:
                    self.b._accumulate(dpre.sum(axis=0))
            node._backward = bw
        return node

    def _bptt(self, g: np.ndarray, out: np.ndarray, saved: list, W_hh: np.ndarray,
              reverse: bool) -> np.ndarray:
        """Gradient of the (L, 4H) gate pre-activations, in time order, from
        the gradient g of the states; adds dW_hh into W_hh.grad step by step,
        latest step first, as the per-step tape does.  Each product keeps the
        tape's grouping: sigmoid' is (g*s)*(1-s) and tanh' is g*(1-t*t)."""
        H = self.hidden_dim
        L = out.shape[0]
        S, G, C, TC = (np.stack(a) for a in zip(*saved))
        hs = out[::-1] if reverse else out
        gs = g[::-1] if reverse else g
        zero = np.zeros((1, H), dtype=DTYPE)
        # per gate block, the factor its upstream gradient is multiplied by
        # first: i <- dc*g, f <- dc*c_prev, candidate <- dc*i, o <- dh*tanh(c)
        first = np.concatenate([G, np.concatenate([zero, C[:-1]]), S[:, 0:H], TC], axis=1)
        # then s and (1-s) for the sigmoid blocks, 1 and (1-g*g) for the candidate
        second = S.copy()
        second[:, 2 * H:3 * H] = 1.0
        third = 1.0 - S
        third[:, 2 * H:3 * H] = 1.0 - G * G
        dtanh_c = 1.0 - TC * TC
        h_prev = np.concatenate([zero, hs[:-1]])
        dW_hh = None
        if self.W_hh.requires_grad:
            if self.W_hh.grad is None:
                self.W_hh.grad = np.zeros_like(self.W_hh.data)
            dW_hh = self.W_hh.grad
        dpre = np.empty((L, 4 * H), dtype=DTYPE)
        dh_next = dc_next = None
        for k in range(L - 1, -1, -1):
            dh = gs[k] if dh_next is None else gs[k] + dh_next
            dc = (dh * S[k, 3 * H:]) * dtanh_c[k]
            if dc_next is not None:
                dc = dc + dc_next
            d = np.concatenate((dc, dc, dc, dh)) * first[k] * second[k] * third[k]
            dpre[L - 1 - k if reverse else k] = d
            if dW_hh is not None:
                dW_hh += np.outer(d, h_prev[k])
            if k:
                dh_next = W_hh.T @ d
                dc_next = dc * S[k, H:2 * H]
        return dpre

    def infer(self, xs: np.ndarray, reverse: bool = False) -> np.ndarray:
        """run() without the tape."""
        return self._scan(xs, reverse)

    def named_params(self):
        return [("W_ih", self.W_ih), ("W_hh", self.W_hh), ("b", self.b)]


class BiLSTM:
    """Concatenates forward and backward LSTM states per position, width 2*hidden."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.fwd = LSTMCell(in_dim, hidden_dim, rng)
        self.bwd = LSTMCell(in_dim, hidden_dim, rng)

    def __call__(self, xs: Tensor) -> Tensor:
        if xs.shape[0] == 0:
            raise InputError("BiLSTM over an empty sequence")
        return concat([self.fwd.run(xs), self.bwd.run(xs, reverse=True)], axis=1)

    def infer(self, xs: np.ndarray) -> np.ndarray:
        if xs.shape[0] == 0:
            raise InputError("BiLSTM over an empty sequence")
        return np.concatenate([self.fwd.infer(xs), self.bwd.infer(xs, reverse=True)], axis=1)

    def named_params(self):
        out = [("fwd." + n, p) for n, p in self.fwd.named_params()]
        out += [("bwd." + n, p) for n, p in self.bwd.named_params()]
        return out


class CharCNN:
    """Width-w convolution over a (n, in_dim) character matrix, tanh, max over positions."""

    def __init__(self, in_dim: int, filters: int, width: int, rng: np.random.Generator):
        if width < 1:
            raise ConfigError(f"kernel width must be >= 1, got {width}")
        self.in_dim = in_dim
        self.filters = filters
        self.width = width
        self.W = glorot((filters, width * in_dim), rng)
        self.b = zeros((filters,), requires_grad=True)

    def _check(self, shape: tuple) -> None:
        if shape[0] == 0:
            raise InputError("char CNN over an empty character sequence")
        if shape[1] != self.in_dim:
            raise ConfigError(
                f"char CNN expects vectors of dim {self.in_dim}, got {shape[1]}")

    def __call__(self, chars: Tensor) -> Tensor:
        self._check(chars.shape)
        n = chars.shape[0]
        left = (self.width - 1) // 2
        right = self.width - 1 - left
        parts = []
        if left:
            parts.append(zeros((left, self.in_dim)))
        parts.append(chars)
        if right:
            parts.append(zeros((right, self.in_dim)))
        padded = concat(parts, axis=0) if len(parts) > 1 else chars
        windows = concat([padded[i:i + n] for i in range(self.width)], axis=1)  # (n, w*in_dim)
        acts = (windows @ self.W.T + self.b).tanh()  # (n, filters)
        return acts.max(axis=0)

    def infer(self, chars: np.ndarray) -> np.ndarray:
        self._check(chars.shape)
        n = chars.shape[0]
        left = (self.width - 1) // 2
        padded = np.pad(chars, ((left, self.width - 1 - left), (0, 0)))
        windows = np.concatenate([padded[i:i + n] for i in range(self.width)], axis=1)
        return np.tanh(windows @ self.W.data.T + self.b.data).max(axis=0)

    def named_params(self):
        return [("W", self.W), ("b", self.b)]


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: identity in eval mode, survivors scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout in train mode needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(DTYPE) / (1.0 - rate)
    return x * Tensor(mask)


def prefixed(prefix: str, layer) -> list[tuple[str, Tensor]]:
    return [(f"{prefix}.{name}", p) for name, p in layer.named_params()]
