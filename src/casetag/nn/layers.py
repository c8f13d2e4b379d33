"""Differentiable layers: embeddings, affine, LSTM, BiLSTM, char CNN, dropout.

Initialization: uniform ±sqrt(6/(fan_in+fan_out)) for matrices, zeros for
biases, forget-gate bias 1.0.  Every layer exposes named_params() with
stable identifiers used by the serialization container.

Each layer has one forward, which training and inference share: inference
runs it under no_grad, where it records no tape.  LSTMCell.run and CharCNN
are one tape node each, with hand-written backward passes.  A BiLSTM is one
LSTMCell.run over both of its cells: one loop carries a (2, H) state, the
forward cell's step t and the backward cell's step L-1-t side by side, so
the per-timestep Python overhead is paid once for the two directions.
"""

from __future__ import annotations

import numpy as np

from casetag.errors import ConfigError, InputError
from casetag.nn.tensor import DTYPE, Tensor, _records, _result, sigmoid_np, zeros

# elements of an LSTM's dW_hh summed per row block in its backward pass
OUTER_BLOCK = 32768


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

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ConfigError(
                f"linear layer expects inner dimension {self.in_dim}, "
                f"got input shape {x.shape} against weight shape {self.W.shape}")
        return x @ self.W.T + self.b

    def named_params(self):
        return [("W", self.W), ("b", self.b)]


class Embedding:
    """Row-lookup table; ids index rows of a (count, dim) matrix."""

    def __init__(self, count: int, dim: int, rng: np.random.Generator):
        self.table = glorot((count, dim), rng)

    def __call__(self, ids) -> Tensor:
        return self.table[np.asarray(ids, dtype=np.intp)]

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

    @staticmethod
    def _scan(runs: tuple, xs: np.ndarray, saved: list | None = None) -> np.ndarray:
        """The recurrence of the B cells of runs, each a (cell, reverse) pair,
        in one loop over numpy arrays; returns the (L, B, H) states in step
        order, so row t holds each cell's t-th step (position L-1-t for a
        reversed cell).  The input projections are hoisted out of the loop;
        each cell keeps its own W_hh @ h, and the gate arithmetic runs once
        over the (B, .) rows.  Given a list, appends to it, for each step,
        what the backward pass reads: the sigmoid of all 4H gate
        pre-activations (the candidate block's is unused), the candidate
        tanh, the cell state and its tanh."""
        H = runs[0][0].hidden_dim
        L, B = xs.shape[0], len(runs)
        pre = np.empty((L, B, 4 * H), dtype=DTYPE)
        for b, (cell, reverse) in enumerate(runs):
            p = xs @ cell.W_ih.data.T + cell.b.data
            pre[:, b] = p[::-1] if reverse else p
        h = np.zeros((B, H), dtype=DTYPE)
        c = np.zeros((B, H), dtype=DTYPE)
        gates = np.empty((B, 4 * H), dtype=DTYPE)
        # each cell's W_hh with its rows of h and of gates
        matvecs = [(cell.W_hh.data, h_b, gates_b)
                   for (cell, _), h_b, gates_b in zip(runs, h, gates)]
        states = np.empty((L, B, H), dtype=DTYPE)
        for t in range(L):
            for W, h_b, gates_b in matvecs:
                np.matmul(W, h_b, out=gates_b)
            np.add(pre[t], gates, out=gates)
            s = sigmoid_np(gates)
            g = np.tanh(gates[:, 2 * H:3 * H])
            c = s[:, H:2 * H] * c + s[:, 0:H] * g
            tc = np.tanh(c)
            np.multiply(s[:, 3 * H:4 * H], tc, out=h)
            states[t] = h
            if saved is not None:
                saved.append((s, g, c, tc))
        return states

    def run(self, xs: Tensor, reverse: bool = False, bwd: "LSTMCell | None" = None) -> Tensor:
        """Run over a (L, in_dim) sequence; returns (L, hidden_dim) states.
        Given a second cell bwd, runs this cell left to right and bwd right
        to left in the same loop, and returns the (L, 2 * hidden_dim) states
        of both, this cell's first; the two cells have the same dimensions.

        The whole run is one tape node whose backward is hand-written
        backpropagation through time.  Forward and backward compute the same
        floats, in the same order, as a tape of one node per operation and
        cell: the hoisted projections `pre = xs @ W_ih.T + b`, then at each
        step `pre[t] + W_hh @ h` and the gate operations (sigmoid of i, f, o,
        tanh of the candidate, c = f*c + i*g, h = o*tanh(c)).  So training is
        bit-identical to that tape.  Per-step activations are kept only when
        the node records a backward."""
        runs = ((self, reverse),) if bwd is None else ((self, False), (bwd, True))
        parents = (xs,) + tuple(p for cell, _ in runs for _, p in cell.named_params())
        saved = [] if _records(parents) else None
        states = self._scan(runs, xs.data, saved)
        W_ih = [cell.W_ih.data for cell, _ in runs]
        W_hh = [cell.W_hh.data for cell, _ in runs]

        def bw(g):
            dpres = self._bptt(runs, g, states, saved, W_hh)
            for (cell, _), W, dpre in zip(runs, W_ih, dpres):
                if xs.requires_grad:
                    xs._accumulate(dpre @ W)
                if cell.W_ih.requires_grad:
                    cell.W_ih._accumulate((xs.data.T @ dpre).T)
                if cell.b.requires_grad:
                    cell.b._accumulate(dpre.sum(axis=0))
        return _result(np.concatenate(
            [states[::-1, b] if rev else states[:, b] for b, (_, rev) in enumerate(runs)],
            axis=1), parents, bw)

    @staticmethod
    def _bptt(runs: tuple, g: np.ndarray, states: np.ndarray, saved: list,
              W_hh: list) -> list:
        """Each cell's gradient of its (L, 4H) gate pre-activations, in time
        order, from the gradient g of run()'s output, walking the steps of
        all cells in one loop; adds each cell's dW_hh into its W_hh.grad.
        Each product keeps the tape's grouping: sigmoid' is (g*s)*(1-s) and
        tanh' is g*(1-t*t)."""
        H = runs[0][0].hidden_dim
        L, B = states.shape[0], len(runs)
        S, G, C, TC = (np.array(a) for a in zip(*saved))
        gs = np.empty((L, B, H), dtype=DTYPE)
        for b, (_, reverse) in enumerate(runs):
            gb = g[:, b * H:(b + 1) * H]
            gs[:, b] = gb[::-1] if reverse else gb
        zero = np.zeros((1, B, H), dtype=DTYPE)
        # per gate block, the factor its upstream gradient is multiplied by
        # first: i <- dc*g, f <- dc*c_prev, candidate <- dc*i, o <- dh*tanh(c)
        first = np.concatenate([G, np.concatenate([zero, C[:-1]]), S[..., 0:H], TC], axis=2)
        # then s and (1-s) for the sigmoid blocks, 1 and (1-g*g) for the candidate
        second = S.copy()
        second[..., 2 * H:3 * H] = 1.0
        third = 1.0 - S
        third[..., 2 * H:3 * H] = 1.0 - G * G
        dtanh_c = 1.0 - TC * TC
        S_f, S_o = S[..., H:2 * H], S[..., 3 * H:]
        ds = np.empty((L, B, 4 * H), dtype=DTYPE)
        d = np.empty((B, 4 * H), dtype=DTYPE)
        dh_next = np.empty((B, H), dtype=DTYPE)
        # each cell's W_hh.T with its rows of d and of dh_next
        matvecs = [(W.T, d_b, dh_b) for W, d_b, dh_b in zip(W_hh, d, dh_next)]
        dc_next = None
        for k in range(L - 1, -1, -1):
            dh = gs[k] if dc_next is None else gs[k] + dh_next
            dc = (dh * S_o[k]) * dtanh_c[k]
            if dc_next is not None:
                dc = dc + dc_next
            np.concatenate((dc, dc, dc, dh), axis=1, out=d)
            d *= first[k]
            d *= second[k]
            d *= third[k]
            ds[k] = d
            if k:
                for W_T, d_b, dh_b in matvecs:
                    np.matmul(W_T, d_b, out=dh_b)
                dc_next = dc * S_f[k]
        dpres = []
        for b, (cell, reverse) in enumerate(runs):
            if cell.W_hh.requires_grad:
                cell._add_dW_hh(ds[:, b], np.concatenate([zero[:, b], states[:-1, b]]))
            # a contiguous copy, as each cell's gradient was when the cells ran
            # apart, so the matmuls of run()'s backward read the same layout
            dpres.append(np.ascontiguousarray(ds[::-1, b] if reverse else ds[:, b]))
        return dpres

    def _add_dW_hh(self, ds: np.ndarray, h_prev: np.ndarray) -> None:
        """Add the outer products of step k's gate gradient ds[k] and the state
        h_prev[k] it read into W_hh.grad, latest step first, as the per-step
        tape does.  The sum runs over one block of OUTER_BLOCK elements of the
        gradient at a time, so the block stays in cache across the L steps,
        and each element gets the same products added in the same order."""
        dW = self.W_hh._grad_buffer()
        H = self.hidden_dim
        rows = max(1, OUTER_BLOCK // H)
        scratch = np.empty((min(rows, 4 * H), H), dtype=DTYPE)
        for r in range(0, 4 * H, rows):
            block = dW[r:r + rows]
            prod = scratch[:block.shape[0]]
            for k in range(ds.shape[0] - 1, -1, -1):
                np.multiply(ds[k, r:r + rows, None], h_prev[k], out=prod)
                np.add(block, prod, out=block)

    def named_params(self):
        return [("W_ih", self.W_ih), ("W_hh", self.W_hh), ("b", self.b)]


class BiLSTM:
    """Concatenates forward and backward LSTM states per position, width
    2*hidden, as one tape node over both cells."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.fwd = LSTMCell(in_dim, hidden_dim, rng)
        self.bwd = LSTMCell(in_dim, hidden_dim, rng)

    def __call__(self, xs: Tensor) -> Tensor:
        if xs.shape[0] == 0:
            raise InputError("BiLSTM over an empty sequence")
        return self.fwd.run(xs, bwd=self.bwd)

    def named_params(self):
        out = [("fwd." + n, p) for n, p in self.fwd.named_params()]
        out += [("bwd." + n, p) for n, p in self.bwd.named_params()]
        return out


class CharCNN:
    """Width-w convolution over each token's characters, tanh, and a max over
    the token's positions: one (filters,) encoding per token."""

    def __init__(self, in_dim: int, filters: int, width: int, rng: np.random.Generator):
        if width < 1:
            raise ConfigError(f"kernel width must be >= 1, got {width}")
        self.in_dim = in_dim
        self.filters = filters
        self.width = width
        self.W = glorot((filters, width * in_dim), rng)
        self.b = zeros((filters,), requires_grad=True)

    def __call__(self, chars: Tensor, spans) -> Tensor:
        """(L, filters) encodings of the L tokens whose rows of the (n, in_dim)
        sentence matrix chars are spans[k] = (start, end), as one tape node.

        Each token's windows read only its own rows, zero-padded at its edges
        as if it stood alone, so rows between tokens (the joining spaces)
        never enter a window.  The gradient of each maximum goes to its first
        maximal position."""
        d = chars.shape[1]
        if d != self.in_dim:
            raise ConfigError(f"char CNN expects vectors of dim {self.in_dim}, got {d}")
        starts, ends = np.asarray(spans, dtype=np.intp).reshape(-1, 2).T
        lengths = ends - starts
        if not len(lengths) or lengths.min() < 1:
            raise InputError("char CNN over an empty character sequence")
        # the P positions of all tokens, token by token; token k's start at firsts[k]
        P = int(lengths.sum())
        firsts = np.cumsum(lengths) - lengths
        pos = np.arange(P) + np.repeat(starts - firsts, lengths)
        lo, hi = np.repeat(starts, lengths)[:, None], np.repeat(ends, lengths)[:, None]
        # the row of `padded` that each position's window slot reads; row 0 is zeros
        src = pos[:, None] + np.arange(self.width) - (self.width - 1) // 2
        src = np.where((src >= lo) & (src < hi), src + 1, 0)
        padded = np.concatenate([np.zeros((1, d), dtype=DTYPE), chars.data])
        windows = padded[src].reshape(P, self.width * d)
        W = self.W.data
        acts = np.tanh(windows @ W.T + self.b.data)  # (P, filters)

        def bw(g):
            dz = np.zeros_like(acts)
            cols = np.arange(self.filters)
            for first, length, gk in zip(firsts, lengths, g):
                dz[first + np.argmax(acts[first:first + length], axis=0), cols] = gk
            dz *= 1.0 - acts * acts
            if self.W.requires_grad:
                self.W._accumulate((windows.T @ dz).T)
            if self.b.requires_grad:
                self.b._accumulate(dz.sum(axis=0))
            if chars.requires_grad:
                dpadded = np.zeros_like(padded)
                np.add.at(dpadded, src, (dz @ W).reshape(P, self.width, d))
                chars._accumulate(dpadded[1:])
        return _result(np.maximum.reduceat(acts, firsts, axis=0), (chars, self.W, self.b), bw)

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
