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

Under no_grad an LSTM runs a list of sequences in one loop too, with an
(S, 2, H) state sorted longest first, so the overhead is paid once per batch
of sentences; every row gets the floats of its sentence run alone.
BiLSTM.map_batches cuts a model's sentences into such batches, bounded by
BATCH_ELEMENTS (length_batches).

The rest of a batched forward runs once per batch as well, over the rows of
all its sentences stacked: lookups, the char CNN's window indices, its tanh
and its max, and the bias additions.  Each is elementwise or a gather, so a
row's floats do not depend on the rows around it.  A gemm's do: the rows of
one product over stacked inputs can differ from those of the product over
one input.  So every gemm stays per sentence, on that sentence's contiguous
rows: the LSTM's input projections, the char CNN's windows @ W.T (CharCNN's
counts) and a Linear over a list.  split_rows and row_blocks cut stacked
rows back into sentences.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from casetag.errors import ConfigError, InputError
from casetag.nn.tensor import DTYPE, Tensor, _GradMode, _records, _result, sigmoid_np, zeros

# elements of an LSTM's dW_hh summed per row block in its backward pass
OUTER_BLOCK = 32768
# elements of the input projections of one batched BiLSTM scan (1 MiB)
BATCH_ELEMENTS = 131072


def glorot(shape: tuple[int, int], rng: np.random.Generator | None) -> Tensor:
    """A trainable matrix drawn uniformly from ±sqrt(6/(fan_in+fan_out));
    zeros without an rng, for a model whose parameters are loaded next."""
    if rng is None:
        return zeros(shape, requires_grad=True)
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(DTYPE), requires_grad=True)


class Linear:
    """y = W x + b with W of shape (out_dim, in_dim)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.W = glorot((out_dim, in_dim), rng)
        self.b = zeros((out_dim,), requires_grad=True)

    def __call__(self, x):
        """x @ W.T + b of one Tensor, as a tape node, or of each of a list of
        them, a list back.  A list of several is a constant: one gemm per
        item, each with the floats of its call alone, and one bias addition
        over all their rows, whose results are views of one array."""
        xs = [x] if isinstance(x, Tensor) else list(x)
        for item in xs:
            if item.shape[-1] != self.in_dim:
                raise ConfigError(
                    f"linear layer expects inner dimension {self.in_dim}, "
                    f"got input shape {item.shape} against weight shape {self.W.shape}")
        if len(xs) == 1:
            out = xs[0] @ self.W.T + self.b
            return out if isinstance(x, Tensor) else [out]
        if _records(tuple(xs) + (self.W, self.b)):
            raise InputError("a recorded linear layer takes one input; run a batch under no_grad")
        counts = [item.shape[0] for item in xs]
        stacked = np.empty((sum(counts), self.out_dim), dtype=DTYPE)
        W_T = self.W.data.T
        for block, item in zip(row_blocks(stacked, counts), xs):
            block[...] = item.data @ W_T
        stacked += self.b.data
        return [Tensor(block) for block in row_blocks(stacked, counts)]

    def named_params(self):
        return [("W", self.W), ("b", self.b)]


def row_blocks(a: np.ndarray, counts) -> list[np.ndarray]:
    """Views of the consecutive runs of counts[0], counts[1], ... rows of a."""
    ends = list(accumulate(counts))
    return [a[start:end] for start, end in zip([0] + ends[:-1], ends)]


def split_rows(x: Tensor, counts) -> list[Tensor]:
    """x cut into the consecutive runs of counts[0], counts[1], ... rows, for
    a layer that takes a list: [x] itself for one run, which keeps its tape,
    and otherwise constants over views of x, which need no_grad."""
    if len(counts) == 1:
        return [x]
    if _records((x,)):
        raise InputError("a recorded tensor cannot be split into constants; "
                         "run a batch under no_grad")
    return [Tensor(block) for block in row_blocks(x.data, counts)]


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
    def _scan(runs: tuple, xs: list, saved: list | None = None) -> np.ndarray:
        """The recurrence of the C cells of runs, each a (cell, reverse) pair,
        over the S sequences xs, sorted longest first, in one loop over numpy
        arrays.  Returns the (L, S, C, H) states in step order, L the longest
        length: row [t, s, c] holds cell c's t-th step over sequence s
        (position len-1-t for a reversed cell) for t < len(xs[s]), and later
        rows are left unset.

        The input projections are hoisted out of the loop, one matmul per
        sequence and cell.  Step t updates only the n sequences still
        running, the first n rows of the state; each cell's W_hh @ h is one
        stacked matmul over those rows, the same matrix-vector product for
        each row as alone, and the gate arithmetic runs once over the
        (n, C, .) rows.  Given a list, which needs one sequence, appends to
        it, for each step, what the backward pass reads of the (1, C, .)
        rows: the sigmoid of all 4H gate pre-activations (the candidate
        block's is unused), the candidate tanh, the cell state and its
        tanh."""
        H = runs[0][0].hidden_dim
        lengths = [x.shape[0] for x in xs]
        L, S, C = lengths[0], len(xs), len(runs)
        pre = np.empty((L, S, C, 4 * H), dtype=DTYPE)
        for i, x in enumerate(xs):
            for k, (cell, reverse) in enumerate(runs):
                p = x @ cell.W_ih.data.T + cell.b.data
                pre[:lengths[i], i, k] = p[::-1] if reverse else p
        W_hh = [cell.W_hh.data for cell, _ in runs]
        h = np.zeros((S, C, H), dtype=DTYPE)
        c = np.zeros((S, C, H), dtype=DTYPE)
        gates = np.empty((S, C, 4 * H), dtype=DTYPE)
        states = np.empty((L, S, C, H), dtype=DTYPE)
        start = 0
        for n in range(S, 0, -1):
            # steps start..end-1 run the first n sequences, and only them
            end = lengths[n - 1]
            if end == start:
                continue
            z, h_n, pre_n, states_n = gates[:n], h[:n], pre[:, :n], states[:, :n]
            # each cell's W_hh with its rows of h and of the gates
            matvecs = [(W, h_n[:, k, :, None], z[:, k, :, None]) for k, W in enumerate(W_hh)]
            c = c[:n]
            for t in range(start, end):
                for W, h_k, z_k in matvecs:
                    np.matmul(W, h_k, out=z_k)
                np.add(pre_n[t], z, out=z)
                s = sigmoid_np(z)
                g = np.tanh(z[..., 2 * H:3 * H])
                c = s[..., H:2 * H] * c + s[..., 0:H] * g
                tc = np.tanh(c)
                np.multiply(s[..., 3 * H:4 * H], tc, out=h_n)
                states_n[t] = h_n
                if saved is not None:
                    saved.append((s, g, c, tc))
            start = end
        return states

    def run(self, xs, reverse: bool = False, bwd: "LSTMCell | None" = None):
        """Run over a (L, in_dim) sequence; returns (L, hidden_dim) states.
        Given a second cell bwd, runs this cell left to right and bwd right
        to left in the same loop, and returns the (L, 2 * hidden_dim) states
        of both, this cell's first; the two cells have the same dimensions.

        xs is one sequence or a list of them, which gives a list of states
        in input order.  A list of several sequences runs them in one loop
        (_scan), longest first, each with the floats of its run alone, and
        records no tape, so where a node would record it raises.

        One sequence is one tape node whose backward is hand-written
        backpropagation through time.  Forward and backward compute the same
        floats, in the same order, as a tape of one node per operation and
        cell: the hoisted projections `pre = xs @ W_ih.T + b`, then at each
        step `pre[t] + W_hh @ h` and the gate operations (sigmoid of i, f, o,
        tanh of the candidate, c = f*c + i*g, h = o*tanh(c)).  So training is
        bit-identical to that tape.  Per-step activations are kept only when
        the node records a backward."""
        seqs = [xs] if isinstance(xs, Tensor) else list(xs)
        runs = ((self, reverse),) if bwd is None else ((self, False), (bwd, True))
        params = tuple(p for cell, _ in runs for _, p in cell.named_params())
        if len(seqs) != 1:
            if _records(tuple(seqs) + params):
                raise InputError("a recorded LSTM run takes one sequence; "
                                 "run a batch under no_grad")
            order = sorted(range(len(seqs)), key=lambda i: -seqs[i].shape[0])
            outs = [None] * len(seqs)
            if seqs:
                states = self._scan(runs, [seqs[i].data for i in order])
                for s, i in enumerate(order):
                    outs[i] = Tensor(_outputs(runs, states[:seqs[i].shape[0], s]))
            return outs
        x = seqs[0]
        parents = (x,) + params
        saved = [] if _records(parents) else None
        states = self._scan(runs, [x.data], saved)[:, 0]
        W_ih = [cell.W_ih.data for cell, _ in runs]
        W_hh = [cell.W_hh.data for cell, _ in runs]

        def bw(g):
            dpres = self._bptt(runs, g, states, saved, W_hh)
            for (cell, _), W, dpre in zip(runs, W_ih, dpres):
                if x.requires_grad:
                    x._accumulate(dpre @ W)
                if cell.W_ih.requires_grad:
                    cell.W_ih._accumulate((x.data.T @ dpre).T)
                if cell.b.requires_grad:
                    cell.b._accumulate(dpre.sum(axis=0))
        out = _result(_outputs(runs, states), parents, bw)
        return out if isinstance(xs, Tensor) else [out]

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
        S, G, C, TC = (np.array(a)[:, 0] for a in zip(*saved))
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


def _outputs(runs: tuple, states: np.ndarray) -> np.ndarray:
    """One sequence's (n, C * H) output from its (n, C, H) states in step
    order: each cell's states in position order, side by side."""
    return np.concatenate([states[::-1, k] if reverse else states[:, k]
                           for k, (_, reverse) in enumerate(runs)], axis=1)


def length_batches(lengths: list[int], step_elements: int) -> list[list[int]]:
    """The indices of lengths in runs, longest first (ties in input order),
    cut so that the longest length of a run times its count times
    step_elements stays within BATCH_ELEMENTS; an item over the bound is a
    run of its own."""
    order = sorted(range(len(lengths)), key=lambda i: -lengths[i])
    batches = []
    while order:
        # order[0] is the longest item of the batch it starts
        count = max(1, BATCH_ELEMENTS // (lengths[order[0]] * step_elements))
        batches.append(order[:count])
        order = order[count:]
    return batches


class BiLSTM:
    """Concatenates forward and backward LSTM states per position, width
    2*hidden, as one tape node over both cells."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator):
        self.hidden_dim = hidden_dim
        self.fwd = LSTMCell(in_dim, hidden_dim, rng)
        self.bwd = LSTMCell(in_dim, hidden_dim, rng)

    def __call__(self, xs):
        """The states of one (L, in_dim) sequence, or of each of a list of
        them (LSTMCell.run)."""
        if any(x.shape[0] == 0 for x in ([xs] if isinstance(xs, Tensor) else xs)):
            raise InputError("BiLSTM over an empty sequence")
        return self.fwd.run(xs, bwd=self.bwd)

    def map_batches(self, forward, items: list, lengths: list[int]) -> list:
        """forward(batch) of items whose sequences through this BiLSTM have
        the given lengths, and its results back in input order.  The batches
        are runs of items, longest first (ties in input order), cut so that
        one scan's input projections, the longest length times the count
        times 8 * hidden elements, stay within BATCH_ELEMENTS; an item over
        the bound is a batch of its own.  A forward over more than one item
        records no tape, so more than one item needs no_grad."""
        if len(items) > 1 and _GradMode.enabled:
            raise InputError("a forward over several sentences runs under no_grad; "
                             "a recorded forward takes one")
        out = [None] * len(items)
        for batch in length_batches(lengths, 8 * self.hidden_dim):
            for i, result in zip(batch, forward([items[i] for i in batch])):
                out[i] = result
        return out

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

    def __call__(self, chars: Tensor, spans, counts=None) -> Tensor:
        """(L, filters) encodings of the L tokens whose rows of the (n, in_dim)
        sentence matrix chars are spans[k] = (start, end), as one tape node.

        Each token's windows read only its own rows, zero-padded at its edges
        as if it stood alone, so rows between tokens (the joining spaces)
        never enter a window.  The gradient of each maximum goes to its first
        maximal position.

        chars may hold the rows of a batch of sentences, one after another,
        with counts[i] the number of tokens of sentence i.  Then the window
        indices, the tanh and the max run once over every token of the batch,
        and the windows of each sentence go through their own gemm, so each
        sentence gets the floats of a call over it alone."""
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
        # each sentence's windows, from the first position of its first token
        counts = [len(lengths)] if counts is None else counts
        bounds = firsts[np.cumsum(counts) - counts].tolist() + [P]
        z = np.empty((P, self.filters), dtype=DTYPE)
        for a, b in zip(bounds[:-1], bounds[1:]):
            z[a:b] = windows[a:b] @ W.T
        acts = np.tanh(z + self.b.data)  # (P, filters)

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
