"""Linear-chain CRF: the NLL loss as one tape node, and Viterbi decoding in
padded batches of sentences.

Path score = start[y_1] + sum_t emissions[t, y_t]
           + sum_t transitions[y_t, y_{t+1}] + end[y_L].

crf_nll runs the forward algorithm in numpy and records a single tape node
per sentence.  Its hand-written backward gives the tag and transition
marginals minus the gold path's indicators.  The tape of one node per
operation that it replaced is kept in tests/crf_oracles.py as the reference
the tests hold it against.
"""

from __future__ import annotations

import numpy as np

from casetag.errors import InputError, NumericError
from casetag.nn.tensor import Tensor, _records, _result
from casetag.nn.layers import glorot, length_batches
from casetag.nn import zeros


class Crf:
    """Transition scores (T, T): entry [i, j] scores tag j following tag i."""

    def __init__(self, num_tags: int, rng: np.random.Generator):
        self.num_tags = num_tags
        self.trans = glorot((num_tags, num_tags), rng)
        self.start = zeros((num_tags,), requires_grad=True)
        self.end = zeros((num_tags,), requires_grad=True)

    def named_params(self):
        return [("trans", self.trans), ("start", self.start), ("end", self.end)]


def _emission_matrix(emissions, num_tags: int) -> np.ndarray:
    data = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InputError(f"emissions must be a non-empty (L, T) matrix, got shape {data.shape}")
    if data.shape[1] != num_tags:
        raise InputError(f"emissions have {data.shape[1]} tag columns, CRF has {num_tags}")
    return data


def _check_emissions(emissions, num_tags: int) -> np.ndarray:
    return _check_finite(_emission_matrix(emissions, num_tags))


def _check_finite(data: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise NumericError("emissions contain non-finite scores")
    return data


def _gold_tags(tags, L: int, num_tags: int) -> np.ndarray:
    tags = np.asarray(tags, dtype=np.intp)
    if len(tags) != L:
        raise InputError(f"gold sequence length {len(tags)} vs {L} emission rows")
    if tags.min() < 0 or tags.max() >= num_tags:
        raise InputError(f"gold tag out of range [0, {num_tags})")
    return tags


def _forward(em: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray,
             weights: list | None) -> tuple[float, np.ndarray]:
    """log Z by the forward recursion alpha_t[j] = logsumexp_i(alpha_{t-1}[i]
    + trans[i, j]) + em[t, j]; also the softmax over alpha + end.  Given a
    list, appends each step's (T, T) softmax weights over i, in time order."""
    alpha = start + em[0]
    for t in range(1, em.shape[0]):
        scores = alpha[:, None] + trans
        m = scores.max(axis=0)
        s = np.exp(scores - m)
        tot = s.sum(axis=0)
        alpha = np.log(tot) + m + em[t]
        if weights is not None:
            weights.append(s / tot)
    final = alpha + end
    m = final.max()
    s = np.exp(final - m)
    tot = s.sum()
    return float(np.log(tot) + m), s / tot


def _gold_score(em: np.ndarray, trans: np.ndarray, start: np.ndarray, end: np.ndarray,
                tags: np.ndarray) -> float:
    """Score of one tag sequence, accumulated in the order of the recursion."""
    y = tags.tolist()
    score = start[y[0]] + em[0, y[0]]
    for t in range(1, len(y)):
        score = score + trans[y[t - 1], y[t]] + em[t, y[t]]
    return float(score + end[y[-1]])


def crf_nll(emissions: Tensor, tags, crf: Crf) -> Tensor:
    """log Z - gold path score, as one tape node; non-negative, differentiable.

    The backward walks the forward's softmax weights in reverse: the
    gradient of log Z is the tag and transition marginals, and the gold
    path's indicators are subtracted from it.  Forward and backward compute
    the same floats, in the same order, as a tape of one node per
    operation (the per-step logsumexp recursion minus the per-token gold
    score), so training is bit-identical to that tape."""
    em = _check_emissions(emissions, crf.num_tags)
    L = em.shape[0]
    tags = _gold_tags(tags, L, crf.num_tags)
    trans, start, end = crf.trans.data, crf.start.data, crf.end.data
    parents = (emissions, crf.trans, crf.start, crf.end)
    weights = [] if _records(parents) else None
    log_z, final = _forward(em, trans, start, end, weights)

    def bw(g):
        g = float(g)
        dem = np.empty_like(em)
        dalpha = final * g
        dend = dalpha.copy()
        dtrans = None
        for t in range(L - 1, 0, -1):
            dem[t] = dalpha
            dscores = weights[t - 1] * dalpha[None, :]
            dtrans = dscores if dtrans is None else dtrans + dscores
            dalpha = dscores.sum(axis=1)
        dem[0] = dalpha
        dstart = dalpha.copy()
        dem[np.arange(L), tags] -= g
        dstart[tags[0]] -= g
        dend[tags[-1]] -= g
        if dtrans is not None:  # a single token reaches no transition
            np.subtract.at(dtrans, (tags[:-1], tags[1:]), g)  # a pair may repeat
        for p, d in zip(parents, (dem, dtrans, dstart, dend)):
            if p.requires_grad and d is not None:
                p._accumulate(d)
    # log Z rounds no lower than the gold score: both add in the same order,
    # each step's log(tot) >= 0 and rounding is monotone
    return _result(np.asarray(log_z - _gold_score(em, trans, start, end, tags)), parents, bw)


def viterbi_decode(emissions, crf: Crf):
    """Argmax tag sequence of one (L, T) emission matrix, ties resolved
    toward the lowest tag index; given a list of them, the list of their
    sequences, each the one its matrix gives alone.  A list is decoded in
    padded (S, L, T) batches of similar length (length_batches), each in one
    loop over the steps."""
    if isinstance(emissions, (np.ndarray, Tensor)):
        return viterbi_decode([emissions], crf)[0]
    ems = [_emission_matrix(em, crf.num_tags) for em in emissions]
    paths = [None] * len(ems)
    for batch in length_batches([len(em) for em in ems], crf.num_tags):
        for i, path in zip(batch, _viterbi([ems[i] for i in batch], crf)[0]):
            paths[i] = path
    return paths


def _viterbi(ems: list, crf: Crf) -> tuple[list, np.ndarray]:
    """The best paths of the S emission matrices ems, sorted longest first,
    and their scores.  Step t updates the first n rows, those still running;
    every sum, maximum and tie of a row is elementwise, so it is the one of
    the row's matrix decoded alone."""
    lengths = [len(em) for em in ems]
    L, S, T = lengths[0], len(ems), crf.num_tags
    em = np.zeros((L, S, T))
    for s, e in enumerate(ems):
        em[:lengths[s], s] = e
    _check_finite(em)  # the padding is zeros
    # running[t]: the number of rows that have a step t
    running = S - np.searchsorted(lengths[::-1], np.arange(L), side="right")
    trans = crf.trans.data
    score = crf.start.data + em[0]
    back = np.zeros((L, S, T), dtype=np.intp)
    for t in range(1, L):
        n = running[t]
        cand = score[:n, :, None] + trans  # [s, i, j]
        back[t, :n] = np.argmax(cand, axis=1)
        score[:n] = np.take_along_axis(cand, back[t, :n, None], axis=1)[:, 0] + em[t, :n]
    score = score + crf.end.data
    best = np.argmax(score, axis=1)
    scores = score[np.arange(S), best]
    path = np.empty((L, S), dtype=np.intp)
    for t in range(L - 1, -1, -1):
        n = running[t]
        path[t, :n] = best[:n]
        if t:
            best[:n] = back[t, np.arange(n), best[:n]]
    return [row[:length] for row, length in zip(path.T.tolist(), lengths)], scores
