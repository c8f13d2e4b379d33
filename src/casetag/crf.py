"""Linear-chain CRF: forward-algorithm log-partition, NLL loss and Viterbi.

Path score = start[y_1] + sum_t emissions[t, y_t]
           + sum_t transitions[y_t, y_{t+1}] + end[y_L].
"""

from __future__ import annotations

import numpy as np

from casetag.errors import InputError, NumericError
from casetag.nn.tensor import Tensor, logsumexp
from casetag.nn.layers import glorot
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


def _check_emissions(emissions, num_tags: int) -> np.ndarray:
    data = emissions.data if isinstance(emissions, Tensor) else np.asarray(emissions, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InputError(f"emissions must be a non-empty (L, T) matrix, got shape {data.shape}")
    if data.shape[1] != num_tags:
        raise InputError(f"emissions have {data.shape[1]} tag columns, CRF has {num_tags}")
    if not np.all(np.isfinite(data)):
        raise NumericError("emissions contain non-finite scores")
    return data


def log_partition(emissions: Tensor, crf: Crf) -> Tensor:
    """log sum over all T^L tag sequences of exp(path score), via the forward recursion."""
    _check_emissions(emissions, crf.num_tags)
    L, T = emissions.shape
    alpha = crf.start + emissions[0]
    for t in range(1, L):
        scores = alpha.reshape((T, 1)) + crf.trans  # [i, j] = alpha[i] + trans[i, j]
        alpha = logsumexp(scores, axis=0) + emissions[t]
    return logsumexp(alpha + crf.end)


def gold_path_score(emissions: Tensor, tags, crf: Crf) -> Tensor:
    """Score of one tag sequence, accumulated in the same order as the forward recursion."""
    tags = np.asarray(tags, dtype=np.intp)
    L = emissions.shape[0]
    if len(tags) != L:
        raise InputError(f"gold sequence length {len(tags)} vs {L} emission rows")
    if len(tags) and (tags.min() < 0 or tags.max() >= crf.num_tags):
        raise InputError(f"gold tag out of range [0, {crf.num_tags})")
    score = crf.start[int(tags[0])] + emissions[(0, int(tags[0]))]
    for t in range(1, L):
        score = score + crf.trans[(int(tags[t - 1]), int(tags[t]))] + emissions[(t, int(tags[t]))]
    return score + crf.end[int(tags[-1])]


def crf_nll(emissions: Tensor, tags, crf: Crf) -> Tensor:
    """log_partition - gold path score; non-negative, differentiable."""
    _check_emissions(emissions, crf.num_tags)
    raw = log_partition(emissions, crf) - gold_path_score(emissions, tags, crf)
    if float(raw.data) < 0.0:
        # only float rounding noise can land here; pin the value at zero
        raw = raw * 0.0
    return raw


def viterbi_decode(emissions, crf: Crf) -> list[int]:
    """Argmax tag sequence; ties resolved toward the lowest tag index."""
    em = _check_emissions(emissions, crf.num_tags)
    trans = crf.trans.data
    L, T = em.shape
    score = crf.start.data + em[0]
    back = np.zeros((L, T), dtype=np.intp)
    for t in range(1, L):
        cand = score[:, None] + trans  # [i, j]
        back[t] = np.argmax(cand, axis=0)
        score = cand[back[t], np.arange(T)] + em[t]
    score = score + crf.end.data
    best = int(np.argmax(score))
    path = [best]
    for t in range(L - 1, 0, -1):
        best = int(back[t, best])
        path.append(best)
    path.reverse()
    return path
