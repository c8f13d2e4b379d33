"""CRF oracles: the references that tests hold the forward algorithm, the
NLL and Viterbi decoding against.

Path score = start[y_1] + sum_t emissions[t, y_t]
           + sum_t transitions[y_t, y_{t+1}] + end[y_L].

The tape oracles build log Z and the gold score from one tape node per
operation; the fused `crf_nll` must match them, value and gradients.  The
exhaustive-enumeration oracles score every path.
"""

import itertools

import numpy as np

from casetag.crf import Crf, _check_emissions, _gold_tags
from casetag.errors import InputError
from casetag.nn.tensor import Tensor, _result


# -- tape oracles ---------------------------------------------------------------

def logsumexp(t: Tensor, axis: int | None = None) -> Tensor:
    """Tape node: log sum exp along `axis` (all elements when None)."""
    m = np.max(t.data, axis=axis, keepdims=True)
    s = np.exp(t.data - m)
    tot = np.sum(s, axis=axis, keepdims=True)
    data = np.log(tot) + m
    data = data.reshape(()) if axis is None else data.squeeze(axis)

    def bw(g):
        t._accumulate(s / tot * (float(g) if axis is None else np.expand_dims(g, axis)))
    return _result(data, (t,), bw)


def reshape(t: Tensor, shape: tuple) -> Tensor:
    """Tape node: t's data in a new shape."""
    return _result(t.data.reshape(shape), (t,), lambda g: t._accumulate(g.reshape(t.data.shape)))


def log_partition(emissions: Tensor, crf: Crf) -> Tensor:
    """log sum over all T^L tag sequences of exp(path score), via the forward recursion."""
    _check_emissions(emissions, crf.num_tags)
    L, T = emissions.shape
    alpha = crf.start + emissions[0]
    for t in range(1, L):
        scores = reshape(alpha, (T, 1)) + crf.trans  # [i, j] = alpha[i] + trans[i, j]
        alpha = logsumexp(scores, axis=0) + emissions[t]
    return logsumexp(alpha + crf.end)


def gold_path_score(emissions: Tensor, tags, crf: Crf) -> Tensor:
    """Score of one tag sequence, accumulated in the same order as the forward recursion."""
    L = emissions.shape[0]
    tags = _gold_tags(tags, L, crf.num_tags)
    score = crf.start[int(tags[0])] + emissions[(0, int(tags[0]))]
    for t in range(1, L):
        score = score + crf.trans[(int(tags[t - 1]), int(tags[t]))] + emissions[(t, int(tags[t]))]
    return score + crf.end[int(tags[-1])]


def tape_nll(emissions: Tensor, tags, crf: Crf) -> Tensor:
    """log_partition - gold_path_score on the tape."""
    return log_partition(emissions, crf) - gold_path_score(emissions, tags, crf)


# -- exhaustive enumeration ------------------------------------------------------------

def _path_score_np(em: np.ndarray, trans: np.ndarray, start: np.ndarray,
                   end: np.ndarray, path) -> float:
    s = start[path[0]] + em[0, path[0]]
    for t in range(1, len(path)):
        s += trans[path[t - 1], path[t]] + em[t, path[t]]
    return float(s + end[path[-1]])


def path_score(emissions, tags, crf: Crf) -> float:
    em = _check_emissions(emissions, crf.num_tags)
    return _path_score_np(em, crf.trans.data, crf.start.data, crf.end.data, list(tags))


_BRUTE_LIMIT = 10 ** 6


def _brute_paths(em: np.ndarray, num_tags: int):
    L = em.shape[0]
    if num_tags ** L > _BRUTE_LIMIT:
        raise InputError(f"brute force over {num_tags}^{L} paths exceeds {_BRUTE_LIMIT}")
    return itertools.product(range(num_tags), repeat=L)


def brute_force_partition(emissions, crf: Crf) -> float:
    """Exhaustive log-partition; instances limited to T^L <= 10^6."""
    em = _check_emissions(emissions, crf.num_tags)
    scores = [_path_score_np(em, crf.trans.data, crf.start.data, crf.end.data, p)
              for p in _brute_paths(em, crf.num_tags)]
    m = max(scores)
    return m + float(np.log(sum(np.exp(np.asarray(scores) - m))))


def brute_force_best(emissions, crf: Crf) -> tuple[float, list[int]]:
    """Exhaustive max path: (score, lexicographically first argmax sequence)."""
    em = _check_emissions(emissions, crf.num_tags)
    best_score, best_path = -np.inf, None
    for p in _brute_paths(em, crf.num_tags):
        s = _path_score_np(em, crf.trans.data, crf.start.data, crf.end.data, p)
        if s > best_score:
            best_score, best_path = s, list(p)
    return best_score, best_path


# -- the one-sentence decoder ---------------------------------------------------------

def viterbi_one(emissions, crf: Crf) -> tuple[list[int], float]:
    """The best path of one sentence and its score, decoded alone: the loop
    that viterbi_decode ran per sentence before it decoded batches."""
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
    return path, score[path[-1]]
