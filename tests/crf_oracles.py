"""Exhaustive-enumeration CRF oracles: the reference that tests hold the
forward algorithm, the NLL and Viterbi decoding against.

Path score = start[y_1] + sum_t emissions[t, y_t]
           + sum_t transitions[y_t, y_{t+1}] + end[y_L].
"""

import itertools

import numpy as np

from casetag.crf import Crf, _check_emissions
from casetag.errors import InputError


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
