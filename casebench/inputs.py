"""Input generation for the benchmark.

Everything the program reads is made here from the workload seed: cased
sentences and tagged sentences from ``casetag.synthetic``, plus the noise a
raw web-like corpus carries, which the benchmark adds itself.  The program
only ever sees the files written from these lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from casetag import synthetic

# Rule words the noise inserts.  Every one is on the shipped lowercase-rule
# list, so corpus preparation must lowercase each of them; the prep check
# uses this list, not the program's, to look for survivors.
TITLES = ("Mr.", "Mrs.", "Dr.")
WEEKDAYS = ("Monday", "Friday", "Sunday")
ZONES = ("GMT", "UTC")
RULE_WORDS = frozenset(TITLES + WEEKDAYS + ZONES)


@dataclass(frozen=True)
class Noise:
    """Per-line rates of each kind of noise in a raw corpus."""
    first_cap: float = 0.5   # first word capitalised, as at a sentence start
    rule: float = 0.3        # a title, weekday or time-zone word inserted
    headline: float = 0.05   # whole line in capitals
    blank: float = 0.03      # an empty line inserted before the sentence


NOISE = Noise()


def _capitalise(word: str) -> str:
    return word[:1].upper() + word[1:]


def _insert_rule_word(tokens: list[str], rng: np.random.Generator) -> list[str]:
    kind = int(rng.integers(3))
    if kind == 0:
        for i, tok in enumerate(tokens):
            if tok[:1].isupper():
                return tokens[:i] + [TITLES[rng.integers(len(TITLES))]] + tokens[i:]
        kind = 1  # no name to put a title before
    if kind == 1:
        phrase = ["on", WEEKDAYS[rng.integers(len(WEEKDAYS))]]
    else:
        phrase = ["at", "noon", ZONES[rng.integers(len(ZONES))]]
    return tokens[:-1] + phrase + tokens[-1:]


def add_noise(sentences: list[str], rng: np.random.Generator) -> list[str]:
    """Raw corpus lines: each clean sentence with ``NOISE`` drawn
    independently per line."""
    lines = []
    for sentence in sentences:
        if rng.random() < NOISE.blank:
            lines.append("")
        tokens = sentence.split()
        if rng.random() < NOISE.rule:
            tokens = _insert_rule_word(tokens, rng)
        if rng.random() < NOISE.first_cap:
            tokens[0] = _capitalise(tokens[0])
        line = " ".join(tokens)
        if rng.random() < NOISE.headline:
            line = line.upper()
        lines.append(line)
    return lines


def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def raw_corpus(n_lines: int, n_heldout: int,
               rng: np.random.Generator) -> tuple[list[str], list[str]]:
    """(noisy raw lines for corpus preparation, clean cased held-out lines).

    Person-name slots overlap common nouns in 30% of fills, as in the
    tagger's data, so casing is genuinely ambiguous in places."""
    train, heldout = synthetic.truecaser_corpus(n_lines, n_heldout, seed=sub_seed(rng),
                                                ambig_frac=0.3)
    return add_noise(train, rng), heldout


def tagged_splits(n_train: int, n_dev: int, n_test: int, rng: np.random.Generator):
    """Cased (train, dev, test) tagged sentences; half of the test names come
    from pools unseen in training, where only the truecaser's pretraining on
    the raw corpus knows their casing."""
    train, test = synthetic.ner_dataset(n_train + n_dev, n_test, seed=sub_seed(rng),
                                        ambig_frac=0.25, unseen_frac=0.5)
    return train[n_dev:], train[:n_dev], test
