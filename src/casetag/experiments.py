"""Desk-scale experiment runners over the synthetic fixtures.

These pin the corpus sizes, dimensions, and schedules used by the acceptance
suite and the scripts.  Everything is seeded; rerunning a function reproduces
its numbers exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from casetag.config import RunConfig
from casetag.ner import (
    MODE_GOLD,
    MODE_NONE,
    MODE_PREDICTED,
    REGIME_FIXED,
    REGIME_SCRATCH,
    EmbeddingTable,
    NerExample,
    NerModel,
    augment_lowercase,
    build_char_vocab,
    build_tagset,
    build_word_list,
    evaluate_ner,
    lowercase_dataset,
    train_ner,
)
from casetag.synthetic import AMBIG, LOC_TRAIN, PER_TRAIN, ner_dataset, truecaser_corpus
from casetag.truecaser import Truecaser, eval_truecaser, train_truecaser


# -- truecaser pretraining and its desk run ------------------------------------

def truecaser_desk_run(n_train: int = 320, n_test: int = 55, epochs: int = 20,
                       seed: int = 1, log=None):
    """Train on the unambiguous synthetic corpus and score held-out char F1."""
    train, test = truecaser_corpus(n_train, n_test, seed=101, ambig_frac=0.0)
    cfg = RunConfig(char_emb_dim=24, tc_hidden_dim=32, dropout=0.1, epochs=epochs,
                    lr=0.005, seed=seed, pass_through_prob=0.2,
                    min_char_freq=1, dev_fraction=0.1)
    model = train_truecaser(train, cfg, log=log)
    return model, eval_truecaser(model, test), test


def pretrain_case_truecaser(seed: int = 2, log=None):
    """Truecaser for the tagger experiments, trained on the corpus whose
    person-name slots overlap common words (so its predictions hedge exactly
    where casing is genuinely ambiguous)."""
    train, test = truecaser_corpus(300, 50, seed=11, ambig_frac=0.3)
    cfg = RunConfig(char_emb_dim=16, tc_hidden_dim=24, dropout=0.1, epochs=10,
                    lr=0.005, seed=seed, pass_through_prob=0.2,
                    min_char_freq=1, dev_fraction=0.1)
    model = train_truecaser(train, cfg, log=log)
    return model, test


# -- tagger runs -----------------------------------------------------------------

def _desk_ner_config(seed: int, case_mode: str, regime: str = REGIME_FIXED,
                     hidden: int = 24, lr: float = 0.005, epochs: int = 10) -> RunConfig:
    return RunConfig(word_emb_dim=24, ner_char_emb_dim=8, cnn_filters=16, cnn_width=3,
                     ner_hidden_dim=hidden, dropout=0.1, lr=lr, epochs=epochs, patience=0,
                     seed=seed, case_mode=case_mode, regime=regime)


def _build_and_train(dataset: list[NerExample], cfg: RunConfig,
                     truecaser: Truecaser | None = None,
                     oov_words: set[str] | None = None) -> NerModel:
    rng = np.random.default_rng(cfg.seed)
    words = build_word_list(dataset)
    if oov_words:
        words = [w for w in words if w not in oov_words]
    table = EmbeddingTable.random(words, cfg.word_emb_dim, rng)
    model = NerModel(table, build_tagset(dataset), build_char_vocab(dataset), cfg,
                     truecaser=truecaser, seed=cfg.seed)
    train_ner(dataset, model)
    return model


@dataclass
class CaseVectorResult:
    none: list[float]
    predicted: list[float]
    gold: list[float]
    truecaser_f1: float

    def mean(self, which: str) -> float:
        values = getattr(self, which)
        return sum(values) / len(values)


def case_vector_comparison(seeds=(1, 2, 3), log=None,
                           pretrained=None) -> CaseVectorResult:
    """Uncased tagging with none/predicted/gold case vectors on the flat-frame
    synthetic world, where context is deliberately weak and casing decisive."""
    truecaser, tc_test = pretrained if pretrained else pretrain_case_truecaser(log=log)
    tc_score = eval_truecaser(truecaser, tc_test)
    train_c, test_c = ner_dataset(150, 60, seed=21, ambig_frac=0.25,
                                  unseen_frac=0.5, contextual=False)
    train_u, test_u = lowercase_dataset(train_c), lowercase_dataset(test_c)
    result = CaseVectorResult([], [], [], 100 * tc_score.f1)
    for seed in seeds:
        for mode, bucket in ((MODE_NONE, result.none),
                             (MODE_PREDICTED, result.predicted),
                             (MODE_GOLD, result.gold)):
            cfg = _desk_ner_config(seed, mode)
            tc = truecaser if mode == MODE_PREDICTED else None
            model = _build_and_train(train_u, cfg, truecaser=tc)
            bucket.append(100 * evaluate_ner(model, test_u).f1)
        if log is not None:
            log(f"seed {seed}: none={result.none[-1]:.1f} "
                f"predicted={result.predicted[-1]:.1f} gold={result.gold[-1]:.1f}")
    return result


@dataclass
class RegimeResult:
    fixed_params_identical: bool
    scratch_f1_before: float
    scratch_f1_after: float
    scratch_ner_f1: float


def regime_contracts(seed: int = 1, log=None, pretrained=None) -> RegimeResult:
    """Fixed regime must leave the truecaser bit-identical; joint-from-scratch
    must lift its char F1 above the random initialization."""
    truecaser, tc_test = pretrained if pretrained else pretrain_case_truecaser(log=log)
    train_c, _ = ner_dataset(150, 60, seed=21, ambig_frac=0.25,
                             unseen_frac=0.5, contextual=False)
    train_u = lowercase_dataset(train_c)

    before = {n: p.data.copy() for n, p in truecaser.named_params()}
    cfg = _desk_ner_config(seed, MODE_PREDICTED, regime=REGIME_FIXED, epochs=2)
    _build_and_train(train_u, cfg, truecaser=truecaser)
    identical = all(np.array_equal(p.data, before[n])
                    for n, p in truecaser.named_params())

    fresh = Truecaser(build_char_vocab(train_u), char_emb_dim=16, hidden_dim=24,
                      dropout_rate=0.1, seed=seed + 70)
    f1_before = 100 * eval_truecaser(fresh, tc_test).f1
    cfg = _desk_ner_config(seed, MODE_PREDICTED, regime=REGIME_SCRATCH, epochs=10)
    model = _build_and_train(train_u, cfg, truecaser=fresh)
    f1_after = 100 * eval_truecaser(fresh, tc_test).f1
    _, test_c = ner_dataset(150, 60, seed=21, ambig_frac=0.25,
                            unseen_frac=0.5, contextual=False)
    ner_f1 = 100 * evaluate_ner(model, lowercase_dataset(test_c)).f1
    return RegimeResult(identical, f1_before, f1_after, ner_f1)


@dataclass
class AugmentationResult:
    cased_avg: list[float]   # per seed: mean F1 over {cased test, uncased test}
    augmented_avg: list[float]
    detail: list[dict]

    def mean_cased(self) -> float:
        return sum(self.cased_avg) / len(self.cased_avg)

    def mean_augmented(self) -> float:
        return sum(self.augmented_avg) / len(self.augmented_avg)


def augmentation_comparison(seeds=(5, 6, 7), log=None) -> AugmentationResult:
    """Cased-only training vs cased+lowercased-copy training, scored on the
    cased and uncased test pair.

    The world here is the contextual one, and a slice of the name inventory is
    held out of the word table, so unknown words with ambiguous casing exist
    at training time; the cased-only model resolves them by capitalization and
    loses that route on the uncased test.
    """
    train_c, test_c = ner_dataset(150, 70, seed=31, ambig_frac=0.35,
                                  unseen_frac=0.5, contextual=True)
    test_u = lowercase_dataset(test_c)
    drop_rng = np.random.default_rng(99)
    oov = (set(drop_rng.choice(PER_TRAIN, size=10, replace=False))
           | set(drop_rng.choice(LOC_TRAIN, size=6, replace=False))
           | set(drop_rng.choice(AMBIG, size=5, replace=False)))
    result = AugmentationResult([], [], [])
    for seed in seeds:
        cfg = _desk_ner_config(seed, MODE_NONE, hidden=32, lr=0.003, epochs=12)
        cased_model = _build_and_train(train_c, cfg, oov_words=oov)
        cfg = _desk_ner_config(seed, MODE_NONE, hidden=32, lr=0.003, epochs=12)
        aug_model = _build_and_train(augment_lowercase(train_c), cfg, oov_words=oov)
        row = {
            "seed": seed,
            "cased_C": 100 * evaluate_ner(cased_model, test_c).f1,
            "cased_U": 100 * evaluate_ner(cased_model, test_u).f1,
            "aug_C": 100 * evaluate_ner(aug_model, test_c).f1,
            "aug_U": 100 * evaluate_ner(aug_model, test_u).f1,
        }
        result.detail.append(row)
        result.cased_avg.append((row["cased_C"] + row["cased_U"]) / 2)
        result.augmented_avg.append((row["aug_C"] + row["aug_U"]) / 2)
        if log is not None:
            log(f"seed {seed}: cased C={row['cased_C']:.1f} U={row['cased_U']:.1f} | "
                f"augmented C={row['aug_C']:.1f} U={row['aug_U']:.1f}")
    return result
