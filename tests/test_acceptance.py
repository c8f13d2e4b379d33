"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -s` to watch the lines as
they complete; the desk-scale runs (criteria 5, 6, 7, 9) take a few minutes
in total.
"""

import time

import numpy as np
import pytest

from casetag.cli import main
from casetag.config import RunConfig
from casetag.corpus import (
    CasingStats,
    LowercaseRules,
    apply_lowercase_rules,
    caps_ratio_filter,
    normalize_first_word,
)
from casetag.crf import Crf, crf_nll, viterbi_decode
from casetag.experiments import (
    augmentation_comparison,
    case_vector_comparison,
    pretrain_case_truecaser,
    regime_contracts,
    truecaser_desk_run,
)
from casetag.metrics import Span, bio_decode, char_f1, span_f1
from casetag.ner import (
    MODE_GOLD,
    MODE_NONE,
    NerExample,
    NerModel,
    EmbeddingTable,
    augment_lowercase,
    build_char_vocab,
    build_tagset,
    build_word_list,
)
from casetag.nn import (
    BiLSTM,
    CharCNN,
    Linear,
    LSTMCell,
    Tensor,
    cross_entropy,
    gradient_check,
    prefixed,
)
from casetag.synthetic import ner_dataset, truecaser_corpus
from casetag.truecaser import CharVocab, Truecaser

from crf_oracles import brute_force_best, brute_force_partition, log_partition, path_score


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def case_truecaser():
    return pretrain_case_truecaser()


def test_criterion_1_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(17)
    worst = {}

    lin = Linear(4, 3, rng)
    x = Tensor(rng.normal(size=(2, 4)))
    worst["linear"] = gradient_check(
        lambda: cross_entropy(lin(x), np.array([0, 2])), prefixed("lin", lin)).max_error

    cell = LSTMCell(3, 2, rng)
    xc = Tensor(rng.normal(size=3))
    w = rng.normal(size=2)
    def cell_loss():
        h, c = cell.step(xc, Tensor(np.zeros(2)), Tensor(np.zeros(2)))
        return (h * w).sum() + (c * c).sum()
    worst["lstm_cell"] = gradient_check(cell_loss, prefixed("cell", cell)).max_error

    bi = BiLSTM(3, 2, rng)
    xs = Tensor(rng.normal(size=(4, 3)))
    worst["bilstm"] = gradient_check(
        lambda: cross_entropy(bi(xs), np.array([0, 1, 2, 3])), prefixed("bi", bi)).max_error

    cnn = CharCNN(3, 4, 3, rng)
    chars = Tensor(rng.normal(size=(5, 3)))
    wf = rng.normal(size=4)
    worst["char_cnn"] = gradient_check(  # two tokens around a joining space's row
        lambda: (cnn(chars, [(0, 2), (3, 5)]) * wf).sum(), prefixed("cnn", cnn)).max_error

    crf = Crf(3, rng)
    crf.start.data[:] = rng.normal(size=3)
    crf.end.data[:] = rng.normal(size=3)
    em = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    worst["crf_nll"] = gradient_check(  # the gold path repeats the transition 2 -> 1
        lambda: crf_nll(em, [2, 1, 0, 2, 1], crf),
        prefixed("crf", crf) + [("emissions", em)]).max_error

    vocab = CharVocab(list("aln w"))
    tc = Truecaser(vocab, char_emb_dim=3, hidden_dim=2, dropout_rate=0.0, seed=3)
    labels = np.array([0, 1, 1, 1])
    worst["truecaser_stack"] = gradient_check(
        lambda: cross_entropy(tc.logits("alan"), labels), tc.named_params()).max_error

    data = [NerExample("Alan visited Boston .".split(), ["B-PER", "O", "B-LOC", "O"]),
            NerExample("the cup was heavy .".split(), ["O"] * 5)]
    cfg = RunConfig(word_emb_dim=5, ner_char_emb_dim=3, cnn_filters=4, cnn_width=3,
                    ner_hidden_dim=2, dropout=0.0, case_mode=MODE_NONE, seed=1)
    table = EmbeddingTable.random(build_word_list(data), 5, np.random.default_rng(2))
    model = NerModel(table, build_tagset(data), build_char_vocab(data), cfg, seed=2)
    ex = data[0]
    gold = model.tag_ids(ex.tags)
    def ner_loss():
        return crf_nll(model.emissions(ex), gold, model.crf)
    worst["ner_stack"] = gradient_check(ner_loss, model.named_params()).max_error

    gold_cfg = RunConfig(word_emb_dim=5, ner_char_emb_dim=3, cnn_filters=4, cnn_width=3,
                         ner_hidden_dim=2, dropout=0.0, case_mode=MODE_GOLD, seed=1)
    gold_model = NerModel(table, build_tagset(data), build_char_vocab(data), gold_cfg, seed=3)
    def gold_loss():
        return crf_nll(gold_model.emissions(ex), gold, gold_model.crf)
    worst["ner_stack_gold"] = gradient_check(gold_loss, gold_model.named_params()).max_error

    elapsed = time.time() - t0
    ok = (worst["linear"] <= 1e-6
          and all(v <= 1e-4 for v in worst.values())
          and elapsed < 60)
    detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" ({elapsed:.1f}s)"
    report(1, "gradient suite", ok, detail)


def test_criterion_2_crf_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst_partition = 0.0
    worst_nll = 0.0
    worst_viterbi = 0.0
    min_nll = np.inf
    for _ in range(100):
        L, T = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        crf = Crf(T, np.random.default_rng(0))
        crf.trans.data[:] = rng.normal(size=(T, T))
        crf.start.data[:] = rng.normal(size=T)
        crf.end.data[:] = rng.normal(size=T)
        em = Tensor(rng.normal(size=(L, T)))
        worst_partition = max(worst_partition, abs(
            log_partition(em, crf).item() - brute_force_partition(em, crf)))
        best_score, _ = brute_force_best(em, crf)
        worst_viterbi = max(worst_viterbi, abs(
            path_score(em, viterbi_decode(em, crf), crf) - best_score))
        gold = rng.integers(0, T, size=L)
        nll = crf_nll(em, gold, crf).item()
        worst_nll = max(worst_nll, abs(
            nll - (brute_force_partition(em, crf) - path_score(em, gold, crf))))
        min_nll = min(min_nll, nll)
    elapsed = time.time() - t0
    ok = worst_partition <= 1e-8 and worst_nll <= 1e-8 and worst_viterbi <= 1e-9 \
        and min_nll >= 0.0 and elapsed < 60
    report(2, "crf oracle suite", ok,
           f"partition_err={worst_partition:.2e} nll_err={worst_nll:.2e} "
           f"viterbi_err={worst_viterbi:.2e} min_nll={min_nll:.3g} ({elapsed:.1f}s)")


def test_criterion_3_preprocessing_fixtures():
    rules = LowercaseRules.default()
    stats = CasingStats.collect([
        "it is for the best",
        "looking for the answer",
        "waiting for rain",
        "she met McMahon there",
    ])
    checks = {
        "headline dropped": caps_ratio_filter("Man Bites Dog In Pajamas".split()) is False,
        "thursday lowered": apply_lowercase_rules(
            "Rothbart visits at 6 p.m. next Thursday for a talk .".split(), rules)
            == "Rothbart visits at 6 p.m. next thursday for a talk .".split(),
        "May preserved": apply_lowercase_rules("May I go".split(), rules)
            == "May I go".split(),
        "For normalized": normalize_first_word("For example , yes".split(), stats)
            == "for example , yes".split(),
    }
    lines = ["a The cat", "b the cat", "a Dog ran", "c the END"] * 7
    single = CasingStats.collect(lines)
    merged = CasingStats.collect(lines[:11])
    merged.merge(CasingStats.collect(lines[11:]))
    checks["shard merge exact"] = (merged.counts == single.counts
                                   and merged.total_tokens == single.total_tokens)
    report(3, "preprocessing fixtures", all(checks.values()),
           " ".join(k for k, v in checks.items() if not v) or "all fixtures exact")


def test_criterion_4_metric_fixtures():
    checks = {}
    s = char_f1(["Al An"], ["al An"])
    checks["char counts"] = (s.tp, s.fp, s.fn) == (1, 0, 1)
    s = char_f1(["Alan"], ["alan"])
    checks["char all-lower"] = (s.tp, s.fp, s.fn) == (0, 0, 1)
    s = span_f1([[Span(0, 1, "PER")], [Span(2, 4, "ORG")]],
                [[Span(0, 1, "PER")], [Span(2, 3, "ORG")]])
    checks["span counts"] = (s.tp, s.fp, s.fn) == (1, 1, 1)
    s = span_f1([[Span(0, 3, "PER")]], [[Span(0, 2, "PER")]])
    checks["span exact-match"] = (s.tp, s.fp, s.fn) == (0, 1, 1)
    checks["bio repair orphan"] = bio_decode(["O", "I-LOC"]) == [Span(1, 2, "LOC")]
    checks["bio repair start"] = bio_decode(["I-PER", "I-PER"]) == [Span(0, 2, "PER")]
    checks["bio repair type switch"] = bio_decode(["B-PER", "I-ORG"]) == [
        Span(0, 1, "PER"), Span(1, 2, "ORG")]
    checks["bio basic"] = bio_decode(["B-PER", "I-PER", "O"]) == [Span(0, 2, "PER")]
    checks["bio adjacent"] = bio_decode(["B-PER", "B-ORG", "I-ORG"]) == [
        Span(0, 1, "PER"), Span(1, 3, "ORG")]
    report(4, "metric fixtures", all(checks.values()),
           " ".join(k for k, v in checks.items() if not v) or "all counts exact")


def test_criterion_5_truecaser_desk_run():
    t0 = time.time()
    _, score, _ = truecaser_desk_run(n_train=320, n_test=55, epochs=20, seed=1)
    elapsed = time.time() - t0
    f1 = 100 * score.f1
    ok = f1 >= 95.0 and elapsed < 300
    report(5, "truecaser desk run", ok, f"char_f1={f1:.1f} ({elapsed:.0f}s)")


def test_criterion_6_case_vector_efficacy(case_truecaser):
    t0 = time.time()
    res = case_vector_comparison(seeds=(1, 2, 3), pretrained=case_truecaser)
    elapsed = time.time() - t0
    none, pred, gold = res.mean("none"), res.mean("predicted"), res.mean("gold")
    ok = gold >= pred >= none and (gold - none) >= 5.0 and elapsed < 900
    report(6, "case-vector efficacy", ok,
           f"none={none:.1f} predicted={pred:.1f} gold={gold:.1f} "
           f"gap={gold - none:.1f} truecaser_f1={res.truecaser_f1:.1f} ({elapsed:.0f}s)")


def test_criterion_7_detachment_and_regimes(case_truecaser):
    res = regime_contracts(seed=1, pretrained=case_truecaser)
    ok = res.fixed_params_identical and res.scratch_f1_after > res.scratch_f1_before
    report(7, "detachment and regime contracts", ok,
           f"fixed_identical={res.fixed_params_identical} "
           f"scratch_tc_f1 {res.scratch_f1_before:.1f}->{res.scratch_f1_after:.1f} "
           f"(ner={res.scratch_ner_f1:.1f})")


def test_criterion_8_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    sents, _ = truecaser_corpus(30, 0, seed=41)
    corpus.write_text("\n".join(sents) + "\n", encoding="utf-8")
    tc_flags = ["--char-emb-dim", "8", "--tc-hidden-dim", "6", "--epochs", "2",
                "--min-char-freq", "1", "--seed", "4", "--dropout", "0.1"]
    tc_a, tc_b = tmp_path / "tc_a.ctr", tmp_path / "tc_b.ctr"
    assert main(["train-truecaser", "--input", str(corpus), "--output", str(tc_a),
                 *tc_flags]) == 0
    assert main(["train-truecaser", "--input", str(corpus), "--output", str(tc_b),
                 *tc_flags]) == 0

    train, test = ner_dataset(12, 6, seed=42)
    from casetag.data import write_conll
    train_f, test_f = tmp_path / "train.conll", tmp_path / "test.conll"
    write_conll(train, str(train_f))
    write_conll(test, str(test_f))
    ner_flags = ["--word-emb-dim", "6", "--ner-char-emb-dim", "4", "--cnn-filters", "5",
                 "--ner-hidden-dim", "3", "--epochs", "2", "--patience", "0",
                 "--seed", "4", "--dropout", "0.1", "--case-mode", "predicted",
                 "--regime", "fixed", "--truecaser-model", str(tc_a)]
    ner_a, ner_b = tmp_path / "ner_a.ctr", tmp_path / "ner_b.ctr"
    assert main(["train-ner", "--train", str(train_f), "--output", str(ner_a),
                 *ner_flags]) == 0
    assert main(["train-ner", "--train", str(train_f), "--output", str(ner_b),
                 *ner_flags]) == 0

    capsys.readouterr()
    assert main(["eval-ner", "--model", str(ner_a), "--test", str(test_f),
                 "--lowercase"]) == 0
    block_a = capsys.readouterr().out
    assert main(["eval-ner", "--model", str(ner_b), "--test", str(test_f),
                 "--lowercase"]) == 0
    block_b = capsys.readouterr().out

    same_tc = tc_a.read_bytes() == tc_b.read_bytes()
    same_ner = ner_a.read_bytes() == ner_b.read_bytes()
    same_block = block_a == block_b and "f1=" in block_a
    report(8, "determinism", same_tc and same_ner and same_block,
           f"truecaser_files={same_tc} ner_files={same_ner} metric_blocks={same_block}")


def test_criterion_9_augmentation_contract():
    data = [NerExample(["Alan", "ran"], ["B-PER", "O"]),
            NerExample(["see", "Boston"], ["O", "B-LOC"])]
    doubled = augment_lowercase(data)
    exact_double = (len(doubled) == 2 * len(data)
                    and doubled[:2] == data
                    and all(t == t.lower() for ex in doubled[2:] for t in ex.tokens))

    t0 = time.time()
    res = augmentation_comparison(seeds=(5, 6, 7))
    elapsed = time.time() - t0
    cased, augd = res.mean_cased(), res.mean_augmented()
    ok = exact_double and augd >= cased
    report(9, "augmentation contract", ok,
           f"exact_double={exact_double} cased_avg={cased:.1f} "
           f"augmented_avg={augd:.1f} ({elapsed:.0f}s)")
