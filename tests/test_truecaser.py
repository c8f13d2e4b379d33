"""Truecaser: example generation, forward contracts, a hand-computed tiny
forward, training behaviors, and token alignment."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casetag.config import RunConfig
from casetag.errors import ConfigError, InputError
from casetag.metrics import char_f1
from casetag.ner import NerExample, lowercase_example
from casetag.nn import Tensor
from casetag.truecaser import (
    LOWER,
    UPPER,
    CharVocab,
    Truecaser,
    TrainStats,
    apply_truecaser,
    case_distributions,
    case_labels,
    eval_truecaser,
    lowercase_keep_length,
    make_training_example,
    train_truecaser,
)


class ConstRng:
    """Stand-in rng whose random() returns a fixed value."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


# -- example generation -------------------------------------------------------

def test_example_name_was_alan():
    ex = make_training_example("name was Alan", 0.0, np.random.default_rng(0))
    assert ex.chars == "name was alan"
    want = [LOWER] * 9 + [UPPER] + [LOWER] * 3
    assert ex.labels.tolist() == want
    # spaces carry the lowercase label
    assert ex.labels[4] == LOWER and ex.chars[4] == " "


def test_example_all_lower_labels_regardless_of_passthrough():
    for draw in (0.0, 0.99):
        ex = make_training_example("all lower here", 0.5, ConstRng(draw))
        assert np.all(ex.labels == LOWER)


def test_example_passthrough_keeps_casing():
    ex = make_training_example("Alan ran", 0.5, ConstRng(0.1))  # draw < prob: fires
    assert ex.chars == "Alan ran"
    assert ex.labels.tolist() == [UPPER] + [LOWER] * 7


def test_example_no_passthrough_lowercases():
    ex = make_training_example("Alan ran", 0.5, ConstRng(0.9))
    assert ex.chars == "alan ran"
    assert ex.labels.tolist() == [UPPER] + [LOWER] * 7


def test_example_empty_sentence_raises():
    with pytest.raises(InputError):
        make_training_example("", 0.0, np.random.default_rng(0))


@settings(max_examples=60)
@given(st.text(alphabet="abCDe fG.12", min_size=1, max_size=30))
def test_label_roundtrip_reconstructs_casing(sentence):
    ex = make_training_example(sentence, 0.0, np.random.default_rng(0))
    rebuilt = "".join(
        ch.upper() if lab == UPPER else ch for ch, lab in zip(ex.chars, ex.labels))
    assert rebuilt == sentence


# -- vocab ----------------------------------------------------------------------

def test_vocab_build_min_freq_and_unk():
    vocab = CharVocab.build(["aaab"], min_freq=3)
    # builder counts the sentence and its lowercased copy: a=6, b=2
    assert vocab.encode("ab").tolist() == [vocab.index["a"], CharVocab.UNK]


def test_vocab_covers_cased_and_lowered_forms():
    vocab = CharVocab.build(["Aa"], min_freq=1)
    assert "A" in vocab.index and "a" in vocab.index


def test_vocab_line_roundtrip():
    vocab = CharVocab.build(["Hello worldly problems"], min_freq=1)
    again = CharVocab.from_lines(vocab.to_lines())
    assert again.chars == vocab.chars and again.index == vocab.index


# -- forward ----------------------------------------------------------------------

def tiny_model(**kw):
    vocab = CharVocab(["a", "b", " "])
    return Truecaser(vocab, char_emb_dim=kw.get("emb", 3), hidden_dim=kw.get("hidden", 2),
                     dropout_rate=0.0, seed=kw.get("seed", 0))


def test_forward_distributions_sum_to_one():
    model = tiny_model()
    dist = model.distributions("ab ba?")
    assert dist.shape == (6, 2)
    assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(dist >= 0)


def test_forward_single_char():
    assert tiny_model().distributions("a").shape == (1, 2)


def test_forward_empty_raises():
    with pytest.raises(InputError):
        tiny_model().distributions("")


def test_forward_hand_computed_h1_chain():
    """vocab {a}, all dims 1: the whole forward collapses to a scalar chain."""
    vocab = CharVocab(["a"])
    model = Truecaser(vocab, char_emb_dim=1, hidden_dim=1, dropout_rate=0.0, seed=0)
    e = 0.7      # embedding of 'a'
    wi = 0.3     # input weights, all four gate rows
    wh = 0.5     # recurrent weights (unused on a length-1 input)
    bi, bf, bg, bo = 0.1, 1.0, -0.2, 0.4
    model.emb.table.data[:] = 0.0
    model.emb.table.data[1, 0] = e
    for cell in (model.rnn.fwd, model.rnn.bwd):
        cell.W_ih.data[:] = wi
        cell.W_hh.data[:] = wh
        cell.b.data[:] = [bi, bf, bg, bo]
    model.out.W.data[:] = [[1.5, -0.5], [0.25, 0.75]]
    model.out.b.data[:] = [0.05, -0.05]

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = sig(wi * e + bi)
    g = math.tanh(wi * e + bg)
    o = sig(wi * e + bo)
    h = o * math.tanh(i * g)  # c_prev = 0, so the forget gate drops out
    # both directions see the same single character
    z_u = 1.5 * h - 0.5 * h + 0.05
    z_l = 0.25 * h + 0.75 * h - 0.05
    p_u = math.exp(z_u) / (math.exp(z_u) + math.exp(z_l))

    dist = model.distributions("a")
    assert dist[0, UPPER] == pytest.approx(p_u, abs=1e-10)
    assert dist[0, LOWER] == pytest.approx(1.0 - p_u, abs=1e-10)


# -- training ----------------------------------------------------------------------

OVERFIT_CORPUS = ["Alan met Rob .", "so Alan ran off", "Rob saw Alan wave",
                  "name was Alan"]


def overfit_config(epochs=60):
    return RunConfig(char_emb_dim=8, tc_hidden_dim=8, dropout=0.0, epochs=epochs,
                     lr=0.01, seed=3, pass_through_prob=0.0, min_char_freq=1,
                     dev_fraction=0.0)


def test_train_empty_corpus_raises():
    with pytest.raises(ConfigError):
        train_truecaser([], RunConfig())


def test_train_overfits_single_sentence():
    cfg = overfit_config(epochs=80)
    stats = TrainStats()
    model = train_truecaser(["Alan met Rob ."], cfg, stats=stats)
    assert stats.epoch_log[-1]["train_loss"] < 0.01
    assert apply_truecaser(model, ["alan met rob ."]) == ["Alan met Rob ."]


def test_train_reports_heldout_loss_per_epoch():
    cfg = RunConfig(char_emb_dim=4, tc_hidden_dim=4, dropout=0.0, epochs=2,
                    lr=0.01, seed=1, min_char_freq=1, dev_fraction=0.3)
    stats = TrainStats()
    train_truecaser(["Alan ran .", "Rob sat .", "so it goes", "Alan saw Rob",
                     "none here", "more words"], cfg, stats=stats)
    assert len(stats.epoch_log) == 2
    assert all("dev_loss" in e and np.isfinite(e["dev_loss"]) for e in stats.epoch_log)


def test_train_truncates_and_counts_long_sentences():
    cfg = RunConfig(char_emb_dim=4, tc_hidden_dim=4, dropout=0.0, epochs=1,
                    lr=0.01, seed=1, min_char_freq=1, dev_fraction=0.0,
                    max_sentence_chars=40)
    stats = TrainStats()
    train_truecaser(["word " * 20 + "End", "short one"], cfg, stats=stats)
    assert stats.truncated == 1


def test_train_counts_skipped_and_truncated_once_over_epochs():
    cfg = RunConfig(char_emb_dim=4, tc_hidden_dim=4, dropout=0.0, epochs=2,
                    lr=0.01, seed=1, min_char_freq=1, dev_fraction=0.0,
                    max_sentence_chars=40)
    stats = TrainStats()
    train_truecaser(["word " * 20 + "End", "short one", ""], cfg, stats=stats)
    assert len(stats.epoch_log) == 2
    assert (stats.truncated, stats.skipped_empty) == (1, 1)


def test_train_deterministic_bit_for_bit():
    cfg = overfit_config(epochs=3)
    s1, s2 = TrainStats(), TrainStats()
    m1 = train_truecaser(OVERFIT_CORPUS, cfg, stats=s1)
    m2 = train_truecaser(OVERFIT_CORPUS, cfg, stats=s2)
    for (n1, p1), (n2, p2) in zip(m1.named_params(), m2.named_params()):
        assert n1 == n2
        assert np.array_equal(p1.data, p2.data), n1
    assert s1.epoch_log == s2.epoch_log  # identical loss curve, not just endpoint


def test_well_trained_model_restores_name_was_alan():
    model = train_truecaser(OVERFIT_CORPUS, overfit_config(epochs=80))
    assert apply_truecaser(model, ["name was alan"]) == ["name was Alan"]


def test_truecaser_gradients_three_char_input():
    from casetag.nn import cross_entropy, gradient_check
    model = tiny_model(emb=3, hidden=2, seed=5)
    labels = case_labels("Aba")
    report = gradient_check(
        lambda: cross_entropy(model.logits("aba"), labels),
        model.named_params(), step=1e-4)
    assert report.max_error <= 1e-4


# -- apply -------------------------------------------------------------------------

def test_apply_no_uppercase_forms_unchanged():
    assert apply_truecaser(tiny_model(), ["1234 !?"]) == ["1234 !?"]


def test_apply_empty_string():
    assert apply_truecaser(tiny_model(), [""]) == [""]


def test_apply_only_changes_case():
    model = tiny_model()
    text = "ab ba ab"
    out, = apply_truecaser(model, [text])
    assert len(out) == len(text)
    assert out.lower() == text.lower()


def test_apply_uppercases_exact_ties():
    model = tiny_model()
    # equal logits give exactly (0.5, 0.5)
    model.logits = lambda texts: [Tensor(np.array(
        [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))]
    assert apply_truecaser(model, ["ab cd"]) == ["Ab CD"]


# -- token alignment -----------------------------------------------------------------

def test_distributions_for_tokens_shapes():
    model = tiny_model()
    rows = case_distributions(model, ["ab b", "abba", ""])
    assert [r.shape for r in rows] == [(4, 2), (4, 2), (0, 2)]


def test_distributions_match_joined_input():
    model = tiny_model()
    rows, = case_distributions(model, [NerExample(["AB", "b"], ["O", "O"]).lowered_text()])
    assert np.array_equal(rows, model.distributions("ab b"))


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=5), min_size=1, max_size=4))
def test_alignment_property_counts(tokens):
    model = tiny_model()
    rows, = case_distributions(model, [" ".join(tokens)])
    assert len(rows) == len(" ".join(tokens))


# -- evaluation --------------------------------------------------------------------

def test_eval_perfect_after_overfit():
    model = train_truecaser(["Alan met Rob ."], overfit_config(epochs=80))
    score = eval_truecaser(model, ["Alan met Rob ."])
    assert 100 * score.f1 == 100.0


def test_eval_all_lower_model_scores_zero():
    model = tiny_model()
    model.out.W.data[:] = 0.0
    model.out.b.data[:] = [-10.0, 10.0]  # always predicts lowercase
    score = eval_truecaser(model, ["Ab ba", "aa Bb"])
    assert score.recall == 0.0 and score.f1 == 0.0
    assert score.fn == 2


# -- persistence --------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    model = train_truecaser(OVERFIT_CORPUS, overfit_config(epochs=2))
    path = tmp_path / "tc.ctr"
    model.save(str(path))
    again = Truecaser.load(str(path))
    assert again.vocab.chars == model.vocab.chars
    text = "alan met rob ."
    assert np.allclose(again.distributions(text), model.distributions(text), atol=1e-5)


def test_lowercase_keep_length_counts_multichar():
    assert lowercase_keep_length("İAB") == "İab"  # "İ".lower() is two characters


def per_character_lower(text):
    """lowercase_keep_length's rule, one character at a time."""
    return "".join(ch.lower() if len(ch.lower()) == 1 else ch for ch in text)


# dotted capital I (two characters when lowercased), capital sharp s, a
# capital sigma that str.lower() makes final, combining marks, titlecase dz
UNICODE_CASING = ["\u0130", "\u1e9e", "\u03a3\u0391\u03a3", "A\u0301", "\u0327", "\u01c5",
                  "\u00df", "\ufb01"]
unicode_text = st.text(st.one_of(st.characters(), st.sampled_from("".join(UNICODE_CASING))))


@given(unicode_text)
def test_lowercase_keep_length_is_per_character_on_any_text(text):
    assert lowercase_keep_length(text) == per_character_lower(text)


@given(st.text(st.characters(max_codepoint=127)))
def test_lowercase_keep_length_is_str_lower_on_ascii(text):
    assert lowercase_keep_length(text) == text.lower() == per_character_lower(text)


def test_lowercase_keep_length_on_the_cases_str_lower_gets_wrong():
    for text in UNICODE_CASING + ["".join(UNICODE_CASING), "Alan MET rob"]:
        assert lowercase_keep_length(text) == per_character_lower(text)
        assert len(lowercase_keep_length(text)) == len(text)
    assert lowercase_keep_length("\u03a3\u0391\u03a3") == "\u03c3\u03b1\u03c3"  # no final sigma
    assert "\u03a3\u0391\u03a3".lower() == "\u03c3\u03b1\u03c2"


@given(st.lists(unicode_text.filter(bool), min_size=1, max_size=6))
def test_carried_lowered_text_is_the_per_character_lowercase_of_the_joined_tokens(tokens):
    example = NerExample(list(tokens), ["O"] * len(tokens))
    want = per_character_lower(" ".join(tokens))
    assert example.lowered_text() == want
    lowered = lowercase_example(example)
    assert lowered.tokens == [per_character_lower(tok) for tok in tokens]
    assert lowered.cased_tokens == tokens
    assert lowered.lowered_text() == per_character_lower(" ".join(lowered.tokens)) == want
    again = lowercase_example(lowered)
    assert again.tokens == lowered.tokens and again.lowered_text() == want
