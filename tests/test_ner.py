"""Tagger contracts: representation assembly across case-vector modes,
forward shapes, gradients through the full stack, regimes, and dataset ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import casetag.ner as ner_module
from casetag.config import RunConfig
from casetag.data import read_embeddings
from casetag.errors import AlignmentError, ConfigError, ParseError
from casetag.metrics import Span, bio_decode
from casetag.nn import BiLSTM, Tensor, gradient_check, no_grad
from casetag.nn.tensor import _toposort
from casetag.ner import (
    MODE_GOLD,
    MODE_NONE,
    MODE_PREDICTED,
    REGIME_FINETUNED,
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
    gold_case_vectors,
    lowercase_dataset,
    lowercase_example,
    predict_tags,
    train_ner,
)
from casetag.truecaser import CharVocab, Truecaser, case_distributions, eval_truecaser

TINY = dict(word_emb_dim=6, ner_char_emb_dim=4, cnn_filters=5, cnn_width=3,
            ner_hidden_dim=3, dropout=0.0)


def tiny_dataset():
    return [
        NerExample("Alan visited Boston .".split(), ["B-PER", "O", "B-LOC", "O"]),
        NerExample("the cup was heavy .".split(), ["O"] * 5),
        NerExample("Rose spoke with Alan .".split(), ["B-PER", "O", "O", "B-PER", "O"]),
        NerExample("a rose lay there .".split(), ["O"] * 5),
    ]


def tiny_truecaser(dataset, seed=0):
    vocab = CharVocab.build([" ".join(ex.source_tokens()) for ex in dataset]
                            + [" ".join(ex.tokens).lower() for ex in dataset], min_freq=1)
    return Truecaser(vocab, char_emb_dim=4, hidden_dim=3, dropout_rate=0.0, seed=seed)


def tiny_model(dataset, mode=MODE_NONE, truecaser=None, seed=0, **overrides):
    cfg = RunConfig(case_mode=mode, seed=seed, **{**TINY, **overrides})
    rng = np.random.default_rng(seed)
    table = EmbeddingTable.random(build_word_list(dataset), cfg.word_emb_dim, rng)
    return NerModel(table, build_tagset(dataset), build_char_vocab(dataset), cfg,
                    truecaser=truecaser, seed=seed)


# -- representation assembly ---------------------------------------------------

def bilstm_input_shape(model, example):
    """The shape of the (L, word + filters) matrix emissions() feeds the BiLSTM."""
    seen = []
    call = BiLSTM.__call__
    BiLSTM.__call__ = lambda self, xs: seen.extend(x.shape for x in xs) or call(self, xs)
    try:
        model.emissions(example)
    finally:
        BiLSTM.__call__ = call
    return seen[0]


def test_none_mode_token_dim_is_word_plus_filters():
    data = tiny_dataset()
    model = tiny_model(data)
    assert bilstm_input_shape(model, data[0]) == (4, TINY["word_emb_dim"] + TINY["cnn_filters"])


def test_full_scale_dims():
    data = tiny_dataset()
    model = tiny_model(data, word_emb_dim=100, ner_char_emb_dim=16, cnn_filters=128,
                       ner_hidden_dim=8)
    assert bilstm_input_shape(model, data[0]) == (4, 228)
    assert model.cnn.in_dim == 16
    predicted = tiny_model(data, mode=MODE_PREDICTED,
                           truecaser=tiny_truecaser(data),
                           word_emb_dim=100, ner_char_emb_dim=16, cnn_filters=128,
                           ner_hidden_dim=8)
    assert predicted.cnn.in_dim == 18


def test_gold_case_vectors_one_hot():
    rows = gold_case_vectors("Alan")
    assert rows.tolist() == [[1, 0], [0, 1], [0, 1], [0, 1]]


def test_predicted_mode_distribution_count_checked(monkeypatch):
    data = tiny_dataset()
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tiny_truecaser(data))
    monkeypatch.setattr(ner_module, "case_distributions",
                        lambda truecaser, texts: [np.zeros((2, 2)) for _ in texts])
    with pytest.raises(AlignmentError) as err:
        model.emissions(data[0])
    assert "Alan visited Boston ." in str(err.value)


def test_predicted_mode_needs_truecaser():
    with pytest.raises(ConfigError):
        tiny_model(tiny_dataset(), mode=MODE_PREDICTED)


def test_constant_halves_equal_manual_concat(monkeypatch):
    """A truecaser pinned at (0.5, 0.5) must behave exactly like feeding the
    char CNN a constant (0.5, 0.5) pair per character."""
    data = tiny_dataset()
    tc = tiny_truecaser(data)
    tc.out.W.data[:] = 0.0
    tc.out.b.data[:] = 0.0  # softmax of zeros = (0.5, 0.5) everywhere
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tc)
    ex = data[0]
    with no_grad():
        via_truecaser = model.emissions(ex)
        monkeypatch.setattr(ner_module, "case_distributions",
                            lambda truecaser, texts:
                            [np.full((len(text), 2), 0.5) for text in texts])
        manual = model.emissions(ex)
    assert np.allclose(via_truecaser.data, manual.data, atol=1e-12, rtol=0)


# sharp s and the fi ligature (two characters when uppercased), dotted
# capital I (two when lowercased), titlecase dz, combining acute and cedilla,
# capital sigma (final form in str.lower())
CASING_ALPHABET = "aZ\u00df\u0130\u01c5\ufb01\u0301\u0327\u03a3."


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(st.sampled_from(CASING_ALPHABET), min_size=1, max_size=5),
                min_size=1, max_size=4))
def test_case_vector_path_aligns_on_unicode_casing(tokens):
    data = tiny_dataset()
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tiny_truecaser(data))
    example = NerExample(tokens, ["O"] * len(tokens))
    rows, = case_distributions(model.truecaser, [example.lowered_text()])
    assert rows.shape == (len(" ".join(tokens)), 2)
    for ex in (example, lowercase_example(example)):
        with no_grad():
            assert model.emissions(ex).shape == (len(tokens), len(model.tagset))
        assert model.emissions(ex).shape == (len(tokens), len(model.tagset))


# -- forward --------------------------------------------------------------------

def test_forward_single_token_shape():
    data = tiny_dataset()
    model = tiny_model(data)
    em = model.emissions(NerExample(["Alan"], ["B-PER"]))
    assert em.shape == (1, len(model.tagset))


def test_forward_deterministic():
    data = tiny_dataset()
    model = tiny_model(data)
    with no_grad():
        a = model.emissions(data[0]).data
        b = model.emissions(data[0]).data
    assert np.array_equal(a, b)


def test_word_table_gradients_reach_known_and_unknown_rows():
    table = EmbeddingTable(["cat", "dog"], np.arange(6.0).reshape(2, 3), np.full(3, -1.0),
                           trainable=True)
    out = table(["Cat", "eel", "cat", "fox"])
    assert np.array_equal(out.data, [[0, 1, 2], [-1, -1, -1], [0, 1, 2], [-1, -1, -1]])
    g = np.arange(12.0).reshape(4, 3)
    (out * Tensor(g)).sum().backward()
    assert np.array_equal(table.vectors.grad, [g[0] + g[2], [0, 0, 0]])
    assert np.array_equal(table.unk.grad, g[1] + g[3])


def test_word_table_leaves_an_unread_parameter_without_gradient():
    """Adam skips a None gradient but runs a zero one through its moments, so
    a parameter that no word reads must keep None."""
    for words, unread in ((["cat", "dog"], "unk"), (["eel"], "vectors")):
        table = EmbeddingTable(["cat", "dog"], np.ones((2, 3)), np.zeros(3), trainable=True)
        table(words).sum().backward()
        grads = {name: p.grad for name, p in table.named_params()}
        assert grads.pop(unread) is None
        assert all(grad is not None for grad in grads.values())
    frozen = EmbeddingTable(["cat"], np.ones((1, 3)), np.zeros(3), trainable=False)
    frozen(["cat", "eel"]).sum().backward()
    assert frozen.vectors.grad is None and frozen.unk.grad is not None


def test_emissions_tape_does_not_grow_per_token():
    """The training forward records as many nodes for one token as for five."""
    data = tiny_dataset()
    for mode, tc in ((MODE_NONE, None), (MODE_PREDICTED, tiny_truecaser(data)),
                     (MODE_GOLD, None)):
        model = tiny_model(data, mode=mode, truecaser=tc, dropout=0.5)
        counts = [len(_toposort(model.emissions(ex, True, np.random.default_rng(0)).sum()))
                  for ex in (NerExample(["Alan"], ["B-PER"]), data[1])]
        assert counts[0] == counts[1] <= 30, mode


def test_full_stack_gradient_check_none_mode():
    data = tiny_dataset()
    model = tiny_model(data)
    ex = data[2]
    gold = model.tag_ids(ex.tags)

    from casetag.crf import crf_nll

    def loss():
        return crf_nll(model.emissions(ex), gold, model.crf)

    report = gradient_check(loss, model.named_params())
    assert report.max_error <= 1e-4


def test_full_stack_gradient_check_gold_mode():
    data = tiny_dataset()
    model = tiny_model(data, mode=MODE_GOLD)
    ex = data[0]
    gold = model.tag_ids(ex.tags)

    from casetag.crf import crf_nll

    def loss():
        return crf_nll(model.emissions(ex), gold, model.crf)

    report = gradient_check(loss, model.named_params())
    assert report.max_error <= 1e-4


# -- dataset operations -----------------------------------------------------------

def test_augment_doubles_with_lowercased_copy():
    data = [NerExample(["Alan", "RAN"], ["B-PER", "O"])]
    out = augment_lowercase(data)
    assert len(out) == 2
    assert out[0].tokens == ["Alan", "RAN"]
    assert out[1].tokens == ["alan", "ran"]
    assert out[1].tags == out[0].tags
    assert out[1].source_tokens() == ["Alan", "RAN"]


def test_augment_already_lower_gives_identical_halves():
    data = [NerExample(["alan"], ["B-PER"]), NerExample(["ran"], ["O"])]
    out = augment_lowercase(data)
    assert [ex.tokens for ex in out[:2]] == [ex.tokens for ex in out[2:]]


@given(st.lists(st.lists(st.sampled_from(["Alan", "ran", "BOSTON", "x9"]),
                         min_size=1, max_size=4), min_size=1, max_size=5))
def test_augment_exactly_doubles_and_keeps_tags(shapes):
    data = [NerExample(toks, ["O"] * len(toks)) for toks in shapes]
    out = augment_lowercase(data)
    assert len(out) == 2 * len(data)
    for orig, copy in zip(out[:len(data)], out[len(data):]):
        assert copy.tags == orig.tags
        assert copy.tokens == [t.lower() for t in orig.tokens]


def test_lowercase_dataset_idempotent_and_preserves_source():
    data = [NerExample(["Alan", "RAN"], ["B-PER", "O"])]
    once = lowercase_dataset(data)
    twice = lowercase_dataset(once)
    assert once == twice
    assert once[0].tokens == ["alan", "ran"]
    assert once[0].source_tokens() == ["Alan", "RAN"]


def test_lowercase_preserves_token_count():
    data = [NerExample(["Ab", "CD", "e9"], ["O", "O", "O"])]
    assert [len(ex.tokens) for ex in lowercase_dataset(data)] == [3]


# -- prediction --------------------------------------------------------------------

def test_predict_emits_wellformed_spans():
    data = tiny_dataset()
    model = tiny_model(data)
    for ex, tags in zip(data, predict_tags(model, data)):
        for s in bio_decode(tags):
            assert 0 <= s.start < s.end <= len(ex.tokens)
            assert s.label in {"PER", "LOC"}


def test_predict_matches_reference_bio_decoder():
    def reference_decode(tags):
        spans, i = [], 0
        while i < len(tags):
            if tags[i] == "O":
                i += 1
                continue
            label = tags[i][2:]
            j = i + 1
            while j < len(tags) and tags[j] == f"I-{label}":
                j += 1
            spans.append(Span(i, j, label))
            i = j
        return spans

    data = tiny_dataset()
    model = tiny_model(data, seed=11)
    for tags in predict_tags(model, data):
        assert bio_decode(tags) == reference_decode(tags)


# -- training regimes ---------------------------------------------------------------

def quick_cfg(model, **kw):
    for k, v in kw.items():
        setattr(model.cfg, k, v)
    return model


def test_train_loss_decreases_monotonically_ten_sentences():
    data = tiny_dataset() + [
        NerExample("Boston pleased Rose .".split(), ["B-LOC", "O", "B-PER", "O"]),
        NerExample("the bread was old .".split(), ["O"] * 5),
        NerExample("Alan and Rose walked .".split(), ["B-PER", "O", "B-PER", "O", "O"]),
        NerExample("a lamp stood there .".split(), ["O"] * 5),
        NerExample("Clara visited Oslo .".split(), ["B-PER", "O", "B-LOC", "O"]),
        NerExample("the fish smelled fine .".split(), ["O"] * 5),
    ]
    assert len(data) == 10
    model = tiny_model(data, seed=4)
    from casetag.truecaser import TrainStats
    stats = TrainStats()
    train_ner(data, quick_cfg(model, epochs=5, lr=0.001, patience=0), stats=stats)
    losses = [e["train_loss"] for e in stats.epoch_log]
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_fixed_regime_freezes_truecaser_bit_for_bit():
    data = tiny_dataset()
    tc = tiny_truecaser(data, seed=5)
    before = {n: p.data.copy() for n, p in tc.named_params()}
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tc, seed=5)
    train_ner(data, quick_cfg(model, epochs=2, patience=0, regime=REGIME_FIXED),
              dev=None)
    for name, p in tc.named_params():
        assert np.array_equal(p.data, before[name]), name


def test_finetuned_regime_moves_truecaser_via_aux_loss():
    data = tiny_dataset()
    tc = tiny_truecaser(data, seed=6)
    before = {n: p.data.copy() for n, p in tc.named_params()}
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tc, seed=6)
    train_ner(data, quick_cfg(model, epochs=2, patience=0, regime=REGIME_FINETUNED))
    moved = any(not np.array_equal(p.data, before[n]) for n, p in tc.named_params())
    assert moved


def test_scratch_regime_requires_predicted_mode():
    data = tiny_dataset()
    model = tiny_model(data)
    with pytest.raises(ConfigError):
        train_ner(data, quick_cfg(model, regime=REGIME_SCRATCH))


def test_gold_mode_rejects_caseless_training_text():
    data = [NerExample(["alan", "ran"], ["B-PER", "O"]),
            NerExample(["the", "cup"], ["O", "O"])]
    model = tiny_model(data, mode=MODE_GOLD)
    with pytest.raises(ConfigError):
        train_ner(data, model)


def test_gold_mode_accepts_lowercased_dataset_with_source():
    data = lowercase_dataset(tiny_dataset())
    model = tiny_model(data, mode=MODE_GOLD, seed=7)
    train_ner(data, quick_cfg(model, epochs=1, patience=0))


def test_early_stopping_restores_best(monkeypatch):
    """Scripted dev F1 0.5, 0.7, 0.6, 0.6 with patience 1: training stops
    after epoch 3 and keeps the parameters evaluated at epoch 2, the
    truecaser's included in the finetuned regime."""
    from types import SimpleNamespace
    from casetag.truecaser import TrainStats
    data = tiny_dataset()
    for mode, regime in ((MODE_NONE, REGIME_FIXED), (MODE_PREDICTED, REGIME_FINETUNED)):
        tc = tiny_truecaser(data, seed=8) if mode == MODE_PREDICTED else None
        model = tiny_model(data, mode=mode, truecaser=tc, seed=8)
        params = model.named_params() + (tc.named_params() if tc is not None else [])
        scripted, snapshots = iter([0.5, 0.7, 0.6, 0.6]), []

        def fake_evaluate(model, dev, case_rows=None):
            snapshots.append({n: p.data.copy() for n, p in params})
            return SimpleNamespace(f1=next(scripted))

        monkeypatch.setattr(ner_module, "evaluate_ner", fake_evaluate)
        stats, lines = TrainStats(), []
        train_ner(data, quick_cfg(model, epochs=6, patience=1, regime=regime),
                  dev=data[:2], log=lines.append, stats=stats)
        assert stats.stopped_epoch == 3
        assert stats.best_dev_f1 == 70.0
        assert len(snapshots) == 3
        assert [line.split(":")[0] for line in lines] == ["epoch 1", "epoch 2", "epoch 3"]
        for name, p in params:
            assert np.array_equal(p.data, snapshots[1][name]), (regime, name)
        assert any(not np.array_equal(p.data, snapshots[2][n]) for n, p in params)


def test_train_deterministic_same_seed():
    data = tiny_dataset()
    runs = []
    for _ in range(2):
        model = tiny_model(data, seed=9)
        train_ner(data, quick_cfg(model, epochs=2, patience=0))
        runs.append({n: p.data.copy() for n, p in model.named_params()})
    for name in runs[0]:
        assert np.array_equal(runs[0][name], runs[1][name]), name


# -- persistence ----------------------------------------------------------------------

def test_model_save_load_same_predictions(tmp_path):
    data = tiny_dataset()
    tc = tiny_truecaser(data, seed=10)
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tc, seed=10)
    train_ner(data, quick_cfg(model, epochs=1, patience=0))
    path = tmp_path / "ner.ctr"
    model.save(str(path))
    again = NerModel.load(str(path))
    assert again.tagset == model.tagset
    assert again.case_mode == MODE_PREDICTED
    assert predict_tags(again, data) == predict_tags(model, data)


def test_model_file_load_save_byte_identical(tmp_path):
    data = tiny_dataset()
    model = tiny_model(data, seed=12)
    p1, p2 = tmp_path / "a.ctr", tmp_path / "b.ctr"
    model.save(str(p1))
    NerModel.load(str(p1)).save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def write_vectors(path, words, dim, seed):
    rng = np.random.default_rng(seed)
    path.write_text("".join(" ".join([word] + [repr(float(v)) for v in rng.normal(size=dim)])
                            + "\n" for word in words), encoding="utf-8")


def embeddings_model(tmp_path, mode):
    """A tiny tagger trained for one epoch on frozen word vectors for every
    other word of its data, read from a file."""
    data = tiny_dataset()
    emb = tmp_path / "emb.txt"
    write_vectors(emb, build_word_list(data)[::2], TINY["word_emb_dim"], seed=3)
    cfg = RunConfig(case_mode=mode, seed=5, epochs=1, patience=0, **TINY)
    tc = tiny_truecaser(data, seed=5) if mode == MODE_PREDICTED else None
    model = NerModel(read_embeddings(str(emb), cfg.word_emb_dim), build_tagset(data),
                     build_char_vocab(data), cfg, truecaser=tc, seed=5)
    return train_ner(data, model), data


@pytest.mark.parametrize("mode", [MODE_NONE, MODE_PREDICTED, MODE_GOLD])
def test_frozen_embeddings_survive_save_and_load(tmp_path, mode):
    model, data = embeddings_model(tmp_path, mode)
    assert not model.word_table.trainable
    path = tmp_path / "ner.ctr"
    model.save(str(path))
    again = NerModel.load(str(path))
    # the in-memory model with every weight rounded as the file stores it
    weights = [model.word_table.vectors] + [p for _, p in model.named_params()]
    if model.truecaser is not None:
        weights += [p for _, p in model.truecaser.named_params()]
    for p in weights:
        p.data[...] = p.data.astype(np.float32)
    with no_grad():
        for a, b in zip(again.emissions(data), model.emissions(data)):
            assert np.array_equal(a.data, b.data)
    assert predict_tags(again, data) == predict_tags(model, data)


def test_model_file_without_its_frozen_vectors_is_a_parse_error(tmp_path):
    # a tagger file written before frozen vectors were stored
    model, _ = embeddings_model(tmp_path, MODE_NONE)
    container = model.to_container()
    del container.arrays["ner.words.vectors"]
    path = tmp_path / "old.ctr"
    container.save(str(path))
    with pytest.raises(ParseError, match=f"{path}.*ner.words.vectors"):
        NerModel.load(str(path))


def test_load_draws_no_random_initialisation(tmp_path, monkeypatch):
    data = tiny_dataset()
    model = tiny_model(data, mode=MODE_PREDICTED, truecaser=tiny_truecaser(data), seed=4)
    path = tmp_path / "ner.ctr"
    model.save(str(path))

    def no_draws(*args, **kwargs):
        raise AssertionError("a load drew a random initialisation")
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    again = NerModel.load(str(path))
    again.save(str(tmp_path / "again.ctr"))
    assert (tmp_path / "again.ctr").read_bytes() == path.read_bytes()
