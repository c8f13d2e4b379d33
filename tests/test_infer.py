"""Inference, the one forward run under no_grad, against the same forward
recording its tape, bit for bit; batched forwards against one sentence at a
time, bit for bit; and the frozen truecaser's case rows in train_ner."""

import numpy as np
import pytest

import casetag.crf as crf_module
import casetag.ner as ner_module
import casetag.nn.layers as layers
import casetag.truecaser as truecaser_module
from casetag.cli import main
from casetag.config import RunConfig
from casetag.crf import Crf, _viterbi, viterbi_decode
from casetag.data import read_conll, write_conll
from casetag.errors import InputError
from casetag.metrics import char_f1
from casetag.ner import (
    MODE_GOLD,
    MODE_NONE,
    MODE_PREDICTED,
    REGIME_FINETUNED,
    REGIME_FIXED,
    EmbeddingTable,
    NerModel,
    build_char_vocab,
    build_tagset,
    build_word_list,
    NerExample,
    lowercase_dataset,
    predict_tags,
    train_ner,
)
from casetag.nn import (
    BiLSTM,
    CharCNN,
    Linear,
    LSTMCell,
    Tensor,
    cross_entropy,
    no_grad,
    sigmoid_np,
    softmax_np,
)
from casetag.synthetic import ner_dataset
from casetag.truecaser import (
    CharVocab,
    Truecaser,
    apply_truecaser,
    batch_distributions,
    held_out_loss,
    lowercase_keep_length,
)

from crf_oracles import viterbi_one
from tape_oracles import sigmoid

DIMS = [(16, 24), (50, 100)]  # (char embedding, hidden): desk and paper sizes


def jitter(named_params, seed):
    """Move every parameter, biases included, off its initial value."""
    rng = np.random.default_rng(seed)
    for _, p in named_params:
        p.data += rng.normal(0.0, 0.3, size=p.data.shape)


def sentences():
    train, test = ner_dataset(6, 4, seed=3)
    return train + test


def truecaser(emb, hidden, seed=0):
    texts = [" ".join(ex.tokens) for ex in sentences()]
    tc = Truecaser(CharVocab.build(texts), char_emb_dim=emb, hidden_dim=hidden,
                   dropout_rate=0.25, seed=seed)
    jitter(tc.named_params(), seed + 1)
    return tc


# -- layers ------------------------------------------------------------------------

def test_layer_infer_matches_tape_bit_for_bit():
    rng = np.random.default_rng(0)
    xs = Tensor(rng.normal(size=(9, 7)), requires_grad=True)
    lin = Linear(7, 5, rng)
    cell = LSTMCell(7, 6, rng)
    bi = BiLSTM(7, 6, rng)
    jitter(lin.named_params() + cell.named_params() + bi.named_params(), 1)
    forwards = [lin, bi] + [lambda x, r=reverse: cell.run(x, r) for reverse in (False, True)]
    for width in (1, 2, 3, 4):
        cnn = CharCNN(7, 5, width, rng)
        jitter(cnn.named_params(), width)
        forwards += [lambda x, c=cnn, s=spans: c(x, s)
                     for spans in ([(0, 1)], [(0, 2)], [(0, 9)], [(0, 3), (4, 5), (6, 9)])]
    for forward in forwards:
        recorded = forward(xs)
        with no_grad():
            inferred = forward(xs)
        assert recorded.requires_grad and not inferred.requires_grad
        assert np.array_equal(inferred.data, recorded.data)


def old_sigmoid(x):
    """The tape sigmoid's expression before it computed exp(-|x|) once."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def test_sigmoid_np_matches_the_three_exp_expression():
    special = np.array([0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 36.0, -36.0, 745.0, -745.0])
    rng = np.random.default_rng(7)
    for x in [special, rng.normal(0, 1, 1000), rng.normal(0, 30, 1000)]:
        assert np.array_equal(sigmoid_np(x), old_sigmoid(x))
        assert np.array_equal(sigmoid(Tensor(x)).data, old_sigmoid(x))
    # one call over the 4H gate vector equals one call per gate block
    gates = rng.normal(0, 5, 4 * 24)
    fused = sigmoid_np(gates)
    for k in range(4):
        assert np.array_equal(fused[24 * k:24 * (k + 1)], old_sigmoid(gates[24 * k:24 * (k + 1)]))


def test_getitem_basic_index_grads_match_add_at():
    # an int, a slice or a tuple of them selects each element once, so
    # np.add.at adds the floats of grad[idx] += g, a -0.0 upstream included
    rng = np.random.default_rng(2)
    data = rng.normal(size=(5, 4))
    for idx in [2, -1, slice(1, 4), (1, 3), (slice(0, 2), 3), (slice(None), slice(1, 3))]:
        shape = data[idx].shape
        for g in (rng.normal(size=shape), np.full(shape, -0.0)):
            for held in (None, rng.normal(size=data.shape), np.full(data.shape, -0.0)):
                t = Tensor(data, requires_grad=True)
                t.grad = None if held is None else held.copy()
                t[idx]._backward(g)
                want = np.zeros_like(data) if held is None else held.copy()
                want[idx] += g
                assert np.array_equal(t.grad, want), idx
                assert np.array_equal(np.signbit(t.grad), np.signbit(want)), idx
    # a fancy index that repeats a row keeps accumulating
    t = Tensor(data, requires_grad=True)
    t[np.array([1, 1, 3])].sum().backward()
    assert np.array_equal(t.grad[1], np.full(4, 2.0))


# -- truecaser ---------------------------------------------------------------------------

@pytest.mark.parametrize("emb,hidden", DIMS)
def test_distributions_match_tape_bit_for_bit(emb, hidden):
    tc = truecaser(emb, hidden)
    for ex in sentences():
        text = lowercase_keep_length(" ".join(ex.tokens))
        tape = tc.logits(text)
        assert tape.requires_grad
        assert np.array_equal(tc.distributions(text), softmax_np(tape.data, axis=-1))


def test_held_out_loss_matches_tape_bit_for_bit():
    tc = truecaser(16, 24)
    texts = [" ".join(ex.tokens) for ex in sentences()]
    total, count = 0.0, 0
    for sent in texts:
        labels = np.array([0 if ch.isupper() else 1 for ch in sent])
        loss = cross_entropy(tc.logits(lowercase_keep_length(sent)), labels)
        total += loss.item() * len(sent)
        count += len(sent)
    assert held_out_loss(tc, texts + [""]) == total / count


# -- tagger --------------------------------------------------------------------------------

def tagger(mode, emb, hidden, seed=0):
    data = sentences()
    cfg = RunConfig(case_mode=mode, seed=seed, word_emb_dim=emb, ner_char_emb_dim=emb,
                    cnn_filters=emb, cnn_width=3, ner_hidden_dim=hidden)
    rng = np.random.default_rng(seed)
    table = EmbeddingTable.random(build_word_list(data), cfg.word_emb_dim, rng)
    tc = truecaser(emb, hidden, seed + 2) if mode == MODE_PREDICTED else None
    model = NerModel(table, build_tagset(data), build_char_vocab(data), cfg,
                     truecaser=tc, seed=seed)
    jitter(model.named_params(), seed + 3)
    return model


@pytest.mark.parametrize("emb,hidden", DIMS)
@pytest.mark.parametrize("mode", [MODE_NONE, MODE_PREDICTED, MODE_GOLD])
def test_emissions_match_tape_bit_for_bit(mode, emb, hidden):
    model = tagger(mode, emb, hidden)
    data = sentences()
    # unknown words (the fallback vector) and lowercased text with its source
    data += lowercase_dataset(data[:3])
    data[0].tokens[0] = "zzyzx"
    for ex in data:
        tape = model.emissions(ex)
        assert tape.requires_grad
        with no_grad():
            assert np.array_equal(model.emissions(ex).data, tape.data)


# -- case vectors in training, and the frozen-truecaser cache --------------------------

def count_distributions(monkeypatch):
    """The texts of every truecaser forward in evaluation mode, which gives
    the case vectors."""
    seen = []
    original = Truecaser.logits

    def counting(self, texts, train=False, rng=None):
        if not train:
            seen.extend([texts] if isinstance(texts, str) else texts)
        return original(self, texts, train, rng)

    monkeypatch.setattr(Truecaser, "logits", counting)
    return seen


def cache_setup(regime):
    data = sentences()
    train, dev = data[:6], data[5:8]  # one dev sentence is also a train sentence
    model = tagger(MODE_PREDICTED, 8, 6, seed=4)
    for key, value in dict(epochs=2, patience=0, regime=regime, lr=0.01,
                           pass_through_prob=0.0).items():
        setattr(model.cfg, key, value)
    return model, train, dev


def lowered_text(ex):
    return " ".join(lowercase_keep_length(tok) for tok in ex.tokens)


def test_fixed_regime_runs_the_truecaser_once_per_distinct_sentence(monkeypatch):
    model, train, dev = cache_setup(REGIME_FIXED)
    seen = count_distributions(monkeypatch)
    train_ner(train, model, dev=dev)
    distinct = {lowered_text(ex) for ex in train + dev}
    assert len(distinct) == len(train) + len(dev) - 1
    assert sorted(seen) == sorted(distinct)


def test_fixed_regime_cache_leaves_the_trained_model_unchanged(monkeypatch):
    cached, train, dev = cache_setup(REGIME_FIXED)
    train_ner(train, cached, dev=dev)
    # case rows computed again in every forward, instead of once before training
    emissions = NerModel.emissions
    monkeypatch.setattr(NerModel, "emissions",
                        lambda self, examples, train=False, rng=None, case_rows=None:
                        emissions(self, examples, train, rng))
    uncached, _, _ = cache_setup(REGIME_FIXED)
    train_ner(train, uncached, dev=dev)
    for (name, p), (_, q) in zip(cached.named_params(), uncached.named_params()):
        assert np.array_equal(p.data, q.data), name


def test_finetuned_regime_bypasses_the_cache(monkeypatch):
    model, train, dev = cache_setup(REGIME_FINETUNED)
    seen = count_distributions(monkeypatch)
    train_ner(train, model, dev=dev)
    # the truecaser changes every step, so every training sentence and every
    # dev sentence runs the evaluation pass once per epoch
    assert sorted(seen) == sorted(lowered_text(ex) for ex in train + dev for _ in range(2))


def test_finetuned_training_reads_the_evaluation_pass(monkeypatch):
    """With heavy truecaser dropout and no pass-through, every case block the
    tagger trains on is the truecaser's clean evaluation output, taken with
    the parameters of that step before its update."""
    model, train, _ = cache_setup(REGIME_FINETUNED)
    model.truecaser.dropout_rate = 0.5
    expected, received = [], []
    emissions, case_rows = NerModel.emissions, NerModel._case_rows

    def recording_emissions(self, examples, *args, **kwargs):
        expected.extend(self.truecaser.distributions(lowered_text(ex)) for ex in examples)
        return emissions(self, examples, *args, **kwargs)

    def recording_rows(self, examples, rows):
        rows = case_rows(self, examples, rows)
        received.extend(rows)
        return rows

    monkeypatch.setattr(NerModel, "emissions", recording_emissions)
    monkeypatch.setattr(NerModel, "_case_rows", recording_rows)
    train_ner(train, model)
    assert len(expected) == len(received) == 2 * len(train)
    for want, rows in zip(expected, received):
        assert np.array_equal(rows, want)


# -- batched forwards against one sentence at a time --------------------------------

BATCH_DIMS = [(3, 2), (16, 24), (228, 256)]  # (embedding, hidden)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def record_scans(monkeypatch):
    """(sequences, longest length) of every LSTM scan."""
    scans = []
    scan = LSTMCell._scan

    def recording(runs, xs, saved=None):
        scans.append((len(xs), max(len(x) for x in xs)))
        return scan(runs, xs, saved)

    monkeypatch.setattr(LSTMCell, "_scan", staticmethod(recording))
    return scans


def assert_within_bound(scans, hidden):
    for count, longest in scans:
        assert count == 1 or longest * count * 8 * hidden <= layers.BATCH_ELEMENTS


def mixed_texts(seed):
    """Texts of every length from 1 to 60 in shuffled order, and two of them
    again."""
    rng = np.random.default_rng(seed)
    alphabet = list("abcdefghij .,")
    texts = ["".join(rng.choice(alphabet, size=n)) for n in rng.permutation(np.arange(1, 61))]
    return texts + [texts[7], texts[30]]


def mixed_examples(seed, count):
    """count sentences of 1 to 60 tokens in shuffled order, cut from
    synthetic sentences, and two of them again; every third one lowercased
    with its casing kept aside."""
    rng = np.random.default_rng(seed)
    train, _ = ner_dataset(40, 0, seed=seed)
    tokens = [tok for ex in train for tok in ex.tokens]
    tags = [tag for ex in train for tag in ex.tags]
    examples = []
    for n in rng.permutation(np.linspace(1, 60, count).astype(int)):
        start = int(rng.integers(len(tokens) - n))
        examples.append(NerExample(tokens[start:start + n], tags[start:start + n]))
    examples = [lowercase_dataset([ex])[0] if i % 3 == 0 else ex for i, ex in enumerate(examples)]
    return examples + [examples[3], examples[count // 2]]


@pytest.mark.parametrize("emb,hidden", BATCH_DIMS)
def test_batched_distributions_match_one_text_at_a_time(emb, hidden, monkeypatch):
    tc = truecaser(emb, hidden)
    texts = mixed_texts(hidden)
    scans = record_scans(monkeypatch)
    batched = batch_distributions(tc, texts)
    assert_within_bound(scans, hidden)
    assert sum(count for count, _ in scans) == len(texts)
    # at 3/2 all 62 texts, of lengths 1 to 60, fit in one scan
    assert (scans == [(len(texts), 60)]) == (hidden == 2)
    for text, dist in zip(texts, batched):
        assert_same_bits(dist, tc.distributions(text))


@pytest.mark.parametrize("emb,hidden", BATCH_DIMS)
@pytest.mark.parametrize("mode", [MODE_NONE, MODE_PREDICTED, MODE_GOLD])
def test_batched_emissions_and_tags_match_one_sentence_at_a_time(mode, emb, hidden,
                                                                 monkeypatch):
    model = tagger(mode, emb, hidden)
    data = mixed_examples(hidden, 24 if hidden == 256 else 60)
    scans = record_scans(monkeypatch)
    with no_grad():
        batched = model.emissions(data)
    assert_within_bound(scans, hidden)
    tags = predict_tags(model, data)
    for ex, em, ex_tags in zip(data, batched, tags):
        with no_grad():
            alone = model.emissions(ex).data
        assert_same_bits(em.data, alone)
        assert ex_tags == [model.tagset[i] for i in viterbi_decode(alone, model.crf)]


def test_batch_of_one_matches_one_sentence():
    tc = truecaser(16, 24)
    model = tagger(MODE_PREDICTED, 16, 24)
    ex = sentences()[0]
    text = lowered_text(ex)
    with no_grad():
        (logits,) = tc.logits([text])
        (em,) = model.emissions([ex])
        assert_same_bits(logits.data, tc.logits(text).data)
        assert_same_bits(em.data, model.emissions(ex).data)
    (dist,) = batch_distributions(tc, [text])
    assert_same_bits(dist, tc.distributions(text))


def test_element_bound_splits_a_batch_without_changing_bits(monkeypatch):
    tc = truecaser(16, 24)
    texts = mixed_texts(5)
    whole = batch_distributions(tc, texts)
    # room for 100 character steps of this truecaser per scan
    monkeypatch.setattr(layers, "BATCH_ELEMENTS", 100 * 8 * 24)
    scans = record_scans(monkeypatch)
    split = batch_distributions(tc, texts)
    assert_within_bound(scans, 24)
    assert len(scans) > 10 and max(count for count, _ in scans) > 1
    assert sum(count for count, _ in scans) == len(texts)
    for a, b in zip(split, whole):
        assert_same_bits(a, b)


def test_recorded_forward_over_two_sentences_raises():
    tc = truecaser(3, 2)
    model = tagger(MODE_NONE, 3, 2)
    with pytest.raises(InputError, match="no_grad"):
        tc.logits(["ab", "cd"])
    with pytest.raises(InputError, match="no_grad"):
        model.emissions(sentences()[:2])
    xs = [Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3)))]
    with pytest.raises(InputError, match="no_grad"):
        tc.rnn(xs)
    with no_grad():
        assert len(tc.logits(["ab", "cd"])) == len(tc.rnn(xs)) == 2


def test_truecase_and_eval_pass_empty_and_blank_lines_through(tmp_path, capsys):
    tc = truecaser(16, 24)
    tc.save(str(tmp_path / "tc.ctr"))
    lines = ["", "Alan met Rob .", "   ", "", "a", " \t ", "Rose saw Boston"]
    (tmp_path / "in.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lowered = [lowercase_keep_length(line) for line in lines]
    one_by_one = [apply_truecaser(tc, [line])[0] for line in lowered]
    assert [one_by_one[i] for i in (0, 2, 3, 5)] == ["", "   ", "", " \t "]
    assert main(["truecase", "--model", str(tmp_path / "tc.ctr"), "--input",
                 str(tmp_path / "in.txt"), "--output", str(tmp_path / "out.txt"),
                 "--lowercase"]) == 0
    out = (tmp_path / "out.txt").read_text(encoding="utf-8").split("\n")[:-1]
    assert out == one_by_one
    capsys.readouterr()
    assert main(["eval-truecaser", "--model", str(tmp_path / "tc.ctr"),
                 "--gold", str(tmp_path / "in.txt")]) == 0
    assert capsys.readouterr().out == char_f1(lines, one_by_one).block() + "\n"


# -- the batched inference tail: Viterbi, char CNN, output layer, elementwise ops ------

def tied_crf(rng, T):
    """A CRF whose scores, like the emissions of tied_emissions, are halves:
    many paths tie exactly, and some scores are -0.0."""
    crf = Crf(T, rng)
    for p in (crf.trans, crf.start, crf.end):
        p.data[...] = np.round(rng.normal(0.0, 1.0, p.data.shape) * 2) / 2
    return crf


def tied_emissions(rng, T, count, longest):
    return [np.round(rng.normal(0.0, 1.0, (int(n), T)) * 2) / 2
            for n in rng.integers(1, longest + 1, size=count)]


@pytest.mark.parametrize("T", [2, 4, 9])
def test_batched_viterbi_matches_one_sentence_with_exact_ties(T):
    rng = np.random.default_rng(T)
    for _ in range(200):
        crf = tied_crf(rng, T)
        ems = tied_emissions(rng, T, int(rng.integers(1, 41)), 30)
        ems += [ems[0]]  # a duplicate
        alone = [viterbi_one(em, crf) for em in ems]
        assert viterbi_decode(ems, crf) == [path for path, _ in alone]
        # the scores, from one batch sorted longest first
        order = sorted(range(len(ems)), key=lambda i: -len(ems[i]))
        paths, scores = _viterbi([ems[i] for i in order], crf)
        for k, i in enumerate(order):
            assert paths[k] == alone[i][0]
            assert_same_bits(scores[k], alone[i][1])
    # all scores equal: every tie goes to the lowest tag index
    crf = Crf(T, rng)
    crf.trans.data[...] = 0.0
    assert viterbi_decode([np.zeros((3, T)), np.zeros((1, T))], crf) == [[0, 0, 0], [0]]


def test_viterbi_takes_one_matrix_or_a_list_and_splits_by_the_bound(monkeypatch):
    rng = np.random.default_rng(1)
    crf = tied_crf(rng, 4)
    ems = tied_emissions(rng, 4, 60, 60)
    whole = viterbi_decode(ems, crf)
    assert [viterbi_decode(em, crf) for em in ems] == whole
    assert viterbi_decode(Tensor(ems[0]), crf) == whole[0]
    assert viterbi_decode([], crf) == []
    batches = []
    monkeypatch.setattr(layers, "BATCH_ELEMENTS", 30 * 4 * 5)  # 5 rows of length 30
    decode = crf_module._viterbi
    monkeypatch.setattr(crf_module, "_viterbi",
                        lambda batch, crf: batches.append(len(batch)) or decode(batch, crf))
    assert viterbi_decode(ems, crf) == whole
    assert len(batches) > 5 and max(batches) > 1 and sum(batches) == len(ems)


def token_spans(lengths):
    """Spans of tokens of the given lengths joined by single spaces."""
    starts = np.cumsum([n + 1 for n in lengths]) - [n + 1 for n in lengths]
    return [(int(s), int(s) + n) for s, n in zip(starts, lengths)]


@pytest.mark.parametrize("emb,hidden", BATCH_DIMS)
def test_batched_char_cnn_matches_one_sentence_at_a_time(emb, hidden):
    rng = np.random.default_rng(hidden)
    cnn = CharCNN(emb, hidden, 3, rng)
    jitter(cnn.named_params(), 1)
    sentences = []
    for count in rng.permutation(np.arange(1, 61))[:24 if hidden == 256 else 60]:
        lengths = [int(n) for n in rng.integers(1, 12, size=count)]
        chars = rng.normal(0.0, 1.0, (sum(lengths) + count - 1, emb))
        chars[rng.random(chars.shape) < 0.05] = -0.0
        sentences.append((chars, lengths))
    sentences += [sentences[2], sentences[5]]
    offsets = np.cumsum([len(c) for c, _ in sentences]) - [len(c) for c, _ in sentences]
    spans = [(a + o, b + o) for (_, lengths), o in zip(sentences, offsets)
             for a, b in token_spans(lengths)]
    with no_grad():
        batched = cnn(Tensor(np.concatenate([c for c, _ in sentences])), spans,
                      [len(lengths) for _, lengths in sentences]).data
        alone = [cnn(Tensor(c), token_spans(lengths)).data for c, lengths in sentences]
        assert_same_bits(cnn(Tensor(sentences[0][0]), token_spans(sentences[0][1]),
                             [len(sentences[0][1])]).data, alone[0])
    assert_same_bits(batched, np.concatenate(alone))


@pytest.mark.parametrize("emb,hidden", BATCH_DIMS)
def test_linear_over_a_list_matches_one_input_at_a_time(emb, hidden):
    rng = np.random.default_rng(emb)
    for out_dim in (2, 9, hidden):
        lin = Linear(2 * hidden, out_dim, rng)
        jitter(lin.named_params(), out_dim)
        xs = [Tensor(rng.normal(0.0, 1.0, (int(n), 2 * hidden))) for n in rng.integers(1, 61, 30)]
        with no_grad():
            batched = lin(xs)
            assert len(lin(xs[:1])) == 1
            for x, out in zip(xs, batched):
                assert_same_bits(out.data, lin(x).data)
    with pytest.raises(InputError, match="no_grad"):
        lin(xs)


def test_batched_elementwise_ops_give_each_row_the_floats_of_its_own_call():
    """tanh, softmax and the max of reduceat run once over the rows of a
    whole batch; a SIMD loop must not give a row other floats for standing
    at another position in the array."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        rows, cols = int(rng.integers(1, 400)), int(rng.choice([1, 2, 3, 7, 16, 24]))
        x = rng.normal(0.0, 4.0, (rows, cols))
        x[rng.random(x.shape) < 0.05] = -0.0
        a = int(rng.integers(rows))
        b = int(rng.integers(a + 1, rows + 1))
        assert_same_bits(np.tanh(x)[a:b], np.tanh(x[a:b].copy()))
        pairs = x[:, :2] if cols >= 2 else np.concatenate([x, -x], axis=1)
        assert_same_bits(softmax_np(pairs, axis=-1)[a:b], softmax_np(pairs[a:b].copy(), axis=-1))
        firsts = np.unique(np.append(rng.integers(0, rows, size=5), 0))
        ends = np.append(firsts[1:], rows)
        maxima = np.maximum.reduceat(x, firsts, axis=0)
        for k, (first, end) in enumerate(zip(firsts, ends)):
            assert_same_bits(maxima[k], np.maximum.reduceat(x[first:end].copy(), [0], axis=0)[0])


def test_tag_lowercases_each_sentence_once(tmp_path, monkeypatch):
    model = tagger(MODE_PREDICTED, 3, 2)
    model.save(str(tmp_path / "ner.ctr"))
    data = sentences()
    write_conll(data, str(tmp_path / "in.conll"))
    calls = []
    for module in (ner_module, truecaser_module):
        original = module.lowercase_keep_length
        monkeypatch.setattr(module, "lowercase_keep_length",
                            lambda text, f=original: calls.append(text) or f(text))
    assert main(["tag", "--model", str(tmp_path / "ner.ctr"), "--input",
                 str(tmp_path / "in.conll"), "--output", str(tmp_path / "out.conll"),
                 "--lowercase"]) == 0
    assert calls == [" ".join(ex.tokens) for ex in data]
    lowered = lowercase_dataset(data)
    tags = predict_tags(NerModel.load(str(tmp_path / "ner.ctr")), lowered)
    assert read_conll(str(tmp_path / "out.conll")) == [
        NerExample(ex.tokens, ex_tags) for ex, ex_tags in zip(lowered, tags)]
