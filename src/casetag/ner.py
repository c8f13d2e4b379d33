"""BiLSTM-CRF named-entity tagger whose per-character inputs can carry case
distributions from a truecaser.

Case vector modes:
    none       plain character embeddings
    predicted  truecaser output appended per character, detached from the
               tag-loss gradient so the tagger learns from the truecaser's
               actual mistakes
    gold       one-hot casing of the original text, the ceiling condition

In predicted mode the case vectors always come from the truecaser's
evaluation pass over the lowercased sentence (case_distributions), in every
regime and at training and test time alike.

Truecaser regimes (predicted mode only):
    fixed      pretrained truecaser, parameters frozen
    finetuned  pretrained truecaser, updated through an auxiliary casing loss
    scratch    randomly initialized truecaser, trained jointly via the same
               auxiliary loss

The auxiliary loss is the truecaser's own training step
(Truecaser.training_loss) on the sentence's original casing, so the finetuned
and scratch regimes run the truecaser twice per training sentence: once in
training mode for that loss and once in evaluation mode for the case vectors.

NerModel.emissions is the tagger's one forward: training records it on the
tape for one sentence, and evaluation and tagging run it under no_grad over
a whole dataset, in batches of sentences of similar length.  It builds a
handful of nodes per batch: the character rows of the space-joined
sentences, the char CNN over every token at once, the word vectors, the
BiLSTM and the output layer.  predict_tags then decodes all the sentences
in padded batches (viterbi_decode).  Each example carries the lowercased
text that the truecaser reads (NerExample.lowered_text), so a command
lowercases a sentence once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

# the mode and regime names are defined with the run configuration and
# re-exported here as part of the tagger's interface
from casetag.config import (
    MODE_GOLD,
    MODE_NONE,
    MODE_PREDICTED,
    REGIME_FINETUNED,
    REGIME_FIXED,
    REGIME_SCRATCH,
    RunConfig,
)
from casetag.crf import Crf, crf_nll, viterbi_decode
from casetag.errors import AlignmentError, ConfigError, InputError
from casetag.metrics import bio_decode, span_f1
from casetag.nn import (
    BiLSTM,
    CharCNN,
    Container,
    Embedding,
    Linear,
    Tensor,
    clip_global_norm,  # not called here: casebench's tracer wraps it under this module
    concat,
    dropout,
    no_grad,
    prefixed,
    restore_params,
    store_params,
)
from casetag.nn.layers import split_rows
from casetag.nn.tensor import _result
from casetag.truecaser import (
    CharVocab,
    TrainStats,
    Truecaser,
    case_distributions,
    case_labels,
    fit,
    lowercase_keep_length,
)

@dataclass
class NerExample:
    tokens: list[str]
    tags: list[str]
    cased_tokens: list[str] | None = None  # original surfaces when tokens were lowercased
    # lowered_text(), once computed; the tokens are not changed after that
    lowered: str | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise InputError(f"{len(self.tokens)} tokens vs {len(self.tags)} tags")

    def source_tokens(self) -> list[str]:
        return self.cased_tokens if self.cased_tokens is not None else self.tokens

    def lowered_text(self) -> str:
        """The truecaser's input: lowercase_keep_length of the space-joined
        tokens, computed once and carried with the example."""
        if self.lowered is None:
            self.lowered = lowercase_keep_length(" ".join(self.tokens))
        return self.lowered


def lowercase_example(example: NerExample) -> NerExample:
    """The example with every token lowercased, cut from the lowercased
    space-joined tokens, which it carries as its lowered_text(): lowercasing
    is per character, so that text is also the lowered text of the new
    tokens.  The source example is not changed."""
    lowered = example.lowered or lowercase_keep_length(" ".join(example.tokens))
    tokens, start = [], 0
    for token in example.tokens:
        tokens.append(lowered[start:start + len(token)])
        start += len(token) + 1  # skip the joining space
    return NerExample(tokens, list(example.tags), list(example.source_tokens()), lowered)


def lowercase_dataset(dataset: list[NerExample]) -> list[NerExample]:
    """Every token lowercased, tags unchanged; the original casing is kept
    aside for gold case vectors and the auxiliary loss.  Idempotent."""
    return [lowercase_example(ex) for ex in dataset]


def augment_lowercase(dataset: list[NerExample]) -> list[NerExample]:
    """The dataset followed by a fully lowercased copy of itself."""
    return list(dataset) + [lowercase_example(ex) for ex in dataset]


class EmbeddingTable:
    """Word vectors keyed by lowercased word, with a learned fallback vector."""

    def __init__(self, words: list[str], vectors: np.ndarray, unk: np.ndarray,
                 trainable: bool):
        self.words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ConfigError("duplicate words in embedding table")
        self.vectors = Tensor(np.asarray(vectors, dtype=np.float64), requires_grad=trainable)
        self.unk = Tensor(np.asarray(unk, dtype=np.float64), requires_grad=True)
        self.trainable = trainable

    @property
    def dim(self) -> int:
        return self.vectors.data.shape[1]

    def __call__(self, words: list[str]) -> Tensor:
        """(len(words), dim) rows as one tape node: each word's vector, looked
        up lowercased, or the fallback vector.  A table that no word reads is
        not a parent of the node, so its gradient stays None, not zero."""
        ids = np.array([self.index.get(w.lower(), -1) for w in words], dtype=np.intp)
        known = ids >= 0
        any_known, any_unknown = bool(known.any()), not known.all()
        rows = np.empty((len(ids), self.dim), dtype=np.float64)
        rows[known] = self.vectors.data[ids[known]]
        rows[~known] = self.unk.data

        def bw(g):
            if any_known and self.vectors.requires_grad:
                np.add.at(self.vectors._grad_buffer(), ids[known], g[known])
            if any_unknown and self.unk.requires_grad:
                self.unk._accumulate(g[~known].sum(axis=0))
        return _result(rows, [self.vectors] * any_known + [self.unk] * any_unknown, bw)

    @classmethod
    def random(cls, words: list[str], dim: int, rng: np.random.Generator) -> "EmbeddingTable":
        limit = np.sqrt(6.0 / (len(words) + dim)) if words else 1.0
        vectors = rng.uniform(-limit, limit, size=(len(words), dim))
        unk = rng.uniform(-limit, limit, size=dim)
        return cls(words, vectors, unk, trainable=True)

    def named_arrays(self):
        """Every array the table reads, trained or frozen."""
        return [("unk", self.unk), ("vectors", self.vectors)]

    def named_params(self):
        return [(name, p) for name, p in self.named_arrays() if p.requires_grad]


def build_word_list(dataset: list[NerExample]) -> list[str]:
    """Lowercased vocabulary in first-occurrence order."""
    seen: dict[str, None] = {}
    for ex in dataset:
        for tok in ex.tokens:
            seen.setdefault(tok.lower(), None)
    return list(seen)


def build_tagset(dataset: list[NerExample]) -> list[str]:
    return sorted({tag for ex in dataset for tag in ex.tags})


def build_char_vocab(dataset: list[NerExample]) -> CharVocab:
    texts = [" ".join(ex.tokens) for ex in dataset]
    texts += [" ".join(ex.source_tokens()) for ex in dataset]
    return CharVocab.build(texts)


def gold_case_vectors(text: str) -> np.ndarray:
    """One-hot casing rows of case_labels(text): (1,0) for an uppercase
    character, (0,1) otherwise."""
    return np.eye(2)[case_labels(text)]


# container meta key -> RunConfig field of each tagger dimension; the keys
# predate the ner_ prefix and keep their names so model files stay readable
_META_DIMS = (("word_emb_dim", "word_emb_dim"), ("char_emb_dim", "ner_char_emb_dim"),
              ("cnn_filters", "cnn_filters"), ("cnn_width", "cnn_width"),
              ("hidden_dim", "ner_hidden_dim"))


class NerModel:
    def __init__(self, word_table: EmbeddingTable, tagset: list[str],
                 char_vocab: CharVocab, cfg: RunConfig,
                 truecaser: Truecaser | None = None, seed: int | None = 0):
        """seed None draws nothing and leaves every parameter zero, for a
        model whose parameters are loaded next."""
        cfg.validate()
        if cfg.case_mode == MODE_PREDICTED and truecaser is None:
            raise ConfigError("predicted case mode needs an attached truecaser")
        rng = None if seed is None else np.random.default_rng(seed)
        self.cfg = cfg
        self.word_table = word_table
        self.tagset = list(tagset)
        self.tag_index = {t: i for i, t in enumerate(self.tagset)}
        self.char_vocab = char_vocab
        self.truecaser = truecaser
        self.case_mode = cfg.case_mode
        char_in = cfg.ner_char_emb_dim + (2 if cfg.case_mode != MODE_NONE else 0)
        self.char_emb = Embedding(len(char_vocab), cfg.ner_char_emb_dim, rng)
        self.cnn = CharCNN(char_in, cfg.cnn_filters, cfg.cnn_width, rng)
        self.lstm = BiLSTM(word_table.dim + cfg.cnn_filters, cfg.ner_hidden_dim, rng)
        self.emit = Linear(2 * cfg.ner_hidden_dim, len(self.tagset), rng)
        self.crf = Crf(len(self.tagset), rng)

    def named_params(self):
        return [(name, p) for name, p in self.named_arrays() if p.requires_grad]

    def named_arrays(self):
        """Every array the model reads, which a model file stores: the
        parameters, and the word vectors when they are frozen."""
        out = [("ner.words." + name, p) for name, p in self.word_table.named_arrays()]
        out += prefixed("ner.chars", self.char_emb)
        out += prefixed("ner.cnn", self.cnn)
        out += prefixed("ner.lstm", self.lstm)
        out += prefixed("ner.emit", self.emit)
        out += prefixed("ner.crf", self.crf)
        return out

    # -- forward -----------------------------------------------------------

    def _case_rows(self, examples: list[NerExample], case_rows: list | None) -> list:
        """Each example's two case columns appended to the character rows of
        its space-joined sentence, or None for each in mode none.  In
        predicted mode case_rows, when given, holds them already (the
        truecaser's distributions over each example's lowered_text());
        otherwise the truecaser computes them here, in one batched pass."""
        if self.case_mode == MODE_PREDICTED:
            if case_rows is None:
                case_rows = case_distributions(self.truecaser,
                                               [ex.lowered_text() for ex in examples])
            for example, rows in zip(examples, case_rows):
                if len(rows) != sum(map(len, example.tokens)) + len(example.tokens) - 1:
                    text = " ".join(example.tokens)
                    raise AlignmentError(f"sentence {text!r} needs {len(text)} case "
                                         f"distributions, got {len(rows)}")
            return case_rows
        if self.case_mode == MODE_GOLD:
            out = []
            for example in examples:
                cased = example.source_tokens()
                for token, cased_token in zip_longest(example.tokens, cased, fillvalue=""):
                    if len(cased_token) != len(token):
                        raise AlignmentError(
                            f"cased form {cased_token!r} does not align with token {token!r}")
                out.append(gold_case_vectors(" ".join(cased)))
            return out
        return [None] * len(examples)

    def emissions(self, examples, train: bool = False,
                  rng: np.random.Generator | None = None,
                  case_rows: list | None = None):
        """(L, tags) scores of a sentence of L tokens, for one example, or a
        list of them for a list of examples.  Each token's input to the
        BiLSTM is its word vector beside the char-CNN encoding of its
        characters.  A list runs in batches of similar length
        (BiLSTM.map_batches) under no_grad, with the scores of one sentence
        at a time, bit for bit; training passes a list of one.  case_rows is
        passed to _case_rows.

        Per batch, the character ids, the character and word lookups, the
        case-row concatenation, the CNN's window indices, tanh and max, and
        the BiLSTM's scan run once over all the batch's sentences; per
        sentence run only the gemms: the CNN's, the BiLSTM's input
        projections and the output layer's."""
        one = isinstance(examples, NerExample)
        examples = [examples] if one else examples
        if not all(ex.tokens for ex in examples):
            raise InputError("empty sentence")
        case_rows = self._case_rows(examples, case_rows)

        def forward(batch):
            x = dropout(self._token_inputs(batch), self.cfg.dropout, rng, train)
            hidden = self.lstm(split_rows(x, [len(ex.tokens) for ex, _ in batch]))
            return self.emit([dropout(h, self.cfg.dropout, rng, train) for h in hidden])
        out = self.lstm.map_batches(forward, list(zip(examples, case_rows)),
                                    [len(ex.tokens) for ex in examples])
        return out[0] if one else out

    def _token_inputs(self, batch: list) -> Tensor:
        """The (N, word + filters) BiLSTM inputs of the N tokens of the
        batch's (example, case rows) pairs, sentence after sentence."""
        texts = [" ".join(ex.tokens) for ex, _ in batch]
        chars = self.char_emb(self.char_vocab.encode("".join(texts)))
        if batch[0][1] is not None:
            chars = concat([chars, Tensor(np.concatenate([rows for _, rows in batch]))], axis=1)
        tokens = [token for ex, _ in batch for token in ex.tokens]
        counts = [len(ex.tokens) for ex, _ in batch]
        # each token and the space after it, except after a sentence's last token
        lengths = np.array([len(token) for token in tokens], dtype=np.intp)
        starts = np.cumsum(lengths + 1) - (lengths + 1)
        starts -= np.repeat(np.arange(len(batch)), counts)
        spans = np.stack([starts, starts + lengths], axis=1)
        return concat([self.word_table(tokens), self.cnn(chars, spans, counts)], axis=1)

    def tag_ids(self, tags: list[str]) -> np.ndarray:
        try:
            return np.array([self.tag_index[t] for t in tags], dtype=np.intp)
        except KeyError as exc:
            raise InputError(f"tag {exc.args[0]!r} not in the model tag inventory") from exc

    # -- persistence ---------------------------------------------------------

    def to_container(self) -> Container:
        c = Container()
        c.meta["kind"] = "ner"
        for key, field_name in _META_DIMS:
            c.meta[key] = str(getattr(self.cfg, field_name))
        c.meta["dropout"] = repr(self.cfg.dropout)
        c.meta["case_mode"] = self.case_mode
        c.meta["words_trainable"] = "1" if self.word_table.trainable else "0"
        c.sections["tags"] = list(self.tagset)
        c.sections["words"] = list(self.word_table.words)
        c.sections["char_vocab"] = self.char_vocab.to_lines()
        store_params(c, self.named_arrays())
        if self.truecaser is not None:
            self.truecaser.to_container(c)
        return c

    def save(self, path: str) -> None:
        self.to_container().save(path)

    @classmethod
    def load(cls, path: str) -> "NerModel":
        c = Container.load(path)
        cfg = RunConfig(dropout=c.get_meta("dropout", float), case_mode=c.get_meta("case_mode"),
                        **{name: c.get_meta(key, int) for key, name in _META_DIMS})
        words = c.get_section("words")
        dim = cfg.word_emb_dim
        trainable = c.get_meta("words_trainable") == "1"
        table = EmbeddingTable(words, np.zeros((len(words), dim)), np.zeros(dim), trainable)
        truecaser = None
        if "tc.vocab" in c.sections:
            truecaser = Truecaser.from_container(c)
        char_vocab = CharVocab.from_lines(c.get_section("char_vocab"),
                                          f"{c.path} section char_vocab")
        model = cls(table, c.get_section("tags"), char_vocab, cfg, truecaser=truecaser,
                    seed=None)
        restore_params(c, model.named_arrays())
        return model


def predict_tags(model: NerModel, examples: list[NerExample],
                 case_rows: list | None = None) -> list[list[str]]:
    """The Viterbi tags of each example: one forward under no_grad
    (emissions, batched, with the per-sentence gemms it lists) and one
    decode of all the scores in padded batches (viterbi_decode), each
    sentence's tags bit for bit those of the sentence alone; case_rows is
    passed to emissions."""
    with no_grad():
        scores = model.emissions(examples, case_rows=case_rows)
    return [[model.tagset[i] for i in path] for path in viterbi_decode(scores, model.crf)]


def evaluate_ner(model: NerModel, dataset: list[NerExample],
                 case_rows: list | None = None):
    gold = [bio_decode(ex.tags) for ex in dataset]
    pred = [bio_decode(tags) for tags in predict_tags(model, dataset, case_rows)]
    return span_f1(gold, pred)


def _dataset_has_casing(dataset: list[NerExample]) -> bool:
    return any(ch.isupper() for ex in dataset for tok in ex.source_tokens() for ch in tok)


def train_ner(dataset: list[NerExample], model: NerModel,
              dev: list[NerExample] | None = None, log=None,
              stats: TrainStats | None = None) -> NerModel:
    """Sentence-at-a-time training under model.cfg; loss = CRF NLL plus (in
    the finetuned and scratch regimes) aux_weight times the truecaser's
    training loss on the sentence's original casing.  Tag-loss gradients
    never reach the truecaser.  With a dev set and cfg.patience > 0, the
    parameters of the epoch with the best dev F1 are kept."""
    cfg = model.cfg
    cfg.validate()
    if cfg.case_mode == MODE_GOLD and not _dataset_has_casing(dataset):
        raise ConfigError("gold case vectors requested but the training text carries no casing")
    # validate() admits the finetuned and scratch regimes only in predicted mode
    aux_active = cfg.regime != REGIME_FIXED
    stats = stats if stats is not None else TrainStats()

    trained = model.named_params() + (model.truecaser.named_params() if aux_active else [])
    # a frozen truecaser gives the same distributions for the same text, so
    # one batched pass over the training and dev sentences, before training,
    # serves every epoch and dev pass
    rows, dev_rows = [None] * len(dataset), None
    if cfg.case_mode == MODE_PREDICTED and not aux_active:
        rows = case_distributions(model.truecaser,
                                  [ex.lowered_text() for ex in dataset + (dev or [])])
        rows, dev_rows = rows[:len(dataset)], rows[len(dataset):]

    def loss_fn(item, rng: np.random.Generator) -> Tensor:
        # the auxiliary loss draws from rng before the tagger's dropout; the
        # case vectors come from the truecaser's evaluation pass, which
        # draws nothing
        ex, ex_rows = item
        aux = None
        if aux_active:
            aux = model.truecaser.training_loss(" ".join(ex.source_tokens()),
                                                cfg.pass_through_prob, rng)
        scores, = model.emissions([ex], train=True, rng=rng,
                                  case_rows=None if ex_rows is None else [ex_rows])
        loss = crf_nll(scores, model.tag_ids(ex.tags), model.crf)
        return loss if aux is None else loss + aux * cfg.aux_weight

    def evaluate():
        f1 = evaluate_ner(model, dev, dev_rows).f1
        return {"dev_f1": 100 * f1}, f" dev_f1={100 * f1:.1f}", f1

    best = fit(list(zip(dataset, rows)), trained, loss_fn, cfg,
               np.random.default_rng(cfg.seed), stats, log, evaluate if dev else None)
    if best is not None:
        stats.best_dev_f1 = 100 * best
    return model
