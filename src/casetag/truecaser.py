"""Character-level truecaser: a BiLSTM over the characters of a sentence with
a two-way softmax per position (uppercase vs lowercase).

Training data is manufactured from any cased text: the input is the
lowercased sentence, the labels are the original case values.  A configurable
fraction of sentences is passed through with casing intact so the model
learns to keep capitals it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from casetag.config import RunConfig
from casetag.errors import ConfigError, InputError, ParseError
from casetag.metrics import PrfScore, char_f1
from casetag.nn import (
    Adam,
    BiLSTM,
    Container,
    Embedding,
    Linear,
    Tensor,
    clip_global_norm,
    cross_entropy,
    dropout,
    no_grad,
    prefixed,
    restore_params,
    softmax_np,
    store_params,
)
from casetag.nn.layers import row_blocks, split_rows

# class order of every case distribution: index 0 = uppercase, 1 = lowercase
UPPER, LOWER = 0, 1


def case_labels(text: str) -> np.ndarray:
    """Per-character gold labels; anything without an uppercase form is lowercase."""
    return np.array([UPPER if ch.isupper() else LOWER for ch in text], dtype=np.intp)


def lowercase_keep_length(text: str) -> str:
    """Simple per-character lowercasing.  Characters whose lowercase form is
    not a single character are passed through unchanged.  ASCII text takes
    str.lower(), which maps it character by character; other text does not
    (str.lower() gives a final sigma by context and lowercases İ to two
    characters), so it runs the per-character loop."""
    if text.isascii():
        return text.lower()
    out = []
    for ch in text:
        low = ch.lower()
        out.append(low if len(low) == 1 else ch)
    return "".join(out)


def uppercase_char(ch: str) -> str:
    up = ch.upper()
    return up if len(up) == 1 else ch


@dataclass
class TruecaserExample:
    chars: str
    labels: np.ndarray  # one label per character, from the original casing

    def __post_init__(self):
        if len(self.chars) != len(self.labels):
            raise InputError(
                f"{len(self.chars)} characters vs {len(self.labels)} labels")


def make_training_example(sentence: str, pass_through_prob: float,
                          rng: np.random.Generator) -> TruecaserExample:
    """Lowercase the input (or keep it, with probability pass_through_prob);
    labels always come from the original casing."""
    if not sentence:
        raise InputError("empty sentence")
    labels = case_labels(sentence)
    if pass_through_prob > 0.0 and rng.random() < pass_through_prob:
        chars = sentence
    else:
        chars = lowercase_keep_length(sentence)
    return TruecaserExample(chars, labels)


class CharVocab:
    """Characters mapped to ids; id 0 is the unknown character."""

    UNK = 0

    def __init__(self, chars: list[str]):
        self.chars = list(chars)
        self.index = {ch: i + 1 for i, ch in enumerate(self.chars)}

    def __len__(self) -> int:
        return len(self.chars) + 1

    def encode(self, text: str) -> np.ndarray:
        return np.array([self.index.get(ch, self.UNK) for ch in text], dtype=np.intp)

    @classmethod
    def build(cls, sentences, min_freq: int = 1) -> "CharVocab":
        """Count characters of each sentence and its lowercased form, so both
        cased (pass-through) and lowercased inputs are covered."""
        counts: dict[str, int] = {}
        for sent in sentences:
            for ch in sent + lowercase_keep_length(sent):
                counts[ch] = counts.get(ch, 0) + 1
        kept = sorted((ch for ch, n in counts.items() if n >= min_freq),
                      key=lambda ch: (-counts[ch], ch))
        return cls(kept)

    def to_lines(self) -> list[str]:
        return [f"{i + 1}\t{ord(ch)}" for i, ch in enumerate(self.chars)]

    @classmethod
    def from_lines(cls, lines: list[str], where: str = "<vocabulary>") -> "CharVocab":
        """Parse to_lines() output; where names the source in a ParseError."""
        chars = []
        for i, line in enumerate(lines, start=1):
            _, _, code = line.partition("\t")
            try:
                chars.append(chr(int(code)))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"{where} line {i}: {line!r} is not '<id><TAB><character code>'") from None
        return cls(chars)


class Truecaser:
    def __init__(self, vocab: CharVocab, char_emb_dim: int = 50, hidden_dim: int = 100,
                 dropout_rate: float = 0.25, seed: int | None = 0):
        """seed None draws nothing and leaves every parameter zero, for a
        model whose parameters are loaded next."""
        rng = None if seed is None else np.random.default_rng(seed)
        self.vocab = vocab
        self.char_emb_dim = char_emb_dim
        self.hidden_dim = hidden_dim
        self.dropout_rate = dropout_rate
        self.emb = Embedding(len(vocab), char_emb_dim, rng)
        self.rnn = BiLSTM(char_emb_dim, hidden_dim, rng)
        self.out = Linear(2 * hidden_dim, 2, rng)

    def named_params(self):
        return (prefixed("tc.emb", self.emb) + prefixed("tc.rnn", self.rnn)
                + prefixed("tc.out", self.out))

    def logits(self, texts, train: bool = False,
               rng: np.random.Generator | None = None):
        """(n, 2) class scores, one row per input character, of one text, or
        a list of them for a list of texts.  A list runs in batches of
        similar length (BiLSTM.map_batches) under no_grad, with the scores
        of one text at a time, bit for bit; training passes one text.

        Per batch, the character ids and the embedding lookup run once over
        the batch's texts joined, and the BiLSTM runs one scan; per text run
        only the gemms: the BiLSTM's input projections and the output
        layer's product."""
        one = isinstance(texts, str)
        texts = [texts] if one else texts
        if not all(texts):
            raise InputError("truecaser forward over an empty string")

        def forward(batch):
            vecs = dropout(self.emb(self.vocab.encode("".join(batch))), self.dropout_rate,
                           rng, train)
            hidden = self.rnn(split_rows(vecs, [len(text) for text in batch]))
            return self.out([dropout(h, self.dropout_rate, rng, train) for h in hidden])
        out = self.rnn.map_batches(forward, texts, [len(text) for text in texts])
        return out[0] if one else out

    def distributions(self, text: str) -> np.ndarray:
        """(n, 2) rows (p_upper, p_lower) of one text: logits() in evaluation
        mode, under no_grad.  batch_distributions gives those of many texts
        in one batched forward."""
        with no_grad():
            return softmax_np(self.logits(text).data, axis=-1)

    def training_loss(self, sentence: str, pass_through_prob: float,
                      rng: np.random.Generator) -> Tensor:
        """One training step's truecasing loss on a cased sentence: the
        cross-entropy of the training forward over the lowercased (or, with
        probability pass_through_prob, unchanged) sentence against its
        original casing."""
        ex = make_training_example(sentence, pass_through_prob, rng)
        return cross_entropy(self.logits(ex.chars, train=True, rng=rng), ex.labels)

    # -- persistence -------------------------------------------------------

    def to_container(self, container: Container | None = None) -> Container:
        c = container if container is not None else Container()
        c.meta["tc.char_emb_dim"] = str(self.char_emb_dim)
        c.meta["tc.hidden_dim"] = str(self.hidden_dim)
        c.meta["tc.dropout"] = repr(self.dropout_rate)
        c.sections["tc.vocab"] = self.vocab.to_lines()
        store_params(c, self.named_params())
        return c

    @classmethod
    def from_container(cls, c: Container) -> "Truecaser":
        vocab = CharVocab.from_lines(c.get_section("tc.vocab"), f"{c.path} section tc.vocab")
        model = cls(vocab,
                    char_emb_dim=c.get_meta("tc.char_emb_dim", int),
                    hidden_dim=c.get_meta("tc.hidden_dim", int),
                    dropout_rate=c.get_meta("tc.dropout", float), seed=None)
        restore_params(c, model.named_params())
        return model

    def save(self, path: str) -> None:
        self.to_container().save(path)

    @classmethod
    def load(cls, path: str) -> "Truecaser":
        return cls.from_container(Container.load(path))


@dataclass
class TrainStats:
    skipped_empty: int = 0   # train_truecaser only
    truncated: int = 0       # train_truecaser only
    epoch_log: list = field(default_factory=list)
    best_dev_f1: float | None = None  # percent; set when early stopping ran
    stopped_epoch: int | None = None


def fit(items: list, named_params: list, loss_fn, cfg: RunConfig,
        rng: np.random.Generator, stats: TrainStats, log=None, evaluate=None):
    """The one training loop: cfg.epochs passes over items in rng order, one
    clipped Adam step per item on loss_fn(item, rng).

    After each epoch evaluate(), when given, returns (fields, suffix, score):
    fields join the epoch's {"epoch", "train_loss"} entry, suffix ends its
    log line, and score (higher is better, or None) drives early stopping.
    With cfg.patience > 0 training stops after cfg.patience epochs without a
    better score, and the parameters get back their values from the best
    epoch, whose score is returned; otherwise None is returned."""
    if not items:
        raise ConfigError("no training sentences")
    opt = Adam([p for _, p in named_params], lr=cfg.lr)
    best, best_state, bad_epochs = None, None, 0
    for epoch in range(1, cfg.epochs + 1):
        total = 0.0
        for idx in rng.permutation(len(items)):
            loss = loss_fn(items[idx], rng)
            total += loss.item()
            loss.backward()
            clip_global_norm(opt.params, cfg.clip_norm)
            opt.step()
        entry = {"epoch": epoch, "train_loss": total / len(items)}
        fields, suffix, score = evaluate() if evaluate is not None else ({}, "", None)
        entry.update(fields)
        stats.epoch_log.append(entry)
        if log is not None:
            log(f"epoch {epoch}: train_loss={entry['train_loss']:.4f}{suffix}")
        if score is None or cfg.patience == 0:
            continue
        if best is None or score > best:
            best, bad_epochs = score, 0
            best_state = opt.arena.copy()
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                stats.stopped_epoch = epoch
                break
    if best_state is not None:
        opt.arena[...] = best_state
    return best


def train_truecaser(sentences: list[str], cfg: RunConfig,
                    log=None, stats: TrainStats | None = None) -> Truecaser:
    """Per-character cross-entropy training; deterministic given cfg.seed.

    Training sentences that are empty or hold only whitespace are dropped,
    and longer ones truncated to cfg.max_sentence_chars, once, after the
    held-out split and the vocabulary are made; stats counts both."""
    cfg.validate()
    sentences = list(sentences)
    stats = stats if stats is not None else TrainStats()
    rng = np.random.default_rng(cfg.seed)

    order = rng.permutation(len(sentences))
    n_dev = int(len(sentences) * cfg.dev_fraction)
    dev = [sentences[i] for i in order[:n_dev]]
    train = [sentences[i] for i in order[n_dev:]]

    vocab = CharVocab.build(train, min_freq=cfg.min_char_freq)
    model = Truecaser(vocab, cfg.char_emb_dim, cfg.tc_hidden_dim, cfg.dropout,
                      seed=int(rng.integers(2 ** 31)))
    kept = [sent for sent in train if sent.strip()]
    stats.skipped_empty += len(train) - len(kept)
    stats.truncated += sum(len(sent) > cfg.max_sentence_chars for sent in kept)
    kept = [sent[:cfg.max_sentence_chars] for sent in kept]

    def evaluate():
        dev_loss = held_out_loss(model, dev)
        return {"dev_loss": dev_loss}, f" dev_loss={dev_loss:.4f}", None

    fit(kept, model.named_params(),
        lambda sent, rng: model.training_loss(sent, cfg.pass_through_prob, rng),
        cfg, rng, stats, log, evaluate)
    return model


def held_out_loss(model: Truecaser, sentences: list[str]) -> float:
    """Mean per-character loss on fully lowercased inputs, summed in input
    order; empty sentences are skipped, and no sentence gives 0.0."""
    sentences = [sent for sent in sentences if sent]
    if not sentences:
        return 0.0
    total, count = 0.0, 0
    with no_grad():
        logits = model.logits([lowercase_keep_length(sent) for sent in sentences])
        for sent, scores in zip(sentences, logits):
            total += cross_entropy(scores, case_labels(sent)).item() * len(sent)
            count += len(sent)
    return total / count


def batch_distributions(model: Truecaser, texts: list[str]) -> list[np.ndarray]:
    """model.distributions(text) of each text, bit for bit: one batched
    forward over the non-empty texts, then one softmax over all their rows.
    An empty text gets no rows."""
    kept = [text for text in texts if text]
    if not kept:
        return [np.zeros((0, 2)) for _ in texts]
    with no_grad():
        logits = model.logits(kept)
    probs = iter(row_blocks(softmax_np(np.concatenate([scores.data for scores in logits]),
                                       axis=-1), [len(text) for text in kept]))
    return [next(probs) if text else np.zeros((0, 2)) for text in texts]


def apply_truecaser(model: Truecaser, texts: list[str]) -> list[str]:
    """Each text with exactly the characters predicted uppercase uppercased;
    input text is consumed as given (pass-through training makes cased input
    meaningful), and an empty text comes back unchanged."""
    return ["".join(uppercase_char(ch) if up else ch
                    for ch, up in zip(text, np.argmax(dist, axis=1) == UPPER))
            for text, dist in zip(texts, batch_distributions(model, texts))]


def case_distributions(model: Truecaser, texts: list[str]) -> list[np.ndarray]:
    """For each of the lowercased, space-joined sentences texts, the
    truecaser's (n, 2) distribution rows over its n characters, the joining
    spaces' rows included; each distinct text runs once, in one batched
    forward."""
    distinct = list(dict.fromkeys(texts))
    rows = dict(zip(distinct, batch_distributions(model, distinct)))
    return [rows[text] for text in texts]


def eval_truecaser(model: Truecaser, cased_sentences: list[str]) -> PrfScore:
    """Char-level P/R/F1 of predictions on the lowercased corpus against the
    original casing."""
    preds = apply_truecaser(model, [lowercase_keep_length(sent) for sent in cased_sentences])
    return char_f1(cased_sentences, preds)
