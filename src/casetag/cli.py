"""Command-line surface.

Subcommands: prep-stats, prep-corpus, train-truecaser, truecase,
eval-truecaser, train-ner, tag, eval-ner, augment.

Option precedence: built-in defaults < $CASETAG_CONFIG file < --config file
< explicit flags.  Every run's randomness flows from the single seed in the
effective config; metric blocks and model files are byte-identical across
reruns of the same config.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from casetag.config import ENV_CONFIG, MODE_PREDICTED, REGIME_SCRATCH, RunConfig
from casetag.corpus import (
    CasingStats,
    LowercaseRules,
    PrepReport,
    prepare_corpus,
)
from casetag.data import read_conll, read_embeddings, write_conll
from casetag.errors import CasetagError, ConfigError, iter_text_lines, text_lines
from casetag.metrics import PrfScore, bio_decode, char_f1, span_f1
from casetag.ner import (
    EmbeddingTable,
    NerExample,
    NerModel,
    augment_lowercase,
    build_char_vocab,
    build_tagset,
    build_word_list,
    evaluate_ner,
    lowercase_dataset,
    predict_tags,
    train_ner,
)
from casetag.truecaser import (
    TrainStats,
    Truecaser,
    apply_truecaser,
    eval_truecaser,
    lowercase_keep_length,
    train_truecaser,
)

import numpy as np

_DEFAULTS = RunConfig()

_FLAG_HELP = {
    "input": "input file",
    "output": "output file",
    "model": "model container file",
    "truecaser_model": "pretrained truecaser container",
    "train": "training data",
    "dev": "development data for early stopping",
    "test": "evaluation data",
    "embeddings": "word-embedding text file",
    "stats": "casing-statistics table file",
    "rules": "lowercase-rule list file (shipped default when omitted)",
    "gold": "gold-standard file",
    "pred": "prediction file",
    "seed": "master random seed",
    "epochs": "training epochs",
    "lr": "learning rate",
    "dropout": "dropout rate",
    "pass_through_prob": "fraction of truecaser inputs kept in original case",
    "caps_threshold": "drop sentences with capitalized-word ratio above this",
    "clip_norm": "global gradient-norm clip",
    "char_emb_dim": "truecaser character embedding size",
    "tc_hidden_dim": "truecaser LSTM size per direction",
    "min_char_freq": "characters rarer than this map to the unknown id",
    "max_sentence_chars": "truncate longer training sentences",
    "dev_fraction": "held-out fraction when no dev file is given",
    "word_emb_dim": "word embedding size",
    "ner_char_emb_dim": "tagger character embedding size",
    "cnn_filters": "character CNN filter count",
    "cnn_width": "character CNN kernel width",
    "ner_hidden_dim": "tagger LSTM size per direction",
    "case_mode": "case vectors: none, predicted, or gold",
    "regime": "truecaser handling: fixed, finetuned, or scratch",
    "scenario": "training text casing: cased or uncased",
    "aux_weight": "weight of the auxiliary truecasing loss",
    "patience": "early-stopping patience in epochs (0 disables)",
    "lowercase": "lowercase the input tokens first",
    "augment": "append a lowercased copy of the training data",
}


def _add_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file applied before flags")
    for name in names:
        flag = "--" + name.replace("_", "-")
        default = getattr(_DEFAULTS, name)
        note = _FLAG_HELP[name]
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action="store_const", const=True,
                                default=None, help=f"{note} (default: {default})")
        else:
            shown = default if default != "" else "none"
            parser.add_argument(flag, dest=name, default=None, metavar="V",
                                help=f"{note} (default: {shown})")


def _effective_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    env_path = os.environ.get(ENV_CONFIG)
    if env_path:
        cfg = RunConfig.from_file(env_path, base=cfg)
    if args.config:
        cfg = RunConfig.from_file(args.config, base=cfg)
    for key, value in vars(args).items():
        if key in ("command", "config", "func") or value is None:
            continue
        cfg.apply(key, "true" if value is True else str(value), where="<flags>")
    cfg.validate()
    return cfg


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if not getattr(cfg, name):
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"missing required option {flag}")


def _write_lines(path: str, lines) -> None:
    """Write to a temporary file beside `path`, then rename it into place:
    when `lines` streams from an input that fails part way (bytes that are
    not UTF-8), no output file is left.  A path that is a link or not a
    plain file, such as /dev/stdout, is written in place instead."""
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        _write_to(path, lines)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        _write_to(tmp, lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_to(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- subcommands -------------------------------------------------------------


def cmd_prep_stats(cfg: RunConfig) -> int:
    _require(cfg, "input", "output")
    stats = CasingStats.collect(iter_text_lines(cfg.input))
    stats.save(cfg.output)
    _progress(f"collected casing statistics for {len(stats.counts)} words "
              f"over {stats.total_tokens} tokens")
    return 0


def cmd_prep_corpus(cfg: RunConfig) -> int:
    _require(cfg, "input", "output", "stats")
    stats = CasingStats.load(cfg.stats)
    rules = LowercaseRules.load(cfg.rules) if cfg.rules else LowercaseRules.default()
    report = PrepReport()
    cleaned = prepare_corpus(iter_text_lines(cfg.input), stats, rules,
                             threshold=cfg.caps_threshold, report=report)
    _write_lines(cfg.output, cleaned)
    print(report.block())
    return 0


def cmd_train_truecaser(cfg: RunConfig) -> int:
    _require(cfg, "input", "output")
    stats = TrainStats()
    model = train_truecaser(text_lines(cfg.input), cfg, log=_progress, stats=stats)
    model.save(cfg.output)
    if stats.skipped_empty or stats.truncated:
        _progress(f"warning: skipped {stats.skipped_empty} empty sentences, "
                  f"truncated {stats.truncated} over {cfg.max_sentence_chars} chars")
    _progress(f"saved truecaser to {cfg.output}")
    return 0


def cmd_truecase(cfg: RunConfig) -> int:
    _require(cfg, "model", "input")
    model = Truecaser.load(cfg.model)
    lines = text_lines(cfg.input)
    if cfg.lowercase:
        lines = [lowercase_keep_length(line) for line in lines]
    out = apply_truecaser(model, lines)
    if cfg.output:
        _write_lines(cfg.output, out)
    else:
        for line in out:
            print(line)
    return 0


def cmd_eval_truecaser(cfg: RunConfig) -> int:
    _require(cfg, "gold")
    gold = text_lines(cfg.gold)
    if cfg.pred:
        score = char_f1(gold, text_lines(cfg.pred))
    elif cfg.model:
        score = eval_truecaser(Truecaser.load(cfg.model), gold)
    else:
        raise ConfigError("eval-truecaser needs --pred or --model")
    _progress(score.table())
    print(score.block())
    return 0


def cmd_augment(cfg: RunConfig) -> int:
    _require(cfg, "input", "output")
    write_conll(augment_lowercase(read_conll(cfg.input)), cfg.output)
    return 0


def _build_ner_model(cfg: RunConfig, dataset) -> NerModel:
    rng = np.random.default_rng(cfg.seed)
    if cfg.embeddings:
        table = read_embeddings(cfg.embeddings, cfg.word_emb_dim)
    else:
        table = EmbeddingTable.random(build_word_list(dataset), cfg.word_emb_dim, rng)
    char_vocab = build_char_vocab(dataset)
    truecaser = None
    if cfg.case_mode == MODE_PREDICTED:
        if cfg.regime == REGIME_SCRATCH:
            truecaser = Truecaser(char_vocab, cfg.char_emb_dim, cfg.tc_hidden_dim,
                                  cfg.dropout, seed=int(rng.integers(2 ** 31)))
        else:
            _require(cfg, "truecaser_model")
            truecaser = Truecaser.load(cfg.truecaser_model)
    return NerModel(table, build_tagset(dataset), char_vocab, cfg,
                    truecaser=truecaser, seed=int(rng.integers(2 ** 31)))


def cmd_train_ner(cfg: RunConfig) -> int:
    _require(cfg, "train", "output")
    dataset = read_conll(cfg.train)
    dev = read_conll(cfg.dev) if cfg.dev else None
    if dev == []:
        raise ConfigError(f"--dev {cfg.dev} holds no sentences")
    if cfg.scenario == "uncased":
        dataset = lowercase_dataset(dataset)
        dev = lowercase_dataset(dev) if dev else None
    if cfg.augment:
        dataset = augment_lowercase(dataset)
    model = _build_ner_model(cfg, dataset)
    train_ner(dataset, model, dev=dev, log=_progress)
    model.save(cfg.output)
    _progress(f"saved tagger to {cfg.output}")
    return 0


def cmd_tag(cfg: RunConfig) -> int:
    _require(cfg, "model", "input", "output")
    model = NerModel.load(cfg.model)
    dataset = read_conll(cfg.input)
    if cfg.lowercase:
        dataset = lowercase_dataset(dataset)
    tagged = [NerExample(ex.tokens, tags, ex.cased_tokens)
              for ex, tags in zip(dataset, predict_tags(model, dataset))]
    write_conll(tagged, cfg.output)
    return 0


def cmd_eval_ner(cfg: RunConfig) -> int:
    score: PrfScore
    if cfg.pred:
        _require(cfg, "gold")
        gold = read_conll(cfg.gold)
        pred = read_conll(cfg.pred)
        if len(gold) != len(pred):
            raise ConfigError(
                f"gold has {len(gold)} sentences, pred has {len(pred)}")
        score = span_f1([bio_decode(ex.tags) for ex in gold],
                        [bio_decode(ex.tags) for ex in pred])
    else:
        _require(cfg, "model", "test")
        model = NerModel.load(cfg.model)
        dataset = read_conll(cfg.test)
        if cfg.lowercase:
            dataset = lowercase_dataset(dataset)
        score = evaluate_ner(model, dataset)
    _progress(score.table())
    print(score.block())
    return 0


# -- wiring -------------------------------------------------------------------

_COMMANDS = {
    "prep-stats": (cmd_prep_stats, ["input", "output"],
                   "collect per-word casing statistics from a tokenized corpus"),
    "prep-corpus": (cmd_prep_corpus, ["input", "output", "stats", "rules",
                                      "caps_threshold"],
                    "normalize first words, lowercase rule words, drop shouty sentences"),
    "train-truecaser": (cmd_train_truecaser,
                        ["input", "output", "seed", "epochs", "lr", "dropout",
                         "pass_through_prob", "char_emb_dim", "tc_hidden_dim",
                         "min_char_freq", "max_sentence_chars", "dev_fraction",
                         "clip_norm"],
                        "train the character-level truecaser on cased text"),
    "truecase": (cmd_truecase, ["model", "input", "output", "lowercase"],
                 "restore capitalization, one sentence per line"),
    "eval-truecaser": (cmd_eval_truecaser, ["gold", "pred", "model"],
                       "character-level P/R/F1 with uppercase as the positive label"),
    "train-ner": (cmd_train_ner,
                  ["train", "dev", "output", "embeddings", "truecaser_model",
                   "seed", "epochs", "lr", "dropout", "patience", "clip_norm",
                   "word_emb_dim", "ner_char_emb_dim", "cnn_filters", "cnn_width",
                   "ner_hidden_dim", "char_emb_dim", "tc_hidden_dim", "case_mode",
                   "regime", "scenario", "aux_weight", "pass_through_prob",
                   "augment"],
                  "train the BiLSTM-CRF tagger, optionally with case vectors"),
    "tag": (cmd_tag, ["model", "input", "output", "lowercase"],
            "tag a CoNLL file with a trained model"),
    "eval-ner": (cmd_eval_ner, ["model", "test", "gold", "pred", "lowercase"],
                 "exact-match span P/R/F1"),
    "augment": (cmd_augment, ["input", "output"],
                "append a lowercased copy of a CoNLL dataset to itself"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="casetag",
        description="Truecasing as a pretraining signal for case-robust NER.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags, blurb) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb, description=blurb)
        _add_flags(p, flags)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        return args.func(cfg)
    except CasetagError as exc:
        print(f"casetag: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"casetag: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
