"""The workloads: a set-up, then rounds of one user's CLI session, each
round checked.

Every command goes through ``casetag.cli.main`` in this process, as
``casetag <command> ...`` would.  A round repeats the same commands on the
same files, so every round attempts the same operations.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from casebench import calibrate, checks, inputs
from casebench.trace import Tracer
from casetag.cli import main as casetag_main
from casetag.crf import crf_nll
from casetag.ner import NerExample, NerModel
from casetag.nn import Tensor, no_grad

# The synthetic sentences are entity-dense (one to three names in five to
# eight words), so the paper's 0.2 drops most of them; 0.5 still drops every
# headline line.
CAPS_THRESHOLD = 0.5
TRAIN_SEED = 1  # the program's own seed; the inputs vary with the workload seed
# A high learning rate, no dropout and no pass-through get the truecaser past
# predicting all-lowercase within the few hundred steps a round can afford.
TRUECASER_FLAGS = ("--seed", TRAIN_SEED, "--char-emb-dim", 16, "--tc-hidden-dim", 24,
                   "--lr", 0.02, "--dropout", 0.0, "--pass-through-prob", 0.0,
                   "--min-char-freq", 1, "--dev-fraction", 0.1)
# Inputs that do not vary with the workload seed: those of the quality
# probe, whose scores therefore repeat exactly from run to run, and those of
# the tagger workloads' pretrained truecaser, which is the same model in
# every run, as a user's pretrained model would be.
PROBE_SEED = 20191215
TAGGER_FLAGS = ("--seed", TRAIN_SEED, "--lr", 0.005, "--dropout", 0.1)
DESK_TAGGER_DIMS = ("--word-emb-dim", 24, "--ner-char-emb-dim", 8,
                    "--cnn-filters", 16, "--ner-hidden-dim", 24)
CRF_SAMPLE = 8  # test sentences whose decoding the CRF check recomputes


class CommandFailed(Exception):
    pass


class Session:
    """Runs casetag subcommands in process, with files in one directory."""

    def __init__(self, workdir: str, tracer: Tracer, clock: calibrate.Clock):
        self.workdir = workdir
        self.tracer = tracer
        self.clock = clock

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def sub(self, name: str) -> "Session":
        """A session in a subdirectory, with the same tracer and clock."""
        os.makedirs(self.path(name), exist_ok=True)
        return Session(self.path(name), self.tracer, self.clock)

    def run(self, command: str, *args) -> tuple[str, str, float]:
        """(stdout, stderr, reference seconds) of one command."""
        out, err = io.StringIO(), io.StringIO()

        def call() -> int:
            with self.tracer.span("cli." + command), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                return casetag_main([command, *map(str, args)])

        kernel = "text" if command.startswith("prep-") else "tape"
        code, seconds = self.clock.measure(call, kernel)
        if code != 0:
            raise CommandFailed(f"casetag {command} exited {code}: {err.getvalue().strip()}")
        return out.getvalue(), err.getvalue(), seconds


@dataclass
class Round:
    """Operations attempted, work done (raw lines for preparation,
    characters otherwise) and reference seconds per stage (a stage is one or
    two commands), failures found by the checks, and the scores."""
    ops: dict[str, int]
    work: dict[str, int] = field(default_factory=dict)
    seconds: dict[str, float] = field(default_factory=dict)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    f1: dict[str, float] = field(default_factory=dict)
    digests: tuple = ()  # model files, compared across rounds

    def fail(self, stage: str, result: tuple[int, list[str]]) -> None:
        failed, problems = result
        self.failed += min(failed, self.ops[stage])
        self.problems += problems

    def fail_all(self, stage: str, problems: list[str]) -> None:
        """A whole-output problem fails every operation of the stage."""
        self.fail(stage, (self.ops[stage] if problems else 0, problems))


def read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_columns(path: str, examples) -> None:
    """CoNLL with the benchmark's own writer."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.writelines(f"{tok} {tag}\n" for tok, tag in zip(ex.tokens, ex.tags))
            fh.write("\n")


@dataclass(frozen=True)
class TruecaserSizes:
    raw_lines: int    # noisy raw corpus fed to prep-stats and prep-corpus
    train_lines: int  # the first kept lines, which train-truecaser reads
    epochs: int
    heldout: int      # clean cased lines for truecase and eval-truecaser


@dataclass(frozen=True)
class TaggerSizes:
    n_train: int
    n_dev: int
    n_test: int
    heldout: int  # lines truecased with the truecaser inside the tagger
    epochs: int
    patience: int


def write_raw_inputs(s: Session, rng: np.random.Generator, sizes: TruecaserSizes) -> None:
    raw, heldout = inputs.raw_corpus(sizes.raw_lines, sizes.heldout, rng)
    write_lines(s.path("raw.txt"), raw)
    write_lines(s.path("heldout.txt"), heldout)


def prepare_and_pretrain(s: Session, sizes: TruecaserSizes) -> Round:
    """prep-stats and prep-corpus on the raw corpus, then train-truecaser on
    the first kept lines; checks the preparation and the model file."""
    raw = read_lines(s.path("raw.txt"))
    _, _, t_stats = s.run("prep-stats", "--input", s.path("raw.txt"),
                          "--output", s.path("stats.tsv"))
    out, _, t_prep = s.run("prep-corpus", "--input", s.path("raw.txt"),
                           "--stats", s.path("stats.tsv"), "--output", s.path("kept.txt"),
                           "--caps-threshold", CAPS_THRESHOLD)
    kept = read_lines(s.path("kept.txt"))
    train = kept[:sizes.train_lines]
    write_lines(s.path("tc_train.txt"), train)
    # train-truecaser holds out int(0.1 n) lines as its dev set
    r = Round(ops={"prep": len(raw),
                   "train-truecaser": (len(train) - int(len(train) * 0.1)) * sizes.epochs})
    r.work["prep"] = len(raw)
    r.work["train-truecaser"] = sum(map(len, train)) * sizes.epochs
    r.seconds["prep"] = t_stats + t_prep
    _, _, r.seconds["train-truecaser"] = s.run(
        "train-truecaser", "--input", s.path("tc_train.txt"), "--output", s.path("tc.ctr"),
        "--epochs", sizes.epochs, *TRUECASER_FLAGS)
    with s.tracer.paused():
        r.fail("prep", checks.check_prep(raw, kept, checks.parse_block(out), CAPS_THRESHOLD))
        r.fail_all("train-truecaser",
                   checks.check_container(s.path("tc.ctr"), s.path("resaved.ctr")))
    return r


def truecase_and_check(s: Session, r: Round, model: str) -> None:
    """truecase the held-out lines with `model` (a truecaser, or a tagger
    holding one) and score them with eval-truecaser; check both."""
    heldout = read_lines(s.path("heldout.txt"))
    r.ops["truecase"], r.work["truecase"] = len(heldout), sum(map(len, heldout))
    _, _, r.seconds["truecase"] = s.run(
        "truecase", "--model", model, "--input", s.path("heldout.txt"),
        "--output", s.path("truecased.txt"), "--lowercase")
    out, _, _ = s.run("eval-truecaser", "--model", model, "--gold", s.path("heldout.txt"))
    with s.tracer.paused():
        block = checks.parse_block(out)
        r.fail("truecase", checks.check_truecase(
            heldout, read_lines(s.path("truecased.txt")), block))
        r.f1["tc_char_f1"] = checks.prf(int(block["tp"]), int(block["fp"]), int(block["fn"]))


class TruecaserPretrain:
    """Prepare a large noisy raw corpus, pretrain the truecaser on the kept
    lines, truecase held-out text.  The tagger and the CRF stay idle."""

    train_stage = "train-truecaser"
    infer_stage = "truecase"
    data_key = "truecaser"

    def __init__(self, speed: TruecaserSizes, probe: TruecaserSizes):
        self.sizes = {"speed": speed, "probe": probe}

    def setup(self, s: Session, rng: np.random.Generator) -> list[Round]:
        write_raw_inputs(s.sub("speed"), rng, self.sizes["speed"])
        write_raw_inputs(s.sub("probe"), np.random.default_rng(PROBE_SEED),
                         self.sizes["probe"])
        return []

    def round(self, s: Session, kind: str) -> Round:
        d = s.sub(kind)
        r = prepare_and_pretrain(d, self.sizes[kind])
        truecase_and_check(d, r, d.path("tc.ctr"))
        with s.tracer.paused():
            # on this workload the truecaser is the product, so its output's
            # score, recounted by the benchmark, is the task score
            r.f1["task_f1"] = checks.prf(*checks.char_counts(
                read_lines(d.path("heldout.txt")), read_lines(d.path("truecased.txt"))))
            r.digests = (checks.file_digest(d.path("tc.ctr")),)
        return r


class Tagger:
    """train-ner in predicted case mode on uncased text, with a dev set and
    early stopping, on top of the truecaser pretrained during set-up; then
    tag, eval-ner, and truecase with the truecaser the tagger ends with."""

    train_stage = "train-ner"
    infer_stage = "tag"
    data_key = "tagger"  # both regimes read the same data for one seed

    def __init__(self, regime: str, dims: tuple, pretrained: TruecaserSizes,
                 speed: TaggerSizes, probe: TaggerSizes):
        self.regime = regime
        self.dims = dims
        self.pretrained = pretrained
        self.sizes = {"speed": speed, "probe": probe}

    def setup(self, s: Session, rng: np.random.Generator) -> list[Round]:
        """The pretrained truecaser, then the tagger's data."""
        write_raw_inputs(s, np.random.default_rng(PROBE_SEED), self.pretrained)
        record = prepare_and_pretrain(s, self.pretrained)
        for kind, data_rng in (("speed", rng), ("probe", np.random.default_rng(PROBE_SEED))):
            z, d = self.sizes[kind], s.sub(kind)
            splits = inputs.tagged_splits(z.n_train, z.n_dev, z.n_test, data_rng)
            for name, split in zip(("train", "dev", "test"), splits):
                write_columns(d.path(f"{name}.conll"), split)
            write_lines(d.path("heldout.txt"), inputs.raw_corpus(0, z.heldout, data_rng)[1])
        return [record]

    def round(self, s: Session, kind: str) -> Round:
        z, d = self.sizes[kind], s.sub(kind)
        r = Round(ops={"tag": z.n_test})
        _, err, r.seconds["train-ner"] = d.run(
            "train-ner", "--train", d.path("train.conll"), "--dev", d.path("dev.conll"),
            "--output", d.path("ner.ctr"), "--scenario", "uncased",
            "--case-mode", "predicted", "--regime", self.regime,
            "--truecaser-model", s.path("tc.ctr"), "--epochs", z.epochs,
            "--patience", z.patience, *TAGGER_FLAGS, *self.dims)
        epochs = sum(line.startswith("epoch ") for line in err.splitlines())
        r.ops["train-ner"] = z.n_train * epochs
        r.work["train-ner"] = epochs * sentence_chars(d.path("train.conll"))
        r.work["tag"] = sentence_chars(d.path("test.conll"))
        _, _, r.seconds["tag"] = d.run(
            "tag", "--model", d.path("ner.ctr"), "--input", d.path("test.conll"),
            "--output", d.path("tagged.conll"), "--lowercase")
        out, _, _ = d.run("eval-ner", "--model", d.path("ner.ctr"),
                          "--test", d.path("test.conll"), "--lowercase")
        truecase_and_check(d, r, d.path("ner.ctr"))
        with s.tracer.paused():
            test = checks.read_columns(d.path("test.conll"))
            tagged = checks.read_columns(d.path("tagged.conll"))
            model = NerModel.load(d.path("ner.ctr"))
            block = checks.parse_block(out)
            r.fail("tag", checks.check_tags(test, tagged, model.tagset, block))
            r.f1["task_f1"] = checks.prf(int(block["tp"]), int(block["fp"]), int(block["fn"]))
            if not r.failed:
                r.fail_all("tag", crf_problems(model, test, tagged))
            r.fail_all("train-ner", checks.check_regime(s.path("tc.ctr"), d.path("ner.ctr"),
                                                        self.regime))
            r.fail_all("train-ner", checks.check_container(d.path("ner.ctr"),
                                                           d.path("resaved.ctr")))
            r.digests = (checks.file_digest(d.path("ner.ctr")),)
        return r


def sentence_chars(path: str) -> int:
    """Characters of a CoNLL file's sentences, tokens joined by spaces."""
    return sum(len(" ".join(tokens)) for tokens, _ in checks.read_columns(path))


def crf_problems(model: NerModel, test, tagged) -> list[str]:
    """The CRF check on an evenly spaced sample of test sentences, with the
    emissions the tagger computes for the lowercased sentence."""
    rng = np.random.default_rng(0)
    index = {tag: i for i, tag in enumerate(model.tagset)}
    crf = model.crf
    problems = []
    for k in range(0, len(test), max(1, len(test) // CRF_SAMPLE)):
        tokens, gold_tags = test[k]
        example = NerExample([tok.lower() for tok in tokens], gold_tags)
        gold = [index[tag] for tag in gold_tags]
        with no_grad():
            em = model.emissions(example).data
            nll = crf_nll(Tensor(em), gold, crf).item()
        decoded = [index[tag] for tag in tagged[k][1]]
        problems += checks.check_crf(em, crf.trans.data, crf.start.data, crf.end.data,
                                     decoded, gold, nll, rng)
    return problems


def workload(name: str, tiny: bool = False):
    """The named workload at benchmark size, or at a size small enough for
    the benchmark's own tests."""
    if name == "truecaser-pretrain":
        if tiny:
            sizes = TruecaserSizes(raw_lines=300, train_lines=20, epochs=1, heldout=10)
            return TruecaserPretrain(sizes, sizes)
        return TruecaserPretrain(
            speed=TruecaserSizes(raw_lines=30000, train_lines=48, epochs=1, heldout=60),
            probe=TruecaserSizes(raw_lines=10000, train_lines=240, epochs=2, heldout=150))
    if name in ("tagger-fixed", "tagger-finetuned"):
        regime = name.partition("-")[2]
        if tiny:
            tagger = TaggerSizes(n_train=12, n_dev=4, n_test=10, heldout=10,
                                 epochs=2, patience=1)
            return Tagger(regime, DESK_TAGGER_DIMS,
                          TruecaserSizes(raw_lines=200, train_lines=20, epochs=1, heldout=10),
                          tagger, tagger)
        # tagger-fixed at desk dimensions; tagger-finetuned at the CLI's
        # defaults, which are the paper's dimensions
        return Tagger(
            regime, DESK_TAGGER_DIMS if regime == "fixed" else (),
            pretrained=TruecaserSizes(raw_lines=60000, train_lines=160, epochs=2, heldout=100),
            speed=TaggerSizes(n_train=20, n_dev=10, n_test=60, heldout=20,
                              epochs=2, patience=1),
            probe=TaggerSizes(n_train=40, n_dev=20, n_test=60, heldout=100,
                              epochs=6 if regime == "fixed" else 2,
                              patience=2 if regime == "fixed" else 1))
    raise KeyError(name)
