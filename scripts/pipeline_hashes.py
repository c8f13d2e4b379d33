#!/usr/bin/env python3
"""Run the README fixture pipeline in a temporary directory and print the
sha256 of every file it leaves and of every command's stdout and stderr.

    PYTHONPATH=src python3 scripts/pipeline_hashes.py

The steps: make_fixtures.py; prep-stats and prep-corpus; train-truecaser at
dropout 0.25 and 0.0; train-ner with a dev file in case modes none and gold
and in predicted mode with the fixed, finetuned (--patience 1) and scratch
regimes; then eval-truecaser, truecase, tag and eval-ner.  The truecaser's
learning rate is high enough that it predicts capitals on the test file, so
truecase runs its uppercase path.  Then tag with the taggers of case modes
none and gold, and train-ner, tag and eval-ner with frozen word vectors
(--embeddings), from a seeded file that the script writes for every other
word of the training file; that tagger trains at --lr 0.01, where it finds
entities on the test file, so its tags depend on its scores.  Every path is relative to the
temporary directory, so two runs of the same code print the same lines, and
two versions of the code that train the same bytes print the same lines.
Compare the output of two checkouts with diff.  Exits 1 if a command fails.
"""

import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from casetag.cli import main as casetag_main

FIXTURES = Path(__file__).resolve().parent / "make_fixtures.py"

TC = ["--epochs", "3", "--seed", "1", "--char-emb-dim", "24", "--tc-hidden-dim", "32",
      "--min-char-freq", "1", "--lr", "0.01"]
NER = ["--train", "fx/ner_train.conll", "--dev", "fx/ner_test.conll", "--epochs", "2",
       "--seed", "1", "--word-emb-dim", "16", "--ner-char-emb-dim", "16",
       "--cnn-filters", "16", "--ner-hidden-dim", "16", "--char-emb-dim", "24",
       "--tc-hidden-dim", "32", "--scenario", "uncased"]
PREDICTED = ["--case-mode", "predicted", "--truecaser-model", "tc.ctr"]

STEPS = [
    ("prep-stats", ["prep-stats", "--input", "fx/truecaser_train.txt", "--output", "stats.tsv"]),
    ("prep-corpus", ["prep-corpus", "--input", "fx/truecaser_train.txt", "--stats", "stats.tsv",
                     "--output", "clean.txt"]),
    ("train-tc", ["train-truecaser", "--input", "clean.txt", "--output", "tc.ctr", *TC]),
    ("train-tc-nodrop", ["train-truecaser", "--input", "clean.txt", "--output", "tc0.ctr",
                         "--dropout", "0.0", *TC]),
    ("ner-none", ["train-ner", *NER, "--output", "none.ctr"]),
    ("ner-gold", ["train-ner", *NER, "--output", "gold.ctr", "--case-mode", "gold"]),
    ("ner-fixed", ["train-ner", *NER, "--output", "fixed.ctr", *PREDICTED]),
    ("ner-finetuned", ["train-ner", *NER, "--output", "finetuned.ctr", *PREDICTED,
                       "--regime", "finetuned", "--patience", "1"]),
    ("ner-scratch", ["train-ner", *NER, "--output", "scratch.ctr", "--case-mode", "predicted",
                     "--regime", "scratch"]),
    ("eval-tc", ["eval-truecaser", "--model", "tc.ctr", "--gold", "fx/truecaser_test.txt"]),
    ("truecase", ["truecase", "--model", "tc.ctr", "--input", "fx/truecaser_test.txt",
                  "--lowercase", "--output", "truecased.txt"]),
    ("tag", ["tag", "--model", "fixed.ctr", "--input", "fx/ner_test.conll", "--lowercase",
             "--output", "tagged.conll"]),
    ("eval-ner", ["eval-ner", "--model", "finetuned.ctr", "--test", "fx/ner_test.conll",
                  "--lowercase"]),
    ("tag-none", ["tag", "--model", "none.ctr", "--input", "fx/ner_test.conll", "--lowercase",
                  "--output", "tagged_none.conll"]),
    ("tag-gold", ["tag", "--model", "gold.ctr", "--input", "fx/ner_test.conll", "--lowercase",
                  "--output", "tagged_gold.conll"]),
    ("ner-emb", ["train-ner", *NER, "--output", "emb.ctr", "--embeddings", "emb.txt",
                 "--lr", "0.01"]),
    ("tag-emb", ["tag", "--model", "emb.ctr", "--input", "fx/ner_test.conll", "--lowercase",
                 "--output", "tagged_emb.conll"]),
    ("eval-emb", ["eval-ner", "--model", "emb.ctr", "--test", "fx/ner_test.conll",
                  "--lowercase"]),
]
EMB_DIM = 16  # NER's --word-emb-dim


def write_embeddings(conll: Path, path: Path) -> None:
    """Seeded vectors for every other distinct lowercased word of a CoNLL
    file, so the tagger also meets words without one."""
    words = dict.fromkeys(line.split()[0].lower()
                          for line in conll.read_text(encoding="utf-8").splitlines() if line)
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8") as fh:
        for word in list(words)[::2]:
            fh.write(" ".join([word] + [f"{v:.6f}" for v in rng.normal(size=EMB_DIM)]) + "\n")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, str(FIXTURES), "--out", str(work / "fx")],
                       check=True, stdout=subprocess.DEVNULL)
        os.chdir(work)
        write_embeddings(work / "fx" / "ner_train.conll", work / "emb.txt")
        (work / "logs").mkdir()
        for name, argv in STEPS:
            with open(f"logs/{name}.out", "w", encoding="utf-8") as out, \
                    open(f"logs/{name}.err", "w", encoding="utf-8") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = casetag_main(argv)
            if code != 0:
                print(f"{name} exited {code}: {(work / 'logs' / f'{name}.err').read_text()}",
                      file=sys.stderr)
                return 1
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"{sha256(path)}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
