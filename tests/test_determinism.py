"""The determinism contract across processes: two interpreters started with
different string-hash seeds train a truecaser and a finetuned tagger from
the same inputs and write byte-identical model files."""

import os
import subprocess
import sys
from pathlib import Path

import casetag
from casetag.data import write_conll
from casetag.synthetic import ner_dataset, truecaser_corpus

# trains tc.ctr and ner.ctr in the directory given as argv[1]
TRAIN = """
import sys
from casetag.cli import main
d, = sys.argv[1:]
assert main(["train-truecaser", "--input", "corpus.txt", "--output", d + "/tc.ctr",
             "--char-emb-dim", "6", "--tc-hidden-dim", "5", "--epochs", "2",
             "--min-char-freq", "1", "--seed", "3"]) == 0
assert main(["train-ner", "--train", "train.conll", "--dev", "dev.conll",
             "--output", d + "/ner.ctr", "--case-mode", "predicted",
             "--regime", "finetuned", "--truecaser-model", d + "/tc.ctr",
             "--char-emb-dim", "6", "--tc-hidden-dim", "5", "--word-emb-dim", "6",
             "--ner-char-emb-dim", "4", "--cnn-filters", "5", "--ner-hidden-dim", "3",
             "--epochs", "2", "--patience", "1", "--seed", "3"]) == 0
"""


def test_model_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    sents, _ = truecaser_corpus(20, 0, seed=4)
    (tmp_path / "corpus.txt").write_text("\n".join(sents) + "\n", encoding="utf-8")
    train, dev = ner_dataset(10, 4, seed=4)
    write_conll(train, str(tmp_path / "train.conll"))
    write_conll(dev, str(tmp_path / "dev.conll"))
    src = str(Path(casetag.__file__).resolve().parent.parent)
    models = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash{hash_seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", TRAIN, str(out)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        models.append([(out / name).read_bytes() for name in ("tc.ctr", "ner.ctr")])
    assert models[0] == models[1]
