"""Malformed outside inputs end the CLI with exit 1 and one typed error
line naming the file and the line (or the missing key)."""

import numpy as np
import pytest

from casetag.cli import main
from casetag.config import RunConfig
from casetag.data import write_conll
from casetag.errors import iter_text_lines
from casetag.ner import EmbeddingTable, NerExample, NerModel, build_char_vocab, build_tagset
from casetag.truecaser import CharVocab, Truecaser

DATA = [NerExample("Alan visited Boston .".split(), ["B-PER", "O", "B-LOC", "O"]),
        NerExample("the cup was heavy .".split(), ["O"] * 5)]


def one_line_error(capsys, argv, *needles):
    assert main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("casetag: error: "), lines[0]
    for needle in needles:
        assert needle in lines[0], (needle, lines[0])
    return lines[0]


@pytest.fixture
def files(tmp_path):
    """A truecaser file, a tagger file, a CoNLL file and a text file."""
    tc = Truecaser(CharVocab(list("abc ")), char_emb_dim=3, hidden_dim=2, seed=0)
    tc_path = tmp_path / "tc.ctr"
    tc.save(str(tc_path))
    cfg = RunConfig(word_emb_dim=4, ner_char_emb_dim=3, cnn_filters=3, ner_hidden_dim=2)
    table = EmbeddingTable.random(["alan"], 4, np.random.default_rng(0))
    ner_path = tmp_path / "ner.ctr"
    NerModel(table, build_tagset(DATA), build_char_vocab(DATA), cfg).save(str(ner_path))
    conll = tmp_path / "data.conll"
    write_conll(DATA, str(conll))
    text = tmp_path / "text.txt"
    text.write_text("alan ran\n", encoding="utf-8")
    return {"tc": tc_path, "ner": ner_path, "conll": conll, "text": text}


def header_replace(path, old: bytes, new: bytes):
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


def header_line_of(path, prefix: bytes) -> int:
    lines = path.read_bytes().split(b"\n")
    return next(i for i, line in enumerate(lines, start=1) if line.startswith(prefix))


# -- model containers ------------------------------------------------------------------

def test_container_non_integer_section_count(files, capsys):
    path = files["tc"]
    line = header_line_of(path, b"section tc.vocab ")
    header_replace(path, b"section tc.vocab 4\n", b"section tc.vocab four\n")
    one_line_error(capsys, ["truecase", "--model", str(path), "--input", str(files["text"])],
                   str(path), f"line {line}", "'four'")


def test_container_non_integer_param_dimension(files, capsys):
    path = files["ner"]
    line = header_line_of(path, b"param ner.crf.trans ")
    header_replace(path, b"param ner.crf.trans 3,3\n", b"param ner.crf.trans 3,x\n")
    one_line_error(capsys, ["eval-ner", "--model", str(path), "--test", str(files["conll"])],
                   str(path), f"line {line}", "'x'")


def test_container_non_utf8_header_byte(files, capsys):
    path = files["tc"]
    header_replace(path, b"casetag-container 1\n", b"casetag-container 1\nmeta note \xff\xfe\n")
    one_line_error(capsys, ["truecase", "--model", str(path), "--input", str(files["text"])],
                   str(path), "line 2", "UTF-8")


def test_container_section_past_end_of_file(tmp_path, files, capsys):
    path = tmp_path / "short.ctr"
    path.write_bytes(b"casetag-container 1\nmeta kind ner\nsection words 5\nalan\nboston\n")
    one_line_error(capsys, ["tag", "--model", str(path), "--input", str(files["conll"]),
                            "--output", str(tmp_path / "out.conll")],
                   str(path), "line 6", "section words", "line 3")


@pytest.mark.parametrize("model,key", [("ner", "dropout"), ("tc", "tc.hidden_dim")])
def test_container_missing_meta_key(files, capsys, model, key):
    path = files[model]
    data = path.read_bytes()
    start = data.index(f"meta {key} ".encode())
    path.write_bytes(data[:start] + data[data.index(b"\n", start) + 1:])
    if model == "ner":
        argv = ["eval-ner", "--model", str(path), "--test", str(files["conll"])]
    else:
        argv = ["truecase", "--model", str(path), "--input", str(files["text"])]
    one_line_error(capsys, argv, str(path), repr(key))


# -- text inputs ----------------------------------------------------------------------------

def test_corpus_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"Alan ran .\nthe cup \xe9tait\n")
    one_line_error(capsys, ["prep-stats", "--input", str(path),
                            "--output", str(tmp_path / "stats.tsv")],
                   str(path), "line 2", "UTF-8")


def test_prep_corpus_streams_and_leaves_no_output_after_a_bad_line(tmp_path, capsys):
    stats = tmp_path / "stats.tsv"
    stats.write_bytes(b"#total_tokens\t0\n")
    corpus = tmp_path / "corpus.txt"
    n = 20000  # far past the text decoder's first block
    corpus.write_bytes(b"the cup ran .\n" * n + b"the cup \xe9tait\n")
    # read lazily: the first line comes before the bad line is reached
    assert next(iter_text_lines(str(corpus))) == "the cup ran ."
    one_line_error(capsys, ["prep-corpus", "--input", str(corpus), "--stats", str(stats),
                            "--output", str(tmp_path / "clean.txt")],
                   str(corpus), f"line {n + 1}", "UTF-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "stats.tsv"]


def test_prep_corpus_writes_through_a_link(tmp_path, capsys):
    stats = tmp_path / "stats.tsv"
    stats.write_bytes(b"#total_tokens\t0\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(b"the cup ran .\n")
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_bytes(b"")
    link.symlink_to(target)
    assert main(["prep-corpus", "--input", str(corpus), "--stats", str(stats),
                 "--output", str(link)]) == 0
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "the cup ran .\n"


def test_conll_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.conll"
    path.write_bytes(b"Alan B-PER\nran O\n\n\xc3 O\n")
    one_line_error(capsys, ["augment", "--input", str(path),
                            "--output", str(tmp_path / "out.conll")],
                   str(path), "line 4", "UTF-8")


@pytest.mark.parametrize("role", ["--train", "--dev"])
def test_conll_tag_not_bio(tmp_path, files, capsys, role):
    bad = tmp_path / "bad.conll"
    bad.write_text("Alan B-PER\nran O\n\nBoston PER\n", encoding="utf-8")
    data = {"--train": files["conll"], "--dev": files["conll"], role: bad}
    out = tmp_path / "out.ctr"
    one_line_error(capsys, ["train-ner", "--train", str(data["--train"]), "--dev",
                            str(data["--dev"]), "--word-emb-dim", "4", "--epochs", "1",
                            "--output", str(out)],
                   str(bad), "line 4", "malformed BIO tag 'PER'")
    assert not out.exists()


def test_embedding_file_not_utf8(tmp_path, files, capsys):
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"alan 1 2 3 4\nbost\xf6n 5 6 7 8\n")
    one_line_error(capsys, ["train-ner", "--train", str(files["conll"]), "--embeddings",
                            str(path), "--word-emb-dim", "4", "--epochs", "1",
                            "--output", str(tmp_path / "ner.ctr")],
                   str(path), "line 2", "UTF-8")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_embedding_value_not_finite(tmp_path, files, capsys, value):
    path = tmp_path / "vectors.txt"
    path.write_text(f"alan 1 2 3 4\nthe {value} 0 0 0\n", encoding="utf-8")
    one_line_error(capsys, ["train-ner", "--train", str(files["conll"]), "--embeddings",
                            str(path), "--word-emb-dim", "4", "--epochs", "1",
                            "--output", str(tmp_path / "ner.ctr")],
                   str(path), "line 2", "non-finite")


def test_truecaser_corpus_of_blank_lines(tmp_path, capsys):
    corpus = tmp_path / "blank.txt"
    for content in ("\n" * 12, "  \n" * 3 + "\n" * 9):  # empty, then some only spaces
        corpus.write_text(content, encoding="utf-8")
        one_line_error(capsys, ["train-truecaser", "--input", str(corpus), "--epochs", "1",
                                "--output", str(tmp_path / "tc.ctr")],
                       "no training sentences")
        assert [p.name for p in tmp_path.iterdir()] == ["blank.txt"]


def test_empty_dev_file(tmp_path, files, capsys):
    dev = tmp_path / "empty.conll"
    dev.write_text("\n\n", encoding="utf-8")
    one_line_error(capsys, ["train-ner", "--train", str(files["conll"]), "--dev", str(dev),
                            "--word-emb-dim", "4", "--epochs", "1",
                            "--output", str(tmp_path / "out.ctr")],
                   str(dev), "no sentences")
    assert not (tmp_path / "out.ctr").exists()


def test_config_file_not_utf8(tmp_path, files, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"epochs=2\nseed=\xff\n")
    one_line_error(capsys, ["prep-stats", "--config", str(path), "--input", str(files["text"]),
                            "--output", str(tmp_path / "stats.tsv")],
                   str(path), "line 2", "UTF-8")


def test_env_config_file_not_utf8(tmp_path, files, capsys, monkeypatch):
    path = tmp_path / "env.cfg"
    path.write_bytes(b"# defaults\n\xc3(\n")
    monkeypatch.setenv("CASETAG_CONFIG", str(path))
    one_line_error(capsys, ["prep-stats", "--input", str(files["text"]),
                            "--output", str(tmp_path / "stats.tsv")],
                   str(path), "line 2", "UTF-8")


def prep_corpus_argv(tmp_path, files, stats, rules=None):
    argv = ["prep-corpus", "--input", str(files["text"]), "--stats", str(stats),
            "--output", str(tmp_path / "clean.txt")]
    return argv + (["--rules", str(rules)] if rules is not None else [])


@pytest.mark.parametrize("content,line,needle", [
    (b"#total_tokens\t3\nalan\tAlan:2\nbost\xf6n\tBoston:1\n", 3, "UTF-8"),
    (b"#total_tokens\t3\na\tFoo:x\n", 2, "'x'"),
    (b"#total_tokens\tzz\na\tA:1\n", 1, "'zz'"),
    (b"#total_tokens\t4\nmonday\tMonday:-3 monday:1\n", 2, "'-3'"),
])
def test_stats_table_bad_line(tmp_path, files, capsys, content, line, needle):
    path = tmp_path / "stats.tsv"
    path.write_bytes(content)
    one_line_error(capsys, prep_corpus_argv(tmp_path, files, path),
                   str(path), f"line {line}", needle)


def test_rule_list_not_utf8(tmp_path, files, capsys):
    stats = tmp_path / "stats.tsv"
    stats.write_bytes(b"#total_tokens\t0\n")
    path = tmp_path / "rules.txt"
    path.write_bytes(b"# titles\nMr.\nMonday\n\xe9t\xe9\n")
    one_line_error(capsys, prep_corpus_argv(tmp_path, files, stats, rules=path),
                   str(path), "line 4", "UTF-8")


@pytest.mark.parametrize("old,new,line", [
    (b"\n1\t97\n", b"\n1\tx\n", 1),
    (b"\n3\t99\n", b"\n3\t1114112\n", 3),  # one past the last Unicode code point
])
def test_container_bad_vocabulary_line(files, capsys, old, new, line):
    path = files["tc"]
    header_replace(path, old, new)
    one_line_error(capsys, ["truecase", "--model", str(path), "--input", str(files["text"])],
                   str(path), "section tc.vocab", f"line {line}", repr(new.strip().decode()))
