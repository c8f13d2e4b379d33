"""RunConfig round-trips and the command-line surface, including a full
pipeline smoke run on a tiny synthetic fixture."""

import numpy as np
import pytest

from casetag.cli import _COMMANDS, build_parser, main
from casetag.config import ENV_CONFIG, RunConfig
from casetag.errors import ParseError
from casetag.synthetic import ner_dataset, truecaser_corpus
from casetag.data import write_conll
from casetag.ner import lowercase_dataset


# -- config ---------------------------------------------------------------------

def test_config_roundtrip_identity(tmp_path):
    cfg = RunConfig(seed=7, epochs=3, lr=0.05, case_mode="gold", lowercase=True,
                    input="a.txt", caps_threshold=0.3)
    path = tmp_path / "run.cfg"
    cfg.save(str(path))
    again = RunConfig.from_file(str(path))
    assert again == cfg
    path2 = tmp_path / "run2.cfg"
    again.save(str(path2))
    assert path.read_text() == path2.read_text()


def test_config_rejects_unknown_key():
    cfg = RunConfig()
    with pytest.raises(ParseError):
        cfg.apply_line("nonsense=1")


def test_config_rejects_bad_value():
    cfg = RunConfig()
    with pytest.raises(ParseError):
        cfg.apply("epochs", "three")
    with pytest.raises(ParseError):
        cfg.apply("lowercase", "yep")


def test_config_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\n\nseed=9\n", encoding="utf-8")
    assert RunConfig.from_file(str(path)).seed == 9


# -- flag handling -----------------------------------------------------------------

def test_every_subcommand_help_lists_flags_with_defaults():
    parser = build_parser()
    defaults = RunConfig()
    for name, (_, flags, _) in _COMMANDS.items():
        sub = parser._subparsers._group_actions[0].choices[name]
        text = sub.format_help()
        for field in flags:
            flag = "--" + field.replace("_", "-")
            assert flag in text, (name, flag)
            assert "default:" in text
        assert "--config" in text


def test_parser_is_built_once_and_keeps_no_flags_between_calls():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["tag", "--model", "m", "--lowercase"])
    second = parser.parse_args(["tag", "--model", "m"])
    assert (first.lowercase, second.lowercase) == (True, None)


def test_flags_override_config_file(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("Alan ran\n", encoding="utf-8")
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(f"gold={gold}\npred=/nonexistent\n", encoding="utf-8")
    rc = main(["eval-truecaser", "--config", str(cfg_file), "--pred", str(gold)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "f1=100.0" in out


def test_env_config_applies(tmp_path, monkeypatch, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("Alan ran\n", encoding="utf-8")
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text(f"gold={gold}\npred={gold}\n", encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG, str(env_cfg))
    rc = main(["eval-truecaser"])
    assert rc == 0
    assert "f1=100.0" in capsys.readouterr().out


def test_missing_required_flag_is_diagnosed(capsys):
    rc = main(["prep-stats"])
    assert rc == 1
    assert "--input" in capsys.readouterr().err


def test_missing_file_is_diagnosed(tmp_path, capsys):
    rc = main(["prep-stats", "--input", str(tmp_path / "nope.txt"),
               "--output", str(tmp_path / "out.tsv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_regime_without_predicted_mode_is_a_config_error(tmp_path, capsys):
    rc = main(["train-ner", "--case-mode", "none", "--regime", "finetuned",
               "--train", str(tmp_path / "nope.conll"), "--output", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "casetag: error:" in err
    assert "regime 'finetuned'" in err
    assert "i/o error" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("train-truecaser", "--dev-fraction", "-0.5"),
    ("train-truecaser", "--dev-fraction", "1"),
    ("train-truecaser", "--clip-norm", "-1"),
    ("train-truecaser", "--clip-norm", "0"),
    ("train-truecaser", "--lr", "-0.01"),
    ("train-truecaser", "--lr", "nan"),
    ("train-truecaser", "--epochs", "-2"),
    ("train-truecaser", "--epochs", "0"),
    ("train-truecaser", "--max-sentence-chars", "0"),
    ("prep-corpus", "--caps-threshold", "-0.1"),
    ("prep-corpus", "--caps-threshold", "1.5"),
    ("train-ner", "--patience", "-1"),
    ("train-ner", "--aux-weight", "-1"),
    ("train-truecaser", "--tc-hidden-dim", "0"),
    ("train-truecaser", "--tc-hidden-dim", "-3"),
    ("train-truecaser", "--char-emb-dim", "0"),
    ("train-ner", "--ner-hidden-dim", "0"),
    ("train-ner", "--ner-hidden-dim", "-2"),
    ("train-ner", "--ner-char-emb-dim", "0"),
    ("train-ner", "--word-emb-dim", "0"),
    ("train-ner", "--cnn-filters", "0"),
    ("train-ner", "--cnn-width", "0"),
])
def test_out_of_range_number_is_a_config_error(tmp_path, capsys, command, flag, value):
    corpus, stats, conll = tmp_path / "c.txt", tmp_path / "s.tsv", tmp_path / "t.conll"
    corpus.write_text("\n".join(truecaser_corpus(10, 0, seed=5)[0]) + "\n", encoding="utf-8")
    assert main(["prep-stats", "--input", str(corpus), "--output", str(stats)]) == 0
    write_conll(ner_dataset(4, 1, seed=6)[0], str(conll))
    inputs = {"train-truecaser": ["--input", str(corpus), *TINY_TC_FLAGS],
              "prep-corpus": ["--input", str(corpus), "--stats", str(stats)],
              "train-ner": ["--train", str(conll), *TINY_NER_FLAGS]}
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, *inputs[command], "--output", str(out), flag, value]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("casetag: error: "), err
    assert flag[2:].replace("-", "_") in err[0]
    assert not out.exists()


# -- individual commands --------------------------------------------------------------

def test_eval_truecaser_identical_files(tmp_path, capsys):
    gold = tmp_path / "gold.txt"
    gold.write_text("Alan ran\nso it Goes\n", encoding="utf-8")
    rc = main(["eval-truecaser", "--gold", str(gold), "--pred", str(gold)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "f1=100.0" in out and "precision=100.0" in out


def test_augment_doubles_sentences(tmp_path):
    train, _ = ner_dataset(4, 1, seed=3)
    src = tmp_path / "in.conll"
    dst = tmp_path / "out.conll"
    write_conll(train, str(src))
    rc = main(["augment", "--input", str(src), "--output", str(dst)])
    assert rc == 0
    blank = lambda text: sum(1 for line in text.splitlines() if not line.strip())
    assert blank(dst.read_text()) == 2 * blank(src.read_text())


def test_prep_stats_and_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "we saw the old house\n"
        "it was for the best\n"
        "For Man Bites Dog In Pajamas\n"
        "the meeting is on Thursday evening\n",
        encoding="utf-8")
    stats = tmp_path / "stats.tsv"
    assert main(["prep-stats", "--input", str(corpus), "--output", str(stats)]) == 0
    cleaned = tmp_path / "clean.txt"
    assert main(["prep-corpus", "--input", str(corpus), "--output", str(cleaned),
                 "--stats", str(stats)]) == 0
    out_lines = cleaned.read_text().splitlines()
    assert "the meeting is on thursday evening" in out_lines
    assert all("Pajamas" not in line for line in out_lines)
    report = capsys.readouterr().out
    assert "kept=" in report and "dropped=" in report


TINY_TC_FLAGS = ["--char-emb-dim", "6", "--tc-hidden-dim", "5", "--epochs", "2",
                 "--min-char-freq", "1", "--seed", "3", "--dropout", "0.0"]
TINY_NER_FLAGS = ["--word-emb-dim", "6", "--ner-char-emb-dim", "4",
                  "--cnn-filters", "5", "--ner-hidden-dim", "3", "--epochs", "2",
                  "--patience", "0", "--seed", "3", "--dropout", "0.0"]


def test_full_pipeline_smoke(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    train_sents, _ = truecaser_corpus(24, 0, seed=5)
    raw.write_text("\n".join(train_sents) + "\n", encoding="utf-8")
    stats = tmp_path / "stats.tsv"
    clean = tmp_path / "clean.txt"
    assert main(["prep-stats", "--input", str(raw), "--output", str(stats)]) == 0
    assert main(["prep-corpus", "--input", str(raw), "--output", str(clean),
                 "--stats", str(stats)]) == 0

    tc_model = tmp_path / "tc.ctr"
    assert main(["train-truecaser", "--input", str(clean), "--output", str(tc_model),
                 *TINY_TC_FLAGS]) == 0

    train, test = ner_dataset(8, 4, seed=6)
    train_file, test_file = tmp_path / "train.conll", tmp_path / "test.conll"
    write_conll(train, str(train_file))
    write_conll(test, str(test_file))
    ner_model = tmp_path / "ner.ctr"
    assert main(["train-ner", "--train", str(train_file), "--output", str(ner_model),
                 "--case-mode", "predicted", "--regime", "fixed",
                 "--truecaser-model", str(tc_model), *TINY_NER_FLAGS]) == 0

    tagged = tmp_path / "tagged.conll"
    assert main(["tag", "--model", str(ner_model), "--input", str(test_file),
                 "--output", str(tagged), "--lowercase"]) == 0
    assert tagged.read_text().strip()

    capsys.readouterr()
    assert main(["eval-ner", "--model", str(ner_model), "--test", str(test_file),
                 "--lowercase"]) == 0
    block = capsys.readouterr().out
    for key in ("precision=", "recall=", "f1=", "tp=", "fp=", "fn="):
        assert key in block


def test_truecase_command_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    sents, _ = truecaser_corpus(16, 0, seed=9)
    corpus.write_text("\n".join(sents) + "\n", encoding="utf-8")
    m1, m2 = tmp_path / "m1.ctr", tmp_path / "m2.ctr"
    args = ["train-truecaser", "--input", str(corpus), *TINY_TC_FLAGS]
    assert main(args + ["--output", str(m1)]) == 0
    assert main(args + ["--output", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()

    inp = tmp_path / "in.txt"
    inp.write_text("alice visited oslo .\n", encoding="utf-8")
    out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
    assert main(["truecase", "--model", str(m1), "--input", str(inp),
                 "--output", str(out1)]) == 0
    assert main(["truecase", "--model", str(m2), "--input", str(inp),
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    restored = out1.read_text().strip()
    assert restored.lower() == "alice visited oslo ."


def test_eval_ner_pred_vs_gold_files(tmp_path, capsys):
    gold, _ = ner_dataset(3, 1, seed=8)
    gold_file, pred_file = tmp_path / "g.conll", tmp_path / "p.conll"
    write_conll(gold, str(gold_file))
    write_conll(gold, str(pred_file))
    rc = main(["eval-ner", "--gold", str(gold_file), "--pred", str(pred_file)])
    assert rc == 0
    assert "f1=100.0" in capsys.readouterr().out
