"""CoNLL reader/writer and embedding-table loader."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from casetag.data import read_conll, read_embeddings, write_conll
from casetag.errors import ParseError
from casetag.ner import NerExample


def test_read_two_line_sentence(tmp_path):
    p = tmp_path / "d.conll"
    p.write_text("Alan B-PER\nran O\n\n", encoding="utf-8")
    examples = read_conll(str(p))
    assert len(examples) == 1
    assert examples[0].tokens == ["Alan", "ran"]
    assert examples[0].tags == ["B-PER", "O"]


def test_read_skips_docstart(tmp_path):
    p = tmp_path / "d.conll"
    p.write_text("-DOCSTART- -X- O O\n\nAlan B-PER\n\n", encoding="utf-8")
    examples = read_conll(str(p))
    assert len(examples) == 1 and examples[0].tokens == ["Alan"]


def test_read_takes_first_and_last_columns(tmp_path):
    p = tmp_path / "d.conll"
    p.write_text("Alan NNP I-NP B-PER\nran VBD I-VP O\n\n", encoding="utf-8")
    ex = read_conll(str(p))[0]
    assert ex.tokens == ["Alan", "ran"] and ex.tags == ["B-PER", "O"]


def test_read_missing_tag_column_reports_line(tmp_path):
    p = tmp_path / "d.conll"
    p.write_text("Alan B-PER\nran\n\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_conll(str(p))
    assert "line 2" in str(err.value)


def test_roundtrip_three_sentences(tmp_path):
    examples = [
        NerExample(["Alan", "ran", "."], ["B-PER", "O", "O"]),
        NerExample(["to", "Boston"], ["O", "B-LOC"]),
        NerExample(["done"], ["O"]),
    ]
    p = tmp_path / "d.conll"
    write_conll(examples, str(p))
    again = read_conll(str(p))
    assert len(again) == 3
    assert [ex.tokens for ex in again] == [ex.tokens for ex in examples]
    assert [ex.tags for ex in again] == [ex.tags for ex in examples]
    # a second write is byte-identical
    p2 = tmp_path / "d2.conll"
    write_conll(again, str(p2))
    assert p.read_bytes() == p2.read_bytes()


def _embedding_file(tmp_path, lines):
    p = tmp_path / "emb.txt"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


def test_embeddings_two_words(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3", "dog 4 5 6"])
    table = read_embeddings(path, dim=3)
    assert len(table.words) == 2
    assert np.allclose(table(["cat"]).data[0], [1, 2, 3])


def test_embeddings_unseen_word_gets_unk(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3", "dog 4 5 6"])
    table = read_embeddings(path, dim=3)
    assert np.allclose(table(["zebra"]).data[0], table.unk.data)


def test_embeddings_unk_is_mean(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3", "dog 4 5 6", "eel -2 0 9"])
    table = read_embeddings(path, dim=3)
    want = np.array([[1, 2, 3], [4, 5, 6], [-2, 0, 9]], dtype=float).mean(axis=0)
    assert np.allclose(table.unk.data, want, atol=1e-9)


def test_embeddings_duplicates_first_wins(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3", "cat 9 9 9"])
    table = read_embeddings(path, dim=3)
    assert np.allclose(table(["cat"]).data[0], [1, 2, 3])
    assert table.duplicates_skipped == 1


def test_embeddings_wrong_count_reports_line(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3", "dog 4 5"])
    with pytest.raises(ParseError) as err:
        read_embeddings(path, dim=3)
    assert "line 2" in str(err.value)


def test_embeddings_lookup_lowercases_key(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3"])
    table = read_embeddings(path, dim=3)
    assert np.allclose(table(["CAT"]).data[0], [1, 2, 3])


def test_embeddings_cased_rows_are_reachable_and_folded_first_wins(tmp_path):
    path = _embedding_file(tmp_path, ["Boston 1 2 3", "paris 4 5 6", "boston 7 8 9",
                                      "PARIS 0 0 0"])
    table = read_embeddings(path, dim=3)
    assert table.words == ["boston", "paris"]
    assert np.allclose(table(["Boston"]).data[0], [1, 2, 3])
    assert np.allclose(table(["boston"]).data[0], [1, 2, 3])
    assert np.allclose(table(["Paris"]).data[0], [4, 5, 6])
    assert table.duplicates_skipped == 2


def test_loaded_embeddings_frozen_unk_trainable(tmp_path):
    path = _embedding_file(tmp_path, ["cat 1 2 3"])
    table = read_embeddings(path, dim=3)
    assert not table.vectors.requires_grad
    assert table.unk.requires_grad
    names = [n for n, _ in table.named_params()]
    assert names == ["unk"]


# -- line endings ------------------------------------------------------------------

_TEXT = st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.tuples(st.text(_TEXT, min_size=1, max_size=6),
                                   st.sampled_from(["O", "B-PER", "I-LOC"])),
                         min_size=1, max_size=5), min_size=1, max_size=4))
def test_conll_reads_the_same_with_crlf_line_endings(tmp_path, sentences):
    text = "".join("".join(f"{tok} {tag}\n" for tok, tag in sent) + "\n" for sent in sentences)
    (tmp_path / "lf.conll").write_bytes(text.encode("utf-8"))
    (tmp_path / "crlf.conll").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf, crlf = read_conll(str(tmp_path / "lf.conll")), read_conll(str(tmp_path / "crlf.conll"))
    assert [(ex.tokens, ex.tags) for ex in crlf] == [(ex.tokens, ex.tags) for ex in lf]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(
    st.tuples(st.text(_TEXT, min_size=1, max_size=6),
              st.lists(st.floats(-1e6, 1e6),
                       min_size=dim, max_size=dim)),
    min_size=1, max_size=5)))
def test_embeddings_read_the_same_with_crlf_line_endings(tmp_path, rows):
    dim = len(rows[0][1])
    text = "".join(word + " " + " ".join(repr(v) for v in vec) + "\n" for word, vec in rows)
    (tmp_path / "lf.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "crlf.txt").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf = read_embeddings(str(tmp_path / "lf.txt"), dim)
    crlf = read_embeddings(str(tmp_path / "crlf.txt"), dim)
    assert crlf.words == lf.words
    assert np.array_equal(crlf.vectors.data, lf.vectors.data)
    assert np.array_equal(crlf.unk.data, lf.unk.data)
    assert crlf.duplicates_skipped == lf.duplicates_skipped
