"""Preprocessing pipeline: the documented normalization examples, shard
merging, idempotence, and the stats-file format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from casetag.corpus import (
    CasingStats,
    LowercaseRules,
    PrepReport,
    apply_lowercase_rules,
    caps_ratio_filter,
    normalize_first_word,
    prepare_corpus,
)
from casetag.errors import ConfigError, InputError


@pytest.fixture
def rules():
    return LowercaseRules.default()


@pytest.fixture
def stats():
    return CasingStats.collect([
        "once for example is here",
        "seen for a while near the river",
        "and for good measure by the door",
        "said McMahon again",
        "then McMahon left",
        "maybe thursday works",
    ])


# -- statistics ----------------------------------------------------------------

def test_collect_counts_and_most_common():
    stats = CasingStats.collect(["a the cat", "a The dog", "a the end"])
    assert stats.counts["the"] == {"the": 2, "The": 1}
    assert stats.most_common("the") == "the"


def test_collect_skips_sentence_initial_tokens():
    stats = CasingStats.collect(["The cat sat", "The dog ran"])
    assert "the" not in stats.counts  # only initial positions carried "The"
    assert stats.most_common("cat") == "cat"


def test_empty_corpus_empty_table():
    stats = CasingStats.collect([])
    assert stats.counts == {} and stats.total_tokens == 0


def test_most_common_tie_breaks_lexicographically():
    stats = CasingStats()
    stats.counts["x"] = {"xB": 2, "xA": 2}
    assert stats.most_common("x") == "xA"


def test_shard_merge_equals_single_pass():
    lines = [f"w{i % 3} Tok{i % 5} more words Here" for i in range(40)]
    single = CasingStats.collect(lines)
    a = CasingStats.collect(lines[:17])
    b = CasingStats.collect(lines[17:])
    a.merge(b)
    assert a.counts == single.counts
    assert a.total_tokens == single.total_tokens


@given(st.lists(st.lists(st.sampled_from(["the", "The", "Fox", "fox", "On", "on"]),
                         min_size=1, max_size=6), min_size=0, max_size=20),
       st.integers(1, 19))
def test_shard_merge_property(sentences, cut):
    lines = [" ".join(s) for s in sentences]
    single = CasingStats.collect(lines)
    a = CasingStats.collect(lines[:cut])
    a.merge(CasingStats.collect(lines[cut:]))
    assert a.counts == single.counts and a.total_tokens == single.total_tokens


def test_stats_file_roundtrip_bit_exact(tmp_path):
    stats = CasingStats.collect(["a The fox", "a the Fox", "b the fox"])
    p1, p2 = tmp_path / "s1.tsv", tmp_path / "s2.tsv"
    stats.save(str(p1))
    CasingStats.load(str(p1)).save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = CasingStats.load(str(p1))
    assert loaded.counts == stats.counts
    assert loaded.total_tokens == stats.total_tokens


def test_stats_file_handles_colons_in_tokens(tmp_path):
    stats = CasingStats.collect(["x 12:30 12:30 Le:On"])
    p = tmp_path / "s.tsv"
    stats.save(str(p))
    loaded = CasingStats.load(str(p))
    assert loaded.counts["12:30"] == {"12:30": 2}
    assert loaded.counts["le:on"] == {"Le:On": 1}


# -- first-word normalization ----------------------------------------------------

def test_normalize_first_word_documented_example(stats):
    out = normalize_first_word("For example , this works".split(), stats)
    assert out[0] == "for" and out[1:] == "example , this works".split()


def test_normalize_preserves_name_case(stats):
    toks = "McMahon said .".split()
    assert normalize_first_word(toks, stats) == toks


def test_normalize_unknown_first_word_unchanged(stats):
    toks = "Zyzzyva crawled away".split()
    assert normalize_first_word(toks, stats) == toks


def test_normalize_empty_sentence_raises(stats):
    with pytest.raises(InputError):
        normalize_first_word([], stats)


# -- lowercase rules ---------------------------------------------------------------

def test_rules_lowercase_thursday(rules):
    out = apply_lowercase_rules("Rothbart visits next Thursday for a talk .".split(), rules)
    assert out == "Rothbart visits next thursday for a talk .".split()


def test_rules_keep_may(rules):
    toks = "May I go".split()
    assert apply_lowercase_rules(toks, rules) == toks
    assert apply_lowercase_rules(["April"], rules) == ["April"]


def test_rules_scope_is_per_token(rules):
    out = apply_lowercase_rules("Mr. Smith arrived".split(), rules)
    assert out == ["mr.", "Smith", "arrived"]


def test_rules_exact_match_only(rules):
    # different case is a different surface form and stays untouched
    assert apply_lowercase_rules(["THURSDAY"], rules) == ["THURSDAY"]


def test_rules_reject_case_duplicates():
    with pytest.raises(ConfigError):
        LowercaseRules(["Thursday", "THURSDAY"])


def test_rules_file_comments_and_load(tmp_path):
    p = tmp_path / "rules.txt"
    p.write_text("# a comment\nMr.\n\nThursday\n", encoding="utf-8")
    rules = LowercaseRules.load(str(p))
    assert len(rules) == 2 and "Mr." in rules and "Thursday" in rules


@given(st.lists(st.sampled_from(["the", "Fox", "Thursday", "May", "GMT", "ran"]),
                min_size=1, max_size=8))
def test_rules_never_change_token_count_or_nonmatches(tokens):
    rules = LowercaseRules.default()
    out = apply_lowercase_rules(tokens, rules)
    assert len(out) == len(tokens)
    for before, after in zip(tokens, out):
        assert after == (before.lower() if before in rules else before)


# -- caps-ratio filter -----------------------------------------------------------

def test_caps_filter_drops_headline():
    assert caps_ratio_filter("Man Bites Dog In Pajamas".split()) is False


def test_caps_filter_keeps_lowercase():
    assert caps_ratio_filter("he ran fast .".split()) is True


def test_caps_filter_hand_count_scoreline():
    # 2 capitalized of 4 tokens = 50% > 20%
    assert caps_ratio_filter("Hartford 4 BOSTON 2".split()) is False


def test_caps_filter_boundary_is_strict():
    # exactly at the threshold is kept ("exceeded" = strictly greater)
    assert caps_ratio_filter(["One", "b", "c", "d", "e"], threshold=0.20) is True
    assert caps_ratio_filter(["One", "Two", "c", "d", "e"], threshold=0.20) is False


def test_caps_filter_empty_drops():
    assert caps_ratio_filter([]) is False


@given(st.integers(0, 8), st.integers(1, 8))
def test_caps_filter_monotone_in_capitalized_count(caps, lower):
    tokens = ["Xy"] * caps + ["ab"] * lower
    if caps_ratio_filter(tokens) is False:
        assert caps_ratio_filter(["Xy"] * (caps + 1) + ["ab"] * lower) is False
    appended = tokens + ["ab"] * 3
    if caps_ratio_filter(tokens) is True:
        assert caps_ratio_filter(appended) is True


# -- pipeline ----------------------------------------------------------------------

def test_prepare_corpus_documented_sentence(stats, rules):
    report = PrepReport()
    out = list(prepare_corpus(["The investigation is ongoing , McMahon said ."],
                              stats, rules, report=report))
    assert out == ["the investigation is ongoing , McMahon said ."]
    assert report.kept == 1 and report.dropped == 0


def test_prepare_corpus_drops_headline(stats, rules):
    report = PrepReport()
    out = list(prepare_corpus(["MAN BITES DOG"], stats, rules, report=report))
    assert out == [] and report.dropped == 1


def test_prepare_corpus_rule_order_first_word_then_rules(stats, rules):
    # "Thursday" leads the sentence: normalization runs first (no entry for
    # "thursday" key in this direction), then the rule lowercases it
    out = list(prepare_corpus(["Thursday begins well ."], stats, rules))
    assert out == ["thursday begins well ."]


def test_prepare_corpus_idempotent(stats, rules):
    lines = [
        "The investigation is ongoing , McMahon said .",
        "For example , Rothbart visits next Thursday .",
        "MAN BITES DOG IN PAJAMAS",
        "he ran fast .",
        "said McMahon on Thursday that May I go",
    ]
    first = list(prepare_corpus(lines, stats, rules))
    report = PrepReport()
    second = list(prepare_corpus(first, stats, rules, report=report))
    assert second == first
    assert report.dropped == 0 and report.kept == len(first)
