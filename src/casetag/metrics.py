"""Evaluation: character-level casing P/R/F1 (uppercase is the positive class),
BIO span decoding with repair, and exact-match span P/R/F1."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from casetag.errors import AlignmentError, InputError


@dataclass(frozen=True)
class PrfScore:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def block(self) -> str:
        """Machine-readable key=value lines, percentages to one decimal."""
        return "\n".join([
            f"precision={100 * self.precision:.1f}",
            f"recall={100 * self.recall:.1f}",
            f"f1={100 * self.f1:.1f}",
            f"tp={self.tp}",
            f"fp={self.fp}",
            f"fn={self.fn}",
        ])

    def table(self) -> str:
        return (f"precision {100 * self.precision:6.1f}\n"
                f"recall    {100 * self.recall:6.1f}\n"
                f"f1        {100 * self.f1:6.1f}\n"
                f"counts    tp={self.tp} fp={self.fp} fn={self.fn}")


@dataclass(frozen=True, order=True)
class Span:
    start: int
    end: int  # exclusive
    label: str


def _as_lines(corpus) -> list[str]:
    if isinstance(corpus, str):
        return corpus.split("\n")
    return list(corpus)


def char_f1(gold, pred) -> PrfScore:
    """Casing agreement over alphabetic positions; uppercase is the positive label.

    gold and pred must hold the same characters, differing only in case.
    """
    gold_lines, pred_lines = _as_lines(gold), _as_lines(pred)
    if len(gold_lines) != len(pred_lines):
        raise AlignmentError(
            f"gold has {len(gold_lines)} lines, pred has {len(pred_lines)}")
    tp = fp = fn = 0
    for ln, (g_line, p_line) in enumerate(zip(gold_lines, pred_lines), start=1):
        if len(g_line) != len(p_line):
            raise AlignmentError(f"line {ln}: length {len(g_line)} vs {len(p_line)}")
        for col, (g, p) in enumerate(zip(g_line, p_line), start=1):
            if g.lower() != p.lower():
                raise AlignmentError(
                    f"line {ln} column {col}: characters differ beyond case ({g!r} vs {p!r})")
            if not g.isalpha():
                continue
            gu, pu = g.isupper(), p.isupper()
            if gu and pu:
                tp += 1
            elif pu:
                fp += 1
            elif gu:
                fn += 1
    return PrfScore(tp, fp, fn)


def split_tag(tag: str) -> tuple[str, str | None]:
    """("O", None) for O, (prefix, type) for B-X and I-X; InputError otherwise."""
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in "BI":
        return tag[0], tag[2:]
    raise InputError(f"malformed BIO tag {tag!r}")


def bio_decode(tags: Sequence[str]) -> list[Span]:
    """Maximal well-formed spans; an I- continuing nothing is repaired to B-."""
    spans: list[Span] = []
    start = None
    label = None
    for i, tag in enumerate(tags):
        prefix, typ = split_tag(tag)
        if prefix == "O":
            if start is not None:
                spans.append(Span(start, i, label))
                start = None
            continue
        if prefix == "B" or start is None or typ != label:
            if start is not None:
                spans.append(Span(start, i, label))
            start, label = i, typ
    if start is not None:
        spans.append(Span(start, len(tags), label))
    return spans


def span_f1(gold: Iterable[Sequence[Span]], pred: Iterable[Sequence[Span]]) -> PrfScore:
    """Micro-averaged exact-match span scoring; each gold span matches at most once."""
    tp = fp = fn = 0
    gold, pred = list(gold), list(pred)
    if len(gold) != len(pred):
        raise InputError(f"gold has {len(gold)} sentences, pred has {len(pred)}")
    for g_spans, p_spans in zip(gold, pred):
        g_count = Counter(g_spans)
        p_count = Counter(p_spans)
        matched = sum((g_count & p_count).values())
        tp += matched
        fp += sum(p_count.values()) - matched
        fn += sum(g_count.values()) - matched
    return PrfScore(tp, fp, fn)
