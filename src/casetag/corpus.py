"""Corpus preprocessing that biases truecaser training data toward named
entities: per-word casing statistics, first-word normalization, rule-based
lowercasing of conventionally capitalized non-entities, and a filter that
drops sentences with too many capitalized words (headlines, shouting).

All functions work on pre-tokenized text: one sentence per line, tokens
separated by single spaces.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from casetag.config import RunConfig
from casetag.errors import ConfigError, InputError, ParseError, text_lines


class CasingStats:
    """lowercased word -> observed surface forms with counts.

    Sentence-initial tokens are not counted: initial position is the one
    being normalized and would skew the counts toward capitalized forms.
    """

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = {}
        self.total_tokens = 0

    def add_sentence(self, tokens: list[str]) -> None:
        self.total_tokens += len(tokens)
        for tok in tokens[1:]:
            key = tok.lower()
            by_surface = self.counts.setdefault(key, {})
            by_surface[tok] = by_surface.get(tok, 0) + 1

    def most_common(self, key: str) -> str | None:
        by_surface = self.counts.get(key)
        if not by_surface:
            return None
        return min(by_surface, key=lambda s: (-by_surface[s], s))

    def merge(self, other: "CasingStats") -> None:
        self.total_tokens += other.total_tokens
        for key, by_surface in other.counts.items():
            mine = self.counts.setdefault(key, {})
            for surface, n in by_surface.items():
                mine[surface] = mine.get(surface, 0) + n

    @classmethod
    def collect(cls, lines: Iterable[str]) -> "CasingStats":
        stats = cls()
        for line in lines:
            tokens = line.split()
            if tokens:
                stats.add_sentence(tokens)
        return stats

    # -- text file format: "key<TAB>surface:count surface:count" sorted by key

    def to_lines(self) -> list[str]:
        lines = []
        for key in sorted(self.counts):
            by_surface = self.counts[key]
            pairs = sorted(by_surface.items(), key=lambda kv: (-kv[1], kv[0]))
            lines.append(key + "\t" + " ".join(f"{s}:{n}" for s, n in pairs))
        return lines

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#total_tokens\t{self.total_tokens}\n")
            for line in self.to_lines():
                fh.write(line + "\n")

    @classmethod
    def load(cls, path: str) -> "CasingStats":
        stats = cls()
        for i, line in enumerate(text_lines(path), start=1):
            if not line:
                continue
            if i == 1 and line.startswith("#total_tokens\t"):
                stats.total_tokens = _count(line.split("\t")[1], path, i)
                continue
            key, _, rest = line.partition("\t")
            if not rest:
                raise ParseError(f"{path} line {i}: expected 'key<TAB>surface:count ...'")
            by_surface = {}
            for pair in rest.split(" "):
                surface, _, count = pair.rpartition(":")
                if not surface:
                    raise ParseError(f"{path} line {i}: malformed pair {pair!r}")
                by_surface[surface] = _count(count, path, i)
            stats.counts[key] = by_surface
        return stats


def _count(text: str, path: str, line: int) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{path} line {line}: count {text!r} is not a non-negative integer")
    return int(text)


class LowercaseRules:
    """Surface forms to force-lowercase (titles, weekday names, most month
    names, time-zone tokens).  Matching is exact, per token."""

    def __init__(self, entries: list[str]):
        seen_folded: dict[str, str] = {}
        for entry in entries:
            clash = seen_folded.get(entry.lower())
            if clash is not None and clash != entry:
                raise ConfigError(
                    f"rule entries {clash!r} and {entry!r} differ only by case")
            seen_folded[entry.lower()] = entry
        self.entries = list(dict.fromkeys(entries))
        self._set = set(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self._set

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "LowercaseRules":
        entries = []
        for raw in lines:
            line = raw.strip()
            if line and not line.startswith("#"):
                entries.append(line)
        return cls(entries)

    @classmethod
    def load(cls, path: str) -> "LowercaseRules":
        return cls.from_lines(text_lines(path))

    @classmethod
    def default(cls) -> "LowercaseRules":
        text = importlib.resources.files("casetag.resources").joinpath(
            "lowercase_rules.txt").read_text(encoding="utf-8")
        return cls.from_lines(text.splitlines())


def normalize_first_word(tokens: list[str], stats: CasingStats) -> list[str]:
    """Replace the first token with its most common corpus form, when known."""
    if not tokens:
        raise InputError("empty sentence")
    common = stats.most_common(tokens[0].lower())
    if common is None:
        return list(tokens)
    return [common] + tokens[1:]


def apply_lowercase_rules(tokens: list[str], rules: LowercaseRules) -> list[str]:
    return [tok.lower() if tok in rules else tok for tok in tokens]


def caps_ratio_filter(tokens: list[str], threshold: float = RunConfig.caps_threshold) -> bool:
    """True = keep.  Drops when capitalized_tokens / total_tokens strictly
    exceeds the threshold; a capitalized token starts with an uppercase letter."""
    if not tokens:
        return False
    capitalized = sum(1 for tok in tokens if tok[0].isupper())
    return capitalized / len(tokens) <= threshold


@dataclass
class PrepReport:
    kept: int = 0
    dropped: int = 0
    dropped_empty: int = 0
    first_word_changed: int = 0
    rule_lowercased: int = 0

    def block(self) -> str:
        return "\n".join(f"{k}={v}" for k, v in vars(self).items())


def prepare_corpus(lines: Iterable[str], stats: CasingStats, rules: LowercaseRules,
                   threshold: float = RunConfig.caps_threshold,
                   report: PrepReport | None = None) -> Iterator[str]:
    """normalize_first_word -> apply_lowercase_rules -> caps_ratio_filter,
    streaming one cleaned sentence per kept input line."""
    report = report if report is not None else PrepReport()
    for line in lines:
        tokens = line.split()
        if not tokens:
            report.dropped_empty += 1
            continue
        normalized = normalize_first_word(tokens, stats)
        if normalized[0] != tokens[0]:
            report.first_word_changed += 1
        ruled = apply_lowercase_rules(normalized, rules)
        if ruled != normalized:
            report.rule_lowercased += 1
        if caps_ratio_filter(ruled, threshold):
            report.kept += 1
            yield " ".join(ruled)
        else:
            report.dropped += 1
