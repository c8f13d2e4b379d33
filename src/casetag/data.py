"""File readers and writers: CoNLL column datasets and text-format word
embeddings."""

from __future__ import annotations

import numpy as np

from casetag.errors import InputError, ParseError, text_lines
from casetag.metrics import split_tag
from casetag.ner import EmbeddingTable, NerExample


def read_conll(path: str) -> list[NerExample]:
    """Whitespace-separated columns, token first, BIO tag last; blank lines
    separate sentences; -DOCSTART- lines are skipped.  A tag other than O,
    B-X or I-X is a ParseError naming the line."""
    examples: list[NerExample] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush():
        nonlocal tokens, tags
        if tokens:
            examples.append(NerExample(tokens, tags))
            tokens, tags = [], []

    for i, line in enumerate(text_lines(path), start=1):
        if not line.strip():
            flush()
            continue
        cols = line.split()
        if cols[0].startswith("-DOCSTART-"):
            flush()
            continue
        if len(cols) < 2:
            raise ParseError(f"{path} line {i}: token without a tag column: {line!r}")
        try:
            split_tag(cols[-1])
        except InputError as exc:
            raise ParseError(f"{path} line {i}: {exc}") from exc
        tokens.append(cols[0])
        tags.append(cols[-1])
    flush()
    return examples


def write_conll(examples: list[NerExample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            for tok, tag in zip(ex.tokens, ex.tags):
                fh.write(f"{tok} {tag}\n")
            fh.write("\n")


def read_embeddings(path: str, dim: int) -> EmbeddingTable:
    """One word per line followed by dim floats.  Loaded vectors are frozen;
    the unknown-word vector is their element-wise mean and stays trainable.

    Words are folded with str.lower(), as EmbeddingTable.__call__ folds its
    queries.  Of the lines whose words fold to the same key, the first is
    kept; the others are counted in duplicates_skipped."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    duplicates = 0
    for i, line in enumerate(text_lines(path), start=1):
        if not line:
            continue
        parts = line.split(" ")
        word, values = parts[0], parts[1:]
        if len(values) != dim:
            raise ParseError(
                f"{path} line {i}: expected {dim} floats for {word!r}, got {len(values)}")
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path} line {i}: {exc}") from exc
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"{path} line {i}: non-finite value in the vector for {word!r}")
        key = word.lower()
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        words.append(key)
        rows.append(vec)
    if not rows:
        raise ParseError(f"{path}: no embedding rows")
    matrix = np.stack(rows)
    table = EmbeddingTable(words, matrix, matrix.mean(axis=0), trainable=False)
    table.duplicates_skipped = duplicates
    return table
