"""Exception types shared across the toolkit, and the text-file reader that
raises the typed error for bytes that are not UTF-8."""

import itertools
from typing import Iterator


class CasetagError(Exception):
    pass


class ConfigError(CasetagError):
    """Bad configuration: incompatible shapes, invalid option values, misuse."""


class InputError(CasetagError):
    """Bad runtime input: empty sequences, out-of-range tags, oversized instances."""


class AlignmentError(InputError):
    """Character or distribution streams that should line up do not."""


class NumericError(CasetagError):
    """Non-finite values where finite ones are required."""


class ParseError(CasetagError):
    """Malformed file content; message carries the line number."""


def iter_text_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 text file, newlines stripped, read a block at a
    time.  Bytes that are not UTF-8 raise ParseError naming the file and the
    line."""
    return itertools.chain.from_iterable(_line_blocks(path))


def _line_blocks(path: str) -> Iterator[list[str]]:
    # blocks of lines, so that the generator resumes once per block and not
    # once per line
    try:
        with open(path, encoding="utf-8") as fh:
            while block := fh.readlines(1 << 16):
                yield [raw.rstrip("\n") for raw in block]
    except UnicodeDecodeError as exc:
        # the decoder works in blocks, so find the line again in bytes
        i = 0
        with open(path, "rb") as fh:
            for i, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise ParseError(f"{path} line {i}: not UTF-8 text ({exc.reason})") from None


def text_lines(path: str) -> list[str]:
    """All of iter_text_lines(path) at once."""
    return list(iter_text_lines(path))
