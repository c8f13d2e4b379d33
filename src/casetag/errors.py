"""Exception types shared across the toolkit, and the text-file reader that
raises the typed error for bytes that are not UTF-8."""


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


def text_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, newlines stripped.  Bytes that are
    not UTF-8 raise ParseError naming the file and the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [raw.rstrip("\n") for raw in fh]
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
