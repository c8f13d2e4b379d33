"""Versioned model container: text header, then little-endian float32 arrays.

Header lines, in order:
    casetag-container 1
    meta <key> <value>            (any number)
    section <name> <n>            (followed by n verbatim body lines)
    param <name> <d0,d1,...>      (declaration order = array order in the blob)
    binary
The binary tail holds each declared array as '<f4' in header order.  A
load/save cycle reproduces the file byte for byte.
"""

from __future__ import annotations

import io
import math

import numpy as np

from casetag.errors import ParseError

MAGIC = "casetag-container 1"


class Container:
    def __init__(self):
        self.meta: dict[str, str] = {}
        self.sections: dict[str, list[str]] = {}
        self.arrays: dict[str, np.ndarray] = {}
        self.path = "<container>"  # the file it was loaded from, for messages

    def add_array(self, name: str, values: np.ndarray) -> None:
        self.arrays[name] = np.asarray(values, dtype="<f4")

    def get_meta(self, key: str, kind=str):
        """The meta value under key, converted by kind; ParseError naming the
        file and the key when it is missing or does not convert."""
        if key not in self.meta:
            raise ParseError(f"{self.path}: container has no meta key {key!r}")
        try:
            return kind(self.meta[key])
        except ValueError:
            raise ParseError(
                f"{self.path}: meta key {key!r} has a bad value {self.meta[key]!r}") from None

    def get_section(self, name: str) -> list[str]:
        if name not in self.sections:
            raise ParseError(f"{self.path}: container has no section {name!r}")
        return self.sections[name]

    def save(self, path: str) -> None:
        header = io.StringIO()
        header.write(MAGIC + "\n")
        for key, value in self.meta.items():
            header.write(f"meta {key} {value}\n")
        for name, lines in self.sections.items():
            header.write(f"section {name} {len(lines)}\n")
            for line in lines:
                header.write(line + "\n")
        for name, arr in self.arrays.items():
            dims = ",".join(str(d) for d in arr.shape)
            header.write(f"param {name} {dims}\n")
        header.write("binary\n")
        with open(path, "wb") as fh:
            fh.write(header.getvalue().encode("utf-8"))
            for arr in self.arrays.values():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path: str) -> "Container":
        out = cls()
        out.path = path
        with open(path, "rb") as fh:
            first = fh.readline().decode("utf-8", errors="replace").rstrip("\n")
            if first != MAGIC:
                raise ParseError(f"{path}: not a casetag container (got {first!r})")
            lineno = 1

            def next_line(at_eof: str) -> str:
                nonlocal lineno
                raw = fh.readline()
                lineno += 1
                if not raw:
                    raise ParseError(f"{path} line {lineno}: {at_eof}")
                try:
                    return raw.decode("utf-8").rstrip("\n")
                except UnicodeDecodeError:
                    raise ParseError(f"{path} line {lineno}: header line is not UTF-8 text") from None

            def count(text: str, what: str) -> int:
                if not (text.isascii() and text.isdigit()):
                    raise ParseError(
                        f"{path} line {lineno}: {what} {text!r} is not a non-negative integer")
                return int(text)

            shapes: list[tuple[str, tuple[int, ...]]] = []
            while True:
                line = next_line("header ended without a binary marker")
                if line == "binary":
                    break
                kind, _, rest = line.partition(" ")
                if kind == "meta":
                    key, _, value = rest.partition(" ")
                    out.meta[key] = value
                elif kind == "section":
                    name, _, n = rest.partition(" ")
                    n = count(n, f"section {name} line count")
                    at_eof = (f"file ends inside section {name}, which line {lineno} "
                              f"declares {n} lines long")
                    out.sections[name] = [next_line(at_eof) for _ in range(n)]
                elif kind == "param":
                    name, _, dims = rest.partition(" ")
                    shape = tuple(count(d, f"param {name} dimension")
                                  for d in dims.split(",")) if dims else ()
                    shapes.append((name, shape))
                else:
                    raise ParseError(f"{path} line {lineno}: unknown header line {line!r}")
            blob = fh.read()
        offset = 0
        for name, shape in shapes:
            nbytes = math.prod(shape) * 4  # exact: np.prod would wrap at 2**63
            if offset + nbytes > len(blob):
                raise ParseError(f"{path}: binary payload truncated at array {name}")
            try:
                arr = np.frombuffer(blob[offset:offset + nbytes], dtype="<f4").reshape(shape)
            except ValueError:  # a zero-sized shape with a dimension numpy cannot index
                raise ParseError(f"{path}: param {name} has an unusable shape {shape}") from None
            out.arrays[name] = arr
            offset += nbytes
        if offset != len(blob):
            raise ParseError(f"{path}: {len(blob) - offset} trailing bytes after declared arrays")
        return out


def store_params(container: Container, named_params: list) -> None:
    for name, tensor in named_params:
        container.add_array(name, tensor.data)


def restore_params(container: Container, named_params: list) -> None:
    """Copy each named array of the container into its tensor; a ParseError
    naming the file and the array when one is missing or misshapen."""
    for name, tensor in named_params:
        if name not in container.arrays:
            raise ParseError(f"{container.path}: container is missing array {name}")
        arr = container.arrays[name]
        if arr.shape != tensor.data.shape:
            raise ParseError(f"{container.path}: array {name} has stored shape {arr.shape} "
                             f"vs model shape {tensor.data.shape}")
        tensor.data[...] = arr
