"""Finite-alphabet symbol sequences and their on-disk format.

A sequence file is UTF-8 text: the tokens ``alphabet N`` followed by integer
symbols in ``[0, N)``. Tokens are separated by any whitespace (``str.split``
rules, so tabs, CRLF line ends and Unicode separators such as ``\x1c`` count),
at any line width; a symbol may share the header line. A symbol token is
anything ``int()`` accepts: a sign, leading zeros, underscores between digits
and non-ASCII decimal digits are allowed, ``1.0`` is not. Every malformed
file (not UTF-8, bad header, non-integer or out-of-range symbol) raises
ValidationError naming the path, which the CLI reports with exit code 2.

The body after the header is read by one of two paths, both giving the same
symbols. A body of ASCII whitespace and single-digit tokens (the layout
dump_sequence writes for alphabets of up to 10 symbols) is decoded straight
from its bytes. Every other body goes through int() token by token.

A SymbolSequence stores one form of its symbols: the packed big-endian words
of pack_symbols (one byte a symbol up to 256 symbols). The loader's uint8
array packs with one copy; the tuple of Python ints is built only when a
caller reads data.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Every digit mapped to "0". A body whose mapped bytes hold only "0" and ASCII
# whitespace, with no run of two zeros, holds only single-digit tokens: the test
# of the regexes [0-9\s]* (re.ASCII) and [0-9]{2}, at a fraction of their cost.
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")
_SPACE = b" \t\n\r\x0b\x0c"
_ZERO_AND_SPACE = b"0" + _SPACE


def _single_digit_bytes(body: str) -> bytes | None:
    """The ASCII bytes of a body of ASCII whitespace and single-digit tokens, else None."""
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    zeros = raw.translate(_DIGITS_TO_ZERO)
    if zeros.translate(None, _ZERO_AND_SPACE) or b"00" in zeros:
        return None
    return raw


def read_text(path: str | os.PathLike) -> str:
    """Whole content of a UTF-8 text file; ValidationError naming the path if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: file is not UTF-8 text") from None


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise ValidationError(f"alphabet size must be a positive integer, got {self.size!r}")

    def __contains__(self, symbol) -> bool:
        return 0 <= symbol < self.size


def symbol_width(size: int) -> int:
    """Bytes per symbol in the packed form of symbols in [0, size): 1 up to 256 symbols, then 2, 4, 8, 16, ..."""
    width = 1
    while (size - 1) >> (8 * width):
        width *= 2
    return width


def pack_symbols(values, size: int) -> bytes:
    """Symbols in [0, size) as big-endian words of symbol_width(size) bytes, in C order.

    values is an integer ndarray (of any shape, object arrays included) or a
    sequence of ints.
    """
    width = symbol_width(size)
    if width == 1 and isinstance(values, tuple):
        return bytes(values)
    if width <= 8:
        return np.asarray(values, dtype=f">u{width}").tobytes()
    return b"".join(int(v).to_bytes(width, "big") for v in np.ravel(np.asarray(values, dtype=object)))


def unpack_symbols(packed: bytes, size: int) -> np.ndarray:
    """The symbols of pack_symbols(values, size) as a 1-D array: unsigned ints, or Python ints past 8 bytes."""
    width = symbol_width(size)
    if width <= 8:
        return np.frombuffer(packed, dtype=f">u{width}")
    words = range(0, len(packed), width)
    return np.array([int.from_bytes(packed[i : i + width], "big") for i in words], dtype=object)


def _non_integer(items):
    """The first item operator.index rejects."""
    for item in items:
        try:
            operator.index(item)
        except TypeError:
            return item


@dataclass(frozen=True, init=False)
class SymbolSequence:
    """Immutable sequence of symbols over a fixed alphabet, stored as its packed bytes.

    data may be any iterable of integers (whatever operator.index accepts, so
    not floats); a 1-D integer ndarray is checked with min/max in bulk. The
    one stored form is pack_symbols(data, alphabet size), which the parser
    reads and which equality and hashing compare; the tuple of Python ints
    (data) is built on first read and kept. The length is stored beside
    them, outside equality and hashing. Slices and prefixes cut the packed
    bytes and are not checked again.
    """

    alphabet: Alphabet
    _packed: bytes

    def __init__(self, alphabet: Alphabet, data=()):
        if isinstance(data, np.ndarray) and data.ndim != 1:
            raise ValidationError(f"symbols must form a 1-D array, got {data.ndim}-D")
        if isinstance(data, np.ndarray) and data.dtype.kind in "iu":
            lo, hi = (int(data.min()), int(data.max())) if data.size else (0, 0)
        else:
            items = tuple(data)
            try:
                data = tuple(map(operator.index, items))
            except TypeError:
                raise ValidationError(f"symbol {_non_integer(items)!r} is not an integer") from None
            lo, hi = (min(data), max(data)) if data else (0, 0)
        if lo < 0 or hi >= alphabet.size:
            bad = next(s for s in map(int, data) if s not in alphabet)
            raise ValidationError(f"symbol {bad} outside alphabet of size {alphabet.size}")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_packed", pack_symbols(data, alphabet.size))
        object.__setattr__(self, "_len", len(data))

    @functools.cached_property
    def data(self) -> tuple:
        """The symbols as a tuple of Python ints, built on first read and kept."""
        if symbol_width(self.alphabet.size) == 1:
            # tuple() of bytes yields Python ints, at a fraction of NumPy's fixed cost per call
            return tuple(self._packed)
        return tuple(unpack_symbols(self._packed, self.alphabet.size).tolist())

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return self._cut(idx)
        return self.data[idx]

    def __iter__(self):
        return iter(self.data)

    def prefix(self, n: int) -> "SymbolSequence":
        try:
            n = operator.index(n)
        except TypeError:
            raise ValidationError(f"prefix length {n!r} is not an integer") from None
        if not 0 <= n <= len(self):
            raise ValidationError(f"prefix length {n} outside [0, {len(self)}]")
        if n == len(self):
            return self
        return self._cut(slice(n))

    def _cut(self, sl: slice) -> "SymbolSequence":
        """self[sl], cut from the packed bytes without a second check: a slice of valid symbols is valid."""
        words = np.frombuffer(self._packed, dtype=f"V{symbol_width(self.alphabet.size)}")[sl]
        cut = object.__new__(SymbolSequence)
        object.__setattr__(cut, "alphabet", self.alphabet)
        object.__setattr__(cut, "_packed", words.tobytes())
        object.__setattr__(cut, "_len", len(words))
        return cut

    def array(self) -> np.ndarray:
        """The symbols as an int64 array; a symbol of 2^63 or more wraps from 8 bytes and overflows from 16."""
        return unpack_symbols(self._packed, self.alphabet.size).astype(np.int64)

    def packed(self) -> bytes:
        """The symbols as pack_symbols(data, alphabet size)."""
        return self._packed


def sequence_from_array(values, alphabet_size: int) -> SymbolSequence:
    return SymbolSequence(Alphabet(int(alphabet_size)), values)


def load_sequence(path: str | os.PathLike) -> SymbolSequence:
    """Parse a sequence file (format in the module docstring).

    Raises ValidationError on a file that is not UTF-8, a malformed header,
    non-integer symbols, or out-of-range symbols; the message names the path
    and the offending token.
    """
    parts = read_text(path).split(maxsplit=2)
    if len(parts) < 2 or parts[0] != "alphabet":
        raise ValidationError(f"{path}: expected header 'alphabet N'")
    try:
        size = int(parts[1])
    except ValueError:
        raise ValidationError(f"{path}: alphabet size {parts[1]!r} is not an integer") from None
    body = parts[2] if len(parts) == 3 else ""
    raw = _single_digit_bytes(body)
    if raw is not None:
        # every token is one digit: the bytes left once whitespace is deleted are the symbols
        # (the same selection as a mask of bytes >= "0", without its cost)
        symbols = np.frombuffer(raw.translate(None, _SPACE), dtype=np.uint8) - 0x30
    else:
        symbols = []
        for tok in body.split():
            try:
                symbols.append(int(tok))
            except ValueError:
                raise ValidationError(f"{path}: symbol {tok!r} is not an integer") from None
    try:
        return SymbolSequence(Alphabet(size), symbols)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def dump_sequence(seq: SymbolSequence, path: str | os.PathLike, width: int = 40) -> None:
    """Write a sequence file; symbols wrapped at `width` per line."""
    lines = [f"alphabet {seq.alphabet.size}"]
    data = seq.data
    for start in range(0, len(data), width):
        lines.append(" ".join(str(s) for s in data[start : start + width]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
