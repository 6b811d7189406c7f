"""Discrete memoryless channels, cascades, and the degraded wiretap triple.

A channel file is plain text: a header ``channel IN OUT`` followed by IN
lines of OUT probabilities each.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .rand import as_rng, inverse_cdf_sample
from .sequences import Alphabet, SymbolSequence, read_text

ROW_TOL = 1e-12


def validate(rows, tol: float = ROW_TOL):
    """Check row-stochasticity; returns None if ok, else a description string.

    Reports the first violated row index and its residual, e.g.
    'row 0: sum residual 2e-01'.
    """
    if isinstance(rows, TransitionMatrix):
        rows = rows.rows
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        return f"expected a nonempty 2-D matrix, got shape {arr.shape}"
    # C order makes arr.sum(axis=1) the same pairwise sum as each row.sum()
    arr = np.ascontiguousarray(arr)
    # whole-matrix screen; NaN fails both comparisons, so the range test also
    # catches non-finite entries. The row loop below only names the culprit.
    if ((arr >= 0.0) & (arr <= 1.0 + tol)).all() and (np.abs(arr.sum(axis=1) - 1.0) <= tol).all():
        return None
    for i, row in enumerate(arr):
        finite = np.isfinite(row)
        if not finite.all():
            return f"row {i}: non-finite entry {float(row[~finite][0])}"
        # an entry may exceed 1 by the rounding that the row-sum tolerance allows
        outside = (row < 0.0) | (row > 1.0 + tol)
        if outside.any():
            return f"row {i}: entry {float(row[np.argmax(outside)])!r} outside [0, 1]"
        residual = abs(float(row.sum()) - 1.0)
        if residual > tol:
            return f"row {i}: sum residual {residual:.6g}"
    return None


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix from in_alphabet to out_alphabet.

    Rows are validated to 1e-12 at construction and frozen read-only;
    renormalization happens only via the explicit renormalized() call.
    """

    in_alphabet: Alphabet
    out_alphabet: Alphabet
    rows: np.ndarray

    def __post_init__(self):
        arr = np.array(self.rows, dtype=float)
        if arr.shape != (self.in_alphabet.size, self.out_alphabet.size):
            raise ValidationError(
                f"matrix shape {arr.shape} does not match alphabets "
                f"({self.in_alphabet.size}, {self.out_alphabet.size})"
            )
        problem = validate(arr)
        if problem is not None:
            raise ValidationError(f"invalid channel: {problem}")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    def renormalized(self) -> "TransitionMatrix":
        arr = np.array(self.rows, dtype=float)
        arr /= arr.sum(axis=1, keepdims=True)
        return TransitionMatrix(self.in_alphabet, self.out_alphabet, arr)


def channel_from_rows(rows) -> TransitionMatrix:
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"expected a 2-D matrix, got shape {arr.shape}")
    return TransitionMatrix(Alphabet(arr.shape[0]), Alphabet(arr.shape[1]), arr)


def bsc(p: float) -> TransitionMatrix:
    """Binary symmetric channel with crossover probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"crossover probability {p} outside [0, 1]")
    return channel_from_rows([[1.0 - p, p], [p, 1.0 - p]])


def identity_channel(size: int) -> TransitionMatrix:
    return channel_from_rows(np.eye(size))


def cascade(first: TransitionMatrix, second: TransitionMatrix) -> TransitionMatrix:
    """Compose two channels; output alphabet of the first must feed the second."""
    if first.out_alphabet.size != second.in_alphabet.size:
        raise ValidationError(
            f"cascade mismatch: {first.out_alphabet.size} outputs into "
            f"{second.in_alphabet.size} inputs"
        )
    return TransitionMatrix(first.in_alphabet, second.out_alphabet, first.rows @ second.rows)


@dataclass(frozen=True, eq=False)
class ChannelTriple:
    """Degraded wiretap pair: main X->Y, wiretap Y->Z, cascade X->Z derived.

    Degradedness holds by construction since the eavesdropper channel is
    always the composition through Y.
    """

    main: TransitionMatrix
    wiretap: TransitionMatrix
    cascade: TransitionMatrix = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cascade", cascade(self.main, self.wiretap))


def _check_input(size: int, ch: TransitionMatrix) -> None:
    """Reject inputs over `size` symbols for a channel with another input alphabet."""
    if size != ch.in_alphabet.size:
        raise ValidationError(f"input alphabet {size} does not match channel input {ch.in_alphabet.size}")


def sample(ch: TransitionMatrix, x: SymbolSequence, seed) -> SymbolSequence:
    """Pass x through the channel memorylessly; deterministic given the seed."""
    _check_input(x.alphabet.size, ch)
    rng = as_rng(seed)
    draws = rng.random(len(x))
    cum = np.cumsum(ch.rows, axis=1)
    out = inverse_cdf_sample(cum[x.array()], draws)
    return SymbolSequence(Alphabet(ch.out_alphabet.size), out)


def load_channel(path: str | os.PathLike) -> TransitionMatrix:
    lines = [ln.strip() for ln in read_text(path).split("\n") if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty channel file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "channel":
        raise ValidationError(f"{path}: expected header 'channel IN OUT'")
    try:
        n_in, n_out = int(head[1]), int(head[2])
    except ValueError:
        raise ValidationError(f"{path}: non-integer alphabet sizes in header") from None
    body = lines[1:]
    if len(body) != n_in:
        raise ValidationError(f"{path}: expected {n_in} probability rows, found {len(body)}")
    rows = []
    for i, ln in enumerate(body):
        toks = ln.split()
        if len(toks) != n_out:
            raise ValidationError(f"{path}: row {i} has {len(toks)} entries, expected {n_out}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError:
            raise ValidationError(f"{path}: row {i} has a non-numeric entry") from None
    try:
        return TransitionMatrix(Alphabet(n_in), Alphabet(n_out), np.array(rows))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def dump_channel(ch: TransitionMatrix, path: str | os.PathLike) -> None:
    lines = [f"channel {ch.in_alphabet.size} {ch.out_alphabet.size}"]
    for row in ch.rows:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
