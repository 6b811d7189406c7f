"""Incremental (LZ78) parsing, LZ complexity, and the conditional variant.

One trie walk, _parse_stream, drives both the single-sequence parse and the
pair parse; the prefix counts c(u^i) are read off the single-sequence parse.
The pair parse walks the product alphabet, keying trie edges by the index
u * |W| + w of each (u, w) symbol pair (an int hashes faster than a tuple).
The conditional rate is summed by one function, _rate_of_multiplicities,
straight off the pair walk's w-phrase counts: conditional_lz_complexity
builds no JointPhraseParse.

Counting conventions differ deliberately between the two parses. The plain
parse counts a trailing incomplete phrase toward c. The joint parse counts
distinct phrases only, so a trailing incomplete pair phrase (which always
retraces an existing trie path) is excluded; this is what makes
sum_l c_l == c_joint hold identically and conditional complexity of (u, u)
vanish exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sequences import SymbolSequence


@dataclass(frozen=True)
class PhraseParse:
    """Result of an incremental parse.

    phrases are half-open [start, end) index pairs partitioning the input;
    c counts all phrases including a possibly incomplete last one.
    """

    phrases: tuple
    c: int
    last_incomplete: bool

    def strings(self, seq: SymbolSequence) -> tuple:
        return tuple(seq.data[a:b] for a, b in self.phrases)


@dataclass(frozen=True)
class JointPhraseParse:
    """Pair-stream parse with per-w-phrase multiplicities.

    phrases lists the complete pair-phrase spans; c_joint == len(phrases).
    w_phrases maps each distinct w-component (in first-appearance order) to its
    multiplicity c_l among the complete pair phrases, so the multiplicities sum
    to c_joint. A trailing incomplete pair phrase is flagged, not counted.
    """

    phrases: tuple
    c_joint: int
    w_phrases: tuple
    c_w: int
    dropped_incomplete: bool


def _parse_stream(symbols) -> tuple:
    """Core LZ78 walk; returns (complete spans, incomplete tail span or None)."""
    root: dict = {}
    node = root
    spans = []
    start = 0
    i = -1
    for i, sym in enumerate(symbols):
        child = node.get(sym)
        if child is None:
            node[sym] = {}
            spans.append((start, i + 1))
            node = root
            start = i + 1
        else:
            node = child
    n = i + 1
    tail = (start, n) if start < n else None
    return spans, tail


def incremental_parse(u: SymbolSequence) -> PhraseParse:
    """Parse u into distinct phrases, each a one-symbol extension of an earlier one."""
    if len(u) == 0:
        raise ValidationError("cannot parse an empty sequence")
    spans, tail = _parse_stream(u.data)
    if tail is not None:
        spans.append(tail)
    return PhraseParse(phrases=tuple(spans), c=len(spans), last_incomplete=tail is not None)


def _lz_rate(parse: PhraseParse, n: int) -> float:
    return parse.c * math.log2(parse.c) / n


def lz_complexity(u: SymbolSequence) -> float:
    """LZ complexity c log2(c) / n in bits per symbol."""
    return _lz_rate(incremental_parse(u), len(u))


def prefix_phrase_counts(u: SymbolSequence) -> tuple:
    """c(u^i) for every prefix length i = 1..n, from u's own parse.

    The parse of a prefix u^i is u's parse cut at i, so c(u^i) is the number
    of u's phrases that start before i: phrase j counts j over its span.
    """
    spans = incremental_parse(u).phrases
    return tuple(itertools.chain.from_iterable(itertools.repeat(j, b - a) for j, (a, b) in enumerate(spans, 1)))


def _w_phrase_counts(spans, w_data) -> dict:
    """Multiplicity c_l of each w-phrase among the pair spans, keyed in first-appearance order."""
    counts: dict = {}
    for a, b in spans:
        wpart = w_data[a:b]
        counts[wpart] = counts.get(wpart, 0) + 1
    return counts


def _rate_of_multiplicities(multiplicities, n: int) -> float:
    """(1/n) sum_l c_l log2 c_l, summed in the order given."""
    total = 0.0
    for c_l in multiplicities:
        total += c_l * math.log2(c_l)
    return total / n


def _check_pair(u: SymbolSequence, w: SymbolSequence) -> None:
    if len(u) == 0:
        raise ValidationError("cannot parse an empty sequence")
    if len(u) != len(w):
        raise ValidationError(f"length mismatch: |u| = {len(u)}, |w| = {len(w)}")


def joint_parse(u: SymbolSequence, w: SymbolSequence) -> JointPhraseParse:
    """Parse the pair stream ((u_1,w_1), ..., (u_n,w_n)) and bucket by w-phrase."""
    _check_pair(u, w)
    omega = w.alphabet.size
    spans, tail = _parse_stream([a * omega + b for a, b in zip(u.data, w.data)])
    counts = _w_phrase_counts(spans, w.data)
    return JointPhraseParse(
        phrases=tuple(spans),
        c_joint=len(spans),
        w_phrases=tuple(counts.items()),
        c_w=len(counts),
        dropped_incomplete=tail is not None,
    )


def _conditional_rate(u: tuple, w: tuple, omega: int) -> float:
    """conditional_lz_complexity of equal-length nonempty symbol tuples, w over omega symbols.

    It builds no SymbolSequence and no JointPhraseParse, and sums c_l log2 c_l
    in joint_parse's first-appearance order of the w-phrases.
    """
    spans, _ = _parse_stream([a * omega + b for a, b in zip(u, w)])
    return _rate_of_multiplicities(_w_phrase_counts(spans, w).values(), len(u))


def conditional_lz_complexity(u: SymbolSequence, w: SymbolSequence) -> float:
    """Conditional LZ complexity (1/n) sum_l c_l log2 c_l in bits per symbol."""
    _check_pair(u, w)
    return _conditional_rate(u.data, w.data, w.alphabet.size)


def empirical_block_entropy(u: SymbolSequence, block: int) -> float:
    """Per-symbol entropy of the non-overlapping block empirical distribution.

    Args:
        u: input sequence; block must divide len(u).
        block: block length K >= 1.

    Returns:
        H(empirical K-block distribution) / K in bits per symbol.
    """
    n = len(u)
    if block < 1:
        raise ValidationError(f"block length must be >= 1, got {block}")
    if n == 0 or n % block != 0:
        raise ValidationError(f"block length {block} does not divide n = {n}")
    blocks = u.array().reshape(n // block, block)
    _, counts = np.unique(blocks, axis=0, return_counts=True)
    freqs = counts / counts.sum()
    return float(-(freqs * np.log2(freqs)).sum()) / block


def entropy_vs_lz_margin(u: SymbolSequence, block: int, eps_n: float = 0.0) -> float:
    """Diagnostic margin of the block-entropy lower bound on LZ complexity.

    Returns H(hat U^K)/K - [rho_LZ(u) - 2K(log2(alpha)+1)^2/((1-eps_n) log2 n)
    - 2K alpha^{2K} log2(alpha)/n - 1/K]. Nonnegative values confirm the
    inequality at this (n, K); negative values are reported, not asserted,
    since the statement is asymptotic.
    """
    n = len(u)
    if n < 2:
        raise ValidationError("diagnostic needs n >= 2")
    if not 0.0 <= eps_n < 1.0:
        raise ValidationError(f"eps_n must lie in [0, 1), got {eps_n}")
    alpha = u.alphabet.size
    la = math.log2(alpha) if alpha > 1 else 0.0
    slack = (
        2 * block * (la + 1.0) ** 2 / ((1.0 - eps_n) * math.log2(n))
        + 2 * block * alpha ** (2 * block) * la / n
        + 1.0 / block
    )
    return empirical_block_entropy(u, block) - (lz_complexity(u) - slack)
