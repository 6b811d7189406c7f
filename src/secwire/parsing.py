"""Incremental (LZ78) parsing, LZ complexity, and the conditional variant.

One walk, _phrase_ends, drives both the single-sequence parse and the pair
parse; the prefix counts c(u^i) are read off the single-sequence parse. The
walk reads symbols packed as fixed-width big-endian bytes (pack_symbols:
1 byte per symbol up to 256 symbols, then 2, 4, 8, ... bytes) and takes one
phrase per step. The phrases seen so far are prefix-closed, so whether the
L symbols from a phrase start form a phrase flips from true to false once as
L grows, and a new phrase is at most one symbol longer than the longest so
far: a binary search with a few bytes-slice lookups in one set finds it. The
pair parse walks _pair_bytes: pair i is u's packed word i followed by w's,
written straight from the two packed bytes objects. The walk only asks which
pairs are equal, and two pairs are equal just when both symbols are. It keys
the w-phrase multiplicities by slices of w's packed bytes. The conditional
rate is summed by one function, _rate_of_multiplicities, straight off the
pair walk's w-phrase counts: conditional_lz_complexity builds no
JointPhraseParse. For every length-n u at once (the feedback list decoder's
candidates), _candidate_rates walks the candidate tree instead, sharing the
pair parse along common prefixes.

Counting conventions differ deliberately between the two parses. The plain
parse counts a trailing incomplete phrase toward c. The joint parse counts
distinct phrases only, so a trailing incomplete pair phrase (which always
matches an existing phrase) is excluded; this is what makes
sum_l c_l == c_joint hold identically and conditional complexity of (u, u)
vanish exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sequences import SymbolSequence, symbol_width, unpack_symbols


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


def _phrase_ends(packed: bytes, width: int) -> tuple:
    """Core LZ78 walk over width-byte symbols.

    Returns (the end of every complete phrase, in symbols; the start of an
    incomplete tail phrase or None). The match from a start s is the largest
    L with packed[s:s+L] (in symbols) a phrase; L = 0 always matches.
    """
    n = len(packed) // width
    seen = set()
    ends = []
    s = longest = 0
    while s < n:
        b = s * width
        hi = n - s
        if longest < hi:
            hi = longest
        lo = 0
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if packed[b : b + mid * width] in seen:
                lo = mid
            else:
                hi = mid - 1
        s += lo + 1
        if s > n:
            # the rest of the input matches a phrase
            return ends, b // width
        seen.add(packed[b : s * width])
        if lo >= longest:
            longest = lo + 1
        ends.append(s)
    return ends, None


def _spans(ends) -> tuple:
    return tuple(zip([0] + ends, ends))


def incremental_parse(u: SymbolSequence) -> PhraseParse:
    """Parse u into distinct phrases, each a one-symbol extension of an earlier one."""
    if len(u) == 0:
        raise ValidationError("cannot parse an empty sequence")
    ends, tail = _phrase_ends(u.packed(), symbol_width(u.alphabet.size))
    if tail is not None:
        ends.append(len(u))
    return PhraseParse(phrases=_spans(ends), c=len(ends), last_incomplete=tail is not None)


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


def _w_phrase_counts(ends, w_packed: bytes, w_width: int) -> dict:
    """Multiplicity c_l of each packed w-phrase among the pair phrases ending at ends, in first-appearance order."""
    counts: dict = {}
    a = 0
    for b in ends:
        wpart = w_packed[a * w_width : b * w_width]
        counts[wpart] = counts.get(wpart, 0) + 1
        a = b
    return counts


def _rate_of_multiplicities(multiplicities, n: int) -> float:
    """(1/n) sum_l c_l log2 c_l, summed in the order given.

    A c_l of 1 adds 1 * log2(1) = +0.0, which leaves the nonnegative running
    total unchanged bit for bit, so it is skipped.
    """
    total = 0.0
    for c_l in multiplicities:
        if c_l > 1:
            total += c_l * math.log2(c_l)
    return total / n


def _check_pair(u: SymbolSequence, w: SymbolSequence) -> int:
    """The common length n >= 1 of u and w."""
    n, n_w = len(u), len(w)
    if n == 0:
        raise ValidationError("cannot parse an empty sequence")
    if n != n_w:
        raise ValidationError(f"length mismatch: |u| = {n}, |w| = {n_w}")
    return n


def _pair_bytes(u: SymbolSequence, w: SymbolSequence) -> tuple:
    """(the pair stream, its width): pair i is u's packed word i then w's, one byte column a slice write."""
    u_width, w_width = symbol_width(u.alphabet.size), symbol_width(w.alphabet.size)
    width = u_width + w_width
    pairs = bytearray(len(u) * width)
    u_packed, w_packed = u.packed(), w.packed()
    for k in range(u_width):
        pairs[k::width] = u_packed[k::u_width]
    for k in range(w_width):
        pairs[u_width + k :: width] = w_packed[k::w_width]
    return bytes(pairs), width


def joint_parse(u: SymbolSequence, w: SymbolSequence) -> JointPhraseParse:
    """Parse the pair stream ((u_1,w_1), ..., (u_n,w_n)) and bucket by w-phrase."""
    _check_pair(u, w)
    omega = w.alphabet.size
    ends, tail = _phrase_ends(*_pair_bytes(u, w))
    counts = _w_phrase_counts(ends, w.packed(), symbol_width(omega))
    if symbol_width(omega) == 1:
        w_phrases = tuple(zip(map(tuple, counts), counts.values()))
    else:
        w_phrases = tuple((tuple(unpack_symbols(k, omega).tolist()), m) for k, m in counts.items())
    return JointPhraseParse(
        phrases=_spans(ends),
        c_joint=len(ends),
        w_phrases=w_phrases,
        c_w=len(counts),
        dropped_incomplete=tail is not None,
    )


def _candidate_rates(n: int, alpha: int, w_packed: bytes, omega: int) -> array:
    """Conditional rate of every length-n u over alpha symbols given packed w, in itertools.product order.

    One depth-first walk of the candidate tree, so leaf k is candidate k. It
    keeps the pair-stream LZ78 state along shared prefixes: the trie as a dict
    (node, u * omega + w_d) -> child, and the w-phrase counts in one
    insertion-ordered dict. A new phrase adds one trie edge and one count on
    the way down; both are undone on the way back up, a count that falls to 0
    losing its key, so the dict keeps first-appearance order. Each leaf sums
    its counts with _rate_of_multiplicities, so every rate equals
    conditional_lz_complexity of that candidate bit for bit.
    """
    w = unpack_symbols(w_packed, omega).tolist()
    width = symbol_width(omega)
    # w_keys[a][b]: the packed w-part of a phrase over symbols [a, b)
    w_keys = [[w_packed[a * width : b * width] for b in range(n + 1)] for a in range(n + 1)]
    fanout = alpha * omega
    trie: dict = {}
    counts: dict = {}
    rates = array("d")

    def walk(d: int, node: int, start: int) -> None:
        if d == n:
            rates.append(_rate_of_multiplicities(counts.values(), n))
            return
        base, wd, keys = node * fanout, w[d], w_keys[start]
        for x in range(alpha):
            edge = base + x * omega + wd
            child = trie.get(edge)
            if child is not None:
                walk(d + 1, child, start)
                continue
            # a new phrase over [start, d + 1); the live nodes are 1..len(trie)
            trie[edge] = len(trie) + 1
            key = keys[d + 1]
            counts[key] = counts.get(key, 0) + 1
            walk(d + 1, 0, d + 1)
            del trie[edge]
            if counts[key] == 1:
                del counts[key]
            else:
                counts[key] -= 1

    walk(0, 0, 0)
    return rates


def conditional_lz_complexity(u: SymbolSequence, w: SymbolSequence) -> float:
    """Conditional LZ complexity (1/n) sum_l c_l log2 c_l in bits per symbol, c_l as in joint_parse's w_phrases."""
    n = _check_pair(u, w)
    ends = _phrase_ends(*_pair_bytes(u, w))[0]
    return _rate_of_multiplicities(_w_phrase_counts(ends, w.packed(), symbol_width(w.alphabet.size)).values(), n)


def _block_length(block) -> int:
    try:
        block = operator.index(block)
    except TypeError:
        raise ValidationError(f"block length must be an integer, got {block!r}") from None
    if block < 1:
        raise ValidationError(f"block length must be >= 1, got {block}")
    return block


def empirical_block_entropy(u: SymbolSequence, block: int) -> float:
    """Per-symbol entropy of the non-overlapping block empirical distribution.

    Args:
        u: input sequence; block must divide len(u).
        block: block length K >= 1.

    Returns:
        H(empirical K-block distribution) / K in bits per symbol.
    """
    n = len(u)
    block = _block_length(block)
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
    block = _block_length(block)
    alpha = u.alphabet.size
    la = math.log2(alpha) if alpha > 1 else 0.0
    slack = (
        2 * block * (la + 1.0) ** 2 / ((1.0 - eps_n) * math.log2(n))
        + 2 * block * alpha ** (2 * block) * la / n
        + 1.0 / block
    )
    return empirical_block_entropy(u, block) - (lz_complexity(u) - slack)
