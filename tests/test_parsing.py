import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secwire import feedback_binning as fb
from secwire.errors import ValidationError
from secwire.parsing import (
    JointPhraseParse,
    PhraseParse,
    _candidate_rates,
    _phrase_ends,
    conditional_lz_complexity,
    empirical_block_entropy,
    entropy_vs_lz_margin,
    incremental_parse,
    joint_parse,
    lz_complexity,
    prefix_phrase_counts,
)
from secwire.sequences import Alphabet, SymbolSequence, pack_symbols, sequence_from_array, symbol_width


def _trie_walk(symbols):
    # the dict-of-dicts LZ78 walk that the byte-keyed _phrase_ends replaced,
    # frozen here as its oracle: one trie step per symbol, any hashable symbols
    root = {}
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


def _frozen_incremental_parse(u):
    spans, tail = _trie_walk(u.data)
    if tail is not None:
        spans.append(tail)
    return PhraseParse(phrases=tuple(spans), c=len(spans), last_incomplete=tail is not None)


def _frozen_joint_parse(u, w):
    omega = w.alphabet.size
    spans, tail = _trie_walk([a * omega + b for a, b in zip(u.data, w.data)])
    counts = {}
    for a, b in spans:
        counts[w.data[a:b]] = counts.get(w.data[a:b], 0) + 1
    return JointPhraseParse(
        phrases=tuple(spans),
        c_joint=len(spans),
        w_phrases=tuple(counts.items()),
        c_w=len(counts),
        dropped_incomplete=tail is not None,
    )


def _frozen_conditional_lz_complexity(u, w):
    total = 0.0
    for _, c_l in _frozen_joint_parse(u, w).w_phrases:
        total += c_l * math.log2(c_l)
    return total / len(u)


def _frozen_prefix_phrase_counts(u):
    spans = _frozen_incremental_parse(u).phrases
    return tuple(itertools.chain.from_iterable(itertools.repeat(j, b - a) for j, (a, b) in enumerate(spans, 1)))


def _walk_spans(symbols, size):
    ends, tail_start = _phrase_ends(pack_symbols(symbols, size), symbol_width(size))
    tail = None if tail_start is None else (tail_start, len(symbols))
    return list(zip([0] + ends, ends)), tail


def _shaped(draw, size, max_len):
    # random, constant or periodic symbols: the last two give long phrases
    n = draw(st.integers(0, max_len))
    kind = draw(st.sampled_from(["random", "constant", "periodic"]))
    if kind == "random":
        seed = draw(st.integers(0, 2 ** 32 - 1))
        return tuple(int(s) for s in np.random.default_rng(seed).integers(0, size, n))
    period = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=1 if kind == "constant" else 6))
    return tuple(period[i % len(period)] for i in range(n))


@st.composite
def _sequences(draw, max_size=300, max_len=3000):
    size = draw(st.integers(1, max_size))
    return size, _shaped(draw, size, max_len)


@st.composite
def _pairs(draw, max_len=3000):
    # alpha and omega take one- and two-byte words, either side of 256 and
    # past 65536, so u's and w's words in a pair may differ in width
    sizes = st.one_of(st.integers(1, 40), st.sampled_from([255, 256, 257, 65537]))
    alpha = draw(sizes)
    omega = draw(sizes)
    u = _shaped(draw, alpha, max_len)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    flips = np.random.default_rng(seed).random(len(u)) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    w = tuple(int(b) % omega if f else a % omega for a, b, f in zip(u, np.random.default_rng(seed).integers(0, omega, len(u)), flips))
    return SymbolSequence(Alphabet(alpha), u), SymbolSequence(Alphabet(omega), w)


def _seq(symbols, size=2):
    return SymbolSequence(Alphabet(size), tuple(symbols))


def _random_seq(rng, n, size):
    return sequence_from_array(rng.integers(0, size, n), size)


def test_reference_parse_example():
    u = _seq([0, 0, 0, 0, 1, 1, 0, 1, 1, 0])
    parse = incremental_parse(u)
    assert parse.strings(u) == ((0,), (0, 0), (0, 1), (1,), (0, 1, 1), (0,))
    assert parse.c == 6
    assert parse.last_incomplete
    assert math.isclose(lz_complexity(u), 6 * math.log2(6) / 10)


def test_parse_counts_complete_tail_once():
    u = _seq([0, 1, 0, 0])
    parse = incremental_parse(u)
    assert parse.strings(u) == ((0,), (1,), (0, 0))
    assert parse.c == 3
    assert not parse.last_incomplete


def test_parse_single_symbol():
    u = _seq([1])
    parse = incremental_parse(u)
    assert parse.c == 1
    assert parse.strings(u) == ((1,),)


def test_phrases_are_distinct_except_tail():
    rng = np.random.default_rng(202)
    for _ in range(50):
        size = int(rng.integers(2, 5))
        u = _random_seq(rng, int(rng.integers(1, 500)), size)
        parse = incremental_parse(u)
        strings = parse.strings(u)
        body = strings[:-1] if parse.last_incomplete else strings
        assert len(set(body)) == len(body)
        assert sum(len(s) for s in strings) == len(u)


def test_reference_conditional_example():
    u = _seq([0, 1, 0, 0, 0, 1])
    w = _seq([0, 1, 0, 1, 0, 1])
    jp = joint_parse(u, w)
    assert jp.c_joint == 4
    assert jp.c_w == 3
    assert tuple(m for _, m in jp.w_phrases) == (1, 1, 2)
    assert math.isclose(conditional_lz_complexity(u, w), 1.0 / 3.0)


def test_joint_parse_drops_incomplete_tail():
    u = _seq([0, 0, 0, 0])
    w = _seq([0, 0, 0, 0])
    jp = joint_parse(u, w)
    assert jp.c_joint == 2
    assert jp.dropped_incomplete
    assert conditional_lz_complexity(u, w) == 0.0


def test_conditional_complexity_of_self_is_zero():
    rng = np.random.default_rng(99)
    for _ in range(100):
        size = int(rng.integers(2, 5))
        u = _random_seq(rng, int(rng.integers(1, 300)), size)
        assert conditional_lz_complexity(u, u) == 0.0


def test_multiplicities_sum_to_joint_count():
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        a = int(rng.integers(2, 5))
        o = int(rng.integers(2, 5))
        u = _random_seq(rng, n, a)
        w = _random_seq(rng, n, o)
        jp = joint_parse(u, w)
        assert sum(m for _, m in jp.w_phrases) == jp.c_joint
        assert jp.c_w == len(jp.w_phrases)
        assert jp.c_w <= jp.c_joint


def test_conditional_bounded_by_marginal_rate():
    # conditioning never exceeds the unconditional phrase-count rate
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 300))
        u = _random_seq(rng, n, 2)
        w = _random_seq(rng, n, 2)
        jp = joint_parse(u, w)
        lhs = conditional_lz_complexity(u, w)
        assert lhs <= jp.c_joint * math.log2(max(jp.c_joint, 2)) / n + 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        joint_parse(_seq([0, 1]), _seq([0, 1, 0]))
    with pytest.raises(ValidationError):
        conditional_lz_complexity(_seq([0]), _seq([0, 1]))


def test_prefix_phrase_counts_match_direct_parses():
    rng = np.random.default_rng(17)
    for _ in range(20):
        size = int(rng.integers(2, 4))
        u = _random_seq(rng, int(rng.integers(1, 120)), size)
        counts = prefix_phrase_counts(u)
        assert len(counts) == len(u)
        assert counts[-1] == incremental_parse(u).c
        for i in map(int, rng.integers(1, len(u) + 1, 5)):
            assert counts[i - 1] == incremental_parse(u.prefix(i)).c
        assert all(b - a in (0, 1) for a, b in zip(counts, counts[1:]))


def test_empirical_block_entropy_known_values():
    const = _seq([0] * 64)
    assert empirical_block_entropy(const, 1) == 0.0
    assert empirical_block_entropy(const, 4) == 0.0
    alt = _seq([0, 1] * 32)
    assert math.isclose(empirical_block_entropy(alt, 1), 1.0)
    # only blocks 01 are seen at K=2, so the block entropy is zero
    assert empirical_block_entropy(alt, 2) == 0.0


def test_entropy_vs_lz_margin_iid_uniform():
    # long iid uniform data: the LZ lower bound stays below the block entropy
    rng = np.random.default_rng(3)
    u = _random_seq(rng, 2 ** 14, 2)
    margin = entropy_vs_lz_margin(u, 4)
    assert margin > 0.0


def test_block_entropy_validation():
    with pytest.raises(ValidationError):
        empirical_block_entropy(_seq([0, 1, 0]), 2)
    with pytest.raises(ValidationError):
        empirical_block_entropy(_seq([0, 1]), 0)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.integers(1, 5),
    omega=st.integers(1, 5),
    pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=300),
)
def test_joint_parse_properties(alpha, omega, pairs):
    u = _seq([a % alpha for a, _ in pairs], alpha)
    w = _seq([b % omega for _, b in pairs], omega)
    jp = joint_parse(u, w)
    # phrase-count identity sum_l c_l == c_joint, and rho(u|u) == 0
    assert sum(c_l for _, c_l in jp.w_phrases) == jp.c_joint == len(jp.phrases)
    assert jp.c_w == len(jp.w_phrases)
    assert conditional_lz_complexity(u, u) == 0.0
    # the packed pair walk gives the spans of the (u, w)-pair-keyed trie walk
    spans, tail = _trie_walk(zip(u.data, w.data))
    assert jp.phrases == tuple(spans)
    assert jp.dropped_incomplete == (tail is not None)


@settings(max_examples=300, deadline=None)
@given(_sequences())
@example((2, (0, 1, 0, 0)))  # complete tail
@example((2, (0, 0, 0, 0, 1, 1, 0, 1, 1, 0)))  # incomplete tail
@example((300, tuple(range(300)) * 3))  # two bytes a symbol, tail retraces a phrase
@example((1, (0,) * 3000))  # one phrase per length
def test_phrase_ends_match_trie_walk(case):
    size, symbols = case
    assert _walk_spans(symbols, size) == _trie_walk(symbols)


@pytest.mark.parametrize("size", [2 ** 16 + 1, 2 ** 40, 2 ** 70])
def test_phrase_ends_match_trie_walk_wide_symbols(size):
    # 4-, 8- and 16-byte symbols; a few distinct large values make long phrases
    rng = np.random.default_rng(size % 1000)
    values = [0, size - 1, size // 3, 1]
    symbols = tuple(values[i] for i in rng.integers(0, 4, 2000))
    assert _walk_spans(symbols, size) == _trie_walk(symbols)


@settings(max_examples=150, deadline=None)
@given(_sequences(max_size=20))
def test_single_parses_match_frozen_copies(case):
    size, symbols = case
    u = SymbolSequence(Alphabet(size), symbols)
    if not symbols:
        with pytest.raises(ValidationError):
            incremental_parse(u)
        return
    want = _frozen_incremental_parse(u)
    assert incremental_parse(u) == want
    assert lz_complexity(u) == want.c * math.log2(want.c) / len(u)
    assert prefix_phrase_counts(u) == _frozen_prefix_phrase_counts(u)


@settings(max_examples=150, deadline=None)
@given(_pairs())
def test_pair_parses_match_frozen_copies(case):
    u, w = case
    if len(u) == 0:
        with pytest.raises(ValidationError):
            joint_parse(u, w)
        return
    assert joint_parse(u, w) == _frozen_joint_parse(u, w)
    want = _frozen_conditional_lz_complexity(u, w)
    assert conditional_lz_complexity(u, w) == want


@settings(max_examples=300, deadline=None)
@given(_pairs(max_len=128))
@example((SymbolSequence(Alphabet(16), (15,) * 64), SymbolSequence(Alphabet(16), tuple(range(16)) * 4)))
@example((SymbolSequence(Alphabet(16), (15,) * 65), SymbolSequence(Alphabet(16), (0,) * 65)))
@example((SymbolSequence(Alphabet(2), (1, 0, 1)), SymbolSequence(Alphabet(129), (128, 0, 128))))
def test_short_pairs_match_frozen_copy(case):
    # short pair streams (a feedback session parses 12 pairs): the examples
    # sit at 64 and 65 pairs and put a one-byte u beside a two-byte w
    u, w = case
    if len(u) == 0:
        return
    assert conditional_lz_complexity(u, w) == _frozen_conditional_lz_complexity(u, w)


@pytest.mark.parametrize("alpha, omega", [(2, 200), (20, 13), (1, 256), (1, 2 ** 64), (2 ** 30, 2 ** 40), (3, 2 ** 64), (2 ** 64, 2)])
def test_pair_parses_match_frozen_copies_wide_pairs(alpha, omega):
    # pair symbols just past one byte, past 8 bytes, and omega at 2^64, where
    # uint64 arithmetic would overflow
    rng = np.random.default_rng(alpha % 97 + omega % 89)
    u = SymbolSequence(Alphabet(alpha), tuple((alpha - 1) * int(b) for b in rng.integers(0, 2, 800)))
    if omega < 2 ** 62:
        w_symbols = tuple(int(v) for v in rng.integers(0, omega, 800))
    else:
        w_symbols = tuple((omega - 1) * int(b) for b in rng.integers(0, 2, 800))
    w = SymbolSequence(Alphabet(omega), w_symbols)
    assert joint_parse(u, w) == _frozen_joint_parse(u, w)
    assert conditional_lz_complexity(u, w) == _frozen_conditional_lz_complexity(u, w)


def test_integer_arguments_are_validated():
    u = _seq([0, 1, 0, 1])
    for bad in (0, -2):
        with pytest.raises(ValidationError, match=f"block length must be >= 1, got {bad}"):
            entropy_vs_lz_margin(u, bad)
    for bad in (2.0, 1.5, "2", None):
        with pytest.raises(ValidationError, match="block length must be an integer"):
            empirical_block_entropy(u, bad)
        with pytest.raises(ValidationError, match="block length must be an integer"):
            entropy_vs_lz_margin(u, bad)
    with pytest.raises(ValidationError, match="prefix length 1.5 is not an integer"):
        u.prefix(1.5)
    assert empirical_block_entropy(u, np.int64(2)) == empirical_block_entropy(u, 2)
    assert u.prefix(np.int64(2)).data == (0, 1)


def _frozen_list_decode_step(assign, w, received_prefix, i, r, delta):
    # the parent's ranking: one trie walk of the pair stream per candidate tuple,
    # after the same validation (which the calls below all pass)
    n, alpha, omega = assign.n, assign.alphabet_size, w.alphabet.size
    plen = min(i * r, assign.bits_total)
    threshold = i * r - n * delta
    if threshold < 0:
        return False, None
    shift = assign.bits_total - plen
    best_rho, best_u = None, None
    for cand in itertools.product(range(alpha), repeat=n):
        if assign.bin_bits(cand) >> shift != received_prefix:
            continue
        u = SymbolSequence(Alphabet(alpha), cand)
        rho = _frozen_conditional_lz_complexity(u, w)
        if best_rho is None or rho < best_rho:
            best_rho, best_u = rho, cand
    if best_rho is None:
        return False, None
    if n * best_rho <= threshold:
        return True, SymbolSequence(Alphabet(alpha), best_u)
    return False, None


@pytest.mark.parametrize(
    "n, alpha, omega, r, delta",
    # omega = 200 and 300 put alpha * omega past 256: two-byte pair symbols
    [(12, 2, 2, 3, 0.5), (10, 2, 200, 2, 0.25), (6, 3, 300, 2, 0.0), (8, 2, 1, 1, 0.5), (5, 4, 3, 4, 1.0)],
)
def test_list_decode_step_matches_frozen_copy(n, alpha, omega, r, delta):
    rng = np.random.default_rng(n * 100 + omega)
    assign = fb.BinAssignment(n=n, alphabet_size=alpha, seed=int(rng.integers(2 ** 31)))
    w = SymbolSequence(Alphabet(omega), tuple(int(v) for v in rng.integers(0, omega, n)))
    b_true = assign.bin_bits(tuple(int(v) for v in rng.integers(0, alpha, n)))
    acks = 0
    for i in range(1, assign.bits_total // r + 3):
        plen = min(i * r, assign.bits_total)
        for prefix in (b_true >> (assign.bits_total - plen), int(rng.integers(1 << plen))):
            got = fb.list_decode_step(assign, w, prefix, i, r, delta)
            assert got == _frozen_list_decode_step(assign, w, prefix, i, r, delta)
            acks += got[0]
    assert acks > 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_candidate_rates_equal_conditional_rates(data):
    # the walk shares LZ78 state along candidate prefixes; each rate must
    # equal the per-row parse bit for bit, in itertools.product order
    alpha = data.draw(st.integers(2, 4), label="alpha")
    omega = data.draw(st.integers(1, 4), label="omega")
    n = data.draw(st.integers(1, {2: 10, 3: 7, 4: 6}[alpha]), label="n")
    w = SymbolSequence(Alphabet(omega), data.draw(st.lists(st.integers(0, omega - 1), min_size=n, max_size=n), label="w"))
    rows = itertools.product(range(alpha), repeat=n)
    want = [conditional_lz_complexity(SymbolSequence(Alphabet(alpha), row), w) for row in rows]
    got = _candidate_rates(n, alpha, w.packed(), omega)
    assert [x.hex() for x in got] == [x.hex() for x in want]
