import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire.errors import ValidationError
from secwire.parsing import (
    _parse_stream,
    conditional_lz_complexity,
    empirical_block_entropy,
    entropy_vs_lz_margin,
    incremental_parse,
    joint_parse,
    lz_complexity,
    prefix_phrase_counts,
)
from secwire.sequences import Alphabet, SymbolSequence, sequence_from_array


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
    # the int-keyed trie walk gives the spans of the (u, w)-pair-keyed one
    spans, tail = _parse_stream(zip(u.data, w.data))
    assert jp.phrases == tuple(spans)
    assert jp.dropped_incomplete == (tail is not None)
