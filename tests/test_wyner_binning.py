import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secwire.channels import ChannelTriple, bsc, channel_from_rows, identity_channel
from secwire.errors import BudgetError, ValidationError
from secwire.fsm_codec import StochasticEncoderSpec, block_to_index, induced_security_channel
from secwire.info_measures import entropy, mutual_information
from secwire.sequences import Alphabet, SymbolSequence, sequence_from_array
from secwire.wyner_binning import (
    build_code,
    code_leakage,
    ml_decode,
    monte_carlo_error,
    randomness_audit,
    separation_plan,
    wyner_encode,
)
from secwire.bounds import BoundParams
from secwire.parsing import incremental_parse, lz_complexity


def _brute_force_leakage(code, ch):
    # direct sum over all (secret, inner, z^N) triples
    z_size = ch.out_alphabet.size
    n = code.block_len
    p_sz = np.zeros((code.bins, z_size ** n))
    for s in range(code.bins):
        for j in range(code.words_per_bin):
            cw = code.codebook[s, j]
            for z in itertools.product(range(z_size), repeat=n):
                p = 1.0
                for xi, zi in zip(cw, z):
                    p *= ch.rows[xi, zi]
                idx = 0
                for zi in z:
                    idx = idx * z_size + zi
                p_sz[s, idx] += p / code.words_per_bin
    p_sz /= code.bins
    pz = p_sz.sum(axis=0)
    ps = p_sz.sum(axis=1)
    total = 0.0
    for s in range(code.bins):
        for zi in range(p_sz.shape[1]):
            if p_sz[s, zi] > 0:
                total += p_sz[s, zi] * math.log2(p_sz[s, zi] / (ps[s] * pz[zi]))
    return total


def test_build_code_shapes_and_determinism():
    code = build_code(6, 2, 1, [0.5, 0.5], seed=9)
    assert code.codebook.shape == (4, 2, 6)
    assert code.bins == 4 and code.words_per_bin == 2
    again = build_code(6, 2, 1, [0.5, 0.5], seed=9)
    assert np.array_equal(code.codebook, again.codebook)
    other = build_code(6, 2, 1, [0.5, 0.5], seed=10)
    assert not np.array_equal(code.codebook, other.codebook)


def test_build_code_respects_input_dist():
    code = build_code(2000, 1, 1, [0.8, 0.2], seed=3)
    freq = code.codebook.mean()
    assert abs(freq - 0.2) < 0.02


def test_build_code_validation():
    with pytest.raises(ValidationError, match="non-finite"):
        build_code(6, 1, 1, [float("nan"), 1.0], seed=1)
    with pytest.raises(ValidationError):
        build_code(4, 3, 2, [0.5, 0.5], seed=1)  # 5 bits into 4 binary symbols
    with pytest.raises(ValidationError):
        build_code(4, 0, 1, [0.5, 0.5], seed=1)
    with pytest.raises(ValidationError):
        build_code(4, 1, 1, [0.6, 0.6], seed=1)
    with pytest.raises(BudgetError):
        build_code(60, 20, 20, [0.5, 0.5], seed=1)


def test_wyner_encode_returns_codebook_row():
    code = build_code(5, 2, 2, [0.25, 0.75], seed=4)
    x = wyner_encode(code, 3, 1)
    assert x.data == tuple(int(v) for v in code.codebook[3, 1])
    with pytest.raises(ValidationError):
        wyner_encode(code, 4, 0)
    with pytest.raises(ValidationError):
        wyner_encode(code, 0, 4)


def test_ml_decode_recovers_on_clean_channel():
    rng = np.random.default_rng(11)
    code = build_code(12, 2, 2, [0.5, 0.5], seed=21)
    ch = identity_channel(2)
    for s in range(code.bins):
        for j in range(code.words_per_bin):
            y = wyner_encode(code, s, j)
            s_hat, j_hat = ml_decode(code, y, ch)
            # identical codewords elsewhere in the book can only steal the
            # decode by the lexicographic rule, so compare codewords
            assert np.array_equal(code.codebook[s_hat, j_hat], code.codebook[s, j])


def test_ml_decode_tie_breaks_lexicographically():
    # force a two-way tie by duplicating a codeword
    code = build_code(4, 1, 1, [0.5, 0.5], seed=2)
    book = np.array(code.codebook)
    book[1, 1] = book[0, 0]
    book.setflags(write=False)
    from dataclasses import replace

    rigged = replace(code, codebook=book)
    y = SymbolSequence(Alphabet(2), tuple(int(v) for v in book[0, 0]))
    assert ml_decode(rigged, y, bsc(0.1)) == (0, 0)


def test_ml_decode_validation():
    code = build_code(4, 1, 1, [0.5, 0.5], seed=2)
    with pytest.raises(ValidationError):
        ml_decode(code, SymbolSequence(Alphabet(2), (0, 1)), bsc(0.1))


def test_code_leakage_matches_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(5):
        code = build_code(4, 1, int(rng.integers(0, 3)), [0.5, 0.5], seed=int(rng.integers(1000)))
        ch = bsc(float(rng.random() * 0.4 + 0.05))
        assert math.isclose(code_leakage(code, ch), _brute_force_leakage(code, ch), abs_tol=1e-10)


@st.composite
def _leakage_cases(draw):
    x_size = draw(st.integers(2, 3))
    z_size = draw(st.integers(1, 3))
    # the brute force costs codewords * |Z|^N * N Python steps: 3 outputs stop at N = 6
    n = draw(st.integers(1, 8 if z_size < 3 else 6))
    capacity = math.floor(n * math.log2(x_size) + 1e-12)
    secret_bits = draw(st.integers(1, min(3, capacity)))
    random_bits = draw(st.integers(0, min(3, capacity - secret_bits)))
    # integer weights with zeros: a symbol the code never uses (at a small N every
    # codeword repeats) and channel rows that rule outputs out
    dist = draw(st.lists(st.integers(0, 4), min_size=x_size, max_size=x_size).filter(any))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=z_size, max_size=z_size).filter(any),
            min_size=x_size,
            max_size=x_size,
        )
    )
    seed = draw(st.integers(0, 2 ** 16))
    code = build_code(n, secret_bits, random_bits, np.array(dist) / sum(dist), seed=seed)
    return code, channel_from_rows(np.array(rows) / np.sum(rows, axis=1, keepdims=True))


@settings(max_examples=120, deadline=None)
@given(_leakage_cases())
@example((build_code(2, 1, 1, [0.5, 0.5], seed=3), channel_from_rows([[0.9, 0.1], [0.0, 1.0]])))
@example((build_code(5, 2, 3, [1.0, 0.0], seed=4), channel_from_rows([[0.9, 0.1], [0.0, 1.0]])))
@example((build_code(1, 1, 0, [0.5, 0.0, 0.5], seed=5), channel_from_rows([[1.0], [1.0], [1.0]])))
def test_code_leakage_contraction_matches_brute_force(case):
    code, ch = case
    assert math.isclose(code_leakage(code, ch), _brute_force_leakage(code, ch), rel_tol=0, abs_tol=1e-12)


def _one_state_encoder(code):
    # bin s (k = secret_bits binary symbols) emits each codeword as one x-block
    # of m = N symbols, with probability count / words_per_bin; repeated
    # codewords merge into one target, as the spec rejects duplicate targets
    emit = {}
    for s in range(code.bins):
        blocks = collections.Counter(block_to_index(cw, code.in_size) for cw in code.codebook[s].tolist())
        emit[(0, s)] = [(x, count / code.words_per_bin) for x, count in blocks.items()]
    return StochasticEncoderSpec(
        k=code.secret_bits, m=code.block_len, in_size=2, out_size=code.in_size, n_states=1,
        emit=emit, next_state=np.zeros((1, code.bins, 1), dtype=int),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_induced_channel_of_wyner_encoder_leaks_code_leakage(data):
    # the two exact enumerators agree: the chunk recursion behind
    # induced_security_channel and the prefix-tree contraction of code_leakage
    n = data.draw(st.integers(2, 8), label="N")
    x_size = data.draw(st.integers(2, 3), label="x_size")
    z_size = data.draw(st.integers(2, 3), label="z_size")
    capacity = math.floor(n * math.log2(x_size) + 1e-12)
    secret_bits = data.draw(st.integers(1, min(3, capacity)), label="secret_bits")
    random_bits = data.draw(st.integers(0, min(4, capacity - secret_bits)), label="random_bits")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    code = build_code(n, secret_bits, random_bits, rng.dirichlet(np.ones(x_size)), seed=int(rng.integers(2 ** 31)))
    eaves = channel_from_rows(rng.dirichlet(np.ones(z_size), x_size))
    # the cascade of the triple is eaves followed by the identity: eaves itself
    induced = induced_security_channel(_one_state_encoder(code), ChannelTriple(eaves, identity_channel(z_size)), secret_bits)
    leak = mutual_information(np.full(code.bins, 1.0 / code.bins), induced)
    assert math.isclose(leak, code_leakage(code, eaves), rel_tol=0, abs_tol=1e-12)


def test_code_leakage_extremes():
    code = build_code(6, 2, 1, [0.5, 0.5], seed=7)
    # totally noisy eavesdropper learns nothing
    assert code_leakage(code, bsc(0.5)) < 1e-12
    # leakage can never exceed the secret entropy
    assert code_leakage(code, identity_channel(2)) <= 2.0 + 1e-12
    with pytest.raises(BudgetError):
        code_leakage(build_code(40, 1, 0, [0.5, 0.5], seed=1), bsc(0.1))


def test_monte_carlo_error_deterministic_and_clean():
    code = build_code(10, 2, 2, [0.5, 0.5], seed=13)
    est = monte_carlo_error(code, identity_channel(2), trials=200, seed=5)
    # clean channel: secret decode can only fail on duplicated codewords
    assert est.secret_error_rate <= 0.05
    a = monte_carlo_error(code, bsc(0.05), trials=300, seed=6)
    b = monte_carlo_error(code, bsc(0.05), trials=300, seed=6)
    assert (a.secret_errors, a.word_errors) == (b.secret_errors, b.word_errors)
    assert a.word_errors >= a.secret_errors
    assert a.trials == 300


def test_randomness_audit_margin_formula():
    triple = ChannelTriple(bsc(0.02), bsc(0.25))
    code = build_code(8, 2, 2, [0.5, 0.5], seed=3)
    params = BoundParams(k=1, m=4, q_e=1, eps_s=0.0, alpha=2)
    audit = randomness_audit(code, triple, params, ell=2)
    assert math.isclose(audit.j_per_chunk, 1.0)
    assert math.isclose(audit.bound, 4 * audit.i_xz_star)
    assert math.isclose(audit.margin, audit.j_per_chunk - audit.bound)
    assert audit.passed == (audit.margin >= 0.0)
    with pytest.raises(ValidationError):
        randomness_audit(code, triple, BoundParams(k=1, m=4, alpha=2), ell=3)


def test_separation_plan_fixed():
    rng = np.random.default_rng(41)
    u = sequence_from_array(rng.integers(0, 2, 200), 2)
    triple = ChannelTriple(bsc(0.05), bsc(0.2))
    plan = separation_plan(u, triple, 0.1, "fixed")
    assert plan["mode"] == "fixed"
    assert plan["payload_bits"] == math.ceil(200 * lz_complexity(u))
    assert plan["channel_uses"] >= plan["payload_bits"] / plan["c_s"]
    assert plan["channel_uses_with_header"] > plan["channel_uses"]
    assert math.isclose(plan["lam"], plan["channel_uses"] / 200)


def test_separation_plan_vtf_prefix_rule():
    rng = np.random.default_rng(42)
    u = sequence_from_array(rng.integers(0, 2, 300), 2)
    triple = ChannelTriple(bsc(0.05), bsc(0.2))
    plan = separation_plan(u, triple, 0.1, "vtf", block_len=64)
    budget = plan["budget_bits"]
    assert math.isclose(budget, 64 * plan["c_s"] * 0.9)
    i = plan["consumed"]
    c_i = incremental_parse(u.prefix(i)).c
    assert plan["payload_bits"] == math.ceil(c_i * math.log2(c_i))
    assert plan["payload_bits"] <= budget
    if i < len(u):
        c_next = incremental_parse(u.prefix(i + 1)).c
        assert math.ceil(c_next * math.log2(c_next)) > budget
    assert math.isclose(plan["lam"], 64 / i)
    with pytest.raises(ValidationError):
        separation_plan(u, triple, 0.1, "vtf")
    with pytest.raises(ValidationError):
        separation_plan(u, triple, 0.1, "nope")
