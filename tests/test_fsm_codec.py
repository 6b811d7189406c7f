import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire.channels import ChannelTriple, bsc, channel_from_rows, identity_channel, sample
from secwire.errors import BudgetError, ValidationError
from secwire.fsm_codec import (
    DecoderSpec,
    SideInfoDecoderSpec,
    SideInfoEncoderSpec,
    StochasticEncoderSpec,
    block_to_index,
    conditional_leakage,
    decode_stream,
    dump_fsm,
    encode_stream,
    index_to_block,
    induced_security_channel,
    load_fsm,
    max_conditional_leakage,
    max_mi_security,
    simulate_system,
    sweep_initial_states,
)
from secwire.info_measures import channel_capacity
from secwire.rand import substream
from secwire.sequences import Alphabet, SymbolSequence, sequence_from_array


def _identity_encoder():
    return StochasticEncoderSpec(
        k=1,
        m=1,
        in_size=2,
        out_size=2,
        n_states=1,
        emit={(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)]},
        next_state=np.zeros((1, 2, 1), dtype=int),
    )


def _identity_decoder():
    table = np.arange(2).reshape(1, 2, 1)
    return DecoderSpec(
        k=1,
        m=1,
        in_size=2,
        out_size=2,
        n_states=1,
        out_table=table,
        next_state=np.zeros((1, 2, 1), dtype=int),
    )


def _xor_state_encoder():
    # state flips every chunk; emission is u XOR state
    emit = {}
    for s in range(2):
        for u in range(2):
            emit[(s, u)] = [(u ^ s, 1.0)]
    nxt = np.zeros((2, 2, 1), dtype=int)
    nxt[0, :, 0] = 1
    nxt[1, :, 0] = 0
    return StochasticEncoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=2, emit=emit, next_state=nxt
    )


def _random_encoder(rng, n_states=2, side_size=1, ignore_side=True):
    emit = {}
    for s in range(n_states):
        for u in range(2):
            base = rng.random(2) + 0.05
            base /= base.sum()
            for w in range(side_size):
                p = base if ignore_side else np.roll(base, w)
                emit[(s, u, w)] = [(0, float(p[0])), (1, float(p[1]))]
    nxt = rng.integers(0, n_states, (n_states, 2, side_size))
    if ignore_side:
        nxt = np.repeat(nxt[:, :, :1], side_size, axis=2)
    return StochasticEncoderSpec(
        k=1,
        m=1,
        in_size=2,
        out_size=2,
        n_states=n_states,
        emit=emit,
        next_state=nxt,
        side_size=side_size,
    )


def _brute_force_induced(enc, triple, n):
    # per-u walk accumulating the z-block law with plain dict arithmetic
    casc = triple.cascade.rows
    z_size = casc.shape[1]
    rows = []
    for u in itertools.product(range(enc.in_size), repeat=n):
        law = {(): 1.0}
        s = enc.initial_state
        for sym in u:
            new = {}
            for zseq, p in law.items():
                for x, px in enc.emit[(s, sym, 0)]:
                    for z in range(z_size):
                        q = p * px * casc[x, z]
                        if q:
                            new[zseq + (z,)] = new.get(zseq + (z,), 0.0) + q
            law = new
            s = int(enc.next_state[s, sym, 0])
        row = np.zeros(z_size ** n)
        for zseq, p in law.items():
            row[block_to_index(zseq, z_size)] = p
        rows.append(row)
    return np.array(rows)


def test_block_index_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        base = int(rng.integers(2, 5))
        length = int(rng.integers(1, 6))
        block = tuple(int(v) for v in rng.integers(0, base, length))
        assert index_to_block(block_to_index(block, base), base, length) == block
    with pytest.raises(ValidationError):
        block_to_index((0, 2), 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spec_rejects_non_finite_emission(bad):
    # a NaN once passed both the sign test and the sum, dropped as if it were 0
    with pytest.raises(ValidationError, match=rf"^non-finite emission probability {bad} for key \(0, 0, 0\)$"):
        StochasticEncoderSpec(
            k=1, m=1, in_size=2, out_size=2, n_states=1,
            emit={(0, 0): [(0, 1.0), (1, bad)], (0, 1): [(1, 1.0)]},
            next_state=np.zeros((1, 2, 1), dtype=int),
        )


def test_spec_validation():
    with pytest.raises(ValidationError):
        StochasticEncoderSpec(
            k=1, m=1, in_size=2, out_size=2, n_states=1,
            emit={(0, 0): [(0, 1.0)]},  # (0, 1) missing
            next_state=np.zeros((1, 2, 1), dtype=int),
        )
    with pytest.raises(ValidationError):
        StochasticEncoderSpec(
            k=1, m=1, in_size=2, out_size=2, n_states=1,
            emit={(0, 0): [(0, 0.6)], (0, 1): [(1, 1.0)]},
            next_state=np.zeros((1, 2, 1), dtype=int),
        )
    with pytest.raises(ValidationError):
        SideInfoEncoderSpec(
            k=1, m=1, in_size=2, out_size=2, n_states=1,
            emit={(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)]},
            next_state=np.zeros((1, 2, 1), dtype=int),
            side_size=1,
        )
    with pytest.raises(ValidationError):
        DecoderSpec(
            k=1, m=1, in_size=2, out_size=2, n_states=1,
            out_table=np.array([[[0], [2]]]),  # entry out of range
            next_state=np.zeros((1, 2, 1), dtype=int),
        )


def test_encode_stream_deterministic_given_seed():
    rng = np.random.default_rng(77)
    enc = _random_encoder(rng)
    u = sequence_from_array(rng.integers(0, 2, 40), 2)
    x1, s1 = encode_stream(enc, u, 123)
    x2, s2 = encode_stream(enc, u, 123)
    assert x1.data == x2.data and s1 == s2
    assert len(s1) == len(u) + 1
    assert s1[0] == enc.initial_state


def test_state_trajectory_is_input_driven():
    enc = _xor_state_encoder()
    u = sequence_from_array([0, 1, 1, 0, 1], 2)
    _, states = encode_stream(enc, u, 5)
    assert states == (0, 1, 0, 1, 0, 1)


def test_decode_stream_table_walk():
    dec = _identity_decoder()
    y = sequence_from_array([1, 0, 1], 2)
    v, states = decode_stream(dec, y)
    assert v.data == (1, 0, 1)
    assert states == (0, 0, 0, 0)


def test_stream_length_validation():
    enc = StochasticEncoderSpec(
        k=2, m=1, in_size=2, out_size=2, n_states=1,
        emit={(0, i): [(i % 2, 1.0)] for i in range(4)},
        next_state=np.zeros((1, 4, 1), dtype=int),
    )
    with pytest.raises(ValidationError):
        encode_stream(enc, sequence_from_array([0, 1, 0], 2), 1)
    with pytest.raises(ValidationError):
        decode_stream(_identity_decoder(), SymbolSequence(Alphabet(3), (0, 1)))


def test_simulate_identity_system_is_error_free():
    triple = ChannelTriple(identity_channel(2), identity_channel(2))
    u = sequence_from_array([0, 1, 1, 0, 1, 0], 2)
    stats = simulate_system(_identity_encoder(), _identity_decoder(), triple, u, trials=50, seed=4)
    assert stats.bit_error_rate == 0.0
    assert stats.worst_chunk_error == 0.0
    assert stats.chunk_count == 6


def test_simulate_joint_frequencies_sum_to_one():
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    u = sequence_from_array([0, 1, 0, 1], 2)
    stats = simulate_system(
        _xor_state_encoder(), _identity_decoder(), triple, u, trials=200, seed=9, collect_joint=True
    )
    total = sum(stats.empirical_joint.values())
    assert math.isclose(total, 1.0)
    for key in stats.empirical_joint:
        assert len(key) == 7


def test_simulate_deterministic_and_seed_sensitive():
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    u = sequence_from_array([0, 1, 0, 1, 1, 0], 2)
    enc = _xor_state_encoder()
    dec = _identity_decoder()
    a = simulate_system(enc, dec, triple, u, trials=100, seed=1)
    b = simulate_system(enc, dec, triple, u, trials=100, seed=1)
    c = simulate_system(enc, dec, triple, u, trials=100, seed=2)
    assert a.per_chunk_error == b.per_chunk_error
    assert a.per_chunk_error != c.per_chunk_error


def _reference_joint(enc, dec, triple, u, trials, seed, w):
    # per-chunk block_to_index slices, with w indexed in its own alphabet
    joint = {}
    for t in range(trials):
        rng = substream(seed, t)
        x, enc_states = encode_stream(enc, u, rng, w)
        y = sample(triple.main, x, rng)
        z = sample(triple.wiretap, y, rng)
        _, dec_states = decode_stream(dec, y, w)
        for i in range(len(u) // enc.k):
            a, b = i * enc.k, (i + 1) * enc.k
            c, d = i * enc.m, (i + 1) * enc.m
            key = (
                block_to_index(u.data[a:b], enc.in_size),
                0 if w is None else block_to_index(w.data[a:b], w.alphabet.size),
                block_to_index(x.data[c:d], enc.out_size),
                block_to_index(y.data[c:d], dec.in_size),
                block_to_index(z.data[c:d], triple.wiretap.out_alphabet.size),
                enc_states[i],
                dec_states[i],
            )
            joint[key] = joint.get(key, 0) + 1
    total = trials * (len(u) // enc.k)
    return {k: v / total for k, v in sorted(joint.items())}


def test_simulate_joint_records_side_blocks():
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    u = sequence_from_array([0, 1, 1, 0], 2)
    w = sequence_from_array([1, 0, 1, 0], 2)
    side_dec = SideInfoDecoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=1,
        out_table=np.array([[[0, 0], [1, 1]]]), next_state=np.zeros((1, 2, 2), dtype=int), side_size=2,
    )
    rng = np.random.default_rng(70)
    side_enc = _random_encoder(rng, n_states=2, side_size=2, ignore_side=False)
    # a plain encoder with a side decoder, and a side encoder with a plain decoder
    for enc, dec in ((_identity_encoder(), side_dec), (side_enc, _identity_decoder())):
        stats = simulate_system(enc, dec, triple, u, trials=40, seed=5, w=w, collect_joint=True)
        assert stats.empirical_joint == _reference_joint(enc, dec, triple, u, 40, 5, w)
        assert {key[1] for key in stats.empirical_joint} == {0, 1}
        plain = simulate_system(enc, dec, triple, u, trials=40, seed=5, w=w)
        assert plain.per_chunk_error == stats.per_chunk_error
    with pytest.raises(ValidationError, match="side sequence length 3"):
        simulate_system(
            _identity_encoder(), _identity_decoder(), triple, u, trials=1, seed=5, w=w.prefix(3), collect_joint=True
        )


def test_sweep_initial_states_covers_all_pairs():
    triple = ChannelTriple(bsc(0.05), bsc(0.05))
    u = sequence_from_array([0, 1, 1, 0], 2)
    out = sweep_initial_states(_xor_state_encoder(), _identity_decoder(), triple, u, trials=20, seed=3)
    assert set(out) == {(0, 0), (1, 0)}
    for stats in out.values():
        assert stats.trials == 20


def test_induced_channel_memoryless_is_kron_power():
    rng = np.random.default_rng(21)
    enc = _random_encoder(rng, n_states=1)
    triple = ChannelTriple(bsc(0.1), bsc(0.15))
    got = induced_security_channel(enc, triple, 3)
    g = np.zeros((2, 2))
    for u in range(2):
        for x, p in enc.emit[(0, u, 0)]:
            g[u] += p * triple.cascade.rows[x]
    expected = np.kron(np.kron(g, g), g)
    assert np.allclose(got.rows, expected, atol=1e-15)


def test_induced_channel_matches_brute_force_walk():
    rng = np.random.default_rng(34)
    for trial in range(5):
        enc = _random_encoder(rng, n_states=int(rng.integers(1, 4)))
        triple = ChannelTriple(bsc(float(rng.random() * 0.3)), bsc(float(rng.random() * 0.3)))
        got = induced_security_channel(enc, triple, 4)
        expected = _brute_force_induced(enc, triple, 4)
        assert np.allclose(got.rows, expected, atol=1e-12)


def test_induced_channel_rows_are_read_only():
    # the enumeration is kept as the channel's rows, not copied
    triple = ChannelTriple(bsc(0.1), bsc(0.15))
    ch = induced_security_channel(_random_encoder(np.random.default_rng(22), n_states=2), triple, 4)
    assert not ch.rows.flags.writeable
    with pytest.raises(ValueError):
        ch.rows[0, 0] = 0.0
    again = ch.renormalized()
    assert np.allclose(again.rows, ch.rows, rtol=0.0, atol=1e-15)
    assert not again.rows.flags.writeable


def test_induced_channel_budget_guard():
    enc = _identity_encoder()
    triple = ChannelTriple(bsc(0.1), bsc(0.1))
    with pytest.raises(BudgetError):
        induced_security_channel(enc, triple, 14)


def test_max_mi_security_passthrough_is_product_capacity():
    triple = ChannelTriple(bsc(0.1), bsc(0.15))
    res = max_mi_security(_identity_encoder(), triple, 3, tol=1e-11)
    single = channel_capacity(triple.cascade, tol=1e-12).value
    assert math.isclose(res.value, 3 * single, abs_tol=1e-7)


def test_conditional_leakage_identity_leak_equals_w():
    rng = np.random.default_rng(50)
    enc = _random_encoder(rng, n_states=2, side_size=2, ignore_side=True)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    mu = rng.random((4, 4)) + 0.01
    mu /= mu.sum()
    rep = conditional_leakage(enc, triple, None, 2, mu)
    assert math.isclose(rep.i_uz_given_wdot, rep.i_uz_given_w, abs_tol=1e-12)
    assert rep.log2_qe == 1.0
    assert rep.sandwich_slack >= -1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
def test_conditional_leakage_mu_gate_rejects_bad_entries(bad):
    enc = _random_encoder(np.random.default_rng(52), n_states=2, side_size=2)
    mu = np.full((4, 4), 1.0 / 16)
    mu[1, 2] = bad
    with pytest.raises(ValidationError, match="^mu must be a joint probability distribution$"):
        conditional_leakage(enc, ChannelTriple(bsc(0.1), bsc(0.2)), None, 2, mu)


def test_conditional_leakage_checks_budget_before_reading_mu():
    # a broadcast mu of 2^28 entries costs nothing to build; over budget, its
    # entries are never read, so the budget error comes first
    enc = _random_encoder(np.random.default_rng(53), n_states=2, side_size=2)
    mu = np.broadcast_to(-1.0, (2 ** 14, 2 ** 14))
    with pytest.raises(BudgetError, match="^joint enumeration needs"):
        conditional_leakage(enc, ChannelTriple(bsc(0.1), bsc(0.2)), None, 14, mu)


def test_conditional_leakage_constant_leak_drops_conditioning():
    rng = np.random.default_rng(51)
    enc = _random_encoder(rng, n_states=1, side_size=2, ignore_side=True)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    mu = rng.random((4, 4)) + 0.01
    mu /= mu.sum()
    leak = channel_from_rows([[1.0], [1.0]])
    rep = conditional_leakage(enc, triple, leak, 2, mu)
    assert math.isclose(rep.i_uz_given_wdot, rep.i_uz, abs_tol=1e-12)


def test_sandwich_fails_for_side_dependent_emission():
    # x = u XOR w with noiseless channels: I(U;Z|W) = 1, I(U;Z|Wdot) = 0
    emit = {}
    for u in range(2):
        for w in range(2):
            emit[(0, u, w)] = [(u ^ w, 1.0)]
    enc = StochasticEncoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=1,
        emit=emit, next_state=np.zeros((1, 2, 2), dtype=int), side_size=2,
    )
    triple = ChannelTriple(identity_channel(2), identity_channel(2))
    mu = np.full((2, 2), 0.25)
    leak = channel_from_rows([[1.0], [1.0]])
    rep = conditional_leakage(enc, triple, leak, 1, mu)
    assert math.isclose(rep.i_uz_given_w, 1.0, abs_tol=1e-12)
    assert math.isclose(rep.i_uz_given_wdot, 0.0, abs_tol=1e-12)
    assert math.isclose(rep.sandwich_slack, -1.0, abs_tol=1e-12)


def test_max_conditional_leakage_dominates_uniform():
    rng = np.random.default_rng(52)
    enc = _random_encoder(rng, n_states=1, side_size=2, ignore_side=True)
    triple = ChannelTriple(bsc(0.05), bsc(0.25))
    best, mu = max_conditional_leakage(enc, triple, None, 1, grid_step=0.25)
    uniform = conditional_leakage(enc, triple, None, 1, np.full((2, 2), 0.25))
    assert best.i_uz_given_wdot >= uniform.i_uz_given_wdot - 1e-12
    assert mu.shape == (2, 2)
    with pytest.raises(BudgetError):
        max_conditional_leakage(enc, triple, None, 3, grid_step=0.02)


def test_fsm_file_round_trip(tmp_path):
    rng = np.random.default_rng(60)
    enc = _random_encoder(rng, n_states=3, side_size=2, ignore_side=False)
    path = tmp_path / "enc.fsm"
    dump_fsm(enc, path)
    back = load_fsm(path)
    assert isinstance(back, SideInfoEncoderSpec)
    assert back.emit == enc.emit
    assert np.array_equal(back.next_state, enc.next_state)
    dec = _identity_decoder()
    dpath = tmp_path / "dec.fsm"
    dump_fsm(dec, dpath)
    dback = load_fsm(dpath)
    assert isinstance(dback, DecoderSpec)
    assert np.array_equal(dback.out_table, dec.out_table)


def test_fsm_wildcards_first_match_wins(tmp_path):
    path = tmp_path / "dec.fsm"
    path.write_text(
        "decoder\nk 1\nm 1\ngamma 2\nalpha 2\nstates 2\ninit 0\n"
        "out 0 1 1\nout * * 0\n"
        "next 0 * 1\nnext 1 * 0\n"
    )
    dec = load_fsm(path)
    assert dec.out_table[0, 1, 0] == 1
    assert dec.out_table[0, 0, 0] == 0
    assert dec.out_table[1, 1, 0] == 0
    assert dec.next_state[0, 0, 0] == 1


def _first_match_scan(encoder, n_states, in_len, a_in, k, side, rules):
    """The rule tables of an FSM file, cell by cell: each cell takes the first matching line.

    rules holds (name, state, block, side block, payload) with "*" wildcards,
    and an empty side block without side information. Returns the tables, or
    the message for the first uncovered cell, the out rule before the next rule.
    """
    names = ("next",) if encoder else ("out", "next")
    tables = {name: np.zeros((n_states, a_in ** in_len, side ** k), dtype=np.int64) for name in names}
    for s, bi, wi in itertools.product(*map(range, tables["next"].shape)):
        blk, w_blk = index_to_block(bi, a_in, in_len), index_to_block(wi, side, k)
        for name in names:
            hits = [
                payload for r_name, r_state, r_blk, r_wblk, payload in rules
                if r_name == name and r_state in ("*", s)
                and all(p in ("*", b) for p, b in zip(r_blk + r_wblk, blk + w_blk))
            ]
            if not hits:
                what = "output" if name == "out" else "next state"
                return f"{what} undefined for (state={s}, {'u' if encoder else 'y'}={blk}, w={w_blk})"
            tables[name][s, bi, wi] = hits[0]
    return tables


@st.composite
def _rule_files(draw):
    # an FSM file whose emit lines are complete, and rule lines drawn with
    # wildcards, shadowed lines, uncovered cells and side blocks
    encoder = draw(st.booleans())
    k, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    a_in, a_out, n_states, side = (draw(st.integers(1, 3)) for _ in range(4))
    in_len = k if encoder else m
    names = ("alpha", "beta") if encoder else ("gamma", "alpha")
    lines = [
        "encoder" if encoder else "decoder", f"k {k}", f"m {m}", f"{names[0]} {a_in}", f"{names[1]} {a_out}",
        f"states {n_states}", f"init {draw(st.integers(0, n_states - 1))}",
    ] + ([f"side {side}"] if side > 1 else [])

    def tok(blk):
        # a block of wildcards only is written as one "*" or position by position
        return "*" if set(blk) == {"*"} and draw(st.booleans()) else ",".join(map(str, blk))

    if encoder:
        for s, ui, wi in itertools.product(range(n_states), range(a_in ** k), range(side ** k)):
            w_tok = [tok(index_to_block(wi, side, k))] if side > 1 else []
            lines.append(" ".join(["emit", str(s), tok(index_to_block(ui, a_in, k)), *w_tok, tok((0,) * m)]))

    def block(length, base):
        wild = st.just(("*",) * length)
        mixed = st.tuples(*[st.one_of(st.just("*"), st.integers(0, base - 1))] * length)
        return draw(st.one_of(wild, mixed))

    rules = []
    for _ in range(draw(st.integers(0, 6))):
        name = "next" if encoder else draw(st.sampled_from(["out", "next"]))
        state = draw(st.one_of(st.just("*"), st.integers(0, n_states - 1)))
        blk = block(in_len, a_in)
        w_blk = block(k, side) if side > 1 else ()
        payload = draw(st.integers(0, (a_out ** k if name == "out" else n_states) - 1))
        rules.append((name, state, blk, w_blk, payload))
        w_tok = [tok(w_blk)] if side > 1 else []
        payload_tok = tok(index_to_block(payload, a_out, k)) if name == "out" else str(payload)
        lines.append(" ".join([name, str(state), tok(blk), *w_tok, payload_tok]))
    return "\n".join(lines) + "\n", _first_match_scan(encoder, n_states, in_len, a_in, k, side, rules)


@settings(max_examples=200, deadline=None)
@given(case=_rule_files())
def test_load_fsm_tables_are_the_first_match_scan(tmp_path_factory, case):
    text, expected = case
    path = tmp_path_factory.getbasetemp() / "rules.fsm"
    path.write_text(text)
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as err:
            load_fsm(path)
        assert str(err.value) == f"{path}: {expected}"
    else:
        spec = load_fsm(path)
        assert np.array_equal(spec.next_state, expected["next"])
        if "out" in expected:
            assert np.array_equal(spec.out_table, expected["out"])


def test_fsm_load_errors(tmp_path):
    cases = {
        "header": "bogus\nk 1\n",
        "missing": "encoder\nk 1\nm 1\nalpha 2\nbeta 2\nstates 1\n",
        "coverage": (
            "encoder\nk 1\nm 1\nalpha 2\nbeta 2\nstates 1\ninit 0\n"
            "emit 0 0 0 1.0\nemit 0 1 1 1.0\nnext 0 0 0\n"
        ),
        "prob": (
            "encoder\nk 1\nm 1\nalpha 2\nbeta 2\nstates 1\ninit 0\n"
            "emit 0 0 0 0.7\nemit 0 1 1 1.0\nnext 0 * 0\n"
        ),
        "directive": "encoder\nk 1\nzap 2\n",
        "symbol": (
            "encoder\nk 1\nm 1\nalpha 2\nbeta 2\nstates 1\ninit 0\n"
            "emit 0 2 0 1.0\nnext 0 * 0\n"
        ),
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.fsm"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_fsm(path)
        assert str(path) in str(err.value)
    other_kind = {
        "emit_in_decoder": (
            "decoder\nk 1\nm 1\ngamma 2\nalpha 2\nstates 1\ninit 0\n"
            "emit 0 0 0 0.5\nout * * 0\nnext * * 0\n",
            "unexpected 'emit' line in a decoder file",
        ),
        "beta_in_decoder": (
            "decoder\nk 1\nm 1\ngamma 2\nalpha 2\nbeta 7\nstates 1\ninit 0\nout * * 0\nnext * * 0\n",
            "unexpected 'beta' line in a decoder file",
        ),
        "gamma_in_encoder": (
            "encoder\nk 1\nm 1\nalpha 2\nbeta 2\ngamma 2\nstates 1\ninit 0\n"
            "emit 0 0 0\nemit 0 1 1\nnext 0 * 0\n",
            "unexpected 'gamma' line in an encoder file",
        ),
    }
    for name, (text, message) in other_kind.items():
        path = tmp_path / f"{name}.fsm"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_fsm(path)
        assert str(err.value) == f"{path}: {message}"


def test_fsm_comments_and_implicit_prob(tmp_path):
    path = tmp_path / "enc.fsm"
    path.write_text(
        "# passthrough\nencoder\nk 1\nm 1\nalpha 2\nbeta 2\n"
        "states 1\ninit 0\nemit 0 0 0  # prob omitted\nemit 0 1 1\nnext 0 * 0\n"
    )
    enc = load_fsm(path)
    assert enc.emit[(0, 0, 0)] == ((0, 1.0),)


_ENC = "encoder\nk 1\nm 1\nalpha 2\nbeta 2\nstates 2\ninit 0\n"
_ENC_EMITS = "emit 0 0 0\nemit 0 1 1\nemit 1 0 1\nemit 1 1 0\n"
_DEC = "decoder\nk 1\nm 2\ngamma 2\nalpha 2\nstates 1\ninit 0\n"
_SIDE_DEC = "decoder\nk 1\nm 1\ngamma 2\nalpha 2\nstates 1\ninit 0\nside 2\n"

# load_fsm messages, less the "<path>: " prefix, for both kinds of file:
# one per check the loader and the spec classes make, in their order
GOLDEN_LOAD_ERRORS = {
    "empty": ("# nothing here\n", "empty FSM file"),
    "header": ("bogus\nk 1\n", "first line must be 'encoder' or 'decoder', got 'bogus'"),
    "scalar_arity": (_ENC + "side 2 3\n", "malformed scalar line 'side 2 3'"),
    "scalar_value": ("encoder\nk one\n", "non-integer value in 'k one'"),
    "directive": ("encoder\nk 1\nzap 2\n", "unknown directive 'zap'"),
    "missing_enc": ("encoder\nk 1\nm 1\nalpha 2\nstates 1\n", "missing scalar lines ['beta', 'init']"),
    "missing_dec": ("decoder\nk 1\nm 1\nstates 1\ninit 0\n", "missing scalar lines ['gamma', 'alpha']"),
    "emit_arity": (_ENC + "emit 0 0\n", "malformed emit line '0 0'"),
    "emit_wild_state": (_ENC + "emit * 0 0\n", "wildcard not allowed in emit lines"),
    "emit_wild_block": (_ENC + "emit 0 * 0\n", "wildcard not allowed in emit lines"),
    "emit_symbol": (_ENC + "emit 0 2 0\n", "symbol 2 outside alphabet of size 2"),
    "emit_bad_symbol": (_ENC + "emit 0 x 0\n", "bad symbol 'x' in block 'x'"),
    "emit_prob": (_ENC + "emit 0 0 0 abc\n", "could not convert string to float: 'abc'"),
    "emit_state": (_ENC + "emit 5 0 0\n", "state 5 outside [0, 2)"),
    "block_length": (_ENC.replace("k 1", "k 2") + "emit 0 0 0 1.0\n", "block '0' has 1 symbols, expected 2"),
    "state_token": (_ENC + _ENC_EMITS + "next x * 0\n", "invalid literal for int() with base 10: 'x'"),
    "next_arity": (_ENC + _ENC_EMITS + "next 0 0\n", "malformed next line '0 0'"),
    "next_range": (_ENC + _ENC_EMITS + "next 0 * 7\n", "next state 7 outside [0, 2)"),
    "next_value": (_ENC + _ENC_EMITS + "next 0 * one\n", "invalid literal for int() with base 10: 'one'"),
    "out_in_encoder": (
        _ENC + _ENC_EMITS + "next * * 0\nout 0 0 0\n",
        "unexpected 'out' line in an encoder file",
    ),
    "next_coverage": (
        _ENC + _ENC_EMITS + "next 0 0 1\nnext 1 * 0\n",
        "next state undefined for (state=0, u=(1,), w=(0,))",
    ),
    "emit_coverage": (_ENC + "emit 0 0 0\nnext * * 0\n", "emission undefined for (state=0, u=1, w=0)"),
    "emit_sum": (
        _ENC + "emit 0 0 0 0.7\nemit 0 1 1\nemit 1 0 1\nemit 1 1 0\nnext * * 0\n",
        "emission for key (0, 0, 0) sums to 0.7",
    ),
    "emit_duplicate": (
        _ENC + _ENC_EMITS + "emit 0 0 0\nnext * * 0\n",
        "duplicate emission target 0 for key (0, 0, 0)",
    ),
    "emit_negative": (
        _ENC + "emit 0 0 0 -0.5\nemit 0 0 1 1.5\nemit 0 1 1\nemit 1 0 1\nemit 1 1 0\nnext * * 0\n",
        "negative emission probability -0.5 for key (0, 0, 0)",
    ),
    "init_range": (_ENC.replace("init 0", "init 5") + _ENC_EMITS + "next * * 0\n", "initial state 5 out of range"),
    # the scalars are checked before any rule line is parsed; this file used
    # to fail on its next line with "next state 0 outside [0, 0)"
    "no_states": (_ENC.replace("states 2", "states 0") + "next * * 0\n", "n_states must be a positive integer, got 0"),
    # used to reach numpy's "negative dimensions are not allowed"
    "side_negative": (_SIDE_DEC.replace("side 2", "side -1") + "out * * 0\n", "side_size must be a positive integer, got -1"),
    "side_enc_arity": (_ENC + "side 2\nnext 0 0 0\n", "malformed next line '0 0 0'"),
    "side_enc_symbol": (_ENC + "side 2\nemit 0 0 2 0\n", "symbol 2 outside alphabet of size 2"),
    "dec_out_first": (_DEC + "next * * 0\n", "output undefined for (state=0, y=(0, 0), w=(0,))"),
    "dec_next": (_DEC + "out * * 0\n", "next state undefined for (state=0, y=(0, 0), w=(0,))"),
    # a decoder file has no emit lines, which the message used to name
    "dec_out_wild": (_DEC + "out 0 *,* *\n", "wildcard not allowed in the output block of an out line"),
    "dec_out_arity": (_DEC + "out 0 0,0\n", "malformed out line '0 0,0'"),
    "dec_block": (_DEC + "out 0 0 0\n", "block '0' has 1 symbols, expected 2"),
    "dec_partial": (_DEC + "out * 0,* 1\nnext * * 0\n", "output undefined for (state=0, y=(1, 0), w=(0,))"),
    "dec_out_symbol": (_DEC + "out * * 2\n", "symbol 2 outside alphabet of size 2"),
    "side_dec_coverage": (
        _SIDE_DEC + "out * * * 0\nnext * * 0 0\n",
        "next state undefined for (state=0, y=(0,), w=(1,))",
    ),
    "side_dec_arity": (_SIDE_DEC + "out * * 0\n", "malformed out line '* * 0'"),
    "side_dec_symbol": (_SIDE_DEC + "out * * 3 0\n", "symbol 3 outside alphabet of size 2"),
    "dec_scalar": (_DEC.replace("m 2", "m 0") + "out * * 0\nnext * * 0\n", "m must be a positive integer, got 0"),
}


def test_fsm_load_error_messages_golden(tmp_path):
    got, want = {}, {}
    for name, (text, message) in GOLDEN_LOAD_ERRORS.items():
        path = tmp_path / f"{name}.fsm"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_fsm(path)
        got[name], want[name] = str(err.value), f"{path}: {message}"
    assert got == want


def _random_spec(rng, encoder, k, m, in_size, out_size, n_states, side_size):
    shape = (n_states, in_size ** (k if encoder else m), side_size ** k)
    cls = {
        (True, False): StochasticEncoderSpec,
        (True, True): SideInfoEncoderSpec,
        (False, False): DecoderSpec,
        (False, True): SideInfoDecoderSpec,
    }[encoder, side_size > 1]
    common = dict(
        k=k, m=m, in_size=in_size, out_size=out_size, n_states=n_states,
        next_state=rng.integers(0, n_states, shape), side_size=side_size,
        initial_state=int(rng.integers(n_states)),
    )
    if not encoder:
        return cls(out_table=rng.integers(0, out_size ** k, shape), **common)
    emit = {}
    for key in itertools.product(*map(range, shape)):
        p = rng.random(out_size ** m)
        p[rng.random(p.size) < 0.3] = 0.0
        p[int(rng.integers(p.size))] += 0.1
        emit[key] = [(x, float(v)) for x, v in enumerate(p / p.sum()) if v > 0.0]
    return cls(emit=emit, **common)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    encoder=st.booleans(),
    k=st.sampled_from([1, 2]),
    m=st.sampled_from([1, 2]),
    in_size=st.integers(2, 3),
    out_size=st.integers(2, 3),
    n_states=st.integers(1, 3),
    side_size=st.integers(1, 3),
)
def test_fsm_dump_load_round_trip_property(seed, encoder, k, m, in_size, out_size, n_states, side_size):
    spec = _random_spec(np.random.default_rng(seed), encoder, k, m, in_size, out_size, n_states, side_size)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.fsm"), os.path.join(tmp, "second.fsm")
        dump_fsm(spec, first)
        back = load_fsm(first)
        dump_fsm(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert type(back) is type(spec)
    fields = ("k", "m", "in_size", "out_size", "n_states", "side_size", "initial_state")
    assert [getattr(back, f) for f in fields] == [getattr(spec, f) for f in fields]
    assert np.array_equal(back.next_state, spec.next_state)
    if encoder:
        assert back.emit == spec.emit
    else:
        assert np.array_equal(back.out_table, spec.out_table)


# Lines of FSM files: whole rule lines and rule sets, so that some files
# load, or tokens of both kinds, every directive, small and huge integers,
# blocks with wildcards, probabilities and comments. A header of small scalars
# comes first in two of three draws; raw bytes cover bytes that are not UTF-8.
_fsm_token = st.sampled_from(
    [b"encoder", b"decoder", b"k", b"m", b"alpha", b"beta", b"gamma", b"states", b"init", b"side", b"emit",
     b"next", b"out", b"zap", b"0", b"1", b"2", b"-1", b"01", b"*", b"0*", b"0.5", b"nan", b"1e999", b"x",
     b"10000000000", b"#", "\u0663".encode()]
)
_fsm_line = st.one_of(
    st.sampled_from(
        [b"emit 0 0 0\nemit 0 1 1\nnext * * 0", b"out * * * 1\nnext * * * 0", b"emit 0 0 0", b"emit 1 1 1 1.0",
         b"emit 0 1 1", b"emit 1 0 0 1", b"emit 0 0 0 1 0", b"emit 1 1 1 1", b"next * * 0", b"next * * * 0",
         b"next 1 * 1 0", b"out * * * 1", b"out * 0 * 1", b"init 1", b"states 2", b"side 1", b"m 2"]
    ),
    st.tuples(st.lists(_fsm_token, min_size=1, max_size=5), st.sampled_from([b" ", b"\t", b"\x1c"])).map(
        lambda t: t[1].join(t[0])
    ),
)
_fsm_lines = st.lists(_fsm_line, max_size=8).map(b"\n".join)


@settings(max_examples=400, deadline=None)
@given(
    header=st.sampled_from([b"", b"encoder\nk 1\nm 1\nalpha 2\nbeta 2\nstates 1\ninit 0\n",
                            b"decoder\nk 1\nm 1\ngamma 2\nalpha 2\nstates 1\ninit 0\nside 2\n"]),
    body=st.one_of(st.binary(max_size=60), _fsm_lines),
)
def test_load_fsm_fuzz(tmp_path_factory, header, body):
    # any file loads or raises one of the two errors, nothing else
    path = tmp_path_factory.getbasetemp() / "fuzz.fsm"
    path.write_bytes(header + body)
    try:
        spec = load_fsm(path)
    except (ValidationError, BudgetError):
        return
    assert spec.n_states >= 1
