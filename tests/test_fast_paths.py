"""The batched and cached kernels against the straightforward forms they replace.

Each reference below is the plain per-item computation; the fast path must
reproduce it bit for bit (==, not isclose).
"""

import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire import feedback_binning as fb
from secwire import fsm_codec as fc
from secwire import info_measures as im
from secwire import wyner_binning as wb
from secwire.channels import ChannelTriple, TransitionMatrix, bsc, channel_from_rows, sample
from secwire.errors import BudgetError, ValidationError
from secwire.parsing import conditional_lz_complexity
from secwire.rand import substream
from secwire.sequences import Alphabet, SymbolSequence

TRIPLES_3 = (
    (
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]],
        [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]],
    ),
    (
        [[0.9, 0.05, 0.05], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]],
        [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.25, 0.15, 0.6]],
    ),
)


def _reference_error(code, ch, trials, seed):
    # one ml_decode per trial, drawn exactly as monte_carlo_error draws
    secret_errs = word_errs = 0
    for t in range(trials):
        rng = substream(seed, t)
        secret = int(rng.integers(code.bins))
        inner = int(rng.integers(code.words_per_bin))
        y = sample(ch, wb.wyner_encode(code, secret, inner), rng)
        s_hat, i_hat = wb.ml_decode(code, y, ch)
        secret_errs += s_hat != secret
        word_errs += (s_hat, i_hat) != (secret, inner)
    return secret_errs, word_errs


@pytest.mark.parametrize(
    "in_size, rows",
    [
        (2, bsc(0.2).rows),
        (3, [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]),
        (2, [[0.6, 0.3, 0.1], [0.0, 0.5, 0.5]]),  # zero entry: the LOG_FLOOR path
        (2, [[1.0, 0.0], [0.0, 1.0]]),  # noiseless: every score but one is floored
    ],
)
def test_monte_carlo_error_matches_per_trial_ml_decode(in_size, rows):
    ch = channel_from_rows(rows)
    code = wb.build_code(6, 2, 2, [1.0 / in_size] * in_size, seed=in_size)
    est = wb.monte_carlo_error(code, ch, trials=250, seed=17)
    assert (est.secret_errors, est.word_errors) == _reference_error(code, ch, 250, 17)


def test_monte_carlo_error_partial_last_block(monkeypatch):
    code = wb.build_code(8, 3, 2, [0.5, 0.5], seed=4)
    ch = bsc(0.15)
    pairs = code.bins * code.words_per_bin * 4
    monkeypatch.setattr(wb, "MC_BLOCK_ENTRIES", 7 * pairs)  # blocks of 7 trials
    est = wb.monte_carlo_error(code, ch, trials=5 * 7 + 1, seed=3)  # last block holds one
    assert (est.secret_errors, est.word_errors) == _reference_error(code, ch, 36, 3)
    monkeypatch.setattr(wb, "MC_BLOCK_ENTRIES", 1)  # less than one trial's counts: blocks of 1
    est = wb.monte_carlo_error(code, ch, trials=20, seed=3)
    assert (est.secret_errors, est.word_errors) == _reference_error(code, ch, 20, 3)


def _whole_codebook_leakage(code, ch):
    # every codeword's output law in one (codewords, |Z|^N) array
    flat = code.codebook.reshape(-1, code.block_len)
    laws = np.ones((flat.shape[0], 1))
    for i in range(code.block_len):
        laws = (laws[:, :, None] * ch.rows[flat[:, i]][:, None, :]).reshape(flat.shape[0], -1)
    per_bin = laws.reshape(code.bins, code.words_per_bin, -1).mean(axis=1)
    marginal = per_bin.mean(axis=0)
    h_cond = sum(im._entropy_raw(row) for row in per_bin) / code.bins
    return max(im._entropy_raw(marginal) - h_cond, 0.0)


@pytest.mark.parametrize(
    "n, secret_bits, random_bits, dist, rows",
    [
        (1, 1, 0, [0.5, 0.5], bsc(0.2).rows),
        (5, 2, 0, [0.5, 0.5], bsc(0.1).rows),
        (8, 3, 3, [0.5, 0.5], bsc(0.25).rows),
        (10, 4, 4, [0.3, 0.7], [[0.9, 0.1], [0.0, 1.0]]),
        (4, 2, 2, [0.2, 0.3, 0.5], [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]),
        (5, 2, 1, [0.5, 0.5], [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]),
    ],
)
def test_code_leakage_equals_whole_codebook_formula(n, secret_bits, random_bits, dist, rows):
    code = wb.build_code(n, secret_bits, random_bits, dist, seed=n)
    ch = channel_from_rows(rows)
    assert wb.code_leakage(code, ch) == _whole_codebook_leakage(code, ch)


def test_code_leakage_checks_budget_before_allocating():
    # one bin's laws (8 x 2^20 floats, 64 MiB) would fit in memory; the
    # whole codebook's 2^25 entries exceed the budget, so nothing is built
    code = wb.build_code(20, 2, 3, [0.5, 0.5], seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            wb.code_leakage(code, bsc(0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _mi_uncached(p, rows):
    q = p @ rows
    h_cond = 0.0
    for px, row in zip(p, rows):
        if px > 0.0:
            h_cond += float(px) * im._entropy_raw(row)
    return max(im._entropy_raw(q) - h_cond, 0.0)


def test_cached_row_entropies_are_bitwise_equal():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n_in, n_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.full(n_out, 0.5), size=n_in)
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[:, 0] += 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        p = rng.dirichlet(np.ones(n_in))
        p[rng.random(n_in) < 0.3] = 0.0  # skipped rows
        p[0] += 0.1
        p /= p.sum()
        ent = im._row_entropies(rows)
        assert im._mi_raw(p, rows, ent) == _mi_uncached(p, rows)
        assert im._mi_raw(p, rows) == _mi_uncached(p, rows)


@pytest.mark.parametrize("main, wire", TRIPLES_3)
def test_solvers_identical_to_uncached_form(main, wire, monkeypatch):
    triple = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    rate = 0.8 * im.channel_capacity(triple.main).value
    fast = [im.secrecy_capacity(triple), im.gamma(triple, rate)]
    monkeypatch.setattr(im, "_mi_raw", lambda p, rows, row_ent=None: _mi_uncached(p, rows))
    slow = [im.secrecy_capacity(triple), im.gamma(triple, rate)]
    for a, b in zip(fast, slow):
        assert a.value == b.value
        assert a.iterations == b.iterations
        assert np.array_equal(a.argmax, b.argmax)
        assert a.certified_gap == b.certified_gap


# -- exact enumeration ----------------------------------------------------
# The per-row np.kron loops that the prefix recursion replaced, kept
# verbatim as the reference.


def _kron_induced_rows(enc, triple, n):
    chunks = n // enc.k
    u_total = enc.in_size ** n
    z_total = triple.wiretap.out_alphabet.size ** (chunks * enc.m)
    kern = fc._chunk_kernels(enc, triple)[:, :, 0, :]
    rows = np.empty((u_total, z_total))
    for ug in range(u_total):
        chunk_idx = fc.index_to_block(ug, enc.u_blocks, chunks)
        s = enc.initial_state
        row = np.ones(1)
        for ci in chunk_idx:
            row = np.kron(row, kern[s, ci])
            s = int(enc.next_state[s, ci, 0])
        rows[ug] = row
    return rows


def _kron_g3(enc, triple, n):
    chunks = n // enc.k
    u_total = enc.in_size ** n
    w_total = enc.side_size ** n
    z_total = triple.wiretap.out_alphabet.size ** (chunks * enc.m)
    kern = fc._chunk_kernels(enc, triple)
    g3 = np.empty((u_total, w_total, z_total))
    for ug in range(u_total):
        u_chunks = fc.index_to_block(ug, enc.u_blocks, chunks)
        for wg in range(w_total):
            w_chunks = fc.index_to_block(wg, enc.w_blocks, chunks)
            s = enc.initial_state
            row = np.ones(1)
            for ci, wi in zip(u_chunks, w_chunks):
                row = np.kron(row, kern[s, ci, wi])
                s = int(enc.next_state[s, ci, wi])
            g3[ug, wg] = row
    return g3


def _random_rows(rng, n_in, n_out, zeros=True):
    rows = rng.random((n_in, n_out)) + 0.01
    if zeros:  # as in sparse emissions; a zero-heavy channel pair can make its cascade round to 1 + ulp
        rows[rng.random((n_in, n_out)) < 0.2] = 0.0
    rows[:, 0] += 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def _random_encoder(seed, k, m, n_states, side_size, in_size=2, out_size=2):
    rng = np.random.default_rng(seed)
    u_blocks, w_blocks, x_blocks = in_size ** k, side_size ** k, out_size ** m
    emit = {}
    for key in itertools.product(range(n_states), range(u_blocks), range(w_blocks)):
        p = _random_rows(rng, 1, x_blocks)[0]
        emit[key] = [(x, float(v)) for x, v in enumerate(p) if v > 0.0]
    return fc.StochasticEncoderSpec(
        k=k,
        m=m,
        in_size=in_size,
        out_size=out_size,
        n_states=n_states,
        emit=emit,
        next_state=rng.integers(0, n_states, (n_states, u_blocks, w_blocks)),
        side_size=side_size,
        initial_state=int(rng.integers(n_states)),
    )


def _bitwise_equal(a, b):
    return a.shape == b.shape and bool((a == b).all()) and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    k=st.sampled_from([1, 2]),
    m=st.sampled_from([1, 2]),
    n_states=st.integers(1, 3),
    side_size=st.integers(1, 2),
    in_size=st.integers(2, 3),
    y_size=st.integers(2, 3),
    z_size=st.integers(2, 3),
    chunks=st.integers(1, 4),
)
def test_enumerator_bitwise_equals_kron_loop(seed, k, m, n_states, side_size, in_size, y_size, z_size, chunks):
    n = k * chunks
    while chunks > 1 and (in_size * side_size) ** n * z_size ** (chunks * m) > 2 ** 12:
        chunks -= 1
        n = k * chunks
    enc = _random_encoder(seed, k, m, n_states, side_size, in_size=in_size)
    rng = np.random.default_rng(seed + 1)
    main, wire = _random_rows(rng, 2, y_size, zeros=False), _random_rows(rng, y_size, z_size, zeros=False)
    triple = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    assert _bitwise_equal(fc._enumerate_g3(enc, triple, n), _kron_g3(enc, triple, n))
    if side_size == 1:
        rows = _kron_induced_rows(enc, triple, n)
        try:
            want = TransitionMatrix(Alphabet(rows.shape[0]), Alphabet(rows.shape[1]), rows)
        except ValidationError as exc:  # a kernel summed to 1 + ulp: both paths reject it alike
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                fc.induced_security_channel(enc, triple, n)
        else:
            assert _bitwise_equal(fc.induced_security_channel(enc, triple, n).rows, want.rows)


@pytest.mark.parametrize("n", [8, 10])
def test_induced_channel_bitwise_on_two_state_scrambler(n):
    # the shape of the plain exact-leakage encoders: x = u xor s, state s xor u
    emit, nxt = {}, np.zeros((2, 2, 1), dtype=np.int64)
    for s, eps in ((0, 0.02), (1, 0.3)):
        for u in (0, 1):
            emit[(s, u, 0)] = [(u ^ s, 1.0 - eps), (1 - (u ^ s), eps)]
            nxt[s, u, 0] = s ^ u
    enc = fc.StochasticEncoderSpec(k=1, m=1, in_size=2, out_size=2, n_states=2, emit=emit, next_state=nxt)
    triple = ChannelTriple(bsc(0.05), bsc(0.15))
    assert _bitwise_equal(fc.induced_security_channel(enc, triple, n).rows, _kron_induced_rows(enc, triple, n))


def test_enumerator_checks_budget_before_allocating():
    enc = _random_encoder(3, 1, 1, 2, 2)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="joint enumeration needs"):
            fc._enumerate_g3(enc, triple, 9)  # 2^9 * 2^9 * 2^9 entries
        with pytest.raises(BudgetError, match="induced channel needs"):
            fc.induced_security_channel(_random_encoder(3, 1, 1, 2, 1), triple, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_conditional_leakage_checks_budget_before_leak_power():
    # 2^9 * 2^9 * 2^9 joint entries are over budget; the 9-fold power of a
    # 2 -> 3 leak channel would be 2^9 x 3^9 entries (80 MB), so it must not
    # be built before the budget check raises
    enc = _random_encoder(7, 1, 1, 2, 2)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    leak = channel_from_rows([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    mu = np.full((2 ** 9, 2 ** 9), 1.0 / 2 ** 18)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="joint enumeration needs"):
            fc.conditional_leakage(enc, triple, leak, 9, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with pytest.raises(ValidationError, match="leak channel input"):
        fc.conditional_leakage(enc, triple, channel_from_rows([[1.0]] * 3), 9, mu)


def _max_leakage_per_point(enc, triple, leak, n, grid_step):
    # the grid loop before G3 was hoisted: one full conditional_leakage per point
    cells = (enc.in_size ** n) * (enc.side_size ** n)
    levels = int(round(1.0 / grid_step))
    best = None
    for bars in itertools.combinations(range(levels + cells - 1), cells - 1):
        counts = np.diff((-1,) + bars + (levels + cells - 1,)) - 1
        mu = (counts / levels).reshape(enc.in_size ** n, enc.side_size ** n)
        rep = fc.conditional_leakage(enc, triple, leak, n, mu)
        if best is None or rep.i_uz_given_wdot > best[0].i_uz_given_wdot:
            best = (rep, mu)
    return best


@pytest.mark.parametrize("n, side_size, step", [(1, 2, 0.25), (2, 1, 0.25), (1, 2, 0.1), (2, 2, 0.5)])
def test_max_conditional_leakage_equals_per_point_loop(n, side_size, step):
    enc = _random_encoder(40 + n, 1, 1, 2, side_size)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    leak = channel_from_rows([[0.8, 0.2], [0.3, 0.7]]) if side_size == 2 else None
    rep, mu = fc.max_conditional_leakage(enc, triple, leak, n, grid_step=step)
    ref_rep, ref_mu = _max_leakage_per_point(enc, triple, leak, n, step)
    assert rep == ref_rep
    assert _bitwise_equal(mu, ref_mu)


def test_max_conditional_leakage_checks_budgets_first():
    enc = _random_encoder(5, 1, 1, 2, 2)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    with pytest.raises(ValidationError):
        fc.max_conditional_leakage(enc, triple, None, 1, grid_step=0.0)
    with pytest.raises(ValidationError):
        fc.max_conditional_leakage(enc, triple, None, 1, grid_step=float("nan"))
    with pytest.raises(ValidationError):
        fc.max_conditional_leakage(enc, triple, channel_from_rows([[1.0], [1.0], [1.0]]), 1)
    # 176 851 grid points of 2^2 * 3^4 entries each: under both single
    # budgets, over the budget for the entries computed over the whole grid
    wide = _random_encoder(6, 1, 2, 2, 1)
    rng = np.random.default_rng(6)
    triple = ChannelTriple(channel_from_rows(_random_rows(rng, 2, 2)), channel_from_rows(_random_rows(rng, 2, 3)))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="mu grid of"):
            fc.max_conditional_leakage(wide, triple, None, 2, grid_step=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# -- feedback list decoding -----------------------------------------------


def _old_bin_bits(assign, symbols):
    data = bytes(symbols)
    key = int(assign.seed).to_bytes(8, "big", signed=True)
    digest_len = (assign.bits_total + 7) // 8
    digest = hashlib.blake2b(data, key=key, digest_size=digest_len).digest()
    return int.from_bytes(digest, "big") >> (8 * digest_len - assign.bits_total)


def _full_scan_step(assign, w, received_prefix, i, r, delta):
    # list_decode_step without the early exit: every round hashes every candidate
    n, alpha = assign.n, assign.alphabet_size
    plen = min(i * r, assign.bits_total)
    shift = assign.bits_total - plen
    best_rho, best_u = None, None
    alphabet = Alphabet(alpha)
    for cand in itertools.product(range(alpha), repeat=n):
        if _old_bin_bits(assign, cand) >> shift != received_prefix:
            continue
        rho = conditional_lz_complexity(SymbolSequence(alphabet, cand), w)
        if best_rho is None or rho < best_rho:
            best_rho, best_u = rho, cand
    if best_rho is None:
        return False, None
    if n * best_rho <= i * r - n * delta:
        return True, SymbolSequence(alphabet, best_u)
    return False, None


def test_bin_bits_equals_per_call_key_derivation():
    for n, alpha, seed in ((1, 2, 0), (7, 2, -5), (12, 2, 2 ** 40), (5, 3, 11), (4, 256, 2 ** 63 - 1)):
        assign = fb.BinAssignment(n=n, alphabet_size=alpha, seed=seed)
        rng = np.random.default_rng(n)
        for _ in range(20):
            cand = tuple(int(v) for v in rng.integers(0, alpha, n))
            assert assign.bin_bits(cand) == _old_bin_bits(assign, cand)
    assert fb.BinAssignment(n=3, alphabet_size=2, seed=1) == fb.BinAssignment(n=3, alphabet_size=2, seed=1)
    assert "_key" not in repr(fb.BinAssignment(n=3, alphabet_size=2, seed=1))


@pytest.mark.parametrize("n, alpha, r, delta", [(8, 2, 1, 0.5), (12, 2, 3, 0.5), (6, 3, 2, 0.0), (9, 2, 2, 1.0)])
def test_list_decode_step_equals_full_scan(n, alpha, r, delta):
    rng = np.random.default_rng(n * 10 + r)
    assign = fb.BinAssignment(n=n, alphabet_size=alpha, seed=int(rng.integers(2 ** 31)))
    w = SymbolSequence(Alphabet(alpha), tuple(int(v) for v in rng.integers(0, alpha, n)))
    u = tuple(int(v) for v in rng.integers(0, alpha, n))
    b_true = assign.bin_bits(u)
    negative = nonnegative = 0
    for i in range(1, assign.bits_total // r + 3):
        plen = min(i * r, assign.bits_total)
        for prefix in (b_true >> (assign.bits_total - plen), int(rng.integers(1 << plen))):
            got = fb.list_decode_step(assign, w, prefix, i, r, delta)
            want = _full_scan_step(assign, w, prefix, i, r, delta)
            assert got[0] == want[0]
            assert (got[1] is None) == (want[1] is None)
            if got[1] is not None:
                assert got[1].data == want[1].data
        if i * r - n * delta < 0:
            negative += 1
        else:
            nonnegative += 1
    assert nonnegative > 0
    assert negative > 0 or delta == 0.0


def test_list_decode_step_skips_hashing_when_threshold_negative(monkeypatch):
    assign = fb.BinAssignment(n=8, alphabet_size=2, seed=3)
    w = SymbolSequence(Alphabet(2), (0, 1) * 4)
    calls = []
    real = fb.BinAssignment.bin_bits
    monkeypatch.setattr(fb.BinAssignment, "bin_bits", lambda self, c: calls.append(c) or real(self, c))
    assert fb.list_decode_step(assign, w, 1, 1, 2, 0.5) == (False, None)  # 2 - 4 < 0
    assert calls == []
    fb.list_decode_step(assign, w, 1, 2, 2, 0.5)  # 4 - 4 = 0: a full scan
    assert len(calls) == 2 ** 8


def test_list_decode_step_validates_in_rounds_that_cannot_ack():
    # i*r - n*delta < 0 in every call below, so only validation can raise
    assign = fb.BinAssignment(n=6, alphabet_size=2, seed=0)
    w = SymbolSequence(Alphabet(2), (0, 1, 0, 1, 1, 0))
    with pytest.raises(ValidationError, match="does not fit"):
        fb.list_decode_step(assign, w, 4, 1, 2, 1.0)
    with pytest.raises(ValidationError, match="does not fit"):
        fb.list_decode_step(assign, w, -1, 1, 2, 1.0)
    with pytest.raises(ValidationError, match="side sequence length"):
        fb.list_decode_step(assign, SymbolSequence(Alphabet(2), (0, 1)), 0, 1, 2, 1.0)
    with pytest.raises(ValidationError, match="chunk index"):
        fb.list_decode_step(assign, w, 0, 0, 2, 1.0)
    with pytest.raises(ValidationError, match="delta"):
        fb.list_decode_step(assign, w, 0, 1, 2, -1.0)
    big = fb.BinAssignment(n=21, alphabet_size=2, seed=0)
    with pytest.raises(BudgetError):
        fb.list_decode_step(big, SymbolSequence(Alphabet(2), (0,) * 21), 0, 1, 1, 5.0)
