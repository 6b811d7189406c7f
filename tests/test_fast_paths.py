"""The batched and cached kernels against the straightforward forms they replace.

Each reference below is the plain per-item computation; the fast path must
reproduce it bit for bit (==, not isclose). The one exception is the
whole-codebook leakage formula: the prefix-tree contraction in code_leakage
sums in another order, so it is checked to 1e-13 bits, and a frozen copy of
the contraction pins its bits.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire import bounds as bd
from secwire import feedback_binning as fb
from secwire import fsm_codec as fc
from secwire import info_measures as im
from secwire import rand
from secwire import wyner_binning as wb
from secwire.channels import ChannelTriple, bsc, channel_from_rows, sample, validate
from secwire.errors import BudgetError, ValidationError
from secwire.parsing import _conditional_rate, conditional_lz_complexity, joint_parse
from secwire.rand import substream
from secwire.sequences import Alphabet, SymbolSequence, sequence_from_array

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


def _reference_ml_decode(code, y, ch):
    # the per-word scorer ml_decode used before it shared monte_carlo_error's:
    # integer pair counts by np.add.at, then one product with the log-channel
    out_size = ch.out_alphabet.size
    flat_cw = code.codebook.reshape(-1, code.block_len)
    pair = flat_cw * out_size + y.array()[None, :]
    counts = np.zeros((flat_cw.shape[0], code.in_size * out_size), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(flat_cw.shape[0]), code.block_len), pair.ravel()), 1)
    with np.errstate(divide="ignore"):
        logch = np.log2(ch.rows).ravel()
    scores = counts @ np.where(np.isfinite(logch), logch, wb.LOG_FLOOR)
    return divmod(int(np.argmax(scores)), code.words_per_bin)


def _reference_error(code, ch, trials, seed):
    # one reference decode per trial, drawn exactly as monte_carlo_error draws
    secret_errs = word_errs = 0
    for t in range(trials):
        rng = substream(seed, t)
        secret = int(rng.integers(code.bins))
        inner = int(rng.integers(code.words_per_bin))
        y = sample(ch, wb.wyner_encode(code, secret, inner), rng)
        s_hat, i_hat = _reference_ml_decode(code, y, ch)
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


def test_ml_decode_equals_add_at_scorer():
    # eight random received words per random code: a third of the channels
    # have zero entries (LOG_FLOOR scores), a fifth are noiseless, where
    # repeated codewords and floored scores tie exactly
    rng = np.random.default_rng(12)
    for case in range(150):
        in_size, out_size = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        secret_bits = int(rng.integers(1, 3))
        random_bits = int(rng.integers(0, 3))
        if secret_bits + random_bits > n * math.log2(in_size):
            continue
        if case % 5 == 0:
            rows = np.eye(in_size, max(in_size, out_size))
        else:
            rows = rng.dirichlet(np.ones(out_size), size=in_size)
            if case % 3 == 0:
                rows[rng.random(rows.shape) < 0.3] = 0.0
                rows[:, 0] += 1e-3
                rows /= rows.sum(axis=1, keepdims=True)
        ch = channel_from_rows(rows)
        code = wb.build_code(n, secret_bits, random_bits, np.full(in_size, 1.0 / in_size), seed=case)
        for _ in range(8):
            word = rng.integers(0, ch.out_alphabet.size, n)
            y = sequence_from_array(word, ch.out_alphabet.size)
            assert wb.ml_decode(code, y, ch) == _reference_ml_decode(code, y, ch)


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


@settings(max_examples=60, deadline=None)
@given(
    in_size=st.integers(2, 3),
    out_size=st.integers(2, 3),
    n=st.integers(1, 6),
    secret_bits=st.integers(1, 3),
    random_bits=st.integers(0, 2),
    kind=st.sampled_from(["dense", "zeros", "noiseless"]),
    trials=st.integers(1, 40),
    block_trials=st.integers(1, 12),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_monte_carlo_error_equals_per_trial_reference(
    in_size, out_size, n, secret_bits, random_bits, kind, trials, block_trials, seed
):
    if secret_bits + random_bits > n * math.log2(in_size):
        return
    rng = np.random.default_rng(seed)
    if kind == "noiseless":
        rows = np.eye(in_size, max(in_size, out_size))
    else:
        rows = rng.dirichlet(np.ones(out_size), size=in_size)
        if kind == "zeros":
            rows[rng.random(rows.shape) < 0.4] = 0.0
            rows[:, -1] += 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
    ch = channel_from_rows(rows)
    code = wb.build_code(n, secret_bits, random_bits, rng.dirichlet(np.ones(in_size)), seed=seed)
    pairs = code.bins * code.words_per_bin * code.in_size * ch.out_alphabet.size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wb, "MC_BLOCK_ENTRIES", block_trials * pairs)
        est = wb.monte_carlo_error(code, ch, trials=trials, seed=seed)
    assert (est.secret_errors, est.word_errors) == _reference_error(code, ch, trials, seed)


@settings(max_examples=80, deadline=None)
@given(
    in_size=st.integers(2, 3),
    out_size=st.integers(2, 4),
    n=st.integers(1, 6),
    random_bits=st.integers(0, 3),
    kind=st.sampled_from(["dense", "zeros", "noiseless"]),
    words=st.integers(1, 40),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_stacked_scores_equal_per_word_products(in_size, out_size, n, random_bits, kind, words, seed):
    # one stacked counts @ logch gives each word's c @ logch bit for bit, and
    # argmax(axis=1) the first maximum of each; repeated codewords, noiseless
    # channels and LOG_FLOOR entries make exact ties
    if 1 + random_bits > n * math.log2(in_size):
        return
    rng = np.random.default_rng(seed)
    if kind == "noiseless":
        rows = np.eye(in_size, max(in_size, out_size))
    else:
        rows = rng.dirichlet(np.ones(out_size), size=in_size)
        if kind == "zeros":
            rows[rng.random(rows.shape) < 0.4] = 0.0
            rows[:, -1] += 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
    ch = channel_from_rows(rows)
    code = wb.build_code(n, 1, random_bits, np.full(in_size, 1.0 / in_size), seed=seed)
    x_onehot, logch = wb._ml_scorer(code, ch)
    ys = rng.integers(0, ch.out_alphabet.size, (words, n))
    counts = wb._pair_counts(x_onehot, ys, ch.out_alphabet.size)
    per_word = [c @ logch for c in counts]
    assert np.array_equal(counts @ logch, np.stack(per_word))
    assert wb._ml_decisions(x_onehot, logch, ys).tolist() == [int(np.argmax(v)) for v in per_word]


def test_monte_carlo_error_rejects_channel_input_mismatch():
    code = wb.build_code(4, 1, 1, [0.5, 0.5], seed=0)
    ch = channel_from_rows([[0.8, 0.2], [0.1, 0.9], [0.5, 0.5]])
    with pytest.raises(ValidationError, match="input alphabet 2 does not match channel input 3"):
        wb.monte_carlo_error(code, ch, trials=5, seed=1)
    with pytest.raises(ValidationError, match="trials must be >= 1"):
        wb.monte_carlo_error(code, ch, trials=0, seed=1)


def test_monte_carlo_error_blocks_count_block_length():
    # 2 codewords at N = 2000: the pair counts alone allow blocks of 2^16
    # trials, whose uniforms, codewords and gathered CDF rows peaked at
    # 49 MiB for 400 trials; counting those arrays keeps the peak near 6 MiB
    code = wb.build_code(2000, 1, 0, [0.5, 0.5], seed=3)
    tracemalloc.start()
    try:
        wb.monte_carlo_error(code, bsc(0.1), trials=400, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


# -- block-trial sampler --------------------------------------------------

# seeds of one to three 32-bit entropy words, with the word edges; 2^96 and
# 2^128 make the trial index a fifth or sixth word, past SeedSequence's pool
SEEDS = st.one_of(
    st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 96 - 1, 2 ** 96, 2 ** 128]),
    st.integers(0, 2 ** 96 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    seed=SEEDS,
    start=st.one_of(st.just(0), st.integers(0, 100), st.integers(2 ** 32 - 40, 2 ** 32 - 20)),
    count=st.integers(0, 20),
    block=st.integers(1, 7),
    seed_chunk=st.integers(1, 9),
    b=st.integers(0, 32),
    c=st.integers(0, 32),
    size=st.integers(0, 64),
)
def test_substream_draws_equal_substream(seed, start, count, block, seed_chunk, b, c, size):
    # small blocks and mixing chunks make the range cross both kinds of edge
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rand, "SEED_CHUNK", seed_chunk)
        blocks = list(rand._substream_draws(seed, start, start + count, block, (b, c), size))
    assert [len(ints) for ints, _ in blocks] == [min(block, count - k) for k in range(0, count, block)]
    t = start
    for ints, uniforms in blocks:
        assert ints.dtype == np.int64 and uniforms.dtype == np.float64
        assert uniforms.shape == (len(ints), size)
        for row, row_u in zip(ints.tolist(), uniforms.tolist()):
            rng = substream(seed, t)
            assert row == [int(rng.integers(2 ** b)), int(rng.integers(2 ** c))]
            assert row_u == rng.random(size).tolist()
            t += 1
    assert t == start + count


def test_substream_words_equal_raw_words_at_the_trial_limit():
    # the last trial index the sampler takes is 2^32 - 1; 2^32 would need a
    # second entropy word and is rejected before anything is drawn
    for seed in (0, 5, 2 ** 64):
        (words,) = rand._substream_words(seed, 2 ** 32 - 3, 2 ** 32, 3, 4)
        for row, t in zip(words.tolist(), range(2 ** 32 - 3, 2 ** 32)):
            assert row == substream(seed, t).bit_generator.random_raw(4).tolist()
    with pytest.raises(ValidationError, match="trial range"):
        rand._substream_words(0, 2 ** 32 - 1, 2 ** 32 + 1, 1, 1)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        rand._substream_words(-1, 0, 1, 1, 1)
    with pytest.raises(ValidationError, match="integer draws take 0 to 32 bits"):
        rand._substream_draws(0, 0, 1, 1, (33,), 1)
    code = wb.build_code(4, 1, 1, [0.5, 0.5], seed=0)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        wb.monte_carlo_error(code, bsc(0.1), trials=5, seed=-3)


def _seed_system():
    enc = fc.StochasticEncoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=1,
        emit={(0, 0): [(0, 0.9), (1, 0.1)], (0, 1): [(1, 1.0)]}, next_state=np.zeros((1, 2, 1), dtype=int),
    )
    dec = fc.DecoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=1,
        out_table=np.arange(2).reshape(1, 2, 1), next_state=np.zeros((1, 2, 1), dtype=int),
    )
    return enc, dec, ChannelTriple(bsc(0.1), bsc(0.2)), SymbolSequence(Alphabet(2), (0, 1, 1, 0))


@pytest.mark.parametrize("seed", [-1, 1.5])
@pytest.mark.parametrize(
    "call",
    [
        lambda enc, dec, triple, u, seed: wb.build_code(4, 1, 1, [0.5, 0.5], seed=seed),
        lambda enc, dec, triple, u, seed: fc.encode_stream(enc, u, seed),
        lambda enc, dec, triple, u, seed: sample(triple.main, u, seed),
        lambda enc, dec, triple, u, seed: fc.simulate_system(enc, dec, triple, u, 2, seed),
        lambda enc, dec, triple, u, seed: fc.sweep_initial_states(enc, dec, triple, u, 2, seed),
    ],
    ids=["build_code", "encode_stream", "sample", "simulate_system", "sweep_initial_states"],
)
def test_bad_seed_raises_validation_error(call, seed):
    # as_rng and substream check every seed word, so a negative or fractional
    # seed is an input error of the library, not NumPy's ValueError or
    # TypeError, and never truncated to a valid seed
    with pytest.raises(ValidationError, match=f"seed must be a non-negative integer, got {seed}"):
        call(*_seed_system(), seed)


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
    # the prefix-tree contraction sums in tree order, not codeword order, so
    # the last bits may differ (by at most 8.9e-16 bits over these cases);
    # test_code_leakage_equals_frozen_contraction pins the bits
    code = wb.build_code(n, secret_bits, random_bits, dist, seed=n)
    ch = channel_from_rows(rows)
    assert math.isclose(wb.code_leakage(code, ch), _whole_codebook_leakage(code, ch), rel_tol=0, abs_tol=1e-13)


def _frozen_contraction_leakage(code, ch):
    # the prefix-tree contraction over the whole codebook at once: no groups
    # of bins, and every depth scattered into a zero-padded child array
    n = code.block_len
    rows = ch.rows
    bin_of = np.repeat(np.arange(code.bins), code.words_per_bin)
    keys, counts = np.unique(np.column_stack((bin_of, code.codebook.reshape(-1, n))), axis=0, return_counts=True)
    first_diff = np.zeros(len(keys), dtype=int)
    first_diff[1:] = np.argmax(keys[1:] != keys[:-1], axis=1)
    nodes = np.arange(len(keys))
    tables = counts.astype(float)[:, None]
    for d in range(n, 0, -1):
        starts = first_diff[nodes] < d
        parent = np.cumsum(starts) - 1
        pad = np.zeros((parent[-1] + 1, rows.shape[0], tables.shape[1]))
        pad[parent, keys[nodes, d]] = tables
        tables = np.matmul(rows.T, pad).reshape(len(pad), -1)
        nodes = nodes[starts]
    per_bin = tables / code.words_per_bin
    marginal = per_bin.mean(axis=0)
    h_cond = sum(im._entropy_raw(row) for row in per_bin) / code.bins
    return max(im._entropy_raw(marginal) - h_cond, 0.0)


@pytest.mark.parametrize("block_entries", [wb.LEAKAGE_BLOCK_ENTRIES, 1])
@pytest.mark.parametrize(
    "n, secret_bits, random_bits, dist, rows",
    [
        (1, 1, 0, [0.5, 0.5], bsc(0.2).rows),
        (5, 2, 0, [0.5, 0.5], bsc(0.1).rows),
        (8, 3, 3, [0.5, 0.5], bsc(0.25).rows),
        (10, 4, 4, [0.3, 0.7], [[0.9, 0.1], [0.0, 1.0]]),
        (4, 2, 2, [0.2, 0.3, 0.5], [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]),
        (5, 2, 1, [0.5, 0.5], [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]),
        # every codeword is 0...0: one leaf per bin, counted words_per_bin times
        (6, 2, 3, [1.0, 0.0], bsc(0.1).rows),
        # repeated codewords, bins missing a symbol at some depths, and a 1-output channel
        (4, 2, 2, [0.8, 0.2], bsc(0.3).rows),
        (6, 3, 2, [0.1, 0.6, 0.3], [[0.5, 0.5], [1.0, 0.0], [0.2, 0.8]]),
        (7, 3, 3, [0.5, 0.5], [[1.0], [1.0]]),
        (12, 6, 6, [0.5, 0.5], bsc(0.2).rows),
    ],
)
def test_code_leakage_equals_frozen_contraction(monkeypatch, block_entries, n, secret_bits, random_bits, dist, rows):
    # bit for bit, with bins in groups of the default size and one bin at a time
    monkeypatch.setattr(wb, "LEAKAGE_BLOCK_ENTRIES", block_entries)
    code = wb.build_code(n, secret_bits, random_bits, dist, seed=n + 1)
    ch = channel_from_rows(rows)
    assert wb.code_leakage(code, ch) == _frozen_contraction_leakage(code, ch)


def test_code_leakage_checks_budget_before_allocating():
    # the per-bin laws (4 x 2^22 entries) plus one bin's deepest tables
    # (2^23 entries) exceed the budget, so nothing is built
    code = wb.build_code(22, 2, 3, [0.5, 0.5], seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="needs 25165824 entries"):
            wb.code_leakage(code, bsc(0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_code_leakage_budget_counts_what_the_contraction_holds():
    # 4 x 2^20 per-bin laws plus 2^21 table entries fit the budget, though
    # the whole codebook's 32 x 2^20 output laws would not
    code = wb.build_code(20, 2, 3, [0.5, 0.5], seed=1)
    assert 0.0 <= wb.code_leakage(code, bsc(0.1)) <= 2.0


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
        assert im.mutual_information(p, channel_from_rows(rows)) == _mi_uncached(p, rows)


def test_stacked_mutual_information_is_bitwise_per_row():
    # widths from 8 up sum pairwise, where a zero output entry must be left out
    rng = np.random.default_rng(9)
    for _ in range(300):
        n_in, n_out = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        rows = rng.dirichlet(np.full(n_out, 0.5), size=n_in)
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[:, 0] += 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        p = rng.dirichlet(np.ones(n_in), size=int(rng.integers(1, 20)))
        p[rng.random(p.shape) < 0.3] = 0.0
        p[:, 0] += 0.1
        p /= p.sum(axis=1, keepdims=True)
        got = im._mi_rows(p, rows, im._row_entropies(rows))
        assert got.tolist() == [_mi_uncached(law, rows) for law in p]


# -- the scalar multistart ascent -------------------------------------------
# secrecy_capacity and gamma as they ran before their starts moved in lock
# step: one start after another, one objective call per point, through the
# uncached mutual information above. The lock-step solvers must equal them.


def _ref_step(p, direction, t):
    out = np.maximum(p + t * direction, 0.0)
    return out / out.sum()


def _ref_golden_max(fun, lo, hi, rtol=1e-13, max_iter=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(max_iter):
        if b - a <= rtol * max(1.0, abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
    xs = [(a, fun(a)), (x1, f1), (x2, f2), (b, fun(b))]
    return max(xs, key=lambda t: t[1])


def _ref_feasible_boundary(pred, inner, outer):
    # all 100 bisections, without the stop once the midpoint rounds to an end
    if pred(outer):
        return outer
    for _ in range(100):
        mid = 0.5 * (inner + outer)
        if pred(mid):
            inner = mid
        else:
            outer = mid
    return inner


def _ref_ascent(triple, interval, starts, directions, tol, max_iter):
    neg_ent_m = im._neg_row_entropies(triple.main.rows)
    neg_ent_c = im._neg_row_entropies(triple.cascade.rows)

    def value(p):
        return _mi_uncached(p, triple.main.rows) - _mi_uncached(p, triple.cascade.rows)

    if triple.main.in_alphabet.size == 2:
        lo, hi = interval()
        t, fval = _ref_golden_max(lambda t: value(np.array([t, 1.0 - t])), lo, hi)[:2]
        p, total_it = np.array([t, 1.0 - t]), 300
    else:
        best = None
        total_it = 0
        for p0 in starts():
            p = p0.copy()
            fval = value(p)
            for _ in range(max_iter):
                total_it += 1
                slopes = im._secrecy_slopes(p, triple, neg_ent_m, neg_ent_c)
                if im._fw_gap(p, slopes) <= tol:
                    break
                j_plus = int(np.argmax(slopes))
                active = np.flatnonzero(p > 1e-15)
                j_minus = int(active[np.argmin(slopes[active])])
                candidates = []
                for direction, t_max in directions(p, j_plus, j_minus):
                    if t_max <= 0.0:
                        continue
                    t, ft = _ref_golden_max(lambda t: value(_ref_step(p, direction, t)), 0.0, t_max)[:2]
                    candidates.append((ft, _ref_step(p, direction, t)))
                if not candidates:
                    break
                ft, p_new = max(candidates, key=lambda c: c[0])
                if ft <= fval + 1e-16:
                    break
                p, fval = p_new, ft
            if best is None or fval > best[0]:
                best = (fval, p)
        fval, p = best
    gap = im._fw_gap(p, im._secrecy_slopes(p, triple, neg_ent_m, neg_ent_c))
    return im.CapacityResult(value=fval, argmax=p, iterations=total_it, certified_gap=max(gap, 0.0))


def _ref_secrecy_capacity(triple, tol=1e-9, max_iter=2000):
    n = triple.main.in_alphabet.size
    return _ref_ascent(triple, lambda: (0.0, 1.0), lambda: im._simplex_starts(n), im._cg_directions, tol, max_iter)


def _ref_gamma(triple, rate, tol=1e-9):
    n = triple.main.in_alphabet.size
    cap = im.channel_capacity(triple.main, tol=min(tol, 1e-11))
    rate = min(rate, cap.value)
    p_cap = cap.argmax

    def feasible(p):
        return _mi_uncached(p, triple.main.rows) >= rate

    def interval():
        t_cap = float(p_cap[0])
        ends = [
            _ref_feasible_boundary(lambda t: feasible(np.array([t, 1.0 - t])), t_cap, end) for end in (0.0, 1.0)
        ]
        return min(ends), max(ends)

    def start(p0):
        s = _ref_feasible_boundary(lambda s: feasible((1.0 - s) * p0 + s * p_cap), 1.0, 0.0)
        return (1.0 - s) * p0 + s * p_cap

    def directions(p, j_plus, j_minus):
        for direction, t_max in itertools.chain(im._cg_directions(p, j_plus, j_minus), [(p_cap - p, 1.0)]):
            yield direction, _ref_feasible_boundary(lambda t: feasible(_ref_step(p, direction, t)), 0.0, t_max)

    return _ref_ascent(triple, interval, lambda: map(start, im._simplex_starts(n)), directions, tol, 2000)


def _assert_same_result(got, want):
    assert got.value.hex() == want.value.hex()
    assert got.argmax.tobytes() == want.argmax.tobytes()
    assert got.iterations == want.iterations
    assert got.certified_gap.hex() == want.certified_gap.hex()


@pytest.mark.parametrize("main, wire", TRIPLES_3 + ((bsc(0.05).rows, bsc(0.15).rows),))
def test_solvers_identical_to_uncached_form(main, wire):
    triple = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    rate = 0.8 * im.channel_capacity(triple.main).value
    _assert_same_result(im.secrecy_capacity(triple), _ref_secrecy_capacity(triple))
    _assert_same_result(im.gamma(triple, rate), _ref_gamma(triple, rate))


@pytest.mark.parametrize("max_iter", [1, 2, 3])
@pytest.mark.parametrize("main, wire", TRIPLES_3)
def test_lockstep_ascent_honours_iteration_cap(main, wire, max_iter):
    # the iteration cap stops the starts mid-ascent
    triple = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    got = im.secrecy_capacity(triple, max_iter=max_iter)
    _assert_same_result(got, _ref_secrecy_capacity(triple, max_iter=max_iter))


@st.composite
def _sparse_triples(draw):
    # 3-5 inputs, 2-4 outputs per channel, entries below 0.3 zeroed
    n_in, y_size, z_size = draw(st.integers(3, 5)), draw(st.integers(2, 4)), draw(st.integers(2, 4))

    def rows(n_rows, n_out):
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n_rows * n_out, max_size=n_rows * n_out))
        q = np.array(raw).reshape(n_rows, n_out)
        q[q < 0.3] = 0.0
        q[np.arange(n_rows), np.argmax(q, axis=1)] += 0.05  # no all-zero row
        return q / q.sum(axis=1, keepdims=True)

    return ChannelTriple(channel_from_rows(rows(n_in, y_size)), channel_from_rows(rows(y_size, z_size)))


@settings(max_examples=8, deadline=None)
@given(triple=_sparse_triples(), frac=st.sampled_from([None, 0.0, 0.5, 0.999]))
def test_lockstep_solvers_equal_scalar_reference(triple, frac):
    # frac None is secrecy_capacity; 0.999 of C_M binds the rate constraint
    if frac is None:
        _assert_same_result(im.secrecy_capacity(triple), _ref_secrecy_capacity(triple))
    else:
        rate = frac * im.channel_capacity(triple.main).value
        _assert_same_result(im.gamma(triple, rate), _ref_gamma(triple, rate))


@pytest.mark.parametrize("main, wire, points", [(bsc(0.05).rows, bsc(0.15).rows, 6), (*TRIPLES_3[0], 3)])
def test_gamma_curve_solves_capacity_once(main, wire, points, monkeypatch):
    triple = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    want = [im.gamma(triple, r).value for r, _ in im.gamma_curve(triple, points=points).points]
    calls = []
    real = im.channel_capacity
    monkeypatch.setattr(im, "channel_capacity", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    got = [v for _, v in im.gamma_curve(triple, points=points).points]
    assert len(calls) == 1
    assert [v.hex() for v in got] == [v.hex() for v in want]


def _per_row_validate(rows, tol=1e-12):
    # channels.validate's row loop, run over every row
    for i, row in enumerate(np.asarray(rows, dtype=float)):
        finite = np.isfinite(row)
        if not finite.all():
            return f"row {i}: non-finite entry {float(row[~finite][0])}"
        outside = (row < 0.0) | (row > 1.0 + tol)
        if outside.any():
            return f"row {i}: entry {float(row[np.argmax(outside)])!r} outside [0, 1]"
        residual = abs(float(row.sum()) - 1.0)
        if residual > tol:
            return f"row {i}: sum residual {residual:.6g}"
    return None


def test_validate_screen_agrees_with_row_loop():
    # row sums straddling the tolerance, in both memory orders and at widths
    # where numpy's pairwise summation splits a row into blocks
    rng = np.random.default_rng(21)
    for trial in range(400):
        n_in, n_out = int(rng.integers(1, 12)), int(rng.choice([2, 7, 9, 130, 300]))
        rows = rng.random((n_in, n_out))
        rows /= rows.sum(axis=1, keepdims=True)
        i, j = rng.integers(n_in), rng.integers(n_out)
        rows[i, j] += rng.choice([0.0, 5e-13, 1e-12, 1.5e-12, -3e-12, np.nan])
        if trial % 2:
            rows = np.asfortranarray(rows)
        assert validate(rows) == _per_row_validate(rows)


# float.hex of every result, recorded before secrecy_capacity and gamma shared
# one ascent and the two theorems one assembler; rates are fractions of C_M
# (0.999 binds on both TRIPLES_3 bases, and no rate binds on a BSC pair).
_SOLVER_GOLDEN = {
    ('bsc', None): ('0x1.9e34706955624p-2', ('0x1.ffffff42a2575p-2', '0x1.0000005eaed46p-1'), 300, '0x1.c36e580000000p-27'),
    ('bsc', 0.0): ('0x1.9e34706955624p-2', ('0x1.ffffff42a2575p-2', '0x1.0000005eaed46p-1'), 300, '0x1.c36e580000000p-27'),
    ('bsc', 0.5): ('0x1.9e34706955626p-2', ('0x1.ffffff93dedf1p-2', '0x1.0000003610908p-1'), 300, '0x1.01c54d0000000p-27'),
    ('bsc', 0.999): ('0x1.9e34706955628p-2', ('0x1.ffffffc54d64dp-2', '0x1.0000001d594dap-1'), 300, '0x1.17dc220000000p-28'),
    ('triples3_0', None): ('0x1.dbf685fe25970p-2', ('0x1.5be6ca502fc58p-2', '0x1.55c86b2a98b67p-2', '0x1.4e50ca8537841p-2'), 47, '0x1.02a6f70000000p-30'),
    ('triples3_0', 0.0): ('0x1.dbf685fe25970p-2', ('0x1.5be6cabe30012p-2', '0x1.55c86ac3c0a74p-2', '0x1.4e50ca7e0f57bp-2'), 48, '0x1.4dc504a000000p-27'),
    ('triples3_0', 0.5): ('0x1.dbf685fe2596ep-2', ('0x1.5be6ca7755cf2p-2', '0x1.55c86b12a2116p-2', '0x1.4e50ca76081f8p-2'), 48, '0x1.839c9a8000000p-29'),
    ('triples3_0', 0.999): ('0x1.dbd9389280b34p-2', ('0x1.5dcd63efe0d2cp-2', '0x1.4be1140a69696p-2', '0x1.56518805b5c3dp-2'), 14, '0x1.cd38df97aee60p-7'),
    ('triples3_1', None): ('0x1.225e484801854p-1', ('0x1.8b470d9fc37acp-2', '0x1.1efb8fc424fcbp-2', '0x1.55bd629c17889p-2'), 50, '0x1.27f1494000000p-26'),
    ('triples3_1', 0.0): ('0x1.225e484801856p-1', ('0x1.8b470d33d8ab5p-2', '0x1.1efb905850dbbp-2', '0x1.55bd6273d6792p-2'), 48, '0x1.6564bd0000000p-28'),
    ('triples3_1', 0.5): ('0x1.225e484801856p-1', ('0x1.8b470d8227d95p-2', '0x1.1efb901a8f1c7p-2', '0x1.55bd6263490a6p-2'), 49, '0x1.0518b48000000p-27'),
    ('triples3_1', 0.999): ('0x1.225e36f6158bep-1', ('0x1.8b6d6cbf9377ep-2', '0x1.1e5f7b82da391p-2', '0x1.563317bd924f1p-2'), 28, '0x1.299d788bd4800p-10'),
}
_BOUND_GOLDEN = {
    ('zeta_n', 97): ('0x1.1b798adaaec1ap+2', 1),
    ('eta_n', 97): ('0x1.b52c88bd83994p+2', 1),
    ('zeta_n', 1024): ('0x1.ab8e38e38e38ep+1', 2),
    ('eta_n', 1024): ('0x1.39a05045e1183p+2', 1),
    ('zeta_n', 200000): ('0x1.41435b00422a2p+1', 2),
    ('eta_n', 200000): ('0x1.5a250bb503553p+1', 2),
    ('theorem1_bound', 1031): ('-0x1.580d1231623b4p+2', ('0x1.4a6955ce69a02p+0', '0x1.4aedbe46a0a77p-4', '0x1.0624dd2f1a9fcp-9', '0x1.f2a8c5ef163f7p+1', '0x1.0000000000000p-1', 1031), 1, True, ('-0x1.104e61d154817p+2', ('0x1.4b602df69c3ccp+0', '0x1.4aedbe46a0a77p-4', '0x1.0624dd2f1a9fcp-9', '0x1.ab6581a321d3fp+1', '0x1.0000000000000p-1', 1028), 2, True, None)),
    ('theorem3_bound', 1031): ('-0x1.14e41833bf8e0p+3', ('0x1.4f56428f07a85p-1', '0x1.4aedbe46a0a77p-4', '0x1.0624dd2f1a9fcp-9', '0x1.398264f0e01d2p+2', '0x1.0000000000000p-1', 1031), 1, True, ('-0x1.14fd77251fb82p+3', ('0x1.4ef187d456a55p-1', '0x1.4aedbe46a0a77p-4', '0x1.0624dd2f1a9fcp-9', '0x1.398f2c8aea26dp+2', '0x1.0000000000000p-1', 1028), 1, True, None)),
    ('theorem1_bound', 1024): ('-0x1.10eeab7c2e210p+2', ('0x1.4a710921c1c79p+0', '0x1.4aedbe46a0a77p-4', '0x1.0624dd2f1a9fcp-9', '0x1.ab8e38e38e38ep+1', '0x1.0000000000000p-1', 1024), 2, True, None),
    ('theorem3_bound', 1024): ('-0x1.1537e4a16c7e2p+3', ('0x1.4da739c9a8001p-1', '0x1.4aedbe46a0a77p-4', '0x1.0624dd2f1a9fcp-9', '0x1.39a05045e1183p+2', '0x1.0000000000000p-1', 1024), 1, True, None),
}


def _hex_result(r):
    return (r.value.hex(), tuple(x.hex() for x in r.argmax.tolist()), r.iterations, r.certified_gap.hex())


def _hex_report(r):
    if r is None:
        return None
    terms = tuple(v.hex() if isinstance(v, float) else v for v in r.terms.values())
    return (r.bound_value.hex(), terms, r.ell_star, r.vacuous, _hex_report(r.alternative))


def test_solvers_match_recorded_hex_values():
    triples = {"bsc": ChannelTriple(bsc(0.05), bsc(0.15))}
    for i, (main, wire) in enumerate(TRIPLES_3):
        triples[f"triples3_{i}"] = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    for (name, frac), want in _SOLVER_GOLDEN.items():
        triple = triples[name]
        if frac is None:
            got = im.secrecy_capacity(triple)
        else:
            got = im.gamma(triple, frac * im.channel_capacity(triple.main).value)
        assert _hex_result(got) == want, (name, frac)


def test_bounds_match_recorded_hex_values():
    p1 = bd.BoundParams(k=1, m=2, q_e=2, q_d=4, eps_r=0.01, eps_s=0.002, eps_n=0.1)
    p3 = bd.BoundParams(k=1, m=2, q_e=2, q_d=4, eps_r=0.01, eps_s=0.002, eps_n=0.1, omega=2)
    rng = np.random.default_rng(3)
    u = sequence_from_array(rng.integers(0, 2, 1031), 2)  # 1031 is prime: alternative set
    w = sequence_from_array(rng.integers(0, 2, 1031), 2)
    for (fn, n), want in _BOUND_GOLDEN.items():
        if fn == "zeta_n":
            got = tuple(v.hex() if isinstance(v, float) else v for v in bd.zeta_n(n, p1))
        elif fn == "eta_n":
            got = tuple(v.hex() if isinstance(v, float) else v for v in bd.eta_n(n, p3))
        elif fn == "theorem1_bound":
            got = _hex_report(bd.theorem1_bound(u, p1, 0.5, n=n))
        else:
            got = _hex_report(bd.theorem3_bound(u, w, p3, 0.5, n=n))
        assert got == want, (fn, n)


@st.composite
def _floored_triples(draw):
    # 3 inputs, every channel entry >= 0.05
    y_size, z_size = draw(st.integers(2, 3)), draw(st.integers(2, 3))

    def rows(n_in, n_out):
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n_in * n_out, max_size=n_in * n_out))
        q = np.array(raw).reshape(n_in, n_out) + 1e-3
        return 0.05 + (1.0 - 0.05 * n_out) * (q / q.sum(axis=1, keepdims=True))

    return ChannelTriple(channel_from_rows(rows(3, y_size)), channel_from_rows(rows(y_size, z_size)))


_GRID = [np.array(c) / 10 for c in itertools.product(range(11), repeat=3) if sum(c) == 10]


@settings(max_examples=8, deadline=None)
@given(triple=_floored_triples())
def test_blahut_arimoto_duality_bracket(triple):
    cap = im.channel_capacity(triple.main)
    assert np.isclose(im.mutual_information(cap.argmax, triple.main), cap.value, rtol=0.0, atol=1e-12)
    for p in _GRID:
        assert im.mutual_information(p, triple.main) <= cap.value + cap.certified_gap + 1e-12


@settings(max_examples=8, deadline=None)
@given(triple=_floored_triples())
def test_frank_wolfe_gap_bounds_grid_oracle(triple):
    res = im.secrecy_capacity(triple)
    assert im.secrecy_capacity_oracle(triple, grid_step=0.05) <= res.value + res.certified_gap + 1e-12


@settings(max_examples=8, deadline=None)
@given(triple=_floored_triples(), frac=st.sampled_from([0.3, 0.9, 0.999]))
def test_gamma_argmax_meets_its_rate(triple, frac):
    rate = frac * im.channel_capacity(triple.main).value
    res = im.gamma(triple, rate)
    # the feasible set is convex, so only rounding can put a line-search point below the rate
    assert im.mutual_information(res.argmax, triple.main) >= rate - 1e-12
    assert res.value == pytest.approx(im.secrecy_rate(res.argmax, triple), abs=1e-12)


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


def _random_rows(rng, n_in, n_out):
    rows = rng.random((n_in, n_out)) + 0.01
    rows[rng.random((n_in, n_out)) < 0.2] = 0.0  # as in sparse emissions
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
    main, wire = _random_rows(rng, 2, y_size), _random_rows(rng, y_size, z_size)
    triple = ChannelTriple(channel_from_rows(main), channel_from_rows(wire))
    assert _bitwise_equal(fc._enumerate_g3(enc, triple, n), _kron_g3(enc, triple, n))
    if side_size == 1:
        want = _kron_induced_rows(enc, triple, n)
        assert _bitwise_equal(fc.induced_security_channel(enc, triple, n).rows, want)


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
        with pytest.raises(BudgetError, match="joint enumeration needs"):
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


def test_chunk_kernels_build_no_cascade_power():
    # at m = 13 the 13-fold cascade power has 2^13 x 2^13 entries (512 MiB);
    # the induced channel itself has 2 x 2^13
    emit = {(0, 0): [(0, 1.0)], (0, 1): [(2 ** 13 - 1, 0.75), (5, 0.25)]}
    enc = fc.StochasticEncoderSpec(
        k=1, m=13, in_size=2, out_size=2, n_states=1, emit=emit, next_state=np.zeros((1, 2, 1), dtype=np.int64)
    )
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    tracemalloc.start()
    try:
        rows = fc.induced_security_channel(enc, triple, 1).rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    casc = triple.cascade.rows
    assert rows[0, 0] == pytest.approx(casc[0, 0] ** 13, rel=1e-12)
    want = 0.75 * casc[1, 1] ** 13 + 0.25 * casc[0, 1] ** 11 * casc[1, 1] ** 2
    assert rows[1, 2 ** 13 - 1] == pytest.approx(want, rel=1e-12)


def test_enumeration_rejects_encoder_alphabet_mismatch():
    # a ternary encoder output read through binary channel rows
    enc = _random_encoder(3, 1, 1, 1, 1, out_size=3)
    with pytest.raises(ValidationError, match="encoder output alphabet 3 does not match channel input 2"):
        fc.induced_security_channel(enc, ChannelTriple(bsc(0.1), bsc(0.2)), 2)


def test_chunk_kernel_counted_in_the_enumeration_budget():
    # one chunk of 2 x 2^12 z-blocks fits; 2^12 states make the kernel 2^25 entries
    n_states = 2 ** 12
    emit = {(s, u): [(u, 1.0)] for s in range(n_states) for u in range(2)}
    enc = fc.StochasticEncoderSpec(
        k=1, m=12, in_size=2, out_size=2, n_states=n_states, emit=emit,
        next_state=np.zeros((n_states, 2, 1), dtype=np.int64),
    )
    with pytest.raises(BudgetError, match=f"chunk kernel needs {2 ** 25} entries"):
        fc.induced_security_channel(enc, ChannelTriple(bsc(0.1), bsc(0.2)), 1)


def test_leak_arrays_checked_before_allocating():
    # G3 has 2^4 * 2^4 * 2^4 entries, but W-dot^4 of a 2 -> 20 leak channel
    # makes the joint with W-dot 2^4 * 20^4 * 2^4 entries (41 M, 330 MB)
    enc = _random_encoder(8, 1, 1, 2, 2)
    triple = ChannelTriple(bsc(0.1), bsc(0.2))
    wide = channel_from_rows(np.full((2, 20), 0.05))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="leaked-side joint needs 40960000 entries"):
            fc.conditional_leakage(enc, triple, wide, 4, np.full((16, 16), 1.0 / 256))
        # 136 grid points of 2^2 * 2^2 * 2^2 entries; the joint with W-dot^2
        # of a 2 -> 1100 leak channel has 2^2 * 1100^2 * 2^2 entries
        with pytest.raises(BudgetError, match="leaked-side joint needs 19360000 entries"):
            fc.max_conditional_leakage(enc, triple, channel_from_rows(np.full((2, 1100), 1 / 1100)), 2, 0.5)
        with pytest.raises(BudgetError, match="leaked-side joint needs 70560000 entries"):
            fc.conditional_leakage(enc, triple, channel_from_rows(np.full((2, 2100), 1 / 2100)), 2, np.full((4, 4), 1 / 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _kron_leakage_report(enc, g3, n, leak, mu):
    # the contraction before the leak channel was applied per position: its
    # n-fold power as one np.kron matrix, contracted whole by np.einsum
    leak_n = leak
    for _ in range(n - 1):
        leak_n = np.kron(leak_n, leak)
    p_uwz = mu[:, :, None] * g3
    p_udz = np.einsum("uwz,wd->udz", p_uwz, leak_n)
    return fc.LeakageReport(
        i_uz=im.mutual_information_from_joint(p_uwz.sum(axis=1)),
        i_uz_given_w=im.conditional_mutual_information(np.transpose(p_uwz, (0, 2, 1))),
        i_uz_given_wdot=im.conditional_mutual_information(np.transpose(p_udz, (0, 2, 1))),
        log2_qe=float(np.log2(enc.n_states)),
    )


def _random_mu(rng, n, side_size, sparse):
    mu = rng.dirichlet(np.ones(2 ** n * side_size ** n))
    if sparse:  # zero cells exercise the 0 log 0 terms
        mu[rng.random(mu.size) < 0.4] = 0.0
        mu[0] += 1e-3
        mu /= mu.sum()
    return mu.reshape(2 ** n, side_size ** n)


def _random_triple(rng):
    return ChannelTriple(channel_from_rows(_random_rows(rng, 2, 2)), channel_from_rows(_random_rows(rng, 2, 2)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_states=st.integers(1, 3),
    side_size=st.integers(2, 3),
    dot_size=st.integers(1, 4),
    n=st.integers(1, 4),
    sparse=st.booleans(),
)
def test_per_position_leakage_equals_kron_einsum(seed, n_states, side_size, dot_size, n, sparse):
    # leak outputs fewer than, equal to and more than the side alphabet
    enc = _random_encoder(seed, 1, 1, n_states, side_size)
    rng = np.random.default_rng(seed + 1)
    triple = _random_triple(rng)
    leak = _random_rows(rng, side_size, dot_size)
    mu = _random_mu(rng, n, side_size, sparse)
    rep = fc.conditional_leakage(enc, triple, channel_from_rows(leak), n, mu)
    ref = _kron_leakage_report(enc, fc._enumerate_g3(enc, triple, n), n, leak, mu)
    assert (rep.i_uz, rep.i_uz_given_w, rep.log2_qe) == (ref.i_uz, ref.i_uz_given_w, ref.log2_qe)
    assert rep.i_uz_given_wdot == pytest.approx(ref.i_uz_given_wdot, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_states=st.integers(1, 3),
    side_size=st.integers(2, 3),
    n=st.integers(1, 4),
    sparse=st.booleans(),
)
def test_leakage_without_leak_channel_conditions_on_w(seed, n_states, side_size, n, sparse):
    enc = _random_encoder(seed, 1, 1, n_states, side_size)
    rng = np.random.default_rng(seed + 1)
    rep = fc.conditional_leakage(enc, _random_triple(rng), None, n, _random_mu(rng, n, side_size, sparse))
    assert rep.i_uz_given_wdot == rep.i_uz_given_w


def test_leakage_runs_when_only_an_n_fold_leak_matrix_would_exceed_the_budget():
    # a 65-symbol side alphabet at n = 2: G3 and the leaked-side joint have
    # 4 * 65^2 * 4 entries each, but an n-fold leak matrix would have 65^4,
    # over the budget, which the per-position contraction never builds
    enc = _random_encoder(9, 1, 1, 2, 65)
    rng = np.random.default_rng(9)
    rep = fc.conditional_leakage(enc, _random_triple(rng), None, 2, _random_mu(rng, 2, 65, False))
    assert 65 ** 4 > fc.ENUMERATION_BUDGET
    assert rep.i_uz_given_wdot == rep.i_uz_given_w


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n_states=st.integers(1, 3),
    side_size=st.integers(2, 3),
    dot_size=st.integers(1, 4),
    n=st.integers(1, 3),
)
def test_leakage_sandwich_for_encoders_that_ignore_w(seed, n_states, side_size, dot_size, n):
    # criterion 9 on random systems: when the tables ignore w, Z depends on
    # (U, W) through U alone, so I(U;Z|W) <= I(U;Z|W-dot) <= that + log2 q_e
    rng = np.random.default_rng(seed)
    emit = {}
    for s, u in itertools.product(range(n_states), range(2)):
        law = _random_rows(rng, 1, 2)[0]
        for w in range(side_size):
            emit[(s, u, w)] = [(x, float(p)) for x, p in enumerate(law) if p > 0.0]
    nxt = np.repeat(rng.integers(0, n_states, (n_states, 2, 1)), side_size, axis=2)
    enc = fc.SideInfoEncoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=n_states, emit=emit, next_state=nxt, side_size=side_size
    )
    leak = channel_from_rows(_random_rows(rng, side_size, dot_size))
    rep = fc.conditional_leakage(enc, _random_triple(rng), leak, n, _random_mu(rng, n, side_size, False))
    assert rep.sandwich_slack >= -1e-9


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
        with pytest.raises(BudgetError, match="mu grid enumeration needs"):
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
    # the bin table is hashed once per assignment, in the first round that scans;
    # a round that ACKs hashes its released candidate once more. calls holds
    # one (data,) per candidate hashed, by the table or by bin_bits
    assign = fb.BinAssignment(n=8, alphabet_size=2, seed=3)
    w = SymbolSequence(Alphabet(2), (0, 1) * 4)
    calls = []
    real = fb._keyed_digest
    monkeypatch.setattr(fb, "_keyed_digest", lambda template, data: calls.append((data,)) or real(template, data))
    assert fb.list_decode_step(assign, w, 1, 1, 2, 0.5) == (False, None)  # 2 - 4 < 0
    assert calls == []
    first = fb.list_decode_step(assign, w, 1, 2, 2, 0.5)  # 4 - 4 = 0: a full scan
    assert len(calls) == 2 ** 8 + first[0]
    calls.clear()
    assert fb.list_decode_step(assign, w, 1, 2, 2, 0.5) == first
    assert len(calls) == first[0]
    calls.clear()
    later = fb.list_decode_step(assign, w, 5, 3, 2, 0.5)
    assert later[0] and calls == [(bytes(later[1].data),)]


def test_list_decode_step_checks_released_candidate_against_bin_bits():
    assign = fb.BinAssignment(n=6, alphabet_size=2, seed=4)
    u = SymbolSequence(Alphabet(2), (0, 1, 1, 0, 1, 0))
    prefix = assign.bin_bits(u.data)
    assert fb.list_decode_step(assign, u, prefix, 3, 2, 0.0) == (True, u)
    table = assign._bin_table().copy()
    table[table == prefix] ^= 1  # a table that puts every candidate of u's bin elsewhere
    table[0] = prefix
    object.__setattr__(assign, "_table", table)
    with pytest.raises(RuntimeError, match="bin table disagrees with bin_bits"):
        fb.list_decode_step(assign, u, prefix, 3, 2, 0.0)


@pytest.mark.parametrize("n, alpha, seed", [(1, 2, 0), (12, 2, 2 ** 40), (12, 3, -5), (2, 256, 2 ** 63 - 1)])
def test_bin_table_equals_bin_bits(n, alpha, seed):
    # (12, 3) has a 3-byte digest and spans 33 hashing chunks
    assign = fb.BinAssignment(n=n, alphabet_size=alpha, seed=seed)
    table = assign._bin_table()
    assert table.dtype == np.int64
    assert table.tolist() == [assign.bin_bits(c) for c in itertools.product(range(alpha), repeat=n)]
    assert assign._bin_table() is table


def test_bin_table_memory_is_bounded():
    # the 2^16-entry table takes 512 KiB; hashing every candidate in one step
    # would hold about 19 MiB of digests and candidate rows besides
    assign = fb.BinAssignment(n=16, alphabet_size=2, seed=1)
    tracemalloc.start()
    try:
        assign._bin_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("n, alpha, seed", [(1, 2, 0), (6, 2, 1), (8, 2, 2), (4, 3, 3), (5, 3, 4), (3, 5, 5)])
def test_conditional_rate_equals_conditional_lz_complexity(n, alpha, seed):
    # the reference sums c_l log2 c_l over joint_parse's multiplicities, in
    # their first-appearance order, apart from the pair walk the rate uses
    rng = np.random.default_rng(seed)
    for omega in (1, 2, alpha):
        w = SymbolSequence(Alphabet(omega), tuple(int(v) for v in rng.integers(0, omega, n)))
        for cand in itertools.product(range(alpha), repeat=n):
            u = SymbolSequence(Alphabet(alpha), cand)
            want = sum(c_l * math.log2(c_l) for _, c_l in joint_parse(u, w).w_phrases) / n
            assert _conditional_rate(cand, w.data, omega) == want
            assert conditional_lz_complexity(u, w) == want


def _frozen_run_session(u, w, r, delta, transport, seed):
    # run_session before the round jumps: one round at a time, every round
    # decoded by the full scan
    n = len(u)
    assign = fb.assign_bins(n, u.alphabet, seed)
    bits_total = assign.bits_total
    b_true = assign.bin_bits(u.data)
    rho_true = conditional_lz_complexity(u, w)
    i_star = 1
    while n * rho_true > i_star * r - n * delta:
        i_star += 1
    cap = max(i_star, math.ceil((bits_total + n * delta) / r) + 2)
    prefix = chunk_errors = 0
    reconstruction, acked, i = None, False, 0
    for i in range(1, cap + 1):
        lo, hi = (i - 1) * r, min(i * r, bits_total)
        nbits = max(hi - lo, 0)
        sent = (b_true >> (bits_total - hi)) & ((1 << nbits) - 1) if nbits else 0
        received, errored = transport.send_chunk(sent, nbits)
        chunk_errors += bool(errored)
        prefix = (prefix << nbits) | received
        acked, candidate = _full_scan_step(assign, w, prefix, i, r, delta)
        if acked:
            reconstruction = candidate
            break
    return (
        i, i_star, reconstruction.data if reconstruction else None, acked, chunk_errors,
        i * r / n, reconstruction is not None and reconstruction.data == u.data,
    )


@pytest.mark.parametrize("delta", [0.0, 0.5, 2.0, 5.0])
def test_run_session_equals_frozen_loop(delta):
    code = wb.build_code(6, 2, 1, [0.5, 0.5], seed=2)
    rng = np.random.default_rng(int(delta * 10))
    for case in range(6):
        u = tuple(int(v) for v in rng.integers(0, 2, 8))
        w = tuple(v ^ int(rng.random() < 0.25) for v in u)
        u, w = SymbolSequence(Alphabet(2), u), SymbolSequence(Alphabet(2), w)
        for r, transport in ((3, fb.IdealTransport), (2, lambda: fb.CodedTransport(code, bsc(0.2), seed=case))):
            t = fb.run_session(u, w, r, delta, transport(), seed=case)
            got = (
                t.chunks_sent, t.i_star, t.reconstruction.data if t.reconstruction else None, t.acked,
                t.chunk_error_count, t.compression_ratio, t.correct,
            )
            assert got == _frozen_run_session(u, w, r, delta, transport(), case)


def test_run_session_with_huge_delta_returns():
    # 4e9 rounds after the last bit; the skipped ones carry nothing and cannot ACK
    u = SymbolSequence(Alphabet(2), (0, 1, 1, 0, 1, 0, 0, 1))
    w = SymbolSequence(Alphabet(2), (0, 1, 0, 0, 1, 0, 0, 1))
    t = fb.run_session(u, w, 2, 1e9, fb.IdealTransport(), seed=4)
    assert t.acked
    assert 4 < t.chunks_sent <= t.i_star
    assert not 8 * conditional_lz_complexity(u, w) > t.i_star * 2 - 8 * 1e9
    assert 8 * conditional_lz_complexity(u, w) > (t.i_star - 1) * 2 - 8 * 1e9


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, 1e300, -0.5])
def test_feedback_rejects_bad_delta(delta):
    u = SymbolSequence(Alphabet(2), (0, 1, 1, 0))
    with pytest.raises(ValidationError, match="delta"):
        fb.run_session(u, u, 2, delta, fb.IdealTransport(), seed=0)
    with pytest.raises(ValidationError, match="delta"):
        fb.list_decode_step(fb.assign_bins(4, Alphabet(2), 0), u, 0, 1, 2, delta)


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
