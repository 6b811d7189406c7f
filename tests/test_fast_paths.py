"""The batched and cached kernels against the straightforward forms they replace.

Each reference below is the plain per-item computation; the fast path must
reproduce it bit for bit (==, not isclose).
"""

import tracemalloc

import numpy as np
import pytest

from secwire import info_measures as im
from secwire import wyner_binning as wb
from secwire.channels import ChannelTriple, bsc, channel_from_rows, sample
from secwire.errors import BudgetError
from secwire.rand import substream

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
