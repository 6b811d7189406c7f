"""Random binning (Wyner) wiretap codes with exact leakage accounting.

A code is a table of 2^secret_bits bins times 2^random_bits codewords per
bin, drawn i.i.d. from the input distribution. The secret selects the bin,
local randomness selects the codeword inside it.

Leakage I(secret; Z^N) is computed exactly by enumerating the eavesdropper's
output space. Each bin's summed output law comes from channels.output_laws,
the contraction the FSM enumerator uses too, over the prefix tree of the
bin's codewords: shared prefixes are computed once, and a repeated codeword
enters once, with its count as weight. The budget counts the per-bin laws
(2^secret_bits x |Z|^N) plus one group's tables of at most
channels.CONTRACTION_BLOCK_ENTRIES entries; it is checked, as the
codebook's is, before anything is allocated.

ML decoding has one scorer, _ml_decisions, for a stack of received words:
each word's (input, output) pair counts for every codeword come from 0/1
matrix products, and its scores are those counts times the log-channel.
The codebook's 0/1 matrices and the log-channel (_ml_scorer) are built once
per ml_decode or monte_carlo_error call. ml_decode scores one word.

Decoding error is estimated by Monte Carlo over the main channel. Trial t
draws from substream(seed, t), read through the block-trial sampler in rand
(_substream_draws): it returns what that generator's integers and random
calls would, from raw PCG64 words, without a Generator per trial; a property
test pins it to substream itself. Trials run in blocks whose pair counts
and length-N arrays fill at most MC_BLOCK_ENTRIES float64 entries (a block
is never smaller than one trial). A block looks its codewords up with one
index, passes them through the channel with one inverse-CDF step, the
comparison channels.sample makes, so its received words equal sample's
without a sequence object per trial, and tallies its errors with array
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelTriple, TransitionMatrix, _check_input, law_group, output_laws
from .errors import ValidationError, check_budget
from .info_measures import check_prob_vector, _entropy_raw, mutual_information, secrecy_capacity
from .bounds import BoundParams, theorem2_bound
from .parsing import lz_complexity, prefix_phrase_counts
from .rand import _substream_draws, as_rng, inverse_cdf_sample
from .sequences import Alphabet, SymbolSequence

# finite stand-in for log 0 so impossible codewords compare exactly
LOG_FLOOR = -1e18
# entries per Monte Carlo trial block (2^19 float64 = 4 MiB)
MC_BLOCK_ENTRIES = 2 ** 19


@dataclass(frozen=True, eq=False)
class WynerCode:
    """Binned random codebook of shape (2^secret_bits, 2^random_bits, N)."""

    block_len: int
    secret_bits: int
    random_bits: int
    codebook: np.ndarray
    input_dist: np.ndarray
    seed: int

    @property
    def in_size(self) -> int:
        return int(self.input_dist.size)

    @property
    def bins(self) -> int:
        return 2 ** self.secret_bits

    @property
    def words_per_bin(self) -> int:
        return 2 ** self.random_bits


def build_code(block_len: int, secret_bits: int, random_bits: int, input_dist, seed: int) -> WynerCode:
    """Draw a codebook i.i.d. from input_dist; deterministic given the seed."""
    if block_len < 1:
        raise ValidationError(f"block length must be >= 1, got {block_len}")
    if secret_bits < 1:
        raise ValidationError(f"secret_bits must be >= 1, got {secret_bits}")
    if random_bits < 0:
        raise ValidationError(f"random_bits must be >= 0, got {random_bits}")
    p = check_prob_vector(input_dist)
    if secret_bits + random_bits > block_len * math.log2(p.size) + 1e-12:
        raise ValidationError(
            f"rate overflow: {secret_bits} + {random_bits} bits exceed "
            f"{block_len} symbols over an alphabet of {p.size}"
        )
    check_budget("codebook", (2, secret_bits + random_bits), block_len)
    total_words = (2 ** secret_bits) * (2 ** random_bits)
    rng = as_rng(seed)
    draws = rng.random((total_words, block_len))
    cum = np.cumsum(p)
    flat = inverse_cdf_sample(cum, draws.ravel()).reshape(total_words, block_len)
    codebook = flat.reshape(2 ** secret_bits, 2 ** random_bits, block_len)
    codebook.setflags(write=False)
    return WynerCode(
        block_len=block_len,
        secret_bits=secret_bits,
        random_bits=random_bits,
        codebook=codebook,
        input_dist=p,
        seed=int(seed),
    )


def wyner_encode(code: WynerCode, secret: int, inner: int) -> SymbolSequence:
    """Look up the codeword for (secret bin, inner randomness)."""
    if not 0 <= secret < code.bins:
        raise ValidationError(f"secret index {secret} outside [0, {code.bins})")
    if not 0 <= inner < code.words_per_bin:
        raise ValidationError(f"inner index {inner} outside [0, {code.words_per_bin})")
    return SymbolSequence(Alphabet(code.in_size), code.codebook[secret, inner])


def ml_decode(code: WynerCode, y: SymbolSequence, ch: TransitionMatrix) -> tuple:
    """Maximum-likelihood codeword over the given channel; returns (secret, inner).

    Log-likelihoods are computed as integer (input, output) pair counts dotted
    with the log-channel in a fixed order, so codewords inducing the same pair
    multiset get bitwise-equal scores and ties resolve lexicographically by
    (secret, inner).
    """
    if ch.in_alphabet.size != code.in_size:
        raise ValidationError(
            f"channel input {ch.in_alphabet.size} does not match code alphabet {code.in_size}"
        )
    if len(y) != code.block_len:
        raise ValidationError(f"received word length {len(y)}, expected {code.block_len}")
    if y.alphabet.size != ch.out_alphabet.size:
        raise ValidationError(
            f"received alphabet {y.alphabet.size} does not match channel output "
            f"{ch.out_alphabet.size}"
        )
    best = _ml_decisions(*_ml_scorer(code, ch), y.array()[None])
    return divmod(int(best[0]), code.words_per_bin)


def _ml_scorer(code: WynerCode, ch: TransitionMatrix) -> tuple:
    """The code- and channel-side inputs of _ml_decisions, built once per call.

    Returns the codebook's 0/1 position matrices, one (N, codewords) matrix
    per input symbol, and the log-channel with LOG_FLOOR for log 0.
    """
    flat_cw = code.codebook.reshape(-1, code.block_len)
    x_onehot = [(flat_cw == a).astype(float).T for a in range(code.in_size)]
    with np.errstate(divide="ignore"):
        logch = np.log2(ch.rows).ravel()
    return x_onehot, np.where(np.isfinite(logch), logch, LOG_FLOOR)


def _ml_decisions(x_onehot: list, logch: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """ML codeword of every received word ys[t], as its flat index secret * words_per_bin + inner.

    x_onehot and logch come from _ml_scorer; logch holds in_size * out_size
    entries. A word's scores are its _pair_counts matrix times the
    log-channel. The stacked product runs one matrix-vector product per
    word, the same one a single word's counts @ logch runs, so a word's
    decision does not depend on the others; argmax keeps the first maximum.
    """
    counts = _pair_counts(x_onehot, ys, logch.size // len(x_onehot))
    return np.argmax(counts @ logch, axis=1)


def _pair_counts(x_onehot: list, ys: np.ndarray, out_size: int) -> np.ndarray:
    """counts[t, w, a * out_size + b] = #{i : codeword w has a and ys[t] has b at i}.

    x_onehot[a] is the (N, codewords) 0/1 matrix of codeword positions holding
    a. One 0/1 matrix product per (a, b) gives exact integer counts, laid out
    so that counts[t] is a C-contiguous (codewords, pairs) matrix.
    """
    counts = np.empty((ys.shape[0], x_onehot[0].shape[1], len(x_onehot) * out_size))
    for b in range(out_size):
        y_b = (ys == b).astype(float)
        for a, x_a in enumerate(x_onehot):
            counts[:, :, a * out_size + b] = y_b @ x_a
    return counts


def code_leakage(code: WynerCode, eaves_channel: TransitionMatrix) -> float:
    """Exact I(secret; Z^N) in bits, uniform secret and inner randomness.

    Raises BudgetError, before allocating anything, when the (bins, |Z|^N)
    per-bin laws plus one group's tables would exceed the enumeration
    budget; that is the peak memory. Each bin's law is contracted by
    channels.output_laws, then divided by words_per_bin. The sums run in
    tree order, so the result can differ from the direct per-codeword
    formula in the last bits.
    """
    if eaves_channel.in_alphabet.size != code.in_size:
        raise ValidationError(
            f"channel input {eaves_channel.in_alphabet.size} does not match code alphabet "
            f"{code.in_size}"
        )
    rows = eaves_channel.rows
    group = law_group("output-law enumeration", code.bins, code.words_per_bin, *rows.shape, code.block_len)
    per_bin = output_laws(*_bin_words(code), rows, group)
    per_bin /= code.words_per_bin
    marginal = per_bin.mean(axis=0)
    h_cond = sum(_entropy_raw(row) for row in per_bin) / code.bins
    return max(_entropy_raw(marginal) - h_cond, 0.0)


def _bin_words(code: WynerCode) -> tuple:
    """The sorted, distinct (bin, x_1 .. x_N) rows of the codebook and their counts: output_laws' keys and weights."""
    n = code.block_len
    # (bin, x_1 .. x_N) rows in the narrowest unsigned type, which lexsort sorts by radix
    keys = np.empty((code.bins * code.words_per_bin, n + 1), np.min_scalar_type(max(code.bins, code.in_size) - 1))
    keys[:, 0] = np.repeat(np.arange(code.bins), code.words_per_bin)
    keys[:, 1:] = code.codebook.reshape(-1, n)
    keys = keys[np.lexsort(keys.T[::-1])]
    distinct = np.flatnonzero(np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1))))
    return keys[distinct], np.diff(distinct, append=len(keys))


@dataclass(frozen=True)
class DecodeErrorEstimate:
    trials: int
    secret_errors: int
    word_errors: int

    @property
    def secret_error_rate(self) -> float:
        return self.secret_errors / self.trials

    @property
    def word_error_rate(self) -> float:
        return self.word_errors / self.trials


def monte_carlo_error(code: WynerCode, ch: TransitionMatrix, trials: int, seed: int) -> DecodeErrorEstimate:
    """Estimate ML decoding error over the channel, uniform (secret, inner).

    Trial t draws its secret, inner index and channel uniforms from
    substream(seed, t), in that order, through the block-trial sampler. Trials
    run in blocks whose pair counts and length-N arrays fill at most
    MC_BLOCK_ENTRIES entries, or one trial's if those alone exceed it: a
    block looks up its codewords, passes them through the channel with one
    inverse-CDF step (the one sample makes per word) and decodes them with
    ml_decode's scorer, built once per call. A negative seed, or more than
    2^32 trials, raises ValidationError.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    _check_input(code.in_size, ch)
    words_per_bin = code.words_per_bin
    out_size = ch.out_alphabet.size
    # pair counts; uniforms, raw words, codeword, CDF rows (out_size each) and received word
    per_trial = code.bins * words_per_bin * code.in_size * out_size + code.block_len * (out_size + 4)
    block = max(1, MC_BLOCK_ENTRIES // per_trial)
    scorer = _ml_scorer(code, ch)
    cum = np.cumsum(ch.rows, axis=1)
    bits = (code.secret_bits, code.random_bits)
    secret_errs = word_errs = 0
    for ints, draws in _substream_draws(seed, 0, trials, block, bits, code.block_len):
        secrets, inners = ints.T
        x = code.codebook[secrets, inners]
        received = inverse_cdf_sample(cum[x.ravel()], draws.ravel()).reshape(x.shape)
        best = _ml_decisions(*scorer, received)
        secret_errs += int(np.count_nonzero(best // words_per_bin != secrets))
        word_errs += int(np.count_nonzero(best != secrets * words_per_bin + inners))
    return DecodeErrorEstimate(trials=trials, secret_errors=secret_errs, word_errors=word_errs)


@dataclass(frozen=True)
class AuditReport:
    """Randomness accounting against the Theorem-2 necessity line.

    j_per_chunk is the code's local randomness per chunk of m channel
    symbols; bound is m I(X*;Z*) - k eps_s - log2(q_e)/ell at the
    secrecy-capacity-achieving input. passed means the code spends at least
    the provably necessary randomness.
    """

    j_per_chunk: float
    bound: float
    margin: float
    i_xz_star: float
    ell: int
    passed: bool


def randomness_audit(code: WynerCode, triple: ChannelTriple, params: BoundParams, ell: int) -> AuditReport:
    """Compare the code's random_bits per chunk with the Theorem-2 bound."""
    if not isinstance(ell, int) or ell < 1:
        raise ValidationError(f"ell must be a positive integer, got {ell!r}")
    if code.block_len != params.m * ell:
        raise ValidationError(
            f"block length {code.block_len} is not m * ell = {params.m} * {ell}"
        )
    if code.in_size != triple.main.in_alphabet.size:
        raise ValidationError("code alphabet does not match the channel input alphabet")
    cs = secrecy_capacity(triple, tol=1e-10)
    i_xz = mutual_information(cs.argmax, triple.cascade)
    bound = theorem2_bound(params, ell, i_xz)
    j_per_chunk = code.random_bits / ell
    return AuditReport(
        j_per_chunk=j_per_chunk,
        bound=bound,
        margin=j_per_chunk - bound,
        i_xz_star=i_xz,
        ell=ell,
        passed=j_per_chunk >= bound,
    )


def separation_plan(
    u: SymbolSequence,
    triple: ChannelTriple,
    delta: float,
    mode: str,
    block_len: int | None = None,
) -> dict:
    """Source/channel separation accounting: LZ compress, then Wyner-code.

    No bitstream is emitted; the plan reports lengths. The payload is
    ceil(n rho_LZ) bits and the auxiliary header carries the payload length in
    ceil(log2(n log2 alpha)) bits. mode 'fixed' maps the whole sequence to
    the number of channel uses N = ceil(bits / (C_s (1 - delta))); mode 'vtf'
    fixes N and consumes the longest prefix whose compressed size fits.
    """
    if not 0.0 <= delta < 1.0:
        raise ValidationError(f"delta must lie in [0, 1), got {delta}")
    if mode not in ("fixed", "vtf"):
        raise ValidationError(f"mode must be 'fixed' or 'vtf', got {mode!r}")
    n = len(u)
    alpha = u.alphabet.size
    if alpha < 2:
        raise ValidationError("separation needs a source alphabet of size >= 2")
    if n == 0:
        raise ValidationError("separation needs a nonempty source sequence")
    cs = secrecy_capacity(triple, tol=1e-10)
    if cs.value <= 0.0:
        raise ValidationError(f"secrecy capacity {cs.value} is not positive")
    effective = cs.value * (1.0 - delta)
    aux_bits = math.ceil(math.log2(n * math.log2(alpha)))
    plan = {
        "mode": mode,
        "n": n,
        "delta": delta,
        "c_s": cs.value,
        "aux_bits": aux_bits,
    }
    if mode == "fixed":
        rho = lz_complexity(u)
        payload = math.ceil(n * rho)
        uses = math.ceil(payload / effective)
        plan.update(
            rho=rho,
            payload_bits=payload,
            channel_uses=uses,
            channel_uses_with_header=math.ceil((payload + aux_bits) / effective),
            lam=uses / n,
        )
        return plan
    if block_len is None or block_len < 1:
        raise ValidationError("mode 'vtf' needs a positive block_len")
    budget_bits = block_len * effective
    counts = prefix_phrase_counts(u)
    n_prefix = 0
    for i, c in enumerate(counts, start=1):
        if math.ceil(c * math.log2(c)) <= budget_bits:
            n_prefix = i
    if n_prefix == 0:
        raise ValidationError(
            f"block length {block_len} cannot carry even one source symbol at delta {delta}"
        )
    c_pref = counts[n_prefix - 1]
    plan.update(
        block_len=block_len,
        budget_bits=budget_bits,
        consumed=n_prefix,
        payload_bits=int(math.ceil(c_pref * math.log2(c_pref))),
        rho=c_pref * math.log2(c_pref) / n_prefix,
        lam=block_len / n_prefix,
    )
    return plan
