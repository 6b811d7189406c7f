"""Deterministic RNG plumbing.

Every stochastic entry point takes an integer seed and derives generators
through SeedSequence, so results depend only on (seed, call structure) and
never on evaluation order or thread count.

Trial loops key trial t to substream(seed, t). Building a SeedSequence, a
PCG64 and a Generator per trial costs several times the few draws a trial
makes, so a range of trials goes through one private block sampler instead:
_substream_words yields, block by block, the raw 64-bit words each trial's
PCG64 would produce, and _substream_draws turns them into the values that
the trial's integers(2**b) calls and its random(size) call return. Seeds
must be non-negative (check_seed) and trial indices below MAX_TRIALS, so
that a trial index is one entropy word. The sampler relies on these NumPy
behaviours:

- SeedSequence([seed, t]) splits each non-negative integer into 32-bit words,
  least significant first (0 is one word), mixes them into a pool of four
  words with its hashmix/mix steps, and generate_state(4, uint64) draws eight
  32-bit words from the pool, read as four little-endian 64-bit words. The
  sampler runs this mixing on arrays, SEED_CHUNK trials at a time.
- PCG64 seeded with those words (s_hi, s_lo, i_hi, i_lo) sets its increment
  to 2 * (i_hi i_lo) + 1 and takes two 128-bit LCG steps around adding
  (s_hi s_lo) to a zero state. One reused PCG64 gets that state per trial and
  draws its words with random_raw.
- Generator.integers(2**b) for 1 <= b <= 32 takes one 32-bit half of a raw
  word, the low half first and then the high half of the same word, and
  keeps its top b bits; integers(1) draws nothing. random() skips a left-over
  half: each value is (word >> 11) * 2**-53 of the next raw word.

A property test in tests/test_fast_paths.py checks the sampler's values
against substream(seed, t) itself, so a NumPy release that changes any of
these behaviours fails there.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# SeedSequence's mixing constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# the sampler keys trials by one 32-bit entropy word
MAX_TRIALS = 2 ** 32
# trials whose SeedSequence mixing runs as one array step (32 KiB per array)
SEED_CHUNK = 2 ** 12


def as_rng(seed) -> np.random.Generator:
    """Pass Generators through; anything else is checked and seeds a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(check_seed(seed))


def substream(*entropy: int) -> np.random.Generator:
    """Child generator keyed by a tuple of non-negative integers (seed, trial index, ...)."""
    return np.random.default_rng(np.random.SeedSequence([check_seed(e) for e in entropy]))


def check_seed(seed) -> int:
    """The seed as an int; SeedSequence takes non-negative integers only."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return int(seed)


def _words32(n: int) -> list:
    """SeedSequence's 32-bit words of a non-negative integer, least significant first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_pool(entropy: list) -> list:
    """SeedSequence's mixed pool of four 32-bit words for the given entropy words.

    A word is an int or a uint64 array of 32-bit values. Array words mix
    elementwise, so one call mixes the entropy of many trials.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate_state64(pool: list) -> list:
    """SeedSequence.generate_state(4, uint64) of a mixed pool, as four words."""
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> 16))
    return [halves[j] | (halves[j + 1] << 32) for j in range(0, 8, 2)]


def _pcg_seeds(seed: int, start: int, stop: int):
    """(state, inc) of the PCG64 of substream(seed, t), for t in [start, stop) in order.

    The SeedSequence mixing runs on arrays of SEED_CHUNK trials at a time.
    """
    entropy = _words32(seed)
    for lo in range(start, stop, SEED_CHUNK):
        trials = np.arange(lo, min(lo + SEED_CHUNK, stop), dtype=np.uint64)
        words = _generate_state64(_seed_pool(entropy + [trials]))
        s_hi, s_lo, i_hi, i_lo = (w.tolist() for w in words)
        for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
            inc = ((((c << 64) | d) << 1) | 1) & _MASK128
            yield ((inc + ((a << 64) | b)) * _PCG_MULT + inc) & _MASK128, inc


def _substream_words(seed: int, start: int, stop: int, block: int, k: int):
    """Raw PCG64 words of substream(seed, t) for the trials t in [start, stop).

    Yields one uint64 array per run of `block` consecutive trials (the last
    run may be shorter); its row t - lo holds the first k 64-bit outputs of
    trial t's bit generator. One reused PCG64 takes each trial's state.
    """
    seed = check_seed(seed)
    if not 0 <= start <= stop <= MAX_TRIALS:
        raise ValidationError(f"trial range [{start}, {stop}) outside [0, {MAX_TRIALS})")
    if block < 1:
        raise ValidationError(f"block must be >= 1, got {block}")

    def blocks():
        seeds = _pcg_seeds(seed, start, stop)
        bitgen = np.random.PCG64(0)
        state = bitgen.state
        lcg = state["state"]
        for lo in range(start, stop, block):
            out = np.empty((min(block, stop - lo), k), dtype=np.uint64)
            for row, (lcg_state, inc) in zip(out, seeds):
                lcg["state"], lcg["inc"] = lcg_state, inc
                bitgen.state = state
                row[:] = bitgen.random_raw(k)
            yield out

    return blocks()


def _substream_draws(seed: int, start: int, stop: int, block: int, bits, size: int):
    """Draws of substream(seed, t) for the trials t in [start, stop).

    A trial's draws are integers(2**b) for each b in bits, in turn, then
    random(size); each b must lie in [0, 32]. Returns an iterator of
    (ints, uniforms), one per run of `block` consecutive trials as
    _substream_words yields them: int64 of shape (trials, len(bits)) and
    float64 of shape (trials, size).
    """
    if not all(0 <= b <= 32 for b in bits):
        raise ValidationError(f"integer draws take 0 to 32 bits, got {list(bits)}")
    lead = (sum(1 for b in bits if b) + 1) // 2
    words = _substream_words(seed, start, stop, block, lead + size)
    return (_split_words(w, bits, lead) for w in words)


def _split_words(words: np.ndarray, bits, lead: int) -> tuple:
    """integers(2**b) draws from the 32-bit halves of the first `lead` words, uniforms from the rest."""
    ints = np.zeros((words.shape[0], len(bits)), dtype=np.int64)
    half = 0
    for col, b in enumerate(bits):
        if b:
            buffered = (words[:, half // 2] >> (32 * (half % 2))) & _MASK32
            ints[:, col] = buffered >> (32 - b)
            half += 1
    return ints, (words[:, lead:] >> 11) * 2.0 ** -53


def inverse_cdf_sample(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Map uniform draws through a CDF row or matrix of per-draw CDF rows.

    cum has shape (m,) or (len(draws), m); returns int64 indices in [0, m).
    """
    if cum.ndim == 1:
        idx = np.searchsorted(cum, draws, side="right")
    else:
        idx = (cum <= draws[:, None]).sum(axis=1)
    return np.minimum(idx, cum.shape[-1] - 1).astype(np.int64)
