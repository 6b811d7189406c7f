"""Feedback transmission of an individual sequence by random binning.

The encoder hashes u^n to a bin index of L = ceil(n log2 alpha) bits and
feeds it to the decoder r bits at a time. After chunk i the decoder lists
every u' whose bin shares the received prefix, picks the one minimizing the
conditional LZ complexity given its side sequence w^n, and ACKs (through the
noiseless feedback link) once n rho_min <= i r - n delta. The true sequence
always survives the prefix filter when chunks arrive intact, so the session
ends by i* = ceil((n rho(u|w) + n delta) / r) and the compression ratio is at
most rho + delta + r/n.

Bin assignment is lazy: a keyed blake2b hash stands in for the shared random
binning table, so the encoder never materializes anything of size alpha^n.
The decoder's list step ranks the alpha^n candidates (budget-guarded) once
per side sequence: one walk of the candidate tree (parsing._candidate_rates)
gives every conditional rate, and a stable sort orders the candidates by
(rate, index), kept as NumPy arrays (12 MiB at LIST_BUDGET) and shared by
every session with the same w. The survivor a round releases is the first
candidate in that order whose bin prefix matches, so a round walks the order
while n rho <= i r - n delta, the ACK test itself, and stops at the first
match. Bins come from bin_bits, the encoder's own hash, memoized per
assignment in an int32 array, so no candidate is hashed twice in a session
and none past the threshold is hashed at all. Every hash copies a keyed
blake2b object (_keyed_digest), which costs less than keying a new one per
input. Rounds whose threshold i r - n delta is negative cannot ACK, since
n rho_min >= 0, so they rank and hash nothing.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import TransitionMatrix, sample
from .errors import LIST_BUDGET, ValidationError, check_budget
from .parsing import _candidate_rates, conditional_lz_complexity
from .rand import substream
from .sequences import Alphabet, SymbolSequence
from .wyner_binning import WynerCode, ml_decode, wyner_encode

MAX_BIN_BITS = 512  # one blake2b digest


def _check_delta(delta: float, n: int) -> None:
    # the threshold i*r - n*delta tells consecutive rounds apart only while n*delta < 2^53;
    # NaN fails the test too
    if not 0.0 <= n * delta < 2.0 ** 53:
        raise ValidationError(f"delta must be nonnegative and n * delta below 2^53, got {delta}")


def _first_round(ok, start: int, first: int) -> int:
    """Smallest round i >= first with ok(i), for ok monotone in i, walked from start."""
    i = max(start, first)
    while i > first and ok(i - 1):
        i -= 1
    while not ok(i):
        i += 1
    return i


def _digits(index: int, n: int, alpha: int) -> bytes:
    """Candidate number index of itertools.product(range(alpha), repeat=n), one byte a symbol."""
    digits = bytearray(n)
    for j in range(n - 1, -1, -1):
        index, digits[j] = divmod(index, alpha)
    return bytes(digits)


@functools.lru_cache(maxsize=1)
def _ranking(n: int, alpha: int, w_packed: bytes, omega: int) -> tuple:
    """(rates in ascending order, the candidate indices in that order), ties by index.

    Both are read-only arrays: float64 and int32, since alpha^n is within
    LIST_BUDGET. The one entry cached is the last w ranked, which the
    sessions of one CLI call share.
    """
    rates = np.frombuffer(_candidate_rates(n, alpha, w_packed, omega), dtype=np.float64)
    order = np.argsort(rates, kind="stable").astype(np.int32)
    ranked = rates[order]
    ranked.flags.writeable = order.flags.writeable = False
    return ranked, order


def _keyed_digest(template, data: bytes) -> bytes:
    """Digest of data under a keyed blake2b template; the template is left unchanged."""
    h = template.copy()
    h.update(data)
    return h.digest()


@dataclass(frozen=True)
class BinAssignment:
    """Keyed-hash bin assignment for sequences of length n over a fixed alphabet.

    bits_total is L = ceil(n log2 alpha); bin_bits returns the L-bit bin index
    as an integer, most significant chunk first.
    """

    n: int
    alphabet_size: int
    seed: int
    bits_total: int = field(init=False)
    _key: bytes = field(init=False, repr=False, compare=False)
    _digest_size: int = field(init=False, repr=False, compare=False)
    _shift: int = field(init=False, repr=False, compare=False)
    _bins: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if self.alphabet_size < 2:
            raise ValidationError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        bits = math.ceil(self.n * math.log2(self.alphabet_size))
        if bits > MAX_BIN_BITS:
            raise ValidationError(f"bin index of {bits} bits exceeds the {MAX_BIN_BITS}-bit digest")
        if self.alphabet_size > 256:
            raise ValidationError("alphabet sizes above 256 are not supported by the hash layout")
        object.__setattr__(self, "bits_total", bits)
        digest_size = (bits + 7) // 8
        object.__setattr__(self, "_key", int(self.seed).to_bytes(8, "big", signed=True))
        object.__setattr__(self, "_digest_size", digest_size)
        object.__setattr__(self, "_shift", 8 * digest_size - bits)

    def _hasher(self):
        """This assignment's keyed blake2b, with nothing hashed yet."""
        return hashlib.blake2b(key=self._key, digest_size=self._digest_size)

    def bin_bits(self, symbols) -> int:
        """L-bit bin index of the given length-n symbol tuple."""
        data = bytes(symbols)
        if len(data) != self.n:
            raise ValidationError(f"sequence length {len(data)}, expected {self.n}")
        return int.from_bytes(_keyed_digest(self._hasher(), data), "big") >> self._shift

    def _bin_memo(self) -> np.ndarray:
        """bin_bits by candidate index, -1 where not hashed yet; made on first use.

        Callers keep alpha^n within LIST_BUDGET, so a bin has at most 20 bits.
        """
        if self._bins is None:
            object.__setattr__(self, "_bins", np.full(self.alphabet_size ** self.n, -1, dtype=np.int32))
        return self._bins


def assign_bins(n: int, alphabet: Alphabet, seed: int) -> BinAssignment:
    return BinAssignment(n=n, alphabet_size=alphabet.size, seed=int(seed))


def list_decode_step(
    assign: BinAssignment,
    w: SymbolSequence,
    received_prefix: int,
    i: int,
    r: int,
    delta: float,
) -> tuple:
    """One decoder round: filter by bin prefix, rank by conditional complexity.

    received_prefix holds the first min(i*r, L) bin bits as an integer.
    Returns (ack, candidate); the candidate is released only on ACK and ties
    in complexity go to the lexicographically smallest sequence. A round
    whose threshold i*r - n*delta is negative returns (False, None) after
    validation, without ranking or hashing: no complexity is negative.
    Otherwise the round walks the (rate, index) order while n*rho is within
    the threshold and releases the first candidate whose bin_bits prefix is
    the received one; the survivor of least (rate, index) is that candidate,
    and when it is past the threshold, so is every other survivor.
    """
    if i < 1 or r < 1:
        raise ValidationError(f"chunk index and size must be >= 1, got i={i}, r={r}")
    n, alpha = assign.n, assign.alphabet_size
    _check_delta(delta, n)
    if len(w) != n:
        raise ValidationError(f"side sequence length {len(w)}, expected {n}")
    check_budget("list decoding", (alpha, n), budget=LIST_BUDGET)
    plen = min(i * r, assign.bits_total)
    if not 0 <= received_prefix < (1 << max(plen, 1)):
        raise ValidationError(f"received prefix {received_prefix} does not fit in {plen} bits")
    threshold = i * r - n * delta
    if threshold < 0:
        # n * rho >= 0 for every candidate, so this round cannot ACK
        return False, None
    shift = assign.bits_total - plen
    rates, order = _ranking(n, alpha, w.packed(), w.alphabet.size)
    # memoryviews yield Python floats and ints one at a time, without copying the arrays
    bins = memoryview(assign._bin_memo())
    for rho, k in zip(memoryview(rates), memoryview(order)):
        if n * rho > threshold:
            break
        b = bins[k]
        if b < 0:
            b = assign.bin_bits(_digits(k, n, alpha))
            bins[k] = b
        if b >> shift == received_prefix:
            return True, SymbolSequence(Alphabet(alpha), tuple(_digits(k, n, alpha)))
    return False, None


class IdealTransport:
    """Noiseless chunk delivery."""

    def send_chunk(self, bits: int, nbits: int) -> tuple:
        return bits, False


@dataclass(eq=False)
class CodedTransport:
    """Chunk delivery through a Wyner code over the main channel.

    Each r-bit chunk becomes the secret index of a fresh codeword; the inner
    randomness and the channel noise draw from substreams keyed by (seed,
    chunk counter), and the legitimate receiver ML-decodes its main-channel
    observation. A wrong secret surfaces as a chunk error in the transcript.
    """

    code: WynerCode
    main: TransitionMatrix
    seed: int
    chunks_sent: int = 0

    def send_chunk(self, bits: int, nbits: int) -> tuple:
        if nbits == 0:
            return 0, False
        if nbits > self.code.secret_bits:
            raise ValidationError(
                f"chunk of {nbits} bits exceeds the code's {self.code.secret_bits} secret bits"
            )
        rng = substream(self.seed, self.chunks_sent)
        self.chunks_sent += 1
        inner = int(rng.integers(self.code.words_per_bin))
        x = wyner_encode(self.code, bits, inner)
        y = sample(self.main, x, rng)
        s_hat, _ = ml_decode(self.code, y, self.main)
        return s_hat & ((1 << nbits) - 1), s_hat != bits


@dataclass(frozen=True, eq=False)
class SessionTranscript:
    """Outcome of one feedback session.

    chunks_sent is the round at which the decoder ACKed (or the cap if it
    never did); i_star is the guaranteed stopping round for intact chunks.
    compression_ratio counts full r-bit slots: chunks_sent * r / n.
    """

    r: int
    delta: float
    chunks_sent: int
    i_star: int
    reconstruction: SymbolSequence | None
    correct: bool
    compression_ratio: float
    chunk_error_count: int
    acked: bool


def run_session(
    u: SymbolSequence,
    w: SymbolSequence,
    r: int,
    delta: float,
    transport,
    seed: int,
) -> SessionTranscript:
    """Run the binning protocol once for (u, w) with the given chunk transport.

    The seed keys the bin assignment only; transports carry their own
    randomness. The round cap is the point where the threshold test accepts
    any nonempty list, a few rounds past L/r; transport corruption that
    empties the list beyond it ends the session unACKed. Rounds past the
    last bit whose threshold is still negative send nothing and cannot ACK,
    so the loop jumps over them; n * delta must stay below 2^53.
    """
    if len(u) != len(w):
        raise ValidationError(f"length mismatch: |u| = {len(u)}, |w| = {len(w)}")
    if r < 1:
        raise ValidationError(f"chunk size must be >= 1, got {r}")
    n = len(u)
    _check_delta(delta, n)
    assign = assign_bins(n, u.alphabet, seed)
    bits_total = assign.bits_total
    b_true = assign.bin_bits(u.data)
    rho_true = conditional_lz_complexity(u, w)
    # same float ops as the ACK test so the stopping guarantee is exact
    i_star = _first_round(
        lambda j: not n * rho_true > j * r - n * delta, math.ceil((n * rho_true + n * delta) / r), 1
    )
    cap = max(i_star, math.ceil((bits_total + n * delta) / r) + 2)
    prefix = 0
    chunk_errors = 0
    reconstruction = None
    acked = False
    i = 0
    while i < cap:
        i += 1
        lo = (i - 1) * r
        hi = min(i * r, bits_total)
        nbits = max(hi - lo, 0)
        if nbits == 0 and i * r - n * delta < 0:
            # no bits left and no ACK possible: both transports return (0, False)
            # without drawing, so go straight to the first round that can ACK
            i = min(_first_round(lambda j: j * r - n * delta >= 0, math.ceil(n * delta / r), i), cap)
        sent = (b_true >> (bits_total - hi)) & ((1 << nbits) - 1) if nbits else 0
        received, errored = transport.send_chunk(sent, nbits)
        chunk_errors += bool(errored)
        prefix = (prefix << nbits) | received
        acked, candidate = list_decode_step(assign, w, prefix, i, r, delta)
        if acked:
            reconstruction = candidate
            break
    correct = reconstruction is not None and reconstruction.data == u.data
    return SessionTranscript(
        r=r,
        delta=delta,
        chunks_sent=i,
        i_star=i_star,
        reconstruction=reconstruction,
        correct=correct,
        compression_ratio=i * r / n,
        chunk_error_count=chunk_errors,
        acked=acked,
    )
