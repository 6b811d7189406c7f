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
The decoder's list step does enumerate the alpha^n candidates and is
budget-guarded. It hashes each of them once per assignment, into an int64
table of bin indices (at most 8 MiB at LIST_BUDGET) built in chunks in the
first round that scans, and every later round of the session filters that
table. Every hash, the encoder's and the table's, copies a keyed blake2b
object (_keyed_digest), which costs less than keying a new one per input;
the table copies one such template per candidate. Rounds whose threshold
i r - n delta is negative cannot ACK, since n rho_min >= 0, so they hash
nothing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import TransitionMatrix, sample
from .errors import BudgetError, ValidationError
from .parsing import _conditional_rates, conditional_lz_complexity
from .rand import substream
from .sequences import Alphabet, SymbolSequence, unpack_symbols
from .wyner_binning import WynerCode, ml_decode, wyner_encode

LIST_BUDGET = 2 ** 20  # max alpha^n scanned by the decoder
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


def _candidates(index: np.ndarray, n: int, alpha: int) -> np.ndarray:
    """Candidates by index, as uint8 rows of base-alpha digits.

    Row k is tuple number index[k] of itertools.product(range(alpha), repeat=n):
    the digits of index[k], most significant first.
    """
    digits = np.empty((index.size, n), dtype=np.uint8)
    rest = index
    for j in range(n - 1, -1, -1):
        rest, digits[:, j] = np.divmod(rest, alpha)
    return digits


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
    _table: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

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

    def _bin_table(self) -> np.ndarray:
        """bin_bits of every length-n candidate in itertools.product order, as int64.

        Built on first use and kept: one keyed blake2b template per table,
        copied per candidate, each digest folded big-endian. Callers keep
        alpha^n within LIST_BUDGET, so an index has at most 20 bits and int64
        is exact. Candidates are hashed 2^14 at a time, which bounds the
        scratch memory beside the table; no hash object outlives its digest.
        """
        if self._table is None:
            n, alpha = self.n, self.alphabet_size
            table = np.empty(alpha ** n, dtype=np.int64)
            template, digest, size = self._hasher(), _keyed_digest, self._digest_size
            chunk = 2 ** 14
            for start in range(0, table.size, chunk):
                stop = min(start + chunk, table.size)
                raw = _candidates(np.arange(start, stop), n, alpha).tobytes()
                digests = b"".join([digest(template, raw[k : k + n]) for k in range(0, len(raw), n)])
                cols = np.frombuffer(digests, dtype=np.uint8).reshape(stop - start, size)
                acc = np.zeros(stop - start, dtype=np.int64)
                for col in cols.T:
                    acc = (acc << 8) | col
                table[start:stop] = acc >> self._shift
            object.__setattr__(self, "_table", table)
        return self._table


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
    validation, without hashing: no complexity is negative. Survivors come
    from the assignment's bin table; the candidate released on ACK is
    hashed once more with bin_bits, the encoder's own hash, so the table
    cannot release a sequence outside the received bin.
    """
    if i < 1 or r < 1:
        raise ValidationError(f"chunk index and size must be >= 1, got i={i}, r={r}")
    n, alpha = assign.n, assign.alphabet_size
    _check_delta(delta, n)
    if len(w) != n:
        raise ValidationError(f"side sequence length {len(w)}, expected {n}")
    if alpha ** n > LIST_BUDGET:
        raise BudgetError(f"list decoding scans {alpha ** n} sequences, budget {LIST_BUDGET}")
    plen = min(i * r, assign.bits_total)
    if not 0 <= received_prefix < (1 << max(plen, 1)):
        raise ValidationError(f"received prefix {received_prefix} does not fit in {plen} bits")
    threshold = i * r - n * delta
    if threshold < 0:
        # n * rho >= 0 for every candidate, so this round cannot ACK
        return False, None
    shift = assign.bits_total - plen
    survivors = np.flatnonzero(assign._bin_table() >> shift == received_prefix)
    if survivors.size == 0:
        return False, None
    cands = _candidates(survivors, n, alpha)
    rates = _conditional_rates(cands, unpack_symbols(w.packed(), w.alphabet.size), w.alphabet.size)
    # ascending table index is lexicographic order, and index() finds the first minimum
    best_rho = min(rates)
    best_k = rates.index(best_rho)
    if n * best_rho <= threshold:
        best_u = tuple(cands[best_k].tolist())
        if assign.bin_bits(best_u) >> shift != received_prefix:
            raise RuntimeError("bin table disagrees with bin_bits")
        return True, SymbolSequence(Alphabet(alpha), best_u)
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
