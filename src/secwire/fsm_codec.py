"""Finite-state encoder/decoder pair over a wiretap triple.

The encoder consumes k source symbols per chunk, emits m channel symbols
drawn from a per-(state, input) distribution, and advances its state
deterministically from (state, input); randomness enters only through the
emission. The decoder is fully deterministic. Because the encoder state
trajectory is a function of the source (and side) sequence alone, the channel
from U^n to the eavesdropper's Z^N factorizes chunk by chunk, which is what
makes exact leakage accounting by enumeration possible.

One enumerator computes that factorization for all (u^n, w^n) at once, by
a recursion over chunks: each step extends every (u-prefix, w-prefix) pair
by one chunk, multiplying its z-law by the kernel of the state the prefix
left. Each entry is thus the left-to-right product of its chunk kernels,
bit for bit what a per-row np.kron chain gives. The induced channel is its
side_size == 1 slice. Budgets are checked before anything is allocated; peak
memory is the output plus the previous level and its gathered kernels, each
a fraction of the output.

FSM file grammar (plain text, # comments allowed)::

    encoder              |  decoder
    k 1                  |  k 1
    m 2                  |  m 2
    alpha 2              |  gamma 2
    beta 2               |  alpha 2
    states 2             |  states 1
    init 0               |  init 0
    side 2      (optional, side-information specs only)
    emit S UBLK [WBLK] XBLK [PROB]     | out S YBLK [WBLK] UBLK
    next S UBLK [WBLK] NEXT            | next S YBLK [WBLK] NEXT

Blocks are comma-joined symbols (``0,1``). ``next`` and ``out`` lines accept
``*`` wildcards for the state or for block positions; the first matching line
wins and every concrete combination must be covered. ``emit`` lines are
explicit; omitted PROB means 1. Multiple emit lines per (state, input) build
up the distribution.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .channels import ROW_TOL, ChannelTriple, TransitionMatrix, sample
from .errors import BudgetError, ValidationError
from .info_measures import (
    CapacityResult,
    channel_capacity,
    conditional_mutual_information,
    mutual_information_from_joint,
)
from .rand import as_rng, substream
from .sequences import Alphabet, SymbolSequence, read_text

ENUMERATION_BUDGET = 2 ** 24  # max entries in any exactly enumerated matrix


def block_to_index(block, base: int) -> int:
    """Big-endian mixed-radix index of a symbol block."""
    idx = 0
    for s in block:
        if not 0 <= s < base:
            raise ValidationError(f"symbol {s} outside alphabet of size {base}")
        idx = idx * base + s
    return idx


def index_to_block(idx: int, base: int, length: int) -> tuple:
    out = []
    for _ in range(length):
        idx, r = divmod(idx, base)
        out.append(r)
    return tuple(reversed(out))


def _normalize_emit(emit, n_states, u_blocks, w_blocks, x_blocks):
    table = {}
    for key, dist in emit.items():
        if len(key) == 2:
            key = (key[0], key[1], 0)
        s, u, w = key
        if not (0 <= s < n_states and 0 <= u < u_blocks and 0 <= w < w_blocks):
            raise ValidationError(f"emit key {key} out of range")
        seen = {}
        for x, p in dist:
            if not 0 <= x < x_blocks:
                raise ValidationError(f"emit target {x} out of range for key {key}")
            if p < 0.0:
                raise ValidationError(f"negative emission probability {p} for key {key}")
            if x in seen:
                raise ValidationError(f"duplicate emission target {x} for key {key}")
            if p > 0.0:
                seen[x] = float(p)
        total = sum(seen.values())
        if abs(total - 1.0) > ROW_TOL:
            raise ValidationError(f"emission for key {key} sums to {total!r}")
        table[(s, u, w)] = tuple(sorted(seen.items()))
    for s in range(n_states):
        for u in range(u_blocks):
            for w in range(w_blocks):
                if (s, u, w) not in table:
                    raise ValidationError(f"emission undefined for (state={s}, u={u}, w={w})")
    return table


def _normalize_table(table, shape, limit, name):
    arr = np.asarray(table, dtype=np.int64)
    if arr.shape != shape:
        raise ValidationError(f"{name} table shape {arr.shape}, expected {shape}")
    if arr.min() < 0 or arr.max() >= limit:
        raise ValidationError(f"{name} table entry outside [0, {limit})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StochasticEncoderSpec:
    """Finite-state stochastic encoder.

    emit maps (state, u-block index, w-block index) to a sparse distribution
    over x-block indices; plain encoders use w index 0 throughout and
    side_size 1. next_state has shape (states, u_blocks, w_blocks).
    """

    k: int
    m: int
    in_size: int
    out_size: int
    n_states: int
    emit: dict
    next_state: np.ndarray
    side_size: int = 1
    initial_state: int = 0

    def __post_init__(self):
        for name in ("k", "m", "in_size", "out_size", "n_states", "side_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if not 0 <= self.initial_state < self.n_states:
            raise ValidationError(f"initial state {self.initial_state} out of range")
        u_blocks = self.in_size ** self.k
        w_blocks = self.side_size ** self.k
        x_blocks = self.out_size ** self.m
        object.__setattr__(
            self, "emit", _normalize_emit(self.emit, self.n_states, u_blocks, w_blocks, x_blocks)
        )
        object.__setattr__(
            self,
            "next_state",
            _normalize_table(self.next_state, (self.n_states, u_blocks, w_blocks), self.n_states, "next_state"),
        )

    @property
    def u_blocks(self) -> int:
        return self.in_size ** self.k

    @property
    def w_blocks(self) -> int:
        return self.side_size ** self.k

    @property
    def x_blocks(self) -> int:
        return self.out_size ** self.m

    def with_initial_state(self, state: int) -> "StochasticEncoderSpec":
        return replace(self, initial_state=state)


@dataclass(frozen=True, eq=False)
class SideInfoEncoderSpec(StochasticEncoderSpec):
    """Encoder whose tables are additionally indexed by side-information blocks."""

    def __post_init__(self):
        super().__post_init__()
        if self.side_size < 2:
            raise ValidationError("side-information encoder needs side_size >= 2")


@dataclass(frozen=True, eq=False)
class DecoderSpec:
    """Deterministic finite-state decoder.

    out_table and next_state have shape (states, y_blocks, w_blocks); entries
    of out_table are reconstruction u-block indices.
    """

    k: int
    m: int
    in_size: int
    out_size: int
    n_states: int
    out_table: np.ndarray
    next_state: np.ndarray
    side_size: int = 1
    initial_state: int = 0

    def __post_init__(self):
        for name in ("k", "m", "in_size", "out_size", "n_states", "side_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if not 0 <= self.initial_state < self.n_states:
            raise ValidationError(f"initial state {self.initial_state} out of range")
        y_blocks = self.in_size ** self.m
        w_blocks = self.side_size ** self.k
        shape = (self.n_states, y_blocks, w_blocks)
        object.__setattr__(
            self, "out_table", _normalize_table(self.out_table, shape, self.out_size ** self.k, "out")
        )
        object.__setattr__(
            self, "next_state", _normalize_table(self.next_state, shape, self.n_states, "next_state")
        )

    @property
    def y_blocks(self) -> int:
        return self.in_size ** self.m

    @property
    def w_blocks(self) -> int:
        return self.side_size ** self.k

    def with_initial_state(self, state: int) -> "DecoderSpec":
        return replace(self, initial_state=state)


@dataclass(frozen=True, eq=False)
class SideInfoDecoderSpec(DecoderSpec):
    """Decoder whose tables are additionally indexed by side-information blocks."""

    def __post_init__(self):
        super().__post_init__()
        if self.side_size < 2:
            raise ValidationError("side-information decoder needs side_size >= 2")


def _chunk_indices(seq: SymbolSequence, k: int, base: int) -> list:
    data = seq.data
    return [block_to_index(data[i : i + k], base) for i in range(0, len(data), k)]


def _side_indices(spec, n_chunks: int, w: SymbolSequence | None, role: str) -> list:
    if spec.side_size == 1:
        return [0] * n_chunks
    if w is None:
        raise ValidationError(f"{role} requires a side-information sequence")
    if w.alphabet.size != spec.side_size:
        raise ValidationError(
            f"side alphabet {w.alphabet.size} does not match {role} side_size {spec.side_size}"
        )
    if len(w) != n_chunks * spec.k:
        raise ValidationError(f"side sequence length {len(w)} does not match {n_chunks * spec.k}")
    return _chunk_indices(w, spec.k, spec.side_size)


def encode_stream(enc: StochasticEncoderSpec, u: SymbolSequence, seed, w: SymbolSequence | None = None):
    """Encode u chunk by chunk; returns (x, state trajectory s_0..s_T)."""
    if u.alphabet.size != enc.in_size:
        raise ValidationError(f"source alphabet {u.alphabet.size} does not match encoder {enc.in_size}")
    if len(u) == 0 or len(u) % enc.k != 0:
        raise ValidationError(f"sequence length {len(u)} is not a positive multiple of k = {enc.k}")
    rng = as_rng(seed)
    u_idx = _chunk_indices(u, enc.k, enc.in_size)
    w_idx = _side_indices(enc, len(u_idx), w, "encoder")
    draws = rng.random(len(u_idx))
    states = [enc.initial_state]
    symbols = []
    s = enc.initial_state
    for i, (ui, wi) in enumerate(zip(u_idx, w_idx)):
        dist = enc.emit[(s, ui, wi)]
        acc, x_pick = 0.0, dist[-1][0]
        for x, p in dist:
            acc += p
            if draws[i] < acc:
                x_pick = x
                break
        symbols.extend(index_to_block(x_pick, enc.out_size, enc.m))
        s = int(enc.next_state[s, ui, wi])
        states.append(s)
    return SymbolSequence(Alphabet(enc.out_size), tuple(symbols)), tuple(states)


def decode_stream(dec: DecoderSpec, y: SymbolSequence, w: SymbolSequence | None = None):
    """Decode y chunk by chunk; returns (reconstruction, state trajectory)."""
    if y.alphabet.size != dec.in_size:
        raise ValidationError(f"channel alphabet {y.alphabet.size} does not match decoder {dec.in_size}")
    if len(y) == 0 or len(y) % dec.m != 0:
        raise ValidationError(f"sequence length {len(y)} is not a positive multiple of m = {dec.m}")
    y_idx = _chunk_indices(y, dec.m, dec.in_size)
    w_idx = _side_indices(dec, len(y_idx), w, "decoder")
    states = [dec.initial_state]
    symbols = []
    s = dec.initial_state
    for yi, wi in zip(y_idx, w_idx):
        symbols.extend(index_to_block(int(dec.out_table[s, yi, wi]), dec.out_size, dec.k))
        s = int(dec.next_state[s, yi, wi])
        states.append(s)
    return SymbolSequence(Alphabet(dec.out_size), tuple(symbols)), tuple(states)


@dataclass(frozen=True, eq=False)
class SimulationStats:
    """Monte Carlo fidelity statistics for one encoder/decoder/channel system.

    bit_error_rate averages symbol errors over the whole stream and all
    trials; per_chunk_error resolves them by chunk position and
    worst_chunk_error takes the maximum, covering both readings of the
    per-chunk fidelity criterion. empirical_joint, when collected, maps
    (u_blk, w_blk, x_blk, y_blk, z_blk, s_enc, s_dec) index tuples to
    empirical frequencies. leakage_bits is attached by callers that run the
    exact accounting.
    """

    trials: int
    chunk_count: int
    bit_error_rate: float
    per_chunk_error: tuple
    worst_chunk_error: float
    empirical_joint: dict | None = None
    leakage_bits: float | None = None


def simulate_system(
    enc: StochasticEncoderSpec,
    dec: DecoderSpec,
    triple: ChannelTriple,
    u: SymbolSequence,
    trials: int,
    seed: int,
    w: SymbolSequence | None = None,
    collect_joint: bool = False,
) -> SimulationStats:
    """Run end-to-end trials of encode -> main channel -> decode.

    Each trial uses an independent substream keyed by (seed, trial), so
    results do not depend on evaluation order. The wiretap output is sampled
    only when collect_joint is set; it never affects the fidelity figures.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    _check_system(enc, dec, triple)
    n = len(u)
    if n == 0 or n % enc.k != 0:
        raise ValidationError(f"sequence length {n} is not a positive multiple of k = {enc.k}")
    chunks = n // enc.k
    chunk_err = np.zeros(chunks)
    joint: dict = {} if collect_joint else None
    u_idx = _chunk_indices(u, enc.k, enc.in_size)
    for t in range(trials):
        rng = substream(seed, t)
        x, enc_states = encode_stream(enc, u, rng, w)
        y = sample(triple.main, x, rng)
        z = sample(triple.wiretap, y, rng) if collect_joint else None
        v, dec_states = decode_stream(dec, y, w)
        for i in range(chunks):
            a, b = i * enc.k, (i + 1) * enc.k
            errs = sum(1 for p, q in zip(u.data[a:b], v.data[a:b]) if p != q)
            chunk_err[i] += errs / enc.k
            if collect_joint:
                w_blk = 0 if w is None else block_to_index(w.data[a:b], enc.side_size)
                key = (
                    u_idx[i],
                    w_blk,
                    block_to_index(x.data[i * enc.m : (i + 1) * enc.m], enc.out_size),
                    block_to_index(y.data[i * enc.m : (i + 1) * enc.m], dec.in_size),
                    block_to_index(z.data[i * enc.m : (i + 1) * enc.m], triple.wiretap.out_alphabet.size),
                    enc_states[i],
                    dec_states[i],
                )
                joint[key] = joint.get(key, 0) + 1
    chunk_err /= trials
    if collect_joint:
        total = trials * chunks
        joint = {k: v / total for k, v in sorted(joint.items())}
    return SimulationStats(
        trials=trials,
        chunk_count=chunks,
        bit_error_rate=float(chunk_err.mean()),
        per_chunk_error=tuple(float(e) for e in chunk_err),
        worst_chunk_error=float(chunk_err.max()),
        empirical_joint=joint,
    )


def sweep_initial_states(enc, dec, triple, u, trials, seed, w=None) -> dict:
    """Simulate over every (encoder, decoder) initial-state pair.

    Returns {(s_enc0, s_dec0): SimulationStats}; worst cases are read off by
    the caller. Substreams are keyed by the pair so the sweep order is
    irrelevant.
    """
    out = {}
    for se in range(enc.n_states):
        for sd in range(dec.n_states):
            out[(se, sd)] = simulate_system(
                enc.with_initial_state(se),
                dec.with_initial_state(sd),
                triple,
                u,
                trials,
                int(substream(seed, se, sd).integers(2 ** 62)),
                w=w,
            )
    return out


def _check_system(enc, dec, triple: ChannelTriple) -> None:
    if enc.out_size != triple.main.in_alphabet.size:
        raise ValidationError(
            f"encoder output alphabet {enc.out_size} does not match channel input "
            f"{triple.main.in_alphabet.size}"
        )
    if dec.in_size != triple.main.out_alphabet.size:
        raise ValidationError(
            f"decoder input alphabet {dec.in_size} does not match channel output "
            f"{triple.main.out_alphabet.size}"
        )
    if dec.out_size != enc.in_size or dec.k != enc.k or dec.m != enc.m:
        raise ValidationError("encoder and decoder disagree on (k, m, source alphabet)")


def _kron_power(rows: np.ndarray, times: int) -> np.ndarray:
    out = rows
    for _ in range(times - 1):
        out = np.kron(out, rows)
    return out


def _chunk_kernels(enc: StochasticEncoderSpec, triple: ChannelTriple) -> np.ndarray:
    """G[s, u_blk, w_blk, z_blk]: one-chunk law of Z^m given input and state."""
    casc_m = _kron_power(triple.cascade.rows, enc.m)
    z_blocks = casc_m.shape[1]
    out = np.zeros((enc.n_states, enc.u_blocks, enc.w_blocks, z_blocks))
    for (s, ui, wi), dist in enc.emit.items():
        for x, p in dist:
            out[s, ui, wi] += p * casc_m[x]
    return out


def induced_security_channel(enc: StochasticEncoderSpec, triple: ChannelTriple, n: int) -> TransitionMatrix:
    """Exact channel P(z^N | u^n) induced by a plain encoder, by enumeration.

    This is the side_size == 1 slice of the joint enumeration. Raises
    BudgetError, before allocating anything, when the matrix would exceed
    the enumeration budget.
    """
    if enc.side_size != 1:
        raise ValidationError("side-information encoders need conditional_leakage instead")
    u_total, _, z_total = _enumeration_shape(enc, triple, n)
    # the same product _enumerate_g3 checks (w_total is 1), kept for this message
    if u_total * z_total > ENUMERATION_BUDGET:
        raise BudgetError(
            f"induced channel needs {u_total} x {z_total} entries, budget {ENUMERATION_BUDGET}"
        )
    rows = _enumerate_g3(enc, triple, n).reshape(u_total, z_total)
    return TransitionMatrix(Alphabet(u_total), Alphabet(z_total), rows)


def max_mi_security(
    enc: StochasticEncoderSpec, triple: ChannelTriple, n: int, tol: float = 1e-9
) -> CapacityResult:
    """Worst-case leakage max_mu I(U^n; Z^N) in bits over the whole block.

    Per-symbol leakage is value / n. The certificate semantics follow
    channel_capacity.
    """
    return channel_capacity(induced_security_channel(enc, triple, n), tol=tol)


@dataclass(frozen=True)
class LeakageReport:
    """Exact leakage figures for one (encoder, triple, leak channel, mu).

    i_uz_given_wdot is the operative conditional leakage; sandwich_slack is
    i_uz_given_wdot + log2_qe - i_uz_given_w, nonnegative whenever the
    encoder's tables ignore the side sequence.
    """

    i_uz: float
    i_uz_given_w: float
    i_uz_given_wdot: float
    log2_qe: float

    @property
    def sandwich_slack(self) -> float:
        return self.i_uz_given_wdot + self.log2_qe - self.i_uz_given_w


def _enumeration_shape(enc: StochasticEncoderSpec, triple: ChannelTriple, n: int) -> tuple:
    """(u_total, w_total, z_total) of the exact enumeration at block length n."""
    if n < 1 or n % enc.k != 0:
        raise ValidationError(f"n = {n} is not a positive multiple of k = {enc.k}")
    z_total = triple.wiretap.out_alphabet.size ** (n // enc.k * enc.m)
    return enc.in_size ** n, enc.side_size ** n, z_total


def _enumerate_g3(enc: StochasticEncoderSpec, triple: ChannelTriple, n: int) -> np.ndarray:
    """G3[u_global, w_global, z_global] = P(z^N | u^n, w^n), by the chunk recursion."""
    u_total, w_total, z_total = _enumeration_shape(enc, triple, n)
    entries = u_total * w_total * z_total
    if entries > ENUMERATION_BUDGET:
        raise BudgetError(f"joint enumeration needs {entries} entries, budget {ENUMERATION_BUDGET}")
    kern = _chunk_kernels(enc, triple)
    nu, nw, nz = kern.shape[1:]
    level, states = np.ones((1, 1, 1)), np.full((1, 1), enc.initial_state)
    for _ in range(n // enc.k):
        pu, pw, pz = level.shape
        nxt = np.empty((pu * nu, pw * nw, pz * nz))
        # nxt[pu, nu, pw, nw, pz, nz] = level[pu, pw, pz] * kern[states[pu, pw], nu, nw, nz]
        np.multiply(
            level[:, None, :, None, :, None],
            kern[states].transpose(0, 2, 1, 3, 4)[:, :, :, :, None, :],
            out=nxt.reshape(pu, nu, pw, nw, pz, nz),
        )
        states = enc.next_state[states].transpose(0, 2, 1, 3).reshape(pu * nu, pw * nw)
        level = nxt
    return level


def _leak_rows(enc: StochasticEncoderSpec, leak_channel: TransitionMatrix | None) -> np.ndarray:
    """Rows of the one-letter leak channel W -> W-dot; None means W-dot = W.

    Callers build its n-fold power only after the enumeration budget check.
    """
    side = Alphabet(enc.side_size)
    if leak_channel is None:
        leak_channel = TransitionMatrix(side, side, np.eye(side.size))
    if leak_channel.in_alphabet.size != side.size:
        raise ValidationError(
            f"leak channel input {leak_channel.in_alphabet.size} does not match side alphabet "
            f"{side.size}"
        )
    return leak_channel.rows


def _leakage_report(enc, g3: np.ndarray, leak_n: np.ndarray, mu_arr: np.ndarray) -> LeakageReport:
    p_uwz = mu_arr[:, :, None] * g3
    p_udz = np.einsum("uwz,wd->udz", p_uwz, leak_n)
    return LeakageReport(
        i_uz=mutual_information_from_joint(p_uwz.sum(axis=1)),
        i_uz_given_w=conditional_mutual_information(np.transpose(p_uwz, (0, 2, 1))),
        i_uz_given_wdot=conditional_mutual_information(np.transpose(p_udz, (0, 2, 1))),
        log2_qe=float(np.log2(enc.n_states)),
    )


def conditional_leakage(
    enc: StochasticEncoderSpec,
    triple: ChannelTriple,
    leak_channel: TransitionMatrix | None,
    n: int,
    mu,
) -> LeakageReport:
    """Exact I(U^n; Z^N | W-dot^n) plus companions, by full enumeration.

    mu is the joint source/side distribution with shape (in_size^n,
    side_size^n); a 1-D mu is accepted for plain encoders. leak_channel maps
    the side alphabet to the eavesdropper's degraded view W-dot; None means
    W-dot = W.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if mu_arr.ndim == 1:
        mu_arr = mu_arr[:, None]
    u_total, w_total = enc.in_size ** n, enc.side_size ** n
    if mu_arr.shape != (u_total, w_total):
        raise ValidationError(f"mu shape {mu_arr.shape}, expected ({u_total}, {w_total})")
    if mu_arr.min() < 0.0 or abs(float(mu_arr.sum()) - 1.0) > 1e-9:
        raise ValidationError("mu must be a joint probability distribution")
    leak = _leak_rows(enc, leak_channel)
    g3 = _enumerate_g3(enc, triple, n)
    return _leakage_report(enc, g3, _kron_power(leak, n), mu_arr)


def max_conditional_leakage(
    enc: StochasticEncoderSpec,
    triple: ChannelTriple,
    leak_channel: TransitionMatrix | None,
    n: int,
    grid_step: float = 0.25,
) -> tuple:
    """Maximize conditional leakage over a simplex grid of joint mu.

    Exhaustive over compositions with resolution grid_step; tiny n only.
    G3 does not depend on mu, so it is enumerated once. The grid size and
    the entries computed over the whole grid are checked against their
    budgets before anything is allocated. Returns (best LeakageReport, best mu).
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError(f"grid step {grid_step} outside (0, 0.5]")
    cells = (enc.in_size ** n) * (enc.side_size ** n)
    levels = int(round(1.0 / grid_step))
    count = math.comb(levels + cells - 1, cells - 1)
    if count > 200000:
        raise BudgetError(f"mu grid would have {count} points, budget 200000")
    leak = _leak_rows(enc, leak_channel)
    u_total, w_total, z_total = _enumeration_shape(enc, triple, n)
    if count * cells * z_total > ENUMERATION_BUDGET:
        raise BudgetError(
            f"mu grid of {count} points x {cells * z_total} entries exceeds budget "
            f"{ENUMERATION_BUDGET}"
        )
    g3 = _enumerate_g3(enc, triple, n)
    leak_n = _kron_power(leak, n)
    best = None
    for bars in itertools.combinations(range(levels + cells - 1), cells - 1):
        counts = np.diff((-1,) + bars + (levels + cells - 1,)) - 1
        mu = (counts / levels).reshape(u_total, w_total)
        rep = _leakage_report(enc, g3, leak_n, mu)
        if best is None or rep.i_uz_given_wdot > best[0].i_uz_given_wdot:
            best = (rep, mu)
    return best


def _parse_block(token: str, length: int, base: int, allow_wild: bool):
    if token == "*":
        if not allow_wild:
            raise ValidationError("wildcard not allowed in emit lines")
        return ("*",) * length
    parts = token.split(",")
    if len(parts) != length:
        raise ValidationError(f"block {token!r} has {len(parts)} symbols, expected {length}")
    out = []
    for p in parts:
        if p == "*":
            if not allow_wild:
                raise ValidationError("wildcard not allowed in emit lines")
            out.append("*")
        else:
            try:
                v = int(p)
            except ValueError:
                raise ValidationError(f"bad symbol {p!r} in block {token!r}") from None
            if not 0 <= v < base:
                raise ValidationError(f"symbol {v} outside alphabet of size {base}")
            out.append(v)
    return tuple(out)


def _match_block(pattern, block) -> bool:
    return all(p == "*" or p == b for p, b in zip(pattern, block))


def _first_match(rules, state, block, w_block):
    for r_state, r_block, r_wblock, payload in rules:
        if r_state != "*" and r_state != state:
            continue
        if not _match_block(r_block, block):
            continue
        if not _match_block(r_wblock, w_block):
            continue
        return payload
    return None


def load_fsm(path: str | os.PathLike):
    """Parse an FSM spec file into an encoder or decoder spec."""
    lines = []
    for ln in read_text(path).splitlines():
        ln = ln.split("#", 1)[0].strip()
        if ln:
            lines.append(ln)
    if not lines:
        raise ValidationError(f"{path}: empty FSM file")
    kind = lines[0]
    if kind not in ("encoder", "decoder"):
        raise ValidationError(f"{path}: first line must be 'encoder' or 'decoder', got {kind!r}")
    scalars = {}
    emit_lines, rule_lines = [], []
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0] in ("k", "m", "alpha", "beta", "gamma", "states", "init", "side"):
            if len(toks) != 2:
                raise ValidationError(f"{path}: malformed scalar line {ln!r}")
            try:
                scalars[toks[0]] = int(toks[1])
            except ValueError:
                raise ValidationError(f"{path}: non-integer value in {ln!r}") from None
        elif toks[0] == "emit":
            emit_lines.append(toks[1:])
        elif toks[0] in ("next", "out"):
            rule_lines.append((toks[0], toks[1:]))
        else:
            raise ValidationError(f"{path}: unknown directive {toks[0]!r}")
    try:
        if kind == "encoder":
            return _build_encoder(path, scalars, emit_lines, rule_lines)
        return _build_decoder(path, scalars, rule_lines)
    except ValueError as exc:
        # ValidationError subclasses ValueError; bare ones come from int()/float()
        if str(exc).startswith(str(path)):
            raise
        raise ValidationError(f"{path}: {exc}") from None


def _require(scalars, keys, path):
    missing = [k for k in keys if k not in scalars]
    if missing:
        raise ValidationError(f"{path}: missing scalar lines {missing}")


def _parse_state_token(tok, n_states):
    if tok == "*":
        return "*"
    s = int(tok)
    if not 0 <= s < n_states:
        raise ValidationError(f"state {s} outside [0, {n_states})")
    return s


def _build_encoder(path, scalars, emit_lines, rule_lines):
    _require(scalars, ("k", "m", "alpha", "beta", "states", "init"), path)
    k, m = scalars["k"], scalars["m"]
    alpha, beta = scalars["alpha"], scalars["beta"]
    n_states, init = scalars["states"], scalars["init"]
    side = scalars.get("side", 1)
    has_side = side > 1
    emit: dict = {}
    for toks in emit_lines:
        want = 4 + has_side
        if len(toks) not in (want - 1, want):
            raise ValidationError(f"malformed emit line {' '.join(toks)!r}")
        s = _parse_state_token(toks[0], n_states)
        if s == "*":
            raise ValidationError("wildcard not allowed in emit lines")
        u_blk = _parse_block(toks[1], k, alpha, allow_wild=False)
        w_blk = _parse_block(toks[2], k, side, allow_wild=False) if has_side else (0,) * k
        x_pos = 2 + has_side
        x_blk = _parse_block(toks[x_pos], m, beta, allow_wild=False)
        prob = float(toks[x_pos + 1]) if len(toks) == want else 1.0
        key = (s, block_to_index(u_blk, alpha), block_to_index(w_blk, max(side, 1)))
        emit.setdefault(key, []).append((block_to_index(x_blk, beta), prob))
    next_rules = []
    for name, toks in rule_lines:
        if name != "next":
            raise ValidationError(f"unexpected '{name}' line in an encoder file")
        want = 3 + has_side
        if len(toks) != want:
            raise ValidationError(f"malformed next line {' '.join(toks)!r}")
        s = _parse_state_token(toks[0], n_states)
        u_blk = _parse_block(toks[1], k, alpha, allow_wild=True)
        w_blk = _parse_block(toks[2], k, side, allow_wild=True) if has_side else ("*",) * k
        nxt = int(toks[-1])
        if not 0 <= nxt < n_states:
            raise ValidationError(f"next state {nxt} outside [0, {n_states})")
        next_rules.append((s, u_blk, w_blk, nxt))
    u_blocks, w_blocks = alpha ** k, side ** k
    table = np.zeros((n_states, u_blocks, w_blocks), dtype=np.int64)
    for s in range(n_states):
        for ui in range(u_blocks):
            for wi in range(w_blocks):
                hit = _first_match(next_rules, s, index_to_block(ui, alpha, k), index_to_block(wi, side, k))
                if hit is None:
                    raise ValidationError(
                        f"next state undefined for (state={s}, u={index_to_block(ui, alpha, k)}, "
                        f"w={index_to_block(wi, side, k)})"
                    )
                table[s, ui, wi] = hit
    cls = SideInfoEncoderSpec if has_side else StochasticEncoderSpec
    return cls(
        k=k,
        m=m,
        in_size=alpha,
        out_size=beta,
        n_states=n_states,
        emit={k2: tuple(v) for k2, v in emit.items()},
        next_state=table,
        side_size=side,
        initial_state=init,
    )


def _build_decoder(path, scalars, rule_lines):
    _require(scalars, ("k", "m", "gamma", "alpha", "states", "init"), path)
    k, m = scalars["k"], scalars["m"]
    gamma, alpha = scalars["gamma"], scalars["alpha"]
    n_states, init = scalars["states"], scalars["init"]
    side = scalars.get("side", 1)
    has_side = side > 1
    out_rules, next_rules = [], []
    for name, toks in rule_lines:
        want = 3 + has_side
        if len(toks) != want:
            raise ValidationError(f"malformed {name} line {' '.join(toks)!r}")
        s = _parse_state_token(toks[0], n_states)
        y_blk = _parse_block(toks[1], m, gamma, allow_wild=True)
        w_blk = _parse_block(toks[2], k, side, allow_wild=True) if has_side else ("*",) * k
        if name == "out":
            u_blk = _parse_block(toks[-1], k, alpha, allow_wild=False)
            out_rules.append((s, y_blk, w_blk, block_to_index(u_blk, alpha)))
        else:
            nxt = int(toks[-1])
            if not 0 <= nxt < n_states:
                raise ValidationError(f"next state {nxt} outside [0, {n_states})")
            next_rules.append((s, y_blk, w_blk, nxt))
    y_blocks, w_blocks = gamma ** m, side ** k
    out_table = np.zeros((n_states, y_blocks, w_blocks), dtype=np.int64)
    next_table = np.zeros((n_states, y_blocks, w_blocks), dtype=np.int64)
    for s in range(n_states):
        for yi in range(y_blocks):
            for wi in range(w_blocks):
                y_blk = index_to_block(yi, gamma, m)
                w_blk = index_to_block(wi, side, k)
                hit = _first_match(out_rules, s, y_blk, w_blk)
                if hit is None:
                    raise ValidationError(
                        f"output undefined for (state={s}, y={y_blk}, w={w_blk})"
                    )
                out_table[s, yi, wi] = hit
                nxt = _first_match(next_rules, s, y_blk, w_blk)
                if nxt is None:
                    raise ValidationError(
                        f"next state undefined for (state={s}, y={y_blk}, w={w_blk})"
                    )
                next_table[s, yi, wi] = nxt
    cls = SideInfoDecoderSpec if has_side else DecoderSpec
    return cls(
        k=k,
        m=m,
        in_size=gamma,
        out_size=alpha,
        n_states=n_states,
        out_table=out_table,
        next_state=next_table,
        side_size=side,
        initial_state=init,
    )


def dump_fsm(spec, path: str | os.PathLike) -> None:
    """Write a spec back out with fully concrete lines."""
    lines = []
    has_side = spec.side_size > 1
    if isinstance(spec, StochasticEncoderSpec):
        lines += [
            "encoder",
            f"k {spec.k}",
            f"m {spec.m}",
            f"alpha {spec.in_size}",
            f"beta {spec.out_size}",
            f"states {spec.n_states}",
            f"init {spec.initial_state}",
        ]
        if has_side:
            lines.append(f"side {spec.side_size}")
        for (s, ui, wi), dist in sorted(spec.emit.items()):
            u_tok = ",".join(str(v) for v in index_to_block(ui, spec.in_size, spec.k))
            w_tok = ",".join(str(v) for v in index_to_block(wi, spec.side_size, spec.k))
            for x, p in dist:
                x_tok = ",".join(str(v) for v in index_to_block(x, spec.out_size, spec.m))
                parts = ["emit", str(s), u_tok] + ([w_tok] if has_side else []) + [x_tok, f"{p:.17g}"]
                lines.append(" ".join(parts))
        for s in range(spec.n_states):
            for ui in range(spec.u_blocks):
                for wi in range(spec.w_blocks):
                    u_tok = ",".join(str(v) for v in index_to_block(ui, spec.in_size, spec.k))
                    w_tok = ",".join(str(v) for v in index_to_block(wi, spec.side_size, spec.k))
                    parts = ["next", str(s), u_tok] + ([w_tok] if has_side else [])
                    parts.append(str(int(spec.next_state[s, ui, wi])))
                    lines.append(" ".join(parts))
    elif isinstance(spec, DecoderSpec):
        lines += [
            "decoder",
            f"k {spec.k}",
            f"m {spec.m}",
            f"gamma {spec.in_size}",
            f"alpha {spec.out_size}",
            f"states {spec.n_states}",
            f"init {spec.initial_state}",
        ]
        if has_side:
            lines.append(f"side {spec.side_size}")
        for s in range(spec.n_states):
            for yi in range(spec.y_blocks):
                for wi in range(spec.w_blocks):
                    y_tok = ",".join(str(v) for v in index_to_block(yi, spec.in_size, spec.m))
                    w_tok = ",".join(str(v) for v in index_to_block(wi, spec.side_size, spec.k))
                    u_tok = ",".join(str(v) for v in index_to_block(int(spec.out_table[s, yi, wi]), spec.out_size, spec.k))
                    parts = ["out", str(s), y_tok] + ([w_tok] if has_side else []) + [u_tok]
                    lines.append(" ".join(parts))
                    parts = ["next", str(s), y_tok] + ([w_tok] if has_side else [])
                    parts.append(str(int(spec.next_state[s, yi, wi])))
                    lines.append(" ".join(parts))
    else:
        raise ValidationError(f"cannot serialize object of type {type(spec).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
