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
side_size == 1 slice. Each size that grows with the input is checked once,
by errors.check_budget, before anything is allocated; peak memory is the
output plus the previous level and its gathered kernels, each a fraction of
the output. Leakage given W-dot^n, a memoryless noisy copy of W^n, applies
the one-letter leak channel to one side position at a time.

FSM file grammar (plain text, # comments allowed). Encoders and decoders
share one grammar: the kind, the scalars (input alphabet before output
alphabet), then rule lines keyed by (state, input block, side block)::

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
wins and every concrete combination must be covered. The loader applies that
rule as array writes from the last line to the first, a wildcard writing a
whole axis, so each cell keeps the first line that matches it. ``emit`` lines
belong to encoders only and are explicit; omitted PROB means 1. Multiple emit
lines per (state, input) build up the distribution. A line of the other kind
(``emit`` or ``beta`` in a decoder, ``out`` or ``gamma`` in an encoder) is an
error.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .channels import ROW_TOL, ChannelTriple, TransitionMatrix, sample
from .errors import ENUMERATION_BUDGET, MU_GRID_BUDGET, BudgetError, Comb, ValidationError, check_budget  # noqa: F401
from .info_measures import (
    CapacityResult,
    channel_capacity,
    conditional_mutual_information,
    mutual_information_from_joint,
)
from .rand import as_rng, substream
from .sequences import Alphabet, SymbolSequence, read_text


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
            if not math.isfinite(p):
                raise ValidationError(f"non-finite emission probability {p} for key {key}")
            if x in seen:
                raise ValidationError(f"duplicate emission target {x} for key {key}")
            if p > 0.0:
                seen[x] = float(p)
        total = sum(seen.values())
        if abs(total - 1.0) > ROW_TOL:
            raise ValidationError(f"emission for key {key} sums to {total!r}")
        table[(s, u, w)] = tuple(sorted(seen.items()))
    for s, u, w in itertools.product(range(n_states), range(u_blocks), range(w_blocks)):
        if (s, u, w) not in table:
            raise ValidationError(f"emission undefined for (state={s}, u={u}, w={w})")
    return table


_SCALARS = ("k", "m", "in_size", "out_size", "n_states", "side_size")


def _check_scalars(values: dict, initial_state) -> None:
    """A spec's scalar checks: every entry of _SCALARS a positive integer, initial_state in range."""
    for name in _SCALARS:
        v = values[name]
        if not isinstance(v, int) or v < 1:
            raise ValidationError(f"{name} must be a positive integer, got {v!r}")
    if not 0 <= initial_state < values["n_states"]:
        raise ValidationError(f"initial state {initial_state} out of range")


@dataclass(frozen=True, eq=False)
class _FsmSpec:
    """Scalars, checks and helpers shared by encoder and decoder specs.

    Each spec class adds its own table, then next_state, side_size and
    initial_state, so all four keep the field order of their constructors.
    Tables are indexed by (state, input block, side block).
    """

    k: int
    m: int
    in_size: int
    out_size: int
    n_states: int

    _side_only = False

    def __post_init__(self):
        _check_scalars({name: getattr(self, name) for name in _SCALARS}, self.initial_state)
        self._normalize_tables()
        if self._side_only and self.side_size < 2:
            raise ValidationError(f"side-information {self._kind} needs side_size >= 2")

    def _set_table(self, field: str, in_blocks: int, limit: int, name: str) -> None:
        arr = np.asarray(getattr(self, field), dtype=np.int64)
        shape = (self.n_states, in_blocks, self.w_blocks)
        if arr.shape != shape:
            raise ValidationError(f"{name} table shape {arr.shape}, expected {shape}")
        if arr.min() < 0 or arr.max() >= limit:
            raise ValidationError(f"{name} table entry outside [0, {limit})")
        arr.setflags(write=False)
        object.__setattr__(self, field, arr)

    @property
    def w_blocks(self) -> int:
        return self.side_size ** self.k

    def with_initial_state(self, state: int) -> _FsmSpec:
        return replace(self, initial_state=state)


@dataclass(frozen=True, eq=False)
class StochasticEncoderSpec(_FsmSpec):
    """Finite-state stochastic encoder.

    emit maps (state, u-block index, w-block index) to a sparse distribution
    over x-block indices; plain encoders use w index 0 throughout and
    side_size 1. next_state has shape (states, u_blocks, w_blocks).
    """

    emit: dict
    next_state: np.ndarray
    side_size: int = 1
    initial_state: int = 0

    _kind = "encoder"

    def _normalize_tables(self):
        object.__setattr__(
            self, "emit", _normalize_emit(self.emit, self.n_states, self.u_blocks, self.w_blocks, self.x_blocks)
        )
        self._set_table("next_state", self.u_blocks, self.n_states, "next_state")

    @property
    def u_blocks(self) -> int:
        return self.in_size ** self.k

    @property
    def x_blocks(self) -> int:
        return self.out_size ** self.m


@dataclass(frozen=True, eq=False)
class SideInfoEncoderSpec(StochasticEncoderSpec):
    """Encoder whose tables are additionally indexed by side-information blocks."""

    _side_only = True


@dataclass(frozen=True, eq=False)
class DecoderSpec(_FsmSpec):
    """Deterministic finite-state decoder.

    out_table and next_state have shape (states, y_blocks, w_blocks); entries
    of out_table are reconstruction u-block indices.
    """

    out_table: np.ndarray
    next_state: np.ndarray
    side_size: int = 1
    initial_state: int = 0

    _kind = "decoder"

    def _normalize_tables(self):
        self._set_table("out_table", self.y_blocks, self.out_size ** self.k, "out")
        self._set_table("next_state", self.y_blocks, self.n_states, "next_state")

    @property
    def y_blocks(self) -> int:
        return self.in_size ** self.m


@dataclass(frozen=True, eq=False)
class SideInfoDecoderSpec(DecoderSpec):
    """Decoder whose tables are additionally indexed by side-information blocks."""

    _side_only = True


# per FSM-file kind: the scalars naming its input and output alphabets, the
# lines that belong to the other kind only, and its plain and side-information
# spec classes
_FSM_KINDS = {
    "encoder": (("alpha", "beta"), ("gamma", "out"), (StochasticEncoderSpec, SideInfoEncoderSpec)),
    "decoder": (("gamma", "alpha"), ("beta", "emit"), (DecoderSpec, SideInfoDecoderSpec)),
}


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
    empirical frequencies.
    """

    trials: int
    chunk_count: int
    bit_error_rate: float
    per_chunk_error: tuple
    worst_chunk_error: float
    empirical_joint: dict | None = None


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
    if collect_joint:
        if w is not None and len(w) != n:
            raise ValidationError(f"side sequence length {len(w)} does not match {n}")
        u_idx = _chunk_indices(u, enc.k, enc.in_size)
        # w's own alphabet: a plain codec ignores w, but the joint records it
        w_idx = [0] * chunks if w is None else _chunk_indices(w, enc.k, w.alphabet.size)
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
            for key in zip(
                u_idx,
                w_idx,
                _chunk_indices(x, enc.m, enc.out_size),
                _chunk_indices(y, enc.m, dec.in_size),
                _chunk_indices(z, enc.m, triple.wiretap.out_alphabet.size),
                enc_states,
                dec_states,
            ):
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


def _check_encoder_output(enc, triple: ChannelTriple) -> None:
    if enc.out_size != triple.main.in_alphabet.size:
        raise ValidationError(
            f"encoder output alphabet {enc.out_size} does not match channel input "
            f"{triple.main.in_alphabet.size}"
        )


def _check_system(enc, dec, triple: ChannelTriple) -> None:
    _check_encoder_output(enc, triple)
    if dec.in_size != triple.main.out_alphabet.size:
        raise ValidationError(
            f"decoder input alphabet {dec.in_size} does not match channel output "
            f"{triple.main.out_alphabet.size}"
        )
    if dec.out_size != enc.in_size or dec.k != enc.k or dec.m != enc.m:
        raise ValidationError("encoder and decoder disagree on (k, m, source alphabet)")


def _chunk_kernels(enc: StochasticEncoderSpec, triple: ChannelTriple) -> np.ndarray:
    """G[s, u_blk, w_blk, z_blk]: one-chunk law of Z^m given input and state.

    The law of an emitted x-block is the left-to-right np.kron of its m
    cascade rows, which is row x of the m-fold Kronecker power, bit for bit,
    without building that power. At most one law per kernel row is cached.
    """
    rows = triple.cascade.rows
    out = np.zeros((enc.n_states, enc.u_blocks, enc.w_blocks, rows.shape[1] ** enc.m))

    @functools.lru_cache(maxsize=enc.n_states * enc.u_blocks * enc.w_blocks)
    def law(x: int) -> np.ndarray:
        return functools.reduce(np.kron, rows[list(index_to_block(x, enc.out_size, enc.m))])

    for (s, ui, wi), dist in enc.emit.items():
        for x, p in dist:
            out[s, ui, wi] += p * law(x)
    return out


def induced_security_channel(enc: StochasticEncoderSpec, triple: ChannelTriple, n: int) -> TransitionMatrix:
    """Exact channel P(z^N | u^n) induced by a plain encoder, by enumeration.

    This is the side_size == 1 slice of the joint enumeration. Raises
    BudgetError, before allocating anything, when the matrix would exceed
    the enumeration budget.
    """
    if enc.side_size != 1:
        raise ValidationError("side-information encoders need conditional_leakage instead")
    g3 = _enumerate_g3(enc, triple, n)
    u_total, _, z_total = g3.shape
    return TransitionMatrix(Alphabet(u_total), Alphabet(z_total), g3.reshape(u_total, z_total))


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
    """(u_total, w_total, z_total) at block length n, once the joint and the chunk kernel pass the gate."""
    if n < 1 or n % enc.k != 0:
        raise ValidationError(f"n = {n} is not a positive multiple of k = {enc.k}")
    _check_encoder_output(enc, triple)
    z_size, z_len = triple.wiretap.out_alphabet.size, n // enc.k * enc.m
    check_budget("joint enumeration", (enc.in_size, n), (enc.side_size, n), (z_size, z_len))
    check_budget("chunk kernel", enc.n_states, enc.u_blocks, enc.w_blocks, (z_size, enc.m))
    return enc.in_size ** n, enc.side_size ** n, z_size ** z_len


def _enumerate_g3(enc: StochasticEncoderSpec, triple: ChannelTriple, n: int, gated: bool = False) -> np.ndarray:
    """G3[u_global, w_global, z_global] = P(z^N | u^n, w^n) by the chunk recursion; gated: budgets checked."""
    if not gated:
        _enumeration_shape(enc, triple, n)
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


def _leak_rows(enc, triple: ChannelTriple, leak_channel: TransitionMatrix | None, n: int) -> tuple:
    """(rows of the one-letter leak channel W -> W-dot, enumeration shape); None means W-dot = W.

    Validates the channel, then gates the enumeration (_enumeration_shape)
    and the (u^n, w-dot^n, z^N) joint, in that order. Every array
    _leakage_report makes lies in size between the two joints.
    """
    if leak_channel is None:
        leak = np.eye(enc.side_size)
    elif leak_channel.in_alphabet.size != enc.side_size:
        raise ValidationError(
            f"leak channel input {leak_channel.in_alphabet.size} does not match side alphabet "
            f"{enc.side_size}"
        )
    else:
        leak = leak_channel.rows
    shape = _enumeration_shape(enc, triple, n)
    check_budget("leaked-side joint", shape[0], (leak.shape[1], n), shape[2])
    return leak, shape


def _leakage_report(enc, g3: np.ndarray, n: int, leak: np.ndarray, mu_arr: np.ndarray) -> LeakageReport:
    p_uwz = mu_arr[:, :, None] * g3
    u_total, _, z_total = p_uwz.shape
    # one axis per side position, each mapped in place through the one-letter leak channel
    p_udz = p_uwz.reshape((u_total,) + (leak.shape[0],) * n + (z_total,))
    for axis in range(1, n + 1):
        p_udz = np.moveaxis(np.tensordot(p_udz, leak, axes=(axis, 0)), -1, axis)
    # in C order, as p_uwz is: with W-dot = W the two conditional sums then agree bit for bit
    p_udz = np.ascontiguousarray(p_udz).reshape(u_total, -1, z_total)
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
    mu=None,
) -> LeakageReport:
    """Exact I(U^n; Z^N | W-dot^n) plus companions, by full enumeration.

    mu is the joint source/side distribution with shape (in_size^n,
    side_size^n); a 1-D mu is accepted for plain encoders, and None means
    the uniform law (a broadcast view, so it takes no memory). leak_channel
    maps the side alphabet to the eavesdropper's degraded view W-dot; None
    means W-dot = W. Raises BudgetError, before allocating anything or
    reading mu, when G3 or the joint with W-dot would exceed the budget.
    The one-letter leak channel is applied to one side position at a time.
    """
    leak, (u_total, w_total, _) = _leak_rows(enc, triple, leak_channel, n)
    if mu is None:
        mu = np.broadcast_to(1.0 / (u_total * w_total), (u_total, w_total))
    mu_arr = np.asarray(mu, dtype=float)
    if mu_arr.ndim == 1:
        mu_arr = mu_arr[:, None]
    if mu_arr.shape != (u_total, w_total):
        raise ValidationError(f"mu shape {mu_arr.shape}, expected ({u_total}, {w_total})")
    if not (mu_arr.min() >= 0.0 and abs(float(mu_arr.sum()) - 1.0) <= 1e-9):  # NaN fails too
        raise ValidationError("mu must be a joint probability distribution")
    return _leakage_report(enc, _enumerate_g3(enc, triple, n, gated=True), n, leak, mu_arr)


def max_conditional_leakage(
    enc: StochasticEncoderSpec,
    triple: ChannelTriple,
    leak_channel: TransitionMatrix | None,
    n: int,
    grid_step: float = 0.25,
) -> tuple:
    """Maximize conditional leakage over a simplex grid of joint mu.

    Exhaustive over compositions with resolution grid_step; tiny n only.
    G3 does not depend on mu, so it is enumerated once. The enumeration, the
    grid size and the entries computed over the whole grid are gated, in that
    order, before anything is allocated. Returns (best LeakageReport, best mu).
    """
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError(f"grid step {grid_step} outside (0, 0.5]")
    if math.isinf(1.0 / grid_step):
        raise ValidationError(f"grid step {grid_step} has no finite reciprocal")
    leak, (u_total, w_total, z_total) = _leak_rows(enc, triple, leak_channel, n)
    cells = u_total * w_total
    levels = int(round(1.0 / grid_step))
    count = check_budget("mu grid", Comb(levels + cells - 1, cells - 1), budget=MU_GRID_BUDGET)
    check_budget("mu grid enumeration", count, cells, z_total)
    g3 = _enumerate_g3(enc, triple, n, gated=True)
    best = None
    for bars in itertools.combinations(range(levels + cells - 1), cells - 1):
        counts = np.diff((-1,) + bars + (levels + cells - 1,)) - 1
        mu = (counts / levels).reshape(u_total, w_total)
        rep = _leakage_report(enc, g3, n, leak, mu)
        if best is None or rep.i_uz_given_wdot > best[0].i_uz_given_wdot:
            best = (rep, mu)
    return best


def _parse_block(token: str, length: int, base: int, wild_error: str | None = None):
    # wild_error, when given, is the message for a wildcard in this block
    if token == "*":
        if wild_error is not None:
            raise ValidationError(wild_error)
        return ("*",) * length
    parts = token.split(",")
    if len(parts) != length:
        raise ValidationError(f"block {token!r} has {len(parts)} symbols, expected {length}")
    out = []
    for p in parts:
        if p == "*":
            if wild_error is not None:
                raise ValidationError(wild_error)
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


def load_fsm(path: str | os.PathLike):
    """Parse an FSM spec file into an encoder or decoder spec; every error names the path once."""
    text = read_text(path)
    try:
        return _build_spec(*_split_fsm(text))
    except BudgetError as exc:
        raise BudgetError(f"{path}: {exc}") from None
    except ValueError as exc:
        # ValidationError subclasses ValueError; bare ones come from int()/float()
        raise ValidationError(f"{path}: {exc}") from None


def _split_fsm(text: str) -> tuple:
    """(kind, scalars, emit lines, rule lines) of an FSM file's text."""
    lines = []
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if ln:
            lines.append(ln)
    if not lines:
        raise ValidationError("empty FSM file")
    kind = lines[0]
    if kind not in _FSM_KINDS:
        raise ValidationError(f"first line must be 'encoder' or 'decoder', got {kind!r}")
    other_kind_lines = _FSM_KINDS[kind][1]
    scalars = {}
    emit_lines, rule_lines = [], []
    for ln in lines[1:]:
        toks = ln.split()
        if toks[0] in other_kind_lines:
            article = "an" if kind == "encoder" else "a"
            raise ValidationError(f"unexpected '{toks[0]}' line in {article} {kind} file")
        if toks[0] in ("k", "m", "alpha", "beta", "gamma", "states", "init", "side"):
            if len(toks) != 2:
                raise ValidationError(f"malformed scalar line {ln!r}")
            try:
                scalars[toks[0]] = int(toks[1])
            except ValueError:
                raise ValidationError(f"non-integer value in {ln!r}") from None
        elif toks[0] == "emit":
            emit_lines.append(toks[1:])
        elif toks[0] in ("next", "out"):
            rule_lines.append((toks[0], toks[1:]))
        else:
            raise ValidationError(f"unknown directive {toks[0]!r}")
    return kind, scalars, emit_lines, rule_lines


def _parse_state_token(tok, n_states):
    if tok == "*":
        return "*"
    s = int(tok)
    if not 0 <= s < n_states:
        raise ValidationError(f"state {s} outside [0, {n_states})")
    return s


_EMIT_WILD = "wildcard not allowed in emit lines"


def _build_spec(kind, scalars, emit_lines, rule_lines):
    """One builder for both kinds: rule lines are written into their tables from the last to the first.

    A table has one axis for the state and one for each block position, so a
    wildcard is a whole-axis slice, and the first matching line is the one
    left in each (state, input block, side block) cell.
    """
    encoder = kind == "encoder"
    (in_name, out_name), _, spec_classes = _FSM_KINDS[kind]
    missing = [key for key in ("k", "m", in_name, out_name, "states", "init") if key not in scalars]
    if missing:
        raise ValidationError(f"missing scalar lines {missing}")
    k, m = scalars["k"], scalars["m"]
    a_in, a_out = scalars[in_name], scalars[out_name]
    n_states, init = scalars["states"], scalars["init"]
    side = scalars.get("side", 1)
    # the spec's own checks, before any line is parsed or table allocated
    _check_scalars(dict(k=k, m=m, in_size=a_in, out_size=a_out, n_states=n_states, side_size=side), init)
    has_side = side > 1
    in_len = k if encoder else m
    check_budget("FSM table", n_states, (a_in, in_len), (side, k))
    # a decoder's out table holds source block indices, up to a_out^k - 1
    if not encoder and a_out ** min(k, 64) > 2 ** 63:
        raise ValidationError(f"{a_out}^{k} source blocks overflow the int64 out table")
    emit: dict = {}
    for toks in emit_lines:
        want = 4 + has_side
        if len(toks) not in (want - 1, want):
            raise ValidationError(f"malformed emit line {' '.join(toks)!r}")
        s = _parse_state_token(toks[0], n_states)
        if s == "*":
            raise ValidationError(_EMIT_WILD)
        u_blk = _parse_block(toks[1], k, a_in, _EMIT_WILD)
        w_blk = _parse_block(toks[2], k, side, _EMIT_WILD) if has_side else (0,) * k
        x_pos = 2 + has_side
        x_blk = _parse_block(toks[x_pos], m, a_out, _EMIT_WILD)
        prob = float(toks[x_pos + 1]) if len(toks) == want else 1.0
        key = (s, block_to_index(u_blk, a_in), block_to_index(w_blk, max(side, 1)))
        emit.setdefault(key, []).append((block_to_index(x_blk, a_out), prob))
    # axes of one value hold index 0 only and are left out, so the budget keeps a table under 25 axes
    dims = (n_states,) + (a_in,) * in_len + (side,) * k
    axes = [i for i, size in enumerate(dims) if size > 1]
    rules = []
    for name, toks in rule_lines:
        if len(toks) != 3 + has_side:
            raise ValidationError(f"malformed {name} line {' '.join(toks)!r}")
        s = _parse_state_token(toks[0], n_states)
        blk = _parse_block(toks[1], in_len, a_in)
        w_blk = _parse_block(toks[2], k, side) if has_side else ()
        if name == "out":
            out_wild = "wildcard not allowed in the output block of an out line"
            payload = block_to_index(_parse_block(toks[-1], k, a_out, out_wild), a_out)
        else:
            payload = int(toks[-1])
            if not 0 <= payload < n_states:
                raise ValidationError(f"next state {payload} outside [0, {n_states})")
        key = (s,) + blk + w_blk
        rules.append((name, tuple(slice(None) if key[i] == "*" else key[i] for i in axes), payload))
    names = ("next",) if encoder else ("out", "next")
    tables = {name: np.full([dims[i] for i in axes], -1, dtype=np.int64) for name in names}
    for name, cell, payload in reversed(rules):
        tables[name][cell] = payload
    shape = (n_states, a_in ** in_len, side ** k)
    # the first uncovered cell in C order, that is in (state, block, side block) order; out first at a tie
    gaps = [(int((t < 0).argmax()), i, name) for i, (name, t) in enumerate(tables.items()) if t.min() < 0]
    if gaps:
        cell, _, name = min(gaps)
        s, bi, wi = map(int, np.unravel_index(cell, shape))
        blk, w_blk = index_to_block(bi, a_in, in_len), index_to_block(wi, side, k)
        what = "output" if name == "out" else "next state"
        raise ValidationError(f"{what} undefined for (state={s}, {'u' if encoder else 'y'}={blk}, w={w_blk})")
    tables = {name: t.reshape(shape) for name, t in tables.items()}
    first = {"emit": {k2: tuple(v) for k2, v in emit.items()}} if encoder else {"out_table": tables["out"]}
    return spec_classes[has_side](
        k=k,
        m=m,
        in_size=a_in,
        out_size=a_out,
        n_states=n_states,
        **first,
        next_state=tables["next"],
        side_size=side,
        initial_state=init,
    )


def dump_fsm(spec, path: str | os.PathLike) -> None:
    """Write a spec back out with fully concrete lines."""
    if not isinstance(spec, _FsmSpec):
        raise ValidationError(f"cannot serialize object of type {type(spec).__name__}")
    has_side = spec.side_size > 1
    in_name, out_name = _FSM_KINDS[spec._kind][0]
    lines = [
        spec._kind,
        f"k {spec.k}",
        f"m {spec.m}",
        f"{in_name} {spec.in_size}",
        f"{out_name} {spec.out_size}",
        f"states {spec.n_states}",
        f"init {spec.initial_state}",
    ]
    if has_side:
        lines.append(f"side {spec.side_size}")

    def tok(idx, base, length):
        return ",".join(str(v) for v in index_to_block(idx, base, length))

    w_toks = [[tok(wi, spec.side_size, spec.k)] if has_side else [] for wi in range(spec.w_blocks)]
    if isinstance(spec, StochasticEncoderSpec):
        for (s, ui, wi), dist in sorted(spec.emit.items()):
            head = ["emit", str(s), tok(ui, spec.in_size, spec.k)] + w_toks[wi]
            for x, p in dist:
                lines.append(" ".join(head + [tok(x, spec.out_size, spec.m), f"{p:.17g}"]))
        in_len, tables = spec.k, [("next", spec.next_state, spec.n_states, 1)]
    else:
        in_len = spec.m
        tables = [("out", spec.out_table, spec.out_size, spec.k), ("next", spec.next_state, spec.n_states, 1)]
    # one line per table and cell; a next state is written as a one-symbol block
    for s, bi, wi in itertools.product(range(spec.n_states), range(spec.in_size ** in_len), range(spec.w_blocks)):
        head = [str(s), tok(bi, spec.in_size, in_len)] + w_toks[wi]
        for name, table, base, length in tables:
            lines.append(" ".join([name] + head + [tok(int(table[s, bi, wi]), base, length)]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
