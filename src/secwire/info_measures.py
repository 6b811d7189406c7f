"""Entropies, mutual information, channel capacity, and secrecy quantities.

Probability vectors are plain 1-D arrays validated at the API boundary
(nonnegative entries summing to 1 within 1e-12).

Solver certification: channel_capacity runs Blahut-Arimoto and certifies with
the standard duality gap max_x D(Q_x || q) - I(p). secrecy_capacity and gamma
maximize f(p) = I(X;Y) - I(X;Z), which is concave for the degraded triple,
with one ascent (_ascent): a pairwise conditional-gradient method with exact
golden-section line searches from deterministic multistarts, or for binary
inputs an essentially exact one-dimensional golden-section search. Both
report as certified_gap the Frank-Wolfe duality gap max_x s_x - s . p (s the
gradient of f) at the returned point, an upper bound on its suboptimality
(Jaggi 2013). gamma adds the constraint I(X;Y) >= R: its starts are mixed
toward the capacity-achieving input until feasible, its binary interval and
every line search are clipped by bisection to the feasible set, and it also
searches toward the capacity-achieving input. Its gap stays the
unconstrained one, which still bounds the constrained suboptimality.

Every mutual information, in the public functions and in the solvers, goes
through one kernel, _mi_rows, and every search through one driver,
_lockstep. The golden-section search and the bisection are coroutines that
yield the points they need; _lockstep drives a list of them together,
evaluating the pending points of all of them in one stacked call per step.
The binary golden-section search is a list of one. The multistarts run in
lock step: each round of the ascent collects the line searches of every
running start and direction, and gamma's bisections (every start mixed
toward the capacity-achieving input, every direction's t_max) run the same
way. Each start keeps its own iterate, iteration count and stopping rules,
and _mi_rows computes each law of a stack bit for bit as it computes that law
alone, so every result equals that of running the starts one after another.
A bisection stops once its midpoint rounds to one of its ends, after which
further steps could not move its result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import CONTRACTION_BLOCK_ENTRIES, ROW_TOL, ChannelTriple, TransitionMatrix
from .errors import BudgetError, InfeasibleError, ValidationError

_TINY = 1e-320


def check_prob_vector(p, size: int | None = None) -> np.ndarray:
    """Validate and return a probability vector as a float array."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"probability vector must be 1-D and nonempty, got shape {arr.shape}")
    if size is not None and arr.size != size:
        raise ValidationError(f"probability vector has length {arr.size}, expected {size}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValidationError(f"non-finite probability {float(arr[~finite][0])}")
    if np.any(arr < 0.0):
        raise ValidationError(f"negative probability {float(arr.min())!r}")
    residual = abs(float(arr.sum()) - 1.0)
    if residual > ROW_TOL:
        raise ValidationError(f"probabilities sum residual {residual:.6g} exceeds {ROW_TOL}")
    return arr


def entropy(dist) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    return _entropy_raw(check_prob_vector(dist))


def _entropy_raw(arr: np.ndarray) -> float:
    mask = arr > 0.0
    # without zero entries the compacted copy is the C-order ravel, a view when arr is C-contiguous
    nz = arr.ravel() if mask.all() else arr[mask]
    if not nz.size:
        return 0.0
    terms = np.log2(nz)
    terms *= nz
    return float(-terms.sum())


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"binary entropy argument {p} outside [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_information(p, ch: TransitionMatrix) -> float:
    """I(X;Y) in bits for input distribution p on the given channel.

    Computed as H(Y) - H(Y|X), which avoids any division by output
    probabilities.
    """
    arr = check_prob_vector(p, ch.in_alphabet.size)
    return float(_mi_rows(arr, ch.rows, _row_entropies(ch.rows)))


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """Entropy of every row of a 2-D array, each bit for bit _entropy_raw(row).

    Zero entries enter as 0 terms. Below 8 entries numpy sums a row from left
    to right, where a 0 term changes nothing; wider rows are summed pairwise,
    so a wider row with a zero entry is summed without it, as _entropy_raw does.
    """
    h = -np.add.reduce(rows * np.log2(np.where(rows > 0.0, rows, 1.0)), axis=1)
    if rows.shape[1] >= 8:
        for i in np.flatnonzero((rows <= 0.0).any(axis=1)):
            h[i] = _entropy_raw(rows[i])
    return h


def _mi_rows(p: np.ndarray, rows: np.ndarray, row_ent: np.ndarray) -> np.ndarray:
    """I(X;Y) = H(Y) - H(Y|X) for every input law along the last axis of p.

    A 1-D p gives a 0-d array. row_ent must be _row_entropies(rows). Each
    value equals, bit for bit, the one-law computation: np.matmul on a stack
    of (1, n) rows runs one gemv per law, as p @ rows does for a 1-D p (a 2-D
    p @ rows goes through gemm, which can round differently), and H(Y|X) is
    accumulated in row order.
    """
    flat = p.reshape(-1, p.shape[-1])
    q = np.matmul(flat[:, None, :], rows)[:, 0, :]
    # + 0.0: a sum of zero terms is +0.0, as a loop starting from 0.0 gives
    h_cond = np.add.accumulate(flat * row_ent, axis=1)[:, -1] + 0.0
    mi = _row_entropies(q) - h_cond
    return np.where(mi < 0.0, 0.0, mi).reshape(p.shape[:-1])


def _secrecy_objective(triple: ChannelTriple):
    """p -> I(X;Y) - I(X;Z) for one law or along the last axis of a stack of laws.

    Both channels' row entropies are computed once.
    """
    main, casc = triple.main.rows, triple.cascade.rows
    ent_m, ent_c = _row_entropies(main), _row_entropies(casc)

    def value(p):
        return _mi_rows(p, main, ent_m) - _mi_rows(p, casc, ent_c)

    return value


def secrecy_rate(p, triple: ChannelTriple) -> float:
    """f(p) = I(X;Y) - I(X;Z) in bits."""
    arr = check_prob_vector(p, triple.main.in_alphabet.size)
    return float(_secrecy_objective(triple)(arr))


def _check_joint(joint, ndim: int) -> np.ndarray:
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-D joint distribution, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValidationError(f"non-finite joint probability {float(arr[~finite][0])}")
    if arr.min() < -1e-12:
        raise ValidationError(f"negative joint probability {float(arr.min())!r}")
    # the one copy: it keeps the memory order of joint, which sets the order of every sum over it
    arr = np.maximum(arr, 0.0)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"joint distribution sums to {total!r}")
    arr /= total
    return arr


def mutual_information_from_joint(joint) -> float:
    """I(A;B) in bits from a 2-D joint distribution indexed (a, b)."""
    arr = _check_joint(joint, 2)
    h_a = _entropy_raw(arr.sum(axis=1))
    h_b = _entropy_raw(arr.sum(axis=0))
    return max(h_a + h_b - _entropy_raw(arr.ravel()), 0.0)


def conditional_mutual_information(joint) -> float:
    """I(A;B|C) in bits from a 3-D joint distribution indexed (a, b, c).

    Computed as H(A,C) + H(B,C) - H(C) - H(A,B,C), all plain entropies, so no
    conditional distributions are ever divided out.
    """
    arr = _check_joint(joint, 3)
    h_ac = _entropy_raw(arr.sum(axis=1).ravel())
    h_bc = _entropy_raw(arr.sum(axis=0).ravel())
    h_c = _entropy_raw(arr.sum(axis=(0, 1)))
    # H(A,B,C) sums in C order; rebinding frees arr once its C-order copy exists
    arr = arr.ravel()
    h_abc = _entropy_raw(arr)
    return max(h_ac + h_bc - h_c - h_abc, 0.0)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Optimizer output: value is within certified_gap of the true optimum."""

    value: float
    argmax: np.ndarray
    iterations: int
    certified_gap: float


def _row_divergences(rows: np.ndarray, q: np.ndarray, row_neg_ent: np.ndarray) -> np.ndarray:
    # D(Q_x || q) per row; q is floored so zero channel entries kill the terms.
    logq = np.log2(np.maximum(q, _TINY))
    return row_neg_ent - rows @ logq


def channel_capacity(ch: TransitionMatrix, tol: float = 1e-9, max_iter: int = 200000) -> CapacityResult:
    """Blahut-Arimoto capacity with a certified duality gap.

    Returns the best iterate found; certified_gap may exceed tol if the
    iteration cap is hit, in which case value is still a valid lower bound
    within certified_gap of capacity.
    """
    _check_tol(tol)
    rows = ch.rows
    n = rows.shape[0]
    row_neg_ent = _neg_row_entropies(rows)
    p = np.full(n, 1.0 / n)
    best = None
    it = 0
    for it in range(1, max_iter + 1):
        q = p @ rows
        div = _row_divergences(rows, q, row_neg_ent)
        ub = float(div.max())
        lb = float(p @ div)
        if best is None or ub - lb < best[2]:
            best = (lb, p.copy(), ub - lb, it)
        if ub - lb <= tol:
            break
        p = p * np.exp2(div - ub)
        p = np.maximum(p, 1e-300)
        p /= p.sum()
    lb, p_best, gap, _ = best
    return CapacityResult(value=lb, argmax=p_best, iterations=it, certified_gap=max(gap, 0.0))


def _check_tol(tol: float) -> None:
    if not tol > 0:  # NaN fails too
        raise ValidationError(f"tolerance must be positive, got {tol}")


def _golden_max(lo: float, hi: float, rtol: float = 1e-13, max_iter: int = 200):
    """Golden-section maximization of a concave function on [lo, hi], as a coroutine.

    Yields each point at which it needs the function and must be sent the
    value there (see _lockstep); returns (t, f(t)) for the best of
    its final four points.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = yield x1
    f2 = yield x2
    for _ in range(max_iter):
        if b - a <= rtol * max(1.0, abs(a) + abs(b)):
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = yield x2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = yield x1
    fa = yield a
    fb = yield b
    xs = [(a, fa), (x1, f1), (x2, f2), (b, fb)]
    return max(xs, key=lambda t: t[1])


def _feasible_boundary(inner: float, outer: float):
    """Farthest point from inner toward outer at which pred still holds, as a coroutine.

    Yields each point at which it needs pred and must be sent whether pred
    holds there. pred(inner) holds and pred holds on an interval around
    inner (a rate constraint along a segment, where I(X;Y) is concave); up
    to 100 bisections. It stops once the midpoint rounds to inner or outer:
    pred fails at outer, so from then on no bisection could move inner.
    """
    if (yield outer):
        return outer
    for _ in range(100):
        mid = 0.5 * (inner + outer)
        if mid == inner or mid == outer:
            break
        if (yield mid):
            inner = mid
        else:
            outer = mid
    return inner


def _lockstep(searches: list, fun) -> list:
    """Drive search coroutines in lock step and return their results in order.

    fun maps an array holding one point per search to an array of values.
    Each step evaluates the pending points of all unfinished searches in one
    call; the last points of finished searches ride along and are ignored.
    """
    points = [next(s) for s in searches]
    results = [None] * len(searches)
    running = list(range(len(searches)))
    while running:
        values = fun(np.array(points)).tolist()
        still = []
        for i in running:
            try:
                points[i] = searches[i].send(values[i])
                still.append(i)
            except StopIteration as stop:
                results[i] = stop.value
        running = still
    return results


def _secrecy_slopes(p: np.ndarray, triple: ChannelTriple, neg_ent_m: np.ndarray, neg_ent_c: np.ndarray) -> np.ndarray:
    qy = p @ triple.main.rows
    qz = p @ triple.cascade.rows
    return _row_divergences(triple.main.rows, qy, neg_ent_m) - _row_divergences(
        triple.cascade.rows, qz, neg_ent_c
    )


def _fw_gap(p: np.ndarray, slopes: np.ndarray) -> float:
    return float(slopes.max() - slopes @ p)


def _simplex_starts(n: int) -> list:
    starts = [np.full(n, 1.0 / n)]
    for j in range(n):
        p = np.full(n, 0.02 / max(n - 1, 1))
        p[j] = 1.0 - 0.02
        starts.append(p / p.sum())
    for j in range(n - 1):
        p = np.full(n, 0.25 / max(n - 1, 1))
        p[j] += 0.75 - 0.25 / max(n - 1, 1)
        starts.append(p / p.sum())
    return starts[:8] if n > 2 else starts


def _cg_directions(p: np.ndarray, j_plus: int, j_minus: int):
    """The pairwise (away-to-toward) and Frank-Wolfe directions with their step limits."""
    if j_plus != j_minus:
        direction = np.zeros(p.size)
        direction[j_plus] = 1.0
        direction[j_minus] = -1.0
        yield direction, float(p[j_minus])
    direction = -p.copy()
    direction[j_plus] += 1.0
    yield direction, 1.0


def _ascent(triple: ChannelTriple, tol: float, max_iter: int, feasible=None, p_cap=None) -> CapacityResult:
    """Maximize I(X;Y) - I(X;Z); certified_gap is the FW gap at the returned point.

    Binary inputs take one golden-section search over p[0] in [0, 1] and
    report 300 iterations. Larger alphabets run a conditional-gradient ascent
    from every point of _simplex_starts, all starts in lock step: in each
    round every running start line-searches each (direction, t_max) pair of
    _cg_directions over [0, t_max] (pairs with t_max <= 0 are skipped), the
    searches of all starts driven together by _lockstep, and moves to its
    best point. A start stops when its gap is within tol, no step improves,
    or after max_iter steps; the best end point, first in start order, is
    returned.

    gamma passes feasible, a test of I(X;Y) >= R along the last axis of its
    argument, and p_cap, the capacity-achieving input: the binary interval,
    every start and every t_max are then cut back by bisection to the
    feasible set, and each start also searches toward p_cap.
    """
    neg_ent_m = _neg_row_entropies(triple.main.rows)
    neg_ent_c = _neg_row_entropies(triple.cascade.rows)
    value = _secrecy_objective(triple)
    n = triple.main.in_alphabet.size

    if n == 2:
        lo, hi = 0.0, 1.0
        if feasible is not None:
            t_cap = float(p_cap[0])
            ends = _lockstep(
                [_feasible_boundary(t_cap, end) for end in (0.0, 1.0)],
                lambda t: feasible(np.stack([t, 1.0 - t], axis=-1)),
            )
            lo, hi = min(ends), max(ends)
        [(t, fval)] = _lockstep([_golden_max(lo, hi)], lambda t: value(np.stack([t, 1.0 - t], axis=-1)))
        p, total_it = np.array([t, 1.0 - t]), 300
    else:
        p = np.array(_simplex_starts(n))
        if feasible is not None:
            s = _lockstep([_feasible_boundary(1.0, 0.0) for _ in p], lambda s: feasible(_mix(p, p_cap, s)))
            p = _mix(p, p_cap, np.array(s))
        fval = value(p).tolist()
        its = [0] * len(p)
        running = list(range(len(p)))
        for _ in range(max_iter):
            if not running:
                break
            owner, dirs, t_max = [], [], []
            for i in running:
                its[i] += 1
                slopes = _secrecy_slopes(p[i], triple, neg_ent_m, neg_ent_c)
                if _fw_gap(p[i], slopes) <= tol:
                    continue
                j_plus = int(np.argmax(slopes))
                active = np.flatnonzero(p[i] > 1e-15)
                j_minus = int(active[np.argmin(slopes[active])])
                pairs = list(_cg_directions(p[i], j_plus, j_minus))
                if p_cap is not None:
                    pairs.append((p_cap - p[i], 1.0))
                for direction, limit in pairs:
                    owner.append(i)
                    dirs.append(direction)
                    t_max.append(limit)
            if not owner:
                break
            base, dirs = p[owner], np.array(dirs)
            if feasible is not None:
                t_max = _lockstep(
                    [_feasible_boundary(0.0, limit) for limit in t_max], lambda t: feasible(_step(base, dirs, t))
                )
            keep = [j for j, limit in enumerate(t_max) if limit > 0.0]
            owner, base, dirs = [owner[j] for j in keep], base[keep], dirs[keep]
            line = _lockstep([_golden_max(0.0, t_max[j]) for j in keep], lambda t: value(_step(base, dirs, t)))
            p_new = _step(base, dirs, np.array([t for t, _ in line]))
            pick = {}  # each start's first best search
            for j, i in enumerate(owner):
                if i not in pick or line[j][1] > line[pick[i]][1]:
                    pick[i] = j
            running = []
            for i, j in pick.items():
                if line[j][1] <= fval[i] + 1e-16:
                    continue
                p[i], fval[i] = p_new[j], line[j][1]
                running.append(i)
        best = max(range(len(p)), key=fval.__getitem__)
        p, fval, total_it = p[best].copy(), fval[best], sum(its)
    gap = _fw_gap(p, _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c))
    return CapacityResult(value=fval, argmax=p, iterations=total_it, certified_gap=max(gap, 0.0))


def secrecy_capacity(triple: ChannelTriple, tol: float = 1e-9, max_iter: int = 2000) -> CapacityResult:
    """Maximize I(X;Y) - I(X;Z) over input distributions.

    certified_gap is the Frank-Wolfe gap at the returned point, valid because
    the objective is concave for the degraded cascade construction.
    """
    _check_tol(tol)
    return _ascent(triple, tol, max_iter)


def _neg_row_entropies(rows: np.ndarray) -> np.ndarray:
    """sum_y Q(y|x) log2 Q(y|x) for every row x, zero entries giving 0 terms.

    C-contiguous rows go in blocks of whole rows, at most
    CONTRACTION_BLOCK_ENTRIES entries or one row each, with log2 and the
    product taken in place in one block-sized buffer, so rows is the only
    full-size array. The memory order sets the order of a row's sum, so other
    layouts go as one block. Each value is bit for bit that of the one-pass
    np.where(rows > 0, rows * np.log2(np.where(rows > 0, rows, 1)), 0).sum(axis=1).
    """
    h = np.empty(rows.shape[0])
    step = max(len(h), 1)
    if rows.flags.c_contiguous:
        step = max(1, CONTRACTION_BLOCK_ENTRIES // max(rows.shape[1], 1))
    for lo in range(0, len(h), step):
        block = rows[lo : lo + step]
        mask = block > 0.0
        terms = np.where(mask, block, 1.0)
        np.log2(terms, out=terms)
        np.multiply(block, terms, out=terms)
        terms[~mask] = 0.0
        np.add.reduce(terms, axis=1, out=h[lo : lo + step])
    return h


def _step(p: np.ndarray, direction: np.ndarray, t: np.ndarray) -> np.ndarray:
    """p + t direction, clipped at 0 and renormalized, for every step length in t."""
    out = np.maximum(p + t[..., None] * direction, 0.0)
    return out / out.sum(axis=-1, keepdims=True)


def _mix(p: np.ndarray, target: np.ndarray, s: np.ndarray) -> np.ndarray:
    return (1.0 - s)[..., None] * p + s[..., None] * target


def secrecy_capacity_oracle(triple: ChannelTriple, grid_step: float = 0.02, refine: int = 0) -> float:
    """Exhaustive simplex-grid maximum of the secrecy rate, small alphabets only.

    With refine > 0, follows the grid optimum with a shrinking pattern search
    (pure enumeration, no gradients), halving the step refine times.
    """
    n = triple.main.in_alphabet.size
    if n > 4:
        raise BudgetError(f"exhaustive oracle limited to input alphabets of size <= 4, got {n}")
    if not 0.0 < grid_step <= 0.5:
        raise ValidationError(f"grid step {grid_step} outside (0, 0.5]")
    levels = int(round(1.0 / grid_step))
    value = _secrecy_objective(triple)

    best_p, best_v = None, -math.inf
    for bars in itertools.combinations(range(levels + n - 1), n - 1):
        counts = np.diff((-1,) + bars + (levels + n - 1,)) - 1
        p = counts / levels
        v = value(p)
        if v > best_v:
            best_v, best_p = v, p
    step = grid_step
    for _ in range(refine):
        step /= 2.0
        improved = True
        while improved:
            improved = False
            for i in range(n):
                for j in range(n):
                    if i == j or best_p[j] < step:
                        continue
                    cand = best_p.copy()
                    cand[i] += step
                    cand[j] -= step
                    v = value(cand)
                    if v > best_v + 1e-15:
                        best_v, best_p = v, cand
                        improved = True
    return float(best_v)


@dataclass(frozen=True)
class GammaCurve:
    """Gamma[R] sampled on a rate grid; c_m is the main-channel capacity."""

    points: tuple
    c_m: float


def gamma(triple: ChannelTriple, rate: float, tol: float = 1e-9) -> CapacityResult:
    """Gamma[R]: maximize I(X;Y) - I(X;Z) subject to I(X;Y) >= rate.

    Raises InfeasibleError when rate exceeds main-channel capacity. For
    binding constraints on alphabets larger than 2 the certified_gap reported
    is the unconstrained Frank-Wolfe gap, an upper bound that can be loose.
    """
    if not rate >= 0.0:  # NaN fails too
        raise ValidationError(f"rate must be nonnegative, got {rate}")
    _check_tol(tol)
    return _gamma_at(triple, rate, tol, channel_capacity(triple.main, tol=min(tol, 1e-11)))


def _gamma_at(triple: ChannelTriple, rate: float, tol: float, cap: CapacityResult) -> CapacityResult:
    """gamma for a nonnegative rate, given cap = channel_capacity(triple.main, tol=min(tol, 1e-11))."""
    if rate > cap.value + max(cap.certified_gap, 1e-9):
        raise InfeasibleError(
            f"rate {rate:.10g} exceeds main-channel capacity {cap.value:.10g}"
        )
    rate = min(rate, cap.value)
    main = triple.main.rows
    ent_m = _row_entropies(main)
    return _ascent(triple, tol, 2000, lambda p: _mi_rows(p, main, ent_m) >= rate, cap.argmax)


def gamma_curve(triple: ChannelTriple, points: int = 50, tol: float = 1e-9) -> GammaCurve:
    """Sample Gamma[R] on an evenly spaced rate grid over [0, C_M]."""
    if points < 2:
        raise ValidationError(f"need at least 2 grid points, got {points}")
    cap = channel_capacity(triple.main, tol=min(tol, 1e-11))
    c_m = cap.value
    grid = []
    for i in range(points):
        r = c_m * i / (points - 1)
        grid.append((r, _gamma_at(triple, r, tol, cap).value))
    return GammaCurve(points=tuple(grid), c_m=c_m)
