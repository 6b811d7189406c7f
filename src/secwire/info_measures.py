"""Entropies, mutual information, channel capacity, and secrecy quantities.

Probability vectors are plain 1-D arrays validated at the API boundary
(nonnegative entries summing to 1 within 1e-12).

Solver certification: channel_capacity runs Blahut-Arimoto and certifies with
the standard duality gap max_x D(Q_x || q) - I(p). secrecy_capacity maximizes
f(p) = I(X;Y) - I(X;Z), which is concave for the degraded triple, with a
pairwise conditional-gradient ascent (exact golden-section line searches,
deterministic multistarts); its certified_gap is the Frank-Wolfe duality gap,
an upper bound on suboptimality at any iterate. Binary input alphabets take an
essentially exact one-dimensional search instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelTriple, TransitionMatrix
from .errors import BudgetError, InfeasibleError, ValidationError

PROB_TOL = 1e-12
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
        raise ValidationError(f"negative probability {arr.min()!r}")
    residual = abs(float(arr.sum()) - 1.0)
    if residual > PROB_TOL:
        raise ValidationError(f"probabilities sum residual {residual:.6g} exceeds {PROB_TOL}")
    return arr


def entropy(dist) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    arr = check_prob_vector(dist)
    nz = arr[arr > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _entropy_raw(arr: np.ndarray) -> float:
    nz = arr[arr > 0.0]
    return float(-(nz * np.log2(nz)).sum()) if nz.size else 0.0


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
    return _mi_raw(arr, ch.rows)


def _row_entropies(rows: np.ndarray) -> list:
    """H(Y | X = x) for every row, as _mi_raw would compute it."""
    return [_entropy_raw(row) for row in rows]


def _mi_raw(p: np.ndarray, rows: np.ndarray, row_ent: list | None = None) -> float:
    # row_ent, when given, must be _row_entropies(rows); solvers pass it so
    # the input-independent row entropies are computed once per call
    if row_ent is None:
        row_ent = _row_entropies(rows)
    q = p @ rows
    h_cond = 0.0
    for px, h in zip(p.tolist(), row_ent):
        if px > 0.0:
            h_cond += px * h
    return max(_entropy_raw(q) - h_cond, 0.0)


def _secrecy_objective(triple: ChannelTriple):
    """p -> I(X;Y) - I(X;Z), with both channels' row entropies computed once."""
    main, casc = triple.main.rows, triple.cascade.rows
    ent_m, ent_c = _row_entropies(main), _row_entropies(casc)

    def value(p):
        return _mi_raw(p, main, ent_m) - _mi_raw(p, casc, ent_c)

    return value


def secrecy_rate(p, triple: ChannelTriple) -> float:
    """f(p) = I(X;Y) - I(X;Z) in bits."""
    arr = check_prob_vector(p, triple.main.in_alphabet.size)
    return _mi_raw(arr, triple.main.rows) - _mi_raw(arr, triple.cascade.rows)


def _check_joint(joint, ndim: int) -> np.ndarray:
    arr = np.asarray(joint, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"expected a {ndim}-D joint distribution, got shape {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        raise ValidationError(f"non-finite joint probability {float(arr[~finite][0])}")
    if arr.min() < -1e-12:
        raise ValidationError(f"negative joint probability {arr.min()!r}")
    arr = np.maximum(arr, 0.0)
    total = float(arr.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"joint distribution sums to {total!r}")
    return arr / total


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
    h_abc = _entropy_raw(arr.ravel())
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
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    rows = ch.rows
    n = rows.shape[0]
    mask = rows > 0.0
    row_neg_ent = np.where(mask, rows * np.log2(np.where(mask, rows, 1.0)), 0.0).sum(axis=1)
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


def _golden_max(fun, lo: float, hi: float, rtol: float = 1e-13, max_iter: int = 200):
    """Golden-section maximization of a concave function on [lo, hi]."""
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


def secrecy_capacity(triple: ChannelTriple, tol: float = 1e-9, max_iter: int = 2000) -> CapacityResult:
    """Maximize I(X;Y) - I(X;Z) over input distributions.

    certified_gap is the Frank-Wolfe gap at the returned point, valid because
    the objective is concave for the degraded cascade construction.
    """
    n = triple.main.in_alphabet.size
    neg_ent_m = _neg_row_entropies(triple.main.rows)
    neg_ent_c = _neg_row_entropies(triple.cascade.rows)
    value = _secrecy_objective(triple)

    if n == 2:
        t, fval = _golden_max(
            lambda t: value(np.array([t, 1.0 - t])), 0.0, 1.0, rtol=1e-13, max_iter=300
        )[:2]
        p = np.array([t, 1.0 - t])
        gap = _fw_gap(p, _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c))
        return CapacityResult(value=fval, argmax=p, iterations=300, certified_gap=max(gap, 0.0))

    best = None
    total_it = 0
    for p0 in _simplex_starts(n):
        p = p0.copy()
        fval = value(p)
        gap = math.inf
        for _ in range(max_iter):
            total_it += 1
            slopes = _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c)
            gap = _fw_gap(p, slopes)
            if gap <= tol:
                break
            j_plus = int(np.argmax(slopes))
            active = np.flatnonzero(p > 1e-15)
            j_minus = int(active[np.argmin(slopes[active])])
            candidates = []
            if j_plus != j_minus:
                t_max = float(p[j_minus])
                direction = np.zeros(n)
                direction[j_plus] = 1.0
                direction[j_minus] = -1.0
                t, ft = _golden_max(lambda t: value(_step(p, direction, t)), 0.0, t_max)[:2]
                candidates.append((ft, _step(p, direction, t)))
            direction = -p.copy()
            direction[j_plus] += 1.0
            t, ft = _golden_max(lambda t: value(_step(p, direction, t)), 0.0, 1.0)[:2]
            candidates.append((ft, _step(p, direction, t)))
            ft, p_new = max(candidates, key=lambda c: c[0])
            if ft <= fval + 1e-16:
                break
            p, fval = p_new, ft
        if best is None or fval > best[0]:
            best = (fval, p, gap)
    fval, p, gap = best
    return CapacityResult(value=fval, argmax=p, iterations=total_it, certified_gap=max(gap, 0.0))


def _neg_row_entropies(rows: np.ndarray) -> np.ndarray:
    mask = rows > 0.0
    return np.where(mask, rows * np.log2(np.where(mask, rows, 1.0)), 0.0).sum(axis=1)


def _step(p: np.ndarray, direction: np.ndarray, t: float) -> np.ndarray:
    out = np.maximum(p + t * direction, 0.0)
    return out / out.sum()


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
    return best_v


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
    if rate < 0.0:
        raise ValidationError(f"rate must be nonnegative, got {rate}")
    n = triple.main.in_alphabet.size
    cap = channel_capacity(triple.main, tol=min(tol, 1e-11))
    if rate > cap.value + max(cap.certified_gap, 1e-9):
        raise InfeasibleError(
            f"rate {rate:.10g} exceeds main-channel capacity {cap.value:.10g}"
        )
    rate = min(rate, cap.value)
    neg_ent_m = _neg_row_entropies(triple.main.rows)
    neg_ent_c = _neg_row_entropies(triple.cascade.rows)
    value = _secrecy_objective(triple)
    ent_m = _row_entropies(triple.main.rows)

    def main_rate(p):
        return _mi_raw(p, triple.main.rows, ent_m)

    if n == 2:
        t_cap = float(cap.argmax[0])

        def rate_at(t):
            return main_rate(np.array([t, 1.0 - t]))

        lo = _feasible_boundary(rate_at, 0.0, t_cap, rate)
        hi = _feasible_boundary(rate_at, 1.0, t_cap, rate)
        t, fval = _golden_max(lambda t: value(np.array([t, 1.0 - t])), min(lo, hi), max(lo, hi))[:2]
        p = np.array([t, 1.0 - t])
        gap = _fw_gap(p, _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c))
        return CapacityResult(value=fval, argmax=p, iterations=300, certified_gap=max(gap, 0.0))

    p_cap = cap.argmax
    starts = []
    for p0 in _simplex_starts(n):
        starts.append(_mix_until_feasible(p0, p_cap, main_rate, rate))
    best = None
    total_it = 0
    for p0 in starts:
        p = p0.copy()
        fval = value(p)
        for _ in range(2000):
            total_it += 1
            slopes = _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c)
            if _fw_gap(p, slopes) <= tol:
                break
            j_plus = int(np.argmax(slopes))
            active = np.flatnonzero(p > 1e-15)
            j_minus = int(active[np.argmin(slopes[active])])
            candidates = []
            for direction, t_cap_step in _gamma_directions(p, j_plus, j_minus, p_cap):
                t_feas = _segment_feasible_extent(p, direction, t_cap_step, main_rate, rate)
                if t_feas <= 0.0:
                    continue
                t, ft = _golden_max(lambda t: value(_step(p, direction, t)), 0.0, t_feas)[:2]
                candidates.append((ft, _step(p, direction, t)))
            if not candidates:
                break
            ft, p_new = max(candidates, key=lambda c: c[0])
            if ft <= fval + 1e-16:
                break
            p, fval = p_new, ft
        if best is None or fval > best[0]:
            best = (fval, p)
    fval, p = best
    gap = _fw_gap(p, _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c))
    return CapacityResult(value=fval, argmax=p, iterations=total_it, certified_gap=max(gap, 0.0))


def _feasible_boundary(rate_at, outer: float, inner: float, target: float) -> float:
    """Smallest move from inner toward outer keeping rate_at >= target.

    rate_at is concave along the segment and rate_at(inner) >= target.
    """
    if rate_at(outer) >= target:
        return outer
    lo, hi = inner, outer
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if rate_at(mid) >= target:
            lo = mid
        else:
            hi = mid
    return lo


def _mix_until_feasible(p0: np.ndarray, p_cap: np.ndarray, main_rate, rate: float) -> np.ndarray:
    if main_rate(p0) >= rate:
        return p0
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if main_rate((1.0 - mid) * p0 + mid * p_cap) >= rate:
            hi = mid
        else:
            lo = mid
    return (1.0 - hi) * p0 + hi * p_cap


def _gamma_directions(p, j_plus, j_minus, p_cap):
    n = p.size
    if j_plus != j_minus:
        d = np.zeros(n)
        d[j_plus] = 1.0
        d[j_minus] = -1.0
        yield d, float(p[j_minus])
    d = -p.copy()
    d[j_plus] += 1.0
    yield d, 1.0
    yield p_cap - p, 1.0


def _segment_feasible_extent(p, direction, t_max, main_rate, rate) -> float:
    """Largest t in [0, t_max] with main_rate(p + t d) >= rate (concave in t)."""
    if t_max <= 0.0:
        return 0.0
    if main_rate(_step(p, direction, t_max)) >= rate:
        return t_max
    lo, hi = 0.0, t_max
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if main_rate(_step(p, direction, mid)) >= rate:
            lo = mid
        else:
            hi = mid
    return lo


def gamma_curve(triple: ChannelTriple, points: int = 50, tol: float = 1e-9) -> GammaCurve:
    """Sample Gamma[R] on an evenly spaced rate grid over [0, C_M]."""
    if points < 2:
        raise ValidationError(f"need at least 2 grid points, got {points}")
    c_m = channel_capacity(triple.main, tol=min(tol, 1e-11)).value
    grid = []
    for i in range(points):
        r = c_m * i / (points - 1)
        grid.append((r, gamma(triple, r, tol=tol).value))
    return GammaCurve(points=tuple(grid), c_m=c_m)
