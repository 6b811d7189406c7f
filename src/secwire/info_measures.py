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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ROW_TOL, ChannelTriple, TransitionMatrix
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
        raise ValidationError(f"negative joint probability {float(arr.min())!r}")
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


def _ascent(triple: ChannelTriple, interval, starts, directions, tol: float, max_iter: int) -> CapacityResult:
    """Maximize I(X;Y) - I(X;Z); certified_gap is the FW gap at the returned point.

    Binary inputs take one golden-section search over p[0] in interval() and
    report 300 iterations. Larger alphabets run a conditional-gradient ascent
    from every point of starts(): each step line-searches every
    (direction, t_max) pair that directions(p, j_plus, j_minus) yields over
    [0, t_max] (pairs with t_max <= 0 are skipped) and moves to the best
    point, stopping when the gap is within tol, no step improves, or after
    max_iter steps. The best start's end point is returned.
    """
    neg_ent_m = _neg_row_entropies(triple.main.rows)
    neg_ent_c = _neg_row_entropies(triple.cascade.rows)
    value = _secrecy_objective(triple)

    if triple.main.in_alphabet.size == 2:
        lo, hi = interval()
        t, fval = _golden_max(lambda t: value(np.array([t, 1.0 - t])), lo, hi)[:2]
        p, total_it = np.array([t, 1.0 - t]), 300
    else:
        best = None
        total_it = 0
        for p0 in starts():
            p = p0.copy()
            fval = value(p)
            for _ in range(max_iter):
                total_it += 1
                slopes = _secrecy_slopes(p, triple, neg_ent_m, neg_ent_c)
                if _fw_gap(p, slopes) <= tol:
                    break
                j_plus = int(np.argmax(slopes))
                active = np.flatnonzero(p > 1e-15)
                j_minus = int(active[np.argmin(slopes[active])])
                candidates = []
                for direction, t_max in directions(p, j_plus, j_minus):
                    if t_max <= 0.0:
                        continue
                    t, ft = _golden_max(lambda t: value(_step(p, direction, t)), 0.0, t_max)[:2]
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


def secrecy_capacity(triple: ChannelTriple, tol: float = 1e-9, max_iter: int = 2000) -> CapacityResult:
    """Maximize I(X;Y) - I(X;Z) over input distributions.

    certified_gap is the Frank-Wolfe gap at the returned point, valid because
    the objective is concave for the degraded cascade construction.
    """
    n = triple.main.in_alphabet.size
    return _ascent(triple, lambda: (0.0, 1.0), lambda: _simplex_starts(n), _cg_directions, tol, max_iter)


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
    ent_m = _row_entropies(triple.main.rows)
    p_cap = cap.argmax

    def feasible(p):
        return _mi_raw(p, triple.main.rows, ent_m) >= rate

    def interval():
        t_cap = float(p_cap[0])
        ends = [
            _feasible_boundary(lambda t: feasible(np.array([t, 1.0 - t])), t_cap, end) for end in (0.0, 1.0)
        ]
        return min(ends), max(ends)

    def start(p0):
        s = _feasible_boundary(lambda s: feasible((1.0 - s) * p0 + s * p_cap), 1.0, 0.0)
        return (1.0 - s) * p0 + s * p_cap

    def directions(p, j_plus, j_minus):
        for direction, t_max in itertools.chain(_cg_directions(p, j_plus, j_minus), [(p_cap - p, 1.0)]):
            yield direction, _feasible_boundary(lambda t: feasible(_step(p, direction, t)), 0.0, t_max)

    return _ascent(triple, interval, lambda: map(start, _simplex_starts(n)), directions, tol, 2000)


def _feasible_boundary(pred, inner: float, outer: float) -> float:
    """Farthest point from inner toward outer at which pred still holds.

    pred(inner) holds and pred holds on an interval around inner (a rate
    constraint along a segment, where I(X;Y) is concave); 100 bisections.
    """
    if pred(outer):
        return outer
    for _ in range(100):
        mid = 0.5 * (inner + outer)
        if pred(mid):
            inner = mid
        else:
            outer = mid
    return inner


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
