"""Converse bounds on the key rate lambda = m/k from LZ complexity.

Theorems 1 and 3 share one assembler, _assemble, which forms
(rho - Delta - eps_s - penalty) / C_s from a complexity rho (rho_LZ(u), or
rho_LZ(u|w) given side information) and a penalty (zeta_n, or eta_n). Both
penalties are exact minimizations of a slack over the divisors of n/k in one
divisor scan, _min_over_divisors, evaluated in log space when the exponential
term overflows. _with_alternative adds the same bound on a truncated prefix
when n/k is a prime above 3. Theorem 2 is a closed-form randomness bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ValidationError
from .info_measures import binary_entropy
from .parsing import conditional_lz_complexity, lz_complexity
from .sequences import SymbolSequence


@dataclass(frozen=True)
class BoundParams:
    """Scheme parameters shared by the converse bounds.

    k source symbols enter per chunk, m channel symbols leave, so the key
    rate under test is lam = m/k. q_e and q_d are encoder and decoder state
    counts, alpha and omega the source and side-information alphabet sizes.
    eps_r bounds the per-symbol reconstruction error, eps_s the per-chunk
    leakage allowance, and eps_n is the vanishing excess term (0 by default).
    """

    k: int
    m: int
    q_e: int = 1
    q_d: int = 1
    eps_r: float = 0.0
    eps_s: float = 0.0
    eps_n: float = 0.0
    alpha: int = 2
    omega: int = 1

    def __post_init__(self):
        for name in ("k", "m", "q_e", "q_d", "alpha"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValidationError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.omega, int) or self.omega < 1:
            raise ValidationError(f"omega must be a positive integer, got {self.omega!r}")
        if not 0.0 <= self.eps_r <= 1.0:
            raise ValidationError(f"eps_r must lie in [0, 1], got {self.eps_r}")
        if not 0.0 <= self.eps_s < math.inf:
            raise ValidationError(f"eps_s must be finite and nonnegative, got {self.eps_s}")
        if not 0.0 <= self.eps_n < 1.0:
            raise ValidationError(f"eps_n must lie in [0, 1), got {self.eps_n}")

    @property
    def lam(self) -> float:
        return self.m / self.k


@dataclass(frozen=True)
class BoundReport:
    """A converse bound with its ingredients.

    bound_value == (terms['rho'] - terms['delta'] - terms['eps_s']
    - terms['penalty']) / terms['c_s']. vacuous flags a nonpositive
    numerator. alternative, when present, is the same bound recomputed on a
    truncated prefix whose chunk count has useful divisors.
    """

    bound_value: float
    terms: dict
    ell_star: int
    vacuous: bool
    alternative: "BoundReport | None" = field(default=None)


def delta_eps(eps_r: float, alpha: int) -> float:
    """Fano-style slack h2(eps_r) + eps_r log2(alpha - 1)."""
    if not 0.0 <= eps_r <= 1.0:
        raise ValidationError(f"eps_r must lie in [0, 1], got {eps_r}")
    if alpha < 2:
        raise ValidationError(f"alpha must be >= 2, got {alpha}")
    return binary_entropy(eps_r) + eps_r * math.log2(alpha - 1)


def divisors(n: int) -> list:
    """All positive divisors of n in ascending order."""
    if n < 1:
        raise ValidationError(f"divisors need a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _pow_term(log2_value: float) -> float:
    # exponentials above float range exclude the divisor rather than crash
    return math.inf if log2_value > 1000.0 else 2.0 ** log2_value


def _min_over_divisors(n: int, k: int, slack) -> tuple:
    """(min, first argmin) of slack(k ell) over the block counts ell dividing n/k."""
    best_v, best_l = math.inf, None
    for ell in divisors(n // k):
        v = slack(k * ell)
        if v < best_v:
            best_v, best_l = v, ell
    return best_v, best_l


def zeta_n(n: int, params: BoundParams) -> tuple:
    """Minimize the Theorem-1 slack over block counts ell dividing n/k.

    Returns (value, ell_star) with
    zeta = (log2 q_d + 1)/(k ell) + 2 k ell (log2 alpha + 1)^2 /
    ((1 - eps_n) log2 n) + 2 k ell alpha^{2 k ell} log2(alpha) / n.
    """
    _check_n(n, params.k)
    la = math.log2(params.alpha)

    def slack(kl):
        t1 = (math.log2(params.q_d) + 1.0) / kl
        t2 = 2.0 * kl * (la + 1.0) ** 2 / ((1.0 - params.eps_n) * math.log2(n))
        if la > 0.0:
            t3 = _pow_term(math.log2(2.0 * kl) + 2.0 * kl * la + math.log2(la) - math.log2(n))
        else:
            t3 = 0.0
        return t1 + t2 + t3

    return _min_over_divisors(n, params.k, slack)


def eta_n(n: int, params: BoundParams) -> tuple:
    """Minimize the Theorem-3 slack over block counts ell dividing n/k.

    Uses A = ((alpha omega)^{k ell + 1} - 1)/(alpha omega - 1), the number of
    joint phrases of length <= k ell, with
    eta = (log2(q_d q_e) + 1)/(k ell) + log2(4 A^2)/((1 - eps_n) log2 n)
    + A^2 log2(4 A^2) / n.
    """
    _check_n(n, params.k)
    aw = params.alpha * params.omega
    if aw < 2:
        raise ValidationError(f"alpha * omega must be >= 2, got {aw}")

    log2_aw, log2_n = math.log2(aw), math.log2(n)

    def slack(kl):
        # A >= aw^kl and log2(log2(4 A^2)) >= 1 put t3's exponent above 1000 here: t3 and the
        # slack are +inf, which never wins the scan's strict <, so skip building A
        if 2.0 * kl * log2_aw - log2_n > 1001.0:
            return math.inf
        # exact integer A; log2 accepts arbitrarily large ints
        a_count = (aw ** (kl + 1) - 1) // (aw - 1)
        log2_a = math.log2(a_count)
        log2_4a2 = 2.0 + 2.0 * log2_a
        t1 = (math.log2(params.q_d * params.q_e) + 1.0) / kl
        t2 = log2_4a2 / ((1.0 - params.eps_n) * log2_n)
        t3 = _pow_term(2.0 * log2_a + math.log2(log2_4a2) - log2_n)
        return t1 + t2 + t3

    return _min_over_divisors(n, params.k, slack)


def _check_n(n: int, k: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    if n % k != 0:
        raise ValidationError(f"k = {k} does not divide n = {n}")


def _checked_length(u: SymbolSequence, params: BoundParams, c_s: float, n: int | None, w=None) -> int:
    """Input checks shared by Theorems 1 and 3; returns n (default len(u)).

    n is checked before either theorem takes a prefix of length n.
    """
    if not c_s > 0.0:  # NaN fails too
        raise ValidationError(f"secrecy capacity must be positive, got {c_s}")
    if params.alpha != u.alphabet.size:
        raise ValidationError(
            f"params.alpha = {params.alpha} does not match sequence alphabet {u.alphabet.size}"
        )
    if w is not None:
        if params.omega != w.alphabet.size:
            raise ValidationError(
                f"params.omega = {params.omega} does not match side alphabet {w.alphabet.size}"
            )
        if len(u) != len(w):
            raise ValidationError(f"length mismatch: |u| = {len(u)}, |w| = {len(w)}")
    n = len(u) if n is None else n
    if n > len(u):
        raise ValidationError(f"n = {n} exceeds sequence length {len(u)}")
    _check_n(n, params.k)
    return n


def _assemble(rho: float, slack, params: BoundParams, c_s: float, n: int) -> BoundReport:
    """The one bound shape (rho - Delta - eps_s - penalty) / C_s.

    slack is zeta_n or eta_n, called after Delta as the theorems always have,
    so an invalid alpha is reported before an invalid alpha * omega.
    """
    delta = delta_eps(params.eps_r, params.alpha)
    penalty, ell = slack(n, params)
    numerator = rho - delta - params.eps_s - penalty
    return BoundReport(
        bound_value=numerator / c_s,
        terms={"rho": rho, "delta": delta, "eps_s": params.eps_s, "penalty": penalty, "c_s": c_s, "n": n},
        ell_star=ell,
        vacuous=numerator <= 0.0,
    )


def _with_alternative(rho_of, slack, params: BoundParams, c_s: float, n: int) -> BoundReport:
    """The bound at n, plus the same bound on a truncated prefix when n/k is a prime above 3.

    rho_of(length) is the complexity of the length-prefix. A prime chunk
    count's bare divisor set leaves the penalty minimization no useful block
    count. The prefix length is a multiple of k in [2, n), so it passes the
    checks n passed.
    """
    report = _assemble(rho_of(n), slack, params, c_s, n)
    k = params.k
    if n // k <= 3 or len(divisors(n // k)) != 2:
        return report
    ell = max(2, math.isqrt(int(math.log2(n))) + 1)
    n_alt = (n // (k * ell)) * k * ell
    if n_alt < 2 or n_alt == n:
        return report
    return replace(report, alternative=_assemble(rho_of(n_alt), slack, params, c_s, n_alt))


def theorem1_bound(u: SymbolSequence, params: BoundParams, c_s: float, n: int | None = None) -> BoundReport:
    """Key-rate lower bound lam >= (rho_LZ(u) - Delta - eps_s - zeta_n) / C_s."""
    n = _checked_length(u, params, c_s, n)
    return _with_alternative(lambda length: lz_complexity(u.prefix(length)), zeta_n, params, c_s, n)


def theorem2_bound(params: BoundParams, ell: int, i_xz_star: float) -> float:
    """Randomness lower bound j >= m I(X*;Z*) - k eps_s - log2(q_e)/ell.

    ell is the chunk count that minimized zeta_n for the companion Theorem-1
    evaluation (or the chunk count of the code under audit); i_xz_star is
    I(X;Z) at the secrecy-capacity-achieving input.
    """
    if not isinstance(ell, int) or ell < 1:
        raise ValidationError(f"ell must be a positive integer, got {ell!r}")
    if not i_xz_star >= 0.0:  # NaN fails too
        raise ValidationError(f"I(X*;Z*) must be nonnegative, got {i_xz_star}")
    return params.m * i_xz_star - params.k * params.eps_s - math.log2(params.q_e) / ell


def theorem3_bound(
    u: SymbolSequence, w: SymbolSequence, params: BoundParams, c_s: float, n: int | None = None
) -> BoundReport:
    """Side-information bound lam >= (rho_LZ(u|w) - Delta - eps_s - eta_n) / C_s."""
    n = _checked_length(u, params, c_s, n, w)
    return _with_alternative(
        lambda length: conditional_lz_complexity(u.prefix(length), w.prefix(length)), eta_n, params, c_s, n
    )
