"""Shared exception types mapped to CLI exit codes, and the one budget gate.

check_budget multiplies its factors, ints, (base, exponent) pairs or
binomials Comb(n, k), as a running product that stops past budget squared,
so no caller forms a power like 2^20000 or a binomial like C(10^300, 15).
Its one message form is ``<what> needs <count> <unit>, budget <B>``; a count
it cut off is printed as its factors (``2^20000 x 20000``, ``C(~1.00e300,
15)``), a number of more than 20 digits by its order of magnitude.
"""

import math
from dataclasses import dataclass

ENUMERATION_BUDGET = 2 ** 24  # max entries in any exactly enumerated array or table
LIST_BUDGET = 2 ** 20  # max alpha^n candidate sequences the feedback list decoder scans
MU_GRID_BUDGET = 200000  # max points of a max_conditional_leakage grid

_UNITS = {ENUMERATION_BUDGET: "entries", LIST_BUDGET: "sequences", MU_GRID_BUDGET: "points"}


class ValidationError(ValueError):
    """Malformed input, violated precondition, or inconsistent arguments (exit 2)."""


class InfeasibleError(ValidationError):
    """Constraint cannot be met, e.g. a rate above channel capacity."""


class BudgetError(RuntimeError):
    """Exact enumeration would exceed the configured size budget (exit 3)."""


@dataclass(frozen=True)
class Comb:
    """The binomial C(n, k), 0 <= k <= n, as a factor of check_budget."""

    n: int
    k: int


def _shown(x: int) -> str:
    """x's digits, or about x in scientific notation past 20 digits."""
    if x < 10 ** 20:
        return str(x)
    exp = math.floor(math.log10(x))
    return f"~{10 ** (math.log10(x) - exp):.2f}e{exp}"


def _factor(f) -> str:
    if isinstance(f, Comb):
        return f"C({_shown(f.n)}, {f.k})"
    if isinstance(f, tuple):
        return f"{_shown(f[0])}^{f[1]}"
    return _shown(f)


def check_budget(what: str, *factors, budget: int = ENUMERATION_BUDGET) -> int:
    """The product of factors (nonnegative ints, (base, exponent) pairs or Combs) if within budget, else BudgetError."""
    pairs = [f if isinstance(f, tuple) else (f, 1) for f in factors if not isinstance(f, Comb)]
    cap = budget * budget
    count = 0 if any(base == 0 and exp > 0 for base, exp in pairs) else 1
    for base, exp in pairs:
        # count >= 1 and base >= 2 here, so count passes cap within log2(cap) + 1 steps
        for _ in range(exp if count and base > 1 else 0):
            if count > cap:
                break
            count *= base
    for f in factors:
        if isinstance(f, Comb):
            # after step j the product holds C(m + j, j), m = n - steps, which grows
            # with j: at least doubling while j <= m, so few steps pass cap
            steps = min(f.k, f.n - f.k)
            m = f.n - steps
            for j in range(1, steps + 1 if count else 0):
                if count > cap:
                    break
                count = count * (m + j) // j
    if count <= budget:
        return count
    if count > cap:
        count = " x ".join(map(_factor, factors))
    raise BudgetError(f"{what} needs {count} {_UNITS.get(budget, 'entries')}, budget {budget}")
