"""Shared exception types mapped to CLI exit codes, and the one budget gate.

check_budget multiplies its factors, ints or (base, exponent) pairs, as a
running product that stops past budget squared, so no caller forms a power
like 2^20000. Its one message form is ``<what> needs <count> <unit>, budget
<B>``; a count it cut off is printed as its factors (``2^20000 x 20000``).
"""

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


def check_budget(what: str, *factors, budget: int = ENUMERATION_BUDGET) -> int:
    """The product of factors (nonnegative ints or (base, exponent) pairs) if within budget, else BudgetError."""
    pairs = [f if isinstance(f, tuple) else (f, 1) for f in factors]
    cap = budget * budget
    count = 0 if any(base == 0 and exp > 0 for base, exp in pairs) else 1
    for base, exp in pairs:
        # count >= 1 and base >= 2 here, so count passes cap within log2(cap) + 1 steps
        for _ in range(exp if count and base > 1 else 0):
            if count > cap:
                break
            count *= base
    if count <= budget:
        return count
    if count > cap:
        count = " x ".join(f"{b}^{e}" if isinstance(f, tuple) else str(b) for f, (b, e) in zip(factors, pairs))
    raise BudgetError(f"{what} needs {count} {_UNITS.get(budget, 'entries')}, budget {budget}")
