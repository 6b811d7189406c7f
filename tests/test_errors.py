import math
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire import errors
from secwire.errors import ENUMERATION_BUDGET, LIST_BUDGET, MU_GRID_BUDGET, BudgetError, Comb, check_budget

_BASES = st.one_of(st.integers(0, 3), st.integers(2 ** 20, 2 ** 62))
_FACTORS = st.lists(
    st.one_of(st.integers(0, 2 ** 62), st.tuples(_BASES, st.integers(0, 10 ** 9))), min_size=1, max_size=4
)
_BUDGETS = st.one_of(st.sampled_from([ENUMERATION_BUDGET, LIST_BUDGET, MU_GRID_BUDGET]), st.integers(1, 2 ** 30))


def _exact_product(factors, budget):
    """The product, or None when it is certainly over budget squared (too large to form here)."""
    pairs = [f if isinstance(f, tuple) else (f, 1) for f in factors]
    if any(b == 0 and e > 0 for b, e in pairs):
        return 0
    if sum(e * math.log2(b) for b, e in pairs if b > 1) > 2 * math.log2(budget) + 1:
        return None
    return math.prod(b ** e for b, e in pairs)


@settings(max_examples=400, deadline=None)
@given(factors=_FACTORS, budget=_BUDGETS)
def test_gate_returns_the_exact_product_or_raises(factors, budget):
    exact = _exact_product(factors, budget)

    def call():
        try:
            return check_budget("probe", *factors, budget=budget)
        except BudgetError as exc:
            return exc

    got = call()
    if exact is not None and exact <= budget:
        assert got == exact
    else:
        assert isinstance(got, BudgetError)
        # the digits while they stay within budget squared, the factors past it
        if exact is not None and exact <= budget * budget:
            count = str(exact)
        else:
            count = " x ".join(f"{f[0]}^{f[1]}" if isinstance(f, tuple) else str(f) for f in factors)
        unit = {ENUMERATION_BUDGET: "entries", LIST_BUDGET: "sequences", MU_GRID_BUDGET: "points"}.get(budget, "entries")
        assert str(got) == f"probe needs {count} {unit}, budget {budget}"
        assert len(str(got)) < 200
    assert min(timeit.repeat(call, number=1, repeat=3)) < 0.01


@settings(max_examples=300, deadline=None)
@given(
    top=st.one_of(st.integers(0, 200), st.integers(2 ** 60, 2 ** 70), st.integers(10 ** 300, 10 ** 400)),
    k=st.integers(0, 10 ** 6),
    scale=st.integers(0, 5),
    budget=_BUDGETS,
)
def test_gate_takes_a_binomial_factor(top, k, scale, budget):
    # C(top, k) is formed step by step and cut off past budget squared, so a
    # huge binomial costs a few steps and prints in under 200 characters
    k = min(k, top)

    def call():
        try:
            return check_budget("grid", scale, Comb(top, k), budget=budget)
        except BudgetError as exc:
            return exc

    got = call()
    # the exact count where it is cheap to form here
    exact = 0 if scale == 0 else scale * math.comb(top, k) if min(k, top - k) <= 64 else None
    if exact is not None and exact <= budget:
        assert got == exact
    else:
        assert isinstance(got, BudgetError)
        if exact is not None and exact <= budget * budget:
            assert f"grid needs {exact} " in str(got)
        assert len(str(got)) < 200
    assert min(timeit.repeat(call, number=1, repeat=3)) < 0.01


def test_gate_message_forms():
    with pytest.raises(BudgetError, match=r"^codebook needs 2\^20000 x 20000 entries, budget 16777216$"):
        check_budget("codebook", (2, 20000), 20000)
    with pytest.raises(BudgetError, match=r"^list decoding needs 2097152 sequences, budget 1048576$"):
        check_budget("list decoding", (2, 21), budget=LIST_BUDGET)
    with pytest.raises(BudgetError, match=r"^mu grid needs 200001 points, budget 200000$"):
        check_budget("mu grid", 200001, budget=MU_GRID_BUDGET)
    with pytest.raises(BudgetError, match=r"^mu grid needs C\(~1\.00e300, 15\) points, budget 200000$"):
        check_budget("mu grid", Comb(10 ** 300 + 15, 15), budget=MU_GRID_BUDGET)
    assert check_budget("mu grid", Comb(115, 15), Comb(7, 0), budget=2 ** 62) == math.comb(115, 15)
    # a zero factor makes the count 0, however large the others
    assert check_budget("empty", (3, 10 ** 9), 0) == 0
    assert check_budget("ones", (1, 10 ** 9), (5, 0), ENUMERATION_BUDGET) == ENUMERATION_BUDGET


def test_budgets_resolve_where_they_always_have():
    from secwire import feedback_binning, fsm_codec

    assert fsm_codec.ENUMERATION_BUDGET is errors.ENUMERATION_BUDGET
    assert feedback_binning.LIST_BUDGET is errors.LIST_BUDGET
