import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire.channels import ChannelTriple, bsc, channel_from_rows, identity_channel
from secwire.errors import InfeasibleError, ValidationError
from secwire.info_measures import (
    binary_entropy,
    channel_capacity,
    conditional_mutual_information,
    entropy,
    gamma,
    gamma_curve,
    mutual_information,
    mutual_information_from_joint,
    secrecy_capacity,
    secrecy_capacity_oracle,
    secrecy_rate,
)


def _h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _random_channel(rng, n_in, n_out):
    rows = rng.random((n_in, n_out)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return channel_from_rows(rows)


def _random_dist(rng, n):
    p = rng.random(n) + 1e-9
    return p / p.sum()


def test_entropy_values():
    assert entropy([1.0, 0.0]) == 0.0
    assert math.isclose(entropy([0.5, 0.5]), 1.0)
    assert math.isclose(entropy([0.25] * 4), 2.0)
    assert math.isclose(binary_entropy(0.5), 1.0)
    assert binary_entropy(0.0) == 0.0
    with pytest.raises(ValidationError):
        entropy([0.5, 0.6])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_probability_gates_reject_non_finite(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        entropy([bad, 1.0])
    with pytest.raises(ValidationError, match="non-finite"):
        mutual_information_from_joint([[bad, 0.5], [0.25, 0.25]])
    with pytest.raises(ValidationError, match="non-finite"):
        conditional_mutual_information(np.full((2, 2, 2), 0.125) + np.array([bad] + [0.0] * 7).reshape(2, 2, 2))


def test_probability_gates_print_plain_numbers():
    with pytest.raises(ValidationError, match=r"^negative probability -0\.5$"):
        entropy([-0.5, 1.5])
    with pytest.raises(ValidationError, match=r"^negative joint probability -0\.25$"):
        mutual_information_from_joint(np.array([[-0.25, 0.75], [0.25, 0.25]]))


def test_mutual_information_extremes():
    assert abs(mutual_information([0.3, 0.7], bsc(0.5))) < 1e-12
    assert math.isclose(mutual_information([0.3, 0.7], identity_channel(2)), _h2(0.3))


def test_mutual_information_from_joint_agrees():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n_in, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ch = _random_channel(rng, n_in, n_out)
        p = _random_dist(rng, n_in)
        joint = p[:, None] * ch.rows
        assert math.isclose(
            mutual_information_from_joint(joint),
            mutual_information(p, ch),
            abs_tol=1e-12,
        )


def test_conditional_mi_matches_chain_rule():
    # I(A;B|C) = sum_c p(c) I(A;B | C=c), computed the long way
    rng = np.random.default_rng(23)
    for _ in range(40):
        shape = tuple(int(rng.integers(2, 4)) for _ in range(3))
        joint = rng.random(shape) + 1e-6
        joint /= joint.sum()
        direct = conditional_mutual_information(joint)
        expected = 0.0
        for c in range(shape[2]):
            pc = joint[:, :, c].sum()
            if pc <= 0:
                continue
            expected += pc * mutual_information_from_joint(joint[:, :, c] / pc)
        assert math.isclose(direct, expected, abs_tol=1e-10)


def test_conditional_mi_zero_when_independent_given_c():
    rng = np.random.default_rng(71)
    for _ in range(20):
        na, nb, nc = (int(rng.integers(2, 4)) for _ in range(3))
        pc = _random_dist(rng, nc)
        joint = np.zeros((na, nb, nc))
        for c in range(nc):
            joint[:, :, c] = pc[c] * np.outer(_random_dist(rng, na), _random_dist(rng, nb))
        assert abs(conditional_mutual_information(joint)) < 1e-12


def test_bsc_capacity_closed_form():
    for p in (0.05, 0.1, 0.2, 0.35):
        res = channel_capacity(bsc(p), tol=1e-12)
        assert math.isclose(res.value, 1.0 - _h2(p), abs_tol=1e-9)
        assert res.certified_gap <= 1e-12
        assert np.allclose(res.argmax, [0.5, 0.5], atol=1e-6)


def test_capacity_certificate_is_an_upper_bound():
    rng = np.random.default_rng(63)
    for _ in range(20):
        ch = _random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        res = channel_capacity(ch, tol=1e-10)
        assert res.certified_gap >= 0.0
        assert res.certified_gap <= 1e-10
        # any input distribution gives a lower bound
        p = _random_dist(rng, ch.in_alphabet.size)
        assert mutual_information(p, ch) <= res.value + res.certified_gap + 1e-12


def test_secrecy_rate_sign_and_value():
    triple = ChannelTriple(bsc(0.1), bsc(0.1))
    v = secrecy_rate([0.5, 0.5], triple)
    assert math.isclose(v, _h2(0.18) - _h2(0.1), abs_tol=1e-12)
    assert secrecy_rate([1.0, 0.0], triple) == 0.0


def test_secrecy_capacity_bsc_formula():
    rng = np.random.default_rng(44)
    for _ in range(15):
        p1, p2 = rng.random(2) * 0.4 + 0.02
        triple = ChannelTriple(bsc(p1), bsc(p2))
        q = p1 + p2 - 2 * p1 * p2
        res = secrecy_capacity(triple, tol=1e-10)
        assert math.isclose(res.value, _h2(q) - _h2(p1), abs_tol=1e-8)
        assert res.certified_gap >= 0.0


def test_secrecy_capacity_matches_oracle_ternary():
    rng = np.random.default_rng(91)
    for _ in range(4):
        triple = ChannelTriple(_random_channel(rng, 3, 3), _random_channel(rng, 3, 3))
        solver = secrecy_capacity(triple, tol=1e-9).value
        grid = secrecy_capacity_oracle(triple, grid_step=0.05, refine=6)
        assert solver >= grid - 1e-9
        assert abs(solver - grid) < 1e-3


def test_oracle_guards():
    rng = np.random.default_rng(2)
    big = ChannelTriple(_random_channel(rng, 5, 5), _random_channel(rng, 5, 5))
    from secwire.errors import BudgetError

    with pytest.raises(BudgetError):
        secrecy_capacity_oracle(big)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_solvers_check_tolerance_alike(tol):
    triple = ChannelTriple(bsc(0.05), bsc(0.15))
    for solve in (
        lambda: channel_capacity(triple.main, tol=tol),
        lambda: secrecy_capacity(triple, tol=tol),
        lambda: gamma(triple, 0.1, tol=tol),
    ):
        with pytest.raises(ValidationError, match=f"^tolerance must be positive, got {tol}$"):
            solve()


def test_gamma_rejects_nan_rate():
    with pytest.raises(ValidationError, match="^rate must be nonnegative, got nan$"):
        gamma(ChannelTriple(bsc(0.05), bsc(0.15)), math.nan)


def test_gamma_at_zero_equals_secrecy_capacity():
    triple = ChannelTriple(bsc(0.08), bsc(0.2))
    cs = secrecy_capacity(triple, tol=1e-10).value
    g0 = gamma(triple, 0.0, tol=1e-10).value
    assert math.isclose(g0, cs, abs_tol=1e-8)


def test_gamma_feasibility():
    triple = ChannelTriple(bsc(0.1), bsc(0.1))
    c_m = channel_capacity(triple.main, tol=1e-12).value
    res = gamma(triple, c_m * 0.999, tol=1e-9)
    assert res.value >= -1e-12
    with pytest.raises(InfeasibleError):
        gamma(triple, c_m + 0.01)


def test_gamma_argmax_is_feasible():
    rng = np.random.default_rng(7)
    triple = ChannelTriple(bsc(0.05), bsc(0.25))
    c_m = channel_capacity(triple.main, tol=1e-12).value
    for frac in (0.2, 0.5, 0.8, 0.95):
        res = gamma(triple, frac * c_m, tol=1e-9)
        assert mutual_information(res.argmax, triple.main) >= frac * c_m - 1e-6


def test_gamma_curve_shape():
    triple = ChannelTriple(bsc(0.1), bsc(0.15))
    curve = gamma_curve(triple, points=10, tol=1e-9)
    rates = [r for r, _ in curve.points]
    vals = [v for _, v in curve.points]
    assert len(curve.points) == 10
    assert math.isclose(rates[0], 0.0)
    assert math.isclose(rates[-1], curve.c_m)
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-6


@st.composite
def _degraded_triples(draw):
    # X -> Y -> Z with random row weights, zeros allowed (outputs a row rules out)
    sizes = [draw(st.integers(1, 5)) for _ in range(3)]

    def weights(n_in, n_out):
        rows = [draw(st.lists(st.integers(0, 20), min_size=n_out, max_size=n_out).filter(any)) for _ in range(n_in)]
        return np.array(rows, dtype=float)

    main = weights(sizes[0], sizes[1])
    leak = weights(sizes[1], sizes[2])
    p = weights(1, sizes[0])[0]
    return (
        p / p.sum(),
        ChannelTriple(
            channel_from_rows(main / main.sum(axis=1, keepdims=True)),
            channel_from_rows(leak / leak.sum(axis=1, keepdims=True)),
        ),
    )


@settings(max_examples=300, deadline=None)
@given(_degraded_triples())
def test_data_processing_hypothesis(case):
    # I(X;Z) <= I(X;Y) for every input law of every degraded triple
    p, triple = case
    assert mutual_information(p, triple.cascade) <= mutual_information(p, triple.main) + 1e-12


def test_data_processing_on_triples():
    rng = np.random.default_rng(15)
    for _ in range(50):
        n_in = int(rng.integers(2, 5))
        mid = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        triple = ChannelTriple(_random_channel(rng, n_in, mid), _random_channel(rng, mid, n_out))
        p = _random_dist(rng, n_in)
        assert mutual_information(p, triple.cascade) <= mutual_information(p, triple.main) + 1e-9
