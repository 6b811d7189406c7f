import math
import tracemalloc

import numpy as np
import pytest

from secwire.bounds import (
    BoundParams,
    delta_eps,
    divisors,
    eta_n,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    zeta_n,
)
from secwire.errors import ValidationError
from secwire.parsing import conditional_lz_complexity, lz_complexity
from secwire.sequences import sequence_from_array


def _naive_zeta(n, params):
    # same formula, naive divisor scan, plain exponentials
    la = math.log2(params.alpha)
    best_v, best_l = math.inf, None
    for ell in range(1, n // params.k + 1):
        if (n // params.k) % ell:
            continue
        kl = params.k * ell
        t1 = (math.log2(params.q_d) + 1.0) / kl
        t2 = 2.0 * kl * (la + 1.0) ** 2 / ((1.0 - params.eps_n) * math.log2(n))
        try:
            t3 = 2.0 * kl * float(params.alpha) ** (2 * kl) * la / n
        except OverflowError:
            t3 = math.inf
        v = t1 + t2 + t3
        if v < best_v:
            best_v, best_l = v, ell
    return best_v, best_l


def _naive_eta(n, params):
    aw = params.alpha * params.omega
    best_v, best_l = math.inf, None
    for ell in range(1, n // params.k + 1):
        if (n // params.k) % ell:
            continue
        kl = params.k * ell
        a = (aw ** (kl + 1) - 1) // (aw - 1)
        log2_4a2 = 2.0 + 2.0 * math.log2(a)
        t1 = (math.log2(params.q_d * params.q_e) + 1.0) / kl
        t2 = log2_4a2 / ((1.0 - params.eps_n) * math.log2(n))
        try:
            t3 = float(a) ** 2 * log2_4a2 / n
        except OverflowError:
            t3 = math.inf
        v = t1 + t2 + t3
        if v < best_v:
            best_v, best_l = v, ell
    return best_v, best_l


def test_params_validation():
    with pytest.raises(ValidationError):
        BoundParams(k=0, m=1)
    with pytest.raises(ValidationError):
        BoundParams(k=1, m=1, eps_r=1.5)
    with pytest.raises(ValidationError):
        BoundParams(k=1, m=1, eps_n=1.0)
    assert BoundParams(k=2, m=3).lam == 1.5


def test_delta_eps_values():
    assert delta_eps(0.0, 2) == 0.0
    assert math.isclose(delta_eps(0.5, 2), 1.0)
    assert math.isclose(delta_eps(0.1, 4), delta_eps(0.1, 2) + 0.1 * math.log2(3))
    with pytest.raises(ValidationError):
        delta_eps(-0.1, 2)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1024) == [2 ** i for i in range(11)]
    with pytest.raises(ValidationError):
        divisors(0)


def test_zeta_reference_values():
    v, ell = zeta_n(1024, BoundParams(k=1, m=1, q_d=1, alpha=2))
    assert ell == 1
    assert round(v, 4) == 1.8078
    v, ell = zeta_n(2 ** 20, BoundParams(k=1, m=1, q_d=8, alpha=2))
    assert ell == 4
    assert round(v, 4) == 2.6020


def test_eta_reference_values():
    v, ell = eta_n(1024, BoundParams(k=1, m=1, q_d=1, q_e=1, alpha=2, omega=2))
    assert ell == 1
    assert round(v, 4) == 1.8266
    v, ell = eta_n(1024, BoundParams(k=1, m=1, q_d=1, q_e=1, alpha=2, omega=1))
    assert ell == 1
    assert round(v, 4) == 1.5624


def test_zeta_eta_match_naive_scan():
    rng = np.random.default_rng(131)
    for _ in range(30):
        k = int(rng.choice([1, 2, 4]))
        n = k * int(rng.integers(2, 3000))
        params = BoundParams(
            k=k,
            m=1,
            q_e=int(rng.choice([1, 2, 8])),
            q_d=int(rng.choice([1, 2, 8])),
            alpha=int(rng.choice([2, 3])),
            omega=int(rng.choice([1, 2])),
        )
        zv, zl = zeta_n(n, params)
        nv, nl = _naive_zeta(n, params)
        assert zl == nl and math.isclose(zv, nv, rel_tol=1e-12)
        ev, el = eta_n(n, params)
        nv, nl = _naive_eta(n, params)
        assert el == nl and math.isclose(ev, nv, rel_tol=1e-12)


# eta_n as it was before it skipped the divisors whose slack is +inf: it built
# the exact integer A for every divisor, kept verbatim as the reference.
def _frozen_eta(n, params):
    aw = params.alpha * params.omega

    def slack(kl):
        a_count = (aw ** (kl + 1) - 1) // (aw - 1)
        log2_a = math.log2(a_count)
        log2_4a2 = 2.0 + 2.0 * log2_a
        t1 = (math.log2(params.q_d * params.q_e) + 1.0) / kl
        t2 = log2_4a2 / ((1.0 - params.eps_n) * math.log2(n))
        x = 2.0 * log2_a + math.log2(log2_4a2) - math.log2(n)
        t3 = math.inf if x > 1000.0 else 2.0 ** x
        return t1 + t2 + t3

    best_v, best_l = math.inf, None
    for ell in divisors(n // params.k):
        v = slack(params.k * ell)
        if v < best_v:
            best_v, best_l = v, ell
    return best_v, best_l


@pytest.mark.parametrize(
    "n, k, alpha, omega",
    [
        (1024, 1, 2, 1),
        (1024, 2, 2, 2),
        (3000, 4, 3, 2),
        (200_000, 1, 4, 1),
        (200_000, 2, 2, 3),
        (2 ** 20, 1, 2, 2),
        (1200, 600, 2, 2),  # every divisor's slack is +inf: (inf, None)
        (5 * 601, 601, 3, 1),
        (100, 100, 2, 2),  # one divisor, a finite slack near 1e121
        (300, 100, 2, 2),
        (498, 498, 2, 1),  # the largest finite slack, near 5e300
        (499, 499, 2, 1),  # t3 overflows without the skip
        (505, 505, 2, 1),  # the skip's first kl at alpha omega = 2
    ],
)
def test_eta_matches_exact_integer_scan(n, k, alpha, omega):
    params = BoundParams(k=k, m=1, q_e=2, q_d=3, alpha=alpha, omega=omega, eps_n=0.25)
    assert eta_n(n, params) == _frozen_eta(n, params)


def test_eta_skips_huge_integers():
    params = BoundParams(k=1, m=1, alpha=2, omega=2)
    tracemalloc.start()
    try:
        eta_n(2 ** 20, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_zeta_decreases_with_n_on_powers_of_two():
    params = BoundParams(k=1, m=1)
    vals = [zeta_n(2 ** e, params)[0] for e in range(4, 16)]
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_check_n_errors():
    params = BoundParams(k=2, m=1)
    with pytest.raises(ValidationError):
        zeta_n(7, params)
    with pytest.raises(ValidationError):
        zeta_n(1, BoundParams(k=1, m=1))


def test_theorem1_terms_recombine():
    rng = np.random.default_rng(6)
    u = sequence_from_array(rng.integers(0, 2, 512), 2)
    params = BoundParams(k=2, m=4, q_e=2, q_d=4, eps_r=0.01, eps_s=0.002)
    rep = theorem1_bound(u, params, c_s=0.5)
    t = rep.terms
    assert math.isclose(
        rep.bound_value,
        (t["rho"] - t["delta"] - t["eps_s"] - t["penalty"]) / t["c_s"],
    )
    assert t["rho"] == lz_complexity(u)
    assert t["n"] == 512
    assert rep.vacuous == (rep.bound_value <= 0.0)
    assert zeta_n(512, params) == (t["penalty"], rep.ell_star)


def test_theorem1_prefix_override():
    rng = np.random.default_rng(10)
    u = sequence_from_array(rng.integers(0, 2, 600), 2)
    params = BoundParams(k=1, m=1)
    rep = theorem1_bound(u, params, c_s=0.4, n=256)
    assert rep.terms["n"] == 256
    assert rep.terms["rho"] == lz_complexity(u.prefix(256))


def test_theorem1_alternative_on_prime_chunk_count():
    rng = np.random.default_rng(11)
    u = sequence_from_array(rng.integers(0, 2, 521), 2)  # prime length
    params = BoundParams(k=1, m=1)
    rep = theorem1_bound(u, params, c_s=0.4)
    assert rep.alternative is not None
    assert rep.alternative.terms["n"] < 521
    assert rep.alternative.alternative is None
    # composite chunk count: no alternative attached
    rep2 = theorem1_bound(u.prefix(512), params, c_s=0.4)
    assert rep2.alternative is None


def test_theorem1_validation():
    u = sequence_from_array([0, 1, 0, 1], 2)
    with pytest.raises(ValidationError):
        theorem1_bound(u, BoundParams(k=1, m=1, alpha=3), c_s=0.5)
    with pytest.raises(ValidationError):
        theorem1_bound(u, BoundParams(k=1, m=1), c_s=0.0)
    with pytest.raises(ValidationError):
        theorem1_bound(u, BoundParams(k=1, m=1), c_s=0.5, n=8)


@pytest.mark.parametrize("n, message", [(8.0, "got 8.0"), (-4, "n must be an integer >= 2, got -4")])
def test_theorems_check_n_before_prefix(n, message):
    u = sequence_from_array([0, 1] * 8, 2)
    with pytest.raises(ValidationError, match=message):
        theorem1_bound(u, BoundParams(k=1, m=1), c_s=0.5, n=n)
    with pytest.raises(ValidationError, match=message):
        theorem3_bound(u, u, BoundParams(k=1, m=1, omega=2), c_s=0.5, n=n)


def test_theorem2_formula():
    params = BoundParams(k=2, m=3, q_e=4, eps_s=0.01)
    v = theorem2_bound(params, ell=2, i_xz_star=0.25)
    assert math.isclose(v, 3 * 0.25 - 2 * 0.01 - 2.0 / 2)
    with pytest.raises(ValidationError):
        theorem2_bound(params, ell=0, i_xz_star=0.25)
    with pytest.raises(ValidationError):
        theorem2_bound(params, ell=1, i_xz_star=-0.1)


def test_theorem3_terms_and_validation():
    rng = np.random.default_rng(29)
    u = sequence_from_array(rng.integers(0, 2, 256), 2)
    w = sequence_from_array(rng.integers(0, 3, 256), 3)
    params = BoundParams(k=1, m=2, q_e=2, q_d=2, alpha=2, omega=3)
    rep = theorem3_bound(u, w, params, c_s=0.5)
    t = rep.terms
    assert t["rho"] == conditional_lz_complexity(u, w)
    assert math.isclose(
        rep.bound_value,
        (t["rho"] - t["delta"] - t["eps_s"] - t["penalty"]) / t["c_s"],
    )
    assert eta_n(256, params) == (t["penalty"], rep.ell_star)
    with pytest.raises(ValidationError):
        theorem3_bound(u, w, BoundParams(k=1, m=2, alpha=2, omega=2), c_s=0.5)


def test_theorem3_conditioning_helps():
    # identical side information drives rho to zero, so t3 <= t1 numerator-wise
    rng = np.random.default_rng(30)
    u = sequence_from_array(rng.integers(0, 2, 512), 2)
    p1 = BoundParams(k=1, m=1, alpha=2)
    p3 = BoundParams(k=1, m=1, alpha=2, omega=2)
    r1 = theorem1_bound(u, p1, c_s=0.5)
    r3 = theorem3_bound(u, u, p3, c_s=0.5)
    assert r3.terms["rho"] == 0.0
    assert r3.terms["rho"] <= r1.terms["rho"]
