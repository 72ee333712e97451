import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcalc.direct_eval import (
    csc2_riemann_sum,
    demoivre_pow,
    demoivre_riemann_sum,
    exp_geometric_closed_form,
    exp_geometric_sum,
    faulhaber_left_sum,
    log_limit_bounds,
    power_sum,
    sec2_riemann_sum,
    sectan_riemann_sum,
    sectan_telescope,
    telescope_csc2,
    telescope_sec2,
)
from rfcalc.errors import DomainError, InvalidArgumentError


def test_log_bounds_enclose_platform_log():
    for x in (1.01, 1.5, 2.0, math.e, 10.0, 200.0):
        pair = log_limit_bounds(x, 2 ** 16)
        assert pair.lower <= math.log(x) <= pair.upper


@pytest.mark.parametrize("x", [1.5, 2.0, math.e, 10.0])
@pytest.mark.parametrize("j", [1, 4, 10, 20])
def test_log_bounds_gap_quadratic(x, j):
    n = 2 ** j
    pair = log_limit_bounds(x, n)
    assert pair.gap <= (x - 1.0) ** 2 / n


def test_log_bounds_gap_shrinks_by_halving():
    g1 = log_limit_bounds(5.0, 2 ** 8).gap
    g2 = log_limit_bounds(5.0, 2 ** 9).gap
    assert g2 < g1
    assert g1 / g2 == pytest.approx(2.0, rel=0.05)


def test_log_bounds_non_power_of_two_path():
    pair = log_limit_bounds(3.0, 1000)
    assert pair.lower <= math.log(3.0) <= pair.upper


def test_log_bounds_domain():
    with pytest.raises(InvalidArgumentError):
        log_limit_bounds(1.0, 8)
    with pytest.raises(InvalidArgumentError):
        log_limit_bounds(0.5, 8)
    with pytest.raises(InvalidArgumentError):
        log_limit_bounds(2.0, 0)


@given(
    st.floats(min_value=1.2, max_value=8.0),
    st.integers(min_value=4, max_value=14),
)
def test_geometric_sum_equals_closed_form(b, j):
    n = 2 ** j
    s = exp_geometric_sum(b, 0.0, 1.0, n)
    c = exp_geometric_closed_form(b, 0.0, 1.0, n)
    # the iterated product drifts by about one ulp per factor
    assert s == pytest.approx(c, rel=4e-15 * n)


def test_geometric_sum_first_order_to_integral():
    # oracle: integral of e^t over [0,1] is e - 1; left sums err like C/n
    exact = math.e - 1.0
    errs = [abs(exp_geometric_sum(math.e, 0.0, 1.0, 2 ** j) - exact) for j in (10, 11, 12)]
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


def test_geometric_sum_base_two_limit():
    # oracle: integral of 2^t over [0,1] is 1/log 2
    got = exp_geometric_closed_form(2.0, 0.0, 1.0, 2 ** 20)
    assert got == pytest.approx(1.0 / math.log(2.0), abs=1e-5)


def test_geometric_sum_rejects_base_one_and_bad_range():
    with pytest.raises(InvalidArgumentError):
        exp_geometric_sum(1.0, 0.0, 1.0, 8)
    with pytest.raises(InvalidArgumentError):
        exp_geometric_sum(2.0, 1.0, 0.0, 8)
    with pytest.raises(InvalidArgumentError):
        exp_geometric_closed_form(-2.0, 0.0, 1.0, 8)


def test_power_sum_small_cases():
    # sums over k = 0 .. N-1
    assert power_sum(2, 10) == 285
    assert power_sum(1, 5) == 10
    assert power_sum(0, 7) == 7
    assert power_sum(3, 100) == 24502500
    assert power_sum(5, 50) == 2450520625


def test_power_sum_matches_bruteforce():
    for n_exp in (1, 2, 3, 4):
        for big_n in (1, 2, 13):
            assert power_sum(n_exp, big_n) == sum(k ** n_exp for k in range(big_n))


def test_power_sum_is_exact_int():
    v = power_sum(5, 10 ** 4)
    assert isinstance(v, int)
    with pytest.raises(InvalidArgumentError):
        power_sum(-1, 10)
    with pytest.raises(InvalidArgumentError):
        power_sum(2, 0)


@pytest.mark.parametrize("n_exp", [1, 2, 3, 5])
@pytest.mark.parametrize("x", [1.0, 2.0])
def test_faulhaber_error_scales_like_one_over_n(n_exp, x):
    exact = x ** (n_exp + 1) / (n_exp + 1)
    for big_n in (100, 1000, 10000):
        err = abs(faulhaber_left_sum(n_exp, x, big_n) - exact)
        # left sums of an increasing integrand undershoot by about
        # x^{n+1} * n / (2N); allow factor-of-two headroom
        assert err * big_n <= x ** (n_exp + 1) * n_exp


def test_faulhaber_degenerate_exponent():
    assert faulhaber_left_sum(0, 3.0, 17) == 3.0


def test_demoivre_pow_matches_exp_formula():
    for n in (0, 1, 7, 100, 1000):
        got = demoivre_pow(0.31, n)
        want = cmath.exp(complex(0.0, 0.31 * n))
        assert abs(got - want) < 1e-10


def test_demoivre_pow_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        demoivre_pow(0.3, -1)


@pytest.mark.parametrize("x", [math.pi / 4.0, math.pi / 2.0, math.pi, 2.0])
def test_demoivre_riemann_sum_limit(x):
    z = demoivre_riemann_sum(x, 2 ** 18)
    assert z.real == pytest.approx(math.sin(x), abs=1e-4)
    assert z.imag == pytest.approx(1.0 - math.cos(x), abs=1e-4)


def test_demoivre_riemann_sum_zero():
    assert demoivre_riemann_sum(0.0, 64) == 0j


@pytest.mark.parametrize("x", [0.3, 0.8, 1.2])
@pytest.mark.parametrize("n", [1, 2, 16, 1024])
def test_sec2_telescope_exact_for_every_n(x, n):
    # the sum collapses identically; n only changes the rounding path
    assert telescope_sec2(x, n) == pytest.approx(math.tan(x), abs=1e-12)


def test_sec2_riemann_first_order():
    x = 0.9
    errs = [abs(sec2_riemann_sum(x, 2 ** j) - math.tan(x)) for j in (8, 9, 10)]
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


def test_csc2_telescope_and_riemann():
    a, b = 0.4, 2.7
    exact = 1.0 / math.tan(a) - 1.0 / math.tan(b)
    assert telescope_csc2(a, b, 1) == pytest.approx(exact, abs=1e-12)
    assert telescope_csc2(a, b, 512) == pytest.approx(exact, abs=1e-12)
    assert csc2_riemann_sum(a, b, 2 ** 16) == pytest.approx(exact, abs=1e-3)


def test_sectan_telescope_and_riemann():
    x = 1.3
    exact = 1.0 / math.cos(x) - 1.0
    assert sectan_telescope(x, 1) == pytest.approx(exact, abs=1e-12)
    assert sectan_telescope(x, 777) == pytest.approx(exact, abs=1e-11)
    assert sectan_riemann_sum(x, 2 ** 16) == pytest.approx(exact, abs=2e-3)


def test_trig_domain_guards():
    with pytest.raises(DomainError):
        telescope_sec2(math.pi / 2.0, 8)
    with pytest.raises(DomainError):
        sec2_riemann_sum(-2.0, 8)
    with pytest.raises(DomainError):
        telescope_csc2(-0.1, 1.0, 8)
    with pytest.raises(InvalidArgumentError):
        telescope_csc2(2.0, 1.0, 8)
    with pytest.raises(DomainError):
        sectan_riemann_sum(1.6, 8)


@given(st.integers(min_value=1, max_value=2000))
def test_sec2_telescope_n_invariance(n):
    # one x, every n: collapse means the value cannot depend on n
    assert telescope_sec2(0.7, n) == pytest.approx(math.tan(0.7), abs=1e-12)


# (evaluator, valid arguments before n, index of the guarded argument,
#  an out-of-domain value for it, the exception that value raises)
_GUARDED = [
    (exp_geometric_sum, (2.0, 0.0, 1.0), 0, -2.0, InvalidArgumentError),
    (exp_geometric_closed_form, (2.0, 0.0, 1.0), 0, 1.0, InvalidArgumentError),
    (telescope_sec2, (1.0,), 0, math.pi / 2.0, DomainError),
    (sec2_riemann_sum, (1.0,), 0, -2.0, DomainError),
    (sectan_telescope, (1.0,), 0, 1.6, DomainError),
    (sectan_riemann_sum, (1.0,), 0, -1.6, DomainError),
    (telescope_csc2, (0.5, 1.5), 1, math.pi, DomainError),
    (csc2_riemann_sum, (0.5, 1.5), 0, 0.0, DomainError),
]


@pytest.mark.parametrize("bad", ["n=0", "nan", "outside"])
@pytest.mark.parametrize(
    "fn, args, at, outside, exc", _GUARDED, ids=[g[0].__name__ for g in _GUARDED]
)
def test_evaluator_guards(fn, args, at, outside, exc, bad):
    args = list(args)
    n = 8
    if bad == "n=0":
        n, exc = 0, InvalidArgumentError
    else:
        args[at] = math.nan if bad == "nan" else outside
    with pytest.raises(exc):
        fn(*args, n)
