"""Acceptance gate: twelve headline behaviors, each pinned at its stated
tolerance.  One test per criterion so the verbose run reads as a checklist.
"""

import math
import random

import pytest

from rfcalc.direct_eval import (
    demoivre_pow,
    demoivre_riemann_sum,
    exp_geometric_sum,
    faulhaber_left_sum,
    log_limit_bounds,
    power_sum,
    sec2_riemann_sum,
    telescope_sec2,
)
from rfcalc.elementary import exp_construct, log_construct
from rfcalc.errors import DivergenceError, HypothesisViolation, ParseError
from rfcalc.expr import eval_expr, parse, random_expr, to_source
from rfcalc.integrator import integrate_improper
from rfcalc.theorems import (
    check_u_sub,
    ftc_forward_check,
    ftc_reverse_check,
    functional_equation_check,
    product_chain_check,
    substitution_showcases,
    _CATALOG,
)


def test_c01_catalog_green_within_budget(catalog_run):
    reports, elapsed = catalog_run
    failing = [r.name for r in reports if not r.passed]
    print(f"catalog: {len(reports)} entries, {elapsed:.1f}s, failing={failing}")
    assert len(reports) >= 24
    assert failing == []
    assert all(r.tol == 1e-6 for r in reports)
    assert elapsed <= 120.0


def test_c02_log_sandwich_and_certified_log():
    worst_ratio = 0.0
    for x in (1.5, 2.0, math.e, 10.0):
        for j in range(1, 21):
            n = 2 ** j
            pair = log_limit_bounds(x, n)
            assert pair.lower <= math.log(x) <= pair.upper
            assert pair.gap <= (x - 1.0) ** 2 / n
            worst_ratio = max(worst_ratio, pair.gap * n / (x - 1.0) ** 2)
        approx = log_construct(x, 1e-12)
        assert approx.bound <= 1e-12
        assert abs(approx.value - math.log(x)) <= approx.bound
    print(f"log sandwich: worst gap/( (x-1)^2/n ) = {worst_ratio:.3f}")


def test_c03_log_functional_equation():
    rep = functional_equation_check(seed=42, pairs=200, tol=3e-12)
    print(f"log(xy)-log x-log y worst deviation {rep.abs_diff:.3e}")
    assert rep.passed
    assert rep.abs_diff <= 3e-12


def test_c04_exponential_left_sums_first_order():
    for b, exact in ((math.e, math.e - 1.0), (2.0, 1.0 / math.log(2.0))):
        errs = [
            abs(exp_geometric_sum(b, 0.0, 1.0, 2 ** j) - exact)
            for j in range(10, 19)
        ]
        ratios = [e1 / e2 for e1, e2 in zip(errs, errs[1:])]
        print(f"base {b:g}: halving ratios {[round(r, 3) for r in ratios]}")
        assert all(1.8 <= r <= 2.2 for r in ratios)


def test_c05_demoivre_sums_and_powers():
    for x in (math.pi / 4.0, math.pi / 2.0, math.pi, 2.0):
        z = demoivre_riemann_sum(x, 2 ** 18)
        assert abs(z.real - math.sin(x)) <= 1e-4
        assert abs(z.imag - (1.0 - math.cos(x))) <= 1e-4
    theta = 0.31
    worst = max(
        abs(demoivre_pow(theta, n) - complex(math.cos(n * theta), math.sin(n * theta)))
        for n in range(1001)
    )
    print(f"demoivre power worst deviation {worst:.3e} over n <= 1000")
    assert worst <= 1e-10


def test_c06_sec2_telescope_identity_and_riemann_limit():
    for x in (0.3, 0.8, 1.2):
        tan_x = math.tan(x)
        worst = max(abs(telescope_sec2(x, n) - tan_x) for n in range(1, 2 ** 10 + 1))
        print(f"sec^2 telescope x={x}: worst |sum - tan x| = {worst:.3e}")
        assert worst <= 1e-12
    errs = [abs(sec2_riemann_sum(0.8, 2 ** j) - math.tan(0.8)) for j in (10, 11, 12)]
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


def test_c07_power_sums_first_order_with_exact_core():
    assert power_sum(2, 10) == 285
    for n_exp in (1, 2, 3, 5):
        for x in (1.0, 2.0):
            exact = x ** (n_exp + 1) / (n_exp + 1)
            for big_n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5):
                scaled = abs(faulhaber_left_sum(n_exp, x, big_n) - exact) * big_n
                # left-sum defect is about n x^{n+1} / 2, uniformly in N
                assert scaled <= n_exp * x ** (n_exp + 1)


def test_c08_substitution_showcases_and_hypothesis_gate():
    rows = substitution_showcases(1e-6)
    failing = [r.name for r in rows if not r.passed]
    print(f"showcases: {len(rows)} rows, failing={failing}")
    assert len(rows) == 6
    assert failing == []
    with pytest.raises(HypothesisViolation):
        check_u_sub("t", "tan(t)+0.01*t", "1/cos(t)^2", 0.0, 1.0, 1e-6)  # corrupted G


def test_c09_fundamental_theorem_both_directions():
    h = 2.0 ** -13
    cases = [
        (math.cos, 0.0, 1.5, 16),
        (lambda t: 1.0 / t, 1.0, 4.0, 12),
        (lambda t: exp_construct(t, 1e-13), -1.0, 1.5, 10),
    ]
    for f, a, b, grid_n in cases:
        rep = ftc_forward_check(f, a, b, grid_n, h, 1e-5)
        print(f"ftc-forward [{a},{b}]: max dev {rep.abs_diff:.3e}")
        assert rep.passed

    pairs = [
        (math.sin, math.cos, 0.0, 1.2),
        (lambda t: t ** 4 / 4.0, lambda t: t ** 3, 0.0, 2.0),
        (lambda t: exp_construct(t, 1e-13), lambda t: exp_construct(t, 1e-13), -1.0, 1.0),
    ]
    for big_g, dg, a, b in pairs:
        rep = ftc_reverse_check(big_g, dg, a, b, 1e-6)
        assert rep.passed
        assert rep.abs_diff <= 1e-6

    # halving h divides the central-difference defect by about 4
    d1 = ftc_forward_check(math.cos, 0.0, 1.5, 8, 2.0 ** -10, 1e-9).abs_diff
    d2 = ftc_forward_check(math.cos, 0.0, 1.5, 8, 2.0 ** -11, 1e-9).abs_diff
    print(f"ftc-forward h-ratio {d1 / d2:.3f}")
    assert 3.2 <= d1 / d2 <= 4.8


def test_c10_derivative_table_and_rules(table_reports):
    failing = [r.name for r in table_reports if not r.passed]
    print(f"table: {len(table_reports)} rows, failing={failing}")
    assert [r.name for r in table_reports] == [f"deriv-{row[0]}" for row in _CATALOG]
    assert failing == []
    rules = product_chain_check(1e-5)
    assert [r.name for r in rules] == ["product-rule", "chain-rule"]
    assert all(r.passed for r in rules)


def test_c11_improper_integrals():
    r = integrate_improper(
        lambda t: 1.0 / math.sqrt(1.0 - t * t), 0.0, 1.0, "upper", 1e-6
    )
    print(f"arcsin integrand: value {r.value!r}, err est {r.error_estimate:.2e}")
    assert r.converged
    assert abs(r.value - math.pi / 2.0) <= 1e-5
    with pytest.raises(DivergenceError):
        integrate_improper(
            lambda t: 1.0 / math.sin(t) ** 2, 0.0, 1.0, "lower", 1e-4
        )


def test_c12_parser_grammar_and_round_trip():
    assert eval_expr(parse("2+3*4"), 0.0) == 14.0
    assert eval_expr(parse("2^3^2"), 0.0) == 512.0
    assert eval_expr(parse("-2^2"), 0.0) == -4.0
    with pytest.raises(ParseError) as err:
        parse("sec(")
    assert err.value.offset == 4
    assert str(err.value) == "parse error at offset 4: expected expression"

    rng = random.Random(42)
    for _ in range(500):
        tree = random_expr(rng)
        text = to_source(tree)
        again = parse(text)
        assert again == tree
        assert to_source(again) == text
