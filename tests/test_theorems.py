import math
import random

import pytest

import rfcalc.partitions
import rfcalc.theorems
from rfcalc.cli import main
from rfcalc.elementary import exp_construct, log_construct
from rfcalc.errors import HypothesisViolation, InvalidArgumentError
from rfcalc.expr import compile, parse
from rfcalc.integrator import integrate_improper
from rfcalc.theorems import (
    CheckReport,
    check_parts,
    check_u_sub,
    derivative_table_check,
    ftc_forward_check,
    ftc_reverse_check,
    functional_equation_check,
    make_report,
    product_chain_check,
    run_catalog,
    substitution_showcases,
    _CATALOG,
)


def test_make_report_pass_and_fail():
    good = make_report("x", 1.0, 1.0 + 1e-9, 1e-6, "a")
    bad = make_report("x", 1.0, 1.1, 1e-6, "a")
    assert good.passed and not bad.passed
    assert bad.abs_diff == pytest.approx(0.1)


def test_csv_is_deterministic(capsys):
    argv = ["verify", "--tol", "1e-4", "--filter", "cube", "--output", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[0] == "name,lhs,rhs,abs_diff,tol,pass,anchor"


def test_catalog_filter_selects_subset():
    rows = run_catalog(1e-4, name_filter="arcsin")
    names = [r.name for r in rows]
    assert names == sorted(names)
    assert names and all("arcsin" in n for n in names)


def test_catalog_names_are_sorted_and_unique(catalog_run):
    reports, _ = catalog_run
    names = [r.name for r in reports]
    assert names == sorted(names)
    assert len(names) == len(set(names))


def test_catalog_all_pass_at_default_tolerance(catalog_run):
    reports, _ = catalog_run
    assert len(reports) >= 24
    failing = [r.name for r in reports if not r.passed]
    assert failing == []


def test_catalog_anchors_are_csv_safe(catalog_run):
    reports, _ = catalog_run
    assert all("," not in r.anchor for r in reports)


def test_derivative_table_all_pass(table_reports):
    # The derivative rows are the catalog read across the fundamental
    # theorem: one per (f, F) pair, named after it, anchored on its sources.
    assert [r.name for r in table_reports] == [f"deriv-{row[0]}" for row in _CATALOG]
    assert all(r.passed for r in table_reports)
    for report, (_, f, big_f, *_) in zip(table_reports, _CATALOG):
        assert report.anchor == f"d/dt {big_f} = {f}"
        assert "," not in report.anchor and "\n" not in report.anchor


def test_corrupted_antiderivative_fails_both_directions(monkeypatch):
    catalog = tuple(
        (name, f, "t^4/4+t^2/1000" if name == "cube-integral" else big_f, *rest)
        for name, f, big_f, *rest in _CATALOG
    )
    monkeypatch.setattr(rfcalc.theorems, "_CATALOG", catalog)
    [integral] = run_catalog(1e-6, name_filter="cube")
    [slope] = derivative_table_check(1e-5, name_filter="cube")
    assert (integral.name, slope.name) == ("cube-integral", "deriv-cube-integral")
    assert not integral.passed and not slope.passed


def test_derivative_step_shrinks_toward_a_singular_end(monkeypatch):
    # At 64 interior points the outermost lies 1/128 from the pole of f; a
    # step that ignored that distance put the central difference 2.4e-4 off.
    monkeypatch.setattr(rfcalc.theorems, "_TABLE_POINTS", 64)
    rows = derivative_table_check(1e-5, name_filter="improper")
    assert [r.name for r in rows] == ["deriv-arcsin-improper", "deriv-arcosh-improper"]
    assert all(r.passed for r in rows), rows


def test_product_and_chain_rules():
    rows = product_chain_check(1e-5)
    assert [r.name for r in rows] == ["product-rule", "chain-rule"]
    assert all(r.passed for r in rows)


def test_u_sub_accepts_honest_triple():
    # u = t^2 with du = 2t dt over [0, 1]
    rep = check_u_sub("1/(1+t^2)", "t*t", "2*t", 0.0, 1.0, 1e-7)
    assert rep.passed
    assert rep.abs_diff <= 1e-7


def test_u_sub_rejects_wrong_inner_derivative():
    # G(t) = t^2 but claimed g(t) = 2t + 0.01t drifts from G'
    with pytest.raises(HypothesisViolation) as err:
        check_u_sub("t", "t*t", "2*t+0.01*t", 0.0, 1.0, 1e-7)
    assert "drifts" in str(err.value)
    assert 0.0 < err.value.point < 1.0


def test_parts_accepts_polynomial_pair():
    rep = check_parts("t", "1", "t*t/2", "t", 0.0, 2.0, 1e-7)
    assert rep.passed


def test_parts_rejects_fake_antiderivative():
    with pytest.raises(HypothesisViolation):
        check_parts("t", "1", "t*t", "t", 0.0, 2.0, 1e-7)  # claims v' = t but it is 2t


def test_showcases_pass_and_names():
    rows = substitution_showcases(1e-6)
    assert [r.name for r in rows] == [
        "usub-arctan",
        "usub-identity",
        "usub-half-log",
        "parts-log",
        "parts-tt",
        "parts-arctan",
    ]
    assert all(r.passed for r in rows)


def test_ftc_forward_on_cos():
    rep = ftc_forward_check(math.cos, 0.0, 1.5, 16, 2.0 ** -13, 1e-5)
    assert rep.name == "ftc-forward"
    assert rep.passed
    assert rep.abs_diff < 1e-6


def test_ftc_forward_validates_step():
    with pytest.raises(InvalidArgumentError, match="too large"):
        ftc_forward_check(math.cos, 0.0, 1.0, 100, 0.5, 1e-5)


def test_ftc_reverse_three_pairs():
    cases = [
        (math.sin, math.cos, 0.0, 1.2),
        (lambda t: t ** 4 / 4.0, lambda t: t ** 3, 0.0, 2.0),
        (lambda t: exp_construct(t, 1e-13), lambda t: exp_construct(t, 1e-13), -1.0, 1.0),
    ]
    for big_g, dg, a, b in cases:
        rep = ftc_reverse_check(big_g, dg, a, b, 1e-6)
        assert rep.passed, rep


def test_functional_equation_is_seeded():
    a = functional_equation_check(7)
    b = functional_equation_check(7)
    c = functional_equation_check(8)
    assert a == b
    assert a.passed
    # a different seed samples different pairs
    assert (a.lhs, a.rhs) != (c.lhs, c.rhs)


@pytest.mark.parametrize("seed", [5, 7, 11, 42])
def test_functional_equation_has_the_scalar_logs_bits(seed):
    # The 3 * pairs logs come from one log_array call; pair by pair through
    # log_construct, the worst pair and its deviation are the same bits.
    rng = random.Random(seed)
    worst = (-1.0, 0.0, 0.0)
    for _ in range(200):
        x, y = 2.0 ** rng.uniform(-8.0, 8.0), 2.0 ** rng.uniform(-8.0, 8.0)
        got = log_construct(x * y, 1e-12).value
        want = log_construct(x, 1e-12).value + log_construct(y, 1e-12).value
        if abs(got - want) > worst[0]:
            worst = (abs(got - want), got, want)
    rep = functional_equation_check(seed)
    assert (rep.abs_diff, rep.lhs, rep.rhs) == worst


@pytest.mark.parametrize("pairs", [0, -1])
def test_functional_equation_needs_a_pair(pairs):
    # No pair sampled is no check at all, not a vacuous pass.
    with pytest.raises(InvalidArgumentError, match="at least one pair"):
        functional_equation_check(7, pairs=pairs)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_functional_equation_needs_a_positive_tol(tol):
    with pytest.raises(InvalidArgumentError, match="tolerance must be positive"):
        functional_equation_check(7, tol=tol)


def test_functional_equation_tight():
    rep = functional_equation_check(42)
    assert rep.abs_diff <= 3e-12


def test_report_is_frozen():
    rep = make_report("demo", 0.0, 0.0, 1.0, "")
    assert isinstance(rep, CheckReport)
    with pytest.raises(AttributeError):
        rep.passed = False


def test_log_closed_forms_agree_with_quadrature():
    # spot check one catalog identity by hand: integral of 1/t over [1, 4]
    # against the certified log, oracle value log 4 = 1.3862943611198906
    approx = log_construct(4.0, 1e-13)
    assert approx.value == pytest.approx(1.3862943611198906, abs=1e-12)


@pytest.mark.parametrize(
    "name, qtol",
    [pytest.param(name, qtol, id=name if qtol == 5e-7 else f"{name}-{qtol:g}")
     for name in ("arcsin-improper", "arcosh-improper") for qtol in (5e-7, 5e-9, 5e-11)],
)
def test_improper_catalog_rows_sample_budget(name, qtol):
    # Deterministic work count at the catalog's quadrature tolerance for
    # tol 1e-6, 1e-8 and 1e-10 (qtol = tol/2): a few hundred s-line samples,
    # where closing windows on the singular end took 34,704 to 6.3M.
    _, f, _, lo, hi, _, end = next(row for row in _CATALOG if row[0] == name)
    r = integrate_improper(compile(parse(f), 1e-9), lo, hi, end, qtol)
    exact = {"arcsin-improper": math.pi / 2.0, "arcosh-improper": math.acosh(2.0)}[name]
    assert r.converged
    assert abs(r.value - exact) <= qtol
    assert r.evaluations <= 2_000


def test_catalog_takes_the_array_path(monkeypatch):
    # Catalog and showcase integrands are compiled expressions, so each
    # Riemann sum takes its samples in one array call, never tag by tag; and
    # the tower is reached only through expr, never from theorems' own
    # imports, which hold neither the scalar functions nor exp, pow, the
    # hyperbolics or the inverses; log_array is for the functional equation.
    calls = 0
    scalar_samples = rfcalc.partitions._scalar_samples

    def counted(f, tags):
        nonlocal calls
        calls += 1
        return scalar_samples(f, tags)

    def forbidden(*args):
        raise AssertionError(f"constructed function called from theorems with {args}")

    monkeypatch.setattr(rfcalc.partitions, "_scalar_samples", counted)
    for name in ("log_construct", "exp_construct", "pow_construct", "hyperbolic", "inverse_fn"):
        assert not hasattr(rfcalc.theorems, name)
    monkeypatch.setattr(rfcalc.theorems, "log_array", forbidden)
    assert all(r.passed for r in run_catalog(1e-6))
    assert all(r.passed for r in derivative_table_check(1e-5))
    assert all(r.passed for r in product_chain_check(1e-5))
    assert all(r.passed for r in substitution_showcases(1e-6))
    assert calls == 0
