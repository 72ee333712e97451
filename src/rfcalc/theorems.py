"""Numerical checkers for the substitution theorems, both directions of the
fundamental theorem, and a catalog of definite integrals whose closed forms
come from the constructive tower.

The catalog is one table of (integrand f, antiderivative F) source strings
in the expression language, compiled by expr, and it is checked in both
directions: the integral of f over [lo, hi] against F(hi) - F(lo), and the
central difference of F against f inside [lo, hi] (the derivative rows,
named deriv-<row name>).  The product and chain rule rows, and the
substitution and parts showcases, are written in the same language: a
showcase's integrand f(G(t))g(t) is the one tree expr.substitute(f, G)*g.

Every checker returns CheckReport rows rather than raising on failure;
the only exceptions raised are hypothesis violations (a caller-supplied
antiderivative that does not match its integrand) and bad arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .elementary import log_array
from .errors import HypothesisViolation, InvalidArgumentError
from .expr import Binary, Expr, compile, parse, substitute
from .integrator import cumulative, integrate, integrate_improper
from .partitions import ArrayFn

Fn = Callable[[float], float]

@dataclass(frozen=True)
class CheckReport:
    """One verified identity: lhs vs rhs at a tolerance.

    passed is exactly abs_diff <= tol.  anchor restates the identity being
    checked in plain ASCII so a report line is self-describing.
    """

    name: str
    lhs: float
    rhs: float
    abs_diff: float
    tol: float
    passed: bool
    anchor: str


def make_report(name: str, lhs: float, rhs: float, tol: float, anchor: str) -> CheckReport:
    diff = abs(lhs - rhs)
    return CheckReport(name, lhs, rhs, diff, tol, diff <= tol, anchor)


def name_selected(name: str, name_filter: Optional[str]) -> bool:
    """True when a check of this name runs under the substring filter."""
    return name_filter is None or name_filter in name


def _worst_report(
    name: str, pairs: Iterable[tuple[float, float]], tol: float, anchor: str
) -> CheckReport:
    """The (got, want) pair farthest apart, the first on ties, as a report."""
    worst = -1.0
    lhs = rhs = 0.0
    for got, want in pairs:
        dev = abs(got - want)
        if dev > worst:
            worst, lhs, rhs = dev, got, want
    return CheckReport(name, lhs, rhs, worst, tol, worst <= tol, anchor)


def _chebyshev_points(a: float, b: float, count: int = 5) -> list[float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return [mid + half * math.cos(math.pi * (2 * i - 1) / (2 * count)) for i in range(1, count + 1)]


def _verify_antiderivative(big_g: Fn, g: Fn, a: float, b: float, tol: float, label: str) -> None:
    # Spot-check the theorem hypothesis G(x) - G(a) = integral of g from a
    # to x at 5 Chebyshev points; a corrupted antiderivative must not
    # silently produce a vacuous theorem check.
    base = big_g(a)
    for x in _chebyshev_points(a, b):
        want = integrate(g, a, x, tol / 10.0).value
        drift = abs(big_g(x) - base - want)
        if drift > tol:
            raise HypothesisViolation(
                x, f"{label} drifts from the integral of its slope by {drift:.3g}"
            )


def _product(left: Expr, right: Expr) -> ArrayFn:
    return compile(Binary("*", left, right), _CLOSED_EPS)


def check_u_sub(
    f: str,
    big_g: str,
    g: str,
    a: float,
    b: float,
    tol: float,
    name: str = "u-substitution",
) -> CheckReport:
    """Change of variables: integral of f(G(t))g(t) vs f over [G(a), G(b)].

    f, G and g are expression sources in t; the left integrand is the one
    tree substitute(f, G)*g.  G must be an antiderivative of g on [a, b];
    that hypothesis is spot-checked and violations raise rather than report.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    inner = _closed(big_g)
    _verify_antiderivative(inner, _closed(g), a, b, tol, "substitution inner function")
    lhs = integrate(_product(substitute(parse(f), parse(big_g)), parse(g)), a, b, tol / 4.0).value
    rhs = integrate(_closed(f), inner(a), inner(b), tol / 4.0).value
    return make_report(
        name, lhs, rhs, tol, "int[a..b] f(G(t)) g(t) dt = int[G(a)..G(b)] f(u) du"
    )


def check_parts(
    u: str,
    p: str,
    v: str,
    q: str,
    a: float,
    b: float,
    tol: float,
    name: str = "integration-by-parts",
) -> CheckReport:
    """Integration by parts: int p v + int u q vs the boundary term.

    u, p = u', v and q = v' are expression sources in t.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    u_fn, v_fn = _closed(u), _closed(v)
    _verify_antiderivative(u_fn, _closed(p), a, b, tol, "parts factor u")
    _verify_antiderivative(v_fn, _closed(q), a, b, tol, "parts factor v")
    lhs = (
        integrate(_product(parse(p), parse(v)), a, b, tol / 4.0).value
        + integrate(_product(parse(u), parse(q)), a, b, tol / 4.0).value
    )
    rhs = u_fn(b) * v_fn(b) - u_fn(a) * v_fn(a)
    return make_report(
        name, lhs, rhs, tol, "int[a..b] p v dt + int[a..b] u q dt = u(b)v(b) - u(a)v(a)"
    )


def ftc_forward_check(
    f: Fn, a: float, b: float, grid_n: int, h: float, tol: float
) -> CheckReport:
    """Differentiate the cumulative integral and compare against f.

    Builds F once over a grid holding x_i +- h for grid_n interior points,
    then checks the central differences (F(x+h) - F(x-h))/2h against f(x).
    abs_diff is the worst deviation; lhs/rhs report the worst point.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    if grid_n < 1:
        raise InvalidArgumentError(f"need at least one sample point, got {grid_n}")
    if not h > 0:
        raise InvalidArgumentError(f"step must be positive, got {h}")
    spacing = (b - a) / grid_n
    if not 2.0 * h <= spacing:
        raise InvalidArgumentError(f"step {h} too large for {grid_n} points on [{a}, {b}]")
    points = [a + spacing * (i + 0.5) for i in range(grid_n)]
    grid: list[float] = []
    for x in points:
        grid.append(x - h)
        grid.append(x + h)
    values = cumulative(f, a, grid, tol / 2.0)
    pairs = (
        ((values[2 * i + 1] - values[2 * i]) / (2.0 * h), f(x)) for i, x in enumerate(points)
    )
    return _worst_report("ftc-forward", pairs, tol, "d/dx int[a..x] f(t) dt = f(x)")


def ftc_reverse_check(big_g: Fn, dg: Fn, a: float, b: float, tol: float) -> CheckReport:
    """Evaluate the integral of a derivative by boundary values."""
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    lhs = integrate(dg, a, b, tol / 2.0).value
    rhs = big_g(b) - big_g(a)
    return make_report(
        "ftc-reverse", lhs, rhs, tol, "int[a..b] G'(t) dt = G(b) - G(a)"
    )


def _interior_points(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / count
    return [lo + step * (i + 0.5) for i in range(count)]


def _derivative_report(
    name: str, big_f: ArrayFn, f: ArrayFn, points: Sequence[float], tol: float, anchor: str,
    pole: Optional[float] = None,
) -> CheckReport:
    """Worst gap between the central difference of big_f and f over points.

    big_f is evaluated at every x + h and x - h in one array call, f at
    every x in another; the step h = 2^-13 max(1, |x|) balances h^2
    truncation against ulp/h cancellation in doubles.  Near a singular end
    pole the derivatives of big_f grow like powers of 1/|x - pole|, so h is
    capped at 2^-10 |x - pole| to keep the truncation term small there too.
    """
    x = np.array(points, dtype=float)
    h = np.ldexp(np.maximum(1.0, np.abs(x)), -13)
    if pole is not None:
        h = np.minimum(h, np.ldexp(np.abs(x - pole), -10))
    ends = big_f.fn(np.concatenate((x + h, x - h)))
    slopes = (ends[: x.size] - ends[x.size:]) / (2.0 * h)
    return _worst_report(name, zip(slopes.tolist(), f.fn(x).tolist()), tol, anchor)


def product_chain_check(tol: float, name_filter: Optional[str] = None) -> list[CheckReport]:
    """Product rule on sin * exp and chain rule on sin(t^2).

    name_filter keeps only rows whose name contains the substring.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    rows = [
        ("product-rule", "sin(t)*exp(t)", "cos(t)*exp(t)+sin(t)*exp(t)",
         _interior_points(-1.0, 1.5, 8), "d/dx (u v) = u' v + u v'"),
        ("chain-rule", "sin(t^2)", "cos(t^2)*2*t",
         _interior_points(-1.5, 1.5, 8) + [1.0], "d/dx F(G(x)) = f(G(x)) g(x)"),
    ]
    return [
        _derivative_report(name, _closed(fn), _closed(dfn), pts, tol, anchor)
        for name, fn, dfn, pts, anchor in rows
        if name_selected(name, name_filter)
    ]


def functional_equation_check(
    seed: int, pairs: int = 200, tol: float = 3e-12
) -> CheckReport:
    """Worst |log(xy) - log x - log y| over seeded pairs in [2^-8, 2^8]."""
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    if pairs < 1:
        raise InvalidArgumentError(f"need at least one pair, got {pairs}")
    rng = random.Random(seed)
    x, y = np.array([[2.0 ** rng.uniform(-8.0, 8.0) for _ in range(2)] for _ in range(pairs)]).T
    # One kernel call gives every log log_construct's bits.
    log_xy, log_x, log_y = log_array(np.concatenate((x * y, x, y)), 1e-12)[0].reshape(3, pairs)
    return _worst_report("log-functional-equation", zip(log_xy.tolist(), (log_x + log_y).tolist()),
                         tol, "log(xy) = log x + log y")


# Accuracy of the closed forms, the derivative rows and the showcases.
_CLOSED_EPS = 1e-12
_TABLE_POINTS = 16

# (name, integrand f, antiderivative F, lo, hi, anchor[, singular end]): the
# closed form of the integral of f over [lo, hi] is F(hi) - F(lo).
_CATALOG = (
    ("cos-integral", "cos(t)", "sin(t)", 0.0, 0.5 * math.pi, "int[0..x] cos t dt = sin x"),
    ("sin-integral", "sin(t)", "-cos(t)", 0.0, math.pi, "int[0..x] sin t dt = 1 - cos x"),
    ("exp-integral", "exp(t)", "exp(t)", 0.0, 1.0, "int[p..q] e^t dt = e^q - e^p"),
    ("base2-integral", "2^t", "2^t/log(2)", 0.0, 1.0, "int[p..q] b^t dt = (b^q - b^p)/log b"),
    ("cube-integral", "t^3", "t^4/4", 0.0, 2.0, "int[0..x] t^n dt = x^(n+1)/(n+1)"),
    ("recip-integral", "1/t", "log(t)", 1.0, 2.0, "int[1..x] dt/t = log x"),
    ("sec2-integral", "sec(t)^2", "tan(t)", 0.0, 1.0, "int[0..x] sec^2 t dt = tan x"),
    ("csc2-integral", "1/sin(t)^2", "-cot(t)", 0.5, 1.5, "int[a..b] csc^2 t dt = cot a - cot b"),
    ("sqrt-power-integral", "t^0.5", "t^1.5/1.5", 1.0, 4.0,
     "int[p..q] t^a dt = (q^(a+1) - p^(a+1))/(a+1) at a=1/2"),
    ("invsqrt-power-integral", "t^-0.5", "t^0.5/0.5", 1.0, 4.0,
     "int[p..q] t^a dt = (q^(a+1) - p^(a+1))/(a+1) at a=-1/2"),
    ("arctan-integral", "1/(1+t^2)", "atan(t)", 0.0, 1.0, "int[0..y] dt/(1+t^2) = arctan y"),
    ("arcsin-integral", "1/sqrt(1-t^2)", "asin(t)", 0.0, 0.5,
     "int[0..y] dt/sqrt(1-t^2) = arcsin y"),
    ("arcsin-improper", "1/sqrt(1-t^2)", "asin(t)", 0.0, 1.0,
     "int[0..1] dt/sqrt(1-t^2) = pi/2", "upper"),
    ("tan-integral", "tan(t)", "-log(cos(t))", 0.2, 1.2, "int tan t dt = -log|cos t| + C"),
    ("cot-integral", "cot(t)", "log(sin(t))", 0.3, 1.2, "int cot t dt = log|sin t| + C"),
    ("sec-integral", "sec(t)", "log(sec(t)+tan(t))", 0.0, 1.0,
     "int[0..x] sec t dt = log(sec x + tan x)"),
    ("csc-integral", "csc(t)", "-log((1+cos(t))/sin(t))", 0.5, 1.5,
     "int csc t dt: antiderivative -log(csc t + cot t)"),
    ("cosh-integral", "cosh(t)", "sinh(t)", 0.0, 1.0, "int[0..x] cosh t dt = sinh x"),
    ("sinh-integral", "sinh(t)", "cosh(t)", 0.0, 1.0, "int[0..x] sinh t dt = cosh x - 1"),
    ("sech2-integral", "(1/cosh(t))^2", "tanh(t)", 0.0, 1.0, "int[0..x] sech^2 t dt = tanh x"),
    ("csch2-integral", "(1/sinh(t))^2", "-1/tanh(t)", 0.5, 1.5,
     "int[a..b] csch^2 t dt = coth a - coth b"),
    ("arsinh-integral", "1/sqrt(1+t^2)", "log(t+sqrt(t^2+1))", 0.0, 1.0,
     "int[0..y] dt/sqrt(1+t^2) = arsinh y"),
    ("arcosh-improper", "1/sqrt(t^2-1)", "log(t+sqrt((t-1)*(t+1)))", 1.0, 2.0,
     "int[1..y] dt/sqrt(t^2-1) = arcosh y", "lower"),
    ("artanh-integral", "1/(1-t^2)", "log((1+t)/(1-t))/2", 0.0, 0.5,
     "int[0..y] dt/(1-t^2) = artanh y"),
    ("log-antiderivative", "log(t)", "t*log(t)-t", 1.0, 2.0,
     "int[1..x] log t dt = x log x - x + 1"),
    ("arctan-antiderivative", "atan(t)", "t*atan(t)-log(1+t^2)/2", 0.0, 1.0,
     "int[0..x] arctan t dt = x arctan x - log(1+x^2)/2"),
    ("sectan-integral", "sin(t)/cos(t)^2", "sec(t)", 0.0, 1.0,
     "int[0..x] sec t tan t dt = sec x - 1"),
)


def _closed(source: str) -> ArrayFn:
    return compile(parse(source), _CLOSED_EPS)


def _singular_point(lo: float, hi: float, end: Optional[str] = None) -> Optional[float]:
    """The catalog row's singular end as a point, None for a proper row."""
    return {"lower": lo, "upper": hi}.get(end)


def run_catalog(tol: float, name_filter: Optional[str] = None) -> list[CheckReport]:
    """Integrate every catalog row's f over [lo, hi], improper at its
    singular end if it has one, and compare with F(hi) - F(lo).

    Reports come back sorted by name.  name_filter keeps only rows whose
    name contains the substring, skipping the rest before they are
    compiled.  The integrands are compiled at eps tol/1000, at least 1e-13.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    eps, qtol = max(1e-13, tol * 1e-3), tol / 2.0
    reports = []
    for name, f, big_f, lo, hi, anchor, *end in _CATALOG:
        if not name_selected(name, name_filter):
            continue
        integrand = compile(parse(f), eps)
        if end:
            result = integrate_improper(integrand, lo, hi, end[0], qtol)
        else:
            result = integrate(integrand, lo, hi, qtol)
        closed = _closed(big_f)
        reports.append(make_report(name, result.value, closed(hi) - closed(lo), tol, anchor))
    return sorted(reports, key=lambda r: r.name)


def derivative_table_check(tol: float, name_filter: Optional[str] = None) -> list[CheckReport]:
    """The catalog read across the fundamental theorem: for each row with
    integrand f and antiderivative F, a report named deriv-<row name>
    checking that the central difference of F matches f at 16 interior
    points of the row's [lo, hi].

    name_filter keeps only rows whose name contains the substring, skipping
    the rest before they are compiled.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    return [
        _derivative_report(f"deriv-{name}", _closed(big_f), _closed(f),
                           _interior_points(lo, hi, _TABLE_POINTS), tol, f"d/dt {big_f} = {f}",
                           _singular_point(lo, hi, *end))
        for name, f, big_f, lo, hi, _, *end in _CATALOG
        if name_selected(f"deriv-{name}", name_filter)
    ]


# (name, checker, a, b, sources): the worked substitution and parts examples
# on [a, b].  The sources are f, G, g for check_u_sub and u, u', v, v' for
# check_parts; a and b are constants written in the same language.
_SHOWCASES = (
    ("usub-arctan", check_u_sub, "0", "pi/4", "1/(1+t^2)", "tan(t)", "1/cos(t)^2"),
    ("usub-identity", check_u_sub, "0", "1", "cos(t)", "t", "1"),
    ("usub-half-log", check_u_sub, "0", "1", "1/(2*t)", "1+t^2", "2*t"),
    ("parts-log", check_parts, "1", "exp(1)", "log(t)", "1/t", "t", "1"),
    ("parts-tt", check_parts, "0", "1", "t", "1", "t", "1"),
    ("parts-arctan", check_parts, "0", "1", "atan(t)", "1/(1+t^2)", "t", "1"),
)


def substitution_showcases(tol: float, name_filter: Optional[str] = None) -> list[CheckReport]:
    """The worked substitution and parts examples as named reports.

    name_filter keeps only examples whose name contains the substring,
    skipping the rest before any quadrature runs.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    return [
        check(*sources, _closed(a)(0.0), _closed(b)(0.0), tol, name=name)
        for name, check, a, b, *sources in _SHOWCASES
        if name_selected(name, name_filter)
    ]
