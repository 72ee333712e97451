"""The compiled array integrand against the scalar tree walk it replaced.

reference_eval and reference_riemann_sum below are the scalar evaluator and
the per-tag Riemann sum as they were before expressions were compiled to
numpy closures.  They stay here as the oracle: every compiled sample must
carry the same bits, and every failure the same point and message.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rfcalc.expr
from rfcalc.elementary import exp_construct, hyperbolic, inverse_fn, log_construct, pow_construct
from rfcalc.errors import EvaluationError, InvalidArgumentError
from rfcalc.expr import (
    Binary,
    Call,
    Constant,
    Unary,
    Var,
    compile,
    eval_expr,
    parse,
    random_expr,
    substitute,
)
from rfcalc.integrator import integrate
from rfcalc.partitions import (
    LEFT,
    MIDPOINT,
    RIGHT,
    ArrayFn,
    Interval,
    TaggedPartition,
    riemann_sum,
    uniform_partition,
)

# ---------------------------------------------------------------------------
# Reference oracle: the scalar tree walk and the per-tag Riemann sum.

_MAX_MUL_EXPONENT = 64


def _ref_power(base, expo, t, eps):
    if expo == expo and expo.is_integer() and abs(expo) <= _MAX_MUL_EXPONENT:
        n = int(expo)
        out = 1.0
        for _ in range(abs(n)):
            out *= base
        if n >= 0:
            return out
        if out == 0.0:
            raise EvaluationError(t, "zero raised to a negative power")
        return 1.0 / out
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise EvaluationError(t, "zero raised to a nonpositive power")
    if base < 0.0:
        raise EvaluationError(t, "negative base with non-integral exponent")
    return pow_construct(base, expo, eps)


def _ref_apply(fname, x, t, eps):
    if fname == "sin":
        return math.sin(x)
    if fname == "cos":
        return math.cos(x)
    if fname == "tan":
        return math.tan(x)
    if fname == "sec":
        c = math.cos(x)
        if c == 0.0:
            raise EvaluationError(t, "sec undefined")
        return 1.0 / c
    if fname == "csc":
        s = math.sin(x)
        if s == 0.0:
            raise EvaluationError(t, "csc undefined")
        return 1.0 / s
    if fname == "cot":
        s = math.sin(x)
        if s == 0.0:
            raise EvaluationError(t, "cot undefined")
        return math.cos(x) / s
    if fname == "exp":
        return exp_construct(x, eps)
    if fname == "log":
        return log_construct(x, eps).value
    if fname == "sqrt":
        if x < 0.0:
            raise EvaluationError(t, "sqrt of a negative value")
        return math.sqrt(x)
    if fname == "abs":
        return abs(x)
    if fname in ("sinh", "cosh", "tanh"):
        return hyperbolic(fname, x, eps)
    if fname == "atan":
        return inverse_fn("arctan", x, eps)
    if fname == "asin":
        return inverse_fn("arcsin", x, eps)
    raise EvaluationError(t, f"unknown function {fname!r}")


def reference_eval(e, t, eps=1e-14):
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Unary):
        return -reference_eval(e.child, t, eps)
    if isinstance(e, Binary):
        left = reference_eval(e.left, t, eps)
        right = reference_eval(e.right, t, eps)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        if e.op == "/":
            if right == 0.0:
                raise EvaluationError(t, "division by zero")
            return left / right
        if e.op == "^":
            try:
                return _ref_power(left, right, t, eps)
            except (ValueError, OverflowError) as exc:
                raise EvaluationError(t, str(exc)) from exc
        raise EvaluationError(t, f"unknown operator {e.op!r}")
    if isinstance(e, Call):
        x = reference_eval(e.arg, t, eps)
        try:
            return _ref_apply(e.fname, x, t, eps)
        except EvaluationError:
            raise
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(t, str(exc)) from exc
    raise EvaluationError(t, f"unknown node {e!r}")


def reference_riemann_sum(f, partition):
    tags = partition.tags.tolist()
    widths = np.diff(partition.points).tolist()
    try:
        total = math.fsum(f(x) * w for x, w in zip(tags, widths))
    except (ValueError, OverflowError, ZeroDivisionError):
        total = math.nan
    if not math.isfinite(total):
        for x in tags:
            try:
                y = f(x)
            except (ValueError, OverflowError, ZeroDivisionError) as exc:
                raise EvaluationError(x, str(exc) or "integrand raised") from exc
            if not math.isfinite(y):
                raise EvaluationError(x, "integrand sample is not finite")
    return total


# ---------------------------------------------------------------------------
# Helpers


def _same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).view(np.int64) == np.float64(b).view(np.int64)


def _outcome(fn, *args):
    """("value", v) or ("error", point, message) for one call."""
    try:
        return ("value", fn(*args))
    except EvaluationError as exc:
        return ("error", exc.point, str(exc))


def _same_outcome(got, want):
    if got[0] != want[0]:
        return False
    if got[0] == "value":
        return _same_bits(got[1], want[1])
    return got[1:] == want[1:]


# Grids on [-3, 3] and [0, 2]: the left and right rules put tags on 0 and
# on integers, so division by zero, log/sqrt of negatives, poles of csc and
# cot, asin outside [-1, 1] and zero to negative powers all occur.  These
# sums are below expr._ARRAY_MIN, so the tower goes element by element; the
# last grid, 128 tags on [-4, 4] with the same integer tags, is above it, so
# exp, log, powers and hyperbolics go through the array kernels.
_GRIDS = [
    uniform_partition(Interval(lo, hi), n, rule)
    for lo, hi, n in ((-3.0, 3.0, 12), (0.0, 2.0, 8))
    for rule in (LEFT, MIDPOINT, RIGHT)
] + [uniform_partition(Interval(-4.0, 4.0), 128, LEFT)]


def _trees(seed, count, max_depth=4):
    rng = random.Random(seed)
    return [random_expr(rng, max_depth) for _ in range(count)]


# ---------------------------------------------------------------------------
# Property tests


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_compiled_samples_match_reference_bitwise(seed):
    # At eps 1e-9 the bits differ from the default's, so a compile that
    # dropped eps anywhere in the tower would fail here.
    for eps in (1e-9, 1e-14):
        failures = values = 0
        for tree in _trees(seed, 60):
            f = compile(tree, eps)
            for p in _GRIDS:
                tags = p.tags.tolist()
                ref = [_outcome(reference_eval, tree, x, eps) for x in tags]
                ok = np.array([r[0] == "value" for r in ref])
                if ok.any():
                    got = f.fn(p.tags[ok])
                    want = [r[1] for r in ref if r[0] == "value"]
                    assert all(_same_bits(g, w) for g, w in zip(got.tolist(), want)), tree
                    values += int(ok.sum())
                for x, r in zip(tags, ref):
                    if r[0] == "error":
                        assert _outcome(f, x) == r, (tree, x)
                        failures += 1
                assert _same_outcome(
                    _outcome(riemann_sum, f, p),
                    _outcome(reference_riemann_sum, lambda x: reference_eval(tree, x, eps), p),
                ), tree
        # the grids exercise both sides
        assert values > 1000 and failures > 100


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_compiled_riemann_sum_matches_reference(seed):
    tree = random_expr(random.Random(seed), max_depth=4)
    f = compile(tree)
    for p in _GRIDS[:3]:
        assert _same_outcome(
            _outcome(riemann_sum, f, p),
            _outcome(reference_riemann_sum, lambda x: reference_eval(tree, x), p),
        ), tree


@pytest.mark.parametrize(
    "src",
    [
        "1/t", "log(t)", "sqrt(t)", "t^-2", "t^(0-2)", "t^0.5", "(0-t)^t", "asin(t)",
        "csc(t)+cot(t)", "1e300*t*1e300", "t*1e308*10-t*1e308*10", "log(t)/t",
        "1/(t-1)+sqrt(t-2)", "exp(1/t)", "2^t", "t^t", "tan(t)*sec(t)^2", "atan(t)^3",
        "sin(1e300*1e300*t)", "cos(1e300*1e300*t)", "tan(1e300*1e300*t)", "sec(t)/log(t)",
    ],
)
def test_domain_failures_match_reference(src):
    tree = parse(src)
    f = compile(tree)
    for p in _GRIDS:
        assert _same_outcome(
            _outcome(riemann_sum, f, p),
            _outcome(reference_riemann_sum, lambda x: reference_eval(tree, x), p),
        ), (src, p)


def test_first_failing_tag_wins_over_an_earlier_non_finite_sample():
    # 1e308*t*10 overflows at every tag; 1/(t-0.5) fails only at 0.5.  A
    # scalar walk stops at the raising tag, not at the first inf.
    tree = parse("1e308*t*10+1/(t-0.5)")
    p = TaggedPartition([0.0, 0.25, 0.5, 0.75], [0.25, 0.5, 0.75])
    with pytest.raises(EvaluationError) as err:
        riemann_sum(compile(tree), p)
    assert (err.value.point, str(err.value)) == (0.5, "division by zero at t=0.5")
    with pytest.raises(EvaluationError) as ref:
        reference_riemann_sum(lambda x: reference_eval(tree, x), p)
    assert str(ref.value) == str(err.value)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_callable_riemann_sum_unchanged(seed):
    rng = random.Random(seed)
    tree = random_expr(rng, max_depth=4)

    def f(x):
        return reference_eval(tree, x)

    for p in _GRIDS[:3]:
        assert _same_outcome(_outcome(riemann_sum, f, p), _outcome(reference_riemann_sum, f, p))


def test_callable_failures_unchanged():
    p = uniform_partition(Interval(0.0, 1.0), 8, LEFT)
    for f in (
        lambda t: 1.0 / t,
        lambda t: math.log(t),
        lambda t: math.inf if t > 0.3 else 1.0 / (t - 0.5),
        lambda t: 1.0 / (t - 0.5) if t > 0.3 else math.inf,
        lambda t: 1e308 * 10 * (t - 0.4),
        lambda t: 1e308 if t < 0.5 else -1e308,
    ):
        assert _same_outcome(_outcome(riemann_sum, f, p), _outcome(reference_riemann_sum, f, p))


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_substitute_compiles_to_the_composition(seed):
    # substitute(e, g) is the tree of e(g(t)): wherever both sides evaluate,
    # its compiled samples carry the bits of compile(e) at compile(g)'s values.
    rng = random.Random(seed)
    e, g = random_expr(rng, max_depth=4), random_expr(rng, max_depth=3)
    assert substitute(e, Var()) == e
    composed, outer, inner = compile(substitute(e, g)), compile(e), compile(g)
    for x in [rng.uniform(-3.0, 3.0) for _ in range(8)]:
        try:
            got, want = composed(x), outer(inner(x))
        except EvaluationError:
            continue
        assert _same_bits(got, want), (e, g, x)


# ---------------------------------------------------------------------------
# The ufuncs of the compiled table against math.
#
# With numpy 2.4 on x86-64 (AVX-512) and glibc 2.36, np.sin, np.cos and
# np.sqrt give math's bits at every point of these grids (0 ulp), including
# one-element, strided and odd-length arrays.  The compiled path is only
# bit-identical to the scalar one where that holds, so this test asks for
# 0 ulp and fails on a platform where it does not.  np.tan is not in the
# table: on the same platform it differs from math.tan by 1 ulp at about
# 0.5% of points, so tan goes element by element through math.tan.


def _ulps(got, want):
    g = got.view(np.int64).astype(np.float64)
    w = want.view(np.int64).astype(np.float64)
    return np.abs(g - w)


@pytest.mark.parametrize(
    "ufunc,scalar,domain",
    [(np.sin, math.sin, "real"), (np.cos, math.cos, "real"), (np.sqrt, math.sqrt, "nonneg")],
)
def test_table_ufuncs_match_math_bit_for_bit(ufunc, scalar, domain):
    rng = np.random.default_rng(20261018)
    x = np.concatenate([
        rng.uniform(-10.0, 10.0, 20000),
        np.copysign(10.0 ** rng.uniform(-300.0, 300.0, 20000), rng.uniform(-1.0, 1.0, 20000)),
    ])
    if domain == "nonneg":
        x = np.abs(x)
    want = np.array([scalar(v) for v in x.tolist()])
    for got, ref in (
        (ufunc(x), want),
        (ufunc(x[::3]), want[::3]),
        (ufunc(x[:1001]), want[:1001]),
        (np.array([ufunc(x[i:i + 1])[0] for i in range(500)]), want[:500]),
    ):
        assert _ulps(got, ref).max() == 0.0


# ---------------------------------------------------------------------------
# Work counts


def test_integrate_calls_the_array_function_once_per_level():
    inner = compile(parse("1/sqrt(1-t^2)"))
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return inner.fn(t)

    result = integrate(ArrayFn(counted), 0.0, 0.9, 1e-8)
    assert result.converged
    # The first three levels, n0 = 32, 64 and 128, come from one call.
    ns = [n for n, _ in result.trace]
    assert ns[:3] == [32, 64, 128]
    assert sizes == [7 * 32] + ns[3:]
    assert sum(sizes) == result.evaluations


_TOWER_SCALARS = ("log_construct", "exp_construct", "pow_construct", "hyperbolic")


@pytest.mark.parametrize(
    "src,scalar", [("log(t)", "log_construct"), ("exp(t)", "exp_construct"),
                   ("t^0.5", "pow_construct"), ("cosh(t)", "hyperbolic")],
)
def test_tower_calls_per_sum(monkeypatch, src, scalar):
    # A 1,024-tag sum goes through the array kernels, with no scalar tower
    # call from expr; an 8-tag sum, below expr._ARRAY_MIN, makes one per tag.
    calls = dict.fromkeys(_TOWER_SCALARS, 0)

    def counter(name):
        real = getattr(rfcalc.expr, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in _TOWER_SCALARS:
        monkeypatch.setattr(rfcalc.expr, name, counter(name))
    f = compile(parse(src))
    riemann_sum(f, uniform_partition(Interval(0.5, 2.0), 1024, MIDPOINT))
    assert calls == dict.fromkeys(_TOWER_SCALARS, 0)
    riemann_sum(f, uniform_partition(Interval(0.5, 2.0), 8, MIDPOINT))
    assert calls == {**dict.fromkeys(_TOWER_SCALARS, 0), scalar: 8}


@pytest.mark.parametrize("n", [8, 128])
def test_nonpositive_eps_faults_at_the_first_tag(n):
    # Every scalar tower call rejects eps <= 0, so a sum on either side of
    # expr._ARRAY_MIN fails at its first tag with that message.
    p = uniform_partition(Interval(0.5, 2.0), n, MIDPOINT)
    for src in ("log(t)", "exp(t)", "t^0.5", "sinh(t)"):
        with pytest.raises(EvaluationError) as err:
            riemann_sum(compile(parse(src), 0.0), p)
        assert err.value.point == p.tags[0]
        assert str(err.value).startswith("eps must be positive, got 0.0 at t=")


def test_array_fn_called_on_a_float():
    f = compile(parse("t^2+1"))
    assert f(3.0) == 10.0
    assert isinstance(f(3.0), float)
    # below the grid resolution integrate samples the midpoint once
    r = integrate(f, 1.0, 1.0 + 2.0 ** -52, 1e-8)
    assert r.n_final == 1 and r.value == 2.0 * 2.0 ** -52


def test_eval_expr_on_a_float_and_on_an_array():
    tree = parse("sin(t)/t+t^3")
    t = np.linspace(0.5, 2.0, 7)
    got = eval_expr(tree, t)
    assert got.tobytes() == compile(tree).fn(t).tobytes()
    assert [eval_expr(tree, x) for x in t.tolist()] == got.tolist()
    assert isinstance(eval_expr(tree, 0.5), float)


# sin, cos, sec, csc, cot, sqrt, 1/t and t^-2 each reach a different fault
# mark; the rest mark nothing.
@pytest.mark.parametrize(
    "src", ["sin(t)", "cos(t)", "sec(t)", "csc(t)", "cot(t)", "sqrt(t)", "1/t", "t^-2",
            "t", "exp(t)", "tan(t)", "t^0.5", "2"],
)
def test_empty_array_gives_an_empty_array(src):
    empty = np.empty(0)
    got = eval_expr(parse(src), empty)
    assert got.dtype == np.float64 and got.shape == (0,)
    assert compile(parse(src), 1e-9).fn(empty).shape == (0,)


def test_compile_rejects_unknown_nodes():
    for tree in (Call("foo", Var()), Binary("%", Var(), Var()), "t"):
        with pytest.raises(InvalidArgumentError):
            compile(tree)
