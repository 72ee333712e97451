"""The constructed elementary functions against their platform counterparts.

math.log / math.exp / math.pow serve as oracles here; the implementation
under test never calls them.
"""

import ast
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcalc import elementary
from rfcalc.elementary import (
    ApproxValue,
    e_const,
    exp_array,
    exp_construct,
    hyperbolic,
    hyperbolic_array,
    inverse_fn,
    log_array,
    log_construct,
    pow_array,
    pow_construct,
)
from rfcalc.errors import DomainError, InvalidArgumentError


def test_log_enclosure_contains_platform_log():
    for x in (1.5, 2.0, 10.0, 0.3, 1e-6, 1e6):
        approx = log_construct(x, 1e-12)
        assert abs(approx.value - math.log(x)) <= approx.bound
        assert approx.bound <= 1e-12


def test_log_of_one_is_exact():
    approx = log_construct(1.0)
    assert approx == ApproxValue(0.0, 0.0)


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_log_certified_everywhere(e):
    x = 2.0 ** e
    approx = log_construct(x, 1e-12)
    assert abs(approx.value - math.log(x)) <= approx.bound


def test_log_bound_tracks_eps():
    loose = log_construct(7.3, 1e-6)
    tight = log_construct(7.3, 1e-13)
    assert tight.bound < loose.bound
    assert loose.bound <= 1e-6


def test_log_honest_below_certification_floor():
    # eps far below what the enclosure can certify: the reported bound
    # must stay truthful rather than echo the request
    approx = log_construct(2.0, 1e-30)
    assert approx.bound > 1e-30
    assert abs(approx.value - math.log(2.0)) <= approx.bound


def test_log_domain():
    with pytest.raises(DomainError):
        log_construct(0.0)
    with pytest.raises(DomainError):
        log_construct(-1.0)
    with pytest.raises(InvalidArgumentError):
        log_construct(2.0, eps=0.0)


_LOG_ARGUMENTS = st.one_of(
    st.floats(min_value=-1074.0, max_value=1023.999).map(lambda t: 2.0 ** t),
    st.floats(min_value=-16.0, max_value=-1.0).map(lambda s: 1.0 + 10.0 ** s),
    st.floats(min_value=-16.0, max_value=-1.0).map(lambda s: 1.0 - 10.0 ** s),
    st.sampled_from([
        5e-324, sys.float_info.max,
        *(math.nextafter(r, to)
          for r in (math.sqrt(2.0), math.sqrt(0.5)) for to in (0.0, math.inf)),
    ]),
)


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
@given(x=_LOG_ARGUMENTS)
def test_log_bound_is_honest(eps, x):
    want = math.log(x)
    approx = log_construct(x, eps)
    assert abs(approx.value - want) <= approx.bound + math.ulp(want)


class _CountingMath:
    """math, with every sqrt call counted: one per sandwich step."""

    def __init__(self):
        self.sqrt_calls = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def sqrt(self, x):
        self.sqrt_calls += 1
        return math.sqrt(x)


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
def test_log_sandwich_steps(monkeypatch, eps):
    elementary._log2_enclosure()  # cached before counting
    counting = _CountingMath()
    monkeypatch.setattr(elementary, "math", counting)
    rng = random.Random(20261018)
    xs = [10.0 ** rng.uniform(-300.0, 300.0) for _ in range(300)]
    xs += [1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-15.0, -1.0) for _ in range(100)]
    steps = []
    for x in xs:
        before = counting.sqrt_calls
        log_construct(x, eps)
        steps.append(counting.sqrt_calls - before)
    assert sum(steps) / len(steps) <= 8.0
    assert max(steps) <= 12


def test_log_bound_floor_from_half_to_two():
    xs = [0.5 + 1.5 * i / 2000 for i in range(2001)] + [math.sqrt(2.0), math.sqrt(0.5)]
    assert max(log_construct(x, 1e-14).bound for x in xs) <= 2e-14


def test_log2_constant():
    # Pinned: one ulp above 0.6931471805599453, the double nearest log 2;
    # exp's reduction y - k log 2 carries its error k times.
    l2 = elementary._log2_enclosure()
    assert l2 == ApproxValue(0.6931471805599454, 3.1519546659669717e-15)
    assert abs(l2.value - math.log(2.0)) <= l2.bound


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_exp_matches_platform(y):
    got = exp_construct(y, 1e-12)
    want = math.exp(y)
    assert got == pytest.approx(want, rel=4e-12)


# At eps 1e-14 the reduction y - k0 log 2 rounds at |y| 2^-53, which
# exceeds eps once |y| > 1; these are the ranges exp is held to.
_EXP_RANGES = [(1e-9, -700.0, 709.0), (1e-12, -700.0, 709.0), (1e-14, -1.0, 1.0)]


@pytest.mark.parametrize("eps,lo,hi", _EXP_RANGES)
@given(data=st.data())
def test_exp_within_relative_eps(eps, lo, hi, data):
    y = data.draw(st.floats(min_value=lo, max_value=hi))
    want = math.exp(y)
    assert abs(exp_construct(y, eps) - want) <= eps * want


@pytest.mark.parametrize("eps,lo,hi", _EXP_RANGES)
@given(data=st.data())
def test_pow_within_relative_eps(eps, lo, hi, data):
    # b^x = exp(x log b), the exponent x log b drawn from the same range;
    # bases just above and below 1 make |x| large.
    e = data.draw(st.one_of(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-15, max_value=1e-6),
    )) * data.draw(st.sampled_from((-1, 1)))
    b = 2.0 ** e
    x = data.draw(st.floats(min_value=lo, max_value=hi)) / math.log(b)
    want = b ** x
    assert abs(pow_construct(b, x, eps) - want) <= eps * want


@pytest.mark.parametrize(
    "b,x,eps",
    [
        (0.9576032806985737, -23.083120654223446, 1e-14),
        (0.9659363289248456, -865.6170245333793, 1e-12),
        (0.999999, 1e6, 1e-12),
    ],
)
def test_pow_base_just_below_one(b, x, eps):
    # log b for b just below 1 no longer cancels as -log 2 + log 2b.
    want = b ** x
    assert abs(pow_construct(b, x, eps) - want) <= eps * want


def test_exp_log_calls_per_value(monkeypatch):
    calls = 0
    real_log = elementary.log_construct

    def counted_log(x, eps=1e-12):
        nonlocal calls
        calls += 1
        return real_log(x, eps)

    monkeypatch.setattr(elementary, "log_construct", counted_log)
    rng = random.Random(20261018)
    for eps, most in ((1e-9, 2), (1e-14, 4)):
        for _ in range(300):
            calls = 0
            exp_construct(rng.uniform(-700.0, 709.0), eps)
            assert calls <= most


def test_exp_special_values():
    assert exp_construct(0.0) == 1.0
    assert exp_construct(800.0) == math.inf
    assert exp_construct(-800.0) == 0.0
    with pytest.raises(InvalidArgumentError):
        exp_construct(math.nan)


def test_exp_log_roundtrip():
    for y in (-5.0, -0.1, 0.3, 2.0, 10.0):
        back = log_construct(exp_construct(y, 1e-13), 1e-13)
        assert back.value == pytest.approx(y, abs=1e-11)


def test_e_const():
    assert e_const(1e-12) == pytest.approx(math.e, rel=1e-12)


def test_e_const_rejects_nonpositive_eps():
    with pytest.raises(InvalidArgumentError, match="eps must be positive, got 0.0"):
        e_const(0.0)


@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_pow_matches_platform(b, x):
    assert pow_construct(b, x, 1e-11) == pytest.approx(b ** x, rel=1e-9)


def test_pow_edges():
    assert pow_construct(3.7, 0.0) == 1.0
    with pytest.raises(DomainError):
        pow_construct(-2.0, 0.5)
    with pytest.raises(DomainError):
        pow_construct(0.0, 2.0)


@pytest.mark.parametrize(
    "kind,oracle",
    [
        ("sinh", math.sinh),
        ("cosh", math.cosh),
        ("tanh", math.tanh),
        ("sech2", lambda t: 1.0 / math.cosh(t) ** 2),
        ("csch2", lambda t: 1.0 / math.sinh(t) ** 2),
        ("coth", lambda t: math.cosh(t) / math.sinh(t)),
    ],
)
def test_hyperbolic_against_platform(kind, oracle):
    for x in (-3.0, -0.7, 0.2, 1.0, 4.5):
        assert hyperbolic(kind, x) == pytest.approx(oracle(x), rel=1e-11)


def test_hyperbolic_at_zero():
    assert hyperbolic("sinh", 0.0) == 0.0
    assert hyperbolic("cosh", 0.0) == 1.0
    assert hyperbolic("tanh", 0.0) == 0.0
    assert hyperbolic("sech2", 0.0) == 1.0
    with pytest.raises(DomainError):
        hyperbolic("csch2", 0.0)
    with pytest.raises(DomainError):
        hyperbolic("coth", 0.0)
    with pytest.raises(InvalidArgumentError):
        hyperbolic("sin", 1.0)


@given(st.floats(min_value=-5.0, max_value=5.0))
def test_hyperbolic_pythagorean_identity(x):
    c = hyperbolic("cosh", x)
    s = hyperbolic("sinh", x)
    assert c * c - s * s == pytest.approx(1.0, abs=1e-9 * c * c)


@pytest.mark.parametrize(
    "kind,y,oracle",
    [
        ("arcsin", 0.6, math.asin(0.6)),
        ("arcsin", -0.95, math.asin(-0.95)),
        ("arctan", 3.0, math.atan(3.0)),
        ("arctan", -0.4, math.atan(-0.4)),
        ("arsinh", 2.0, math.asinh(2.0)),
        ("arcosh", 3.0, math.acosh(3.0)),
        ("artanh", 0.5, math.atanh(0.5)),
        ("artanh", -0.9, math.atanh(-0.9)),
    ],
)
def test_inverse_against_platform(kind, y, oracle):
    assert inverse_fn(kind, y, 1e-12) == pytest.approx(oracle, abs=1e-11)


def test_inverse_roundtrips():
    assert math.sin(inverse_fn("arcsin", 0.37)) == pytest.approx(0.37, abs=1e-11)
    assert hyperbolic("tanh", inverse_fn("artanh", 0.81)) == pytest.approx(
        0.81, abs=1e-11
    )


def test_inverse_domains():
    with pytest.raises(DomainError):
        inverse_fn("arcsin", 1.5)
    with pytest.raises(DomainError):
        inverse_fn("arcosh", 0.5)
    with pytest.raises(DomainError):
        inverse_fn("artanh", 1.0)
    with pytest.raises(InvalidArgumentError):
        inverse_fn("log", 1.0)
    assert inverse_fn("arcosh", 1.0) == 0.0


def test_arcsin_hits_endpoint():
    assert inverse_fn("arcsin", 1.0) == pytest.approx(math.pi / 2.0, abs=1e-9)


_INVERSE_ORACLES = {"arsinh": math.asinh, "arcosh": math.acosh, "artanh": math.atanh}
_INVERSE_ARGUMENTS = {
    "arsinh": st.floats(min_value=-1e15, max_value=1e15),
    "arcosh": st.floats(min_value=1.0 + 2.0 ** -52, max_value=1e15),
    "artanh": st.floats(min_value=-(1.0 - 2.0 ** -53), max_value=1.0 - 2.0 ** -53),
}


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
@pytest.mark.parametrize("kind", sorted(_INVERSE_ARGUMENTS))
@given(data=st.data())
def test_hyperbolic_inverse_within_eps(kind, eps, data):
    y = data.draw(_INVERSE_ARGUMENTS[kind])
    want = _INVERSE_ORACLES[kind](y)
    assert abs(inverse_fn(kind, y, eps) - want) <= eps + 2.0 * math.ulp(want)


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
@pytest.mark.parametrize("y", [1e154, 1e300, sys.float_info.max])
@pytest.mark.parametrize("kind", ["arsinh", "arcosh"])
def test_hyperbolic_inverse_far_out(kind, y, eps):
    # y^2 overflows here; the answer may carry the log's own error at y.
    want = _INVERSE_ORACLES[kind](y)
    floor = abs(log_construct(y, eps).value - math.log(y))
    assert abs(inverse_fn(kind, y, eps) - want) <= eps + 2.0 * math.ulp(want) + floor


def test_hyperbolic_inverse_work(monkeypatch):
    calls = 0
    real_log = elementary.log_construct

    def counted_log(x, eps=1e-12):
        nonlocal calls
        calls += 1
        return real_log(x, eps)

    def forbidden(*args):
        raise AssertionError(f"forward map called with {args}")

    monkeypatch.setattr(elementary, "log_construct", counted_log)
    monkeypatch.setattr(elementary, "hyperbolic", forbidden)
    monkeypatch.setattr(elementary, "exp_construct", forbidden)
    rng = random.Random(20261018)
    draws = {
        "arsinh": lambda: rng.choice((-1, 1)) * 10.0 ** rng.uniform(-300, 300),
        "arcosh": lambda: 1.0 + 10.0 ** rng.uniform(-15, 300),
        "artanh": lambda: rng.choice((-1, 1)) * (1.0 - 10.0 ** rng.uniform(-15, 0)),
    }
    for kind, draw in draws.items():
        for eps in (1e-9, 1e-12, 1e-14):
            for _ in range(100):
                calls = 0
                inverse_fn(kind, draw(), eps)
                assert calls <= 2


def _bisect_reference(forward, lo, hi, target, eps):
    # A fixed copy of the bisection behind arcsin and arctan, with its
    # forward-eps argument, to hold their bits.
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if forward(mid, max(1e-15, (hi - lo) / 64.0)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _trig_inverse_reference(kind, y, eps):
    if y == 0.0:
        return 0.0
    sign = 1.0 if y > 0.0 else -1.0
    target = abs(y)
    if kind == "arcsin":
        if target == 1.0:
            return sign * (0.5 * math.pi)
        return sign * _bisect_reference(lambda t, _eps: math.sin(t), 0.0, 0.5 * math.pi, target, eps)
    hi = 0.5 * math.pi
    if target >= math.tan(hi):
        return sign * hi
    return sign * _bisect_reference(lambda t, _eps: math.tan(t), 0.0, hi, target, eps)


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
def test_trig_inverses_keep_their_bits(eps):
    # arcsin keeps the plain bisection only for |y| <= 1/2; above it, see
    # test_arcsin_near_one_within_eps.
    rng = random.Random(7)
    draws = {
        "arcsin": lambda: rng.uniform(-0.5, 0.5),
        "arctan": lambda: rng.choice((-1, 1)) * 10.0 ** rng.uniform(-20, 20),
    }
    for kind, draw in draws.items():
        for _ in range(300):
            y = draw()
            assert inverse_fn(kind, y, eps) == _trig_inverse_reference(kind, y, eps), (kind, y)


@pytest.mark.parametrize("eps", [1e-9, 1e-12, 1e-14])
def test_arcsin_near_one_within_eps(eps, monkeypatch):
    # Bisecting the flat platform sin near pi/2 missed eps by up to 3e5-fold
    # here; the half-angle form takes the same number of sin calls as a
    # bisection below 1/2.
    calls = 0
    real_sin = math.sin

    def counted_sin(x):
        nonlocal calls
        calls += 1
        return real_sin(x)

    monkeypatch.setattr(math, "sin", counted_sin)
    inverse_fn("arcsin", 0.3, eps)
    steps, calls = calls, 0
    rng = random.Random(20261018)
    for _ in range(2000):
        y = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.5)))
        want = math.asin(y)
        assert abs(inverse_fn("arcsin", y, eps) - want) <= eps + 2.0 * math.ulp(want), y
    assert calls == 2000 * steps



# ---------------------------------------------------------------------------
# The array kernels against the scalar functions: every element must carry
# the scalar call's bits (0 ulp, sign of zero included) on seeded grids.

_KERNEL_EPS = [1e-9, 1e-12, 1e-13, 1e-14]


def _assert_same_bits(x, got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape == (len(x),)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, [(x[i], got[i], want[i]) for i in bad[:5]]


@pytest.mark.parametrize("eps", _KERNEL_EPS)
def test_log_kernel_matches_scalar_bitwise(eps):
    rng = np.random.default_rng(1)
    x = np.concatenate([
        10.0 ** rng.uniform(-323.3, 308.2, 4000),  # subnormals to near the top
        rng.uniform(0.5, 2.0, 2000),
        1.0 + rng.uniform(-1e-6, 1e-6, 500),
        2.0 ** np.arange(-1074.0, 1024.0),  # m = 1 after the reduction
        [1.0, 5e-324, 2.2250738585072014e-308, 1.7e308, sys.float_info.max],
    ])
    value, bound = log_array(x, eps)
    want = [log_construct(v, eps) for v in x.tolist()]
    _assert_same_bits(x, value, [w.value for w in want])
    _assert_same_bits(x, bound, [w.bound for w in want])


@pytest.mark.parametrize("eps", _KERNEL_EPS)
def test_exp_kernel_matches_scalar_bitwise(eps):
    rng = np.random.default_rng(2)
    y = np.concatenate([
        rng.uniform(-746.0, 710.0, 4000),  # both ends past double range
        rng.uniform(-745.2, -708.4, 1000),  # subnormal results
        rng.uniform(-1.0, 1.0, 1000),
        [0.0, -0.0, 709.782712893384, 709.7827128933841, -745.2, -745.2000000000001, 1e-300],
    ])
    _assert_same_bits(y, exp_array(y, eps), [exp_construct(v, eps) for v in y.tolist()])


@pytest.mark.parametrize("eps", _KERNEL_EPS)
def test_pow_kernel_matches_scalar_bitwise(eps):
    # |x| > 1 splits the log budget 0.5 eps/|x| per element.
    rng = np.random.default_rng(3)
    n = 3000
    b = 10.0 ** rng.uniform(-300.0, 300.0, n)
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 2.5, n)
    b, x = np.append(b, [2.0, 0.5, 7.0]), np.append(x, [0.0, 1e300, -3.5])
    want = [pow_construct(p, q, eps) for p, q in zip(b.tolist(), x.tolist())]
    _assert_same_bits(x, pow_array(b, x, eps), want)


@pytest.mark.parametrize("eps", _KERNEL_EPS)
@pytest.mark.parametrize("kind", ["sinh", "cosh", "tanh"])
def test_hyperbolic_kernel_matches_scalar_bitwise(kind, eps):
    rng = np.random.default_rng(4)
    x = np.concatenate([
        rng.uniform(-700.0, 700.0, 1500),
        rng.uniform(-2.0, 2.0, 1500),
        [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300],
    ])
    _assert_same_bits(x, hyperbolic_array(kind, x, eps), [hyperbolic(kind, v, eps) for v in x.tolist()])


_IMPORTED = {"log", "log1p", "log2", "log10", "exp", "expm1", "pow", "asinh", "acosh", "atanh"}


def _literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant)


def _platform_pow(node):
    # x ** y calls platform pow unless both sides are literals; products are
    # ops whose bits numpy reproduces.
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Pow)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and not (_literal(node.left) and _literal(node.right)))


# numpy's counterparts, which the array kernels must not reach for either.
_NUMPY_IMPORTED = {
    "log", "log1p", "log2", "log10", "exp", "expm1", "exp2", "power", "float_power",
    "arcsinh", "arccosh", "arctanh",
}


def _platform_name(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" or (
            node.module == "numpy" and any(a.name in _NUMPY_IMPORTED for a in node.names))
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "math":
            return node.attr in _IMPORTED
        return node.value.id in ("np", "numpy") and node.attr in _NUMPY_IMPORTED
    return False


def test_elementary_imports_no_log_or_exp():
    # The module builds these from the integral; math's and numpy's versions
    # are oracles only.
    tree = ast.parse(open(elementary.__file__, encoding="utf-8").read())
    found = [
        f"line {node.lineno}: " + ast.unparse(node)
        for node in ast.walk(tree)
        if _platform_name(node) or _platform_pow(node)
    ]
    assert found == []
