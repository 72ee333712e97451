"""Elementary functions grown out of the integral, not imported.

log is delivered as a certified enclosure built on geometric partitions of
[1, m]: every cell has the same ratio m^{1/n}, so the left, midpoint and
right Riemann sums of 1/t have closed forms, and Simpson's combination of
them, enclosed by its Peano remainder, pins log m to within about
L^6/(24 n^5).  With n = 2^j the n-th root comes from repeated square
roots, and the recurrence d' = d/(1 + sqrt(1 + d)) carries m^{1/n} - 1
itself, so the sums never subtract nearly equal numbers.  The argument is
first reduced to within 2^-8 of a grid point F = j/128, whose log is
tabulated once from the same enclosure, so log(m/F) starts from
|d| <= 0.0055, where one Simpson cell meets most eps and at most two
square-root steps reach the rounding floor.  exp inverts log by Newton's
method from a polynomial start, each step one certified log call,
b^x = exp(x log b), hyperbolics are their defining quotients of exp,
arsinh/arcosh/artanh are closed forms through the certified log, and
arcsin/arctan bisect platform sin/tan, arcsin above 1/2 through its
half-angle form pi/2 - 2 arcsin sqrt((1 - y)/2), where sin is not flat.
The array forms of log, exp, pow and sinh/cosh/tanh do the same operations
in the same order under a per-element stop mask, so each element gets the
scalar bits.

math.log / math.exp / math.pow and numpy's log, exp and power families
appear nowhere in this module; the test suite uses them as oracles, the
implementation must not.  Platform sin/cos/tan are accepted as given
primitives (forward maps for the inverse-trig bisections), and sqrt is the
one rounded algebraic operation the construction leans on.  Powers are
written as products: x ** y would call platform pow unless both sides are
literals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidArgumentError

_ULP = 2.0 ** -53
_SQRT_HALF = 0.7071067811865476  # sqrt(1/2); log_construct reduces into [it, 2 it)

# Overflow/underflow cutoffs of exp for IEEE doubles.
_EXP_OVERFLOW = 709.782712893384
_EXP_UNDERFLOW = -745.2

HYPERBOLIC_KINDS = ("sinh", "cosh", "tanh", "sech2", "csch2", "coth")
INVERSE_KINDS = ("arcsin", "arctan", "arsinh", "arcosh", "artanh")


@dataclass(frozen=True)
class ApproxValue:
    """A value with a certified absolute error radius.

    The true quantity lies in [value - bound, value + bound]; the radius
    comes from the enclosure itself plus a worst-case rounding margin, so
    it stays honest even when it cannot meet the requested eps.
    """

    value: float
    bound: float


def _sandwich(d: float, budget: float) -> tuple[float, float]:
    """Enclose log(1 + d) for d in [sqrt(1/2) - 1, 1]; returns (midpoint, bound).

    The geometric partition of [1, 1 + d] into n = 2^j cells has one ratio
    q = 1 + d_j = (1 + d)^(1/n), carried by d' = d/(1 + sqrt(1 + d)) from
    d_0 = d.  The left, midpoint and right terms of 1/t on every cell are
    d, d/(1 + d/2) and d/q, so Simpson's sum is
    S = n(d + 4d/(1 + d/2) + d/q)/6.  The fourth derivative of 1/t is
    24/t^5, so Peano's remainder gives log(1 + d) = S - n d^5/(120 xi^5) for
    some xi between 1 and q, and log(1 + d) lies in
    [S - n d^5/120, S - n d^5/(120 q^5)] for either sign of d.  The value
    is the midpoint of that interval; its half-width
    n d^6 (5 + 10d + 10d^2 + 5d^3 + d^4)/(240 q^5), about L^6/(24 n^5) with
    L = log(1 + d), falls 32-fold per halving.

    Rounding margin, with u = 2^-53, relative to the value since every
    error below is; the input d is taken as exact, and a caller that
    rounded it charges that itself: a recurrence step rounds 1 + d, the
    root, 1 + root and the quotient, at most 2.83u of d (1 + root is over
    1.8, which shrinks the first two), and passes on the error d already
    has by a factor of at most 1 + |d|/3 for d < 0 and at most 1 for d > 0;
    as d halves each step these factors multiply to under 1.1, so d is off
    by at most 3.1ju after j steps, and log(1 + d), whose relative change is
    at most 1.1 times d's once j >= 1, by 3.4ju.  Simpson's sum takes two
    roundings per quotient, q = 1 + d itself included, which rounds at
    every step, the first one too: each of d/(1 + d/2) and d/q is off by
    at most 2u; then two additions of terms of one sign and the division
    by 6: 5u.  The Peano correction is under 1% of S, so its own rounding
    is negligible, and the final subtraction adds u.  The margin
    (4j + 8)u|value| covers these with room for second-order terms.

    Stops once the bound fits the budget, or at the rounding floor: when
    the half-width is at most 4u|value|, the margin that one more halving
    adds, no further step can lower the bound.
    """
    j = 0
    while True:
        q = 1.0 + d
        d2 = d * d
        q2 = q * q
        q5 = q2 * q2 * q
        simpson = (d + 4.0 * d / (1.0 + 0.5 * d) + d / q) / 6.0
        # The midpoint and half-width of [S - n d^5/120, S - n d^5/(120 q^5)].
        value = math.ldexp(simpson - d2 * d2 * d * (1.0 + 1.0 / q5) / 240.0, j)
        half = math.ldexp(
            d2 * d2 * d2 * (5.0 + d * (10.0 + d * (10.0 + d * (5.0 + d)))) / (240.0 * q5), j)
        step = 4.0 * _ULP * abs(value)
        bound = half + (j + 2.0) * step
        if bound <= budget or half <= step:
            return value, bound
        d = d / (1.0 + math.sqrt(q))
        j += 1


def _sandwich_array(d: np.ndarray, budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_sandwich over arrays: the same operations in the same order, each
    element leaving the loop where the scalar loop returns, so each gets
    _sandwich's bits (numpy rounds +, -, *, /, sqrt and ldexp correctly)."""
    value, bound = np.empty(d.size), np.empty(d.size)
    live = np.arange(d.size)
    j = 0
    while live.size:
        q = 1.0 + d
        d2 = d * d
        q2 = q * q
        q5 = q2 * q2 * q
        simpson = (d + 4.0 * d / (1.0 + 0.5 * d) + d / q) / 6.0
        v = np.ldexp(simpson - d2 * d2 * d * (1.0 + 1.0 / q5) / 240.0, j)
        half = np.ldexp(
            d2 * d2 * d2 * (5.0 + d * (10.0 + d * (10.0 + d * (5.0 + d)))) / (240.0 * q5), j)
        step = 4.0 * _ULP * np.abs(v)
        b = half + (j + 2.0) * step
        done = (b <= budget) | (half <= step)
        value[live[done]], bound[live[done]] = v[done], b[done]
        keep = ~done
        live, d, q, budget = live[keep], d[keep], q[keep], budget[keep]
        d = d / (1.0 + np.sqrt(q))
        j += 1
    return value, bound


# 2 = (1 - 2^-64)^-1 (1 + 2^-1)(1 + 2^-2)(1 + 2^-4)...(1 + 2^-32): every
# factor is a dyadic, so no input rounds, and -log(1 - 2^-64) < 2^-63.
_LOG2_FACTORS = (1.5, 1.25, 1.0625, 1.0 + 2.0 ** -8, 1.0 + 2.0 ** -16, 1.0 + 2.0 ** -32)


@functools.lru_cache(maxsize=None)
def _log2_enclosure() -> ApproxValue:
    parts = [_sandwich(f - 1.0, 0.0) for f in _LOG2_FACTORS]
    value = math.fsum(v for v, _ in parts)
    return ApproxValue(value, sum(b for _, b in parts) + 2.0 ** -63 + _ULP * value)


# The grid F = j/128 over the reduced m in [sqrt(1/2), sqrt 2): j = round(128 m)
# lies in 91..181, and |m - F| <= 2^-8.
_TABLE_FIRST = 91
_TABLE_LAST = 181


@functools.lru_cache(maxsize=None)
def _log_table() -> tuple[tuple[float, float], ...]:
    """(value, bound) of log(j/128) for j = 91..181, each at the sandwich's
    rounding floor; j/128 - 1 is exact, and j = 128 gives exactly (0, 0)."""
    return tuple(_sandwich(j / 128.0 - 1.0, 0.0) for j in range(_TABLE_FIRST, _TABLE_LAST + 1))


@functools.lru_cache(maxsize=None)
def _log_table_arrays() -> tuple[np.ndarray, np.ndarray]:
    """_log_table's values and bounds as two arrays, for log_array."""
    values, bounds = zip(*_log_table())
    return np.array(values), np.array(bounds)


def log_construct(x: float, eps: float = 1e-12) -> ApproxValue:
    """Certified log x from Simpson's enclosure on the geometric partition.

    x is reduced exactly to 2^k * m with m in [sqrt(1/2), sqrt 2), so
    log m never cancels against k log 2, and m once more to F (1 + d) with
    F = j/128 the nearest grid point (Tang's table-driven reduction): m - F
    is exact and at most 2^-8, and d = (m - F)/F rounds once, so
    |d| <= 0.0055, where the sandwich needs no square-root step at eps 1e-9
    and at most two at its rounding floor.  The result is
    k*log2 + log F + sandwich(d), with log F from a table built once at the
    enclosure's floor, and the carried bound covers the sandwich enclosure,
    the k-fold reuse of the log2 enclosure, the table entry's bound, the
    rounding of d (2u|d|, u = 2^-53) and of the two additions.  At j = 128,
    F = 1 and d = m - 1 exactly, so logs near 1 keep a relative bound.  The
    bound aims for eps but is reported honestly when eps is below the
    certification floor (under 1.8e-15, plus 3.5e-15 per unit of |k|).
    """
    if not eps > 0:
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise DomainError(f"log requires finite x > 0, got {x}")
    m, k = math.frexp(x)  # x = m * 2^k exactly, m in [0.5, 1)
    if m < _SQRT_HALF:
        m, k = 2.0 * m, k - 1
    j = int(128.0 * m + 0.5)
    f = j / 128.0
    d = (m - f) / f
    fvalue, fbound = _log_table()[j - _TABLE_FIRST]
    l2 = _log2_enclosure()
    reduction = abs(k) * l2.bound
    mid, sbound = _sandwich(d, max(eps - reduction - fbound, 0.0))
    value = k * l2.value + fvalue + mid
    combo = 2.0 * _ULP * (abs(k * l2.value) + abs(fvalue) + abs(mid) + abs(value))
    return ApproxValue(value, sbound + reduction + fbound + 2.0 * _ULP * abs(d) + combo)


def log_array(x: np.ndarray, eps) -> tuple[np.ndarray, np.ndarray]:
    """log_construct's (value, bound) for an array of finite x > 0, eps one
    number or one per element; x = 1 reduces to m = 1, k = 0, j = 128,
    exactly (0, 0)."""
    m, k = np.frexp(x)
    low = m < _SQRT_HALF
    m, k = np.where(low, 2.0 * m, m), np.where(low, k - 1, k)
    j = (128.0 * m + 0.5).astype(np.int64)
    f = j / 128.0
    d = (m - f) / f
    values, bounds = _log_table_arrays()
    fvalue, fbound = values[j - _TABLE_FIRST], bounds[j - _TABLE_FIRST]
    l2 = _log2_enclosure()
    reduction = np.abs(k) * l2.bound
    mid, sbound = _sandwich_array(d, np.maximum(eps - reduction - fbound, 0.0))
    value = k * l2.value + fvalue + mid
    combo = 2.0 * _ULP * (np.abs(k * l2.value) + np.abs(fvalue) + np.abs(mid) + np.abs(value))
    return value, sbound + reduction + fbound + 2.0 * _ULP * np.abs(d) + combo


def exp_construct(y: float, eps: float = 1e-12) -> float:
    """Inverse of the constructed log, to relative accuracy ~eps.

    Splits off k0 = floor(y / log 2) and Newton-solves log w = yr for the
    residual yr = y - k0 log 2 from a degree-6 Taylor start, one certified
    log call per step, so ldexp(w, k0) is relatively accurate at every
    magnitude.  Stops when the certified radius of w meets eps/2 or, below
    the log's certification floor, when another step would only chase
    rounding.  Beyond double range returns inf / 0.0.
    """
    if not eps > 0:
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    if math.isnan(y) or math.isinf(y):
        raise InvalidArgumentError(f"exp argument must be finite, got {y}")
    if y == 0.0:
        return 1.0
    if y > _EXP_OVERFLOW:
        return math.inf
    if y < _EXP_UNDERFLOW:
        return 0.0
    l2 = _log2_enclosure()
    k0 = math.floor(y / l2.value)
    yr = y - k0 * l2.value  # in [0, log 2) up to rounding slip
    # Relative error of this start is at most yr^7/7! < 1.5e-5.
    w = 1.0 + yr * (1.0 + yr * (1 / 2 + yr * (1 / 6 + yr * (1 / 24 + yr * (1 / 120 + yr / 720)))))
    noise = 4.0 * _ULP  # rounding in r, in 1 + r + r^2/2 and in the product
    radius = newton = math.inf
    while radius > 0.5 * eps and newton > noise:
        lw = log_construct(w, 0.25 * eps)
        r = yr - lw.value
        w *= 1.0 + r * (1.0 + 0.5 * r)
        # e^yr = w_old e^s with |s - r| <= bound, so for |r| + bound <= 1 the
        # update is off by at most bound + bound^2 + |r|^3 relatively.
        newton = abs(r * r * r)
        radius = lw.bound * (1.0 + lw.bound) + newton + noise
    try:
        return math.ldexp(w, k0)
    except OverflowError:
        return math.inf


def exp_array(y: np.ndarray, eps: float) -> np.ndarray:
    """exp_construct for an array of finite y: each Newton step runs on the
    elements whose stop test has not yet passed."""
    out = np.where(y > 0.0, math.inf, 0.0)  # beyond double range
    out[y == 0.0] = 1.0
    band = np.flatnonzero((y != 0.0) & (y >= _EXP_UNDERFLOW) & (y <= _EXP_OVERFLOW))
    l2 = _log2_enclosure()
    k0 = np.floor(y[band] / l2.value)
    yr = y[band] - k0 * l2.value
    w = 1.0 + yr * (1.0 + yr * (1 / 2 + yr * (1 / 6 + yr * (1 / 24 + yr * (1 / 120 + yr / 720)))))
    noise = 4.0 * _ULP
    live = np.arange(w.size)
    while live.size:
        lw, lb = log_array(w[live], 0.25 * eps)
        r = yr[live] - lw
        w[live] *= 1.0 + r * (1.0 + 0.5 * r)
        newton = np.abs(r * r * r)
        radius = lb * (1.0 + lb) + newton + noise
        live = live[(radius > 0.5 * eps) & (newton > noise)]
    with np.errstate(over="ignore"):  # math.ldexp's OverflowError, returned as inf
        out[band] = np.ldexp(w, k0.astype(np.int64))
    return out


@functools.lru_cache(maxsize=None)
def e_const(eps: float = 1e-12) -> float:
    """The number characterized by log e = 1."""
    return exp_construct(1.0, eps)


def pow_construct(b: float, x: float, eps: float = 1e-12) -> float:
    """b^x as exp(x log b), error budget split between the two stages."""
    if not eps > 0:
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    if math.isnan(b) or math.isinf(b) or b <= 0.0:
        raise DomainError(f"power base must be finite and positive, got {b}")
    if math.isnan(x) or math.isinf(x):
        raise InvalidArgumentError(f"exponent must be finite, got {x}")
    if x == 0.0:
        return 1.0
    lb = log_construct(b, 0.5 * eps / max(1.0, abs(x)))
    return exp_construct(x * lb.value, 0.5 * eps)


def pow_array(b: np.ndarray, x: np.ndarray, eps: float) -> np.ndarray:
    """pow_construct for arrays of finite b > 0 and finite x whose product
    with log b stays finite; x = 0 needs no branch, as exp(+-0) is 1."""
    lb, _ = log_array(b, 0.5 * eps / np.maximum(1.0, np.abs(x)))
    return exp_array(x * lb, 0.5 * eps)


def hyperbolic(kind: str, x: float, eps: float = 1e-14) -> float:
    """sinh/cosh/tanh/sech^2/csch^2/coth via one exp of |x|.

    All six reduce to quotients of E = exp|x|, arranged so E only ever
    appears with magnitude >= 1 (large-x overflow degrades gracefully to
    the correct limits instead of dividing small numbers).
    """
    if kind not in HYPERBOLIC_KINDS:
        raise InvalidArgumentError(f"unknown hyperbolic kind {kind!r}")
    if math.isnan(x) or math.isinf(x):
        raise InvalidArgumentError(f"argument must be finite, got {x}")
    if x == 0.0:
        if kind == "cosh" or kind == "sech2":
            return 1.0
        if kind == "sinh" or kind == "tanh":
            return 0.0
        raise DomainError(f"{kind} has a pole at 0")
    sign = 1.0 if x > 0.0 else -1.0
    e = exp_construct(abs(x), eps)
    if kind == "cosh":
        return 0.5 * (e + 1.0 / e)
    if kind == "sinh":
        return sign * 0.5 * (e - 1.0 / e)
    if kind == "tanh":
        return sign * (1.0 - 2.0 / (e * e + 1.0))
    if kind == "sech2":
        s = 2.0 / (e + 1.0 / e)
        return s * s
    if kind == "csch2":
        s = 2.0 / (e - 1.0 / e)
        return s * s
    return sign * (1.0 + 2.0 / (e * e - 1.0))  # coth


def hyperbolic_array(kind: str, x: np.ndarray, eps: float) -> np.ndarray:
    """hyperbolic(kind, x, eps) for kind sinh, cosh or tanh and an array of
    finite x."""
    sign = np.where(x > 0.0, 1.0, -1.0)
    e = exp_array(np.abs(x), eps)
    with np.errstate(over="ignore"):
        if kind == "cosh":
            return 0.5 * (e + 1.0 / e)
        if kind == "sinh":
            out = sign * 0.5 * (e - 1.0 / e)
        else:
            out = sign * (1.0 - 2.0 / (e * e + 1.0))
    return np.where(x == 0.0, 0.0, out)  # +0 at either zero, as the scalar returns


def _bisect_increasing(forward, lo: float, hi: float, target: float, eps: float) -> float:
    while hi - lo > eps:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if forward(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Above this, sqrt(y^2 +- 1) rounds to y, and arsinh y and arcosh y differ
# from log 2y by under 1/(4y^2) = 2^-56; log y + log 2 keeps y^2 from overflow.
_INVERSE_LARGE = 2.0 ** 27


def inverse_fn(kind: str, y: float, eps: float = 1e-12) -> float:
    """Principal-branch inverse, to absolute accuracy ~eps.

    arcsin/arctan bisect platform sin/tan; for |y| > 1/2, where sin is
    flat near pi/2, arcsin bisects for r = sqrt((1 - |y|)/2) <= 1/2 instead
    and returns pi/2 - 2 arcsin r.  arsinh, arcosh and artanh are
    closed forms through the certified log, one log call each:
    log(y + sqrt(y^2 + 1)), log(y + sqrt((y - 1)(y + 1))) and
    log((1 + y)/(1 - y))/2, with y - 1 and 1 - y exact where they cancel;
    above 2^27 the first two are log y + log 2.
    Domain violations raise DomainError.
    """
    if not eps > 0:
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    if kind not in INVERSE_KINDS:
        raise InvalidArgumentError(f"unknown inverse kind {kind!r}")
    if math.isnan(y) or math.isinf(y):
        raise InvalidArgumentError(f"argument must be finite, got {y}")

    if kind == "arcosh":
        if y < 1.0:
            raise DomainError(f"arcosh requires y >= 1, got {y}")
    elif kind == "arcsin":
        if abs(y) > 1.0:
            raise DomainError(f"arcsin requires |y| <= 1, got {y}")
    elif kind == "artanh":
        if abs(y) >= 1.0:
            raise DomainError(f"artanh requires |y| < 1, got {y}")
    if y == 0.0:
        return 0.0

    # Odd branches reduce to y > 0; arcosh is one-sided already.
    sign = 1.0 if (y > 0.0 or kind == "arcosh") else -1.0
    target = abs(y)

    if kind == "arcsin":
        if target <= 0.5:
            return sign * _bisect_increasing(math.sin, 0.0, 0.5 * math.pi, target, eps)
        if target == 1.0:
            return sign * (0.5 * math.pi)
        # Near 1, sin is flat and bisecting it loses digits; instead
        # arcsin y = pi/2 - 2 arcsin r with r = sqrt((1 - y)/2) <= 1/2, where
        # 1 - y is exact.  arcsin r < pi/6, so bisecting on [0, pi/4] to
        # eps/2 takes as many steps as [0, pi/2] to eps.
        r = math.sqrt(0.5 * (1.0 - target))
        half = _bisect_increasing(math.sin, 0.0, 0.25 * math.pi, r, 0.5 * eps)
        return sign * (0.5 * math.pi - 2.0 * half)
    if kind == "arctan":
        hi = 0.5 * math.pi  # fp value is below the true pole; tan there is huge
        if target >= math.tan(hi):
            return sign * hi
        return sign * _bisect_increasing(math.tan, 0.0, hi, target, eps)
    if kind == "artanh":
        return sign * 0.5 * log_construct((1.0 + target) / (1.0 - target), 2.0 * eps).value
    if target > _INVERSE_LARGE:
        return sign * (log_construct(target, eps).value + _log2_enclosure().value)
    if kind == "arsinh":
        root = math.sqrt(target * target + 1.0)
    else:
        root = math.sqrt((target - 1.0) * (target + 1.0))
    return sign * log_construct(target + root, eps).value
