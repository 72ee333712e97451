"""Elementary functions grown out of the integral, not imported.

log is delivered as a certified enclosure: geometric partitions of [1, m]
pinch log m between n(m^{1/n} - 1)/m^{1/n} and n(m^{1/n} - 1).  With
n = 2^j the n-th root comes from repeated square roots, and the recurrence
d' = d/(1 + sqrt(1 + d)) carries m^{1/n} - 1 itself, so forming
n(m^{1/n} - 1) never subtracts nearly equal numbers.  exp inverts log by
Newton's method from a polynomial start, each step one certified log call,
b^x = exp(x log b), hyperbolics are their defining quotients of exp,
arsinh/arcosh/artanh are closed forms through the certified log, and
arcsin/arctan bisect platform sin/tan.

math.log / math.exp / math.pow appear nowhere in this module; the test
suite uses them as oracles, the implementation must not.  Platform
sin/cos/tan are accepted as given primitives (forward maps for the
inverse-trig bisections), and sqrt is the one rounded algebraic operation
the construction leans on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DomainError, InvalidArgumentError

_ULP = 2.0 ** -53
_SANDWICH_MAX_J = 60
_L2_TARGET = 5e-14

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


def _sandwich(m: float, budget: float) -> tuple[float, float]:
    """Enclose log m for m in [1, 2]; returns (midpoint, certified bound).

    Stops once half-gap plus rounding margin fits the budget, or at the
    point where the margin stops further doubling from helping.
    """
    d = m - 1.0  # exact for m in [1, 2]
    j = 0
    best_value = 0.0
    best_bound = math.inf
    while True:
        upper = math.ldexp(d, j)  # n(m^{1/n} - 1) with n = 2^j
        lower = upper / (1.0 + d)  # n(1 - m^{-1/n})
        gap = upper - lower
        margin = (3.0 * j + 8.0) * _ULP * (1.0 + upper)
        bound = 0.5 * gap + margin
        if bound < best_bound:
            best_bound = bound
            best_value = lower + 0.5 * gap
        if best_bound <= budget or j >= _SANDWICH_MAX_J or d == 0.0:
            return best_value, best_bound
        d = d / (1.0 + math.sqrt(1.0 + d))
        j += 1


@functools.lru_cache(maxsize=None)
def _log2_enclosure() -> ApproxValue:
    return ApproxValue(*_sandwich(2.0, _L2_TARGET))


def log_construct(x: float, eps: float = 1e-12) -> ApproxValue:
    """Certified log x from the geometric-partition sandwich.

    x is reduced exactly to 2^k * m with m in [1, 2); the result is
    k*log2 + sandwich(m) with the carried bound covering the sandwich
    half-gap, the k-fold reuse of the log2 enclosure, and rounding.  The
    bound aims for eps but is reported honestly when eps is below the
    certification floor (a few 1e-14 per unit of |k|).
    """
    if not eps > 0:
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise DomainError(f"log requires finite x > 0, got {x}")
    if x == 1.0:
        return ApproxValue(0.0, 0.0)
    frac, exp2 = math.frexp(x)  # x = frac * 2^exp2 exactly, frac in [0.5, 1)
    m = 2.0 * frac
    k = exp2 - 1
    l2 = _log2_enclosure()
    reduction = abs(k) * l2.bound
    mid, sbound = _sandwich(m, max(eps - reduction, 0.0))
    value = k * l2.value + mid
    combo = 2.0 * _ULP * (abs(k * l2.value) + abs(mid) + abs(value))
    return ApproxValue(value, sbound + reduction + combo)


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
        newton = abs(r) ** 3
        radius = lw.bound * (1.0 + lw.bound) + newton + noise
    try:
        return math.ldexp(w, k0)
    except OverflowError:
        return math.inf


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

    arcsin/arctan bisect platform sin/tan.  arsinh, arcosh and artanh are
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
        if target == 1.0:
            return sign * (0.5 * math.pi)
        return sign * _bisect_increasing(math.sin, 0.0, 0.5 * math.pi, target, eps)
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
