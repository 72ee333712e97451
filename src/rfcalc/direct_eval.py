"""Special-purpose Riemann-sum evaluators with observable convergence.

Each function here computes a specific integral the way its convergence
argument does: geometric partitions collapsing the 1/t sums to a two-sided
sandwich, geometric series for b^t, Faulhaber leading terms for t^n,
complex geometric sums for cos/sin, and telescoping identities for sec^2,
csc^2 and sec*tan.  The telescoped forms are algebraically exact for every
n; their Riemann counterparts converge at first order, and tests exercise
exactly that contrast.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError, InvalidArgumentError


@dataclass(frozen=True)
class SandwichPair:
    """Two-sided enclosure of a limit; lower <= upper."""

    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n}")


def log_limit_bounds(x: float, n: int) -> SandwichPair:
    """Bounds n(x^{1/n}-1)/x^{1/n} <= log x <= n(x^{1/n}-1).

    For n a power of two the root comes from the cancellation-free
    recurrence on x^{1/n} - 1; otherwise a platform n-th root is used
    (demonstration path only, not part of the certified tower).
    """
    _require_positive_n(n)
    if math.isnan(x) or math.isinf(x) or x <= 1.0:
        raise InvalidArgumentError(f"sandwich bounds need x > 1, got {x}")
    if n & (n - 1) == 0:
        d = x - 1.0
        for _ in range(n.bit_length() - 1):
            d = d / (1.0 + math.sqrt(1.0 + d))
        upper = n * d
        lower = upper / (1.0 + d)
    else:
        root = x ** (1.0 / n)
        upper = n * (root - 1.0)
        lower = upper / root
    return SandwichPair(lower, upper)


def _geometric_step(b: float, p: float, q: float, n: int) -> tuple[float, float]:
    """Check a b^t sum over [p, q] in n cells; return (Delta, b^Delta)."""
    _require_positive_n(n)
    if math.isnan(b) or math.isinf(b) or b <= 0.0:
        raise InvalidArgumentError(f"base must be finite and positive, got {b}")
    if b == 1.0:
        raise InvalidArgumentError("base 1 makes the integrand constant; no series needed")
    if not p < q:
        raise InvalidArgumentError(f"need p < q, got p={p}, q={q}")
    delta = (q - p) / n
    return delta, b ** delta


def exp_geometric_sum(b: float, p: float, q: float, n: int) -> float:
    """Left Riemann sum of b^t over [p, q]: Delta * sum of b^{p+k Delta}.

    The powers are built by iterated multiplication by b^Delta (a single
    platform pow per call), which is the geometric-series structure itself.
    """
    delta, ratio = _geometric_step(b, p, q, n)
    factors = np.full(n, ratio)
    factors[0] = b ** p
    return delta * math.fsum(factors.cumprod())


def exp_geometric_closed_form(b: float, p: float, q: float, n: int) -> float:
    """(b^q - b^p) * Delta / (b^Delta - 1): the same sum in closed form."""
    delta, ratio = _geometric_step(b, p, q, n)
    if ratio == 1.0:
        raise InvalidArgumentError("step too small: b^Delta rounds to 1")
    return (b ** q - b ** p) * delta / (ratio - 1.0)


@functools.lru_cache(maxsize=None)
def power_sum(n_exp: int, big_n: int) -> int:
    """Exact integer sum of k^n_exp for k = 0 .. big_n-1."""
    if n_exp < 0:
        raise InvalidArgumentError(f"exponent must be nonnegative, got {n_exp}")
    if big_n < 1:
        raise InvalidArgumentError(f"upper count must be positive, got {big_n}")
    return sum(k ** n_exp for k in range(big_n))


def faulhaber_left_sum(n_exp: int, x: float, big_n: int) -> float:
    """Left Riemann sum of t^n_exp over [0, x] with big_n uniform cells.

    Evaluates (x/N) * sum (kx/N)^n as x^{n+1} * power_sum(n, N) / N^{n+1}
    so the combinatorial part is exact; n_exp = 0 returns x exactly.
    """
    if not 0 <= n_exp <= 20:
        raise InvalidArgumentError(f"exponent must be in 0..20, got {n_exp}")
    if big_n < 1:
        raise InvalidArgumentError(f"cell count must be positive, got {big_n}")
    if math.isnan(x) or math.isinf(x):
        raise InvalidArgumentError(f"x must be finite, got {x}")
    try:
        scale = float(x) ** (n_exp + 1)
    except OverflowError as exc:
        raise EvaluationError(x, f"x^{n_exp + 1} overflows") from exc
    return scale * (power_sum(n_exp, big_n) / big_n ** (n_exp + 1))


def demoivre_pow(theta: float, n: int) -> complex:
    """(cos theta + i sin theta)^n by repeated complex multiplication."""
    if n < 0:
        raise InvalidArgumentError(f"power must be nonnegative, got {n}")
    z = complex(math.cos(theta), math.sin(theta))
    acc = complex(1.0, 0.0)
    for _ in range(n):
        acc = acc * z
    return acc


def demoivre_riemann_sum(x: float, n: int) -> complex:
    """(x/n) * sum of z^k for k < n, z = cos(x/n) + i sin(x/n).

    Real part tends to sin x, imaginary part to 1 - cos x.  The powers are
    an iterated-product prefix scan; no closed-form quotient is involved,
    so z arbitrarily close to 1 needs no special casing.
    """
    _require_positive_n(n)
    if math.isnan(x) or math.isinf(x):
        raise InvalidArgumentError(f"x must be finite, got {x}")
    if x == 0.0:
        return complex(0.0, 0.0)
    h = x / n
    z = complex(math.cos(h), math.sin(h))
    factors = np.full(n, z, dtype=np.complex128)
    factors[0] = 1.0 + 0.0j
    powers = factors.cumprod()
    return complex(h * math.fsum(powers.real), h * math.fsum(powers.imag))


def _uniform_points(a: float, b: float, n: int) -> np.ndarray:
    return a + np.arange(n + 1) * ((b - a) / n)


def _require_within_half_pi(x: float, n: int) -> None:
    _require_positive_n(n)
    if math.isnan(x) or abs(x) >= 0.5 * math.pi:
        raise DomainError(f"need |x| < pi/2, got {x}")


def _require_within_zero_pi(a: float, b: float, n: int) -> None:
    _require_positive_n(n)
    if math.isnan(a) or math.isnan(b) or not (0.0 < a < math.pi and 0.0 < b < math.pi):
        raise DomainError(f"endpoints must lie in (0, pi), got [{a}, {b}]")
    if not a < b:
        raise InvalidArgumentError(f"need a < b, got a={a}, b={b}")


def telescope_sec2(x: float, n: int) -> float:
    """sum sin(x/n) / (cos t_{k+1} cos t_k): collapses to tan x for every n."""
    _require_within_half_pi(x, n)
    if x == 0.0:
        return 0.0
    c = np.cos(_uniform_points(0.0, x, n))
    h = x / n
    return math.fsum(math.sin(h) / (c[1:] * c[:-1]))


def sec2_riemann_sum(x: float, n: int) -> float:
    """Left Riemann sum (x/n) * sum sec^2(t_k); tends to tan x."""
    _require_within_half_pi(x, n)
    if x == 0.0:
        return 0.0
    c = np.cos(_uniform_points(0.0, x, n)[:-1])
    return (x / n) * math.fsum(1.0 / (c * c))


def telescope_csc2(a: float, b: float, n: int) -> float:
    """sum sin(h) / (sin t_k sin t_{k+1}) over [a, b]: equals cot a - cot b."""
    _require_within_zero_pi(a, b, n)
    s = np.sin(_uniform_points(a, b, n))
    h = (b - a) / n
    return math.fsum(math.sin(h) / (s[1:] * s[:-1]))


def csc2_riemann_sum(a: float, b: float, n: int) -> float:
    """Left Riemann sum of csc^2 over [a, b]; tends to cot a - cot b."""
    _require_within_zero_pi(a, b, n)
    s = np.sin(_uniform_points(a, b, n)[:-1])
    return ((b - a) / n) * math.fsum(1.0 / (s * s))


def sectan_telescope(x: float, n: int) -> float:
    """sum (cos t_k - cos t_{k+1}) / (cos t_k cos t_{k+1}): equals sec x - 1."""
    _require_within_half_pi(x, n)
    if x == 0.0:
        return 0.0
    c = np.cos(_uniform_points(0.0, x, n))
    return math.fsum((c[:-1] - c[1:]) / (c[:-1] * c[1:]))


def sectan_riemann_sum(x: float, n: int) -> float:
    """Left Riemann sum (x/n) * sum sec(t_k) tan(t_k); tends to sec x - 1."""
    _require_within_half_pi(x, n)
    if x == 0.0:
        return 0.0
    t = _uniform_points(0.0, x, n)[:-1]
    c = np.cos(t)
    return (x / n) * math.fsum(np.sin(t) / (c * c))
