"""Convergent integration by partition refinement.

integrate() doubles the cell count of a uniform partition until two
successive Riemann sums agree to the requested tolerance.  There is no
adaptive subdivision and no quadrature formula beyond the tag rule; the
point is to watch the definitional limit converge.  integrate_improper()
moves a singular endpoint to infinity on the s-line by the double-exponential
substitution (Takahasi and Mori, 1974) and refines plain Riemann sums there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .elementary import exp_array, log_construct
from .errors import DivergenceError, EvaluationError, InvalidArgumentError
from .partitions import (
    ArrayFn, Interval, MIDPOINT, TagRule, _scalar_samples, riemann_sum, uniform_partition,
)

Fn = Callable[[float], float]

DEFAULT_MAX_N = 2 ** 22
DEFAULT_N0 = 8

# f is sampled no closer to an improper integral's singular end than this
# fraction of the interval; below it the integrand is a fitted power law.
_DEPTH = 2.0 ** -40


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of a refinement run.

    value is the last Riemann sum, error_estimate the last successive difference,
    trace the (n, value) history of the levels (on the s-line for an improper
    integral).  converged=False is an answer, not an error.
    """

    value: float
    error_estimate: float
    n_final: int
    evaluations: int
    converged: bool
    trace: tuple[tuple[int, float], ...] = field(default_factory=tuple)


def integrate(
    f: Fn,
    a: float,
    b: float,
    tol: float,
    rule: TagRule = MIDPOINT,
    max_n: int = DEFAULT_MAX_N,
) -> IntegrationResult:
    """Refine uniform Riemann sums of f over [a, b] until Cauchy-stable.

    Conventions: the integral over [a, a] is exactly 0, and reversed
    endpoints negate the result.  Stops once successive sums differ by at
    most tol, or returns converged=False when doubling would pass max_n or
    make cells narrower than an ulp, so that partition points collide.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    if max_n < 1:
        raise InvalidArgumentError(f"max_n must be positive, got {max_n}")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, 0, True, ())
    if a > b:
        r = integrate(f, b, a, tol, rule, max_n)
        return IntegrationResult(
            -r.value, r.error_estimate, r.n_final, r.evaluations, r.converged,
            tuple((n, -v) for n, v in r.trace),
        )
    interval = Interval(a, b)
    # Below the resolution of the grid itself there is nothing to refine.
    if a + (b - a) / 8.0 <= a:
        v = riemann_sum(f, uniform_partition(interval, 1, rule))
        return IntegrationResult(v, abs(v), 1, 1, True, ((1, v),))

    n = max(1, min(DEFAULT_N0, max_n))
    prev: float | None = None
    trace: list[tuple[int, float]] = []
    evaluations = 0
    partition = uniform_partition(interval, n, rule)
    while True:
        s = riemann_sum(f, partition)
        evaluations += n
        trace.append((n, s))
        if prev is not None:
            diff = abs(s - prev)
            if diff <= tol:
                return IntegrationResult(s, diff, n, evaluations, True, tuple(trace))
        try:
            partition = uniform_partition(interval, 2 * n, rule) if 2 * n <= max_n else None
        except InvalidArgumentError:  # cells below an ulp: points collide
            partition = None
        if partition is None:
            est = abs(s - prev) if prev is not None else math.inf
            return IntegrationResult(s, est, n, evaluations, False, tuple(trace))
        prev = s
        n *= 2


def integrate_improper(
    f: Fn,
    a: float,
    b: float,
    singular_end: str,
    tol: float,
    rule: TagRule = MIDPOINT,
    max_n: int = DEFAULT_MAX_N,
) -> IntegrationResult:
    """Improper integral over [a, b] by the double-exponential substitution.

    With c the singular end, t = c +- (b-a)/(1 + e^{pi sinh s}) makes the
    integral one of f(t(s)) |t'(s)| over the s-line, where it decays
    double-exponentially at both ends.  Each level is a Riemann sum over a
    uniform partition of one s-interval; n doubles until two successive level
    differences are at most tol/2, or at most the model term below when that
    alone exceeds tol.  f is sampled no closer to c than the
    depth, (b-a)*_DEPTH or 4096 ulps of c if larger; beyond it a power law
    K |t - c|^-p fitted at three probes continues the integrand, and p >= 1
    raises DivergenceError.  error_estimate is the larger of the last two
    level differences plus the change in modelled mass when p is read one
    probe scale further out (or a few ulps away, if that is more).
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    if singular_end not in ("lower", "upper"):
        raise InvalidArgumentError(f"singular_end must be 'lower' or 'upper', got {singular_end!r}")
    if max_n < 1:
        raise InvalidArgumentError(f"max_n must be positive, got {max_n}")
    Interval(a, b)  # finite endpoints, a <= b
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, 0, True, ())

    span, eps = b - a, 1e-15
    c, side = (a, 1.0) if singular_end == "lower" else (b, -1.0)
    depth = _DEPTH * max(span, math.ulp(c) / math.ulp(1.0))
    scale = 2.0 ** min(10, (math.frexp(span / depth)[1] - 2) // 2)
    if scale < 2.0:
        raise InvalidArgumentError(f"[{a}, {b}] is too narrow to resolve its end {c}")
    log = lambda x: log_construct(x, eps).value  # noqa: E731
    asinh = lambda y: log(y + math.sqrt(y * y + 1.0))  # noqa: E731

    def sample(t: np.ndarray) -> np.ndarray:
        y = f.fn(t) if isinstance(f, ArrayFn) else _scalar_samples(f, t)
        bad = ~np.isfinite(y)
        if bad.any():
            raise EvaluationError(float(t[bad.argmax()]), "integrand sample is not finite")
        return y

    # Exact distances from c, so that 1/t at exact probe points reads p = 1 exactly.
    probes = c + side * depth * scale ** np.arange(3.0)  # the last within span/2 of c
    u0, u1, u2 = np.abs(probes - c).tolist()
    f0, f1, f2 = sample(probes).tolist()
    mass = lambda e: f0 * u0 / (1.0 - e) if e < 1.0 else math.inf  # noqa: E731
    if f0 * f1 > 0.0 and f1 * f2 > 0.0:
        p = log(f0 / f1) / log(u1 / u0)
        # Rounding moves p by a few ulps, which p near 1 amplifies.
        drift = abs(mass(p + max(abs(log(f1 / f2) / log(u2 / u1) - p), 4.0 * math.ulp(1.0)))
                    - mass(p))
    else:  # no common sign: continue f0 as a constant and trust none of it
        p, drift = 0.0, abs(f0 * u0)
    if p >= 1.0:
        raise DivergenceError(f"|f| grows like |t - {c}|^-{p:.6g}: endpoint looks non-integrable")
    ell, tail = log(span / u0), -2.0 * log(_DEPTH)  # each end leaves e^-tail of its scale

    def integrand(s: np.ndarray) -> np.ndarray:
        es = exp_array(s, eps)
        cosh, q = 0.5 * (es + 1.0 / es), 0.5 * math.pi * (es - 1.0 / es)
        big = exp_array(q, eps)  # e^{pi sinh s}
        d, v = span / (1.0 + big), 1.0 / big
        out = math.pi * cosh / (1.0 + v)  # |t'(s)| / d
        far = d >= depth
        t = np.clip(c + side * d[far], a, b)
        # t rounds away from c +- d; scale f(t) back to the distance d.
        out[far] *= d[far] * sample(t) * (1.0 + p * (np.abs(t - c) - d[far]) / d[far])
        out[~far] *= f0 * u0 * exp_array((1.0 - p) * (ell - q[~far] - v[~far]), eps)
        return out

    s_line = Interval(-asinh(tail / math.pi), asinh((ell + tail / (1.0 - p)) / math.pi))
    n, trace, steps = max(1, min(DEFAULT_N0, max_n)), [], [math.inf]
    # Once the model term alone exceeds tol, refining below it cannot converge.
    enough = tol / 2.0 if drift <= tol else drift
    while True:
        trace.append((n, riemann_sum(ArrayFn(integrand), uniform_partition(s_line, n, rule))))
        if len(trace) >= 3:
            steps = [abs(trace[-1][1] - trace[-2][1]), abs(trace[-2][1] - trace[-3][1])]
        if max(steps) <= enough or 2 * n > max_n:
            break
        n *= 2
    est = max(steps) + drift
    return IntegrationResult(trace[-1][1], est, n, 3 + sum(k for k, _ in trace), est <= tol,
                             tuple(trace))


def cumulative(
    f: Fn,
    a: float,
    grid: Sequence[float],
    tol: float,
    rule: TagRule = MIDPOINT,
    max_n: int = DEFAULT_MAX_N,
) -> list[float]:
    """Prefix integrals F(x) = integral of f from a to x for each grid x.

    Each cell between consecutive grid points is integrated once and the
    results are prefix-summed, so the differences F(x_{i+1}) - F(x_i)
    reproduce the cell integrals to rounding error.  The grid must be
    sorted with grid[0] >= a; duplicates contribute zero-width cells.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    pts = [float(x) for x in grid]
    if not pts:
        return []
    if pts[0] < a:
        raise InvalidArgumentError(f"grid starts at {pts[0]} before a={a}")
    if any(y < x for x, y in zip(pts, pts[1:])):
        raise InvalidArgumentError("grid must be sorted ascending")
    cell_tol = tol / max(1, len(pts))
    values: list[float] = []
    total = 0.0
    left = a
    for x in pts:
        total += integrate(f, left, x, cell_tol, rule, max_n).value
        values.append(total)
        left = x
    return values


@dataclass(frozen=True)
class ConvergenceReport:
    """Observed error decay of Riemann sums over a list of cell counts.

    diff per row is |value - exact| when an exact value was supplied, else
    the successive difference (None on the first row).  estimated_order
    averages log2 of the diff ratios over the last three rows; a vanishing
    diff makes the order +inf by convention.  The report holds numbers
    only; `rfcalc converge` turns it into CSV, JSON or text.
    """

    rows: tuple[tuple[int, float, float | None], ...]
    estimated_order: float


def convergence_report(
    f: Fn,
    a: float,
    b: float,
    rule: TagRule,
    n_list: Sequence[int],
    exact: float | None = None,
) -> ConvergenceReport:
    """Tabulate Riemann sums of f over [a, b] for each n in n_list."""
    ns = [int(n) for n in n_list]
    if not ns:
        raise InvalidArgumentError("n_list must be non-empty")
    if any(n < 1 for n in ns):
        raise InvalidArgumentError("every n must be >= 1")
    if any(y <= x for x, y in zip(ns, ns[1:])):
        raise InvalidArgumentError("n_list must be strictly increasing")
    if not a < b:
        raise InvalidArgumentError("convergence report needs a < b")

    interval = Interval(a, b)
    values = [riemann_sum(f, uniform_partition(interval, n, rule)) for n in ns]

    rows: list[tuple[int, float, float | None]] = []
    for i, (n, v) in enumerate(zip(ns, values)):
        if exact is not None:
            diff: float | None = abs(v - exact)
        elif i == 0:
            diff = None
        else:
            diff = abs(v - values[i - 1])
        rows.append((n, v, diff))

    orders: list[float] = []
    usable = [(n, d) for n, _, d in rows if d is not None]
    for (n1, d1), (n2, d2) in zip(usable, usable[1:]):
        if d2 == 0.0:
            orders.append(math.inf)
        elif d1 == 0.0:
            orders.append(-math.inf)
        else:
            orders.append(math.log(d1 / d2) / math.log(n2 / n1))
    tail = orders[-3:]
    if not tail:
        order = math.inf
    elif any(math.isinf(o) for o in tail):
        order = math.inf if any(o == math.inf for o in tail) else -math.inf
    else:
        order = sum(tail) / len(tail)
    return ConvergenceReport(tuple(rows), order)
