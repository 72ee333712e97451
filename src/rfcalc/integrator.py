"""Convergent integration by partition refinement.

integrate() doubles the cell count of a uniform partition until two
successive Riemann sums agree to the requested tolerance.  There is no
adaptive subdivision and no quadrature formula beyond the tag rule; the
point is to watch the definitional limit converge.  integrate_improper()
closes a window sequence on a singular endpoint, runs the same engine only
on the slice each new window adds, and accelerates the running sum with
one Aitken delta-squared step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import DivergenceError, InvalidArgumentError
from .partitions import Interval, MIDPOINT, TagRule, riemann_sum, uniform_partition

Fn = Callable[[float], float]

DEFAULT_MAX_N = 2 ** 22
DEFAULT_N0 = 8

# Improper-limit controls.  Window j uses endpoint offset (b-a)*2^-j and
# adds the slice between cut points j-1 and j to a running sum.  The first
# slice gets tolerance tol/_IMPROPER_INNER_DIV, and each later one
# _SLICE_TOL_RATIO times the one before, so the slice tolerances sum to
# less than 3.5*tol/32 and an inverse-square-root endpoint needs about the
# same cell count in every slice.  Dividing by 32 leaves room for Aitken,
# which amplifies the errors of the last slices by roughly an order of
# magnitude at ratio ~ 1/sqrt(2).
_IMPROPER_FIRST_J = 2
_IMPROPER_MAX_J = 40
_IMPROPER_INNER_DIV = 32.0
_GROWTH_STREAK = 5
_SLICE_TOL_RATIO = 2.0 ** -0.5
_GROWTH_RESOLUTION = 2.0 ** -10


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of a refinement run.

    value is the last Riemann sum (or accelerated limit), error_estimate the
    last successive difference, trace the full (n, value) refinement history.
    converged=False with the cap reached is an answer, not an error.
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


def _aitken(x0: float, x1: float, x2: float) -> float:
    den = x2 - 2.0 * x1 + x0
    if den == 0.0 or not math.isfinite(den):
        return x2
    return x2 - (x2 - x1) ** 2 / den


def integrate_improper(
    f: Fn,
    a: float,
    b: float,
    singular_end: str,
    tol: float,
    rule: TagRule = MIDPOINT,
    max_n: int = DEFAULT_MAX_N,
) -> IntegrationResult:
    """Limit of proper integrals as a window closes on a singular endpoint.

    Window j stops short of the bad endpoint by (b-a)*2^-j for j = 2, 3, ...
    By additivity, window j is window j-1 plus the slice between their cut
    points, so each slice is integrated once, at a tolerance that shrinks
    geometrically with j, and added to a running sum.  The running sums
    feed one Aitken delta-squared extrapolation, used only while the last
    slice is smaller than the one before it by more than their tolerances.
    The run stops when successive accelerated values, widened by how far
    the extrapolation can move within the last two slice tolerances,
    differ by at most tol.  A slice that misses its tolerance makes the
    result non-converged.  Slices that stop shrinking for _GROWTH_STREAK
    consecutive windows raise DivergenceError: at an integrable endpoint
    the increments go to zero, and at 1/t they stay equal.  While growth is
    suspected, slices are resolved only coarsely; a run that converges
    after that reports converged=False.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    if singular_end not in ("lower", "upper"):
        raise InvalidArgumentError(f"singular_end must be 'lower' or 'upper', got {singular_end!r}")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, 0, True, ())
    if a > b:
        raise InvalidArgumentError("improper integration requires a < b")

    span = b - a
    running = 0.0
    sums: list[float] = []
    trace: list[tuple[int, float]] = []
    evaluations = 0
    prev_cut = b if singular_end == "lower" else a
    prev_slice, prev_tol = math.inf, 0.0
    streak = 0
    within_budget = True
    for j in range(_IMPROPER_FIRST_J, _IMPROPER_MAX_J + 1):
        delta = span * 2.0 ** -j
        cut = a + delta if singular_end == "lower" else b - delta
        lo, hi = (cut, prev_cut) if singular_end == "lower" else (prev_cut, cut)
        prev_cut = cut

        slice_tol = tol / _IMPROPER_INNER_DIV * _SLICE_TOL_RATIO ** (j - _IMPROPER_FIRST_J)
        if streak and abs(prev_slice) * _GROWTH_RESOLUTION > slice_tol:
            # Growth suspected: telling it from shrinkage only needs each
            # slice to a small fraction of itself, but a slice resolved that
            # coarsely spends more than its share of the error budget.
            slice_tol = abs(prev_slice) * _GROWTH_RESOLUTION
            within_budget = False
        # Cells narrower than a few ulps would make partition points collide.
        cap = max_n
        while cap > 1 and (hi - lo) / cap < 4.0 * math.ulp(max(abs(lo), abs(hi))):
            cap //= 2
        r = integrate(f, lo, hi, slice_tol, rule, cap)
        evaluations += r.evaluations
        running += r.value
        sums.append(running)

        shrank = abs(r.value) + slice_tol < abs(prev_slice) - prev_tol
        if shrank and len(sums) >= 3:
            ratio = r.value / prev_slice
            value = _aitken(sums[-3], sums[-2], sums[-1])
            # First-order change of the extrapolated value when the last two
            # slices are off by their tolerances; it grows as ratio -> 1.
            noise = (abs(1.0 - 2.0 * ratio) * prev_tol + slice_tol) / (1.0 - ratio) ** 2
        else:
            value, noise = running, 0.0
        streak = 0 if shrank or abs(r.value) <= slice_tol else streak + 1
        prev_slice, prev_tol = r.value, slice_tol
        trace.append((r.n_final, value))
        est = abs(value - trace[-2][1]) + noise if len(trace) >= 2 else math.inf

        if not r.converged:
            # The running sum now carries more error than its budget, so no
            # later window can make the limit honest.
            return IntegrationResult(
                value, max(est, r.error_estimate), r.n_final, evaluations, False, tuple(trace)
            )
        if streak >= _GROWTH_STREAK:
            raise DivergenceError(
                f"window increments stopped shrinking for {streak} windows "
                f"(last slice {r.value:g}, window sum {running:g}); "
                f"endpoint looks non-integrable"
            )
        if len(trace) >= 4 and est <= tol:
            return IntegrationResult(value, est, r.n_final, evaluations, within_budget, tuple(trace))

    return IntegrationResult(value, est, r.n_final, evaluations, False, tuple(trace))


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
