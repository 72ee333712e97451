"""Convergent integration by Riemann sums on the s-line.

integrate() changes variable by the substitution lemma, moving the ends of
[a, b] to infinity (Takahasi and Mori, 1974), and refines midpoint Riemann
sums over uniform partitions of one s-interval in one loop, _refine; a
singular end is continued by a fitted power law.  convergence_report() keeps
raw uniform sums on [a, b], so that the definitional limit stays visible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .elementary import exp_array, log_construct
from .errors import DivergenceError, EvaluationError, InvalidArgumentError
from .partitions import ArrayFn, Interval, TagRule, _scalar_samples, riemann_sum, uniform_partition

Fn = Callable[[float], float]

DEFAULT_MAX_N = 2 ** 22
DEFAULT_N0 = 8

# Accuracy of the tower calls that place the nodes, and the largest level
# whose tanh-sinh nodes are kept (8..2^12 nodes, per s-interval).
_EPS, _TABLE_MAX = 1e-15, 2 ** 12
_log = lambda x: log_construct(x, _EPS).value  # noqa: E731
_asinh = lambda y: _log(y + math.sqrt(y * y + 1.0))  # noqa: E731


@dataclass(frozen=True)
class IntegrationResult:
    """Outcome of a refinement run: value is the last Riemann sum, trace the
    (n, value) history of the levels on the s-line, error_estimate as _refine
    says.  converged=False is an answer, not an error."""

    value: float
    error_estimate: float
    n_final: int
    evaluations: int
    converged: bool
    trace: tuple[tuple[int, float], ...] = field(default_factory=tuple)


# A level's tags, and the function from their samples to its Riemann sum and error term.
_Level = tuple[np.ndarray, Callable[[np.ndarray], tuple[float, float]]]


def _refine(level: Callable[[int], _Level], sample: Callable[[np.ndarray], np.ndarray],
            tol: float, cap: float, probes: int = 0) -> IntegrationResult:
    """The refinement loop of integrate.  level(n) returns the tags of the
    level with n cells at which f is sampled, and a function from their
    samples to its Riemann sum and an error term that refining cannot lower.
    n doubles from n0 until the last two level differences are at most tol/2,
    or at most that term when it alone exceeds tol, or until doubling would
    pass cap or a sum is not finite; only these two end a run before its
    third level.  n0 is the largest of 8, 16 and 32 whose levels n0, 2 n0 and
    4 n0 fit under cap, and those three, the fewest on which the rule can
    decide, are sampled in one call on their tags concatenated; should that
    call raise, they are sampled one by one, so that the error is the one a
    level-by-level run meets.  Below a cap of 32, levels go one by one from
    min(8, cap).  error_estimate is the larger difference plus the term;
    evaluations counts every sample, and the probes taken before the loop."""
    n0 = next((n for n in (32, 16, 8) if 4 * n <= cap), 0)
    n, trace, steps = n0 or max(1, min(DEFAULT_N0, int(cap))), [], [math.inf]
    plans, batch, taken = [level(n0 << k) for k in range(3)] if n0 else [], [], probes
    if plans:
        sizes = [t.size for t, _ in plans]
        taken += sum(sizes)
        try:
            batch = np.split(sample(np.concatenate([t for t, _ in plans])),
                             [sizes[0], sizes[0] + sizes[1]])
        except EvaluationError:
            pass
    while True:
        tags, total = plans.pop(0) if plans else level(n)
        if batch:
            y = batch.pop(0)
        else:
            taken += tags.size
            y = sample(tags)
        value, extra = total(y)
        trace.append((n, value))
        if len(trace) >= 3:
            steps = [abs(trace[-1][1] - trace[-2][1]), abs(trace[-2][1] - trace[-3][1])]
            if max(steps) <= (tol / 2.0 if extra <= tol else extra):
                break
        if not math.isfinite(value) or 2 * n > cap:
            break
        n *= 2
    est = max(steps) + extra if math.isfinite(value) else math.inf
    return IntegrationResult(value, est, n, taken, est <= tol, tuple(trace))


def _sample(f: Fn, t: np.ndarray) -> np.ndarray:
    y = f.fn(t) if isinstance(f, ArrayFn) else _scalar_samples(f, t)
    bad = ~np.isfinite(y)
    if bad.any():
        raise EvaluationError(float(t[bad.argmax()]), "integrand sample is not finite")
    return y


@functools.lru_cache(maxsize=None)
def _constants() -> tuple[float, float]:
    """ln 2, and S = asinh((2/pi) ln 2^46), 2^-91 half-widths from an end."""
    return _log(2.0), _asinh(92.0 / math.pi * _log(2.0))


@functools.lru_cache(maxsize=30)
def _nodes(n: int, lo: float, hi: float):
    """The level's midpoint partition of the s-interval [lo, hi]; the index of
    its first tag s > 0, the first node of the upper end; each tag's distance
    2E/(1 + E) to its end and dt/ds = 2 pi cosh(s) E/(1 + E)^2 per half-width,
    E = e^{-q}, q = pi |sinh s|; the widest cell; and q."""
    part = uniform_partition(Interval(lo, hi), n)
    es = exp_array(np.abs(part.tags), _EPS)
    q = 0.5 * math.pi * (es - 1.0 / es)
    e = exp_array(-q, _EPS)
    return (part, int(part.tags.searchsorted(0.0, "right")), 2.0 * e / (1.0 + e),
            math.pi * (es + 1.0 / es) * e / (1.0 + e) ** 2, float(np.diff(part.points).max()), q)


def _end_mass(t: np.ndarray, y: np.ndarray, i: int, j: int, c: float, ln2: float) -> float:
    """A bound on the mass of |f| within u0 of the end c, reading y at t[i], the
    node nearest c at distance u0, and at t[j], the next distinct one, as
    K |t - c|^-p, p bounded above without a log call; inf if p >= 1."""
    y0, y1 = float(y[i]), float(y[j])
    f0, f1, u0, u1 = abs(y0), abs(y1), abs(float(t[i]) - c), abs(float(t[j]) - c)
    if not (f0 > f1 and y0 * y1 > 0.0):  # |f| does not grow towards c
        return max(f0, f1) * u0
    (mr, er), (mq, eq) = math.frexp(f0 / f1), math.frexp(u1 / u0)
    # For 1/2 <= m < 1, ln(m 2^e) - (e-1) ln 2 lies in [2(2m-1)/(2m+1), (2m-1)/sqrt(2m)].
    p = (((er - 1) * ln2 + (2.0 * mr - 1.0) / math.sqrt(2.0 * mr))
         / ((eq - 1) * ln2 + 2.0 * (2.0 * mq - 1.0) / (2.0 * mq + 1.0)))
    return f0 * u0 / (1.0 - p) if p < 1.0 else math.inf


def _end_model(f: Fn, a: float, b: float, c: float, side: int) -> tuple[float, ...]:
    """The power law K |t - c|^-p that continues f near its singular end c,
    fitted at three probes at exact distances u0, u0 s and u0 s^2 from c, u0
    being 4096 ulps of c or 2^-92 (b - a) if larger.  Returns u0, f at u0, p,
    and the change in the modelled mass f0 u0/(1 - p) when p is read one
    probe scale further out (or a few ulps away, if more)."""
    span = b - a
    u0 = max(4096.0 * math.ulp(c), 2.0 ** -92 * span)
    scale = 2.0 ** min(10, (math.frexp(span / u0)[1] - 2) // 2)
    if scale < 2.0:
        raise InvalidArgumentError(f"[{a}, {b}] is too narrow to resolve its end {c}")
    # Exact distances from c, so that 1/t at exact probe points reads p = 1 exactly.
    probes = c + side * u0 * scale ** np.arange(3.0)  # the last within span/2 of c
    u0, u1, u2 = np.abs(probes - c).tolist()
    f0, f1, f2 = _sample(f, probes).tolist()
    mass = lambda e: f0 * u0 / (1.0 - e) if e < 1.0 else math.inf  # noqa: E731
    if f0 * f1 > 0.0 and f1 * f2 > 0.0:
        p = _log(f0 / f1) / _log(u1 / u0)
        # Rounding moves p by a few ulps, which p near 1 amplifies.
        drift = abs(mass(p + max(abs(_log(f1 / f2) / _log(u2 / u1) - p), 4.0 * math.ulp(1.0)))
                    - mass(p))
    else:  # no common sign: continue f0 as a constant and trust none of it
        p, drift = 0.0, abs(f0 * u0)
    if p >= 1.0:
        raise DivergenceError(f"|f| grows like |t - {c}|^-{p:.6g}: endpoint looks non-integrable")
    return u0, f0, p, drift


def integrate(f: Fn, a: float, b: float, tol: float, max_n: int = DEFAULT_MAX_N,
              singular_end: Optional[str] = None) -> IntegrationResult:
    """Integral of f over [a, b] by Riemann sums on the tanh-sinh s-line.

    With m the midpoint and h the half-width of [a, b], t = m +- h tanh((pi/2)
    sinh s) makes the integral one of f(t(s)) t'(s), which decays double-
    exponentially at both ends of the s-line for a smooth f.  Each level of
    _refine is riemann_sum over a midpoint uniform_partition of [-S, S], S =
    asinh((2/pi) ln 2^46), and the first three are sampled in one call of f;
    nodes and weights are built once per level and s-interval by the tower's
    exp.  A node's distance to its end is computed directly, and a node that
    would round onto an end moves to the nearest double inside.  Refinement
    also stops before the central nodes, the farthest apart, come within an
    ulp.  The error term is the mass of |f| beyond the innermost nodes
    (_end_mass).  The integral over [a, a] is 0, reversed endpoints negate
    it, and an interval at most 8 ulps wide is one Riemann sum of one cell.

    singular_end, "lower" or "upper", names an end c where f may be unbounded
    (a <= b).  Nodes nearer c than u0 take the value of the power law that
    _end_model fits, the samples are read back to second order at the
    distance from c that their node stands for, and the model's drift
    replaces _end_mass.  That end of the s-interval moves out until e^-55 of
    the model's mass is left.  evaluations counts the 3 probes and f's samples.
    """
    if not tol > 0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tol}")
    if max_n < 1:
        raise InvalidArgumentError(f"max_n must be positive, got {max_n}")
    if singular_end not in (None, "lower", "upper"):
        raise InvalidArgumentError(f"singular_end must be 'lower' or 'upper', got {singular_end!r}")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, 0, True, ())
    if a > b and not singular_end:
        r = integrate(f, b, a, tol, max_n)
        return IntegrationResult(-r.value, r.error_estimate, r.n_final, r.evaluations,
                                 r.converged, tuple((n, -v) for n, v in r.trace))
    interval = Interval(a, b)  # finite, and a <= b with a singular end
    if not (math.isfinite(b - a) and math.isfinite(a + b)):
        raise InvalidArgumentError(f"[{a}, {b}] is too wide: its cell widths or midpoints overflow")
    h, (ln2, s_max) = 0.5 * (b - a), _constants()
    side, s_line = 0, (-s_max, s_max)
    if singular_end:
        side, c = (1, a) if singular_end == "lower" else (-1, b)
        u0, f0, p, drift = _end_model(f, a, b, c, side)
        ell = _log((b - a) / u0)
        s_end = max(s_max, _asinh((ell + 55.0 / (1.0 - p)) / math.pi))
        s_line = (-s_end, s_max) if side > 0 else (-s_max, s_end)
    # Below the resolution of the grid itself there is nothing to refine.
    if a + (b - a) / 8.0 <= a:
        v = riemann_sum(f, uniform_partition(interval, 1))
        return IntegrationResult(v, abs(v), 1, 1, True, ((1, v),))

    lo, hi = math.nextafter(a, b), math.nextafter(b, a)

    def level(n: int) -> _Level:
        part, k, dist, weight, ds, q = (_nodes.__wrapped__ if n > _TABLE_MAX else _nodes)(
            n, *s_line)
        t = h * dist
        # f is sampled at t[i0:i1]; the model takes the nodes within u0 of c.
        i0 = int(np.count_nonzero(t[:k] < u0)) if side > 0 else 0
        i1 = k + int(np.count_nonzero(t[k:] >= u0)) if side < 0 else n
        t[:k] += a
        t[k:] = b - t[k:]
        np.minimum(np.maximum(t, lo, out=t), hi, out=t)  # never onto a or b
        if side:
            t, weight = t[i0:i1], weight[i0:i1]
            # The model's nodes, and the sampled ones on c's half of the s-line.
            m, near = (slice(0, i0), slice(0, k - i0)) if side > 0 else (slice(i1, n), slice(k, i1))
            d = h * dist[i0:i1][near]
            # f0 u0 (d/u0)^(1-p) |t'(s)|/d in log space, where d may underflow to 0.
            e = dist[m] / (2.0 - dist[m])
            model = (f0 * u0 * math.pi * exp_array((1.0 - p) * (ell - q[m] - e), _EPS)
                     * np.sqrt(1.0 + (q[m] / math.pi) ** 2) / (1.0 + e))

        def total(y: np.ndarray) -> tuple[float, float]:
            with np.errstate(over="ignore"):
                g = y * (h * weight)  # the s-line integrand at the sampled tags
                big = ~np.isfinite(g * ds)
            if big.any():  # raised here, where the t of the term is known
                raise EvaluationError(float(t[big.argmax()]), "integrand term overflows")
            ends = math.inf  # below 4 cells, a singular end's model may take every node
            if t.size:
                i = min(t.searchsorted(t[0], "right"), t.size - 1)
                j = max(t.searchsorted(t[-1]) - 1, 0)
                ends = ((drift if side > 0 else _end_mass(t, y, 0, i, a, ln2))
                        + (drift if side < 0 else _end_mass(t, y, -1, j, b, ln2)))
            if side:
                # t rounds away from c +- d; read f back at the distance d.
                r = np.abs(t[near] - c) / d - 1.0
                g[near] *= 1.0 + p * r * (1.0 + 0.5 * (p - 1.0) * r)
                g = np.concatenate([model, g] if side > 0 else [g, model])
            return riemann_sum(ArrayFn(lambda s: g), part), ends
        return t, total

    return _refine(level, lambda t: _sample(f, t), tol,
                   min(max_n, h * math.pi * s_max / math.ulp(max(-a, b))), 3 if side else 0)


def integrate_improper(f: Fn, a: float, b: float, singular_end: str, tol: float,
                       max_n: int = DEFAULT_MAX_N) -> IntegrationResult:
    """integrate() with its singular end, "lower" or "upper", named."""
    return integrate(f, a, b, tol, max_n, singular_end)


def cumulative(f: Fn, a: float, grid: Sequence[float], tol: float,
               max_n: int = DEFAULT_MAX_N) -> list[float]:
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
    cell_tol, values, total, left = tol / max(1, len(pts)), [], 0.0, a
    for x in pts:
        total += integrate(f, left, x, cell_tol, max_n).value
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


def convergence_report(f: Fn, a: float, b: float, rule: TagRule, n_list: Sequence[int],
                       exact: float | None = None) -> ConvergenceReport:
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

    rows = tuple((n, v, abs(v - exact) if exact is not None else abs(v - u) if i else None)
                 for i, (n, v, u) in enumerate(zip(ns, values, [math.nan] + values)))
    usable = [(n, d) for n, _, d in rows if d is not None]
    tail = [math.inf if d2 == 0.0 else -math.inf if d1 == 0.0
            else math.log(d1 / d2) / math.log(n2 / n1)
            for (n1, d1), (n2, d2) in zip(usable, usable[1:])][-3:]
    if not tail or math.inf in tail:
        return ConvergenceReport(rows, math.inf)
    return ConvergenceReport(rows, -math.inf if -math.inf in tail else sum(tail) / len(tail))
