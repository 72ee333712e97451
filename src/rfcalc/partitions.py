"""Tagged partitions and Riemann sums.

A tagged partition of [a, b] is a strictly increasing list of points
t_0 < t_1 < ... < t_n together with one tag per cell, t_k <= xi_k <= t_{k+1}.
The Riemann sum of f over such a partition is

    S(f, P) = sum_k f(xi_k) * (t_{k+1} - t_k)

reduced exactly to math.fsum's bits, the correctly rounded value of the exact
sum of the computed terms; long sums by array operations on blocks.  The
integrator, and through it the theorem checks and the CLI, reduce to this
one primitive; the constructed log (elementary) and the telescoping
evaluators (direct_eval) write their sums by hand and never call it.  An
integrand is either a Python callable, sampled once per tag, or an ArrayFn,
which takes all the tags of a sum in one call over a float64 array; the
summation is the same for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, InvalidArgumentError

Fn = Callable[[float], float]

# _exact_sum's fsum crossover (scripts/riemann_sum_bench.py), row length and pass cap.
_CROSSOVER, _BLOCK, _PASSES = 1024, 4096, 4


class ArrayFn:
    """An integrand that maps a float64 array of tags to its samples in one
    call, raising EvaluationError for the first tag it cannot evaluate.
    Called on a single float, it returns that one sample."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn = fn

    def __call__(self, x: float) -> float:
        return float(self.fn(np.array([x], dtype=float))[0])


@dataclass(frozen=True)
class Interval:
    """A closed interval [a, b] with a <= b."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidArgumentError("interval endpoints must be finite")
        if self.a > self.b:
            raise InvalidArgumentError(f"interval requires a <= b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class TagRule:
    """How to place the tag inside each cell: place maps the partition
    points to one tag per cell.

    The three standard placements are module constants LEFT, RIGHT and
    MIDPOINT; custom_rule wraps an arbitrary per-cell tag function.
    """

    name: str
    place: Callable[[np.ndarray], np.ndarray]


LEFT = TagRule("left", lambda p: p[:-1])
RIGHT = TagRule("right", lambda p: p[1:])
MIDPOINT = TagRule("midpoint", lambda p: 0.5 * (p[:-1] + p[1:]))


def custom_rule(fn: Callable[[float, float], float]) -> TagRule:
    """A rule whose tag for cell [lo, hi] is fn(lo, hi); validated eagerly."""
    return TagRule("custom", lambda p: np.fromiter(
        (fn(lo, hi) for lo, hi in zip(p[:-1], p[1:])), dtype=float, count=p.size - 1
    ))


class TaggedPartition:
    """Immutable partition points plus one tag per cell.

    Construction validates everything: points strictly increasing, exactly
    one tag per cell, every tag inside its cell.  The arrays are frozen so a
    partition cannot drift after it has been checked.
    """

    __slots__ = ("points", "tags")

    def __init__(self, points, tags):
        pts = np.asarray(points, dtype=float)
        tgs = np.asarray(tags, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise InvalidArgumentError("need at least two partition points")
        if tgs.ndim != 1 or tgs.size != pts.size - 1:
            raise InvalidArgumentError(
                f"need exactly one tag per cell: {pts.size - 1} cells, {tgs.size} tags"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tgs))):
            raise InvalidArgumentError("points and tags must be finite")
        if not np.all(pts[1:] > pts[:-1]):
            raise InvalidArgumentError("partition points must be strictly increasing")
        if not (np.all(tgs >= pts[:-1]) and np.all(tgs <= pts[1:])):
            bad = int(np.argmax((tgs < pts[:-1]) | (tgs > pts[1:])))
            raise InvalidArgumentError(
                f"tag {tgs[bad]!r} outside its cell [{pts[bad]!r}, {pts[bad + 1]!r}]"
            )
        _freeze(self, pts, tgs)

    def __setattr__(self, name, value):
        raise AttributeError("TaggedPartition is immutable")

    @property
    def n(self) -> int:
        return self.points.size - 1

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def __repr__(self) -> str:
        return f"TaggedPartition(n={self.n}, [{self.a}, {self.b}])"


def _freeze(part: TaggedPartition, points: np.ndarray, tags: np.ndarray) -> TaggedPartition:
    points.flags.writeable = False
    tags.flags.writeable = False
    object.__setattr__(part, "points", points)
    object.__setattr__(part, "tags", tags)
    return part


def uniform_partition(interval: Interval, n: int, rule: TagRule = MIDPOINT) -> TaggedPartition:
    """Equal-width partition with points t_k = a + k*(b-a)/n, except that
    t_0 and t_n are exactly a and b.

    Requires a < b, n >= 1, and b - a and (under MIDPOINT) the sums of
    neighbouring points finite.  Tags come from the rule; a custom rule is
    validated cell by cell at construction time.  LEFT, RIGHT and MIDPOINT
    skip validation for cells wider than 8 ulps of max(|a|, |b|): each point
    is within 3 such ulps of a + k*h, so none collide.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    a, b = interval.a, interval.b
    if not a < b:
        raise InvalidArgumentError("uniform partition needs a < b")
    h = (b - a) / n
    # The points are increasing, so the end cells hold the largest midpoint sums.
    if not math.isfinite(h) or rule == MIDPOINT and not (
            math.isfinite(a + (a + h if n > 1 else b)) and math.isfinite(a + (n - 1) * h + b)):
        raise InvalidArgumentError(f"[{a}, {b}] is too wide: its cell widths or midpoints overflow")
    points = a + np.arange(n + 1, dtype=float) * h
    points[[0, -1]] = a, b
    tags = rule.place(points)
    if rule in (LEFT, RIGHT, MIDPOINT) and h > 8.0 * math.ulp(max(abs(a), abs(b))):
        return _freeze(object.__new__(TaggedPartition), points, tags)
    return TaggedPartition(points, tags)


def geometric_partition(p: float, q: float, n: int, rule: TagRule = MIDPOINT) -> TaggedPartition:
    """Partition of [p, q] whose points p*(q/p)^(k/n) share a constant ratio;
    the end points are exactly p and q.

    Requires 0 < p < q.  Cell widths grow geometrically, which is what makes
    the power-function sums telescoping-friendly.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    if not (0.0 < p < q):
        raise InvalidArgumentError(f"need 0 < p < q, got p={p}, q={q}")
    ratio = q / p
    points = p * np.power(ratio, np.arange(n + 1, dtype=float) / n)
    points[[0, -1]] = p, q
    return TaggedPartition(points, rule.place(points))


def mesh(partition: TaggedPartition) -> float:
    """Largest cell width; the quantity driven to zero in every limit here."""
    return float(np.max(np.diff(partition.points)))


def riemann_sum(f: Fn, partition: TaggedPartition) -> float:
    """The definitional sum of f over the partition, reduced exactly.

    The terms f(xi_k) * width_k are summed by _exact_sum, which returns
    math.fsum's bits, so the only rounding is in the terms themselves and in
    the one final rounding of their exact sum.  A callable is sampled tag by tag
    and an ArrayFn in one call.  An EvaluationError from the integrand
    passes through; any other failure (ValueError, OverflowError,
    ZeroDivisionError, a non-finite sample, or a term f(xi_k) * width_k
    that overflows) raises EvaluationError naming the first tag that
    produced one.  A sum of finite terms that overflows is nan.
    """
    tags = partition.tags
    samples = f.fn(tags) if isinstance(f, ArrayFn) else _scalar_samples(f, tags)
    with np.errstate(over="ignore"):
        terms = samples * np.diff(partition.points)
    finite = np.isfinite(terms)
    if not finite.all():
        sampled = np.isfinite(samples)
        if sampled.all():
            raise EvaluationError(float(tags[finite.argmin()]), "integrand term overflows")
        raise EvaluationError(float(tags[sampled.argmin()]), "integrand sample is not finite")
    try:
        return _exact_sum(terms)
    except OverflowError:
        return math.nan


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), bit for bit, for a 1-d float64 array.

    From _CROSSOVER terms on, the zero-padded terms form rows of _BLOCK or
    fewer, split pass by pass by error-free extraction (Rump, Ogita & Oishi
    2008): for sigma a power of two above 2 * _BLOCK * max|row|, the
    q = (sigma + x) - sigma of a row sum exactly and r = x - q is exact, at
    most 2^-39 * max|row|.  fsum gets the row sums, and the remainders once
    fewer than _CROSSOVER are nonzero or after _PASSES passes: their exact
    sum, and so its rounding, is that of x.  Short arrays, zeros (whose sign
    fsum sets), non-finite terms and sums that could overflow take fsum.
    """
    if x.size < _CROSSOVER:
        return math.fsum(x.tolist())
    width = min(_BLOCK, x.size)
    pad = -x.size % width
    rows = (np.concatenate((x, np.zeros(pad))) if pad else x).reshape(-1, width)
    top = np.maximum(rows.max(1), -rows.min(1))
    if not 0.0 < float(top.max()) * x.size < 2.0 ** 1000:  # nan fails too
        return math.fsum(x.tolist())
    parts: list[float] = []
    for _ in range(_PASSES):
        sigma = np.ldexp(1.0, np.frexp(top)[1] + _BLOCK.bit_length())[:, None]
        q = rows + sigma
        q -= sigma
        parts += q.sum(1).tolist()
        rows = np.subtract(rows, q, out=q)
        left = np.count_nonzero(rows)
        if left < _CROSSOVER:
            break
        top = np.maximum(rows.max(1), -rows.min(1))
    return math.fsum(parts + rows[rows != 0.0].tolist() if left else parts)


def _scalar_samples(f: Fn, tags: np.ndarray) -> np.ndarray:
    xs = tags.tolist()
    try:
        return np.fromiter(map(f, xs), dtype=float, count=len(xs))
    except (ValueError, OverflowError, ZeroDivisionError):
        pass
    # rescan to attribute the failure to a specific tag
    samples = []
    for x in xs:
        try:
            y = f(x)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvaluationError(x, str(exc) or "integrand raised") from exc
        if not math.isfinite(y):
            raise EvaluationError(x, "integrand sample is not finite")
        samples.append(y)
    return np.array(samples, dtype=float)
