"""Tagged partitions and Riemann sums.

A tagged partition of [a, b] is a strictly increasing list of points
t_0 < t_1 < ... < t_n together with one tag per cell, t_k <= xi_k <= t_{k+1}.
The Riemann sum of f over such a partition is

    S(f, P) = sum_k f(xi_k) * (t_{k+1} - t_k)

evaluated left to right with compensated summation, so the result is the
correctly rounded value of the exact sum of the computed terms.  The
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
        pts.flags.writeable = False
        tgs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tags", tgs)

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


def uniform_partition(interval: Interval, n: int, rule: TagRule = MIDPOINT) -> TaggedPartition:
    """Equal-width partition with points t_k = a + k*(b-a)/n, except that
    t_0 and t_n are exactly a and b.

    Requires a < b and n >= 1.  Tags come from the rule; a custom rule is
    validated cell by cell at construction time.
    """
    if n < 1:
        raise InvalidArgumentError(f"need n >= 1, got {n}")
    if not interval.a < interval.b:
        raise InvalidArgumentError("uniform partition needs a < b")
    h = (interval.b - interval.a) / n
    points = interval.a + np.arange(n + 1, dtype=float) * h
    points[[0, -1]] = interval.a, interval.b
    return TaggedPartition(points, rule.place(points))


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
    """The definitional sum of f over the partition, compensated.

    Terms f(xi_k) * width_k accumulate through math.fsum, so the only
    rounding is in the terms themselves.  A callable is sampled tag by tag
    and an ArrayFn in one call.  An EvaluationError from the integrand
    passes through; any other failure (ValueError, OverflowError,
    ZeroDivisionError or a non-finite sample) raises EvaluationError naming
    the first tag that produced one.
    """
    tags = partition.tags
    samples = f.fn(tags) if isinstance(f, ArrayFn) else _scalar_samples(f, tags)
    bad = ~np.isfinite(samples)
    if bad.any():
        raise EvaluationError(float(tags[bad.argmax()]), "integrand sample is not finite")
    terms = (samples * np.diff(partition.points)).tolist()
    try:
        return math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or the sum overflows
        return math.nan


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
