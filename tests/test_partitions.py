import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcalc import partitions
from rfcalc.errors import EvaluationError, InvalidArgumentError
from rfcalc.partitions import (
    LEFT,
    MIDPOINT,
    RIGHT,
    ArrayFn,
    Interval,
    TaggedPartition,
    _exact_sum,
    custom_rule,
    geometric_partition,
    mesh,
    riemann_sum,
    uniform_partition,
)


def test_interval_width():
    assert Interval(1.0, 3.5).width == 2.5


def test_interval_rejects_reversed_and_nonfinite():
    with pytest.raises(InvalidArgumentError):
        Interval(2.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        Interval(0.0, math.inf)
    with pytest.raises(InvalidArgumentError):
        Interval(math.nan, 1.0)


def test_uniform_points_and_mesh():
    p = uniform_partition(Interval(0.0, 1.0), 4)
    assert p.n == 4
    assert p.a == 0.0 and p.b == 1.0
    np.testing.assert_allclose(p.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert mesh(p) == 0.25


@pytest.mark.parametrize(
    "rule,expected",
    [
        (LEFT, [0.0, 0.25, 0.5, 0.75]),
        (RIGHT, [0.25, 0.5, 0.75, 1.0]),
        (MIDPOINT, [0.125, 0.375, 0.625, 0.875]),
    ],
)
def test_tag_rules(rule, expected):
    p = uniform_partition(Interval(0.0, 1.0), 4, rule)
    np.testing.assert_allclose(p.tags, expected)


def test_custom_rule_tags():
    # tag each cell a quarter of the way in
    r = custom_rule(lambda lo, hi: lo + 0.25 * (hi - lo))
    p = uniform_partition(Interval(0.0, 1.0), 2, r)
    np.testing.assert_allclose(p.tags, [0.125, 0.625])


def test_custom_rule_out_of_cell_rejected():
    bad = custom_rule(lambda lo, hi: hi + 1.0)
    with pytest.raises(InvalidArgumentError, match="outside its cell"):
        uniform_partition(Interval(0.0, 1.0), 2, bad)


def test_geometric_partition_constant_ratio():
    p = geometric_partition(1.0, 16.0, 4)
    ratios = p.points[1:] / p.points[:-1]
    np.testing.assert_allclose(ratios, 2.0, rtol=1e-14)
    assert p.a == 1.0
    assert p.b == pytest.approx(16.0, rel=1e-15)


def test_partitions_end_exactly_at_the_interval_ends():
    # a + n*((b-a)/n) and p*(q/p) can land an ulp away from b and q
    assert geometric_partition(0.3, 0.7, 4).b == 0.7
    u = uniform_partition(Interval(-2.8443032558901953, 1.151025380351475), 4496)
    assert u.b == 1.151025380351475
    rng = random.Random(2024)
    for _ in range(500):
        a, b = sorted(rng.uniform(-4.0, 4.0) for _ in range(2))
        p, q = sorted(rng.uniform(0.01, 4.0) for _ in range(2))
        n = rng.randrange(1, 5000)
        u, g = uniform_partition(Interval(a, b), n), geometric_partition(p, q, n)
        assert (u.a, u.b, g.a, g.b) == (a, b, p, q), (a, b, p, q, n)


def test_geometric_partition_needs_positive_endpoints():
    with pytest.raises(InvalidArgumentError):
        geometric_partition(0.0, 1.0, 4)
    with pytest.raises(InvalidArgumentError):
        geometric_partition(2.0, 1.0, 4)


def test_partition_validation():
    with pytest.raises(InvalidArgumentError, match="at least two"):
        TaggedPartition([0.0], [])
    with pytest.raises(InvalidArgumentError, match="one tag per cell"):
        TaggedPartition([0.0, 1.0], [0.2, 0.8])
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        TaggedPartition([0.0, 1.0, 1.0], [0.5, 1.0])
    with pytest.raises(InvalidArgumentError, match="outside its cell"):
        TaggedPartition([0.0, 1.0], [1.5])
    with pytest.raises(InvalidArgumentError, match="finite"):
        TaggedPartition([0.0, math.inf], [0.5])


def test_partition_is_immutable():
    p = uniform_partition(Interval(0.0, 1.0), 4)
    with pytest.raises(AttributeError):
        p.points = np.zeros(5)
    with pytest.raises(ValueError):
        p.points[0] = -1.0


def test_uniform_rejects_degenerate():
    with pytest.raises(InvalidArgumentError):
        uniform_partition(Interval(1.0, 1.0), 4)
    with pytest.raises(InvalidArgumentError):
        uniform_partition(Interval(0.0, 1.0), 0)


def test_riemann_sum_constant_integrand():
    p = uniform_partition(Interval(-2.0, 3.0), 7)
    # fsum makes the width sum correctly rounded, so c*(b-a) holds tightly
    assert riemann_sum(lambda t: 3.0, p) == pytest.approx(15.0, rel=1e-15)


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-5.0, max_value=5.0),
    st.integers(min_value=1, max_value=200),
)
def test_midpoint_exact_for_linear(slope, intercept, n):
    # the midpoint value of a linear function equals its cell average,
    # so the Riemann sum reproduces the integral up to rounding
    p = uniform_partition(Interval(-1.0, 2.0), n, MIDPOINT)
    got = riemann_sum(lambda t: slope * t + intercept, p)
    exact = slope * (4.0 - 1.0) / 2.0 + intercept * 3.0
    assert got == pytest.approx(exact, abs=1e-10)


@given(st.integers(min_value=1, max_value=300))
def test_left_right_bracket_monotone_integrand(n):
    # increasing integrand: left sum <= right sum, midpoint in between
    interval = Interval(0.0, 2.0)
    f = math.exp
    left = riemann_sum(f, uniform_partition(interval, n, LEFT))
    right = riemann_sum(f, uniform_partition(interval, n, RIGHT))
    midv = riemann_sum(f, uniform_partition(interval, n, MIDPOINT))
    assert left <= midv <= right


def test_riemann_sum_reports_bad_point():
    p = uniform_partition(Interval(0.0, 1.0), 4, LEFT)
    with pytest.raises(EvaluationError) as err:
        riemann_sum(lambda t: 1.0 / t, p)  # left tag hits t=0
    assert err.value.point == 0.0


def test_mesh_of_geometric_is_last_cell():
    p = geometric_partition(1.0, 8.0, 6)
    widths = np.diff(p.points)
    assert mesh(p) == widths[-1]
    assert np.all(widths[1:] > widths[:-1])


# Sizes on both sides of the fsum crossover (1024) and of the block length (4096).
_SIZES = [1, 2, 1023, 1024, 1025, 2047, 4095, 4096, 4097, 8191, 8192, 8193, 12289]


def _terms(kind, size, rng):
    if kind == "normal":
        return rng.standard_normal(size)
    if kind == "wide":  # 1e-300 .. 1e+300 side by side
        return rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size)
    if kind == "subnormal":
        return rng.integers(-2 ** 52, 2 ** 52, size) * 5e-324
    if kind == "zeros":  # signed zeros, and at most a few tiny nonzero terms
        x = np.where(rng.random(size) < 0.5, -0.0, 0.0)
        x[rng.integers(0, size, rng.integers(0, 3))] = rng.standard_normal() * 1e-310
        return x
    if kind == "cancel":  # every term but one sits beside its negation
        half = rng.standard_normal(size // 2) * 10.0 ** rng.integers(-30, 31, size // 2)
        x = np.concatenate((half, -half, rng.standard_normal(size % 2) * 1e-300))
        rng.shuffle(x)
        return x
    # mixed: each term from one of the kinds above
    pick = rng.integers(0, 5, size)
    kinds = ("normal", "wide", "subnormal", "zeros", "cancel")
    return np.choose(pick, [_terms(k, size, rng) for k in kinds])


@given(
    size=st.sampled_from(_SIZES) | st.integers(min_value=1, max_value=9000),
    kind=st.sampled_from(["normal", "wide", "subnormal", "zeros", "cancel", "mixed"]),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_exact_sum_has_fsums_bits(size, kind, seed):
    x = _terms(kind, size, np.random.default_rng(seed))
    assert _exact_sum(x).hex() == math.fsum(x.tolist()).hex()


@pytest.mark.parametrize("size", [5, 1024, 5000])
@pytest.mark.parametrize("value", [-0.0, 0.0])
def test_exact_sum_of_zeros_has_fsums_sign(size, value):
    x = np.full(size, value)
    assert _exact_sum(x).hex() == math.fsum(x.tolist()).hex()


@pytest.mark.parametrize("size", [5, 1024, 5000])
@pytest.mark.parametrize(
    "fill, exc", [((math.inf, -math.inf), ValueError), ((1e308, 1e308), OverflowError)],
    ids=["inf-inf", "overflow"],
)
def test_exact_sum_raises_what_fsum_raises(size, fill, exc):
    x = np.resize(np.array(fill), size)
    with pytest.raises(exc):
        math.fsum(x.tolist())
    with pytest.raises(exc):
        _exact_sum(x)


@pytest.mark.parametrize("n", [4, 4096])
@pytest.mark.parametrize("sample", [1e308, -1e308], ids=["overflow", "negative-overflow"])
def test_riemann_sum_is_nan_when_the_terms_cannot_be_summed(n, sample):
    # Finite terms whose sum overflows.
    f = ArrayFn(lambda t: np.full(n, sample))
    assert math.isnan(riemann_sum(f, uniform_partition(Interval(0.0, n), n, LEFT)))


@pytest.mark.parametrize("n", [4, 4096])
def test_riemann_sum_raises_where_a_term_overflows(n):
    # Finite samples whose terms on cells of width 2 are +-inf; the sum used
    # to be nan, after numpy's overflow warning.
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    part = uniform_partition(Interval(0.0, 2.0 * n), n, LEFT)
    for samples, where in ((1e308 * signs, 0.0), (np.where(part.tags < 5.0, 1.0, 1e308), 6.0)):
        with pytest.raises(EvaluationError, match="term overflows") as err:
            riemann_sum(ArrayFn(lambda t: samples), part)
        assert err.value.point == where
    # A non-finite sample is named before an earlier overflowing term.
    with pytest.raises(EvaluationError, match="sample is not finite") as err:
        riemann_sum(ArrayFn(lambda t: np.where(part.tags < 5.0, 1e308, math.nan)), part)
    assert err.value.point == 6.0


def _validated_uniform(interval, n, rule):
    """uniform_partition as it was before it trusted its own construction."""
    h = (interval.b - interval.a) / n
    points = interval.a + np.arange(n + 1, dtype=float) * h
    points[[0, -1]] = interval.a, interval.b
    return TaggedPartition(points, rule.place(points))


@given(
    a=st.floats(min_value=-1e300, max_value=1e300),
    ulps=st.integers(min_value=1, max_value=2 ** 16) | st.floats(min_value=1.0, max_value=1e30),
    n=st.integers(min_value=1, max_value=3000),
    rule=st.sampled_from([LEFT, RIGHT, MIDPOINT]),
)
def test_trusted_uniform_partition_equals_the_validated_one(a, ulps, n, rule):
    # Widths from one ulp of a up: narrow ones collide and must raise as before.
    b = a + ulps * math.ulp(a)
    if not (a < b and math.isfinite(b)):
        return
    try:
        want = _validated_uniform(Interval(a, b), n, rule)
    except InvalidArgumentError as err:
        with pytest.raises(InvalidArgumentError, match="strictly increasing"):
            uniform_partition(Interval(a, b), n, rule)
        assert "strictly increasing" in str(err)
        return
    got = uniform_partition(Interval(a, b), n, rule)
    for mine, theirs in ((got.points, want.points), (got.tags, want.tags)):
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable
    with pytest.raises(ValueError):
        got.tags[0] = 0.0


@pytest.mark.parametrize(
    "a, b", [(1e308, 1.7e308), (-1.7e308, -1e308), (-1e308, 1e308)]
)
def test_uniform_rejects_an_interval_whose_midpoints_overflow(a, b):
    with pytest.raises(InvalidArgumentError, match=r"too wide"):
        uniform_partition(Interval(a, b), 8, MIDPOINT)


def test_uniform_overflow_check_matches_the_midpoints():
    # One cell of [0, 1.7e308] has the finite midpoint 8.5e307; eight do not.
    assert uniform_partition(Interval(0.0, 1.7e308), 1, MIDPOINT).tags[0] == 8.5e307
    with pytest.raises(InvalidArgumentError, match="too wide"):
        uniform_partition(Interval(0.0, 1.7e308), 8, MIDPOINT)
    assert uniform_partition(Interval(1e308, 1.7e308), 8, LEFT).tags[-1] < 1.7e308


class _CountingMath:
    """Stands in for partitions' math module, counting what fsum is handed."""

    def __init__(self):
        self.handed = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, xs):
        xs = list(xs)
        self.handed += len(xs)
        return math.fsum(xs)


@pytest.mark.parametrize(
    "fn",
    [np.exp, lambda t: t * t * np.sin(3.0 * t), lambda t: 1.0 / (t + 1e-3) ** 2],
    ids=["exp", "t2-sin", "near-pole"],
)
def test_long_riemann_sum_boxes_under_one_percent_of_its_terms(monkeypatch, fn):
    n = 2 ** 17
    p = uniform_partition(Interval(0.0, 1.0), n)
    want = math.fsum((fn(p.tags) * np.diff(p.points)).tolist())
    counting = _CountingMath()
    monkeypatch.setattr(partitions, "math", counting)
    assert riemann_sum(ArrayFn(fn), p) == want
    assert 0 < counting.handed <= n // 100


def test_uniform_partition_skips_validation(monkeypatch):
    calls = []
    init = TaggedPartition.__init__

    def counting(self, points, tags):
        calls.append(len(points))
        init(self, points, tags)

    monkeypatch.setattr(TaggedPartition, "__init__", counting)
    for rule in (LEFT, RIGHT, MIDPOINT):
        uniform_partition(Interval(0.0, 1.0), 2 ** 17, rule)
    assert calls == []
    uniform_partition(Interval(0.0, 1.0), 4, custom_rule(lambda lo, hi: lo))
    geometric_partition(1.0, 2.0, 4)
    assert calls == [5, 5]
