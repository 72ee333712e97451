import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfcalc.errors import EvaluationError, InvalidArgumentError
from rfcalc.partitions import (
    LEFT,
    MIDPOINT,
    RIGHT,
    Interval,
    TaggedPartition,
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
