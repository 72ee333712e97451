import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from rfcalc.cli import main
from rfcalc.errors import DivergenceError, EvaluationError, InvalidArgumentError
from rfcalc.expr import compile, parse, random_expr
from rfcalc.integrator import (
    DEFAULT_MAX_N,
    ConvergenceReport,
    _nodes,
    convergence_report,
    cumulative,
    integrate,
    integrate_improper,
)
from rfcalc.partitions import (
    LEFT, MIDPOINT, RIGHT, ArrayFn, Interval, riemann_sum, uniform_partition,
)


def test_integrate_cubic():
    # exact: t^3 over [0, 2] integrates to 4
    r = integrate(lambda t: t * t * t, 0.0, 2.0, 1e-9)
    assert r.converged
    assert r.value == pytest.approx(4.0, abs=1e-8)
    assert r.error_estimate <= 1e-9


def test_trace_doubles_and_counts_evaluations():
    r = integrate(math.cos, 0.0, 1.0, 1e-10)
    ns = [n for n, _ in r.trace]
    assert ns[0] == 32  # n0 under the default cap
    assert all(b == 2 * a for a, b in zip(ns, ns[1:]))
    assert r.evaluations == sum(ns)
    assert r.n_final == ns[-1]


def test_empty_and_reversed_interval():
    assert integrate(math.sin, 1.0, 1.0, 1e-8).value == 0.0
    fwd = integrate(math.sin, 0.0, 1.0, 1e-10)
    rev = integrate(math.sin, 1.0, 0.0, 1e-10)
    assert rev.value == -fwd.value
    assert rev.converged


def test_cap_reached_is_an_answer_not_an_error():
    r = integrate(lambda t: t * t, 0.0, 1.0, 1e-15, max_n=64)
    assert not r.converged
    assert r.n_final == 64
    assert math.isfinite(r.value)


def test_cells_below_an_ulp_stop_refinement_without_crashing():
    # Width 2^-45 next to 1, where doubles are 2^-53 apart: at 2^11 s-line
    # cells the central nodes, the farthest apart, would be within an ulp of
    # each other.  The bump vanishes to all orders at both ends, so no end
    # mass enters the estimate, and tol lies below the rounding of the sums.
    a, b = 1 - 2 ** -44, 1 - 2 ** -45
    r = integrate(lambda t: math.exp((b - a) ** 2 / ((t - a) * (t - b))), a, b, 1e-30)
    assert not r.converged
    assert r.n_final == 2 ** 10
    assert r.trace[-1] == (r.n_final, r.value)
    assert r.evaluations == sum(n for n, _ in r.trace)
    assert r.error_estimate == abs(r.trace[-1][1] - r.trace[-2][1])


@pytest.mark.parametrize(
    "src, exact, tol",
    [
        ("cos(128*pi*t)", 0.0, 1e-8),
        ("sin(64*pi*t)^2", 0.5, 1e-8),
        ("abs(sin(64*pi*t))", 2.0 / math.pi, 1e-4),
        ("abs(t-0.3)", 0.29, 1e-8),
    ],
)
def test_converged_is_within_tol(src, exact, tol):
    # Uniform midpoint sums alias these at n = 8 and 16 and agree there:
    # the first three were reported converged with 1.0, 6.0e-29 and 5.6e-15,
    # and abs(t-0.3) converged at n = 32 while 1.6e-4 off.
    r = integrate(compile(parse(src)), 0.0, 1.0, tol)
    assert not r.converged or abs(r.value - exact) <= tol


def test_no_node_rounds_onto_an_end():
    seen = []

    def f(t):
        seen.append(t)
        return 1.0 / math.sqrt(1.0 - t * t)

    for tol in (1e-6, 1e-8, 1e-10):
        r = integrate(f, 0.0, 1.0, tol)
        assert 0.0 < min(seen) and max(seen) < 1.0
        assert not r.converged or abs(r.value - math.pi / 2.0) <= tol


@pytest.mark.parametrize("p", [0.5, 0.9])
def test_the_estimate_holds_the_mass_next_to_an_end(p):
    # Doubles next to 1 are 2^-53 apart, so the mass of (1-t)^-p in the last
    # 2^-53 before 1 (1.0e-8 for p = 1/2) lies beyond every sum.
    for tol in (1e-4, 1e-8):
        r = integrate(lambda t: (1.0 - t) ** -p, 0.0, 1.0, tol)
        assert r.error_estimate >= abs(r.value - 1.0 / (1.0 - p))


def test_a_non_integrable_end_is_not_converged():
    # The sums themselves settle on the truncated integral, about 940 short of
    # 1000.  The run goes on to its third level, n = 128, where the end term
    # of t^-0.999 is finite but still holds the missing mass.
    for f in (lambda t: t ** -0.999, lambda t: (1.0 - t) ** -0.999):
        r = integrate(f, 0.0, 1.0, 1e-8)
        assert not r.converged and r.n_final == 128
        assert r.error_estimate >= 1000.0 - r.value


def _level_tags(a, b, n, rule=MIDPOINT):
    """The t at which integrate samples its level of n cells on [a, b]."""
    _, k, dist, _, _ = _nodes(n, rule)
    t = 0.5 * (b - a) * dist
    t[:k] += a
    t[k:] = b - t[k:]
    return np.clip(t, math.nextafter(a, b), math.nextafter(b, a))


def _level_alone(f, a, b, n, rule):
    """Level n of integrate's ladder, sampled and summed on its own."""
    part, _, _, weight, _ = _nodes(n, rule)
    g = f.fn(_level_tags(a, b, n, rule)) * (0.5 * (b - a) * weight)
    return riemann_sum(ArrayFn(lambda s: g), part)


@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from([LEFT, MIDPOINT, RIGHT]))
def test_the_batched_levels_are_the_levels_alone(seed, rule):
    # The three first levels come from one call on 224 tags, through the
    # tower's kernels; alone, the 32-tag level goes tag by tag.
    f = compile(random_expr(random.Random(seed), max_depth=4))
    try:
        r = integrate(f, 0.1, 1.1, 1e-6, rule=rule, max_n=128)
        alone = [_level_alone(f, 0.1, 1.1, n, rule) for n in (32, 64, 128)]
    except (ArithmeticError, ValueError, EvaluationError):
        assume(False)
    assert [n for n, _ in r.trace[:3]] == [32, 64, 128]
    assert np.array_equal([v for _, v in r.trace[:3]], alone, equal_nan=True)


def test_a_fault_at_a_level_2_tag_is_the_one_level_by_level_sampling_meets():
    bad = float(_level_tags(0.0, 1.0, 64)[9])  # no tag of n = 32 or 128 lies there

    def scalar(t):
        if t == bad:
            raise ValueError("no sample here")
        return t

    array = compile(parse(f"log(abs(t - {bad!r}))"))
    with pytest.raises(EvaluationError) as alone:
        array.fn(_level_tags(0.0, 1.0, 64))
    for n in (32, 128):
        array.fn(_level_tags(0.0, 1.0, n))
    for f, want in ((scalar, f"no sample here at t={bad!r}"), (array, str(alone.value))):
        with pytest.raises(EvaluationError) as err:
            integrate(f, 0.0, 1.0, 1e-8)
        assert (err.value.point, str(err.value)) == (bad, want)


def test_a_level_1_term_overflow_comes_before_a_level_2_fault():
    # Level by level, the overflowing term at n = 32 stops the run before
    # the fault at n = 64 is sampled; the batched start must agree.
    big, bad = float(_level_tags(0.0, 100.0, 32)[16]), float(_level_tags(0.0, 100.0, 64)[9])

    def f(t):
        if t == bad:
            raise ValueError("no sample here")
        return 1e308 if t == big else 1.0

    with pytest.raises(EvaluationError) as err:
        integrate(f, 0.0, 100.0, 1e-8)
    assert (err.value.point, str(err.value)) == (big, f"integrand term overflows at t={big!r}")


@pytest.mark.parametrize("cap, sizes", [(16, [8, 16]), (31, [8, 16]), (32, [8 + 16 + 32]),
                                        (64, [16 + 32 + 64]), (128, [32 + 64 + 128])])
def test_the_cap_sets_the_start(cap, sizes):
    # Three levels from the largest of 8, 16 and 32 that fit in one call;
    # below a cap of 32, one level at a time from 8.  integrate_improper
    # first samples its three probes and then f only away from the end.
    f = ArrayFn(lambda t: seen.append(t.size) or 1.0 / np.sqrt(t))
    ns = [n for n in (8, 16, 32, 64, 128) if n <= cap][-3:]
    seen = []
    r = integrate(f, 0.0, 1.0, 1e-300, max_n=cap)
    assert seen == sizes
    assert [n for n, _ in r.trace] == ns and r.evaluations == sum(sizes)
    seen = []
    r = integrate_improper(f, 0.0, 1.0, "lower", 1e-300, max_n=cap)
    assert len(seen) == 1 + len(sizes)
    assert [n for n, _ in r.trace] == ns and r.evaluations == 3 + sum(sizes)


def test_every_failure_names_a_t_in_the_interval():
    for f, a, b in [(lambda t: 1e300, 0.0, 1e10), (lambda t: math.log(t - 0.5), 0.0, 1.0)]:
        with pytest.raises(EvaluationError) as err:
            integrate(f, a, b, 1e-8)
        assert a < err.value.point < b


def _midpoint_reference(f, a, b):
    """Richardson's limit of midpoint sums at 2^13 and 2^14 cells, and its
    change from 2^12 and 2^13 cells."""
    m = [riemann_sum(f, uniform_partition(Interval(a, b), 2 ** k, MIDPOINT)) for k in (12, 13, 14)]
    r1, r2 = (4.0 * m[1] - m[0]) / 3.0, (4.0 * m[2] - m[1]) / 3.0
    return r2, abs(r2 - r1)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_converged_random_trees_are_within_their_estimate(seed):
    # Only where the reference is itself resolved to tol/100.  1e-9 covers
    # the samples' own rounding: a phase constant near 2.4e5 inside cos
    # leaves them 3e-11 apart from the exact function (seed 270).
    tol = 1e-6
    f = compile(random_expr(random.Random(seed), max_depth=4))
    try:
        r = integrate(f, 0.1, 1.1, tol, max_n=2 ** 14)
        ref, spread = _midpoint_reference(f, 0.1, 1.1)
    except (ArithmeticError, ValueError, EvaluationError):
        assume(False)
    assume(r.converged and spread <= tol / 100.0)
    assert abs(r.value - ref) <= r.error_estimate + spread + 1e-9


@pytest.mark.parametrize(
    "f, a, b",
    [(lambda t: 1 / t, 0.0, 5e-324), (lambda t: math.inf, 1.0, 1.0 + 2 ** -52)],
    ids=["raises", "not-finite"],
)
def test_below_resolution_sample_is_checked(f, a, b):
    # an interval too narrow to refine is one Riemann sum, sampled like any other
    with pytest.raises(EvaluationError):
        integrate(f, a, b, 1e-3)


def test_below_resolution_honours_the_rule():
    b = 1.0 + 2 ** -52
    assert integrate(lambda t: t, 1.0, b, 1e-3, rule=RIGHT).value == b * 2 ** -52


def test_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        integrate(math.sin, 0.0, 1.0, 0.0)
    with pytest.raises(InvalidArgumentError):
        integrate(math.sin, 0.0, 1.0, 1e-8, max_n=0)
    with pytest.raises(InvalidArgumentError):
        convergence_report(math.sin, 0.0, 1.0, MIDPOINT, [])
    with pytest.raises(InvalidArgumentError):
        convergence_report(math.sin, 0.0, 1.0, MIDPOINT, [8, 8])
    with pytest.raises(InvalidArgumentError):
        cumulative(math.sin, 0.0, [1.0, 0.5], 1e-8)
    with pytest.raises(InvalidArgumentError):
        cumulative(math.sin, 0.0, [-1.0], 1e-8)


@given(st.floats(min_value=0.1, max_value=3.0))
def test_integrate_matches_sin_antiderivative(b):
    # oracle: d/dt(-cos t) = sin t, so the integral is 1 - cos b
    r = integrate(math.sin, 0.0, b, 1e-9)
    assert r.converged
    assert abs(r.value - (1.0 - math.cos(b))) < 1e-7


def test_cumulative_prefix_consistency():
    grid = [0.5, 1.0, 1.5, 2.0]
    vals = cumulative(math.exp, 0.0, grid, 1e-10)
    # each prefix matches a one-shot integral over the same range
    for x, v in zip(grid, vals):
        direct = integrate(math.exp, 0.0, x, 1e-10).value
        assert v == pytest.approx(direct, abs=1e-8)
    # and differences reproduce the cell integrals
    cell = integrate(math.exp, 0.5, 1.0, 1e-10).value
    assert vals[1] - vals[0] == pytest.approx(cell, abs=1e-8)


def test_cumulative_empty_grid():
    assert cumulative(math.sin, 0.0, [], 1e-8) == []


def test_cumulative_duplicate_grid_points():
    vals = cumulative(math.exp, 0.0, [1.0, 1.0], 1e-9)
    assert vals[0] == vals[1]


def test_convergence_order_midpoint_vs_left():
    ns = [16, 32, 64, 128, 256, 512]
    mid = convergence_report(math.cos, 0.0, 1.0, MIDPOINT, ns, exact=math.sin(1.0))
    left = convergence_report(math.cos, 0.0, 1.0, LEFT, ns, exact=math.sin(1.0))
    assert mid.estimated_order == pytest.approx(2.0, abs=0.2)
    assert left.estimated_order == pytest.approx(1.0, abs=0.2)


def test_convergence_report_without_exact():
    rep = convergence_report(math.cos, 0.0, 1.0, MIDPOINT, [8, 16, 32])
    assert rep.rows[0][2] is None
    assert all(d is not None for _, _, d in rep.rows[1:])


def test_convergence_csv_shape(capsys):
    # the same ladder as convergence_report(cos, 0, 1, MIDPOINT, [8, 16]), as CSV
    assert main(["converge", "cos(t)", "0", "1", "--n-from", "8", "--n-to", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,value,diff"
    assert lines[1].startswith("8,")
    assert lines[1].endswith(",")  # first diff is empty
    assert lines[-1].startswith("# estimated_order=")


def test_improper_inverse_sqrt_lower():
    # oracle: integral of 1/sqrt(t) over (0, 1] is 2
    r = integrate_improper(lambda t: 1.0 / math.sqrt(t), 0.0, 1.0, "lower", 1e-6)
    assert r.converged
    assert r.value == pytest.approx(2.0, abs=1e-4)


def test_improper_arcsin_derivative_upper():
    # oracle: integral of 1/sqrt(1-t^2) over [0, 1) is pi/2
    r = integrate_improper(
        lambda t: 1.0 / math.sqrt(1.0 - t * t), 0.0, 1.0, "upper", 1e-6
    )
    assert r.converged
    assert r.value == pytest.approx(math.pi / 2.0, abs=1e-5)


def test_improper_flags_divergent_pole():
    f = lambda t: 1.0 / (math.sin(t) ** 2)
    with pytest.raises(DivergenceError, match="non-integrable"):
        integrate_improper(f, 0.0, 1.0, "lower", 1e-4)


def test_improper_slice_at_cap_is_not_converged():
    # The first slice needs far more than 64 cells; the result used to
    # claim convergence while off by 5.3e-2.
    r = integrate_improper(
        lambda t: 1.0 / math.sqrt(1.0 - t * t), 0.0, 1.0, "upper", 1e-8, max_n=64
    )
    assert not r.converged


def test_improper_converged_is_within_tol():
    # Most windows used to hit the cap here, yet the result claimed an
    # error of 4.6e-9 while off by 1.7e-3.
    r = integrate_improper(
        lambda t: 1.0 / math.sqrt(1.0 - t * t), 0.0, 1.0, "upper", 1e-8, max_n=2 ** 16
    )
    assert not r.converged or abs(r.value - math.pi / 2.0) <= 1e-8


@pytest.mark.parametrize(
    "f, tol",
    [
        (lambda t: 1.0 / t, 1e-3),  # equal slices: growth at a log rate
        (lambda t: t ** -1.5, 1e-6),
        (lambda t: t ** -2.0, 1e-6),
    ],
    ids=["inv-t", "t^-1.5", "t^-2"],
)
def test_improper_flags_slices_that_stop_shrinking(f, tol):
    with pytest.raises(DivergenceError, match="non-integrable"):
        integrate_improper(f, 0.0, 1.0, "lower", tol)


def test_improper_coarse_growth_probe_is_not_converged():
    # A bump in [1/16, 1/8] makes that slice larger than the one before, so
    # the next slice is integrated only coarsely, to tell growth from
    # shrinkage.  Its error stays in the running sum (9.3e-6 here), so the
    # result must not claim tol 1e-6.
    def f(t):
        return 1.0 / math.sqrt(t) + 20.0 * math.exp(-(((t - 0.09) / 0.005) ** 2))

    exact = 2.0 + 20.0 * 0.005 * math.sqrt(math.pi) / 2.0 * (
        math.erf(0.91 / 0.005) + math.erf(0.09 / 0.005)
    )
    r = integrate_improper(f, 0.0, 1.0, "lower", 1e-6)
    assert not r.converged or abs(r.value - exact) <= 1e-6


def _power(p, end):
    # t^-p at the lower end of [0, 1], (1-t)^-p at the upper end
    if end == "lower":
        return lambda t: t ** -p
    return lambda t: (1.0 - t) ** -p


@given(
    st.floats(min_value=0.0, max_value=0.9999, exclude_min=True),
    st.integers(min_value=4, max_value=8),
    st.sampled_from(["lower", "upper"]),
)
@example(0.999, 4, "lower")  # slice ratio near 1: Aitken amplifies slice errors
@example(0.999, 4, "upper")  # deep slices narrower than a few ulps of 1
def test_improper_power_singularity_converges_within_tol(p, k, end):
    # oracle: integral of t^-p over (0, 1] is 1/(1-p).  The cap keeps each
    # example cheap; a slice that reaches it makes the result non-converged,
    # which is an honest answer.  p stops at 0.9999: closer to 1, successive
    # slices differ by less than their tolerances, as they do for 1/t.
    tol = 10.0 ** -k
    r = integrate_improper(_power(p, end), 0.0, 1.0, end, tol, max_n=2 ** 14)
    if r.converged:
        assert abs(r.value - 1.0 / (1.0 - p)) <= tol


@given(
    st.floats(min_value=1.0, max_value=2.0),
    st.integers(min_value=4, max_value=8),
    st.sampled_from(["lower", "upper"]),
)
def test_improper_power_singularity_diverges(p, k, end):
    with pytest.raises(DivergenceError):
        integrate_improper(_power(p, end), 0.0, 1.0, end, 10.0 ** -k)


def test_improper_rejects_an_infinite_endpoint():
    # Every window cut used to land on inf, and the result "converged" to 0.
    with pytest.raises(InvalidArgumentError, match="finite"):
        integrate_improper(lambda t: 1.0 / math.sqrt(t), 0.0, math.inf, "lower", 1e-6)


def test_improper_failure_names_the_t_where_f_failed():
    with pytest.raises(EvaluationError) as err:
        integrate_improper(lambda t: math.log(t - 0.5) / math.sqrt(t), 0.0, 1.0, "lower", 1e-6)
    assert 0.0 < err.value.point < 0.5


def test_improper_near_one_exponent_stops_early():
    # Closing windows on t^-0.999 ran 75M samples and still did not converge.
    r = integrate_improper(lambda t: t ** -0.999, 0.0, 1.0, "lower", 1e-8)
    assert r.evaluations <= 2_000
    assert not r.converged or abs(r.value - 1000.0) <= 1e-8


@pytest.mark.parametrize(
    "f, b, tol",
    [
        (lambda t: math.log(t) / math.sqrt(t), 1.0, 1e-9),
        (lambda t: math.log(t) / math.sqrt(t), 1.0, 1e-11),
        (lambda t: 1.0 / (t * math.log(t) ** 2), 0.5, 1e-11),
    ],
    ids=["log-invsqrt-1e-9", "log-invsqrt-1e-11", "inv-t-log2-1e-11"],
)
def test_improper_stops_once_the_tail_model_alone_exceeds_tol(f, b, tol):
    # A log-modulated end is outside the power-law model, whose term (2e-6
    # and 1e-2 here) no refinement lowers; these runs took 16k to 1M samples.
    r = integrate_improper(f, 0.0, b, "lower", tol)
    assert not r.converged
    assert r.evaluations <= 2_000


def test_improper_upper_end_at_one_is_within_tol():
    # No double lies between 1 - 2^-53 and 1, so t = 1 - d rounds; the
    # samples near the end must be read at the distance they stand for.
    r = integrate_improper(lambda t: (1.0 - t) ** -0.9, 0.0, 1.0, "upper", 1e-10)
    assert r.converged
    assert abs(r.value - 10.0) <= 1e-10


@pytest.mark.parametrize("p, k", [(0.9999694655250626, 8), (0.9998343704724978, 10)])
def test_improper_estimate_covers_the_rounding_of_p(p, k):
    # The mass below the depth goes as 1/(1 - p), so near p = 1 the last
    # bits of the fitted p move the value by more than tol even when the
    # two probe scales agree exactly (1.2e-7 off here at tol 1e-8).
    tol = 10.0 ** -k
    for end in ("lower", "upper"):
        f = (lambda t: t ** -p) if end == "lower" else (lambda t: (1.0 - t) ** -p)
        r = integrate_improper(f, 0.0, 1.0, end, tol, max_n=2 ** 14)
        assert not r.converged or abs(r.value - 1.0 / (1.0 - p)) <= tol


def test_improper_argument_checks():
    with pytest.raises(InvalidArgumentError):
        integrate_improper(math.sin, 0.0, 1.0, "both", 1e-6)
    with pytest.raises(InvalidArgumentError):
        integrate_improper(math.sin, 1.0, 0.0, "lower", 1e-6)


def test_default_cap_is_large_power_of_two():
    assert DEFAULT_MAX_N == 2 ** 22


def test_report_is_frozen():
    rep = convergence_report(math.cos, 0.0, 1.0, MIDPOINT, [8, 16])
    assert isinstance(rep, ConvergenceReport)
    with pytest.raises(AttributeError):
        rep.estimated_order = 0.0
