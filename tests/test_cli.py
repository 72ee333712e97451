"""End-to-end CLI runs, in process through main(argv)."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rfcalc.cli as cli
import rfcalc.theorems as theorems
from rfcalc.cli import main
from rfcalc.theorems import make_report

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integrate_human(capsys):
    code, out, err = run_cli(capsys, "integrate", "t^2", "0", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("value 0.333333")
    assert lines[4] == "converged yes"
    assert err == ""


def test_integrate_csv_shape_and_stability(capsys):
    code, out1, _ = run_cli(capsys, "integrate", "sin(t)", "0", "1", "--output", "csv")
    assert code == 0
    code, out2, _ = run_cli(capsys, "integrate", "sin(t)", "0", "1", "--output", "csv")
    assert out1 == out2  # byte-identical reruns
    header, row = out1.splitlines()
    assert header == "value,error_estimate,n_final,evaluations,converged"
    fields = row.split(",")
    assert fields[-1] == "true"
    assert abs(float(fields[0]) - (1.0 - math.cos(1.0))) < 1e-7


def test_integrate_json(capsys):
    code, out, _ = run_cli(capsys, "integrate", "cos(t)", "0", "1", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["value"] == pytest.approx(math.sin(1.0), abs=1e-7)


def test_integrate_improper(capsys):
    # oracle: the integral of 1/sqrt(1-t^2) over [0, 1) is pi/2
    code, out, _ = run_cli(
        capsys, "integrate", "1/sqrt(1-t^2)", "0", "1",
        "--improper", "upper", "--tol", "1e-4",
    )
    assert code == 0
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(
        math.pi / 2.0, abs=1e-3
    )


def test_integrate_divergent_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "integrate", "csc(t)^2", "0", "1",
        "--improper", "lower", "--tol", "1e-4",
    )
    assert code == 1
    assert err.startswith("error: divergent:")


def test_integrate_log_divergence_exits_1(capsys):
    # equal slices of 1/t: this used to print "converged yes" at 17.21
    code, _, err = run_cli(
        capsys, "integrate", "1/t", "0", "1", "--improper", "lower", "--tol", "1e-3"
    )
    assert code == 1
    assert err.startswith("error: divergent:")


def test_improper_slice_at_cap_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "integrate", "1/sqrt(1-t^2)", "0", "1",
        "--improper", "upper", "--tol", "1e-8", "--max-n", "64",
    )
    assert code == 2
    assert "converged no" in out
    assert "did not converge within n <= 64" in err


def test_improper_infinite_endpoint_exits_1(capsys):
    code, out, err = run_cli(capsys, "integrate", "1/sqrt(t)", "0", "inf", "--improper", "lower")
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_improper_failure_names_a_t(capsys):
    code, _, err = run_cli(capsys, "integrate", "log(t-0.5)", "0", "1", "--improper", "lower")
    assert code == 1
    assert 0.0 < float(err.rsplit("at t=", 1)[1]) < 0.5


def test_nonconvergence_below_the_cap_says_so(capsys):
    # On 8 ulps the central nodes would come within an ulp of each other at
    # n = 64, long before the default cap; tol lies below the sums' rounding.
    code, out, err = run_cli(capsys, "integrate", "t", "1", "1.0000000000000018", "--tol", "1e-30")
    assert code == 2
    assert "converged no" in out
    assert "within n <=" not in err
    assert "stopped at n = 32, below the cap 4194304" in err


def test_improper_early_stop_says_it_stopped_below_the_cap(capsys):
    # The tail model alone misses tol 1e-9, so refinement stops early.
    code, out, err = run_cli(
        capsys, "integrate", "log(t)/sqrt(t)", "0", "1", "--improper", "lower", "--tol", "1e-9",
        "--output", "json",
    )
    assert code == 2
    record = json.loads(out)
    assert not record["converged"]
    assert record["evaluations"] <= 2_000
    assert f"stopped at n = {record['n_final']}, below the cap 4194304" in err


@pytest.mark.parametrize("a, b", [("1e308", "1.7e308"), ("-1e308", "1e308")])
def test_too_wide_interval_is_one_error_line(a, b):
    # In a fresh interpreter, so that a numpy warning would reach stderr.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    program = "import sys; from rfcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", program, "integrate", "--", "t", a, b],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        f"error: [{float(a)}, {float(b)}] is too wide: its cell widths or midpoints overflow\n"
    )


def _fresh_cli(*argv):
    """Run the CLI in a fresh interpreter, so that a numpy warning would reach stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    program = "import sys; from rfcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", program, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize(
    "argv, a, b",
    [
        (("integrate", "1e300", "0", "1e10"), 0.0, 1e10),
        (("converge", "t", "1e308", "1.7e308", "--rule", "left"), 1e308, 1.7e308),
    ],
    ids=["integrate", "converge-left"],
)
def test_overflowing_term_is_one_error_line(argv, a, b):
    # converge used to print numpy's overflow warning and rows of inf.
    done = _fresh_cli(*argv)
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: integrand term overflows at t=")
    assert a <= float(line.rsplit("at t=", 1)[1]) <= b


def test_left_rule_on_a_too_wide_interval_is_one_error_line():
    # This used to warn, refine to the 2^22 cap and report inf with exit 2.
    done = _fresh_cli("integrate", "t", "1e308", "1.7e308", "--rule", "left")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "error: [1e+308, 1.7e+308] is too wide: its cell widths or midpoints overflow\n"
    )


@pytest.mark.parametrize(
    "argv, value",
    [
        (("integrate", "t", "-1e-3", "1"), (1.0 - 1e-6) / 2.0),
        (("converge", "t", "-1e-3", "1", "--n-to", "16", "--output", "json"), (1.0 - 1e-6) / 2.0),
        (("converge", "t", "0", "1", "--n-to", "16", "--exact", "-1e-3", "--output", "json"), 0.5),
        (("eval", "arctan", "-1.5E-3"), math.atan(-1.5e-3)),
        (("eval", "pow", "2", "-1e+1"), 2.0 ** -10),
    ],
    ids=["integrate", "converge", "exact", "eval", "eval-pow"],
)
def test_negative_numbers_with_an_exponent_are_arguments(capsys, argv, value):
    # argparse's own pattern for negative numbers has no exponent.
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    if argv[0] == "converge":
        doc = json.loads(out)
        got = doc["rows"][-1][1]
        if "--exact" in argv:
            assert doc["rows"][-1][2] == abs(got + 1e-3)
    else:
        got = float(out.split()[1] if argv[0] == "integrate" else out)
    assert got == pytest.approx(value, rel=1e-9)


def test_dashes_still_mark_options(capsys):
    assert run_cli(capsys, "integrate", "--", "t", "-1e-3", "1") == run_cli(
        capsys, "integrate", "t", "-1e-3", "1")
    code, out, err = run_cli(capsys, "integrate", "t", "-x", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    code, out, err = run_cli(capsys, "integrate", "t", "0", "1", "-x")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: -x" in err


def _samples(monkeypatch, capsys, *argv):
    """Riemann-sum samples one CLI run takes, and its exit code."""
    import rfcalc.integrator as integrator

    taken = []
    real = integrator.riemann_sum

    def counted(f, partition):
        taken.append(partition.n)
        return real(f, partition)

    monkeypatch.setattr(integrator, "riemann_sum", counted)
    code, _, _ = run_cli(capsys, *argv)
    return sum(taken), code


@pytest.mark.parametrize(
    "argv, budget",
    [
        (("verify",), 19_999),  # 105,600 on uniform sums on [a, b]
        (("verify", "--tol", "1e-10"), 39_999),  # 11.8M
        (("integrate", "t^3", "0", "2", "--tol", "5e-13"), 1_024),  # 8.4M
    ],
    ids=["verify", "verify-1e-10", "cube-5e-13"],
)
def test_work_count_gate(monkeypatch, capsys, argv, budget):
    samples, code = _samples(monkeypatch, capsys, *argv)
    assert code == 0
    assert samples <= budget


def test_verify_work_counts(monkeypatch, capsys):
    # A default verify pass, after one that fills the node tables: samples
    # over every refinement ladder (19,174 when each level took its own call
    # from n = 8), array-kernel calls (99) and scalar log calls (2,315), each
    # counted wherever it is looked up.
    import rfcalc.elementary as elementary
    import rfcalc.expr as expr
    import rfcalc.integrator as integrator

    calls = {"samples": 0, "kernels": 0, "log_construct": 0}
    real_refine = integrator._refine

    def refine(*args, **kwargs):
        result = real_refine(*args, **kwargs)
        calls["samples"] += result.evaluations
        return result

    def counter(real, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    assert run_cli(capsys, "verify")[0] == 0
    monkeypatch.setattr(integrator, "_refine", refine)
    for module in (elementary, expr, integrator, theorems):
        for name, key in (("exp_array", "kernels"), ("log_array", "kernels"),
                          ("log_construct", "log_construct")):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counter(getattr(module, name), key))
    code, _, _ = run_cli(capsys, "verify")
    assert code == 0
    assert calls["samples"] < 19_000
    assert calls["kernels"] <= 40
    assert calls["log_construct"] <= 1_000


def test_nonconvergence_exits_2(capsys):
    # The kink at 0.3 converges only algebraically on the s-line.
    code, out, err = run_cli(
        capsys, "integrate", "abs(t-0.3)", "0", "1", "--tol", "1e-10", "--max-n", "256"
    )
    assert code == 2
    assert "did not converge within n <= 256" in err
    assert "converged no" in out


def test_parse_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "integrate", "sec(", "0", "1")
    assert code == 1
    assert err == "error: parse error at offset 4: expected expression\n"


def test_eval_domain_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "eval", "log", "--", "-1")
    assert code == 1
    assert err.startswith("error:")


def test_usage_error_exits_1(capsys):
    code, _, err = run_cli(capsys, "integrate", "t", "0", "1", "--rule", "simpson")
    assert code == 1
    assert "error" in err


def test_max_n_must_be_power_of_two(capsys):
    code, _, err = run_cli(capsys, "integrate", "t", "0", "1", "--max-n", "100")
    assert code == 1
    assert "--max-n must be a power of two between 2^6 and 2^26, got 100" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "t", "0", "1", "--max-n", "32"),
        ("integrate", "t", "0", "1", "--max-n", str(2 ** 27)),
        ("converge", "t", "0", "1", "--max-n", "96"),
    ],
)
def test_max_n_range_is_checked(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: --max-n must be a power of two between 2^6 and 2^26, got {argv[-1]}\n"


def test_the_cap_has_no_environment_variable(capsys, monkeypatch):
    argv = ("integrate", "t^3", "0", "1", "--tol", "1e-6", "--output", "csv")
    monkeypatch.delenv("RF_MAX_N", raising=False)
    unset = run_cli(capsys, *argv)
    for value in ("64", "lots"):
        monkeypatch.setenv("RF_MAX_N", value)
        assert run_cli(capsys, *argv) == unset


def test_verify_filtered_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "cube")
    assert code == 0
    assert "PASS cube-integral" in out
    assert "PASS deriv-cube-integral" in out
    assert out.splitlines()[-1] == "2/2 checks passed"


def test_verify_csv_reruns_are_byte_identical(capsys):
    first = run_cli(capsys, "verify", "--output", "csv")
    assert first[0] == 0
    assert run_cli(capsys, "verify", "--output", "csv") == first


def test_verify_filter_that_selects_nothing_exits_1(capsys):
    code, out, err = run_cli(capsys, "verify", "--filter", "nomatch")
    assert code == 1
    assert out == ""
    assert err == "error: --filter 'nomatch' selects no check\n"


def test_verify_exit_3_on_failure(capsys):
    # arctan's absolute eps leaves this row 3.6e-13 off its closed form.
    code, out, _ = run_cli(
        capsys, "verify", "--tol", "1e-15", "--filter", "arctan-integral"
    )
    assert code == 3
    assert "FAIL arctan-integral" in out


def test_verify_filter_restricts_unfiltered_rows(capsys):
    _, full, _ = run_cli(capsys, "verify", "--output", "csv")
    header, *rows = full.splitlines()
    for name_filter in ("cube", "deriv", "rule", "usub", "parts-log", "functional", "arc"):
        code, out, _ = run_cli(capsys, "verify", "--filter", name_filter, "--output", "csv")
        assert code == 0
        assert out.splitlines() == [header] + [r for r in rows if name_filter in r.split(",")[0]]


def test_verify_showcase_failure_is_reported_under_a_narrow_filter(capsys):
    # usub-half-log's hypothesis check cannot hold at tol 1e-16; the row
    # standing for the section reports it, whatever the filter's name.
    code, out, _ = run_cli(capsys, "verify", "--filter", "usub-half", "--tol", "1e-16")
    assert code == 3
    assert out.startswith("FAIL substitution-showcases ")
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_verify_section_filter_reports_every_showcase(capsys):
    code, out, _ = run_cli(capsys, "verify", "--filter", "showcases", "--output", "csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == [
        "usub-arctan", "usub-identity", "usub-half-log", "parts-log", "parts-tt", "parts-arctan",
    ]


def test_verify_filter_integrates_only_matching_rows(capsys, monkeypatch):
    calls = []

    def recorded(name):
        def integrate(f, a, b, *args):
            calls.append((name, a, b))
            return SimpleNamespace(value=b ** 4 / 4.0)  # the cube's exact integral
        return integrate

    monkeypatch.setattr(theorems, "integrate", recorded("integrate"))
    monkeypatch.setattr(theorems, "integrate_improper", recorded("integrate_improper"))
    code, out, _ = run_cli(capsys, "verify", "--filter", "cube", "--tol", "1e-20")
    assert code == 0
    assert "PASS cube-integral" in out
    assert calls == [("integrate", 0.0, 2.0)]  # the cube-integral row's own window


def test_verify_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "sqrt-power", "--output", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,lhs,rhs,abs_diff,tol,pass,anchor"
    # (inv)sqrt-power-integral and their two deriv- rows
    assert [line.split(",")[0] for line in lines[1:]] == [
        "invsqrt-power-integral", "sqrt-power-integral",
        "deriv-sqrt-power-integral", "deriv-invsqrt-power-integral",
    ]
    assert all(line.split(",")[5] == "true" for line in lines[1:])


def test_verify_csv_row_format(capsys, monkeypatch):
    # floats as %.17g, pass as true/false, the anchor verbatim
    monkeypatch.setattr(cli, "run_catalog",
                        lambda tol, name_filter: [make_report("demo", 1.0, 2.0, 0.5, "lhs = rhs")])
    code, out, _ = run_cli(capsys, "verify", "--filter", "demo", "--output", "csv")
    assert code == 3
    assert out == "name,lhs,rhs,abs_diff,tol,pass,anchor\ndemo,1,2,1,0.5,false,lhs = rhs\n"


def test_verify_json_output(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--filter", "functional", "--output", "json", "--seed", "7"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["name"] == "log-functional-equation"
    assert rows[0]["pass"] is True


def test_converge_default_csv(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "cos(t)", "0", "1", "--n-from", "8", "--n-to", "64"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,value,diff"
    assert [line.split(",")[0] for line in lines[1:4]] == ["8", "16", "32"]
    assert lines[1].endswith(",")  # first diff is empty
    assert lines[-1].startswith("# estimated_order=")


def test_converge_json(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "cos(t)", "0", "1", "--n-from", "8", "--n-to", "64", "--output", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [row[0] for row in doc["rows"]] == [8, 16, 32, 64]
    assert all(len(row) == 3 for row in doc["rows"])
    assert doc["rows"][0][2] is None
    assert all(isinstance(row[2], float) for row in doc["rows"][1:])
    assert doc["estimated_order"] == pytest.approx(2.0, abs=0.3)


def test_converge_with_exact_human(capsys):
    code, out, _ = run_cli(
        capsys, "converge", "cos(t)", "0", "1",
        "--n-from", "16", "--n-to", "256",
        "--exact", str(math.sin(1.0)), "--output", "human",
    )
    assert code == 0
    assert "estimated order" in out.splitlines()[-1]
    order = float(out.splitlines()[-1].split()[-1])
    assert order == pytest.approx(2.0, abs=0.3)


def test_eval_log_human_shows_bound(capsys):
    code, out, _ = run_cli(capsys, "eval", "log", "2")
    assert code == 0
    assert out.startswith("0.693147180559945")
    assert "(bound <=" in out


def test_eval_log_csv(capsys):
    code, out, _ = run_cli(capsys, "eval", "log", "2", "--output", "csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "fname,value,bound"
    name, value, bound = row.split(",")
    assert name == "log"
    assert float(value) == pytest.approx(math.log(2.0), abs=1e-12)
    assert float(bound) <= 1e-12


def test_eval_e_and_pow(capsys):
    code, out, _ = run_cli(capsys, "eval", "e")
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(math.e, rel=1e-12)
    code, out, _ = run_cli(capsys, "eval", "pow", "2", "0.5")
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(math.sqrt(2.0), rel=1e-10)


def test_eval_arity_checked(capsys):
    code, _, err = run_cli(capsys, "eval", "log", "2", "3")
    assert code == 1
    assert "log takes 1 argument(s), got 2" in err
    code, _, err = run_cli(capsys, "eval", "nosuch", "1")
    assert code == 1
    assert "unknown function" in err


def test_eval_json(capsys):
    code, out, _ = run_cli(capsys, "eval", "sinh", "1", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["fname"] == "sinh"
    assert doc["bound"] is None
    assert doc["value"] == pytest.approx(math.sinh(1.0), rel=1e-11)


def test_eval_artanh_near_one(capsys):
    code, out, _ = run_cli(capsys, "eval", "artanh", "0.999999")
    assert code == 0
    assert float(out) == pytest.approx(math.atanh(0.999999), abs=1e-12)


def test_left_rule_changes_result(capsys):
    # converge places the tags on [a, b] itself; the last row is n = 64.
    _, out_mid, _ = run_cli(capsys, "converge", "t^2", "0", "1", "--n-to", "64")
    _, out_left, _ = run_cli(capsys, "converge", "t^2", "0", "1", "--n-to", "64", "--rule", "left")
    v_mid = float(out_mid.splitlines()[-2].split(",")[1])
    v_left = float(out_left.splitlines()[-2].split(",")[1])
    assert v_left < v_mid  # left sums undershoot an increasing integrand


def test_converge_rejects_n_from_above_the_cap(capsys):
    code, out, err = run_cli(
        capsys, "converge", "t^2", "0", "1", "--n-from", "256", "--n-to", "1024", "--max-n", "64"
    )
    assert code == 1
    assert out == ""
    assert "--n-from must not exceed the refinement cap 64, got 256" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("converge", "t^2", "0", "1", "--tol", "1e-6"),
        ("eval", "log", "2", "--tol", "1e-6"),
        ("integrate", "t^2", "0", "1", "--seed", "3"),
        ("converge", "t^2", "0", "1", "--seed", "3"),
        ("eval", "log", "2", "--seed", "3"),
        ("eval", "log", "2", "--max-n", "64"),
        ("eval", "log", "2", "--rule", "left"),
        ("verify", "--rule", "left"),
        ("verify", "--max-n", "64"),
    ],
)
def test_options_only_where_used(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_parser_is_built_once_and_leaks_nothing(capsys):
    import rfcalc.cli as cli

    sequence = [
        ("verify", "--filter", "functional", "--output", "csv", "--seed", "7"),
        ("verify", "--filter", "functional", "--output", "csv"),
        ("integrate", "t^2", "0", "1", "--rule", "left", "--tol", "1e-3", "--output", "csv"),
        ("integrate", "t^2", "0", "1", "--output", "csv"),
        ("converge", "cos(t)", "0", "1", "--n-to", "64", "--max-n", "64"),
        ("converge", "cos(t)", "0", "1", "--n-to", "64"),
        ("eval", "log", "2", "--eps", "1e-6"),
        ("eval", "log", "2"),
    ]
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    cli._build_parser.cache_clear()
    reused = [run_cli(capsys, *argv) for argv in sequence]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert all(code == 0 for code, _, _ in reused)
    # verify without --seed still samples with seed 42
    assert reused[1] == run_cli(capsys, "verify", "--filter", "functional", "--output", "csv",
                                "--seed", "42")
    assert reused[0][1] != reused[1][1]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("integrate", "t^2", "0", "1"), 0),
        (("converge", "t^2", "0", "1"), 0),
        (("integrate", "1/t", "0", "1"), 2),  # its end term is infinite
        (("integrate", "1e307", "0", "18"), 2),  # its first sum overflows
    ],
    ids=["integrate", "converge", "infinite-end-term", "first-sum-not-finite"],
)
def test_each_batch_of_tags_is_one_eval_expr_call(capsys, monkeypatch, argv, code):
    import rfcalc.cli as cli

    sizes = []
    real = cli.eval_expr

    def counted(e, t):
        sizes.append(t.size)
        return real(e, t)

    monkeypatch.setattr(cli, "eval_expr", counted)
    got, out, _ = run_cli(capsys, *argv, "--output", "json")
    assert got == code
    if argv[0] == "integrate":
        assert sizes[0] == 32 + 64 + 128  # the first three levels
        assert sum(sizes) == json.loads(out)["evaluations"]
    else:
        assert sizes == [row[0] for row in json.loads(out)["rows"]]


def test_a_cap_of_64_starts_the_ladder_at_16(capsys, monkeypatch):
    # Levels 16, 32 and 64 are the three that fit; they are the last three of
    # the ladder from 8, so only the evaluation count (120 from 8) changes.
    import rfcalc.cli as cli

    sizes = []
    real = cli.eval_expr
    monkeypatch.setattr(cli, "eval_expr", lambda e, t: sizes.append(t.size) or real(e, t))
    code, out, err = run_cli(capsys, "integrate", "t^2", "0", "1", "--max-n", "64",
                             "--output", "csv")
    assert code == 2
    assert out.splitlines()[1] == "0.33333333333333343,3.1709331395179952e-05,64,112,false"
    assert "did not converge within n <= 64" in err
    assert sizes == [16 + 32 + 64]


def test_only_cli_formats_output():
    # Every byte of a report comes from cli._emit: no other module may write
    # JSON or hold the %.17g float format of the CSV cells.
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if ((isinstance(node, ast.Import) and any(a.name == "json" for a in node.names))
                    or (isinstance(node, ast.ImportFrom) and node.module == "json")
                    or (isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and ".17g" in node.value)):
                found.append(f"{path.name} line {node.lineno}: {ast.unparse(node)}")
    assert found == []


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv,path",
    [
        (("converge", "t", "0", "1", "--exact", "0.5"), ("estimated_order",)),
        (("integrate", "1e307", "0", "18"), ("error_estimate",)),  # the sum overflows
        (("verify", "--filter", "usub-half", "--tol", "1e-16"), (0, "lhs")),
    ],
)
def test_json_writes_null_for_non_finite_floats(capsys, argv, path):
    # Each of these has an infinite or nan field, which JSON cannot carry.
    code, out, _ = run_cli(capsys, *argv, "--output", "json")
    assert code != 1
    doc = _strict_json(out)
    for key in path:
        doc = doc[key]
    assert doc is None
    code, csv_out, _ = run_cli(capsys, *argv, "--output", "csv")
    assert "inf" in csv_out or "nan" in csv_out  # the CSV still writes them
