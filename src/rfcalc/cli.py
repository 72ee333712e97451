"""Command-line front door: integrate expressions, run the verification
suite, emit convergence tables, and evaluate the constructed functions.

Exit codes: 0 success, 1 usage/domain/parse error, 2 non-convergence,
3 verification failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional

from .elementary import (
    e_const,
    exp_construct,
    hyperbolic,
    inverse_fn,
    log_construct,
    pow_construct,
)
from .errors import (
    DivergenceError,
    DomainError,
    EvaluationError,
    HypothesisViolation,
    InvalidArgumentError,
    ParseError,
)
from .expr import eval_expr, parse
from .integrator import (
    DEFAULT_MAX_N,
    convergence_report,
    integrate,
    integrate_improper,
)
from .partitions import LEFT, MIDPOINT, RIGHT, ArrayFn, TagRule
from .theorems import (
    CheckReport,
    derivative_table_check,
    functional_equation_check,
    name_selected,
    product_chain_check,
    run_catalog,
    substitution_showcases,
)

_RULES: dict[str, TagRule] = {"left": LEFT, "right": RIGHT, "midpoint": MIDPOINT}

_MAX_N_FLOOR = 2 ** 6
_MAX_N_CEIL = 2 ** 26


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, so it would read -1e-3 as an option.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message: str):
        raise _UsageError(message)


def _resolve_max_n(n: Optional[int]) -> int:
    if n is None:
        return DEFAULT_MAX_N
    if n < _MAX_N_FLOOR or n > _MAX_N_CEIL or n & (n - 1):
        raise InvalidArgumentError(
            f"--max-n must be a power of two between 2^6 and 2^26, got {n}"
        )
    return n


def _tolerance(args: argparse.Namespace) -> float:
    if not args.tol > 0:
        raise InvalidArgumentError(f"--tol must be positive, got {args.tol}")
    return args.tol


def _f9(v: float) -> str:
    return format(v, ".9g")


def _csv_cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _json_value(v: object) -> object:
    """v with every non-finite float as None: JSON (RFC 8259) has no
    Infinity or NaN."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _emit(output: str, rows: list[dict], doc: object, human: str) -> None:
    """The one place results become text: CSV is a header from the first
    row's keys and a line per row, JSON is the indented doc with null for
    a non-finite float, and human output is the command's own text."""
    if output == "csv":
        print(",".join(rows[0]))
        for row in rows:
            print(",".join(_csv_cell(v) for v in row.values()))
    elif output == "json":
        print(json.dumps(_json_value(doc), indent=2, allow_nan=False))
    else:
        print(human)


def _integrand(text: str) -> ArrayFn:
    """The expression as an array integrand: each sample call evaluates it
    at all of its tags in one eval_expr call, the first three levels of a
    refinement together."""
    tree = parse(text)
    return ArrayFn(lambda tags: eval_expr(tree, tags))


def _cmd_integrate(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    max_n = _resolve_max_n(args.max_n)
    f = _integrand(args.expr)
    if args.improper is not None:
        result = integrate_improper(f, args.a, args.b, args.improper, tol, max_n=max_n)
    else:
        result = integrate(f, args.a, args.b, tol, max_n=max_n)
    record = {"value": result.value, "error_estimate": result.error_estimate,
              "n_final": result.n_final, "evaluations": result.evaluations,
              "converged": result.converged}
    _emit(
        args.output, [record], record,
        "\n".join([
            f"value {_f9(result.value)}",
            f"error estimate {_f9(result.error_estimate)}",
            f"n {result.n_final}",
            f"evaluations {result.evaluations}",
            f"converged {'yes' if result.converged else 'no'}",
        ]),
    )
    if not result.converged:
        if 2 * result.n_final > max_n:
            print(f"did not converge within n <= {max_n}", file=sys.stderr)
        else:
            print(f"did not converge: refinement stopped at n = {result.n_final}, below the cap "
                  f"{max_n}, where refining further cannot lower the error estimate",
                  file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = _tolerance(args)
    # Finite-difference rows carry an h^2 truncation floor; pushing their
    # tolerance below 1e-5 would fail for reasons unrelated to the tower.
    fd_tol = max(tol, 1e-5)
    selected = functools.partial(name_selected, name_filter=args.filter)
    reports = run_catalog(tol, name_filter=args.filter)
    try:
        # The failure row below stands for the whole section, so a filter
        # that selects it runs and reports every showcase.
        shows = substitution_showcases(
            tol, None if selected("substitution-showcases") else args.filter)
    except HypothesisViolation as exc:
        # A tolerance below the fp floor makes the showcase hypothesis
        # checks unsatisfiable; that is a failing row, not a crash.
        shows = [CheckReport(
            "substitution-showcases", math.nan, math.nan, math.inf,
            tol, False, str(exc).replace(",", ";"),
        )]
    reports += derivative_table_check(fd_tol, args.filter)
    reports += product_chain_check(fd_tol, args.filter)
    reports += shows
    if selected("log-functional-equation"):
        reports.append(functional_equation_check(args.seed))
    if not reports:
        raise _UsageError(f"--filter {args.filter!r} selects no check")
    rows = [{"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "abs_diff": r.abs_diff, "tol": r.tol,
             "pass": r.passed, "anchor": r.anchor} for r in reports]
    width = max(len(r.name) for r in reports)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name:<{width}} abs_diff={_f9(r.abs_diff)} "
        f"tol={_f9(r.tol)} [{r.anchor}]"
        for r in reports
    ]
    passed = sum(1 for r in reports if r.passed)
    lines.append(f"{passed}/{len(reports)} checks passed")
    _emit(args.output, rows, rows, "\n".join(lines))
    return 0 if passed == len(reports) else 3


def _cmd_converge(args: argparse.Namespace) -> int:
    max_n = _resolve_max_n(args.max_n)
    f = _integrand(args.expr)
    if args.n_from < 1:
        raise InvalidArgumentError(f"--n-from must be >= 1, got {args.n_from}")
    if args.n_to < args.n_from:
        raise InvalidArgumentError("--n-to must be >= --n-from")
    if args.n_from > max_n:
        raise InvalidArgumentError(
            f"--n-from must not exceed the refinement cap {max_n}, got {args.n_from}"
        )
    ns = [args.n_from]
    while ns[-1] * 2 <= min(args.n_to, max_n):
        ns.append(ns[-1] * 2)

    report = convergence_report(f, args.a, args.b, _RULES[args.rule], ns, exact=args.exact)
    lines = [f"n={n} value={_f9(value)}" + ("" if diff is None else f" diff={_f9(diff)}")
             for n, value, diff in report.rows]
    lines.append(f"estimated order {_f9(report.estimated_order)}")
    _emit(
        args.output,
        [{"n": n, "value": value, "diff": diff} for n, value, diff in report.rows],
        {"rows": [list(row) for row in report.rows], "estimated_order": report.estimated_order},
        "\n".join(lines),
    )
    if args.output == "csv":
        print(f"# estimated_order={_csv_cell(report.estimated_order)}")
    return 0


_EVAL_HYPERBOLIC = ("sinh", "cosh", "tanh")
_EVAL_INVERSE = ("arsinh", "arcosh", "artanh", "arcsin", "arctan")
_EVAL_NAMES = ("log", "exp", "e", "pow") + _EVAL_HYPERBOLIC + _EVAL_INVERSE


def _cmd_eval(args: argparse.Namespace) -> int:
    eps = args.eps
    if not eps > 0:
        raise InvalidArgumentError(f"--eps must be positive, got {eps}")
    name = args.fname
    if name not in _EVAL_NAMES:
        raise _UsageError(f"unknown function {name!r}; choose from {', '.join(_EVAL_NAMES)}")
    arity = 0 if name == "e" else 2 if name == "pow" else 1
    if len(args.args) != arity:
        raise _UsageError(f"{name} takes {arity} argument(s), got {len(args.args)}")
    bound: Optional[float] = None
    if name == "log":
        approx = log_construct(args.args[0], eps)
        value, bound = approx.value, approx.bound
    elif name == "exp":
        value = exp_construct(args.args[0], eps)
    elif name == "e":
        value = e_const(eps)
    elif name == "pow":
        value = pow_construct(args.args[0], args.args[1], eps)
    elif name in _EVAL_HYPERBOLIC:
        value = hyperbolic(name, args.args[0], eps)
    else:
        value = inverse_fn(name, args.args[0], eps)
    note = "" if bound is None else f" (bound <= {bound:.3g})"
    record = {"fname": name, "value": value, "bound": bound}
    _emit(args.output, [record], record, f"{value!r}{note}")
    return 0


def _add_tol(sub: argparse.ArgumentParser, default: float) -> None:
    sub.add_argument("--tol", type=float, default=default,
                     help=f"target tolerance (default {default:g})")


def _add_max_n(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-n", type=int, default=None, dest="max_n",
                     help="refinement cap, a power of two in [2^6, 2^26]")


def _add_output(sub: argparse.ArgumentParser, default: str) -> None:
    sub.add_argument("--output", choices=("human", "csv", "json"), default=default,
                     help=f"report format (default {default})")


@functools.lru_cache(maxsize=None)  # built on the first main() call, then reused
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="rfcalc",
        description="Riemann-sum calculus toolkit: integration, verification, convergence tables.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_int = commands.add_parser("integrate", help="integrate an expression in t")
    p_int.add_argument("expr", help="integrand, e.g. 't^2' or '1/sqrt(1-t^2)'")
    p_int.add_argument("a", type=float, help="lower endpoint")
    p_int.add_argument("b", type=float, help="upper endpoint")
    p_int.add_argument("--improper", choices=("lower", "upper"), default=None,
                       help="treat this endpoint as singular: within the larger of 2^-92 (b-a) "
                            "and 4096 of its ulps, f is continued by a fitted power law")
    _add_tol(p_int, 1e-8)
    _add_max_n(p_int)
    _add_output(p_int, "human")
    p_int.set_defaults(func=_cmd_integrate)

    p_ver = commands.add_parser("verify", help="run the identity catalog and theorem checks")
    p_ver.add_argument("--filter", default=None,
                       help="only run checks whose name contains this substring")
    p_ver.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    _add_tol(p_ver, 1e-6)
    _add_output(p_ver, "human")
    p_ver.set_defaults(func=_cmd_verify)

    p_con = commands.add_parser("converge", help="tabulate Riemann sums over doubling n")
    p_con.add_argument("expr", help="integrand, e.g. 'exp(t)'")
    p_con.add_argument("a", type=float, help="lower endpoint")
    p_con.add_argument("b", type=float, help="upper endpoint")
    p_con.add_argument("--n-from", type=int, default=8, dest="n_from",
                       help="first panel count")
    p_con.add_argument("--n-to", type=int, default=65536, dest="n_to",
                       help="last panel count (rounded down to the doubling ladder)")
    p_con.add_argument("--exact", type=float, default=None,
                       help="known exact value; diffs become true errors")
    _add_max_n(p_con)
    p_con.add_argument("--rule", choices=sorted(_RULES), default="midpoint",
                       help="tag rule for the Riemann sums, placing tags on [a, b]")
    _add_output(p_con, "csv")
    p_con.set_defaults(func=_cmd_converge)

    p_eval = commands.add_parser("eval", help="evaluate a constructed function directly")
    p_eval.add_argument("fname", help=f"one of: {', '.join(_EVAL_NAMES)}")
    p_eval.add_argument("args", type=float, nargs="*", help="numeric argument(s)")
    p_eval.add_argument("--eps", type=float, default=1e-12,
                        help="construction accuracy target")
    _add_output(p_eval, "human")
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: divergent: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, ParseError, DomainError, InvalidArgumentError, EvaluationError,
            HypothesisViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
