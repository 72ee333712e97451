"""Where the tracer hooks into rfcalc, and the per-layer metrics it yields.

Each hook names the module attribute through which a caller looks the
function up, so ``rfcalc.theorems.integrate`` sees the catalog's calls and
``rfcalc.expr.exp_construct`` the calls from inside an integrand.
"""

from __future__ import annotations

from workloads import DIRECT_EVALUATORS  # first: puts the checkout's src/ on the path

import rfcalc.cli
import rfcalc.direct_eval
import rfcalc.elementary
import rfcalc.expr
import rfcalc.integrator
import rfcalc.theorems
from tracer import LAYERS, Stat, Tracer, union_length

_IMPROPER = "integrator.integrate_improper"
_HYPERBOLIC_INVERSES = ("arsinh", "arcosh", "artanh")


def _arg(args, kwargs, index, key, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _obs_riemann(st, args, kwargs, result, parent):
    st.add("samples", args[1].n)


def _obs_partition(st, args, kwargs, result, parent):
    st.add("points", result.n + 1)


def _obs_integrate(st, args, kwargs, result, parent):
    st.add("levels", len(result.trace))
    st.add("samples", result.evaluations)
    st.add("n_final", result.n_final)
    st.add("nonconverged", 0 if result.converged else 1)
    if parent is not None and parent[0] == _IMPROPER and result.converged:
        parent[4] += 1


def _obs_improper(st, args, kwargs, result, parent):
    st.add("samples", result.evaluations)


def _obs_report(st, args, kwargs, result, parent):
    st.add("samples", sum(n for n, _, _ in result.rows))


def _obs_log(st, args, kwargs, result, parent):
    if result.bound <= _arg(args, kwargs, 1, "eps", 1e-12):
        st.add("bound_met", 1)


def _obs_inverse(st, args, kwargs, result, parent):
    if _arg(args, kwargs, 0, "kind", None) in _HYPERBOLIC_INVERSES:
        st.add("hyperbolic_kind_calls", 1)


def _obs_terms(st, args, kwargs, result, parent):
    st.add("terms", args[-1])


def _obs_log_limit(st, args, kwargs, result, parent):
    # The sandwich takes log2(n) square-root steps rather than n terms.
    st.add("terms", args[-1].bit_length() - 1)


def _obs_main(st, args, kwargs, result, parent):
    if result != 0:
        st.add("nonzero", 1)


_TOWER = ("log_construct", "exp_construct", "pow_construct", "hyperbolic", "inverse_fn")
_TOWER_OBSERVERS = {"log_construct": _obs_log, "inverse_fn": _obs_inverse}


def hooks():
    """(module, attribute, traced name, keep spans, observer) for every hook."""
    integ, theo, cli, expr, el = (
        rfcalc.integrator, rfcalc.theorems, rfcalc.cli, rfcalc.expr, rfcalc.elementary
    )
    out = [
        (integ, "riemann_sum", "partitions.riemann_sum", True, _obs_riemann),
        (integ, "uniform_partition", "partitions.uniform_partition", True, _obs_partition),
        (integ, "integrate", "integrator.integrate", True, _obs_integrate),
        (theo, "integrate", "integrator.integrate", True, _obs_integrate),
        (cli, "integrate", "integrator.integrate", True, _obs_integrate),
        (theo, "integrate_improper", _IMPROPER, True, _obs_improper),
        (cli, "integrate_improper", _IMPROPER, True, _obs_improper),
        (cli, "convergence_report", "integrator.convergence_report", True, _obs_report),
        (theo, "cumulative", "integrator.cumulative", True, None),
        (cli, "parse", "expr.parse", True, None),
        (cli, "eval_expr", "expr.eval_expr", False, None),
        (cli, "run_catalog", "theorems.run_catalog", True, None),
        (cli, "derivative_table_check", "theorems.derivative_table_check", True, None),
        (cli, "product_chain_check", "theorems.product_chain_check", True, None),
        (cli, "substitution_showcases", "theorems.substitution_showcases", True, None),
        (cli, "functional_equation_check", "theorems.functional_equation_check", True, None),
        (cli, "main", "cli.main", True, _obs_main),
    ]
    for module in (el, expr, theo, cli):
        for fn in _TOWER:
            if hasattr(module, fn):
                out.append((module, fn, "elementary." + fn, False, _TOWER_OBSERVERS.get(fn)))
    for fn in DIRECT_EVALUATORS:
        observe = _obs_log_limit if fn == "log_limit_bounds" else _obs_terms
        out.append((rfcalc.direct_eval, fn, "direct_eval." + fn, True, observe))
    return out


def install(tracer: Tracer) -> None:
    for module, attr, name, span, observe in hooks():
        tracer.install(module, attr, name, span, observe)


# ---------------------------------------------------------------------------
# Metrics

# name -> unit, in the order they are reported.
PER_LAYER = {
    "partitions.riemann_sum.calls": "count",
    "partitions.riemann_sum.samples": "count",
    "partitions.riemann_sum.ns_per_sample": "ns",
    "partitions.uniform_partition.ns_per_point": "ns",
    "expr.parse.us_per_call": "us",
    "expr.eval_expr.points": "count",
    "expr.eval_expr.ns_per_point": "ns",
    "integrator.integrate.calls": "count",
    "integrator.integrate.levels": "count",
    "integrator.integrate.samples": "count",
    "integrator.integrate.final_share": "ratio",
    "integrator.integrate.nonconverged": "count",
    "integrator.improper.calls": "count",
    "integrator.improper.windows": "count",
    "integrator.improper.samples": "count",
    "integrator.improper.s": "s",
    "integrator.improper.window_converged_ratio": "ratio",
    "elementary.log_construct.calls": "count",
    "elementary.log_construct.us_per_call": "us",
    "elementary.log_construct.bound_met_ratio": "ratio",
    "elementary.exp_construct.calls": "count",
    "elementary.exp_construct.us_per_call": "us",
    "elementary.exp_construct.log_calls_per_call": "count",
    "elementary.pow_construct.us_per_call": "us",
    "elementary.hyperbolic.us_per_call": "us",
    "elementary.inverse_fn.us_per_call": "us",
    "elementary.inverse_fn.forward_calls_per_call": "count",
    "direct_eval.calls": "count",
    "direct_eval.terms": "count",
    "direct_eval.ns_per_term": "ns",
    "theorems.run_catalog.s": "s",
    "theorems.catalog.improper_s": "s",
    "theorems.catalog.proper_s": "s",
    "theorems.catalog.busy_over_wall": "ratio",
    "theorems.derivative_table.s": "s",
    "theorems.showcases.s": "s",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.nonzero_exits": "count",
    **{f"layer.{name}.self_s": "s" for name in LAYERS + ("bench",)},
    **{f"layer.{name}.share": "ratio" for name in LAYERS + ("bench",)},
    "tower.class_a.share": "ratio",
    "tower.class_b.share": "ratio",
    "tower.class_c.share": "ratio",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counts that depend only on the inputs, never on the hardware.
WORK_COUNTS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit == "count" or name.endswith(("final_share", "window_converged_ratio", "bound_met_ratio"))
)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from one traced segment.

    Self times on pool threads include waits for the interpreter lock, so
    with ``verify``'s thread pool the layer shares are shares of busy time.
    """
    stats = tracer.merged_stats()
    never_called = Stat()

    def st(name: str) -> Stat:
        return stats.get(name, never_called)

    def per_call(name: str, scale: float) -> float:
        return scale * _div(st(name).total, st(name).calls)

    spans = tracer.spans()
    adopted = tracer.cross_thread_children()
    by_id = {s[0]: s for s in spans}

    # Layer self time; work that pool threads did for a span is already
    # charged to those threads, so the adopting span drops the covered part.
    layer_self = {name: 0.0 for name in LAYERS + ("bench",)}
    for name, s in stats.items():
        layer_self[name.split(".", 1)[0]] += s.self_time
    for pid, kids in adopted.items():
        parent = by_id.get(pid)
        if parent is not None:
            layer_self[parent[1].split(".", 1)[0]] -= union_length((k[2], k[3]) for k in kids)
    accounted = sum(layer_self.values())

    catalog_ids = {s[0] for s in spans if s[1] == "theorems.run_catalog"}
    under_catalog = [s for s in spans if s[4] in catalog_ids]
    catalog_s = st("theorems.run_catalog").total

    direct_calls = sum(st("direct_eval." + fn).calls for fn in DIRECT_EVALUATORS)
    direct_terms = sum(st("direct_eval." + fn).extra.get("terms", 0) for fn in DIRECT_EVALUATORS)
    direct_time = sum(st("direct_eval." + fn).total for fn in DIRECT_EVALUATORS)
    riemann, partition = st("partitions.riemann_sum"), st("partitions.uniform_partition")
    evals, integ, improper = st("expr.eval_expr"), st("integrator.integrate"), st(_IMPROPER)
    log, exp, inverse = (st("elementary." + fn) for fn in ("log_construct", "exp_construct", "inverse_fn"))

    m = {
        "partitions.riemann_sum.calls": riemann.calls,
        "partitions.riemann_sum.samples": riemann.extra.get("samples", 0),
        "partitions.riemann_sum.ns_per_sample": 1e9 * _div(
            riemann.self_time, riemann.extra.get("samples", 0)),
        "partitions.uniform_partition.ns_per_point": 1e9 * _div(
            partition.total, partition.extra.get("points", 0)),
        "expr.parse.us_per_call": per_call("expr.parse", 1e6),
        "expr.eval_expr.points": evals.calls,
        "expr.eval_expr.ns_per_point": 1e9 * _div(evals.self_time, evals.calls),
        "integrator.integrate.calls": integ.calls,
        "integrator.integrate.levels": integ.extra.get("levels", 0),
        "integrator.integrate.samples": integ.extra.get("samples", 0),
        "integrator.integrate.final_share": _div(
            integ.extra.get("n_final", 0), integ.extra.get("samples", 0)),
        "integrator.integrate.nonconverged": integ.extra.get("nonconverged", 0),
        "integrator.improper.calls": improper.calls,
        "integrator.improper.windows": improper.kids,
        "integrator.improper.samples": improper.extra.get("samples", 0),
        "integrator.improper.s": improper.total,
        "integrator.improper.window_converged_ratio": _div(improper.kids_ok, improper.kids),
        "elementary.log_construct.calls": log.calls,
        "elementary.log_construct.us_per_call": per_call("elementary.log_construct", 1e6),
        "elementary.log_construct.bound_met_ratio": _div(log.extra.get("bound_met", 0), log.calls),
        "elementary.exp_construct.calls": exp.calls,
        "elementary.exp_construct.us_per_call": per_call("elementary.exp_construct", 1e6),
        "elementary.exp_construct.log_calls_per_call": _div(exp.kids, exp.calls),
        "elementary.pow_construct.us_per_call": per_call("elementary.pow_construct", 1e6),
        "elementary.hyperbolic.us_per_call": per_call("elementary.hyperbolic", 1e6),
        "elementary.inverse_fn.us_per_call": per_call("elementary.inverse_fn", 1e6),
        # Only arsinh/arcosh/artanh call a traced forward map (hyperbolic);
        # arcsin/arctan bisect platform sin/tan.
        "elementary.inverse_fn.forward_calls_per_call": _div(
            inverse.kids, inverse.extra.get("hyperbolic_kind_calls", 0)),
        "direct_eval.calls": direct_calls,
        "direct_eval.terms": direct_terms,
        "direct_eval.ns_per_term": 1e9 * _div(direct_time, direct_terms),
        "theorems.run_catalog.s": catalog_s,
        # Pool threads share the interpreter lock, so catalog rows are
        # measured in thread CPU seconds; busy_over_wall near 1 means the
        # pool ran one row at a time.
        "theorems.catalog.improper_s": sum(s[8] for s in under_catalog if s[1] == _IMPROPER),
        "theorems.catalog.proper_s": sum(
            s[8] for s in under_catalog if s[1] == "integrator.integrate"),
        "theorems.catalog.busy_over_wall": _div(sum(s[8] for s in under_catalog), catalog_s),
        "theorems.derivative_table.s": st("theorems.derivative_table_check").total,
        "theorems.showcases.s": st("theorems.substitution_showcases").total,
        "cli.main.calls": st("cli.main").calls,
        "cli.main.self_ms": 1e3 * _div(st("cli.main").self_time, st("cli.main").calls),
        "cli.nonzero_exits": st("cli.main").extra.get("nonzero", 0),
    }
    for name, value in layer_self.items():
        m[f"layer.{name}.self_s"] = value
        m[f"layer.{name}.share"] = _div(value, accounted)
    return m
