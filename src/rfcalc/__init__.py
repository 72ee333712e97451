"""Riemann-sum calculus toolkit.

Integration comes first: Riemann sums over tagged partitions, an n-doubling
integrator with Cauchy stopping, and elementary functions built from
integrals instead of libm: a certified log (Simpson's sum on geometric
partitions, enclosed by its remainder), exp by Newton's method on it,
powers and hyperbolics from exp, the inverse hyperbolics as closed forms
through the log, and arcsin/arctan by bisection.  Theorem checkers and an
integral catalog turn the usual identities into reports with explicit
tolerances.
"""

from .direct_eval import (
    SandwichPair,
    csc2_riemann_sum,
    demoivre_pow,
    demoivre_riemann_sum,
    exp_geometric_closed_form,
    exp_geometric_sum,
    faulhaber_left_sum,
    log_limit_bounds,
    power_sum,
    sec2_riemann_sum,
    sectan_riemann_sum,
    sectan_telescope,
    telescope_csc2,
    telescope_sec2,
)
from .elementary import (
    ApproxValue,
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
from .expr import eval_expr, parse, random_expr, substitute, to_source
from .integrator import (
    DEFAULT_MAX_N,
    ConvergenceReport,
    IntegrationResult,
    convergence_report,
    cumulative,
    integrate,
    integrate_improper,
)
from .partitions import (
    LEFT,
    MIDPOINT,
    RIGHT,
    Interval,
    TaggedPartition,
    TagRule,
    custom_rule,
    geometric_partition,
    mesh,
    riemann_sum,
    uniform_partition,
)
from .theorems import (
    CheckReport,
    check_parts,
    check_u_sub,
    derivative_table_check,
    ftc_forward_check,
    ftc_reverse_check,
    functional_equation_check,
    product_chain_check,
    run_catalog,
    substitution_showcases,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxValue",
    "CheckReport",
    "ConvergenceReport",
    "DEFAULT_MAX_N",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "HypothesisViolation",
    "IntegrationResult",
    "Interval",
    "InvalidArgumentError",
    "LEFT",
    "MIDPOINT",
    "ParseError",
    "RIGHT",
    "SandwichPair",
    "TagRule",
    "TaggedPartition",
    "check_parts",
    "check_u_sub",
    "convergence_report",
    "csc2_riemann_sum",
    "cumulative",
    "custom_rule",
    "demoivre_pow",
    "demoivre_riemann_sum",
    "derivative_table_check",
    "e_const",
    "eval_expr",
    "exp_construct",
    "exp_geometric_closed_form",
    "exp_geometric_sum",
    "faulhaber_left_sum",
    "ftc_forward_check",
    "ftc_reverse_check",
    "functional_equation_check",
    "geometric_partition",
    "hyperbolic",
    "integrate",
    "integrate_improper",
    "inverse_fn",
    "log_construct",
    "log_limit_bounds",
    "mesh",
    "parse",
    "pow_construct",
    "power_sum",
    "product_chain_check",
    "random_expr",
    "riemann_sum",
    "run_catalog",
    "sec2_riemann_sum",
    "sectan_riemann_sum",
    "sectan_telescope",
    "substitute",
    "substitution_showcases",
    "telescope_csc2",
    "telescope_sec2",
    "to_source",
    "uniform_partition",
    "__version__",
]
