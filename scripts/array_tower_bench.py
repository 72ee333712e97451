"""Measure the tower's array kernels against the scalar functions.

Usage: python scripts/array_tower_bench.py [max_size] [repeats]

Prints one JSON document with two parts.

- "sizes": for log(t), exp(t), t^0.5 and cosh(t) compiled at eps 1e-14,
  nanoseconds per element on arrays of 1, 2, 4, ... max_size tags in
  [0.5, 2] (default 16384), through the array kernels and element by
  element, the best of `repeats` runs (default 5).  "break_even" is the
  smallest size from which the kernels are faster at every larger size;
  expr._ARRAY_MIN is set from it.
- "verify": one warm in-process `rfcalc verify` pass at the default tol, with
  the kernels and with every array sent element by element: wall seconds
  (best of `repeats`), and three counts that do not depend on the machine:
  the calls of the scalar log_construct and exp_construct, and the log
  sandwich's square-root steps, one per element per step, scalar and array
  steps together.
"""

import contextlib
import io
import json
import math
import sys
import time

import numpy as np

from rfcalc import cli, elementary, expr

SOURCES = ("log(t)", "exp(t)", "t^0.5", "cosh(t)")
_SCALAR = ("log_construct", "exp_construct")


@contextlib.contextmanager
def array_min(size):
    saved, expr._ARRAY_MIN = expr._ARRAY_MIN, size
    try:
        yield
    finally:
        expr._ARRAY_MIN = saved


class _SandwichSqrt:
    """A stand-in for elementary's math or np: sqrt calls made by the log
    sandwich add one step per element; everything else passes through."""

    def __init__(self, module, steps):
        self._module, self._steps = module, steps

    def __getattr__(self, name):
        return getattr(self._module, name)

    def sqrt(self, x):
        if sys._getframe(1).f_code in _SANDWICHES:
            self._steps["sandwich_steps"] += np.size(x)
        return self._module.sqrt(x)


_SANDWICHES = (elementary._sandwich.__code__, elementary._sandwich_array.__code__)


@contextlib.contextmanager
def counted():
    """Count the scalar log and exp calls, from expr and from inside the tower,
    and the sandwich's square-root steps."""
    calls = dict.fromkeys(_SCALAR, 0)
    saved = [(m, name, getattr(m, name)) for m in (elementary, expr) for name in _SCALAR]

    def wrap(name, fn):
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    for module, name, fn in saved:
        setattr(module, name, wrap(name, fn))
    calls["sandwich_steps"] = 0
    elementary.math = _SandwichSqrt(elementary.math, calls)
    elementary.np = _SandwichSqrt(elementary.np, calls)
    try:
        yield calls
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        elementary.math, elementary.np = math, np


def best(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def per_size(max_size, repeats):
    rng = np.random.default_rng(20261019)
    sizes = [2 ** j for j in range(max_size.bit_length()) if 2 ** j <= max_size]
    out = {}
    for src in SOURCES:
        f = expr.compile(expr.parse(src))
        rows = []
        for n in sizes:
            t = rng.uniform(0.5, 2.0, n)
            with array_min(1):
                kernel = best(lambda: f.fn(t), repeats)
            with array_min(sys.maxsize):
                scalar = best(lambda: f.fn(t), repeats)
            rows.append({"size": n, "kernel_ns_per_element": round(1e9 * kernel / n, 1),
                         "scalar_ns_per_element": round(1e9 * scalar / n, 1)})
        faster = [r["kernel_ns_per_element"] < r["scalar_ns_per_element"] for r in rows]
        even = next((r["size"] for i, r in enumerate(rows) if all(faster[i:])), None)
        out[src] = {"break_even": even, "rows": rows}
    return out


def verify_pass(repeats):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["verify"])

    run()  # the lazy caches (log table, e, node tables) fill before counting
    out = {}
    for label, size in (("kernels", expr._ARRAY_MIN), ("element_by_element", sys.maxsize)):
        with array_min(size):
            with counted() as calls:
                code = run()
            out[label] = {"exit_code": code, "wall_s": round(best(run, repeats), 4),
                          **{f"{name}_calls": calls[name] for name in _SCALAR},
                          "sandwich_steps": calls["sandwich_steps"]}
    return out


def main() -> None:
    max_size = int(sys.argv[1]) if len(sys.argv) > 1 else 16384
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    doc = {"array_min": expr._ARRAY_MIN, "sizes": per_size(max_size, repeats),
           "verify": verify_pass(repeats)}
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
