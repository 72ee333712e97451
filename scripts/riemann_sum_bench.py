"""Measure riemann_sum's reduction: math.fsum of a list against the block
reduction of partitions._exact_sum.

Usage: python scripts/riemann_sum_bench.py [max_size] [repeats]

For n = 64, 128, ... max_size (default 131072) it takes the midpoint
Riemann-sum terms of exp(t), 1/t and t^2 sin(3t) on [1, 2] and prints one
JSON document: per n, the nanoseconds per term of

- "fsum": math.fsum(terms.tolist()), the reduction before _exact_sum;
- "block": _exact_sum with its crossover set to 1, so that every size goes
  through the block reduction;
- "riemann_sum": the whole primitive as shipped, sampling included;

each the best of `repeats` runs (default 5) over the three integrands.
"crossover" is the smallest n from which "block" beats "fsum" at every
larger n; partitions._CROSSOVER is set from it.
"""

import json
import math
import sys
import time

import numpy as np

from rfcalc import partitions
from rfcalc.partitions import ArrayFn, Interval, riemann_sum, uniform_partition

INTEGRANDS = (np.exp, np.reciprocal, lambda t: t * t * np.sin(3.0 * t))


def block_sum(x):
    saved, partitions._CROSSOVER = partitions._CROSSOVER, 1
    try:
        return partitions._exact_sum(x)
    finally:
        partitions._CROSSOVER = saved


def ns_per_term(fn, args, n, repeats):
    loops = max(1, 2 ** 16 // n)
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            for arg in args:
                fn(*arg)
        best = min(best, time.perf_counter() - t0)
    return round(best / (loops * n * len(args)) * 1e9, 2)


def main(argv):
    max_size = int(argv[1]) if len(argv) > 1 else 2 ** 17
    repeats = int(argv[2]) if len(argv) > 2 else 5
    rows = []
    n = 64
    while n <= max_size:
        p = uniform_partition(Interval(1.0, 2.0), n)
        terms = [(f(p.tags) * np.diff(p.points),) for f in INTEGRANDS]
        for (x,) in terms:
            if block_sum(x) != math.fsum(x.tolist()):
                raise SystemExit(f"block reduction differs from fsum at n = {n}")
        rows.append({
            "n": n,
            "fsum": ns_per_term(lambda x: math.fsum(x.tolist()), terms, n, repeats),
            "block": ns_per_term(block_sum, terms, n, repeats),
            "riemann_sum": ns_per_term(
                riemann_sum, [(ArrayFn(f), p) for f in INTEGRANDS], n, repeats),
        })
        n *= 2
    crossover = None
    for row in reversed(rows):
        if row["block"] >= row["fsum"]:
            break
        crossover = row["n"]
    print(json.dumps({"sizes": rows, "crossover": crossover,
                      "shipped_crossover": partitions._CROSSOVER}, indent=1))


if __name__ == "__main__":
    main(sys.argv)
