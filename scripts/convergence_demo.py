"""Print how fast each tag rule converges on a smooth integrand.

Usage: python scripts/convergence_demo.py [expr] [a] [b]
Defaults to cos(t) on [0, 1], whose exact integral is sin(1).
"""

import sys

from rfcalc.expr import compile, parse
from rfcalc.integrator import convergence_report
from rfcalc.partitions import LEFT, MIDPOINT, RIGHT


def main() -> None:
    src = sys.argv[1] if len(sys.argv) > 1 else "cos(t)"
    a = float(sys.argv[2]) if len(sys.argv) > 2 else 0.0
    b = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0
    f = compile(parse(src))
    ns = [2 ** j for j in range(3, 13)]

    print(f"integrand {src} on [{a}, {b}]")
    for rule, label in ((LEFT, "left"), (RIGHT, "right"), (MIDPOINT, "midpoint")):
        rep = convergence_report(f, a, b, rule, ns)
        print(f"\n{label} rule (estimated order {rep.estimated_order:.2f})")
        for n, value, diff in rep.rows:
            d = "" if diff is None else f"{diff:.3e}"
            print(f"  n={n:<6d} value={value:.12f}  diff={d}")


if __name__ == "__main__":
    main()
