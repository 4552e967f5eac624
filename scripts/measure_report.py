#!/usr/bin/env python3
"""Print the exact-rational region measures and identity checks for one
beta, plus lattice-count convergence toward those measures.

Examples:
    python3 scripts/measure_report.py --beta 9/20 --k 2
    python3 scripts/measure_report.py --beta 7/20 --k 3 --n 60,120,240
"""

import argparse
import sys
from fractions import Fraction

from bandgraph.bounds import beta_decomposition, coefficients, unresolved_beta_measure
from bandgraph.geometry import (
    band_polygon,
    omega_polygon,
    polygon_measure,
    region_vertex_count,
    verify_identities,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--beta", required=True, help="b/n as a fraction, e.g. 9/20")
    ap.add_argument("--k", type=int, default=2, help="subset size (default 2)")
    ap.add_argument(
        "--n",
        default="50,100,200",
        help="comma-separated n values for the lattice-count comparison",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    beta = Fraction(args.beta)
    k = args.k
    dec = beta_decomposition(beta)
    co = coefficients(beta, k)

    print(f"beta = {beta}, k = {k}: q = {dec.q}, r = {dec.r}, {dec.regime} remainder")
    print(f"  c1 = {co.c1} ~ {float(co.c1):.8f}")
    print(f"  c2 = {co.c2} ~ {float(co.c2):.8f}")
    print(f"  c3 = {co.c3} ~ {float(co.c3):.8f}")

    omega = polygon_measure(omega_polygon(), k)
    band = polygon_measure(band_polygon(beta), k)
    print(f"  measure(omega) = {omega} ~ {float(omega):.8f}")
    print(f"  measure(band)  = {band} ~ {float(band):.8f}")

    report = verify_identities(beta, k)
    width = max(len(c.name) for c in report.checks)
    print("identity checks (exact rational):")
    for c in report.checks:
        mark = "ok " if c.passed else "BAD"
        print(f"  [{mark}] {c.name:<{width}}  {c.lhs} = {c.rhs}")

    print("lattice counts vs measure(band):")
    for tok in args.n.split(","):
        n = int(tok)
        count = region_vertex_count(band_polygon(beta), n, k)
        err = abs(Fraction(count, n**k) - band)
        print(f"  n = {n:6d}  count = {count:12d}  count/n^k - measure = {float(err):.3e}")

    tail = unresolved_beta_measure(10_000)
    print(f"measure of betas with open asymptotics (q <= 10000): ~ {float(tail):.6f}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
