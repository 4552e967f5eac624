"""Record golden.json: the answer to every instance any seed can draw.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/make_golden.py

Each answer is cross-checked before it is recorded, against closed forms
and independent oracles of the package:

* certify brackets: lower <= upper, and lower <= exact <= upper wherever
  the exact search runs; on large-b instances (2b >= n+k-1) the mirror
  width equals ``exact_bandwidth_large_b`` and the bracket is tight; at
  (k, b) in {(2, 3), (3, 4)} on the narrow rungs the lex width pins
  k*C(b, k), which the density bound meets; on small
  graphs every candidate width equals ``bandwidth_by_edge_scan``;
* sweep widths: at least the density lower bound, and on small graphs
  equal to ``bandwidth_by_edge_scan`` of the row's numbering;
* counts: C(n+1, k) on omega, ``vertex_count_formula`` on the band;
* measures: 1/k! on omega, (q+1)*c2 on the band;
* identities: ``verify_identities(...).all_passed``.

A failed cross-check stops the script before anything is written.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bandgraph import (  # noqa: E402
    Params,
    bandwidth_by_edge_scan,
    bandwidth_of_numbering,
    beta_decomposition,
    cli,
    coefficients,
    density_lower_bound,
    exact_bandwidth_large_b,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
    vertex_count_formula,
)

import workloads  # noqa: E402

EDGE_SCAN_MAX_VERTICES = 1500  # the edge scan is quadratic in |V|
LEX_PINS = {(2, 3), (3, 4)}


def _require(ok: bool, inst, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed for {inst.key}: {what}")


def _cross_check(inst, out) -> None:
    if inst.op == "sweep":
        k, n, b, method = inst.args
        _require(isinstance(out, int), inst, f"sweep row error {out!r}")
        p = Params(n, k, b)
        _require(out >= density_lower_bound(p), inst, "width below the density bound")
        if inst.vertices <= EDGE_SCAN_MAX_VERTICES:
            _require(out == bandwidth_by_edge_scan(cli.NUMBERINGS[method](p)), inst, "edge scan")
    elif inst.op == "certify":
        n, k, b, run_exact = inst.args
        p = Params(n, k, b)
        lower, upper, exact = out
        _require(lower <= upper, inst, "lower > upper")
        if run_exact:
            _require(exact is not None and lower <= exact <= upper, inst, "exact outside bracket")
        if 2 * b >= n + k - 1:
            mirror = bandwidth_of_numbering(mirror_numbering(p))
            _require(mirror == exact_bandwidth_large_b(p) == lower == upper, inst, "large-b value")
        if (k, b) in LEX_PINS and 2 * b < n + k - 1:
            pin = k * math.comb(b, k)
            _require(bandwidth_of_numbering(lex_numbering(p)) == pin == lower == upper, inst, "lex pin")
        if vertex_count_formula(p) <= EDGE_SCAN_MAX_VERTICES:
            candidates = [lex_numbering(p), mirror_numbering(p)]
            if 2 * b <= n:
                low = beta_decomposition(Fraction(b, n)).regime == "low"
                candidates.append((low_remainder_numbering if low else high_remainder_numbering)(p))
            for f in candidates:
                _require(
                    bandwidth_of_numbering(f) == bandwidth_by_edge_scan(f), inst, f"{f.tag} edge scan"
                )
    elif inst.op == "count":
        shape, n, k = inst.args
        if shape == "omega":
            _require(out == math.comb(n + 1, k), inst, "C(n+1, k)")
        else:
            p = Params(n, k, int(Fraction(shape) * n))
            _require(out == vertex_count_formula(p), inst, "vertex_count_formula")
    elif inst.op == "measure":
        shape, k = inst.args
        if shape == "omega":
            expected = Fraction(1, math.factorial(k))
        else:
            expected = (beta_decomposition(shape).q + 1) * coefficients(shape, k).c2
        _require(Fraction(out) == expected, inst, "closed-form measure")
    elif inst.op == "identities":
        _require(out is True, inst, "identities")


def main() -> None:
    values = {}
    for workload in workloads.WORKLOADS:
        instances = workloads.all_instances(workload)
        for i, inst in enumerate(instances):
            _require(inst.refusal() is None, inst, f"refused: {inst.refusal()}")
            out = workloads.run(inst)
            _cross_check(inst, out)
            values[inst.key] = out
            print(f"{workload} {i + 1}/{len(instances)} {inst.key} -> {out}", flush=True)
    lines = [f" {json.dumps(key)}: {json.dumps(values[key])}" for key in sorted(values)]
    workloads.GOLDEN_PATH.write_text(
        f'{{"src_sha256": {json.dumps(workloads.source_digest())},\n"values": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )


if __name__ == "__main__":
    main()
