"""Named verification suites: each bundles one family of checks over a
pinned instance grid and reports per-check pass/fail.  The CLI `verify`
subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


from .bounds import (
    asymptotic_coefficient_interval,
    beta_decomposition,
    coefficients,
    density_lower_bound,
    exact_bandwidth_large_b,
    lex_upper_bound_value,
    unresolved_beta_measure,
)
from .core_graph import (
    Params,
    class_distances,
    diameter,
    distance_upper_bound,
    interval_distance,
    span_classes,
    vertex_count_formula,
)
from .geometry import (
    band_polygon,
    omega_polygon,
    polygon_measure,
    region_vertex_count,
    verify_identities,
)
from .hypergraph import (
    Hypergraph,
    band_graph_as_simple_graph,
    check_cover_equivalence,
    transform_equals_band_graph,
)
from .numbering import (
    bandwidth_of_numbering,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
)
from .solver import exact_bandwidth

__all__ = ["Check", "SuiteResult", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class Check:
    id: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.passed]


def _result(name: str, checks: list[Check]) -> SuiteResult:
    return SuiteResult(name=name, checks=tuple(checks))


# ── individual suites ─────────────────────────────────────────────────


def suite_large_b_exact() -> SuiteResult:
    """Exact search agrees with the closed form ceil((|V|+|C|-2)/2) on
    every small instance where the central set is nonempty."""
    checks = []
    for k in (2, 3):
        for n in range(k, 10):
            b_min = -(-(n + k - 1) // 2)
            for b in range(max(b_min, k - 1, 1), n + 1):
                p = Params(n=n, k=k, b=b)
                if vertex_count_formula(p) > 16:
                    continue
                graph, _ = band_graph_as_simple_graph(p)
                got = exact_bandwidth(graph)
                want = exact_bandwidth_large_b(p)
                checks.append(
                    Check(
                        id=f"exact({n},{k},{b})",
                        passed=got == want,
                        detail=f"search={got} formula={want}",
                    )
                )
    return _result("large-b-exact", checks)


def suite_numberings() -> SuiteResult:
    """Mirror numbering attains the closed form whenever central
    vertices exist (k in 2..4, n <= 40); lex numbering pins the exact
    bandwidth 6 = 2*C(3,2) at b=3 and 12 = 3*C(4,3) at b=4."""
    checks = []
    bad = total = 0
    for k in (2, 3, 4):
        for n in range(k, 41):
            b_min = -(-(n + k - 1) // 2)
            for b in range(max(b_min, k - 1, 1), n + 1):
                p = Params(n=n, k=k, b=b)
                got = bandwidth_of_numbering(mirror_numbering(p))
                want = exact_bandwidth_large_b(p)
                total += 1
                if got != want:
                    bad += 1
                    if bad <= 3:
                        checks.append(
                            Check(
                                id=f"mirror({n},{k},{b})",
                                passed=False,
                                detail=f"bandwidth={got} formula={want}",
                            )
                        )
    checks.append(
        Check(id="mirror(k=2,3,4; n<=40)", passed=bad == 0, detail=f"{total} instances")
    )

    for k, b, pinned, ns in ((2, 3, 6, (50, 100, 200, 400)), (3, 4, 12, (100, 200, 400))):
        for n in ns:
            p = Params(n=n, k=k, b=b)
            lexw = bandwidth_of_numbering(lex_numbering(p))
            lo = density_lower_bound(p)
            ok = lo == lexw == pinned == lex_upper_bound_value(p)
            checks.append(
                Check(
                    id=f"lex-pin({n},{k},{b})",
                    passed=ok,
                    detail=f"lower={lo} lex={lexw} pinned={pinned}",
                )
            )
    return _result("numberings", checks)


def suite_distances() -> SuiteResult:
    """Class BFS (``core_graph.class_distances``) vs the interval-distance
    and diameter formulas (n <= 20, k <= 4), and the two-sided bound
    check: the distance upper bound dominates true distances on every
    properly ordered class pair (n <= 14).

    The BFS runs from every interval class, and from every class where
    n <= 14; each run serves all three checks.  Edgeless instances
    (b = k-1) have no distances and are skipped."""
    checks, bound_checks = [], []
    interval_bad = diameter_bad = 0
    interval_total = diameter_total = pairs_checked = 0
    for n in range(1, 21):
        for k in range(1, 5):
            for b in range(k, n + 1):
                p = Params(n=n, k=k, b=b)
                diameter_total += 1
                want_diam = diameter(p)
                intervals = n - k + 2
                classes = span_classes(p).tolist()
                # the interval classes come first, by ascending lo; the
                # first one reaches everything at maximal depth, so where
                # n > 14 the interval rows alone still give the diameter
                sources = classes if n <= 14 else classes[:intervals]
                rows = [class_distances(p, source).tolist() for source in sources]
                for i in range(intervals):
                    for j in range(i, intervals):
                        interval_total += 1
                        got = rows[i][j]
                        want = interval_distance(i, j, p)
                        if got != want:
                            interval_bad += 1
                            if interval_bad <= 3:
                                checks.append(
                                    Check(
                                        id=f"interval({n},{k},{b}) {i}->{j}",
                                        passed=False,
                                        detail=f"bfs={got} formula={want}",
                                    )
                                )
                got_diam = max(map(max, rows))
                if got_diam != want_diam:
                    diameter_bad += 1
                    label = "bfs" if n <= 14 else "interval-max"
                    checks.append(
                        Check(
                            id=f"diameter({n},{k},{b})",
                            passed=False,
                            detail=f"{label}={got_diam} formula={want_diam}",
                        )
                    )
                if n > 14 or k == 1:
                    continue
                for (lo1, hi1), row in zip(classes, rows):
                    for (lo2, hi2), got in zip(classes, row):
                        if (lo1, hi1) >= (lo2, hi2):
                            continue
                        x = tuple(range(lo1, lo1 + k - 1)) + (hi1,)
                        y = tuple(range(lo2, lo2 + k - 1)) + (hi2,)
                        bound = distance_upper_bound(x, y, p)
                        pairs_checked += 1
                        if got > bound:
                            bound_checks.append(
                                Check(
                                    id=f"bound({n},{k},{b}) {(lo1, hi1)}->{(lo2, hi2)}",
                                    passed=False,
                                    detail=f"bfs={got} bound={bound}",
                                )
                            )
    checks.append(
        Check(
            id="interval-distance(n<=20,k<=4)",
            passed=interval_bad == 0,
            detail=f"{interval_total} pairs checked",
        )
    )
    checks.append(
        Check(
            id="diameter(n<=20,k<=4)",
            passed=diameter_bad == 0,
            detail=f"{diameter_total} instances checked",
        )
    )
    checks.extend(bound_checks)
    checks.append(
        Check(
            id="upper-bound-dominates(n<=14)",
            passed=not bound_checks,
            detail=f"{pairs_checked} ordered class pairs",
        )
    )
    return _result("distances", checks)


def suite_identities() -> SuiteResult:
    """Exact rational identity suite for the pinned betas and k=2..5."""
    checks = []
    for beta_s in ("9/20", "7/20", "1/3", "2/5", "1/2", "3/10"):
        for k in (2, 3, 4, 5):
            report = verify_identities(beta_s, k)
            bad = report.failures()
            checks.append(
                Check(
                    id=f"identities(beta={beta_s},k={k},{report.regime})",
                    passed=not bad,
                    detail=f"{len(report.checks)} identities"
                    + ("" if not bad else f"; first failure: {bad[0].name}"),
                )
            )
    return _result("identities", checks)


def suite_counts() -> SuiteResult:
    """Lattice counting: closed-form totals and the halving of the
    count/n^k vs measure error from n=100 to n=200."""
    checks = []
    for n, k in ((30, 2), (30, 3), (24, 4)):
        total = region_vertex_count(omega_polygon(), n, k)
        checks.append(
            Check(
                id=f"count-omega(n={n},k={k})",
                passed=total == math.comb(n + 1, k),
                detail=f"count={total} expected={math.comb(n + 1, k)}",
            )
        )
    for n, k, b in ((20, 2, 7), (20, 3, 9), (24, 2, 9)):
        p = Params(n=n, k=k, b=b)
        total = region_vertex_count(band_polygon(Fraction(b, n)), n, k)
        checks.append(
            Check(
                id=f"count-band({n},{k},{b})",
                passed=total == vertex_count_formula(p),
                detail=f"count={total} formula={vertex_count_formula(p)}",
            )
        )
    for poly_name, poly_of_n in (
        ("omega", lambda n: omega_polygon()),
        ("band", lambda n: band_polygon(Fraction(2, 5))),
    ):
        for k in (2, 3):
            errs = {}
            for n in (100, 200):
                poly = poly_of_n(n)
                mu = polygon_measure(poly, k)
                count = region_vertex_count(poly, n, k)
                errs[n] = abs(Fraction(count, n**k) - mu)
            ratio = float(errs[200] / errs[100]) if errs[100] else 0.0
            checks.append(
                Check(
                    id=f"halving({poly_name},k={k})",
                    passed=errs[200] <= errs[100] * Fraction(55, 100),
                    detail=f"err(100)={float(errs[100]):.3e} err(200)={float(errs[200]):.3e} ratio={ratio:.3f}",
                )
            )
    return _result("counts", checks)


def suite_asymptotics() -> SuiteResult:
    """Desk-scale stand-in for the asymptotic claims: band-decomposition
    bandwidth over n^k approaches the predicted coefficient.  The paper
    fixes only the limit, so the low-remainder check asks that the exact
    gap to c1 shrink along the ladder, from whichever side."""
    checks = []
    ns = (80, 160, 320, 640)

    beta = Fraction(9, 20)
    c1 = coefficients(beta, 2).c1
    ratios = {}
    for n in ns:
        p = Params(n=n, k=2, b=int(beta * n))
        ratios[n] = Fraction(bandwidth_of_numbering(low_remainder_numbering(p)), n**2)
    gaps = [abs(c1 - ratios[n]) for n in ns]
    checks.append(
        Check(
            id="low-remainder gap to c1 decreasing",
            passed=all(a > b for a, b in zip(gaps, gaps[1:])),
            detail=" ".join(f"{n}:{float(r):.6f}" for n, r in ratios.items()),
        )
    )
    rel = abs(ratios[640] / c1 - 1)
    checks.append(
        Check(
            id="low-remainder within 10% at n=640",
            passed=rel <= Fraction(1, 10),
            detail=f"ratio={float(ratios[640]):.6f} c1={float(c1):.6f} rel={float(rel):.4f}",
        )
    )

    beta = Fraction(7, 20)
    lower_c, upper_c = asymptotic_coefficient_interval(beta, 2)
    ratios = {}
    for n in ns:
        p = Params(n=n, k=2, b=int(beta * n))
        ratios[n] = Fraction(bandwidth_of_numbering(high_remainder_numbering(p)), n**2)
    rel = abs(ratios[640] / upper_c - 1)
    checks.append(
        Check(
            id="high-remainder within 10% of c2+c3 at n=640",
            passed=rel <= Fraction(1, 10),
            detail=f"ratio={float(ratios[640]):.6f} c2+c3={float(upper_c):.6f} rel={float(rel):.4f}",
        )
    )
    floor_ok = all(r >= lower_c * Fraction(9, 10) for r in ratios.values())
    checks.append(
        Check(
            id="high-remainder never below lower coefficient - 10%",
            passed=floor_ok,
            detail=" ".join(f"{n}:{float(r):.6f}" for n, r in ratios.items())
            + f" lower={float(lower_c):.6f}",
        )
    )
    return _result("asymptotics", checks)


def _random_hypergraph(rng: random.Random) -> Hypergraph:
    m = rng.choice((5, 6))
    pool = [c for size in (2, 3) for c in itertools.combinations(range(m), size)]
    edges = rng.sample(pool, rng.randint(1, 8))
    return Hypergraph(m, edges)


def suite_cover_equivalence(random_count: int = 500, seed: int = 7) -> SuiteResult:
    """Edge-cover number equals the transformed graph's vertex-cover
    number: exhaustively for <= 4 vertices (edge sizes 2-3), then on
    seeded random 5-6 vertex instances."""
    checks = []
    bad = 0
    total = 0
    for m in range(1, 5):
        pool = [c for size in (2, 3) for c in itertools.combinations(range(m), size)]
        for mask in range(1 << len(pool)):
            edges = [pool[i] for i in range(len(pool)) if mask >> i & 1]
            h = Hypergraph(m, edges)
            total += 1
            if not check_cover_equivalence(h):
                bad += 1
                if bad <= 3:
                    checks.append(
                        Check(
                            id=f"cover-exhaustive(m={m},edges={edges})",
                            passed=False,
                            detail="numbers differ",
                        )
                    )
    checks.append(
        Check(id="cover-exhaustive(<=4 vertices)", passed=bad == 0, detail=f"{total} instances")
    )

    rng = random.Random(seed)
    bad = 0
    for t in range(random_count):
        h = _random_hypergraph(rng)
        if not check_cover_equivalence(h):
            bad += 1
            if bad <= 3:
                checks.append(
                    Check(
                        id=f"cover-random#{t}",
                        passed=False,
                        detail=f"m={h.vertex_count} edges={[sorted(e) for e in h.edges]}",
                    )
                )
    checks.append(
        Check(
            id=f"cover-random(x{random_count},seed={seed})",
            passed=bad == 0,
            detail=f"{random_count} instances",
        )
    )
    return _result("cover-equivalence", checks)


def suite_transform() -> SuiteResult:
    """The banded hypergraph's weak edge clique graph is G(n, k, b)."""
    checks = []
    bad = 0
    total = 0
    for k in (2, 3):
        for n in range(k, 11):
            for b in range(max(1, k - 1), n + 1):
                p = Params(n=n, k=k, b=b)
                total += 1
                if not transform_equals_band_graph(p):
                    bad += 1
                    checks.append(Check(id=f"transform({n},{k},{b})", passed=False))
    checks.append(
        Check(id="transform(n<=10,k=2..3)", passed=bad == 0, detail=f"{total} instances")
    )
    return _result("transform", checks)


def suite_meta(random_count: int = 100, seed: int = 7) -> SuiteResult:
    """Series partial sums for the unresolved-beta measure, and the
    c2/c3 >= 6 spread on random high-remainder betas."""
    checks = []
    checks.append(
        Check(
            id="measure(2) = 1/15",
            passed=unresolved_beta_measure(2) == Fraction(1, 15),
            detail=str(unresolved_beta_measure(2)),
        )
    )
    checks.append(
        Check(
            id="measure(3) = 1/15 + 1/44",
            passed=unresolved_beta_measure(3) == Fraction(1, 15) + Fraction(1, 44),
            detail=str(unresolved_beta_measure(3)),
        )
    )
    val = unresolved_beta_measure(10**4)
    checks.append(
        Check(
            id="measure(1e4) in (0.1185, 0.1195)",
            passed=Fraction(1185, 10000) < val < Fraction(1195, 10000),
            detail=f"{float(val):.6f}",
        )
    )
    rng = random.Random(seed)
    bad = 0
    for _ in range(random_count):
        q = rng.randint(2, 12)
        thr = Fraction(q - 1, q * q + q - 1)
        top = Fraction(1, q + 1)
        t = Fraction(rng.randint(1, 9999), 10000)
        r = thr + t * (top - thr)
        beta = (1 - r) / q
        dec = beta_decomposition(beta)
        assert dec.q == q and dec.r == r and dec.regime == "high"
        for k in (2, 3, 4, 5):
            co = coefficients(beta, k)
            if co.c2 / co.c3 < 6:
                bad += 1
                checks.append(
                    Check(
                        id=f"spread(beta={beta},k={k})",
                        passed=False,
                        detail=f"c2/c3={float(co.c2 / co.c3):.3f}",
                    )
                )
    checks.append(
        Check(
            id=f"c2/c3 >= 6 (x{random_count} betas, seed={seed})",
            passed=bad == 0,
            detail="k in 2..5 each",
        )
    )
    return _result("meta", checks)


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "large-b-exact": suite_large_b_exact,
    "numberings": suite_numberings,
    "distances": suite_distances,
    "identities": suite_identities,
    "counts": suite_counts,
    "asymptotics": suite_asymptotics,
    "cover-equivalence": suite_cover_equivalence,
    "transform": suite_transform,
    "meta": suite_meta,
}


_RANDOMIZED = ("cover-equivalence", "meta")


def suite_names() -> list[str]:
    return list(SUITES)


def run_suite(
    name: str, random_count: int | None = None, seed: int | None = None
) -> list[SuiteResult]:
    """Run one named suite, or every suite for name='all'.

    random_count/seed apply to the randomized suites (cover-equivalence,
    meta); None keeps each suite's own default.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    kwargs = {}
    if random_count is not None:
        kwargs["random_count"] = random_count
    if seed is not None:
        kwargs["seed"] = seed
    names = list(SUITES) if name == "all" else [name]
    return [SUITES[s](**(kwargs if s in _RANDOMIZED else {})) for s in names]
