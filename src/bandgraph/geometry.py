"""Exact rational geometry on the triangle 0 <= x <= y <= 1.

A vertex X of G(n, k, b) maps to the point (min(X)/n, max(X)/n).  The
number of vertices mapping into a polygon P grows like mu(P) * n^k,

    mu(P) = 1/(k-2)! * integral over P of (y-x)^(k-2) dx dy,

because a lattice point (i, j) carries C(j-i-1, k-2) vertices.  This
module computes mu exactly, provides the landmark points that the
band-decomposition numberings and coefficient identities are built
from, verifies those identities symbolically, and counts lattice
vertices inside arbitrary simple polygons for the convergence
experiments.

Measures are one boundary sum in integers: the corners, scaled by their
common denominator, enter Green's theorem edge by edge, O(E·k) integer
operations for E edges and one Fraction at the end.  The simplicity and
domain tests run on the same integer corners.  The triangle-fan
integral in Fractions is the oracle in ``tests/geometry_oracle.py``.

Counts go slab by slab: a column x = i/n meets the closed polygon in
closed runs of y, a run admits an interval of j, and C(j-i-1, k-2) sums
over it in closed form (hockey stick).  The integer corners are scaled
once more, so that every crossing of a column is an int and the row
bounds are integer floor divisions.  In each open slab between two
corner columns the edges pair up into the runs' bounds (the even-odd
rule), and the row floor of an edge repeats with the period of its
slope's denominator, so the slab's column sums close by Newton's
forward differences.  A corner column meets the closed polygon in the
union of the closed runs of the slabs on either side and its walls.
That is O(E² log E) integer operations for E edges plus
min(p, slab width)·O(k²) per edge and slab, p the slope's denominator:
no Fraction, and for a fixed polygon a cost that does not grow with n,
where a per-point test would take O(n²·E); the per-point test is the
oracle in ``tests/geometry_oracle.py``.

The landmarks of the band decomposition are tabulated once per
``LandmarkPoints``, on first use, as ints over one denominator, and the
identity suite integrates its polygons from that table; the Fraction
formulas are the landmark oracle in ``tests/geometry_oracle.py``.  No
float takes part in any decision.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bounds import BetaDecomposition, beta_decomposition, coefficients, exact_fraction
from .core_graph import comb0

__all__ = [
    "GeometryError",
    "RatPoint",
    "Polygon",
    "LandmarkPoints",
    "landmark_points",
    "polygon_measure",
    "verify_identities",
    "IdentityCheck",
    "IdentityReport",
    "region_vertex_count",
    "omega_polygon",
    "band_polygon",
]


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class RatPoint:
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
class Polygon:
    """Simple polygon given by its cyclic vertex sequence (any orientation)."""

    vertices: tuple[RatPoint, ...]

    def __init__(self, vertices) -> None:
        pts = tuple(
            v if isinstance(v, RatPoint) else RatPoint(exact_fraction(v[0]), exact_fraction(v[1]))
            for v in vertices
        )
        object.__setattr__(self, "vertices", pts)


def omega_polygon() -> Polygon:
    """The whole domain triangle 0 <= x <= y <= 1."""
    return Polygon([(0, 0), (1, 1), (0, 1)])


def band_polygon(beta) -> Polygon:
    """The band 0 <= y - x <= beta inside the domain triangle."""
    beta = exact_fraction(beta)
    return Polygon([(0, 0), (1, 1), (1 - beta, 1), (0, beta)])


# ── landmark points of the band decomposition ─────────────────────────


@dataclass(frozen=True)
class LandmarkPoints:
    """The points the band-decomposition polygons are drawn through.

    With 1 = q*beta + r and gamma = beta*(1 - 1/q):

      A_i = (i*r, i*r + q*(beta-r))   i = 0..q+1   (the fan apexes, on
                                                    the line y = x + q(beta-r))
      B_i = (r + (i-1)*beta, ...)     i = 1..q+1   (on the diagonal)
      C_i = (i*beta, i*beta)          i = 0..q     (on the diagonal)
      D_i = (r + (i-1)*gamma, + beta) i = 1..q+1   (upper band line; low regime)
      E_i = (i*gamma, + beta)         i = 0..q     (upper band line; low regime,
                                                    E_q also in the high regime)
      F_i = (i/(q+1), i/(q+1))        i = 0..q+1   (diagonal, equal spacing)
      G_i = (i(1-beta)/(q+1), i(1-beta)/(q+1) + beta)
                                      i = 0..q+1   (upper band line above F-spacing)
      H1  = (r, beta),  I = (0, 1)

    In the high-remainder regime the apexes A_i sit strictly inside the
    band, D_i/E_i with i < q are not part of any construction and
    requesting them raises; D_{q+1} coincides with G_{q+1} and stays
    available, as do D_q and E_q.

    Every landmark is computed once, on first use, as an int pair over
    the one denominator den(beta)*q*(q+1) (``_grid``); the accessors
    return ``RatPoint``s read from that table.
    """

    dec: BetaDecomposition

    @cached_property
    def _grid(self) -> tuple[int, dict[str, list[tuple[int, int]]]]:
        """The denominator den(beta)*q*(q+1) and every landmark times it:
        one list per letter, indexed 0..q+1 (an index outside a letter's
        range holds the formula's value, which no accessor returns), and
        one-entry lists for H1 and I."""
        q, beta = self.dec.q, self.dec.beta
        den = beta.denominator * q * (q + 1)
        b = beta.numerator * q * (q + 1)  # beta
        r = den - q * b
        g = b // q * (q - 1)  # gamma
        f = den // (q + 1)  # 1/(q+1)
        h = (den - b) // (q + 1)  # (1-beta)/(q+1)
        idx = range(q + 2)
        return den, {
            "A": [(i * r, i * r + q * (b - r)) for i in idx],
            "B": [(r + (i - 1) * b,) * 2 for i in idx],
            "C": [(i * b,) * 2 for i in idx],
            "D": [(r + (i - 1) * g, r + (i - 1) * g + b) for i in idx],
            "E": [(i * g, i * g + b) for i in idx],
            "F": [(i * f,) * 2 for i in idx],
            "G": [(i * h, i * h + b) for i in idx],
            "H1": [(r, b)],
            "I": [(0, den)],
        }

    @cached_property
    def _points(self) -> dict[str, list[RatPoint]]:
        den, table = self._grid
        return {
            name: [RatPoint(Fraction(x, den), Fraction(y, den)) for x, y in pts]
            for name, pts in table.items()
        }

    def _at(self, name: str, i: int, lo: int, hi: int) -> RatPoint:
        if not lo <= i <= hi:
            raise GeometryError(f"{name}_{i} undefined; valid range {lo}..{hi}")
        if name in ("D", "E") and self.dec.regime == "high" and i < self.dec.q:
            raise GeometryError(f"{name}_{i} is a low-remainder landmark (regime is high)")
        return self._points[name][i]

    def A(self, i: int) -> RatPoint:
        return self._at("A", i, 0, self.dec.q + 1)

    def B(self, i: int) -> RatPoint:
        return self._at("B", i, 1, self.dec.q + 1)

    def C(self, i: int) -> RatPoint:
        return self._at("C", i, 0, self.dec.q)

    def D(self, i: int) -> RatPoint:
        return self._at("D", i, 1, self.dec.q + 1)

    def E(self, i: int) -> RatPoint:
        return self._at("E", i, 0, self.dec.q)

    def F(self, i: int) -> RatPoint:
        return self._at("F", i, 0, self.dec.q + 1)

    def G(self, i: int) -> RatPoint:
        return self._at("G", i, 0, self.dec.q + 1)

    @property
    def H1(self) -> RatPoint:
        return self._points["H1"][0]

    @property
    def I(self) -> RatPoint:
        return self._points["I"][0]


def landmark_points(dec: BetaDecomposition | Fraction | str) -> LandmarkPoints:
    return LandmarkPoints(dec=beta_decomposition(dec))


# ── exact measure ─────────────────────────────────────────────────────


def _scaled(pts: tuple[RatPoint, ...]) -> tuple[int, list[tuple[int, int]]]:
    """The corners' common denominator D and the corners times D, as ints."""
    d = math.lcm(*(c.denominator for p in pts for c in (p.x, p.y)))
    return d, [tuple(c.numerator * (d // c.denominator) for c in (p.x, p.y)) for p in pts]


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    """The cross product (a - o) x (b - o)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _within_box(p: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _segments_meet(a1, a2, b1, b2) -> bool:
    """Whether two closed segments share a point, touching included:
    neither has both ends strictly on one side of the other's line, and
    where both lie on one line, one has an end within the other's box."""
    d1, d2 = _cross(a1, a2, b1), _cross(a1, a2, b2)
    if d1 * d2 > 0 or _cross(b1, b2, a1) * _cross(b1, b2, a2) > 0:
        return False
    if d1 == d2 == 0:
        return _within_box(b1, a1, a2) or _within_box(b2, a1, a2) or _within_box(a1, b1, b2)
    return True


def _simple_in_domain(d: int, corners: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The corners, scaled by d, with consecutive duplicates dropped
    (cyclically).  Where three or more remain, refuse one outside the
    domain and two edges that meet other than at a shared corner."""
    corners = [p for i, p in enumerate(corners) if p != corners[i - 1]]
    m = len(corners)
    if m < 3:
        return corners
    for x, y in corners:
        if not 0 <= x <= y <= d:
            raise GeometryError(f"vertex ({Fraction(x, d)}, {Fraction(y, d)}) outside 0 <= x <= y <= 1")
    for i in range(m):
        a1, a2 = corners[i], corners[(i + 1) % m]
        for j in range(i + 2, m - (i == 0)):  # edges i and j share no corner
            if _segments_meet(a1, a2, corners[j], corners[(j + 1) % m]):
                raise GeometryError("polygon edges cross or touch; polygon must be simple")
    return corners


def _measure(d: int, corners: list[tuple[int, int]], k: int) -> Fraction:
    """mu of the polygon with these corners times d, k >= 2: the boundary
    sum of ``polygon_measure``, after ``_simple_in_domain``."""
    corners = _simple_in_domain(d, corners)
    if len(corners) < 3:
        return Fraction(0)
    total = 0
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        d0, d1 = y0 - x0, y1 - x1
        total += (x1 - x0) * sum(d0**i * d1 ** (k - 1 - i) for i in range(k))
    return Fraction(abs(total), math.factorial(k) * d**k)


def polygon_measure(poly: Polygon, k: int) -> Fraction:
    """Exact mu(poly) = 1/(k-2)! * integral of (y-x)^(k-2), k >= 2.

    Consecutive duplicate vertices are dropped; fewer than 3 distinct
    corners means a degenerate polygon of measure 0.  Either winding
    direction is accepted.

    One boundary sum in integers: with the corners scaled by their
    common denominator D to (X, Y) and d = Y - X, Green's theorem with
    F = (y-x)^(k-1)/(k-1) gives

        mu = |sum over edges (X1 - X0) * sum_{i<k} d0^i * d1^(k-1-i)| / (k! * D^k),

    O(E·k) integer operations for E edges.  The integrand is positive
    almost everywhere in the domain, so the sign of the sum is the
    winding (negative for counterclockwise) and ``abs`` normalizes it.
    """
    if k < 2:
        raise GeometryError("measure needs k >= 2")
    return _measure(*_scaled(poly.vertices), k)


# ── identity suite tying measures to the growth coefficients ──────────


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: Fraction
    rhs: Fraction

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class IdentityReport:
    beta: Fraction
    k: int
    regime: str
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[IdentityCheck]:
        return [c for c in self.checks if not c.passed]


def verify_identities(dec: BetaDecomposition | Fraction | str, k: int) -> IdentityReport:
    """Exact-equality suite relating polygon measures to c1, c2, c3.

    Every identity is evaluated by integrating an explicitly constructed
    polygon and comparing against the closed-form coefficient expression
    as exact rationals.  Regime-specific polygons (the quadrangle chain
    along the band in the low regime, the apex-triangle chain in the
    high regime) are checked only where they exist.
    """
    dec = beta_decomposition(dec)
    co = coefficients(dec, k)
    q, r, beta = dec.q, dec.r, dec.beta
    c1, c2, c3 = co.c1, co.c2, co.c3
    checks: list[IdentityCheck] = []

    def add(name: str, lhs: Fraction, rhs: Fraction) -> None:
        checks.append(IdentityCheck(name=name, lhs=lhs, rhs=rhs))

    # The landmarks as int pairs over one denominator (see LandmarkPoints).
    den, table = landmark_points(dec)._grid
    A, B, C, D, E, F, G = (table[name] for name in "ABCDEFG")

    def mu(*corners: tuple[int, int]) -> Fraction:
        return _measure(den, list(corners), k)

    # Each polygon is integrated once; the families that several checks
    # read: the band trapezoid, its slices, the apex triangles right of F
    # (0 stands for the empty one at i = 0) and the last parallelogram.
    band = mu(F[0], F[q + 1], G[q + 1], G[0])
    slices = [mu(F[i], F[i + 1], G[i + 1], G[i]) for i in range(q + 1)]
    right_of_f = [Fraction(0)] + [mu(A[i], F[i], C[i]) for i in range(1, q + 1)]
    last_parallelogram = mu(C[q], B[q + 1], D[q + 1], E[q])

    # full band trapezoid and its equal slices
    add("band = (q+1)*c2", band, (q + 1) * c2)
    for i, band_slice in enumerate(slices):
        add(f"band slice {i} = c2", band_slice, c2)

    # apex triangles and their F-splits
    for i in range(1, q + 1):
        add(f"apex triangle {i} = (q+1)*c3", mu(A[i], B[i], C[i]), (q + 1) * c3)
        add(f"apex triangle {i} left of F = (q+1-i)*c3", mu(A[i], B[i], F[i]), (q + 1 - i) * c3)
        add(f"apex triangle {i} right of F = i*c3", right_of_f[i], i * c3)
    add("corner triangle = (q+1)*c3/q^(k-1)", mu(B[1], C[1], table["H1"][0]), (q + 1) * c3 / q ** (k - 1))

    parallelogram_value = beta ** (k - 1) * r / math.factorial(k - 1)
    if dec.regime == "low":
        parallelograms = [mu(C[i], B[i + 1], D[i + 1], E[i]) for i in range(q)] + [last_parallelogram]
        for i, parallelogram in enumerate(parallelograms):
            add(f"band parallelogram {i} = beta^(k-1)*r/(k-1)!", parallelogram, parallelogram_value)
        add("band parallelogram value = (q+1)*c2 - q*c1", parallelogram_value, (q + 1) * c2 - q * c1)
        for i in range(1, q + 1):
            quadrangle = mu(B[i], C[i], E[i], D[i])
            add(f"band quadrangle {i} = (q+1)*(c1-c2)", quadrangle, (q + 1) * (c1 - c2))
            add(f"chain {i}: quadrangle + parallelogram = c1", quadrangle + parallelograms[i], c1)
    else:
        add("last band parallelogram = beta^(k-1)*r/(k-1)!", last_parallelogram, parallelogram_value)
        for i in range(q):
            add(
                f"chain {i}: slice + triangle difference = c2+c3",
                slices[i] + right_of_f[i + 1] - right_of_f[i],
                c2 + c3,
            )

    # cross checks against the coefficient module (regime independent)
    add("band minus last parallelogram = q*c1", band - last_parallelogram, q * c1)
    add("truncated band = q*c1", mu(F[0], C[q], E[q], G[0]), q * c1)

    return IdentityReport(beta=beta, k=k, regime=dec.regime, checks=tuple(checks))


# ── lattice counting ──────────────────────────────────────────────────


def _span_sum(i: int, lo: int, hi: int, k: int) -> int:
    """Vertices with min = i and max in lo..hi, for i <= lo <= hi:
    the sum of C(j-i-1, k-2) over j, by the hockey-stick identity
    (at k = 1, 1 when lo = i and 0 otherwise)."""
    return comb0(hi - i, k - 1) - comb0(lo - 1 - i, k - 1)


def _floor_binomial_sum(a: int, c: int, row: int, first: int, last: int, r: int) -> int:
    """The sum of C(floor((a*i + c)/row) - i, r) over first <= i <= last,
    where every argument is >= 0.

    With g = gcd(a, row) and p = row/g, the argument grows by a/g - p
    when i grows by p, so on each residue class mod p it is linear in
    the class index t and the binomial is a polynomial of degree r in
    t.  Newton's forward differences sum it from its first r + 1 values,
    sum over t < T of f(t) = sum_j Delta^j f(0) * C(T, j+1); a class of
    at most r + 1 terms is summed directly.  That is min(p, last-first+1)
    classes at O(r²) integer operations each.
    """
    g = math.gcd(a, row)
    p = row // g
    step = a // g - p
    total = 0
    for i0 in range(first, min(first + p, last + 1)):
        terms = (last - i0) // p + 1
        v0 = (a * i0 + c) // row - i0
        values = [math.comb(v0 + step * t, r) for t in range(min(terms, r + 1))]
        if terms <= r + 1:
            total += sum(values)
            continue
        for j in range(r + 1):
            total += values[0] * math.comb(terms, j + 1)
            values = [y1 - y0 for y0, y1 in zip(values, values[1:])]
    return total


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"lattice counts need an integer {name}, got {value!r}") from None


def region_vertex_count(poly: Polygon, n: int, k: int) -> int:
    """Number of vertices X of G(n, k, n) with (min/n, max/n) in the
    closed polygon; n and k must be ints (numpy ints are taken).

    Each admitted lattice pair (i, j) contributes C(j-i-1, k-2) vertices,
    and a run of j in column i sums in closed form (``_span_sum``).  It
    runs on ints: with the corners scaled by their common denominator D
    and L the lcm of the edges' nonzero |X1 - X0|, x is scaled by n·D,
    so column i sits at i·D, and y by n·D·L, so that every crossing of a
    column is an int and row j sits at j·D·L.

    In the open slab between two consecutive corner x (those through a
    corner) no edges cross, so the edges spanning it, sorted by their
    y at its midpoint, pair up bottom to top (the even-odd rule) into
    lower and upper bounds L(i) < U(i) of the runs, and column i adds
    C(floor(U(i)/row) - i, k-1) - C(ceil(L(i)/row) - 1 - i, k-1).  Each
    of the two sums over the slab is periodic in i (``_floor_binomial_sum``).
    A lower edge that meets the diagonal inside a slab lies on it, and
    adds 0.  A point of the closed polygon on a corner column is a limit
    of interior points of a slab on either side, or lies on a slanted
    edge, which bounds a pair of an adjacent slab, or on a vertical edge
    (a wall).  So the column meets the polygon in the union of its walls
    and the closed runs [L(x), U(x)] of the adjacent slabs' pairs, whose
    rows are summed once each.  That is O(E² log E) integer operations
    for E edges plus, for each edge in each slab, min(p, slab width)·O(k²),
    with p the denominator of the edge's slope (1 for the omega and band
    polygons): for a fixed polygon the cost does not grow with n.  The
    boundary counts as inside.
    """
    n, k = _index("n", n), _index("k", k)
    if n < 1 or k < 1:
        raise GeometryError(f"lattice counts need n >= 1 and k >= 1, got n = {n}, k = {k}")
    d, corners = _scaled(poly.vertices)
    corners = _simple_in_domain(d, corners)
    if len(corners) < 3:
        return 0
    pairs = list(zip(corners, corners[1:] + corners[:1]))
    ell = math.lcm(*(abs(x1 - x0) for (x0, _), (x1, _) in pairs if x1 != x0))
    row = d * ell
    edges = [(x0 * n, y0 * n * ell, x1 * n, y1 * n * ell) for (x0, y0), (x1, y1) in pairs]
    walls = [(x0, min(y0, y1), max(y0, y1)) for x0, y0, x1, y1 in edges if x0 == x1]
    slanted = []
    for x0, y0, x1, y1 in edges:
        if x0 != x1:
            # exact slope: x1 - x0 = n*(X1 - X0) divides n*L, and y1 - y0 is a multiple of n*L
            slope = (y1 - y0) // (x1 - x0)
            slanted.append((min(x0, x1), max(x0, x1), slope, y0 - x0 * slope))
    xs = sorted({x for x, _, _, _ in edges})
    # the closed runs of each corner column on the lattice: its walls, and
    # below, the runs of the slab pairs on either side at its x
    runs = {x: [(y0, y1) for x0, y0, y1 in walls if x0 == x] for x in xs if x % d == 0}
    total = 0
    for xa, xb in zip(xs, xs[1:]):
        first, last = xa // d + 1, (xb - 1) // d
        spanning = sorted(
            (e for e in slanted if e[0] <= xa and xb <= e[1]),
            key=lambda e: e[2] * (xa + xb) + 2 * e[3],
        )
        # at column i an edge sits at y = (slope*D)*i + icpt; ceil(y/row) - 1 = floor((y-1)/row)
        for (_, _, s0, c0), (_, _, s1, c1) in zip(spanning[::2], spanning[1::2]):
            for x in (xa, xb):
                if x in runs:
                    runs[x].append((s0 * x + c0, s1 * x + c1))
            total += _floor_binomial_sum(s1 * d, c1, row, first, last, k - 1)
            if (s0 * d, c0) != (row, 0):  # not the diagonal
                total -= _floor_binomial_sum(s0 * d, c0 - 1, row, first, last, k - 1)
    for x, column in runs.items():
        i = x // d
        top = i - 1  # the last row counted in this column
        for y0, y1 in sorted(column):
            lo, hi = max(top + 1, -(-y0 // row)), min(n, y1 // row)
            if lo <= hi:
                total += _span_sum(i, lo, hi, k)
                top = hi
    return total
