"""Test oracles: polygon measures by triangle fans, lattice counts one
lattice point at a time, landmarks from their Fraction formulas.

``polygon_measure`` is the measure the library computed before its
integer boundary sum: the simplicity test and the shoelace orientation
on ``Fraction`` corners, then a fan of triangles from the first corner,
each integrated over the reference simplex, O(E·k²) ``Fraction`` terms.

``region_vertex_count`` is the per-point count the library used before
it counted column by column: every lattice point (i, j) of the domain
triangle takes an exact boundary test against every edge, then, if it
is off the boundary, the even-odd rule with a horizontal ray.

``Landmarks`` is the landmark oracle: the Fraction formulas of
``LandmarkPoints`` before the library tabulated every landmark once as
ints over one denominator, with the same index and regime refusals.

They share no code with ``bandgraph.geometry`` beyond ``Polygon``,
``GeometryError``, ``RatPoint`` and ``class_size`` (``Landmarks`` reads q, r
and beta from the ``BetaDecomposition`` it is given), so the tests compare
the library against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from bandgraph.bounds import BetaDecomposition
from bandgraph.core_graph import class_size
from bandgraph.geometry import GeometryError, Polygon, RatPoint


# ── measures by triangle fans ─────────────────────────────────────────


def cleaned(poly: Polygon) -> tuple[RatPoint, ...]:
    """The corners with consecutive duplicates (cyclically) removed."""
    return tuple(p for i, p in enumerate(poly.vertices) if p != poly.vertices[i - 1])


def _cross(o: RatPoint, a: RatPoint, b: RatPoint) -> Fraction:
    """The cross product (a - o) x (b - o)."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _within_box(p: RatPoint, a: RatPoint, b: RatPoint) -> bool:
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(a.y, b.y)


def segments_meet(a1: RatPoint, a2: RatPoint, b1: RatPoint, b2: RatPoint) -> bool:
    """Whether two closed segments share a point, touching included."""
    d1, d2 = _cross(a1, a2, b1), _cross(a1, a2, b2)
    d3, d4 = _cross(b1, b2, a1), _cross(b1, b2, a2)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0) or (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return False
    if d1 == d2 == 0:
        return _within_box(b1, a1, a2) or _within_box(b2, a1, a2) or _within_box(a1, b1, b2)
    return True


def validate_simple_in_domain(pts: tuple[RatPoint, ...]) -> None:
    """Raise ``GeometryError``, with the library's messages, for a corner
    outside 0 <= x <= y <= 1 or two edges that meet other than at a
    shared corner."""
    for p in pts:
        if not (0 <= p.x <= p.y <= 1):
            raise GeometryError(f"vertex ({p.x}, {p.y}) outside 0 <= x <= y <= 1")
    m = len(pts)
    for i in range(m):
        for j in range(i + 2, m - (i == 0)):
            if segments_meet(pts[i], pts[(i + 1) % m], pts[j], pts[(j + 1) % m]):
                raise GeometryError("polygon edges cross or touch; polygon must be simple")


def signed_area2(pts: tuple[RatPoint, ...]) -> Fraction:
    """Twice the signed (shoelace) area; > 0 for counterclockwise."""
    return sum(
        (p.x * q.y - q.x * p.y for p, q in zip(pts, pts[1:] + pts[:1])), Fraction(0)
    )


def triangle_integral(p0: RatPoint, p1: RatPoint, p2: RatPoint, m: int) -> Fraction:
    """Signed integral of (y-x)^m over the triangle p0 p1 p2.

    Substituting P = p0 + u*(p1-p0) + v*(p2-p0) turns the integrand into
    (a + b*u + c*v)^m over the reference simplex u, v >= 0, u+v <= 1,
    where a, b, c are differences of y-x at the corners; the monomial
    integrals over the simplex are p! q! / (p+q+2)!.
    """
    a = p0.y - p0.x
    b = (p1.y - p1.x) - a
    c = (p2.y - p2.x) - a
    jac = _cross(p0, p1, p2)
    mf = math.factorial(m)
    total = Fraction(0)
    for pw_b in range(m + 1):
        for pw_c in range(m + 1 - pw_b):
            coeff = Fraction(mf, math.factorial(m - pw_b - pw_c) * math.factorial(pw_b + pw_c + 2))
            total += coeff * a ** (m - pw_b - pw_c) * b**pw_b * c**pw_c
    return jac * total


def polygon_measure(poly: Polygon, k: int) -> Fraction:
    """mu(poly) = 1/(k-2)! * integral of (y-x)^(k-2), k >= 2, as a fan of
    triangles from the first corner, counterclockwise."""
    pts = cleaned(poly)
    if len(pts) < 3:
        return Fraction(0)
    validate_simple_in_domain(pts)
    if signed_area2(pts) < 0:
        pts = pts[::-1]
    total = sum(
        (triangle_integral(pts[0], p, q, k - 2) for p, q in zip(pts[1:], pts[2:])), Fraction(0)
    )
    return total / math.factorial(k - 2)


# ── lattice counts point by point ─────────────────────────────────────


def point_on_boundary(px: Fraction, py: Fraction, pts: tuple[RatPoint, ...]) -> bool:
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        if (b.x - a.x) * (py - a.y) - (b.y - a.y) * (px - a.x) != 0:
            continue
        if min(a.x, b.x) <= px <= max(a.x, b.x) and min(a.y, b.y) <= py <= max(a.y, b.y):
            return True
    return False


def point_strictly_inside(px: Fraction, py: Fraction, pts: tuple[RatPoint, ...]) -> bool:
    """Even-odd test with a rightward ray; boundary points must be handled first."""
    inside = False
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        if (a.y <= py) == (b.y <= py):
            continue
        x_int = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
        if px < x_int:
            inside = not inside
    return inside


def region_vertex_count(poly: Polygon, n: int, k: int) -> int:
    """Vertices of G(n, k, n) whose (min/n, max/n) lies in the closed
    polygon, summed point by point over all O(n²) lattice points."""
    pts = cleaned(poly)
    if len(pts) < 3:
        return 0
    total = 0
    for i in range(n + 1):
        for j in range(i, n + 1):
            px, py = Fraction(i, n), Fraction(j, n)
            if point_on_boundary(px, py, pts) or point_strictly_inside(px, py, pts):
                total += class_size(i, j, k)
    return total


# ── landmarks from their Fraction formulas ────────────────────────────


@dataclass(frozen=True)
class Landmarks:
    """The landmark oracle: each call computes its point afresh from the
    formulas in the ``LandmarkPoints`` docstring, in Fractions."""

    dec: BetaDecomposition

    @property
    def gamma(self) -> Fraction:
        return self.dec.beta * (1 - Fraction(1, self.dec.q))

    def _check(self, name: str, i: int, lo: int, hi: int) -> None:
        if not lo <= i <= hi:
            raise GeometryError(f"{name}_{i} undefined; valid range {lo}..{hi}")

    def _low_only(self, name: str, i: int) -> None:
        if self.dec.regime == "high" and i < self.dec.q:
            raise GeometryError(f"{name}_{i} is a low-remainder landmark (regime is high)")

    def A(self, i: int) -> RatPoint:
        q, r, beta = self.dec.q, self.dec.r, self.dec.beta
        self._check("A", i, 0, q + 1)
        return RatPoint(i * r, i * r + q * (beta - r))

    def B(self, i: int) -> RatPoint:
        self._check("B", i, 1, self.dec.q + 1)
        d = self.dec.r + (i - 1) * self.dec.beta
        return RatPoint(d, d)

    def C(self, i: int) -> RatPoint:
        self._check("C", i, 0, self.dec.q)
        return RatPoint(i * self.dec.beta, i * self.dec.beta)

    def D(self, i: int) -> RatPoint:
        self._check("D", i, 1, self.dec.q + 1)
        self._low_only("D", i)
        d = self.dec.r + (i - 1) * self.gamma
        return RatPoint(d, d + self.dec.beta)

    def E(self, i: int) -> RatPoint:
        self._check("E", i, 0, self.dec.q)
        self._low_only("E", i)
        return RatPoint(i * self.gamma, i * self.gamma + self.dec.beta)

    def F(self, i: int) -> RatPoint:
        self._check("F", i, 0, self.dec.q + 1)
        d = Fraction(i, self.dec.q + 1)
        return RatPoint(d, d)

    def G(self, i: int) -> RatPoint:
        self._check("G", i, 0, self.dec.q + 1)
        d = Fraction(i, self.dec.q + 1) * (1 - self.dec.beta)
        return RatPoint(d, d + self.dec.beta)

    @property
    def H1(self) -> RatPoint:
        return RatPoint(self.dec.r, self.dec.beta)

    @property
    def I(self) -> RatPoint:
        return RatPoint(Fraction(0), Fraction(1))
