"""Exact rational geometry on the triangle 0 <= x <= y <= 1.

A vertex X of G(n, k, b) maps to the point (min(X)/n, max(X)/n).  The
number of vertices mapping into a polygon P grows like mu(P) * n^k,

    mu(P) = 1/(k-2)! * integral over P of (y-x)^(k-2) dx dy,

because a lattice point (i, j) carries C(j-i-1, k-2) vertices.  This
module computes mu exactly (Fractions end to end), provides the
landmark points that the band-decomposition numberings and coefficient
identities are built from, verifies those identities symbolically, and
counts lattice vertices inside arbitrary polygons for the convergence
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import BetaDecomposition, beta_decomposition, coefficients
from .core_graph import class_size

__all__ = [
    "GeometryError",
    "RatPoint",
    "Polygon",
    "LandmarkPoints",
    "landmark_points",
    "polygon_measure",
    "trapezoid_measure",
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

    def __sub__(self, other: "RatPoint") -> tuple[Fraction, Fraction]:
        return (self.x - other.x, self.y - other.y)


def _pt(x, y) -> RatPoint:
    return RatPoint(Fraction(x), Fraction(y))


def _cross(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class Polygon:
    """Simple polygon given by its cyclic vertex sequence (any orientation)."""

    vertices: tuple[RatPoint, ...]

    def __init__(self, vertices) -> None:
        pts = tuple(
            v if isinstance(v, RatPoint) else _pt(v[0], v[1]) for v in vertices
        )
        object.__setattr__(self, "vertices", pts)

    def cleaned(self) -> tuple[RatPoint, ...]:
        """Vertices with consecutive duplicates (cyclically) removed."""
        pts = [p for i, p in enumerate(self.vertices) if p != self.vertices[i - 1]]
        return tuple(pts)


def omega_polygon() -> Polygon:
    """The whole domain triangle 0 <= x <= y <= 1."""
    return Polygon([(0, 0), (1, 1), (0, 1)])


def band_polygon(beta) -> Polygon:
    """The band 0 <= y - x <= beta inside the domain triangle."""
    beta = Fraction(beta)
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
      G_i = F_i + (0 ... )            i = 0..q+1   (upper band line above F-spacing)
      H1  = (r, beta),  I = (0, 1)

    In the high-remainder regime the apexes A_i sit strictly inside the
    band, D_i/E_i with i < q are not part of any construction and
    requesting them raises; D_{q+1} coincides with G_{q+1} and stays
    available, as do D_q and E_q.
    """

    dec: BetaDecomposition

    @property
    def beta(self) -> Fraction:
        return self.dec.beta

    @property
    def q(self) -> int:
        return self.dec.q

    @property
    def r(self) -> Fraction:
        return self.dec.r

    @property
    def gamma(self) -> Fraction:
        return self.beta * (1 - Fraction(1, self.q))

    def _check(self, name: str, i: int, lo: int, hi: int) -> None:
        if not lo <= i <= hi:
            raise GeometryError(f"{name}_{i} undefined; valid range {lo}..{hi}")

    def A(self, i: int) -> RatPoint:
        self._check("A", i, 0, self.q + 1)
        return _pt(i * self.r, i * self.r + self.q * (self.beta - self.r))

    def B(self, i: int) -> RatPoint:
        self._check("B", i, 1, self.q + 1)
        d = self.r + (i - 1) * self.beta
        return _pt(d, d)

    def C(self, i: int) -> RatPoint:
        self._check("C", i, 0, self.q)
        return _pt(i * self.beta, i * self.beta)

    def D(self, i: int) -> RatPoint:
        self._check("D", i, 1, self.q + 1)
        if self.dec.regime == "high" and i < self.q:
            raise GeometryError(f"D_{i} is a low-remainder landmark (regime is high)")
        d = self.r + (i - 1) * self.gamma
        return _pt(d, d + self.beta)

    def E(self, i: int) -> RatPoint:
        self._check("E", i, 0, self.q)
        if self.dec.regime == "high" and i < self.q:
            raise GeometryError(f"E_{i} is a low-remainder landmark (regime is high)")
        return _pt(i * self.gamma, i * self.gamma + self.beta)

    def F(self, i: int) -> RatPoint:
        self._check("F", i, 0, self.q + 1)
        d = Fraction(i, self.q + 1)
        return _pt(d, d)

    def G(self, i: int) -> RatPoint:
        self._check("G", i, 0, self.q + 1)
        d = Fraction(i, self.q + 1) * (1 - self.beta)
        return _pt(d, d + self.beta)

    @property
    def H1(self) -> RatPoint:
        return _pt(self.r, self.beta)

    @property
    def I(self) -> RatPoint:
        return _pt(0, 1)


def landmark_points(dec: BetaDecomposition | Fraction | str) -> LandmarkPoints:
    if not isinstance(dec, BetaDecomposition):
        dec = beta_decomposition(dec)
    return LandmarkPoints(dec=dec)


# ── exact measure ─────────────────────────────────────────────────────


def _triangle_integral(p0: RatPoint, p1: RatPoint, p2: RatPoint, m: int) -> Fraction:
    """Signed integral of (y-x)^m over the triangle p0 p1 p2.

    Substituting P = p0 + u*(p1-p0) + v*(p2-p0) turns the integrand into
    (a + b*u + c*v)^m over the reference simplex u, v >= 0, u+v <= 1,
    where a, b, c are differences of y-x at the corners; the monomial
    integrals over the simplex are p! q! / (p+q+2)!.
    """
    a = p0.y - p0.x
    b = (p1.y - p1.x) - a
    c = (p2.y - p2.x) - a
    jac = _cross(p1 - p0, p2 - p0)
    if jac == 0:
        return Fraction(0)
    mf = math.factorial(m)
    total = Fraction(0)
    for pw_b in range(m + 1):
        for pw_c in range(m + 1 - pw_b):
            coeff = Fraction(mf, math.factorial(m - pw_b - pw_c) * math.factorial(pw_b + pw_c + 2))
            total += coeff * a ** (m - pw_b - pw_c) * b**pw_b * c**pw_c
    return jac * total


def _signed_area2(pts: tuple[RatPoint, ...]) -> Fraction:
    """Twice the signed (shoelace) area; > 0 for counterclockwise."""
    s = Fraction(0)
    for i, p in enumerate(pts):
        nxt = pts[(i + 1) % len(pts)]
        s += p.x * nxt.y - nxt.x * p.y
    return s


def _segments_properly_cross(a1, a2, b1, b2) -> bool:
    d1 = _cross(a2 - a1, b1 - a1)
    d2 = _cross(a2 - a1, b2 - a1)
    d3 = _cross(b2 - b1, a1 - b1)
    d4 = _cross(b2 - b1, a2 - b1)
    return ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    )


def _validate_simple_in_domain(pts: tuple[RatPoint, ...]) -> None:
    for p in pts:
        if not (0 <= p.x <= p.y <= 1):
            raise GeometryError(f"vertex ({p.x}, {p.y}) outside 0 <= x <= y <= 1")
    m = len(pts)
    for i in range(m):
        a1, a2 = pts[i], pts[(i + 1) % m]
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            b1, b2 = pts[j], pts[(j + 1) % m]
            if _segments_properly_cross(a1, a2, b1, b2):
                raise GeometryError("polygon edges cross; polygon must be simple")


def polygon_measure(poly: Polygon, k: int) -> Fraction:
    """Exact mu(poly) = 1/(k-2)! * integral of (y-x)^(k-2), k >= 2.

    Consecutive duplicate vertices are dropped; fewer than 3 distinct
    corners means a degenerate polygon of measure 0.  Orientation is
    normalized, so either winding direction is accepted.
    """
    if k < 2:
        raise GeometryError("measure needs k >= 2")
    pts = poly.cleaned()
    if len(pts) < 3:
        return Fraction(0)
    _validate_simple_in_domain(pts)
    if _signed_area2(pts) < 0:
        pts = tuple(reversed(pts))
    m = k - 2
    total = Fraction(0)
    for i in range(1, len(pts) - 1):
        total += _triangle_integral(pts[0], pts[i], pts[i + 1], m)
    return total / math.factorial(m)


def trapezoid_measure(s, t, u, v, k: int) -> Fraction:
    """mu of a trapezoid with parallel sides on y = x+s and y = x+t.

    u and v are the horizontal extents of the sides at levels s and t.
    The value only depends on (s, t, u, v): with w(d) the linear width
    at level d (w(s) = u, w(t) = v),

        mu = 1/(k-2)! * integral_s^t d^(k-2) * w(d) dd
           = 1/(k-2)! * 1/(t-s) * ((v-u)(t^k - s^k)/k
                                    + (t*u - s*v)(t^(k-1) - s^(k-1))/(k-1)).
    """
    s, t, u, v = Fraction(s), Fraction(t), Fraction(u), Fraction(v)
    if k < 2:
        raise GeometryError("measure needs k >= 2")
    if s >= t:
        raise GeometryError(f"needs s < t, got s={s}, t={t}")
    if not (0 <= s and t <= 1) or u < 0 or v < 0:
        raise GeometryError("trapezoid outside the domain or negative side length")
    value = (v - u) * (t**k - s**k) / k + (t * u - s * v) * (
        t ** (k - 1) - s ** (k - 1)
    ) / (k - 1)
    return value / (t - s) / math.factorial(k - 2)


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
    if not isinstance(dec, BetaDecomposition):
        dec = beta_decomposition(dec)
    lp = landmark_points(dec)
    co = coefficients(dec.beta, k)
    q, r, beta = dec.q, dec.r, dec.beta
    c1, c2, c3 = co.c1, co.c2, co.c3
    checks: list[IdentityCheck] = []

    def add(name: str, lhs: Fraction, rhs: Fraction) -> None:
        checks.append(IdentityCheck(name=name, lhs=lhs, rhs=rhs))

    def mu(*pts: RatPoint) -> Fraction:
        return polygon_measure(Polygon(pts), k)

    # full band trapezoid and its equal slices
    add("band = (q+1)*c2", mu(lp.F(0), lp.F(q + 1), lp.G(q + 1), lp.G(0)), (q + 1) * c2)
    for i in range(q + 1):
        add(
            f"band slice {i} = c2",
            mu(lp.F(i), lp.F(i + 1), lp.G(i + 1), lp.G(i)),
            c2,
        )

    # apex triangles and their F-splits
    for i in range(1, q + 1):
        add(f"apex triangle {i} = (q+1)*c3", mu(lp.A(i), lp.B(i), lp.C(i)), (q + 1) * c3)
        add(
            f"apex triangle {i} left of F = (q+1-i)*c3",
            mu(lp.A(i), lp.B(i), lp.F(i)),
            (q + 1 - i) * c3,
        )
        add(f"apex triangle {i} right of F = i*c3", mu(lp.A(i), lp.F(i), lp.C(i)), i * c3)
    add(
        "corner triangle = (q+1)*c3/q^(k-1)",
        mu(lp.B(1), lp.C(1), lp.H1),
        (q + 1) * c3 / q ** (k - 1),
    )

    parallelogram_value = beta ** (k - 1) * r / math.factorial(k - 1)
    if dec.regime == "low":
        for i in range(q + 1):
            add(
                f"band parallelogram {i} = beta^(k-1)*r/(k-1)!",
                mu(lp.C(i), lp.B(i + 1), lp.D(i + 1), lp.E(i)),
                parallelogram_value,
            )
        add(
            "band parallelogram value = (q+1)*c2 - q*c1",
            parallelogram_value,
            (q + 1) * c2 - q * c1,
        )
        for i in range(1, q + 1):
            add(
                f"band quadrangle {i} = (q+1)*(c1-c2)",
                mu(lp.B(i), lp.C(i), lp.E(i), lp.D(i)),
                (q + 1) * (c1 - c2),
            )
            add(
                f"chain {i}: quadrangle + parallelogram = c1",
                mu(lp.B(i), lp.C(i), lp.E(i), lp.D(i))
                + mu(lp.C(i), lp.B(i + 1), lp.D(i + 1), lp.E(i)),
                c1,
            )
    else:
        add(
            "last band parallelogram = beta^(k-1)*r/(k-1)!",
            mu(lp.C(q), lp.B(q + 1), lp.D(q + 1), lp.E(q)),
            parallelogram_value,
        )
        for i in range(q):
            tri_next = mu(lp.A(i + 1), lp.F(i + 1), lp.C(i + 1))
            tri_prev = mu(lp.A(i), lp.F(i), lp.C(i)) if i >= 1 else Fraction(0)
            add(
                f"chain {i}: slice + triangle difference = c2+c3",
                mu(lp.F(i), lp.F(i + 1), lp.G(i + 1), lp.G(i)) + tri_next - tri_prev,
                c2 + c3,
            )

    # cross checks against the coefficient module (regime independent)
    band_total = mu(lp.F(0), lp.F(q + 1), lp.G(q + 1), lp.G(0))
    last_parallelogram = mu(lp.C(q), lp.B(q + 1), lp.D(q + 1), lp.E(q))
    add(
        "band minus last parallelogram = q*c1",
        band_total - last_parallelogram,
        q * c1,
    )
    add(
        "truncated band = q*c1",
        mu(lp.F(0), lp.C(q), lp.E(q), lp.G(0)),
        q * c1,
    )

    return IdentityReport(beta=beta, k=k, regime=dec.regime, checks=tuple(checks))


# ── lattice counting ──────────────────────────────────────────────────


def _point_on_boundary(px: Fraction, py: Fraction, pts: tuple[RatPoint, ...]) -> bool:
    m = len(pts)
    for i in range(m):
        a, b = pts[i], pts[(i + 1) % m]
        if _cross((b.x - a.x, b.y - a.y), (px - a.x, py - a.y)) != 0:
            continue
        if min(a.x, b.x) <= px <= max(a.x, b.x) and min(a.y, b.y) <= py <= max(a.y, b.y):
            return True
    return False


def _point_strictly_inside(px: Fraction, py: Fraction, pts: tuple[RatPoint, ...]) -> bool:
    """Even-odd test with an upward ray; boundary points must be handled first."""
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
    """Number of vertices X of G(n, k, n) with (min/n, max/n) in the
    closed polygon.

    Each admitted lattice pair (i, j) contributes C(j-i-1, k-2) vertices.
    Membership tests are exact; the boundary counts as inside.
    """
    pts = poly.cleaned()
    if len(pts) < 3:
        return 0
    _validate_simple_in_domain(pts)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    i_lo = max(0, math.ceil(min(xs) * n))
    i_hi = min(n, math.floor(max(xs) * n))
    total = 0
    for i in range(i_lo, i_hi + 1):
        px = Fraction(i, n)
        j_lo = max(i, math.ceil(min(ys) * n))
        j_hi = min(n, math.floor(max(ys) * n))
        for j in range(j_lo, j_hi + 1):
            size = class_size(i, j, k)
            if size == 0:
                continue
            py = Fraction(j, n)
            if _point_on_boundary(px, py, pts) or _point_strictly_inside(px, py, pts):
                total += size
    return total
