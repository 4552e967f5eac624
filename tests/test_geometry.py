"""Exact-measure, landmark, identity, and lattice-count tests.

Oracles: the shoelace formula for k = 2 (where the measure is plain
area), closed-form measures of axis-aligned shapes, and brute-force
lattice enumeration for region_vertex_count.
"""

import math
import random
from fractions import Fraction

import pytest

from bandgraph.bounds import beta_decomposition
from bandgraph.core_graph import Params, class_size, vertex_count_formula
from bandgraph.geometry import (
    GeometryError,
    Polygon,
    RatPoint,
    band_polygon,
    landmark_points,
    omega_polygon,
    polygon_measure,
    region_vertex_count,
    trapezoid_measure,
    verify_identities,
)

F = Fraction


def shoelace_area(points) -> Fraction:
    s = Fraction(0)
    m = len(points)
    for i in range(m):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % m]
        s += Fraction(x0) * Fraction(y1) - Fraction(x1) * Fraction(y0)
    return abs(s) / 2


def random_convex_polygon_in_omega(rng: random.Random, size: int):
    """Convex hull of random rational points of the closed triangle Omega."""
    pts = set()
    while len(pts) < size:
        x = F(rng.randint(0, 24), 24)
        y = F(rng.randint(x.numerator * (24 // x.denominator), 24), 24)
        pts.add((x, y))
    pts = sorted(pts)
    # Andrew monotone chain
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out
    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else None


class TestPolygonBasics:
    def test_accepts_pairs_and_points(self):
        poly = Polygon([(0, 0), (F(1, 2), F(1, 2)), (0, 1)])
        assert poly.vertices[1] == RatPoint(F(1, 2), F(1, 2))

    def test_cleaned_removes_consecutive_duplicates(self):
        poly = Polygon([(0, 0), (0, 0), (F(1, 2), F(1, 2)), (0, 1), (0, 1)])
        assert len(poly.cleaned()) == 3

    def test_omega_and_band(self):
        assert polygon_measure(omega_polygon(), 2) == F(1, 2)
        beta = F(2, 5)
        # band area: beta*(2-beta)/2 for k = 2
        assert polygon_measure(band_polygon(beta), 2) == beta * (2 - beta) / 2

    def test_degenerate_measures_zero(self):
        segment = Polygon([(0, 0), (F(1, 2), F(1, 2)), (0, 0)])
        assert polygon_measure(segment, 3) == 0

    def test_rejects_outside_domain(self):
        with pytest.raises(GeometryError):
            polygon_measure(Polygon([(0, 0), (1, 0), (1, 1)]), 2)  # below y=x

    def test_rejects_self_intersection(self):
        bowtie = Polygon([(0, 0), (F(1, 2), 1), (0, 1), (F(1, 2), F(1, 2))])
        with pytest.raises(GeometryError):
            polygon_measure(bowtie, 2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            polygon_measure(omega_polygon(), 1)


class TestMeasure:
    def test_omega_value_all_k(self):
        for k in range(2, 8):
            assert polygon_measure(omega_polygon(), k) == F(1, math.factorial(k))

    def test_band_closed_form(self):
        # mu(band) = beta^(k-1) * (k - (k-1)*beta) / k!
        for beta in (F(1, 3), F(2, 5), F(9, 20), F(1, 2)):
            for k in range(2, 6):
                want = beta ** (k - 1) * (k - (k - 1) * beta) / math.factorial(k)
                assert polygon_measure(band_polygon(beta), k) == want

    def test_shoelace_oracle_k2(self):
        rng = random.Random(11)
        done = 0
        while done < 60:
            hull = random_convex_polygon_in_omega(rng, rng.randint(3, 8))
            if hull is None:
                continue
            assert polygon_measure(Polygon(hull), 2) == shoelace_area(hull)
            done += 1

    def test_orientation_independent(self):
        tri = [(0, 0), (F(1, 2), 1), (0, 1)]
        for k in (2, 3, 4):
            assert polygon_measure(Polygon(tri), k) == polygon_measure(
                Polygon(tri[::-1]), k
            )

    def test_diagonal_translation_invariance(self):
        # shifting along (t, t) preserves y - x, hence the measure
        rng = random.Random(23)
        done = 0
        while done < 40:
            hull = random_convex_polygon_in_omega(rng, rng.randint(3, 6))
            if hull is None:
                continue
            xs = [p[0] for p in hull]
            ys = [p[1] for p in hull]
            room = 1 - max(ys)
            t = min(F(rng.randint(0, 12), 12) * room, min(xs))
            shifted = [(x - t, y - t) for x, y in hull] if t else hull
            for k in (2, 3, 5):
                assert polygon_measure(Polygon(shifted), k) == polygon_measure(
                    Polygon(hull), k
                )
            done += 1

    def test_additive_under_splitting(self):
        # cut the band polygon by the vertical chord x = c
        beta = F(2, 5)
        for c in (F(1, 10), F(3, 10), F(1, 2)):
            left = Polygon([(0, 0), (c, c), (c, c + beta), (0, beta)])
            right = Polygon([(c, c), (1, 1), (1 - beta, 1), (c, c + beta)])
            whole = band_polygon(beta)
            for k in (2, 3, 4):
                assert polygon_measure(left, k) + polygon_measure(right, k) == (
                    polygon_measure(whole, k)
                )


class TestTrapezoid:
    def test_pinned_values(self):
        assert trapezoid_measure(F(0), F(1, 2), F(1, 4), F(1, 4), 2) == F(1, 8)
        beta = F(2, 5)
        for v in (F(1, 5), F(2, 5)):
            assert trapezoid_measure(F(0), beta, F(0), v, 2) == v * beta / 2

    def test_matches_polygon_measure(self):
        # realize (s, t, u, v) as a quadrilateral with sides of lengths
        # u and v lying on y = x+s and y = x+t, left edge vertical
        rng = random.Random(5)
        for _ in range(100):
            s16 = rng.randint(0, 10)
            t16 = rng.randint(s16 + 1, 14)
            a16 = rng.randint(0, 2)
            u16 = rng.randint(0, 16 - s16 - a16)
            v16 = rng.randint(0, 16 - t16 - a16)
            s, t, a, u, v = (F(z, 16) for z in (s16, t16, a16, u16, v16))
            pts = Polygon(
                [(a, a + s), (a + u, a + u + s), (a + v, a + v + t), (a, a + t)]
            ).cleaned()
            for k in (2, 3, 4):
                want = polygon_measure(Polygon(pts), k) if len(pts) >= 3 else F(0)
                assert trapezoid_measure(s, t, u, v, k) == want

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            trapezoid_measure(F(1, 2), F(1, 2), F(1, 2), F(3, 4), 2)
        with pytest.raises(ValueError):
            trapezoid_measure(F(3, 4), F(1, 4), F(3, 4), F(3, 4), 2)


class TestLandmarks:
    def test_low_regime_pins(self):
        lm = landmark_points(beta_decomposition(F(9, 20)))
        assert (lm.A(1).x, lm.A(1).y) == (F(1, 10), F(4, 5))
        assert (lm.B(1).x, lm.B(1).y) == (F(1, 10), F(1, 10))
        assert (lm.C(1).x, lm.C(1).y) == (F(9, 20), F(9, 20))
        assert lm.H1 == RatPoint(F(1, 10), F(9, 20))
        assert lm.I == RatPoint(F(0), F(1))

    def test_high_regime_pins(self):
        lm = landmark_points(beta_decomposition(F(7, 20)))
        assert (lm.A(0).x, lm.A(0).y) == (F(0), F(1, 10))
        assert (lm.A(3).x, lm.A(3).y) == (F(9, 10), F(1))
        # D/E with index < q are undefined in the high regime
        with pytest.raises(GeometryError):
            lm.D(1)
        with pytest.raises(GeometryError):
            lm.E(1)
        lm.D(2), lm.D(3), lm.E(2)  # allowed

    def test_diagonal_order(self):
        for beta in (F(9, 20), F(7, 20), F(3, 10), F(5, 12)):
            lm = landmark_points(beta_decomposition(beta))
            q = beta_decomposition(beta).q
            diag = [lm.F(0)]
            for i in range(1, q + 1):
                diag.extend([lm.B(i), lm.F(i), lm.C(i)])
            xs = [pt.x for pt in diag]
            assert xs == sorted(xs)

    def test_index_ranges(self):
        lm = landmark_points(beta_decomposition(F(9, 20)))
        with pytest.raises(GeometryError):
            lm.A(4)  # beyond q + 1 = 3
        with pytest.raises(GeometryError):
            lm.C(3)  # beyond q
        with pytest.raises(GeometryError):
            lm.B(0)  # B starts at 1

    def test_pinned_measures(self):
        lm = landmark_points(beta_decomposition(F(9, 20)))
        quad = Polygon([lm.F(0), lm.F(3), lm.G(3), lm.G(0)])
        assert polygon_measure(quad, 2) == F(279, 800)
        lm = landmark_points(beta_decomposition(F(7, 20)))
        tri = Polygon([lm.A(1), lm.B(1), lm.C(1)])
        assert polygon_measure(tri, 2) == F(1, 400)


class TestIdentities:
    @pytest.mark.parametrize("beta", ["9/20", "7/20", "1/3", "2/5", "1/2", "3/10"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_grid_passes_exactly(self, beta, k):
        report = verify_identities(beta, k)
        assert report.all_passed, [c.name for c in report.failures()]

    def test_report_structure(self):
        report = verify_identities("9/20", 2)
        assert report.regime == "low"
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
        for check in report.checks:
            assert check.lhs == check.rhs

    def test_chain_sums(self):
        # every identity report carries the two chain families whose sums
        # are c1 (low regime) or c2 + c3 (high regime)
        low = verify_identities("9/20", 3)
        high = verify_identities("7/20", 3)
        assert any("chain" in c.name for c in low.checks)
        assert any("chain" in c.name for c in high.checks)


def convex_position(hull_ccw, x, y) -> str:
    """'in', 'on', or 'out' for a point against a CCW convex polygon."""
    on = False
    m = len(hull_ccw)
    for i in range(m):
        ax, ay = hull_ccw[i]
        bx, by = hull_ccw[(i + 1) % m]
        cr = (F(bx) - F(ax)) * (F(y) - F(ay)) - (F(by) - F(ay)) * (F(x) - F(ax))
        if cr < 0:
            return "out"
        if cr == 0:
            on = True
    return "on" if on else "in"


def brute_lattice_count(hull_ccw, n: int, k: int, include_boundary: bool) -> int:
    total = 0
    for i in range(n + 1):
        for j in range(i, n + 1):
            pos = convex_position(hull_ccw, F(i, n), F(j, n))
            if pos == "in" or (include_boundary and pos == "on"):
                total += class_size(i, j, k)
    return total


class TestRegionCount:
    def test_omega_counts_all_vertices(self):
        for n, k in ((8, 2), (8, 3), (10, 2), (6, 4)):
            assert region_vertex_count(omega_polygon(), n, k) == math.comb(n + 1, k)

    def test_band_counts_formula(self):
        for n, k, b in ((10, 2, 3), (12, 3, 5), (9, 2, 4), (12, 4, 7)):
            p = Params(n=n, k=k, b=b)
            assert region_vertex_count(band_polygon(F(b, n)), n, k) == (
                vertex_count_formula(p)
            )

    def test_boundary_toggle(self):
        # square in omega with lattice points on its edges: the count is
        # the closed one, which the open count would undercut
        corners = [(F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)), (F(1, 2), F(3, 4)), (F(1, 4), F(3, 4))]
        sq = Polygon(corners)
        n, k = 8, 2
        closed = region_vertex_count(sq, n, k)
        assert closed == brute_lattice_count(corners, n, k, True)
        assert closed > brute_lattice_count(corners, n, k, False)

    def test_matches_brute_on_random_hulls(self):
        rng = random.Random(31)
        done = 0
        while done < 25:
            hull = random_convex_polygon_in_omega(rng, rng.randint(3, 6))
            if hull is None:
                continue
            poly = Polygon(hull)
            for n in (6, 9):
                for k in (2, 3):
                    assert region_vertex_count(poly, n, k) == brute_lattice_count(
                        hull, n, k, True
                    )
            done += 1

    def test_riemann_convergence_direction(self):
        beta = F(2, 5)
        poly = band_polygon(beta)
        mu = polygon_measure(poly, 2)
        err100 = abs(F(region_vertex_count(poly, 100, 2), 100**2) - mu)
        err200 = abs(F(region_vertex_count(poly, 200, 2), 200**2) - mu)
        assert err200 <= err100 * F(55, 100)
