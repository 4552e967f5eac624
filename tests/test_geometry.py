"""Exact-measure, landmark, identity, and lattice-count tests.

Oracles: the shoelace formula for k = 2 (where the measure is plain
area), closed-form measures of axis-aligned shapes, the triangle-fan
measure and Fraction simplicity test of geometry_oracle for
polygon_measure, brute-force lattice enumeration for
region_vertex_count (a convex-hull test here, and the per-point
boundary and even-odd tests of geometry_oracle), and the Fraction
landmark formulas of geometry_oracle for LandmarkPoints.
"""

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import geometry_oracle

from bandgraph import geometry
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

    def test_repeated_corners_change_no_measure_or_count(self):
        # a corner twice, one three times, and the last equal to the first
        a, b, c, d = (0, 0), (F(1, 2), F(1, 2)), (F(1, 4), 1), (0, 1)
        plain, doubled = Polygon([a, b, c, d]), Polygon([a, a, b, c, c, c, d, a])
        for k in (2, 3, 4):
            assert polygon_measure(doubled, k) == polygon_measure(plain, k) > 0
            for n in (7, 20):
                assert region_vertex_count(doubled, n, k) == region_vertex_count(plain, n, k) > 0

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

    @pytest.mark.parametrize(
        "corners",
        [
            # figure-eight: two lobes of opposite winding meet at the
            # repeated corner (1/4, 1/2); no two edges cross properly
            [(F(1, 4), F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)),
             (F(1, 4), F(1, 2)), (0, F(1, 2)), (0, F(3, 4))],
            # the corner (1/4, 1/4) lies inside the diagonal edge
            [(0, 0), (1, 1), (F(1, 2), 1), (F(1, 4), F(1, 4)), (F(1, 4), 1), (0, 1)],
        ],
        ids=["figure-eight", "corner-on-edge"],
    )
    def test_rejects_touching_edges(self, corners):
        poly = Polygon(corners)
        with pytest.raises(GeometryError, match="simple"):
            polygon_measure(poly, 2)
        with pytest.raises(GeometryError, match="simple"):
            region_vertex_count(poly, 400, 2)

    def test_accepts_collinear_consecutive_corners(self):
        # edges 0 and 2 are collinear, but (1, 1) lies outside edge 0
        poly = Polygon([(0, 0), (F(1, 2), F(1, 2)), (1, 1), (0, 1)])
        assert polygon_measure(poly, 2) == F(1, 2)
        assert region_vertex_count(poly, 8, 2) == 36

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            polygon_measure(omega_polygon(), 1)

    @pytest.mark.parametrize("x", [0.25, np.float64(0.25), np.float32(0.25)])
    def test_points_refuse_floats(self, x):
        with pytest.raises(TypeError):
            Polygon([(0, 0), (x, 1), (0, 1)])

    @pytest.mark.parametrize("beta", [0.45, np.float64(0.45), np.float32(0.45)])
    def test_band_refuses_float_beta(self, beta):
        with pytest.raises(TypeError):
            band_polygon(beta)


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


# both regimes (7/20 is the high one) and r = 0 (1/3, 1/2)
ORACLE_BETAS = ("9/20", "7/20", "1/3", "1/2", "3/10", "5/12", "2/7")


def _landmark_outcome(points, name: str, i: int):
    try:
        return ("point", getattr(points, name)(i))
    except GeometryError as refusal:
        return ("refused", str(refusal))


def _landmark_outcomes(dec):
    """(oracle, library) outcome pairs of every letter A..G at the indices
    -1..q+2, which run past each letter's range on both sides."""
    lm, oracle = landmark_points(dec), geometry_oracle.Landmarks(dec)
    return [
        (_landmark_outcome(oracle, name, i), _landmark_outcome(lm, name, i))
        for name in "ABCDEFG"
        for i in range(-1, dec.q + 3)
    ]


@pytest.fixture
def fraction_births(monkeypatch):
    """The list that gains one entry per ``Fraction`` made while the test runs."""
    births = []
    make = Fraction.__new__

    def counted(cls, *args, **kwargs):
        births.append(cls)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return births


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

    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_every_landmark_matches_the_oracle(self, beta):
        dec = beta_decomposition(beta)
        points = [(want, got) for want, got in _landmark_outcomes(dec) if want[0] == "point"]
        assert len(points) >= 7 * dec.q
        assert all(got == want for want, got in points)
        lm, oracle = landmark_points(dec), geometry_oracle.Landmarks(dec)
        assert (lm.H1, lm.I) == (oracle.H1, oracle.I)

    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_refuses_with_the_oracle_messages(self, beta):
        dec = beta_decomposition(beta)
        refusals = [(want, got) for want, got in _landmark_outcomes(dec) if want[0] == "refused"]
        assert all(got == want for want, got in refusals)
        messages = [want[1] for want, _ in refusals]
        assert any("valid range" in m for m in messages)
        assert any("regime is high" in m for m in messages) == (dec.regime == "high")

    def test_no_fraction_after_the_first_access(self, fraction_births):
        lm = landmark_points(beta_decomposition(F(9, 20)))
        lm.A(0)
        fraction_births.clear()
        for name in "ABCDEFG":
            for i in range(1, 3):
                getattr(lm, name)(i)
        lm.H1, lm.I
        assert not fraction_births

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


def _angle_order(u, v) -> int:
    """Counterclockwise order of directions u, v, starting at angle 0."""
    half_u = not (u[1] > 0 or (u[1] == 0 and u[0] > 0))
    half_v = not (v[1] > 0 or (v[1] == 0 and v[0] > 0))
    if half_u != half_v:
        return -1 if half_v else 1
    cross = u[0] * v[1] - u[1] * v[0]
    return -1 if cross > 0 else int(cross < 0)


def _star_polygon(draw, d: int):
    """A simple polygon, in general not convex, with corners on the grid
    of step 1/d in the domain triangle, in a drawn winding.

    The corners are sorted by angle around their centroid, keeping the
    farthest one in each direction.  The centroid of points that are not
    all collinear is interior to their hull, so consecutive corners are
    less than a half turn apart and the polygon is star-shaped.
    """
    cells = st.tuples(st.integers(0, d), st.integers(0, d)).map(sorted)
    pts = [(F(x, d), F(y, d)) for x, y in draw(st.lists(cells, min_size=3, max_size=8))]
    cx = sum(x for x, _ in pts) / len(pts)
    cy = sum(y for _, y in pts) / len(pts)
    farthest = {}
    for x, y in pts:
        u = (x - cx, y - cy)
        reach = max(abs(u[0]), abs(u[1]))
        if reach and farthest.get((u[0] / reach, u[1] / reach), (0,))[0] < reach:
            farthest[(u[0] / reach, u[1] / reach)] = (reach, (x, y))
    assume(len(farthest) >= 3)
    order = sorted(farthest, key=functools.cmp_to_key(_angle_order))
    vertices = [farthest[u][1] for u in order]
    return vertices[::-1] if draw(st.booleans()) else vertices


@st.composite
def lattice_star_polygons(draw):
    """(vertices, n): a star polygon (``_star_polygon``) with corners on
    the grid of step 1/n or 1/(2n).  The grid puts corners on lattice
    points and columns, and edges on columns (vertical) and rows
    (horizontal)."""
    n = draw(st.integers(1, 12))
    return _star_polygon(draw, n * draw(st.sampled_from((1, 2)))), n


@st.composite
def off_grid_star_polygons(draw):
    """(vertices, n): a star polygon (``_star_polygon``) with corners on
    the grid of step 1/m, m drawn apart from n, so that corners fall
    between columns and crossings strictly between rows."""
    n = draw(st.integers(1, 12))
    return _star_polygon(draw, draw(st.sampled_from((3, 7, 12, 40, 2 * n)))), n


@st.composite
def corner_lists(draw):
    """3 to 7 corners, each on its own grid of step 1/d, simple or not;
    most have x <= y, the rest are drawn anywhere in the unit square."""
    corners = []
    for _ in range(draw(st.integers(3, 7))):
        d = draw(st.sampled_from((1, 2, 3, 7, 12, 40, 97)))
        x, y = draw(st.integers(0, d)), draw(st.integers(0, d))
        if draw(st.integers(0, 7)):
            x, y = min(x, y), max(x, y)
        corners.append((F(x, d), F(y, d)))
    return corners


class TestMeasureOracle:
    @settings(max_examples=200, deadline=None)
    @given(lattice_star_polygons(), st.integers(2, 7))
    @example((omega_polygon().vertices, 1), 7)
    def test_matches_fan_oracle_in_both_windings(self, case, k):
        vertices, _ = case
        expected = geometry_oracle.polygon_measure(Polygon(vertices), k)
        assert polygon_measure(Polygon(vertices), k) == expected
        assert polygon_measure(Polygon(vertices[::-1]), k) == expected

    @settings(max_examples=200, deadline=None)
    @given(corner_lists(), st.integers(2, 6))
    # corners below the diagonal, above y = 1 and left of x = 0, a bowtie
    # of two triangles, and corners on one line where edge 2 covers edge 0
    @example([(0, 0), (F(1, 2), F(1, 3)), (0, 1)], 2)
    @example([(0, 0), (F(1, 2), F(3, 2)), (0, 1)], 2)
    @example([(0, 0), (0, 1), (F(-1, 3), F(1, 2))], 2)
    @example([(0, 0), (F(1, 2), 1), (0, 1), (F(1, 2), F(1, 2))], 3)
    @example([(F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)), (1, 1), (0, 0)], 2)
    def test_refuses_exactly_where_the_oracle_does(self, corners, k):
        poly = Polygon(corners)
        try:
            expected = geometry_oracle.polygon_measure(poly, k)
        except GeometryError as refusal:
            for call in (lambda: polygon_measure(poly, k), lambda: region_vertex_count(poly, 4, k)):
                with pytest.raises(GeometryError) as got:
                    call()
                assert str(got.value) == str(refusal)
        else:
            assert polygon_measure(poly, k) == expected


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
        for n, k in ((8, 2), (8, 3), (10, 2), (6, 4), (1, 1), (8, 1)):
            assert region_vertex_count(omega_polygon(), n, k) == math.comb(n + 1, k)

    @pytest.mark.parametrize("n, k", [(0, 2), (-3, 2), (10, 0), (10, -1)])
    def test_refuses_n_or_k_below_1(self, n, k):
        with pytest.raises(GeometryError, match="n >= 1 and k >= 1"):
            region_vertex_count(band_polygon(F(1, 4)), n, k)

    @pytest.mark.parametrize(
        "n, k, name",
        [(F(21, 2), 2, "n"), (F(10), 2, "n"), (10.0, 2, "n"), ("10", 2, "n"), (10, F(2), "k"), (10, 2.0, "k")],
        ids=["n=21/2", "n=Fraction(10)", "n=10.0", "n='10'", "k=Fraction(2)", "k=2.0"],
    )
    def test_refuses_a_non_integer_n_or_k(self, n, k, name):
        with pytest.raises(TypeError, match=f"need an integer {name}, got"):
            region_vertex_count(band_polygon("2/5"), n, k)

    def test_takes_numpy_ints(self):
        poly = band_polygon("2/5")
        assert region_vertex_count(poly, np.int64(50), np.int32(3)) == region_vertex_count(poly, 50, 3)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_closed_forms_at_a_million(self, k):
        n = 10**6
        assert region_vertex_count(omega_polygon(), n, k) == math.comb(n + 1, k)
        for b in (3, 299_999, 500_000):
            assert region_vertex_count(band_polygon(F(b, n)), n, k) == (
                vertex_count_formula(Params(n=n, k=k, b=b))
            )

    @pytest.mark.parametrize(
        "poly, corner_columns",
        [
            (band_polygon("2/5"), 3),
            # vertical walls at x = 1/5 and x = 1/2
            (Polygon([(F(1, 5), F(2, 5)), (F(1, 2), F(1, 2)), (F(1, 2), F(4, 5)), (F(1, 5), F(4, 5))]), 2),
        ],
    )
    def test_only_corner_columns_are_scanned(self, monkeypatch, poly, corner_columns):
        # _span_sum(i, ...) sums a run of rows in column i; only the corner
        # columns are summed run by run
        calls = []
        span_sum = geometry._span_sum

        def counted(i, *args):
            calls.append(i)
            return span_sum(i, *args)

        monkeypatch.setattr(geometry, "_span_sum", counted)
        made, columns = {}, {}
        for n in (50, 10**6):
            calls.clear()
            region_vertex_count(poly, n, 3)
            made[n], columns[n] = len(calls), len(set(calls))
        assert made[50] == made[10**6]
        assert columns[50] == columns[10**6] == corner_columns

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

    @settings(max_examples=200, deadline=None)
    @given(lattice_star_polygons(), st.integers(1, 5))
    @example((omega_polygon().vertices, 7), 3)
    # a lower edge along the diagonal, whose slab sum is skipped
    @example(([(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4)), (F(1, 4), F(3, 4))], 8), 1)
    @example(([(F(1, 4), F(1, 4)), (F(3, 4), F(3, 4)), (F(1, 4), F(3, 4))], 8), 4)
    # the lower edge has slope 3/4: its period, 4 columns, exceeds the
    # slab's 3 columns
    @example(([(0, F(1, 4)), (1, 1), (0, 1)], 4), 5)
    # a C opening to the right: vertical and horizontal edges on the
    # lattice, and two runs in the columns 1/4 < x <= 1/2
    @example(
        (
            [(0, F(1, 4)), (F(1, 2), F(1, 2)), (F(1, 2), F(5, 8)), (F(1, 4), F(5, 8)),
             (F(1, 4), F(3, 4)), (F(1, 2), F(3, 4)), (F(1, 2), 1), (0, 1)],
            8,
        ),
        2,
    )
    # three corners on the column x = 1/4: zero area, and the wall's rows
    # 2..4 are all it holds
    @example(([(F(1, 4), F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 4), 1)], 4), 2)
    @example(([(F(1, 4), F(1, 2)), (F(1, 4), F(3, 4)), (F(1, 4), 1)], 4), 3)
    def test_matches_per_point_oracle(self, case, k):
        vertices, n = case
        poly = Polygon(vertices)
        assert region_vertex_count(poly, n, k) == geometry_oracle.region_vertex_count(poly, n, k)

    def test_refuses_self_crossing(self):
        bowtie = Polygon([(0, 0), (F(1, 2), 1), (0, 1), (F(1, 2), F(1, 2))])
        with pytest.raises(GeometryError, match="simple"):
            region_vertex_count(bowtie, 8, 2)

    @settings(max_examples=200, deadline=None)
    @given(off_grid_star_polygons(), st.integers(1, 5))
    # a vertical edge on the column x = 1/2, a horizontal edge at y = 5/7
    # between rows, and a vertical edge between columns, in both windings
    @example(([(F(1, 7), F(2, 7)), (F(1, 2), F(4, 7)), (F(1, 2), F(5, 7)), (F(1, 7), F(5, 7))], 4), 2)
    @example(([(F(1, 7), F(5, 7)), (F(1, 2), F(5, 7)), (F(1, 2), F(4, 7)), (F(1, 7), F(2, 7))], 4), 3)
    # the lower edge has slope 4/5 and the slab between x = 1/7 and 6/7
    # holds the columns 1..3, fewer than the period 5
    @example(([(F(1, 7), F(2, 7)), (F(6, 7), F(6, 7)), (F(1, 7), 1)], 4), 5)
    # three corners on the column x = 1/7: a wall between rows that holds
    # the rows 3..6 at n = 7, and one between columns at n = 4
    @example(([(F(1, 7), F(5, 14)), (F(1, 7), F(1, 2)), (F(1, 7), F(13, 14))], 7), 3)
    @example(([(F(1, 7), F(2, 7)), (F(1, 7), F(3, 7)), (F(1, 7), F(5, 7))], 4), 3)
    def test_matches_per_point_oracle_off_the_lattice(self, case, k):
        vertices, n = case
        poly = Polygon(vertices)
        assert region_vertex_count(poly, n, k) == geometry_oracle.region_vertex_count(poly, n, k)

    def test_fraction_work_does_not_grow_with_n(self, fraction_births):
        made = {}
        for n in (50, 400):
            fraction_births.clear()
            region_vertex_count(band_polygon("2/5"), n, 2)
            made[n] = len(fraction_births)
        assert made[50] == made[400]

    def test_riemann_convergence_direction(self):
        beta = F(2, 5)
        poly = band_polygon(beta)
        mu = polygon_measure(poly, 2)
        err100 = abs(F(region_vertex_count(poly, 100, 2), 100**2) - mu)
        err200 = abs(F(region_vertex_count(poly, 200, 2), 200**2) - mu)
        assert err200 <= err100 * F(55, 100)
