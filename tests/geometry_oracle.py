"""Test oracle: lattice counts one lattice point at a time.

This is the per-point count the library used before it counted column
by column: every lattice point (i, j) of the domain triangle takes an
exact boundary test against every edge, then, if it is off the
boundary, the even-odd rule with a horizontal ray.  It shares no code
with ``bandgraph.geometry`` beyond ``Polygon.cleaned`` and
``class_size``, so the tests compare ``region_vertex_count`` against it.
"""

from __future__ import annotations

from fractions import Fraction

from bandgraph.core_graph import class_size
from bandgraph.geometry import Polygon, RatPoint


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
    pts = poly.cleaned()
    if len(pts) < 3:
        return 0
    total = 0
    for i in range(n + 1):
        for j in range(i, n + 1):
            px, py = Fraction(i, n), Fraction(j, n)
            if point_on_boundary(px, py, pts) or point_strictly_inside(px, py, pts):
                total += class_size(i, j, k)
    return total
