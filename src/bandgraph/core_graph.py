"""Span-bounded k-subset graphs.

The graph G(n, k, b) has one vertex for every k-element subset X of
{0, 1, ..., n} whose span max(X) - min(X) is at most b.  Two distinct
vertices X, Y are adjacent exactly when their union still has span at
most b, i.e. when

    max(X) - min(Y) <= b   and   max(Y) - min(X) <= b.

Everything about adjacency only depends on the pair (min, max), which is
why most operations here work on "span classes": the set of vertices
sharing a (min, max) pair.  A class (i, j) holds C(j-i-1, k-2) vertices,
any two vertices in adjacent classes are adjacent, and classes
(i1, j1), (i2, j2) are adjacent iff max(j1, j2) - min(i1, i2) <= b.
That quotient structure keeps distance and bandwidth computations
polynomial in n instead of in the (huge) vertex count: ``span_classes``
lists the classes, ``adjacent_class_max`` takes a maximum over the
classes adjacent to each class, and ``class_distances`` is the BFS built
on that query.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

Vertex = tuple[int, ...]  # strictly increasing elements of [0, n]

__all__ = [
    "Params",
    "Vertex",
    "comb0",
    "enumerate_vertices",
    "vertex_count_formula",
    "is_vertex",
    "are_adjacent",
    "central_count",
    "is_central",
    "interval_distance",
    "distance_upper_bound",
    "graph_distance_bfs",
    "diameter",
    "span_classes",
    "class_size",
    "class_table_cells",
    "adjacent_class_max",
    "class_distances",
]


def comb0(a: int, c: int) -> int:
    """Binomial coefficient with out-of-range indices evaluating to 0."""
    if c < 0 or a < c:
        return 0
    return math.comb(a, c)


@dataclass(frozen=True)
class Params:
    """Parameters (n, k, b) of the graph G(n, k, b).

    Requires 1 <= k <= b + 1 and 1 <= b <= n.  k = 1 is allowed: every
    singleton has span 0 and forms a class (lo, lo) of its own.
    """

    n: int
    k: int
    b: int

    def __post_init__(self) -> None:
        n, k, b = self.n, self.k, self.b
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if b < max(1, k - 1):
            raise ValueError(f"b must be >= max(1, k-1) = {max(1, k - 1)}, got {b}")
        if n < b:
            raise ValueError(f"n must be >= b, got n={n}, b={b}")


def class_size(lo: int, hi: int, k: int) -> int:
    """Number of vertices with min=lo, max=hi: choose the k-2 middle elements."""
    if k == 1:
        return 1 if lo == hi else 0
    if lo == hi:
        return 0
    return comb0(hi - lo - 1, k - 2)


# ── construction ──────────────────────────────────────────────────────


def enumerate_vertices(p: Params) -> Iterator[Vertex]:
    """Yield all vertices in ascending lexicographic order.

    Grouped by minimum element lo, the remaining k-1 elements range over
    (lo, min(lo + b, n)], which bounds the span by b automatically.
    """
    n, k, b = p.n, p.k, p.b
    if k == 1:
        for lo in range(n + 1):
            yield (lo,)
        return
    for lo in range(n - k + 2):
        window = range(lo + 1, min(lo + b, n) + 1)
        for rest in itertools.combinations(window, k - 1):
            yield (lo, *rest)


def vertex_count_formula(p: Params) -> int:
    """Closed-form vertex count (n-b+1)·C(b,k-1) + C(b,k)."""
    n, k, b = p.n, p.k, p.b
    return (n - b + 1) * comb0(b, k - 1) + comb0(b, k)


def is_vertex(t: tuple[int, ...], p: Params) -> bool:
    if len(t) != p.k:
        return False
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        return False
    return 0 <= t[0] and t[-1] <= p.n and t[-1] - t[0] <= p.b


# ── adjacency ─────────────────────────────────────────────────────────


def are_adjacent(x: Vertex, y: Vertex, p: Params) -> bool:
    """Adjacency of two distinct vertices.

    Primary test: both one-sided reaches max(X)-min(Y) and max(Y)-min(X)
    stay within b.  The assert cross-checks the defining condition
    span(X ∪ Y) <= b; the two are equivalent because each vertex already
    has span <= b.
    """
    if x == y:
        raise ValueError("adjacency is only defined for distinct vertices")
    b = p.b
    adjacent = x[-1] - y[0] <= b and y[-1] - x[0] <= b
    assert adjacent == (max(x[-1], y[-1]) - min(x[0], y[0]) <= b)
    return adjacent


def central_count(p: Params) -> int:
    """Size of the central set {X : n-b <= min(X) <= max(X) <= b}.

    Central vertices are adjacent to every other vertex.  C(2b-n+1, k)
    is 0 exactly when the set is empty (2b < n + k - 1).
    """
    return comb0(2 * p.b - p.n + 1, p.k)


def is_central(x: Vertex, p: Params) -> bool:
    return p.n - p.b <= x[0] and x[-1] <= p.b


# ── the span-class quotient ───────────────────────────────────────────


def span_classes(p: Params) -> np.ndarray:
    """Every nonempty (lo, hi) class, as int64 rows of shape (m, 2),
    ordered by span hi - lo, then by lo.

    The spans run over k-1..b (only 0 at k = 1), each with the n+1-span
    starts lo = 0..n-span.  The rows are the transpose of a contiguous
    (2, m) buffer, so ``lo, hi = span_classes(p).T`` copies nothing.
    """
    n, k, b = p.n, p.k, p.b
    spans = np.arange(k - 1, b + 1 if k > 1 else 1, dtype=np.int64)
    counts = n + 1 - spans
    out = np.empty((2, int(counts.sum())), dtype=np.int64)
    lo, hi = out
    np.subtract(np.arange(lo.size), np.repeat(np.cumsum(counts) - counts, counts), out=lo)
    np.add(lo, np.repeat(spans, counts), out=hi)
    return out.T


def _table_width(p: Params) -> int:
    # An adjacency rectangle lo >= a, hi <= c has c - a <= min(2b, n).
    return min(2 * p.b, p.n)


def class_table_cells(p: Params) -> int:
    """Cells of the table ``adjacent_class_max`` builds: (n+1)·(min(2b, n)+1)."""
    return (p.n + 1) * (_table_width(p) + 1)


def adjacent_class_max(
    p: Params, lo: np.ndarray, hi: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """For each class (lo, hi), the maximum of the non-negative ``values``
    over the classes adjacent to it, itself included.

    The classes adjacent to (lo1, hi1) fill the rectangle
    lo2 >= hi1 - b, hi2 <= lo1 + b.  Running maxima over the (lo, hi)
    grid answer each rectangle in O(1); the table is kept in (c, c - a)
    layout, (n+1)·(min(2b, n)+1) cells, so a query costs O(classes + n·b).
    """
    n, b, width = p.n, p.b, _table_width(p)
    # top[a, w] = max value over classes with lo = a, hi <= a + w
    top = np.zeros((n + 1, width + 1), dtype=np.int64)
    top[lo, hi - lo] = values
    np.maximum.accumulate(top, axis=1, out=top)
    # table[c, w] = max value over classes with lo >= c - w, hi <= c
    c, w = np.arange(n + 1)[:, None], np.arange(width + 1)
    table = np.where(c >= w, top[np.maximum(c - w, 0), w], 0)
    np.maximum.accumulate(table, axis=1, out=table)
    cols = np.minimum(lo + b, n)
    return table[cols, cols - np.maximum(hi - b, 0)]


def class_distances(p: Params, source: tuple[int, int]) -> np.ndarray:
    """BFS layer of every class of ``span_classes(p)``, in that order,
    from the class ``source`` = (lo, hi); -1 where unreachable.

    Each layer is one ``adjacent_class_max`` of the frontier's 0/1
    indicator, O(n·b).  Distances are between distinct vertices, so the
    source class reads 0.
    """
    lo, hi = span_classes(p).T
    frontier = (lo == source[0]) & (hi == source[1])
    if not frontier.any():
        raise ValueError(f"{source} is not a class of G{p}")
    dist = np.where(frontier, 0, -1)
    layer = 0
    while frontier.any():
        layer += 1
        frontier = (adjacent_class_max(p, lo, hi, frontier.astype(np.int64)) > 0) & (dist < 0)
        dist[frontier] = layer
    return dist


# ── distances ─────────────────────────────────────────────────────────


def _require_connected_regime(p: Params) -> None:
    if p.b == p.k - 1:
        raise ValueError(
            f"b = k-1 = {p.b}: every edge needs union span <= b < k, "
            "so the graph is edgeless and distances are undefined"
        )


def interval_distance(i: int, j: int, p: Params) -> int:
    """Distance between the interval vertices [i, i+k-1] and [j, j+k-1].

    Each hop moves the window by at most b-k+1 positions, and a greedy
    walk achieves exactly that, giving ceil((j-i)/(b-k+1)).
    """
    _require_connected_regime(p)
    if i > j:
        raise ValueError(f"expected i <= j, got i={i}, j={j}")
    if i < 0 or j > p.n - p.k + 1:
        raise ValueError("interval start out of range")
    if i == j:
        return 0
    return -((j - i) // -(p.b - p.k + 1))


def distance_upper_bound(x: Vertex, y: Vertex, p: Params) -> int:
    """Upper bound ceil((max(Y)-min(X)-b)/(b-k+1)) + 1 on the distance.

    Requires the ordering hypothesis min(X) < min(Y), or min(X) = min(Y)
    and max(X) < max(Y); callers swap arguments to satisfy it.
    """
    _require_connected_regime(p)
    if not (x[0] < y[0] or (x[0] == y[0] and x[-1] < y[-1])):
        raise ValueError(
            "arguments must satisfy min(X) < min(Y), or equal minima with "
            "max(X) < max(Y); swap them"
        )
    step = p.b - p.k + 1
    gap = y[-1] - x[0] - p.b
    return -(gap // -step) + 1


def graph_distance_bfs(x: Vertex, y: Vertex, p: Params) -> int:
    """Exact shortest-path distance between two vertices.

    Read from the BFS on the span-class quotient (``class_distances``):
    adjacency only depends on the classes, and repeating a class on a
    shortest path never helps (any neighbour of a class member is a
    neighbour of every member), so the quotient BFS distance equals the
    vertex distance.
    """
    if not (is_vertex(x, p) and is_vertex(y, p)):
        raise ValueError("both arguments must be vertices of G(n,k,b)")
    if x == y:
        return 0
    if max(x[-1], y[-1]) - min(x[0], y[0]) <= p.b:
        return 1
    if p.b == p.k - 1:
        raise ValueError("graph is edgeless (b = k-1); vertices unreachable")
    lo, hi = span_classes(p).T
    dist = int(class_distances(p, (x[0], x[-1]))[(lo == y[0]) & (hi == y[-1])][0])
    if dist < 0:
        raise ValueError(f"vertices {x} and {y} are not connected")
    return dist


def diameter(p: Params) -> int:
    """Graph diameter ceil((n-k+1)/(b-k+1)).

    The two extreme interval vertices realize it, and no pair exceeds it.
    """
    _require_connected_regime(p)
    return -((p.n - p.k + 1) // -(p.b - p.k + 1))
