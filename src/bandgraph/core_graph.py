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
classes adjacent to each class, and ``class_distance`` is the distance
between two classes in closed form (``class_distances``, the BFS built on
the adjacency query, is its reference).
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterator


def _lazy_numpy():
    """numpy, run on its first attribute access (the lazy-import recipe of
    ``importlib.util.LazyLoader``), or numpy itself where it is loaded
    already.  So importing bandgraph, counting lattice vertices and
    integrating measures leave it unloaded; the first class table or
    numbering loads it."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

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
    "class_distance",
    "graph_distance",
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
    for lo in range(n - k + 2):
        window = range(lo + 1, min(lo + b, n) + 1)
        for rest in itertools.combinations(window, k - 1):
            yield (lo, *rest)


def vertex_count_formula(p: Params) -> int:
    """Closed-form vertex count (n-b+1)·C(b,k-1) + C(b,k)."""
    n, k, b = p.n, p.k, p.b
    return (n - b + 1) * comb0(b, k - 1) + comb0(b, k)


def is_vertex(t: tuple[int, ...], p: Params) -> bool:
    """Whether ``t`` is a vertex: k strictly increasing integers (Python
    or numpy) in [0, n] with span at most b.  Floats and ``Fraction``s are
    not integers, whatever their value."""
    if len(t) != p.k:
        return False
    try:
        t = tuple(map(operator.index, t))
    except TypeError:
        return False
    if not all(map(operator.lt, t, t[1:])):
        return False
    return 0 <= t[0] and t[-1] <= p.n and t[-1] - t[0] <= p.b


# ── adjacency ─────────────────────────────────────────────────────────


def are_adjacent(x: Vertex, y: Vertex, p: Params) -> bool:
    """Adjacency of two distinct vertices.

    Primary test: both one-sided reaches max(X)-min(Y) and max(Y)-min(X)
    stay within b.  An explicit raise cross-checks the defining condition
    span(X ∪ Y) <= b; the two are equivalent because each vertex already
    has span <= b.
    """
    if x == y:
        raise ValueError("adjacency is only defined for distinct vertices")
    b = p.b
    adjacent = x[-1] - y[0] <= b and y[-1] - x[0] <= b
    if adjacent != (max(x[-1], y[-1]) - min(x[0], y[0]) <= b):
        raise AssertionError(f"reach and union-span tests disagree on {x}, {y}")
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


# Rows of at least this many cells take one ufunc call each (about 2 us)
# in _running_max, shorter ones numpy's accumulate, which walks each column
# on its own at 5-10 ns a cell.  Measured on a 2-core x86_64 VM with
# numpy 2.4: the crossover lies at 170-480 cells for 4 to 41 rows; over the
# tables of one pass of the certify-grid and band-sweep workloads, 256 to
# 384 cells take the least time, and either route alone is slower end to
# end (the row loop by 17% in certify-grid's wall time, accumulate by 36%
# in its top rung).
_ROW_CELLS = 256


def _running_max(a: np.ndarray) -> None:
    """Running maximum along axis 0, in place."""
    if a[0].size >= _ROW_CELLS:
        for i in range(1, len(a)):
            np.maximum(a[i - 1], a[i], out=a[i])
    else:
        np.maximum.accumulate(a, axis=0, out=a)


def adjacent_class_max(
    p: Params, lo: np.ndarray, hi: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """For each class (lo, hi), the maximum of the non-negative ``values``
    over the classes adjacent to it, itself included.  ``values`` has one
    row per class and any trailing axes, each column answered on its own.

    The classes adjacent to (lo1, hi1) fill the rectangle
    lo2 >= hi1 - b, hi2 <= lo1 + b.  Running maxima over the (lo, hi)
    grid answer each rectangle in O(1); the table is kept in (c - a, c)
    layout, (min(2b, n)+1)·(n+1) cells, so a query costs O(classes + n·b).
    """
    n, b, width = p.n, p.b, _table_width(p)
    # top[w, a] = max value over classes with lo = a, hi <= a + w
    top = np.zeros((width + 1, n + 1, *values.shape[1:]), dtype=values.dtype)
    top[hi - lo, lo] = values
    _running_max(top)
    # table[w, c] = max value over classes with lo >= c - w, hi <= c, read
    # only where c >= w: the running max over u <= w of top[u, c - u].  Row u
    # of top shifted right by u is a view whose row stride is one cell less.
    s = top.strides
    table = np.lib.stride_tricks.as_strided(top, strides=(s[0] - s[1], *s[1:])).copy()
    _running_max(table)
    cols = np.minimum(lo + b, n)
    return table[cols - np.maximum(hi - b, 0), cols]


def class_distances(p: Params) -> np.ndarray:
    """BFS layers between every two classes of ``span_classes(p)``, as an
    (m, m) matrix in that order; -1 where unreachable.

    The reference for ``class_distance``: all m sources advance together,
    one boolean column each, so a layer is one ``adjacent_class_max``,
    O(n·b·m).  Class distance is vertex distance: any neighbour of a class
    member neighbours every member, so a shortest path never repeats a
    class.  Distances are between distinct vertices, so the diagonal
    reads 0.
    """
    lo, hi = span_classes(p).T
    frontier = np.eye(lo.size, dtype=bool)
    dist = np.where(frontier, 0, -1)
    layer = 0
    while frontier.any():
        layer += 1
        frontier = adjacent_class_max(p, lo, hi, frontier) & (dist < 0)
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
    """Distance between the interval vertices [i, i+k-1] and [j, j+k-1],
    ceil((j-i)/(b-k+1)): ``class_distance`` on their classes.
    """
    _require_connected_regime(p)
    if i > j:
        raise ValueError(f"expected i <= j, got i={i}, j={j}")
    if i < 0 or j > p.n - p.k + 1:
        raise ValueError("interval start out of range")
    if i == j:
        return 0
    return class_distance(p, i, i + p.k - 1, j, j + p.k - 1)


def class_distance(p: Params, lo1, hi1, lo2, hi2):
    """Distance between vertices of two classes (lo1, hi1), (lo2, hi2),
    distinct vertices if the classes coincide; ints, or int64 arrays that
    broadcast.

    With s = b-k+1 it is 1 + max(0, ceil((hi1-lo2-b)/s), ceil((hi2-lo1-b)/s)):
    the classes are adjacent when both reaches hi1-lo2, hi2-lo1 are at
    most b, each further hop shifts an end by at most s, and a walk of
    interval vertices achieves that.
    """
    _require_connected_regime(p)
    reach1, reach2 = hi1 - lo2 - p.b, hi2 - lo1 - p.b
    # max(reach1, reach2, 0) as (x + y + |x - y|) / 2, for ints and arrays alike
    far = (reach1 + reach2 + abs(reach1 - reach2)) // 2
    far = (far + abs(far)) // 2
    return 1 - (far // -(p.b - p.k + 1))


def graph_distance(x: Vertex, y: Vertex, p: Params) -> int:
    """Exact shortest-path distance between two vertices, read from
    ``class_distance``: adjacency only depends on the classes.  It refuses
    two distinct vertices of the edgeless graph (b = k-1)."""
    if not (is_vertex(x, p) and is_vertex(y, p)):
        raise ValueError("both arguments must be vertices of G(n,k,b)")
    if x == y:
        return 0
    return int(class_distance(p, x[0], x[-1], y[0], y[-1]))


def diameter(p: Params) -> int:
    """Graph diameter ceil((n-k+1)/(b-k+1)): the distance between the
    end classes (0, k-1) and (n-k+1, n), whose interval vertices realize
    it; no pair exceeds it.
    """
    return class_distance(p, 0, p.k - 1, p.n - p.k + 1, p.n)
