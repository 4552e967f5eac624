"""Vertex numberings of G(n, k, b) and fast bandwidth evaluation.

Four constructions are provided:

* ``lex_numbering`` — ascending lexicographic order of the sorted
  tuples; its bandwidth is at most k*C(b, k).
* ``mirror_numbering`` — a three-block order (low-sum block, central
  block, high-sum block) that is exactly optimal whenever the central
  vertices exist (2b >= n+k-1): its bandwidth is
  ceil((|V| + |C| - 2) / 2).
* ``low_remainder_numbering`` / ``high_remainder_numbering`` — the
  band-decomposition orders for beta = b/n <= 1/2, built from the
  geometry of the band 0 <= y-x <= beta cut into q+1 quadrangle strips
  interleaved with q apex-triangle fans (low remainder), respectively
  q+1 hexagons interleaved with q apex triangles (high remainder).
  Their bandwidths track the asymptotic coefficients c1 (low) and
  c2+c3 (high) times n^k.

Every numbering stores each span class (min, max) with its smallest
and largest label.  Only custom numberings are explicit vertex orders,
which the table is gathered from.  The library numberings compute it
for the O(n·b) classes at once and list their vertex order only on
demand.

* The band numberings place a vertex X by the integer point
  (min(X), max(X)) alone, so they order the classes and give each class
  a block of consecutive labels, its vertices in lex order.  Every block
  test is an integer inequality, solved in closed form for all classes
  at once.  A within-block position is an integer or a rational num/den
  in [0, n] with 0 < den <= n; two distinct such rationals differ by at
  least 1/n², so the integer floor(num·n²/den) orders them exactly.
* Lex and mirror labels are lex ranks in a truncated universe: the
  vertices with min(X) = l and X within [l, l + W(l)].  A rank is a
  hockey-stick sum of O(k) binomials; a class's lex-first and lex-last
  members, (lo, lo+1, ..., lo+k-2, hi) and (lo, hi-k+2, ..., hi), rank
  in closed form.  Mirror reaches its high-sum block through the
  reflection X -> n - X, and lists as int64 arrays only the members of
  the palindromic classes (min + max = n), which it deals out
  alternately.

``bandwidth_of_numbering`` evaluates max |f(u)-f(v)| over edges without
enumerating edges: vertices sharing (min, max) form a span class, all
adjacencies are determined at class level, and
``core_graph.adjacent_class_max`` takes each class's largest label over
its adjacent classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bounds import beta_decomposition
from .core_graph import (  # np: numpy, loaded on first use
    Params,
    Vertex,
    adjacent_class_max,
    are_adjacent,
    class_size,
    class_table_cells,
    is_vertex,
    np,
    span_classes,
    vertex_count_formula,
)
from .hypergraph import CapacityError

__all__ = [
    "Numbering",
    "lex_numbering",
    "mirror_numbering",
    "palindromic_vertex_count",
    "low_remainder_numbering",
    "high_remainder_numbering",
    "custom_numbering",
    "bandwidth_of_numbering",
    "bandwidth_by_edge_scan",
]

# Labels and class sizes are int64; a graph needs fewer vertices than this.
MAX_LABELED_VERTICES = 2**62

# A builder refuses an instance whose evaluation would hold more items than
# this: the evaluator's table cells, or mirror's palindromic vertices where
# those are more.  A cell costs about 60 B of peak RSS (2-core 8 GB VM).
MAX_TABLE_CELLS = 2_000_000


class Numbering:
    """A proper numbering of G(n, k, b) with labels 1..|V|, built from an
    explicit vertex order: ``order[i]`` carries label i+1.

    It stores one per-class label table, gathered from the order.  The
    library numberings are built by ``_from_table`` instead.
    """

    def __init__(self, params: Params, tag: str, order) -> None:
        self.params, self.tag, self._lister = params, tag, None
        self.order = tuple(order)
        self._class_labels = _order_classes(self.order, params)
        self._size = len(self.order)

    @classmethod
    def _from_table(cls, params: Params, tag: str, classes, lister) -> Numbering:
        """A library numbering from its int64 (lo, hi, first, last) table,
        every span class once with its smallest and largest label, a
        bijection by construction and so taken as it is; ``lister``, a
        function of no arguments, lists the vertex order on first use of
        ``order`` as an int64 array of shape (k, |V|), one column per
        vertex."""
        f = cls.__new__(cls)
        f.params, f.tag, f._lister, f._class_labels = params, tag, lister, classes
        f._size = vertex_count_formula(params)
        return f

    @cached_property
    def order(self) -> tuple[Vertex, ...]:
        # as records of k int64 fields the rows list as tuples, in one pass
        rows = np.ascontiguousarray(self._lister().T)
        return tuple(rows.view([("", rows.dtype)] * rows.shape[1]).ravel().tolist())

    def class_labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, min label, max label) of every span class."""
        return self._class_labels

    @cached_property
    def labels(self) -> dict[Vertex, int]:
        return {v: i + 1 for i, v in enumerate(self.order)}

    def label(self, v: Vertex) -> int:
        return self.labels[v]

    def __len__(self) -> int:
        return self._size

    def _sorted_class_labels(self) -> np.ndarray:
        """The label table as a (4, classes) array, classes by (lo, hi)."""
        table = np.stack(self._class_labels)
        return table[:, np.lexsort(table[1::-1])]

    def __eq__(self, other: object) -> bool:
        """Equal params, tags and label tables; where either side is an
        explicit order, equal orders too, as a table leaves the order
        within a class open."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.params, self.tag) == (other.params, other.tag)
            and np.array_equal(self._sorted_class_labels(), other._sorted_class_labels())
            and (None not in (self._lister, other._lister) or self.order == other.order)
        )

    def __hash__(self) -> int:
        return hash((self.params, self.tag))

    def __repr__(self) -> str:
        return f"Numbering(params={self.params}, tag={self.tag!r}, |V|={self._size})"


def _order_classes(order: tuple, p: Params) -> tuple[np.ndarray, ...]:
    """Check that ``order`` lists every vertex once; return the
    (lo, hi, min label, max label) of every span class."""
    m = len(order)
    expected = vertex_count_formula(p)
    if m != expected:
        raise ValueError(f"numbering has {m} entries, graph has {expected} vertices")
    if len(set(order)) != expected:
        raise ValueError("numbering repeats a vertex")
    labels: dict[tuple[int, int], list[int]] = {}  # class -> [first, last]
    for label, v in enumerate(order, 1):
        if not is_vertex(v, p):
            raise ValueError(f"{v} is not a vertex of G{p}")
        labels.setdefault((v[0], v[-1]), [label, label])[1] = label
    lo, hi = np.array(list(labels), dtype=np.int64).T
    first, last = np.array(list(labels.values()), dtype=np.int64).T
    return lo, hi, first, last


def _vertex_total(p: Params) -> int:
    """|V|, refused at 2^62 and above, where int64 labels would overflow."""
    total = vertex_count_formula(p)
    if total >= MAX_LABELED_VERTICES:
        raise ValueError(f"G{p} has {total} vertices; int64 labels need fewer than 2^62")
    return total


def _check_size(p: Params, tag: str) -> None:
    """Refuse with CapacityError, from its counts alone, an instance past
    MAX_TABLE_CELLS; every library builder calls this before anything else."""
    size, unit = class_table_cells(p), "table cells"
    if tag == "mirror" and (palindromic := palindromic_vertex_count(p)) > size:
        size, unit = palindromic, "palindromic vertices"
    if size > MAX_TABLE_CELLS:
        raise CapacityError(f"{size} {unit} exceed the cap {MAX_TABLE_CELLS} for {tag}")


def _class_sizes(p: Params) -> np.ndarray:
    """class_size of a class of span d, for d = 0..b."""
    return np.array([class_size(0, d, p.k) for d in range(p.b + 1)], dtype=np.int64)


def custom_numbering(p: Params, order) -> Numbering:
    return Numbering(p, "custom", tuple(map(tuple, order)))


# ── lex ranks ─────────────────────────────────────────────────────────

# Vertex lists below are int64 arrays of shape (k, count): column j is
# one vertex, row i its i-th smallest element.


def _binomials(p: Params) -> np.ndarray:
    """table[j, d] = C(d + j, j) for j = 0..k-1 and d = 0..b-k+1, and
    a last column of zeros, which d = -1 reads.

    Every binomial the ranks and vertex lists below read is one of
    these, so each is at most C(b, k-1) <= |V| < 2^62; a Pascal table
    over every x <= b would overflow int64 far sooner (C(80, 40) at
    (80, 78, 80)).  Refuses |V| >= 2^62 first.
    """
    _vertex_total(p)
    table = np.zeros((p.k, p.b - p.k + 3), dtype=np.int64)
    table[0, :-1] = 1
    for j in range(1, p.k):
        np.cumsum(table[j - 1, :-1], out=table[j, :-1])  # hockey stick
    return table


def _comb(table: np.ndarray, top, r):
    """C(top, r) read from ``table``, 0 where top < r.

    Read through the flat table: d = -1 in row r lands on the zero at
    the end of row r-1 (of the last row when r = 0).
    """
    return table.ravel().take(np.maximum(top - r, -1) + r * table.shape[1])


class _Lex:
    """Lex order on the universe of vertices X with min(X) = l and
    X within [l, l + W[l]], for l = 0..n (none where W[l] < 0).

    A rank counts the universe's members lex-below a vertex, which need
    not belong to the universe itself.
    """

    def __init__(self, table: np.ndarray, window: np.ndarray) -> None:
        self.table, self.window = table, window
        self.k = table.shape[0]
        per_min = _comb(table, window, self.k - 1)
        self.below = np.concatenate(([0], np.cumsum(per_min)))  # members with min < l
        self.size = int(self.below[-1])

    def class_ranks(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ranks of the lex-first and lex-last members of the classes
        (lo, hi), each within the universe.  With h = hi - lo, the
        lex-first (lo, lo+1, ..., lo+k-2, hi) follows the h-k+1 members
        that share its first k-1 elements; the lex-last
        (lo, hi-k+2, ..., hi) precedes the C(W-h+k-1, k-1) - 1 members
        whose elements past lo all lie at or above hi-k+2."""
        k, table, w, h = self.k, self.table, self.window[lo], hi - lo
        base = self.below[lo]
        return base + h - k + 1, base + _comb(table, w, k - 1) - _comb(table, w - h + k - 1, k - 1)

    def ranks(self, vertices: np.ndarray) -> np.ndarray:
        """Rank of each vertex (lo, x_2, ..., x_k) of a (k, count) list.

        With s_i = x_{i+1} - lo (s_0 = 0), N = W[lo] and r = k-1, the
        members below that share the first i elements and differ at the
        next are Σ_{s_i < t < s_{i+1}} C(N-t, r-i-1)
        = C(N-s_i, r-i) - C(N-s_{i+1}+1, r-i).
        """
        lo = vertices[0]
        s = vertices - lo
        n_window = self.window[lo]
        r = np.arange(self.k - 1, 0, -1)[:, None]
        below = _comb(self.table, n_window - s[:-1], r) - _comb(self.table, n_window - s[1:] + 1, r)
        return self.below[lo] + below.sum(axis=0)


def _class_members(table: np.ndarray, lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """The vertices of each class (lo, hi) in turn, each class in lex
    order, shape (k, count): the middle k-2 elements of a class with
    N = hi-lo-1 run over the last C(N, k-2) of the lex list of
    (k-2)-subsets of {0..m-1}, shifted, as the subsets of {m-N..m-1}
    come last."""
    if k == 1:
        return lo[None, :]
    inner_size = hi - lo - 1
    m = int(inner_size.max(initial=0))
    subsets = itertools.chain.from_iterable(itertools.combinations(range(m), k - 2))
    inner = np.fromiter(subsets, dtype=np.int64).reshape(_comb(table, m, k - 2), k - 2).T
    lens = _comb(table, inner_size, k - 2)
    src = np.arange(lens.sum()) + np.repeat(inner.shape[1] - np.cumsum(lens), lens)
    members = np.empty((k, len(src)), dtype=np.int64)
    members[0], members[-1] = np.repeat(lo, lens), np.repeat(hi, lens)
    np.add(inner.take(src, axis=1), np.repeat(lo + 1 - (m - inner_size), lens), out=members[1:-1])
    return members


# ── lex numbering ─────────────────────────────────────────────────────


def lex_numbering(p: Params) -> Numbering:
    """Ascending lex order: every class's label range runs from its
    lex-first to its lex-last member, ranked in the whole vertex set
    (W(l) = min(b, n-l))."""
    _check_size(p, "lex")
    table = _binomials(p)
    lo, hi = span_classes(p).T
    first, last = _Lex(table, np.minimum(p.b, p.n - np.arange(p.n + 1))).class_ranks(lo, hi)

    def lister():
        # sorting the class members beats reading enumerate_vertices into
        # an array: 1.7 ms against 5.3-7.3 ms for the order at (2000, 2, 3)
        members = _class_members(table, lo, hi, p.k)
        return members[:, np.lexsort(members[::-1])]

    return Numbering._from_table(p, "lex", (lo, hi, first + 1, last + 1), lister)


# ── mirror numbering ──────────────────────────────────────────────────


def _palindromic_starts(p: Params) -> np.ndarray:
    """lo of every non-central palindromic class (lo, n - lo), ascending.

    A class with min + max = n is central exactly when lo >= n - b.
    """
    n, b, k = p.n, p.b, p.k
    lo = np.arange(n - b)
    span = n - 2 * lo
    return lo[(span >= k - 1) & (span <= (b if k > 1 else 0))]


def palindromic_vertex_count(p: Params) -> int:
    """How many vertices ``mirror_numbering`` lists one by one: the
    members of the non-central palindromic classes,
    Σ C(n-2lo-1, k-2) over their lo."""
    return sum(class_size(lo, p.n - lo, p.k) for lo in _palindromic_starts(p).tolist())


class _MirrorLabels:
    """The labels of the mirror numbering of G(n, k, b).

    Block r0 holds the non-central vertices with min+max < n (the low
    universe, W(l) = min(b, n-2l-1) for l < n-b) and the even members of
    the palindromic list; the central block (W(l) = b-l for l >= n-b)
    follows; block r1 holds the rest.  The palindromic list is every
    non-central vertex with min+max = n in lex order, about
    |V|/(2(n-b+1)) of them; it is the one per-vertex list, and its
    members at odd positions go to r1.

    r0 and the central block are in lex order.  r1 is in reversed-tuple
    order, which the reflection s(X) = n - X turns into descending lex
    order of the images: label(v) = |V| - #{u in r1 : s(u) <lex s(v)},
    and s maps the high-sum vertices onto the low universe.  Lex
    comparisons with palindromic members go through global lex ranks.
    """

    def __init__(self, p: Params) -> None:
        n, b, k = p.n, p.b, p.k
        self.p, self.total = p, _vertex_total(p)
        table = _binomials(p)
        l = np.arange(n + 1)
        self.everything = _Lex(table, np.minimum(b, n - l))
        self.low = _Lex(table, np.where(l < n - b, np.minimum(b, n - 2 * l - 1), -1))
        self.central = _Lex(table, np.where(l >= n - b, b - l, -1))
        self.pal_lo = lo = _palindromic_starts(p)
        self.pal = _class_members(table, lo, n - lo, k)
        # odd members are ranked through their images, like all of r1
        self.pal_odd = np.arange(self.pal.shape[1]) % 2 == 1
        self.pal_ranked = np.where(self.pal_odd, self._reflect(self.pal), self.pal)
        self.pal_rank = self.everything.ranks(self.pal_ranked)
        self.left_pal = self.pal_rank[~self.pal_odd]
        self.right_pal = np.sort(self.pal_rank[self.pal_odd])
        self.r0_size = self.low.size + len(self.left_pal)

    def _reflect(self, vertices: np.ndarray) -> np.ndarray:
        return self.p.n - vertices[::-1]

    def _wing_labels(self, low_rank: np.ndarray, rank: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Labels of non-central vertices from the ranks, in the low
        universe and in the whole vertex set, of the vertex itself in r0
        and of its image where ``right`` (r1).

        An r0 vertex follows the low-universe and even palindromic
        vertices lex-below it; an r1 vertex v precedes, counting back
        from |V|, the r1 vertices u with s(u) <lex s(v): the low-universe
        vertices and odd palindromic images lex-below s(v).
        """
        return np.where(
            right,
            self.total - low_rank - np.searchsorted(self.right_pal, rank),
            low_rank + np.searchsorted(self.left_pal, rank) + 1,
        )

    def class_labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, first, last) of every class.

        Outside the palindromic classes a class's lex-first member takes
        its smallest label and its lex-last member its largest: in r1
        too, as s maps the lex-last member of the low class (n-hi, n-lo)
        to the lex-first member of (lo, hi).  A palindromic class takes
        the extremes of its members' labels.
        """
        n, b = self.p.n, self.p.b
        lo, hi = span_classes(self.p).T
        central = (lo >= n - b) & (hi <= b)
        # a high class is ranked through its image (n - hi, n - lo), whose
        # lex-last member reflects to the lex-first member of (lo, hi);
        # each formula below is read only for the classes it applies to
        high = ~central & (lo + hi > n)
        w_lo, w_hi = np.where(high, n - hi, lo), np.where(high, n - lo, hi)
        low_first, low_last = self.low.class_ranks(w_lo, w_hi)
        all_first, all_last = self.everything.class_ranks(w_lo, w_hi)
        c_first, c_last = self.central.class_ranks(lo, hi)
        first = np.where(
            central,
            self.r0_size + c_first + 1,
            self._wing_labels(
                np.where(high, low_last, low_first), np.where(high, all_last, all_first), high
            ),
        )
        last = np.where(
            central,
            self.r0_size + c_last + 1,
            self._wing_labels(
                np.where(high, low_first, low_last), np.where(high, all_first, all_last), high
            ),
        )
        pal = ~central & (lo + hi == n)
        if pal.any():
            labels = self._wing_labels(self.low.ranks(self.pal_ranked), self.pal_rank, self.pal_odd)
            starts = np.searchsorted(self.pal[0], self.pal_lo)
            at = np.flatnonzero(pal)[np.argsort(lo[pal])]
            first[at] = np.minimum.reduceat(labels, starts)
            last[at] = np.maximum.reduceat(labels, starts)
        return lo, hi, first, last

    def order(self) -> np.ndarray:
        """Every vertex, in label order: the blocks r0, central and r1,
        r0 and central in lex order and r1 in descending lex order of the
        images, which is ascending lex order of the negated images."""
        n, b = self.p.n, self.p.b
        lo, hi = span_classes(self.p).T
        # every class but the non-central palindromic ones, listed in self.pal
        listed = (lo + hi != n) | ((lo >= n - b) & (hi <= b))
        vertices = _class_members(_binomials(self.p), lo[listed], hi[listed], self.p.k)
        central = (vertices[0] >= n - b) & (vertices[-1] <= b)
        high = vertices[0] + vertices[-1] > n
        block = np.concatenate((np.where(central, 1, 2 * high), 2 * self.pal_odd))
        vertices = np.concatenate((vertices, self.pal), axis=1)
        keys = np.where(block == 2, -self._reflect(vertices), vertices)
        return vertices[:, np.lexsort((*keys[::-1], block))]


def mirror_numbering(p: Params) -> Numbering:
    """Block order r0, central, r1; lex inside r0 and central, and
    lex on the reversed tuple inside r1.  When 2b >= n+k-1 the central
    block is nonempty and the bandwidth equals ceil((|V|+|C|-2)/2),
    which is optimal; the construction itself is valid for every p."""
    _check_size(p, "mirror")
    labels = _MirrorLabels(p)
    return Numbering._from_table(p, "mirror", labels.class_labels(), labels.order)


# ── band-decomposition numberings ─────────────────────────────────────


@dataclass(frozen=True)
class _BandScale:
    """Integer form of the decomposition 1 = q*(b/n) + r: n = q*b + R.

    R = r*n and S = b - R = (beta - r)*n are plain integers, so every
    block boundary below is an exact integer comparison.  q and regime
    are those of ``beta_decomposition(b/n)``.
    """

    n: int
    b: int
    q: int
    R: int
    S: int
    regime: str


def _band_scale(p: Params) -> _BandScale:
    if 2 * p.b > p.n:
        raise ValueError(
            f"band numbering needs b/n <= 1/2, got {p.b}/{p.n}"
        )
    if p.n**3 >= 2**63:
        raise ValueError(f"band numbering keys need n^3 < 2^63 (int64), got n = {p.n}")
    dec = beta_decomposition(Fraction(p.b, p.n))
    R = p.n - dec.q * p.b
    return _BandScale(n=p.n, b=p.b, q=dec.q, R=R, S=p.b - R, regime=dec.regime)


def _strip_blocks(x: np.ndarray, d: np.ndarray, sc: _BandScale):
    """Strip of each point (x, x+d): (is a triangle, index i).

    The i-th quadrangle strip is q*i*b <= M_i < q*(i*b + R) with
    M_i = q*x + i*d (the last strip keeps its right boundary), and the
    i-th triangle sits between strip i-1 and strip i; the blocks are
    taken in ordinal order, so each point lands in the first whose
    condition it meets.  With D = q*b - d > 0 the conditions read
    i*D > q*(x - R) for strip i and i*D > q*x for triangle i >= 1.  The
    strip condition holds first (R >= 0), at i = q*(x-R)//D + 1 (capped
    to 0..q), and the point is in triangle i exactly when that i already
    meets the triangle condition.
    """
    q = sc.q
    D = q * sc.b - d
    i = np.clip((q * (x - sc.R)) // D + 1, 0, q)
    return (i >= 1) & (i * D > q * x), i


def _tri_position(x: np.ndarray, d: np.ndarray, i: np.ndarray, sc: _BandScale):
    """Fan position of the points in the i-th apex triangle, as (num, den).

    The apex A_i = (i*R, i*R + q*S) looks down at the diagonal; rays
    from it sweep the triangle from its left edge to its right edge.
    The ray through (x, y) meets the diagonal at abscissa
    (q*S*x - i*R*d) / (q*S - d), which increases with the sweep, and on
    a fixed ray the points are taken with distance from the apex
    decreasing, i.e. d = y-x increasing (the reflected radius).  The
    denominator is positive: triangle points stay strictly below the
    apex level d = q*S.
    """
    qS = sc.q * sc.S
    return qS * x - i * sc.R * d, qS - d


def _exact_position(num: np.ndarray, den: np.ndarray, n: int) -> np.ndarray:
    """floor(num·n²/den), in the order of num/den when 0 < den <= n.

    Two distinct such rationals differ by at least 1/n², so their scaled
    values differ by at least 1 and keep their order after the floor.
    Split as (num // den)·n² + (num % den)·n² // den, every intermediate
    stays within n³ in absolute value when |num/den| <= n, as for every
    position here; ``_band_scale`` refuses n³ >= 2⁶³.
    """
    if not ((den > 0).all() and (den <= n).all()):
        raise AssertionError(f"position denominators must lie in 1..{n}")
    quot, rem = np.divmod(num, den)
    return quot * (n * n) + rem * (n * n) // den


def _band_numbering(p: Params, tag: str, lo, d, block, position) -> Numbering:
    """Order the classes by (block, position, d) and give each the next
    class_size labels, its vertices in lex order.

    Distinct classes never tie: within a block and a span d, the
    position is strictly increasing in lo.
    """
    _vertex_total(p)  # before the int64 class sizes
    perm = np.lexsort((d, position, block))
    lo, d = lo[perm], d[perm]
    hi, sizes = lo + d, _class_sizes(p)[d]
    last = np.cumsum(sizes)

    return Numbering._from_table(
        p, tag, (lo, hi, last - sizes + 1, last), lambda: _class_members(_binomials(p), lo, hi, p.k)
    )


def low_remainder_numbering(p: Params) -> Numbering:
    """Band-decomposition order for the low-remainder regime: quadrangle
    strip 0, triangle 1, strip 1, ..., triangle q, strip q.  Strips are
    ordered by (M_i, y-x), triangles by the apex-fan key; each class's
    vertices follow in lex order."""
    _check_size(p, "low_remainder")
    sc = _band_scale(p)
    if sc.regime != "low":
        raise ValueError(
            f"b/n = {p.b}/{p.n} has a high remainder; use high_remainder_numbering"
        )
    x, hi = span_classes(p).T
    d = hi - x
    tri, i = _strip_blocks(x, d, sc)
    tri_num, tri_den = _tri_position(x[tri], d[tri], i[tri], sc)
    position = sc.q * x + i * d
    position[tri] = _exact_position(tri_num, tri_den, p.n)
    return _band_numbering(p, "low_remainder", x, d, 2 * i - tri, position)


def high_remainder_numbering(p: Params) -> Numbering:
    """Band-decomposition order for the high-remainder regime: hexagon 0,
    triangle 1, hexagon 1, ..., triangle q, hexagon q.

    Each hexagon is cut by the apex line y = x + q*S into a lower
    quadrangle (classified by the same M_i strips as the low-remainder
    case) and an upper quadrangle swept by rays from the corner
    I = (0, n) (sector i lies between the rays through A_i and
    A_{i+1}).  Both halves are ordered by a common scale — the abscissa
    of the point's projection onto the apex line: the lower half
    projects parallel to the strip's left edge, giving (M_i - i*q*S)/q,
    the upper half projects along its ray from I, giving
    x*(n - q*S)/(n - (y-x)).  Ties are broken by y-x ascending, which
    keeps lower-half points before upper-half points at an equal
    abscissa and equals the reflected-radius order on each ray.
    """
    _check_size(p, "high_remainder")
    sc = _band_scale(p)
    if sc.regime == "low":
        raise ValueError(
            f"b/n = {p.b}/{p.n} has a low remainder; use low_remainder_numbering"
        )
    q, n = sc.q, sc.n
    qS = q * sc.S
    x, hi = span_classes(p).T
    d = hi - x
    tri, i = _strip_blocks(x, d, sc)
    tri_num, tri_den = _tri_position(x, d, i, sc)
    # The upper half's sector is the first i with P clockwise of the ray
    # I -> A_{i+1}: (q-i)*x + (i+1)*(y-n) < 0, i.e. i*(n-d) > q*x + y - n.
    upper = d > qS
    sector = np.clip((q * x + x + d - n) // (n - d) + 1, 0, q)
    block = np.where(upper, 2 * sector, 2 * i - tri)
    num = np.where(upper, x * (n - qS), np.where(tri, tri_num, q * x + i * d - i * qS))
    den = np.where(upper, n - d, np.where(tri, tri_den, q))
    return _band_numbering(p, "high_remainder", x, d, block, _exact_position(num, den, n))


# ── bandwidth evaluation ──────────────────────────────────────────────


def bandwidth_by_edge_scan(f: Numbering) -> int:
    """Reference evaluator: scan vertex pairs for adjacency directly.

    Quadratic in |V|.  It is the independent test oracle for
    ``bandwidth_of_numbering`` and no library path calls it.
    """
    p = f.params
    verts = f.order
    m = len(verts)
    best = 0
    for i in range(m):
        # positions j <= i + best cannot improve on the current best
        for j in range(m - 1, i + best, -1):
            if are_adjacent(verts[i], verts[j], p):
                best = j - i
                break
    return best


def bandwidth_of_numbering(f: Numbering) -> int:
    """Exact max |f(u)-f(v)| over edges, via span-class label tables.

    For each class take the min and max label among its vertices; the
    widest edge from a class reaches the largest max label over its
    adjacent classes.  Those include the class itself, which accounts
    for intra-class edges (same-class vertices are always adjacent); a
    singleton class only contributes its own 0.  Exact for every k: at
    k = 1 each class is a singleton (lo, lo).

    Runs in O(classes + n·b) after the per-class labels.
    """
    lo, hi, first, last = f.class_labels()
    return int((adjacent_class_max(f.params, lo, hi, last) - first).max())
