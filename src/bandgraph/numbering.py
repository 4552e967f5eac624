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

Lex, mirror and custom numberings are explicit vertex orders.  The band
numberings place a vertex X by the integer point (min(X), max(X)) alone,
so they order the O(n·b) span classes and give each class a block of
consecutive labels, its vertices in lex order; their vertex order is
listed only on demand.  Every block test is an integer inequality,
solved in closed form for all classes at once.  A within-block position
is an integer or a rational num/den in [0, n] with 0 < den <= n; two
distinct such rationals differ by at least 1/n², so the integer
floor(num·n²/den) orders them exactly.

``bandwidth_of_numbering`` evaluates max |f(u)-f(v)| over edges without
enumerating edges: vertices sharing (min, max) form a span class, all
adjacencies are determined at class level, and
``core_graph.adjacent_class_max`` takes each class's largest label over
its adjacent classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from .bounds import beta_decomposition
from .core_graph import (
    Params,
    Vertex,
    adjacent_class_max,
    are_adjacent,
    class_size,
    enumerate_vertices,
    is_central,
    span_classes,
    vertex_count_formula,
)

__all__ = [
    "Numbering",
    "MirrorPartition",
    "lex_numbering",
    "mirror_partition",
    "mirror_numbering",
    "low_remainder_numbering",
    "high_remainder_numbering",
    "custom_numbering",
    "bandwidth_of_numbering",
    "bandwidth_by_edge_scan",
]

# Labels and class sizes are int64; a graph needs fewer vertices than this.
MAX_LABELED_VERTICES = 2**62


class Numbering:
    """A proper numbering of G(n, k, b) with labels 1..|V|.

    Built from an explicit vertex order (``order[i]`` carries label i+1),
    or from ``classes=(lo, hi)``, the span classes in label order: each
    class takes the next ``class_size`` labels, its vertices in lex
    order, and ``order`` is listed on first use.
    """

    def __init__(self, params: Params, tag: str, order=None, *, classes=None) -> None:
        if (order is None) == (classes is None):
            raise TypeError("give exactly one of order and classes")
        self.params = params
        self.tag = tag
        if classes is None:
            self._order: tuple[Vertex, ...] | None = tuple(order)
            self._ends = _check_order(self._order, params)
            self._size = len(self._order)
            self._class_labels = None
        else:
            lo, hi = (np.asarray(a, dtype=np.int64) for a in classes)
            sizes = _check_classes(lo, hi, params)
            last = np.cumsum(sizes)
            self._order = None
            self._size = vertex_count_formula(params)
            self._class_labels = (lo, hi, last - sizes + 1, last)

    @property
    def order(self) -> tuple[Vertex, ...]:
        if self._order is None:
            lo, hi = self._class_labels[:2]
            self._order = tuple(_class_vertices(lo.tolist(), hi.tolist(), self.params.k))
        return self._order

    def class_labels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, min label, max label) of every span class."""
        if self._class_labels is None:
            p, m = self.params, self._size
            width = p.b + 1
            lo, hi = self._ends.T
            cell = lo * width + (hi - lo)
            labels = np.arange(1, m + 1, dtype=np.int64)
            top = np.zeros((p.n + 1) * width, dtype=np.int64)
            bottom = np.full_like(top, m + 1)
            np.maximum.at(top, cell, labels)
            np.minimum.at(bottom, cell, labels)
            occ = np.flatnonzero(top)
            lo = occ // width
            self._class_labels = (lo, lo + occ % width, bottom[occ], top[occ])
        return self._class_labels

    @cached_property
    def labels(self) -> dict[Vertex, int]:
        return {v: i + 1 for i, v in enumerate(self.order)}

    def label(self, v: Vertex) -> int:
        return self.labels[v]

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self.tag, self.order) == (other.params, other.tag, other.order)

    def __hash__(self) -> int:
        return hash((self.params, self.tag, self.order))

    def __repr__(self) -> str:
        return f"Numbering(params={self.params}, tag={self.tag!r}, |V|={self._size})"


def _check_order(order: tuple, p: Params) -> np.ndarray:
    """Check that ``order`` lists every vertex once; return (min, max) of
    each entry, shape (|V|, 2)."""
    m, k = len(order), p.k
    expected = vertex_count_formula(p)
    if m != expected:
        raise ValueError(f"numbering has {m} entries, graph has {expected} vertices")
    if len(set(order)) != expected:
        raise ValueError("numbering repeats a vertex")
    # The entries before the first one of another length than k, or with an
    # element outside int64 (never a vertex), form an array.
    (wrong,) = np.nonzero(np.fromiter(map(len, order), dtype=np.int64, count=m) != k)
    stop = int(wrong[0]) if wrong.size else m
    try:
        rows = _int64_rows(order[:stop], k)
    except OverflowError:
        stop = next(i for i, v in enumerate(order) if not all(map(_fits_int64, v)))
        rows = _int64_rows(order[:stop], k)
    lo, hi = rows[:, 0], rows[:, -1]
    bad = (lo < 0) | (hi > p.n) | (hi - lo > p.b) | (np.diff(rows, axis=1) <= 0).any(axis=1)
    (bad_at,) = np.nonzero(bad)
    if bad_at.size or stop < m:
        v = order[int(bad_at[0]) if bad_at.size else stop]
        raise ValueError(f"{v} is not a vertex of G{p}")
    return rows[:, [0, -1]]


def _int64_rows(entries: tuple, k: int) -> np.ndarray:
    flat = np.fromiter(chain.from_iterable(entries), dtype=np.int64, count=len(entries) * k)
    return flat.reshape(len(entries), k)


def _fits_int64(x: int) -> bool:
    return -(2**63) <= x < 2**63


def _class_sizes(p: Params) -> np.ndarray:
    """class_size of a class of span d, for d = 0..b."""
    return np.array([class_size(0, d, p.k) for d in range(p.b + 1)], dtype=np.int64)


def _check_classes(lo: np.ndarray, hi: np.ndarray, p: Params) -> np.ndarray:
    """Check that (lo, hi) lists every span class once; return the sizes."""
    total = vertex_count_formula(p)
    if total >= MAX_LABELED_VERTICES:
        raise ValueError(f"G{p} has {total} vertices; int64 labels need fewer than 2^62")
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError("classes must be two 1-d arrays of equal length")
    span = hi - lo
    if ((lo < 0) | (hi > p.n) | (span < 0) | (span > p.b)).any():
        raise ValueError(f"a class lies outside 0 <= lo <= hi <= n, hi - lo <= b of G{p}")
    sizes = _class_sizes(p)[span]
    if (sizes == 0).any():
        raise ValueError(f"a class of G{p} holds no vertex")
    if lo.size and np.bincount(lo * (p.b + 1) + span).max() > 1:
        raise ValueError("numbering repeats a span class")
    if int(sizes.sum()) != total:
        raise ValueError(f"classes hold {int(sizes.sum())} vertices, graph has {total}")
    return sizes


def _class_vertices(los: list[int], his: list[int], k: int):
    """The vertices of each class (lo, hi) in turn, each class in lex order."""
    if k == 1:
        return ((lo,) for lo in los)
    return (
        (lo, *mid, hi)
        for lo, hi in zip(los, his)
        for mid in combinations(range(lo + 1, hi), k - 2)
    )


def custom_numbering(p: Params, order) -> Numbering:
    return Numbering(p, "custom", tuple(map(tuple, order)))


def lex_numbering(p: Params) -> Numbering:
    return Numbering(p, "lex", tuple(enumerate_vertices(p)))


# ── mirror numbering ──────────────────────────────────────────────────


@dataclass(frozen=True)
class MirrorPartition:
    """V split into r0, central, r1 (each already in its final order).

    The map X -> {n - x : x in X} swaps the blocks r0 and r1 while
    fixing the central block, hence |r0| and |r1| differ by at most 1:
    non-central vertices with min+max < n go left, > n go right, and the
    palindromic ones (min+max = n) are dealt out alternately by
    ascending lex rank.
    """

    params: Params
    r0: tuple[Vertex, ...]
    central: tuple[Vertex, ...]
    r1: tuple[Vertex, ...]


def mirror_partition(p: Params) -> MirrorPartition:
    low: list[Vertex] = []
    high: list[Vertex] = []
    sym: list[Vertex] = []
    cent: list[Vertex] = []
    for v in enumerate_vertices(p):
        if is_central(v, p):
            cent.append(v)
        else:
            s = v[0] + v[-1]
            if s < p.n:
                low.append(v)
            elif s > p.n:
                high.append(v)
            else:
                sym.append(v)
    r0 = sorted(low + sym[0::2])
    r1 = sorted(high + sym[1::2], key=lambda t: t[::-1])
    return MirrorPartition(params=p, r0=tuple(r0), central=tuple(cent), r1=tuple(r1))


def mirror_numbering(p: Params) -> Numbering:
    """Block order r0, central, r1; lex inside r0 and central, and
    lex on the reversed tuple inside r1.  When 2b >= n+k-1 the central
    block is nonempty and the bandwidth equals ceil((|V|+|C|-2)/2),
    which is optimal; the construction itself is valid for every p."""
    part = mirror_partition(p)
    return Numbering(p, "mirror", part.r0 + part.central + part.r1)


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
    assert (den > 0).all() and (den <= n).all()
    quot, rem = np.divmod(num, den)
    return quot * (n * n) + rem * (n * n) // den


def _band_numbering(p: Params, tag: str, lo, d, block, position) -> Numbering:
    """Order the classes by (block, position, d) and label them in turn.

    Distinct classes never tie: within a block and a span d, the
    position is strictly increasing in lo.
    """
    perm = np.lexsort((d, position, block))
    return Numbering(p, tag, classes=(lo[perm], lo[perm] + d[perm]))


def low_remainder_numbering(p: Params) -> Numbering:
    """Band-decomposition order for the low-remainder regime: quadrangle
    strip 0, triangle 1, strip 1, ..., triangle q, strip q.  Strips are
    ordered by (M_i, y-x), triangles by the apex-fan key; each class's
    vertices follow in lex order."""
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
