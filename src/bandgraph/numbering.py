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

All geometric classifications and comparisons are exact: a vertex X
maps to the integer point (min(X), max(X)) and every block test is an
integer inequality; within-block sort keys are integers or Fractions.

``bandwidth_of_numbering`` evaluates max |f(u)-f(v)| over edges without
enumerating edges: vertices sharing (min, max) form a span class, all
adjacencies are determined at class level, and the adjacent-class
rectangle {lo2 >= hi1-b, hi2 <= lo1+b} is queried through 2D running
maxima over the (lo, hi) grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bounds import beta_decomposition
from .core_graph import (
    Params,
    Vertex,
    are_adjacent,
    enumerate_vertices,
    is_central,
    is_vertex,
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


@dataclass(frozen=True)
class Numbering:
    """A proper numbering: order[i] carries label i+1 (labels 1..|V|)."""

    params: Params
    tag: str
    order: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        expected = vertex_count_formula(self.params)
        if len(self.order) != expected:
            raise ValueError(
                f"numbering has {len(self.order)} entries, graph has {expected} vertices"
            )
        if len(set(self.order)) != expected:
            raise ValueError("numbering repeats a vertex")
        for v in self.order:
            if not is_vertex(v, self.params):
                raise ValueError(f"{v} is not a vertex of G{self.params}")

    @cached_property
    def labels(self) -> dict[Vertex, int]:
        return {v: i + 1 for i, v in enumerate(self.order)}

    def label(self, v: Vertex) -> int:
        return self.labels[v]

    def __len__(self) -> int:
        return len(self.order)


def custom_numbering(p: Params, order) -> Numbering:
    return Numbering(params=p, tag="custom", order=tuple(map(tuple, order)))


def lex_numbering(p: Params) -> Numbering:
    return Numbering(params=p, tag="lex", order=tuple(enumerate_vertices(p)))


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
    return Numbering(params=p, tag="mirror", order=part.r0 + part.central + part.r1)


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
    dec = beta_decomposition(Fraction(p.b, p.n))
    R = p.n - dec.q * p.b
    return _BandScale(n=p.n, b=p.b, q=dec.q, R=R, S=p.b - R, regime=dec.regime)


def _strip_block(x: int, y: int, sc: _BandScale) -> tuple[str, int]:
    """Assign the point (x, y) to its strip: ("quad", i) or ("tri", i).

    The i-th quadrangle strip is q*i*b <= M_i < q*(i*b + R) with
    M_i = q*x + i*(y-x) (the last strip keeps its right boundary), and
    the i-th triangle sits between strip i-1 and strip i.  Scanning in
    ordinal order makes the earlier-block conditions implicit, so each
    point lands in exactly one block.
    """
    q, b, R = sc.q, sc.b, sc.R
    d = y - x
    for i in range(q + 1):
        m_i = q * x + i * d
        if i >= 1 and m_i < q * i * b:
            return ("tri", i)
        if i == q or m_i < q * (i * b + R):
            return ("quad", i)
    raise AssertionError("strip scan is total")


def _tri_key(x: int, y: int, i: int, sc: _BandScale) -> tuple:
    """Fan order of the i-th apex triangle.

    The apex A_i = (i*R, i*R + q*S) looks down at the diagonal; rays
    from it sweep the triangle from its left edge to its right edge.
    The ray through (x, y) meets the diagonal at abscissa
    (q*S*x - i*R*d) / (q*S - d), which increases with the sweep, and on
    a fixed ray the points are taken with distance from the apex
    decreasing, i.e. d = y-x increasing (the reflected radius).  The
    denominator is positive: triangle points stay strictly below the
    apex level d = q*S.
    """
    d = y - x
    return (Fraction(sc.q * sc.S * x - i * sc.R * d, sc.q * sc.S - d), d)


def low_remainder_numbering(p: Params) -> Numbering:
    """Band-decomposition order for the low-remainder regime: quadrangle
    strip 0, triangle 1, strip 1, ..., triangle q, strip q.  Strips are
    ordered by (M_i, y-x, tuple), triangles by the apex-fan key."""
    sc = _band_scale(p)
    if sc.regime != "low":
        raise ValueError(
            f"b/n = {p.b}/{p.n} has a high remainder; use high_remainder_numbering"
        )
    q = sc.q
    keyed = []
    for v in enumerate_vertices(p):
        x, y = v[0], v[-1]
        d = y - x
        kind, i = _strip_block(x, y, sc)
        if kind == "quad":
            key = (2 * i, q * x + i * d, d, v)
        else:
            pos, dd = _tri_key(x, y, i, sc)
            key = (2 * i - 1, pos, dd, v)
        keyed.append(key)
    keyed.sort()
    return Numbering(params=p, tag="low_remainder", order=tuple(k[-1] for k in keyed))


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
    keyed = []
    for v in enumerate_vertices(p):
        x, y = v[0], v[-1]
        d = y - x
        if d > qS:
            # sector about I: the sector index is the first i with P
            # clockwise of the ray I -> A_{i+1}; the test value
            # (q-i)*x + (i+1)*(y-n) decreases in i, so scan ascending.
            sector = q
            for i in range(q):
                if (q - i) * x + (i + 1) * (y - n) < 0:
                    sector = i
                    break
            key = (2 * sector, Fraction(x * (n - qS), n - d), d, v)
        else:
            kind, i = _strip_block(x, y, sc)
            if kind == "quad":
                key = (2 * i, Fraction(q * x + i * d - i * qS, q), d, v)
            else:
                pos, dd = _tri_key(x, y, i, sc)
                key = (2 * i - 1, pos, dd, v)
        keyed.append(key)
    keyed.sort()
    return Numbering(params=p, tag="high_remainder", order=tuple(k[-1] for k in keyed))


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

    For each class (lo, hi) take the min and max label among its
    vertices.  Classes c1, c2 hold adjacent vertices iff
    max(hi1, hi2) - min(lo1, lo2) <= b, i.e. c2 lies in the rectangle
    lo2 >= hi1-b, hi2 <= lo1+b; a running-maximum table answers the
    rectangle-max query in O(1) per class.  The query rectangle always
    contains c1 itself, which also accounts for intra-class edges
    (same-class vertices are always adjacent); a singleton class only
    contributes its own 0.  Exact for every k: at k = 1 each class is a
    singleton (lo, lo).  Runs in O(|V| + n^2).
    """
    p = f.params
    n, b = p.n, p.b
    m = len(f.order)
    los = np.fromiter((v[0] for v in f.order), dtype=np.int64, count=m)
    his = np.fromiter((v[-1] for v in f.order), dtype=np.int64, count=m)
    labels = np.arange(1, m + 1, dtype=np.int64)

    max_label = np.full((n + 1, n + 1), -1, dtype=np.int64)
    min_label = np.full((n + 1, n + 1), m + 1, dtype=np.int64)
    np.maximum.at(max_label, (los, his), labels)
    np.minimum.at(min_label, (los, his), labels)

    # table[a, c] = max label over classes with lo >= a and hi <= c
    table = np.maximum.accumulate(max_label[::-1, :], axis=0)[::-1, :]
    table = np.maximum.accumulate(table, axis=1)

    occ_lo, occ_hi = np.nonzero(max_label >= 0)
    rows = np.maximum(occ_hi - b, 0)
    cols = np.minimum(occ_lo + b, n)
    spreads = table[rows, cols] - min_label[occ_lo, occ_hi]
    return max(int(spreads.max()), 0)
