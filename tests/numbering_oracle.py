"""Test oracle: the library numberings built one vertex at a time.

These are the per-vertex constructions the library used before it
worked on span classes.

* Lex sorts the k-subsets of each window [lo, lo + b].
* Mirror splits the vertices into r0, central and r1 by a test on each
  vertex, deals out the palindromic ones alternately, and sorts r0 and
  r1.
* The band numberings give each vertex the sort key (block, pos, d, v)
  from a scan over the strips (``strip_block``) or the sectors, with
  exact ``Fraction`` positions, and sort the vertices on it.

They share no code with ``bandgraph.numbering`` beyond
``beta_decomposition``, so the tests compare the class-level
constructors against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from bandgraph.bounds import beta_decomposition
from bandgraph.core_graph import Params, Vertex, enumerate_vertices, is_central


def lex_order(p: Params) -> tuple[Vertex, ...]:
    """Every vertex, sorted."""
    return tuple(
        sorted(
            (lo, *rest)
            for lo in range(p.n + 1)
            for rest in combinations(range(lo + 1, min(lo + p.b, p.n) + 1), p.k - 1)
        )
    )


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


def mirror_order(p: Params) -> tuple[Vertex, ...]:
    part = mirror_partition(p)
    return part.r0 + part.central + part.r1


def band_scale(p: Params) -> tuple[int, int, int, str]:
    """(q, R, S, regime) of n = q*b + R, S = b - R."""
    dec = beta_decomposition(Fraction(p.b, p.n))
    R = p.n - dec.q * p.b
    return dec.q, R, p.b - R, dec.regime


def strip_block(x: int, y: int, q: int, b: int, R: int) -> tuple[str, int]:
    """("quad", i) or ("tri", i): the first block of the ordinal scan
    whose condition (x, y) meets."""
    d = y - x
    for i in range(q + 1):
        m_i = q * x + i * d
        if i >= 1 and m_i < q * i * b:
            return ("tri", i)
        if i == q or m_i < q * (i * b + R):
            return ("quad", i)
    raise AssertionError("strip scan is total")


def tri_key(x: int, y: int, i: int, q: int, R: int, S: int) -> tuple:
    """Apex-fan position of (x, y) in the i-th triangle, then y-x."""
    d = y - x
    return (Fraction(q * S * x - i * R * d, q * S - d), d)


def sector(x: int, y: int, q: int, n: int) -> int:
    """First i with (q-i)*x + (i+1)*(y-n) < 0, else q."""
    for i in range(q):
        if (q - i) * x + (i + 1) * (y - n) < 0:
            return i
    return q


def low_remainder_order(p: Params) -> tuple[Vertex, ...]:
    q, R, S, regime = band_scale(p)
    assert regime == "low"
    keyed = []
    for v in enumerate_vertices(p):
        x, y = v[0], v[-1]
        d = y - x
        kind, i = strip_block(x, y, q, p.b, R)
        if kind == "quad":
            key = (2 * i, q * x + i * d, d, v)
        else:
            pos, dd = tri_key(x, y, i, q, R, S)
            key = (2 * i - 1, pos, dd, v)
        keyed.append(key)
    keyed.sort()
    return tuple(k[-1] for k in keyed)


def high_remainder_order(p: Params) -> tuple[Vertex, ...]:
    q, R, S, regime = band_scale(p)
    assert regime == "high"
    n, qS = p.n, q * S
    keyed = []
    for v in enumerate_vertices(p):
        x, y = v[0], v[-1]
        d = y - x
        if d > qS:
            key = (2 * sector(x, y, q, n), Fraction(x * (n - qS), n - d), d, v)
        else:
            kind, i = strip_block(x, y, q, p.b, R)
            if kind == "quad":
                key = (2 * i, Fraction(q * x + i * d - i * qS, q), d, v)
            else:
                pos, dd = tri_key(x, y, i, q, R, S)
                key = (2 * i - 1, pos, dd, v)
        keyed.append(key)
    keyed.sort()
    return tuple(k[-1] for k in keyed)
