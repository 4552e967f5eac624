"""Test oracle: the band numberings built one vertex at a time.

This is the per-vertex construction the library used before it worked
on span classes.  Each vertex gets the sort key (block, pos, d, v) from
a scan over the strips (``strip_block``) or the sectors, with exact
``Fraction`` positions, and the vertices are sorted on it.  It shares no
code with ``bandgraph.numbering`` beyond ``beta_decomposition``, so the
tests compare the class-level constructors against it.
"""

from __future__ import annotations

from fractions import Fraction

from bandgraph.bounds import beta_decomposition
from bandgraph.core_graph import Params, Vertex, enumerate_vertices


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
