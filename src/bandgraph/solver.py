"""Exact minimum bandwidth for small graphs, plus per-instance
certification of G(n, k, b) combining bounds and constructed numberings.

``exact_bandwidth`` answers "is there a numbering of width <= W?" by
left-to-right placement with pruning, trying W upward from a degree
lower bound; the first feasible W is the bandwidth and the placement
found is a witness numbering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bounds import beta_decomposition, central_lower_bound, density_lower_bound
from .core_graph import Params, central_count, vertex_count_formula
from .hypergraph import CapacityError, SimpleGraph, band_graph_as_simple_graph
from .numbering import (
    Numbering,
    bandwidth_of_numbering,
    custom_numbering,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
)

__all__ = [
    "exact_bandwidth",
    "exact_bandwidth_with_witness",
    "Certificate",
    "certify",
]

DEFAULT_CAP = 24


def _adjacency_lists(g: SimpleGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in g.edges:
        u, v = tuple(e)
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _identity_width(g: SimpleGraph) -> int:
    if not g.edges:
        return 0
    return max(abs(u - v) for u, v in (tuple(e) for e in g.edges))


def _feasible_placement(g: SimpleGraph, width: int) -> tuple[int, ...] | None:
    """A vertex order with all edges spanning <= width positions, or None.

    Positions are filled left to right.  Placing u at position p is
    allowed only if every placed neighbor of u sits at position > p-width
    (i.e. within the active window).  After each placement the vertex
    falling out of the window must have no unplaced neighbors, and every
    window vertex must still have room for its unplaced neighbors before
    its own deadline.  Failed (placed-set, window-order) states are
    memoized — the future depends on nothing else.
    """
    m = g.vertex_count
    adj = _adjacency_lists(g)
    degree = [len(a) for a in adj]
    # candidates tried by descending degree, tie by vertex id
    by_preference = sorted(range(m), key=lambda v: (-degree[v], v))

    placement: list[int] = []
    placed = [False] * m
    position = [-1] * m
    unplaced_nbrs = degree[:]
    failed: set[tuple[frozenset[int], tuple[int, ...]]] = set()

    def dfs() -> bool:
        p = len(placement)
        if p == m:
            return True
        window = tuple(placement[-width:]) if width else ()
        state = (frozenset(placement), window)
        if state in failed:
            return False
        for u in by_preference:
            if placed[u]:
                continue
            if any(placed[w] and p - position[w] > width for w in adj[u]):
                continue
            placement.append(u)
            placed[u] = True
            position[u] = p
            for w in adj[u]:
                unplaced_nbrs[w] -= 1
            ok = True
            if p >= width:
                leaving = placement[p - width]
                if unplaced_nbrs[leaving] > 0:
                    ok = False
            if ok:
                for t in range(max(0, p - width + 1), p + 1):
                    v = placement[t]
                    if unplaced_nbrs[v] > t + width - p:
                        ok = False
                        break
            if ok and dfs():
                return True
            placement.pop()
            placed[u] = False
            position[u] = -1
            for w in adj[u]:
                unplaced_nbrs[w] += 1
        failed.add(state)
        return False

    if dfs():
        return tuple(placement)
    return None


def exact_bandwidth_with_witness(g: SimpleGraph) -> tuple[int, tuple[int, ...]]:
    """Exact bandwidth and a witness vertex order achieving it, for at
    most DEFAULT_CAP vertices."""
    m = g.vertex_count
    if m > DEFAULT_CAP:
        raise CapacityError(
            f"{m} vertices exceeds the exact-search cap {DEFAULT_CAP}; use bounds/numberings"
        )
    lower = max((-(-len(a) // 2) for a in _adjacency_lists(g)), default=0)
    upper = _identity_width(g)
    for width in range(lower, upper + 1):
        witness = _feasible_placement(g, width)
        if witness is not None:
            return width, witness
    raise AssertionError("search must succeed at the identity width")


def exact_bandwidth(g: SimpleGraph) -> int:
    return exact_bandwidth_with_witness(g)[0]


# ── certification ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class Certificate:
    """Bandwidth bracket for one parameter triple.

    lower <= B(G(n,k,b)) <= upper; witness attains upper; method is the
    witness's tag.  exact means the bracket is tight (lower == upper, or
    an exact search pinned the value, recorded in exact_value).
    """

    params: Params
    lower: int
    upper: int
    witness: Numbering
    exact_value: int | None = None

    @property
    def method(self) -> str:
        return self.witness.tag

    @property
    def exact(self) -> bool:
        return self.lower == self.upper or self.exact_value is not None

    @property
    def value(self) -> int | None:
        if self.exact_value is not None:
            return self.exact_value
        if self.lower == self.upper:
            return self.lower
        return None


def certify(p: Params, run_exact: bool = False) -> Certificate:
    """Best available bracket from closed-form bounds and constructed
    numberings; optionally pin the value by exact search (small graphs).
    """
    if p.b == p.k - 1:
        lower = 0  # edgeless graph: no distance structure to bound with
    else:
        lower = density_lower_bound(p)
    if central_count(p) > 0:
        lower = max(lower, central_lower_bound(p))

    candidates = [lex_numbering(p), mirror_numbering(p)]
    if 2 * p.b <= p.n:
        if beta_decomposition(Fraction(p.b, p.n)).regime == "low":
            candidates.append(low_remainder_numbering(p))
        else:
            candidates.append(high_remainder_numbering(p))

    best: tuple[int, Numbering] | None = None
    for f in candidates:
        width = bandwidth_of_numbering(f)
        if best is None or width < best[0]:
            best = (width, f)
    assert best is not None
    upper, witness = best

    exact_value: int | None = None
    if run_exact:
        if vertex_count_formula(p) > DEFAULT_CAP:
            raise CapacityError(
                f"|V| = {vertex_count_formula(p)} exceeds exact-search cap {DEFAULT_CAP}"
            )
        graph, verts = band_graph_as_simple_graph(p)
        value, placement = exact_bandwidth_with_witness(graph)
        assert lower <= value <= upper, f"exact bandwidth {value} outside [{lower}, {upper}]"
        exact_value = value
        if value < upper:
            upper = value
            witness = custom_numbering(p, [verts[i] for i in placement])

    return Certificate(
        params=p,
        lower=lower,
        upper=upper,
        witness=witness,
        exact_value=exact_value,
    )
