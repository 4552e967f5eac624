"""Exact minimum bandwidth for small graphs, plus per-instance
certification of G(n, k, b) combining bounds and constructed numberings.

``exact_bandwidth_with_witness`` answers "is there a numbering of width
<= W?" by left-to-right placement with pruning, within one bracket: a
lower bound and a known vertex order, whose width over the edges is the
upper end (without one, 0 and the identity order).  It proves lower - 1
infeasible, then tries W upward from max(lower, degree bound) to one
below the upper end; the first feasible W is the bandwidth and the
placement found is a witness numbering, and if none is, the order is
optimal.  Feasibility is monotone in W, so the one proof covers every
smaller width.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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


def _order_width(adj: list[list[int]], order) -> int:
    """Largest |position(u) - position(v)| over the edges, for a vertex
    order listing every vertex once.  Each edge is in both of its ends'
    lists, so one of its two differences is |position(u) - position(v)|."""
    position = [0] * len(adj)
    for i, v in enumerate(order):
        position[v] = i
    return max((position[v] - position[u] for u, a in enumerate(adj) for v in a), default=0)


def _feasible_placement(adj: list[list[int]], width: int) -> tuple[int, ...] | None:
    """A vertex order with all edges spanning <= width positions, or None.

    Positions are filled left to right.  After placing at position p,
    each vertex at a position t >= p - width must still have room for
    its unplaced neighbors before its own deadline t + width: at most
    t + width - p of them.  At t = p - width the room is 0, so the vertex
    leaving the window has no unplaced neighbor; hence every placed
    neighbor of an unplaced vertex lies within width of the next
    position, and any unplaced vertex may go there.  Failed (placed-set,
    window-order) states are memoized — the future depends on nothing
    else; the placed set is keyed as a bitmask, an int far smaller than
    a frozenset.
    """
    m = len(adj)
    degree = [len(a) for a in adj]
    # candidates tried by descending degree, tie by vertex id
    by_preference = sorted(range(m), key=lambda v: (-degree[v], v))

    placement: list[int] = []
    position = [-1] * m
    unplaced_nbrs = degree[:]
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(mask: int) -> bool:
        p = len(placement)
        if p == m:
            return True
        state = (mask, tuple(placement[-width:]) if width else ())
        if state in failed:
            return False
        for u in by_preference:
            if position[u] >= 0:
                continue
            placement.append(u)
            position[u] = p
            for w in adj[u]:
                unplaced_nbrs[w] -= 1
            for t in range(max(0, p - width), p + 1):
                if unplaced_nbrs[placement[t]] > t + width - p:
                    break
            else:
                if dfs(mask | 1 << u):
                    return True
            placement.pop()
            position[u] = -1
            for w in adj[u]:
                unplaced_nbrs[w] += 1
        failed.add(state)
        return False

    if dfs(0):
        return tuple(placement)
    return None


def exact_bandwidth_with_witness(
    g: SimpleGraph, bracket: tuple[int, Sequence[int]] | None = None
) -> tuple[int, tuple[int, ...]]:
    """Exact bandwidth and a witness vertex order achieving it, for at
    most DEFAULT_CAP vertices.

    ``bracket = (lower, order)`` is a lower bound and a vertex order
    listing every vertex once, whose width over the edges is the upper
    end; without one it is ``(0, identity order)``.  Width lower - 1 is
    proven infeasible (an AssertionError if it is not) unless the degree
    bound already rules it out, and W is tried in
    [max(lower, degree bound), upper - 1] only; if none is feasible the
    result is ``(upper, order)``: the order is optimal.
    """
    m = g.vertex_count
    if m > DEFAULT_CAP:
        raise CapacityError(
            f"{m} vertices exceeds the exact-search cap {DEFAULT_CAP}; use bounds/numberings"
        )
    lower, order = bracket or (0, range(m))
    order = tuple(order)
    if sorted(order) != list(range(m)):
        raise ValueError(f"order must list each of the {m} vertices once")
    adj = _adjacency_lists(g)
    degree = max((-(-len(a) // 2) for a in adj), default=0)
    upper = _order_width(adj, order)
    if lower - 1 >= degree and _feasible_placement(adj, lower - 1) is not None:
        raise AssertionError(
            f"width {lower - 1} is feasible: exact bandwidth outside [{lower}, {upper}]"
        )
    for width in range(max(lower, degree), upper):
        witness = _feasible_placement(adj, width)
        if witness is not None:
            return width, witness
    return upper, order


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


def _candidates(p: Params) -> Iterator[Numbering]:
    """lex, mirror, then (when 2b <= n) the band numbering of b/n's
    regime, each built only when asked for.  The builders are read from
    this module's namespace at call time."""
    yield lex_numbering(p)
    yield mirror_numbering(p)
    if 2 * p.b <= p.n:
        if beta_decomposition(Fraction(p.b, p.n)).regime == "low":
            yield low_remainder_numbering(p)
        else:
            yield high_remainder_numbering(p)


def certify(p: Params, run_exact: bool = False) -> Certificate:
    """Best available bracket from closed-form bounds and constructed
    numberings; optionally pin the value by exact search (small graphs).

    The lower bound is the density bound (0 for the edgeless b = k-1),
    raised to the central bound where the central set is nonempty.  The
    candidates lex, mirror and the band numbering of b/n's regime
    (2b <= n only) are built and evaluated in that order; the first of
    least width is the witness, and no candidate is built once one meets
    the lower bound, as a later one could only tie.  A candidate past
    ``numbering.MAX_TABLE_CELLS`` raises its builder's CapacityError.

    ``run_exact`` searches the explicit graph only within the open
    bracket: ``exact_bandwidth_with_witness`` takes lower and the
    witness's vertex order and proves lower - 1 infeasible.  If a width
    below the witness's is feasible it becomes the value and its
    placement the witness; otherwise the value is the witness's width
    over the explicit edges, which must equal upper, and so checks the
    class-table evaluator.  Each check raises AssertionError explicitly,
    so it holds under ``python -O`` too.
    """
    if p.b == p.k - 1:
        lower = 0  # edgeless graph: no distance structure to bound with
    else:
        lower = density_lower_bound(p)
    if central_count(p) > 0:
        lower = max(lower, central_lower_bound(p))

    candidates = _candidates(p)
    witness = next(candidates)
    upper = bandwidth_of_numbering(witness)
    while upper != lower and (f := next(candidates, None)) is not None:
        width = bandwidth_of_numbering(f)
        if width < upper:
            upper, witness = width, f

    exact_value: int | None = None
    if run_exact:
        if vertex_count_formula(p) > DEFAULT_CAP:
            raise CapacityError(
                f"|V| = {vertex_count_formula(p)} exceeds exact-search cap {DEFAULT_CAP}"
            )
        graph, verts = band_graph_as_simple_graph(p)
        index = {v: i for i, v in enumerate(verts)}
        order = tuple(index[v] for v in witness.order)
        exact_value, placement = exact_bandwidth_with_witness(graph, (lower, order))
        if placement == order:  # no order is narrower than the witness
            if exact_value != upper:
                raise AssertionError(
                    f"witness width {exact_value} over the edges, reported {upper}"
                )
        elif exact_value >= upper:
            raise AssertionError(
                f"exact bandwidth {exact_value}, below the witness's width over the "
                f"edges but not below the reported {upper}"
            )
        else:
            upper = exact_value
            witness = custom_numbering(p, [verts[i] for i in placement])

    return Certificate(
        params=p,
        lower=lower,
        upper=upper,
        witness=witness,
        exact_value=exact_value,
    )
