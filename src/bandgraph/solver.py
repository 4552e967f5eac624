"""Exact minimum bandwidth for small graphs, plus per-instance
certification of G(n, k, b) combining bounds and constructed numberings.

``exact_bandwidth`` answers "is there a numbering of width <= W?" by
left-to-right placement with pruning, trying W upward from the degree
lower bound max ceil(deg/2) to the identity order's width; the first
feasible W is the bandwidth and the placement found is a witness
numbering.  Given a lower bound and a known vertex order, whose width
over the edges is the upper end, ``exact_bandwidth_with_witness``
searches only W in [lower, upper - 1], after proving lower - 1
infeasible: feasibility is monotone in W, so that one proof covers every
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


def _order_width(g: SimpleGraph, order) -> int:
    """Largest |position(u) - position(v)| over the edges, for a vertex
    order listing every vertex once."""
    position = [0] * g.vertex_count
    for i, v in enumerate(order):
        position[v] = i
    return max((abs(position[u] - position[v]) for u, v in map(tuple, g.edges)), default=0)


def _feasible_placement(g: SimpleGraph, width: int) -> tuple[int, ...] | None:
    """A vertex order with all edges spanning <= width positions, or None.

    Positions are filled left to right.  Placing u at position p is
    allowed only if every placed neighbor of u sits at position > p-width
    (i.e. within the active window).  After each placement the vertex
    falling out of the window must have no unplaced neighbors, and every
    window vertex must still have room for its unplaced neighbors before
    its own deadline.  Failed (placed-set, window-order) states are
    memoized — the future depends on nothing else; the placed set is
    keyed as a bitmask, an int far smaller than a frozenset.
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
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(mask: int) -> bool:
        p = len(placement)
        if p == m:
            return True
        state = (mask, tuple(placement[-width:]) if width else ())
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
            if ok and dfs(mask | 1 << u):
                return True
            placement.pop()
            placed[u] = False
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

    With ``bracket = (lower, order)``, a lower bound and a vertex order
    listing every vertex once, the upper end is the order's width over
    the edges.  Width lower - 1 is proven infeasible (an AssertionError if
    it is not) unless the degree bound already rules it out, and W is
    tried in [max(lower, degree bound), upper - 1] only; if none is
    feasible the result is ``(upper, order)``: the order is optimal.
    """
    m = g.vertex_count
    if m > DEFAULT_CAP:
        raise CapacityError(
            f"{m} vertices exceeds the exact-search cap {DEFAULT_CAP}; use bounds/numberings"
        )
    degree = max((-(-len(a) // 2) for a in _adjacency_lists(g)), default=0)
    if bracket is None:
        widths = range(degree, _order_width(g, range(m)) + 1)
    else:
        lower, order = bracket[0], tuple(bracket[1])
        if sorted(order) != list(range(m)):
            raise ValueError(f"order must list each of the {m} vertices once")
        upper = _order_width(g, order)
        if lower - 1 >= degree and _feasible_placement(g, lower - 1) is not None:
            raise AssertionError(
                f"width {lower - 1} is feasible: exact bandwidth outside [{lower}, {upper}]"
            )
        widths = range(max(lower, degree), upper)
    for width in widths:
        witness = _feasible_placement(g, width)
        if witness is not None:
            return width, witness
    if bracket is None:
        raise AssertionError("search must succeed at the identity width")
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
    the lower bound, as a later one could only tie.

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

    upper: int | None = None
    for f in _candidates(p):
        width = bandwidth_of_numbering(f)
        if upper is None or width < upper:
            upper, witness = width, f
        if upper == lower:
            break
    assert upper is not None

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
