"""Hypergraph clique-cover machinery and the banded-edge transformation.

A hypergraph H turns into two derived graphs: its 2-section (join every
pair co-occurring in an edge) and its weak edge clique graph (one node
per hyperedge; two hyperedges adjacent iff their union is pairwise
joined in the 2-section).  The minimum number of weak cliques needed to
cover all hyperedges equals the minimum vertex clique cover of the weak
edge clique graph — ``check_cover_equivalence`` verifies that on
explicit instances with two independent exact solvers.

The bridge to G(n, k, b): the hypergraph on [0, n] whose edges are all
k-subsets of span <= b has G(n, k, b) as its weak edge clique graph
(``maximal_banded_hypergraph`` + ``transform_equals_band_graph``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import networkx as nx

from .core_graph import Params, are_adjacent, enumerate_vertices

__all__ = [
    "CapacityError",
    "Hypergraph",
    "SimpleGraph",
    "two_section",
    "is_weak_clique",
    "weak_edge_clique_graph",
    "vertex_clique_cover_number",
    "weak_edge_clique_cover_number",
    "check_cover_equivalence",
    "maximal_banded_hypergraph",
    "band_graph_as_simple_graph",
    "transform_equals_band_graph",
    "hypergraph_numbering_bandwidth",
    "parse_hypergraph",
    "format_hypergraph",
]


class CapacityError(ValueError):
    """Instance too large for the exact solvers; use bounds instead."""


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 0..vertex_count-1; edges deduplicated, each of size >= 2."""

    vertex_count: int
    edges: tuple[frozenset[int], ...]

    def __init__(self, vertex_count: int, edges) -> None:
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        seen: list[frozenset[int]] = []
        seen_set: set[frozenset[int]] = set()
        for e in edges:
            fe = frozenset(e)
            if len(fe) < 2:
                raise ValueError(f"edge {sorted(fe)} has fewer than 2 vertices")
            if not all(0 <= v < vertex_count for v in fe):
                raise ValueError(f"edge {sorted(fe)} outside vertex range 0..{vertex_count - 1}")
            if fe not in seen_set:
                seen_set.add(fe)
                seen.append(fe)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(seen))


@dataclass(frozen=True)
class SimpleGraph:
    """Vertices 0..vertex_count-1; undirected edges, no loops."""

    vertex_count: int
    edges: frozenset[frozenset[int]]

    def __init__(self, vertex_count: int, edges) -> None:
        pairs = set()
        for e in edges:
            pe = frozenset(e)
            if len(pe) != 2:
                raise ValueError(f"graph edge {sorted(pe)} is not a pair")
            if not all(0 <= v < vertex_count for v in pe):
                raise ValueError(f"edge {sorted(pe)} outside vertex range")
            pairs.add(pe)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", frozenset(pairs))

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.vertex_count))
        g.add_edges_from(tuple(e) for e in self.edges)
        return g


def two_section(h: Hypergraph) -> SimpleGraph:
    """Graph on H's vertices joining every pair lying in a common edge."""
    return SimpleGraph(h.vertex_count, _pair_set(h))


def _pair_set(h: Hypergraph) -> set[frozenset[int]]:
    pairs: set[frozenset[int]] = set()
    for e in h.edges:
        for u, v in combinations(e, 2):
            pairs.add(frozenset((u, v)))
    return pairs


def is_weak_clique(h: Hypergraph, s) -> bool:
    """True iff the vertex set s is pairwise joined in the 2-section
    (vacuously true for empty and singleton sets)."""
    s = set(s)
    if not all(0 <= v < h.vertex_count for v in s):
        raise ValueError("set outside vertex range")
    if len(s) <= 1:
        return True
    pairs = _pair_set(h)
    return all(frozenset((u, v)) in pairs for u, v in combinations(s, 2))


def weak_edge_clique_graph(h: Hypergraph) -> SimpleGraph:
    """Nodes are H's edges (by index); e ~ e' iff e ∪ e' is a weak clique.

    Some weak clique contains both edges iff their union is itself one:
    any such clique restricts to the union, and pairwise adjacency is
    all that weak cliques require.
    """
    pairs = _pair_set(h)
    m = len(h.edges)
    out = set()
    for i in range(m):
        for j in range(i + 1, m):
            union = h.edges[i] | h.edges[j]
            if all(frozenset(pq) in pairs for pq in combinations(union, 2)):
                out.add(frozenset((i, j)))
    return SimpleGraph(m, out)


# ── exact minimum set cover (shared by both cover numbers) ────────────


def _min_set_cover(universe_size: int, masks: list[int]) -> int:
    """Minimum number of masks whose union covers {0..universe_size-1}.

    Branch and bound on the uncovered element with fewest candidate
    masks; greedy cover for the initial upper bound.  Elements no mask
    covers make the instance infeasible (raises).
    """
    full = (1 << universe_size) - 1
    if full == 0:
        return 0
    if any(not any(mask >> e & 1 for mask in masks) for e in range(universe_size)):
        raise ValueError("set cover infeasible: an element is uncovered by all sets")

    # greedy upper bound
    covered = 0
    greedy = 0
    while covered != full:
        best = max(masks, key=lambda mk: bin(mk & ~covered).count("1"))
        covered |= best
        greedy += 1
    best_size = greedy

    by_element: dict[int, list[int]] = {
        e: [mk for mk in masks if mk >> e & 1] for e in range(universe_size)
    }

    def dfs(covered: int, used: int) -> None:
        nonlocal best_size
        if used >= best_size:
            return
        if covered == full:
            best_size = used
            return
        missing = ~covered & full
        pick = min(
            (e for e in range(universe_size) if missing >> e & 1),
            key=lambda e: len(by_element[e]),
        )
        for mk in sorted(by_element[pick], key=lambda mk: -bin(mk & missing).count("1")):
            dfs(covered | mk, used + 1)

    dfs(0, 0)
    return best_size


def vertex_clique_cover_number(g: SimpleGraph, cap: int = 20) -> int:
    """Minimum number of cliques of g covering all its vertices.

    Exact: set cover over the maximal cliques.  Equals the chromatic
    number of the complement graph.
    """
    if g.vertex_count > cap:
        raise CapacityError(f"{g.vertex_count} vertices exceeds exact cap {cap}")
    if g.vertex_count == 0:
        return 0
    cliques = [frozenset(c) for c in nx.find_cliques(g.to_networkx())]
    masks = [sum(1 << v for v in c) for c in cliques]
    return _min_set_cover(g.vertex_count, masks)


def weak_edge_clique_cover_number(h: Hypergraph, cap: int = 20) -> int:
    """Minimum size of a family of weak cliques with every edge of h a
    subset of some member.

    Every weak clique extends to a maximal one and covering is monotone,
    so searching over maximal weak cliques (= maximal cliques of the
    2-section) is exact.
    """
    m = len(h.edges)
    if m > cap:
        raise CapacityError(f"{m} edges exceeds exact cap {cap}")
    if m == 0:
        return 0
    weak_maximal = [frozenset(c) for c in nx.find_cliques(two_section(h).to_networkx())]
    masks = []
    for w in weak_maximal:
        mask = 0
        for idx, e in enumerate(h.edges):
            if e <= w:
                mask |= 1 << idx
        masks.append(mask)
    return _min_set_cover(m, masks)


def check_cover_equivalence(h: Hypergraph) -> bool:
    """Whether the weak-clique edge cover number of h equals the vertex
    clique cover number of its weak edge clique graph (one vertex per
    edge of h, so both exact searches share the cap)."""
    return weak_edge_clique_cover_number(h) == vertex_clique_cover_number(
        weak_edge_clique_graph(h)
    )


# ── the banded-edge hypergraph and its transform ──────────────────────


def maximal_banded_hypergraph(p: Params) -> Hypergraph:
    """Hypergraph on [0, n] whose edges are every k-subset of span <= b
    (exactly the vertex set of G(n, k, b), in the same lex order)."""
    if p.k < 2:
        raise ValueError("hyperedges need size >= 2, so k >= 2")
    return Hypergraph(p.n + 1, (frozenset(v) for v in enumerate_vertices(p)))


def band_graph_as_simple_graph(p: Params) -> tuple[SimpleGraph, list]:
    """G(n, k, b) as an explicit SimpleGraph; second value maps each
    graph index back to its vertex tuple (lex order)."""
    verts = list(enumerate_vertices(p))
    edges = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if are_adjacent(verts[i], verts[j], p):
                edges.add(frozenset((i, j)))
    return SimpleGraph(len(verts), edges), verts


def transform_equals_band_graph(p: Params) -> bool:
    """Whether weak_edge_clique_graph(maximal_banded_hypergraph(p)) has
    exactly the edge set of G(n, k, b) under the index identification
    edge i <-> i-th vertex in lex order."""
    transformed = weak_edge_clique_graph(maximal_banded_hypergraph(p))
    return transformed.edges == band_graph_as_simple_graph(p)[0].edges


def hypergraph_numbering_bandwidth(h: Hypergraph, f) -> int:
    """Max label spread within a hyperedge, for a bijective labeling f
    of the vertices (a map or sequence; labels 0..m-1 or 1..m)."""
    m = h.vertex_count
    if hasattr(f, "__getitem__") and not isinstance(f, dict):
        labels = {v: f[v] for v in range(m)}
    else:
        labels = dict(f)
    if sorted(labels) != list(range(m)):
        raise ValueError("labeling must assign every vertex 0..m-1 a label")
    values = sorted(labels.values())
    if values != list(range(m)) and values != list(range(1, m + 1)):
        raise ValueError("labels must be a bijection onto 0..m-1 or 1..m")
    best = 0
    for e in h.edges:
        lab = [labels[v] for v in e]
        best = max(best, max(lab) - min(lab))
    return best


# ── text format (CLI interface) ───────────────────────────────────────


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the text format: first line the vertex count m, then one
    edge per line as space-separated vertex indices."""
    lines = text.splitlines()
    stripped = [(idx + 1, ln.strip()) for idx, ln in enumerate(lines)]
    meaningful = [(no, ln) for no, ln in stripped if ln and not ln.startswith("#")]
    if not meaningful:
        raise ValueError("line 1: missing vertex count")
    no, first = meaningful[0]
    try:
        m = int(first)
    except ValueError:
        raise ValueError(f"line {no}: vertex count must be an integer, got {first!r}") from None
    edges = []
    for no, ln in meaningful[1:]:
        try:
            verts = [int(tok) for tok in ln.split()]
        except ValueError:
            raise ValueError(f"line {no}: edge must be space-separated integers, got {ln!r}") from None
        if len(set(verts)) < 2:
            raise ValueError(f"line {no}: edge needs at least 2 distinct vertices")
        if not all(0 <= v < m for v in verts):
            raise ValueError(f"line {no}: vertex outside range 0..{m - 1}")
        edges.append(frozenset(verts))
    return Hypergraph(m, edges)


def format_hypergraph(h: Hypergraph) -> str:
    lines = [str(h.vertex_count)]
    for e in h.edges:
        lines.append(" ".join(str(v) for v in sorted(e)))
    return "\n".join(lines) + "\n"
