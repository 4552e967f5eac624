"""Construction, counting, and distance tests for core_graph.

Oracles: brute-force subset enumeration for membership/counts, and
networkx BFS on the explicitly built graph for distances.
"""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgraph.core_graph import (
    Params,
    adjacent_class_max,
    are_adjacent,
    central_count,
    class_size,
    comb0,
    diameter,
    distance_upper_bound,
    enumerate_vertices,
    graph_distance_bfs,
    interval_distance,
    is_central,
    is_vertex,
    span_classes,
    vertex_count_formula,
)


def brute_vertices(p: Params) -> list[tuple[int, ...]]:
    return [
        x
        for x in itertools.combinations(range(p.n + 1), p.k)
        if x[-1] - x[0] <= p.b
    ]


def brute_adjacent(x, y, b) -> bool:
    u = set(x) | set(y)
    return max(u) - min(u) <= b


def build_graph(p: Params) -> nx.Graph:
    g = nx.Graph()
    verts = brute_vertices(p)
    g.add_nodes_from(verts)
    for x, y in itertools.combinations(verts, 2):
        if brute_adjacent(x, y, p.b):
            g.add_edge(x, y)
    return g


SMALL_GRID = [
    Params(n=n, k=k, b=b)
    for n in range(1, 9)
    for k in range(1, 5)
    if k <= n + 1
    for b in range(max(1, k - 1), n + 1)
]


@st.composite
def params_st(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=min(4, n + 1)))
    b = draw(st.integers(min_value=max(1, k - 1), max_value=n))
    return Params(n=n, k=k, b=b)


class TestParams:
    def test_validation(self):
        Params(n=3, k=2, b=2)
        with pytest.raises(ValueError):
            Params(n=3, k=0, b=2)
        with pytest.raises(ValueError):
            Params(n=3, k=2, b=4)  # b > n
        with pytest.raises(ValueError):
            Params(n=3, k=2, b=0)  # k > b + 1
        with pytest.raises(ValueError):
            Params(n=0, k=1, b=1)  # b > n


class TestCounting:
    def test_comb0(self):
        assert comb0(5, 2) == 10
        assert comb0(5, -1) == 0
        assert comb0(2, 5) == 0
        assert comb0(0, 0) == 1

    @pytest.mark.parametrize("p", SMALL_GRID, ids=str)
    def test_enumeration_matches_brute_force(self, p):
        got = list(enumerate_vertices(p))
        want = brute_vertices(p)
        assert got == want  # same set and same (lex) order
        assert len(got) == vertex_count_formula(p)

    @pytest.mark.parametrize("p", SMALL_GRID, ids=str)
    def test_is_vertex(self, p):
        members = set(brute_vertices(p))
        for x in itertools.combinations(range(p.n + 1), p.k):
            assert is_vertex(x, p) == (x in members)
        assert not is_vertex((0,) * p.k, p) or p.k == 1
        assert not is_vertex(tuple(range(p.k - 1)) + (p.n + 5,), p)

    def test_second_counting_form(self):
        # (n+1)·C(b,k-1) - (k-1)·C(b+1,k) equals the implemented form
        for p in SMALL_GRID:
            alt = (p.n + 1) * comb0(p.b, p.k - 1) - (p.k - 1) * comb0(p.b + 1, p.k)
            assert vertex_count_formula(p) == alt

    @pytest.mark.parametrize("p", SMALL_GRID, ids=str)
    def test_class_sizes_partition_the_graph(self, p):
        classes = span_classes(p)
        assert classes.dtype == np.int64 and classes.T.flags.c_contiguous
        assert len(classes) == len({(x[0], x[-1]) for x in brute_vertices(p)})
        sizes = [class_size(lo, hi, p.k) for lo, hi in classes.tolist()]
        assert sum(sizes) == vertex_count_formula(p)
        for (lo, hi), size in zip(classes.tolist(), sizes):
            assert size == sum(1 for x in brute_vertices(p) if x[0] == lo and x[-1] == hi)

    def test_class_size_k1(self):
        assert class_size(3, 3, 1) == 1
        assert class_size(3, 5, 1) == 0
        assert class_size(2, 2, 2) == 0

    @settings(max_examples=200, deadline=None)
    @given(params_st(), st.data())
    def test_adjacent_class_max_vs_pair_scan(self, p, data):
        classes = span_classes(p)
        m = len(classes)
        values = data.draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m))
        got = adjacent_class_max(p, *classes.T, np.array(values, dtype=np.int64)).tolist()
        pairs = classes.tolist()
        for (lo1, hi1), g in zip(pairs, got):
            assert g == max(
                v for (lo2, hi2), v in zip(pairs, values) if max(hi1, hi2) - min(lo1, lo2) <= p.b
            )


class TestCentral:
    @pytest.mark.parametrize("p", SMALL_GRID, ids=str)
    def test_central_count_and_membership(self, p):
        brute = [
            x
            for x in brute_vertices(p)
            if p.n - p.b <= x[0] and x[-1] <= p.b
        ]
        assert central_count(p) == len(brute)
        for x in brute_vertices(p):
            assert is_central(x, p) == (x in brute)

    @pytest.mark.parametrize("p", SMALL_GRID, ids=str)
    def test_central_vertices_are_universal(self, p):
        # a central vertex is adjacent to every other vertex
        verts = brute_vertices(p)
        for c in verts:
            if not is_central(c, p):
                continue
            for y in verts:
                if y != c:
                    assert are_adjacent(c, y, p)

    def test_nonempty_threshold(self):
        # |C| > 0 exactly when 2b >= n + k - 1
        for p in SMALL_GRID:
            assert (central_count(p) > 0) == (2 * p.b >= p.n + p.k - 1)


class TestAdjacency:
    @pytest.mark.parametrize("p", SMALL_GRID, ids=str)
    def test_matches_union_span_oracle(self, p):
        verts = brute_vertices(p)
        for x, y in itertools.combinations(verts, 2):
            assert are_adjacent(x, y, p) == brute_adjacent(x, y, p.b)
            assert are_adjacent(y, x, p) == are_adjacent(x, y, p)

    @settings(max_examples=200, deadline=None)
    @given(params_st(), st.data())
    def test_two_sided_span_form(self, p, data):
        verts = brute_vertices(p)
        x = data.draw(st.sampled_from(verts))
        y = data.draw(st.sampled_from(verts))
        if x == y:
            return
        two_sided = x[-1] - y[0] <= p.b and y[-1] - x[0] <= p.b
        assert are_adjacent(x, y, p) == two_sided


class TestDistances:
    @pytest.mark.parametrize(
        "p", [q for q in SMALL_GRID if q.b >= q.k and q.n <= 7], ids=str
    )
    def test_bfs_matches_networkx(self, p):
        g = build_graph(p)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for x, y in itertools.combinations(g.nodes, 2):
            assert graph_distance_bfs(x, y, p) == lengths[x][y]

    @pytest.mark.parametrize(
        "p", [q for q in SMALL_GRID if q.b >= q.k and q.n <= 7], ids=str
    )
    def test_interval_and_diameter_match_networkx(self, p):
        g = build_graph(p)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for i in range(p.n - p.k + 2):
            x = tuple(range(i, i + p.k))
            for j in range(i, p.n - p.k + 2):
                y = tuple(range(j, j + p.k))
                assert interval_distance(i, j, p) == lengths[x][y]
        assert diameter(p) == nx.diameter(g)

    @pytest.mark.parametrize(
        "p", [q for q in SMALL_GRID if q.b >= q.k and q.n <= 7], ids=str
    )
    def test_upper_bound_dominates(self, p):
        g = build_graph(p)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for x, y in itertools.combinations(sorted(g.nodes), 2):
            if x[0] < y[0] or (x[0] == y[0] and x[-1] < y[-1]):
                assert distance_upper_bound(x, y, p) >= lengths[x][y]

    def test_pinned_example(self):
        # G(10, 2, 3): from {0,1} to {9,10} takes ceil(9/2) = 5 hops
        p = Params(n=10, k=2, b=3)
        assert interval_distance(0, 9, p) == 5
        assert graph_distance_bfs((0, 1), (9, 10), p) == 5
        assert diameter(p) == 5

    def test_upper_bound_requires_ordering(self):
        p = Params(n=6, k=2, b=3)
        with pytest.raises(ValueError):
            distance_upper_bound((2, 3), (0, 1), p)
        with pytest.raises(ValueError):
            distance_upper_bound((0, 3), (0, 2), p)

    def test_edgeless_regime_raises(self):
        p = Params(n=5, k=2, b=1)
        with pytest.raises(ValueError):
            diameter(p)
        with pytest.raises(ValueError):
            interval_distance(0, 2, p)
        with pytest.raises(ValueError):
            graph_distance_bfs((0, 1), (2, 3), p)
        # adjacent pairs are still fine: {0,1} ~ {0,1} only via identity
        assert graph_distance_bfs((0, 1), (0, 1), p) == 0

    def test_k1_distances(self):
        p = Params(n=9, k=1, b=2)
        # |x - y| <= b adjacency; distance is ceil(gap / b)
        assert graph_distance_bfs((0,), (9,), p) == 5
        assert interval_distance(0, 9, p) == 5
        assert diameter(p) == 5

    @settings(max_examples=100, deadline=None)
    @given(params_st(), st.data())
    def test_interval_formula_vs_bfs(self, p, data):
        if p.b == p.k - 1:
            return
        i = data.draw(st.integers(min_value=0, max_value=p.n - p.k + 1))
        j = data.draw(st.integers(min_value=i, max_value=p.n - p.k + 1))
        x = tuple(range(i, i + p.k))
        y = tuple(range(j, j + p.k))
        assert interval_distance(i, j, p) == graph_distance_bfs(x, y, p)


def test_diameter_formula_value():
    p = Params(n=20, k=3, b=7)
    assert diameter(p) == math.ceil((20 - 3 + 1) / (7 - 3 + 1))
