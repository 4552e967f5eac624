"""Construction, counting, and distance tests for core_graph.

Oracles: brute-force subset enumeration for membership/counts, and
networkx BFS on the explicitly built graph for distances.
"""

import functools
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

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
    class_distance,
    class_distances,
    class_size,
    comb0,
    diameter,
    enumerate_vertices,
    graph_distance,
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


@functools.cache
def nx_lengths(p: Params) -> dict:
    return dict(nx.all_pairs_shortest_path_length(build_graph(p)))


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

    def test_is_vertex_wants_integer_entries(self):
        p = Params(n=6, k=2, b=3)
        assert is_vertex((np.int64(0), np.int32(2)), p)
        assert not is_vertex((0, 2**70), p)
        for bad in [(0, 2.5), (0, 2.0), (0, Fraction(2)), (np.float64(0), 2), ("0", 2)]:
            assert not is_vertex(bad, p)
            with pytest.raises(ValueError, match="must be vertices"):
                graph_distance(bad, (1, 2), p)

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

    @settings(max_examples=50, deadline=None)
    @given(params_st(), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_adjacent_class_max_answers_each_column_alone(self, p, columns, seed):
        # (n+1)·columns cells a table row, on both sides of _ROW_CELLS = 256;
        # a single column of at most 13 cells takes numpy's accumulate
        lo, hi = span_classes(p).T
        values = np.random.default_rng(seed).integers(0, 10**6, (lo.size, columns))
        got = adjacent_class_max(p, lo, hi, values)
        for j in range(columns):
            assert got[:, j].tolist() == adjacent_class_max(p, lo, hi, values[:, j]).tolist()

    # rows of 301, 261, 256 and 255 cells: the last two straddle _ROW_CELLS
    @pytest.mark.parametrize("n, k, b", [(300, 2, 3), (260, 3, 5), (255, 2, 6), (254, 2, 6)])
    def test_adjacent_class_max_long_rows_vs_pair_scan(self, n, k, b):
        p = Params(n=n, k=k, b=b)
        lo, hi = span_classes(p).T
        values = np.random.default_rng(n).integers(0, 10**6, lo.size)
        got = adjacent_class_max(p, lo, hi, values)
        adjacent = (np.maximum(hi[:, None], hi) - np.minimum(lo[:, None], lo)) <= b
        assert got.tolist() == np.where(adjacent, values, 0).max(axis=1).tolist()


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


SMALL_CONNECTED = [q for q in SMALL_GRID if q.b >= q.k and q.n <= 7]


def class_representative(lo: int, hi: int, k: int) -> tuple[int, ...]:
    return tuple(range(lo, lo + k - 1)) + (hi,)


class TestDistances:
    @pytest.mark.parametrize("p", SMALL_CONNECTED, ids=str)
    def test_bfs_matches_networkx(self, p):
        # the all-sources class BFS, on one representative per class
        lengths = nx_lengths(p)
        dist = class_distances(p)
        assert (dist == dist.T).all()
        reps = [class_representative(lo, hi, p.k) for lo, hi in span_classes(p).tolist()]
        for (i, x), (j, y) in itertools.combinations(enumerate(reps), 2):
            assert dist[i, j] == lengths[x][y]

    @pytest.mark.parametrize("p", SMALL_CONNECTED, ids=str)
    def test_graph_distance_matches_networkx(self, p):
        lengths = nx_lengths(p)
        for x, y in itertools.product(lengths, repeat=2):
            assert graph_distance(x, y, p) == lengths[x][y]

    @pytest.mark.parametrize("p", SMALL_CONNECTED, ids=str)
    def test_interval_and_diameter_match_networkx(self, p):
        lengths = nx_lengths(p)
        for i in range(p.n - p.k + 2):
            x = tuple(range(i, i + p.k))
            for j in range(i, p.n - p.k + 2):
                y = tuple(range(j, j + p.k))
                assert interval_distance(i, j, p) == lengths[x][y]
        assert diameter(p) == max(max(row.values()) for row in lengths.values())

    @pytest.mark.parametrize("p", SMALL_CONNECTED, ids=str)
    def test_upper_bound_dominates(self, p):
        # on ordered pairs the closed form is the one-sided bound
        # 1 + ceil((max(Y)-min(X)-b)/(b-k+1)), and it is exact
        lengths = nx_lengths(p)
        for x, y in itertools.combinations(sorted(lengths), 2):
            if x[0] < y[0] or (x[0] == y[0] and x[-1] < y[-1]):
                assert class_distance(p, x[0], x[-1], y[0], y[-1]) == lengths[x][y]

    def test_closed_form_broadcasts_over_arrays(self):
        p = Params(n=12, k=3, b=5)
        lo, hi = span_classes(p).T
        table = class_distance(p, lo[:, None], hi[:, None], lo, hi)
        classes = span_classes(p).tolist()
        assert table.tolist() == [
            [class_distance(p, lo1, hi1, lo2, hi2) for lo2, hi2 in classes] for lo1, hi1 in classes
        ]

    def test_pinned_example(self):
        # G(10, 2, 3): from {0,1} to {9,10} takes ceil(9/2) = 5 hops
        p = Params(n=10, k=2, b=3)
        assert interval_distance(0, 9, p) == 5
        assert graph_distance((0, 1), (9, 10), p) == 5
        assert diameter(p) == 5

    def test_end_intervals_at_a_million_in_closed_form(self):
        # a class table here would hold millions of cells; the closed form none
        p = Params(n=10**6, k=2, b=3)
        x, y = (0, 1), (p.n - 1, p.n)
        start = time.perf_counter()
        got = graph_distance(x, y, p)
        assert time.perf_counter() - start < 0.01
        assert got == diameter(p) == 500000
        tracemalloc.start()
        try:
            graph_distance(x, y, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_edgeless_regime_raises(self):
        p = Params(n=5, k=2, b=1)
        with pytest.raises(ValueError):
            diameter(p)
        with pytest.raises(ValueError):
            interval_distance(0, 2, p)
        with pytest.raises(ValueError):
            interval_distance(1, 1, p)
        with pytest.raises(ValueError):
            graph_distance((0, 1), (2, 3), p)
        with pytest.raises(ValueError):
            class_distance(p, 0, 1, 2, 3)
        # adjacent pairs are still fine: {0,1} ~ {0,1} only via identity
        assert graph_distance((0, 1), (0, 1), p) == 0

    def test_k1_distances(self):
        p = Params(n=9, k=1, b=2)
        # |x - y| <= b adjacency; distance is ceil(gap / b)
        assert graph_distance((0,), (9,), p) == 5
        assert interval_distance(0, 9, p) == 5
        assert diameter(p) == 5

    @settings(max_examples=100, deadline=None)
    @given(params_st(), st.data())
    def test_interval_formula_vs_bfs(self, p, data):
        if p.b == p.k - 1:
            return
        i = data.draw(st.integers(min_value=0, max_value=p.n - p.k + 1))
        j = data.draw(st.integers(min_value=i, max_value=p.n - p.k + 1))
        # the interval classes come first in span_classes order
        assert interval_distance(i, j, p) == class_distances(p)[i, j]


def test_diameter_formula_value():
    p = Params(n=20, k=3, b=7)
    assert diameter(p) == math.ceil((20 - 3 + 1) / (7 - 3 + 1))
