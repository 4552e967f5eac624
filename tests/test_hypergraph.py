"""Hypergraph transformation and clique-cover tests.

Oracles: a recursive minimum clique-partition search (equal to the
minimum clique cover, since dropping overlaps keeps cliques cliques),
and a plain subset-enumeration search over all weak cliques for the
edge cover number.  Both are independent of the set-cover solver in the
library.
"""

import itertools
import random

import pytest

import bandgraph.hypergraph
from bandgraph.core_graph import Params, are_adjacent, enumerate_vertices
from bandgraph.hypergraph import (
    CapacityError,
    Hypergraph,
    SimpleGraph,
    check_cover_equivalence,
    format_hypergraph,
    hypergraph_numbering_bandwidth,
    is_weak_clique,
    maximal_banded_hypergraph,
    parse_hypergraph,
    transform_equals_band_graph,
    two_section,
    vertex_clique_cover_number,
    weak_edge_clique_cover_number,
    weak_edge_clique_graph,
)


def brute_vertex_clique_cover(g: SimpleGraph) -> int:
    """Minimum clique partition by recursive assignment (== min cover)."""
    m = g.vertex_count
    if m == 0:
        return 0
    best = m

    def rec(v: int, groups: list[list[int]]) -> None:
        nonlocal best
        if len(groups) >= best and v < m:
            return
        if v == m:
            best = min(best, len(groups))
            return
        for grp in groups:
            if all(g.has_edge(v, u) for u in grp):
                grp.append(v)
                rec(v + 1, groups)
                grp.pop()
        groups.append([v])
        rec(v + 1, groups)
        groups.pop()

    rec(0, [])
    return best


def brute_weak_edge_cover(h: Hypergraph) -> int:
    """Smallest family of weak cliques whose members contain every edge,
    found by enumerating families of increasing size."""
    m = len(h.edges)
    if m == 0:
        return 0
    candidates = [
        frozenset(s)
        for r in range(2, h.vertex_count + 1)
        for s in itertools.combinations(range(h.vertex_count), r)
        if is_weak_clique(h, s)
    ]
    # only cliques containing at least one edge can help
    candidates = [c for c in candidates if any(e <= c for e in h.edges)]
    for t in range(1, m + 1):
        for fam in itertools.combinations(candidates, t):
            if all(any(e <= c for c in fam) for e in h.edges):
                return t
    raise AssertionError("each edge is itself a weak clique; cover must exist")


def random_hypergraph(rng: random.Random) -> Hypergraph:
    m = rng.randint(4, 6)
    count = rng.randint(1, 4)
    edges = []
    for _ in range(count):
        size = rng.randint(2, 3)
        edges.append(rng.sample(range(m), size))
    return Hypergraph(m, edges)


def random_simple_graph(rng: random.Random) -> SimpleGraph:
    m = rng.randint(1, 7)
    edges = [
        (u, v) for u, v in itertools.combinations(range(m), 2) if rng.random() < 0.45
    ]
    return SimpleGraph(m, edges)


PATH = Hypergraph(3, [(0, 1), (1, 2)])
TRIANGLE = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_dedup_keeps_first_occurrence_order(self):
        h = Hypergraph(4, [(2, 3), (0, 1), (1, 0), (3, 2)])
        assert h.edges == (frozenset({2, 3}), frozenset({0, 1}))

    def test_small_edge_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(1,)])
        with pytest.raises(ValueError):
            Hypergraph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Hypergraph(3, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(-1, [])

    def test_simple_graph_rejects_non_pairs(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 0)])


class TestTwoSection:
    def test_single_edge_becomes_clique(self):
        g = two_section(Hypergraph(4, [(0, 1, 3)]))
        assert g.edges == frozenset(
            {frozenset({0, 1}), frozenset({0, 3}), frozenset({1, 3})}
        )

    def test_matches_direct_pair_enumeration(self):
        rng = random.Random(5)
        for _ in range(50):
            h = random_hypergraph(rng)
            expected = set()
            for e in h.edges:
                for u, v in itertools.combinations(e, 2):
                    expected.add(frozenset((u, v)))
            assert two_section(h).edges == frozenset(expected)

    def test_isolated_vertices_kept(self):
        g = two_section(Hypergraph(5, [(0, 1)]))
        assert g.vertex_count == 5


class TestWeakCliques:
    def test_empty_and_singleton_are_weak_cliques(self):
        assert is_weak_clique(PATH, ())
        assert is_weak_clique(PATH, (2,))

    def test_each_edge_is_a_weak_clique(self):
        rng = random.Random(6)
        for _ in range(20):
            h = random_hypergraph(rng)
            assert all(is_weak_clique(h, e) for e in h.edges)

    def test_non_cooccurring_pair_is_not(self):
        assert not is_weak_clique(PATH, (0, 2))
        assert is_weak_clique(TRIANGLE, (0, 1, 2))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            is_weak_clique(PATH, (0, 5))

    def test_path_transform_has_isolated_nodes(self):
        g = weak_edge_clique_graph(PATH)
        assert g.vertex_count == 2
        assert g.edges == frozenset()

    def test_triangle_transform_is_complete(self):
        g = weak_edge_clique_graph(TRIANGLE)
        assert g.vertex_count == 3
        assert len(g.edges) == 3

    def test_transform_edge_iff_union_weak(self):
        rng = random.Random(7)
        for _ in range(50):
            h = random_hypergraph(rng)
            g = weak_edge_clique_graph(h)
            for i, j in itertools.combinations(range(len(h.edges)), 2):
                assert g.has_edge(i, j) == is_weak_clique(h, h.edges[i] | h.edges[j])


class TestCoverNumbers:
    def test_vertex_cover_known_values(self):
        complete = SimpleGraph(5, itertools.combinations(range(5), 2))
        assert vertex_clique_cover_number(complete) == 1
        empty = SimpleGraph(4, [])
        assert vertex_clique_cover_number(empty) == 4
        cycle5 = SimpleGraph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert vertex_clique_cover_number(cycle5) == 3
        path4 = SimpleGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert vertex_clique_cover_number(path4) == 2
        assert vertex_clique_cover_number(SimpleGraph(0, [])) == 0

    def test_vertex_cover_matches_brute(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_simple_graph(rng)
            assert vertex_clique_cover_number(g) == brute_vertex_clique_cover(g)

    def test_edge_cover_known_values(self):
        assert weak_edge_clique_cover_number(Hypergraph(3, [(0, 1)])) == 1
        assert weak_edge_clique_cover_number(TRIANGLE) == 1
        assert weak_edge_clique_cover_number(PATH) == 2
        assert weak_edge_clique_cover_number(Hypergraph(3, [])) == 0

    def test_edge_cover_matches_brute(self):
        rng = random.Random(12)
        for _ in range(40):
            h = random_hypergraph(rng)
            assert weak_edge_clique_cover_number(h) == brute_weak_edge_cover(h)

    def test_infeasible_cover_raises(self):
        # no mask holds element 2, so the greedy bound would never finish
        with pytest.raises(ValueError, match="an element is uncovered by all sets"):
            bandgraph.hypergraph._min_set_cover(3, [0b011, 0b001])

    def test_capacity_errors(self):
        big_graph = SimpleGraph(25, [])
        with pytest.raises(CapacityError):
            vertex_clique_cover_number(big_graph)
        many_edges = Hypergraph(30, [(i, i + 1) for i in range(25)])
        with pytest.raises(CapacityError):
            weak_edge_clique_cover_number(many_edges)
        assert vertex_clique_cover_number(SimpleGraph(20, [])) == 20

    def test_equivalence_on_samples(self):
        rng = random.Random(13)
        assert check_cover_equivalence(PATH)
        assert check_cover_equivalence(TRIANGLE)
        for _ in range(60):
            assert check_cover_equivalence(random_hypergraph(rng))


class TestBandedTransform:
    def test_edges_are_lex_vertex_enumeration(self):
        p = Params(n=6, k=3, b=4)
        h = maximal_banded_hypergraph(p)
        assert h.vertex_count == 7
        assert h.edges == tuple(frozenset(v) for v in enumerate_vertices(p))

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            maximal_banded_hypergraph(Params(n=5, k=1, b=2))

    def test_transform_matches_band_graph(self):
        for n in range(2, 9):
            for k in (2, 3):
                if k > n + 1:
                    continue
                for b in range(k - 1, n + 1):
                    assert transform_equals_band_graph(Params(n=n, k=k, b=b))

    def test_transform_adjacency_spot_check(self):
        p = Params(n=5, k=2, b=2)
        verts = list(enumerate_vertices(p))
        g = weak_edge_clique_graph(maximal_banded_hypergraph(p))
        for i, j in itertools.combinations(range(len(verts)), 2):
            assert g.has_edge(i, j) == are_adjacent(verts[i], verts[j], p)


class TestNumberingBandwidth:
    def test_identity_labels_give_max_span(self):
        p = Params(n=8, k=2, b=3)
        h = maximal_banded_hypergraph(p)
        assert hypergraph_numbering_bandwidth(h, list(range(9))) == 3

    def test_dict_and_sequence_agree(self):
        h = PATH
        seq = [2, 0, 1]
        as_dict = {0: 2, 1: 0, 2: 1}
        assert hypergraph_numbering_bandwidth(h, seq) == hypergraph_numbering_bandwidth(
            h, as_dict
        )

    def test_one_based_labels_accepted(self):
        assert hypergraph_numbering_bandwidth(PATH, [1, 2, 3]) == 1
        assert hypergraph_numbering_bandwidth(PATH, [0, 1, 2]) == 1

    def test_reordering_changes_value(self):
        # putting the middle vertex at an end stretches both edges
        assert hypergraph_numbering_bandwidth(PATH, [0, 2, 1]) == 2

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            hypergraph_numbering_bandwidth(PATH, [0, 0, 1])
        with pytest.raises(ValueError):
            hypergraph_numbering_bandwidth(PATH, [0, 1, 5])
        with pytest.raises(ValueError):
            hypergraph_numbering_bandwidth(PATH, {0: 0, 1: 1})
        with pytest.raises(ValueError):
            hypergraph_numbering_bandwidth(PATH, {0: 0, 1: 1, 5: 2})


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            h = random_hypergraph(rng)
            again = parse_hypergraph(format_hypergraph(h))
            assert again.vertex_count == h.vertex_count
            assert set(again.edges) == set(h.edges)

    def test_comments_and_blanks_ignored(self):
        text = "# a path\n\n3\n0 1\n# middle comment\n1 2\n"
        h = parse_hypergraph(text)
        assert h.vertex_count == 3
        assert len(h.edges) == 2

    def test_bad_count_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_hypergraph("# header\nxyz\n0 1\n")

    def test_bad_edge_token_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_hypergraph("3\n0 1\n1 two\n")

    def test_small_edge_reports_line(self):
        with pytest.raises(ValueError, match="line 4"):
            parse_hypergraph("3\n0 1\n1 2\n2 2\n")

    def test_out_of_range_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_hypergraph("3\n0 7\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_hypergraph("# only comments\n")
