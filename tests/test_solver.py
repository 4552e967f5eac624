"""Exact bandwidth search and certification tests.

Oracle: full enumeration over all vertex permutations (fine up to 7
vertices), plus closed forms for the classic families.
"""

import itertools
import random

import pytest

import bandgraph.solver
from bandgraph.bounds import exact_bandwidth_large_b
from bandgraph.core_graph import (
    Params,
    are_adjacent,
    central_count,
    enumerate_vertices,
    vertex_count_formula,
)
from bandgraph.hypergraph import CapacityError, SimpleGraph, band_graph_as_simple_graph
from bandgraph.numbering import bandwidth_of_numbering
from bandgraph.solver import certify, exact_bandwidth, exact_bandwidth_with_witness


def brute_exact_bandwidth(g: SimpleGraph) -> int:
    m = g.vertex_count
    if not g.edges:
        return 0
    pairs = [tuple(e) for e in g.edges]
    best = m
    for perm in itertools.permutations(range(m)):
        pos = [0] * m
        for idx, v in enumerate(perm):
            pos[v] = idx
        width = max(abs(pos[u] - pos[v]) for u, v in pairs)
        best = min(best, width)
    return best


def order_width(g: SimpleGraph, order) -> int:
    pos = {v: i for i, v in enumerate(order)}
    return max((abs(pos[u] - pos[v]) for u, v in map(tuple, g.edges)), default=0)


def path(m: int) -> SimpleGraph:
    return SimpleGraph(m, [(i, i + 1) for i in range(m - 1)])


def cycle(m: int) -> SimpleGraph:
    return SimpleGraph(m, [(i, (i + 1) % m) for i in range(m)])


def complete(m: int) -> SimpleGraph:
    return SimpleGraph(m, itertools.combinations(range(m), 2))


def star(m: int) -> SimpleGraph:
    return SimpleGraph(m, [(0, i) for i in range(1, m)])


class TestExactBandwidth:
    def test_known_families(self):
        for m in range(2, 8):
            assert exact_bandwidth(path(m)) == 1
            assert exact_bandwidth(complete(m)) == m - 1
            # star: hub plus m-1 leaves
            assert exact_bandwidth(star(m)) == -(-(m - 1) // 2)
        for m in range(3, 8):
            assert exact_bandwidth(cycle(m)) == 2

    def test_trivial_graphs(self):
        assert exact_bandwidth(SimpleGraph(0, [])) == 0
        assert exact_bandwidth(SimpleGraph(1, [])) == 0
        assert exact_bandwidth(SimpleGraph(6, [])) == 0

    def test_disconnected_components(self):
        two_triangles = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert exact_bandwidth(two_triangles) == 2

    def test_matches_permutation_enumeration(self):
        rng = random.Random(21)
        for _ in range(35):
            m = rng.randint(1, 7)
            edges = [
                e for e in itertools.combinations(range(m), 2) if rng.random() < 0.4
            ]
            g = SimpleGraph(m, edges)
            assert exact_bandwidth(g) == brute_exact_bandwidth(g)

    def test_witness_achieves_value(self):
        rng = random.Random(22)
        for _ in range(25):
            m = rng.randint(1, 9)
            edges = [
                e for e in itertools.combinations(range(m), 2) if rng.random() < 0.35
            ]
            g = SimpleGraph(m, edges)
            value, witness = exact_bandwidth_with_witness(g)
            assert sorted(witness) == list(range(m))
            assert order_width(g, witness) == value

    def test_capacity(self):
        with pytest.raises(CapacityError):
            exact_bandwidth(path(25))
        assert exact_bandwidth(path(25), cap=25) == 1


class TestBandGraphExport:
    def test_vertex_order_is_lex(self):
        p = Params(n=6, k=2, b=3)
        _, verts = band_graph_as_simple_graph(p)
        assert verts == sorted(enumerate_vertices(p))

    def test_edges_match_adjacency(self):
        for p in (Params(n=6, k=2, b=3), Params(n=5, k=3, b=4), Params(n=7, k=1, b=2)):
            g, verts = band_graph_as_simple_graph(p)
            assert g.vertex_count == vertex_count_formula(p)
            expected = sum(
                1
                for i, j in itertools.combinations(range(len(verts)), 2)
                if are_adjacent(verts[i], verts[j], p)
            )
            assert len(g.edges) == expected


class TestCertify:
    def test_bracket_sanity_grid(self):
        for n in range(2, 11):
            for k in (2, 3):
                if k > n + 1:
                    continue
                for b in range(k - 1, n + 1):
                    cert = certify(Params(n=n, k=k, b=b))
                    assert 0 <= cert.lower <= cert.upper
                    assert cert.method == cert.witness.tag
                    assert bandwidth_of_numbering(cert.witness) == cert.upper

    def test_exact_when_central_nonempty(self):
        for n, k, b in ((8, 2, 5), (9, 3, 6), (10, 2, 8), (4, 2, 3)):
            p = Params(n=n, k=k, b=b)
            assert central_count(p) > 0
            cert = certify(p)
            assert cert.exact
            assert cert.value == exact_bandwidth_large_b(p)

    def test_edgeless_is_exact_zero(self):
        cert = certify(Params(n=8, k=3, b=2))
        assert cert.exact and cert.value == 0

    def test_run_exact_matches_enumeration(self):
        for n, k, b in ((4, 2, 2), (5, 2, 3), (4, 3, 3), (6, 2, 2)):
            p = Params(n=n, k=k, b=b)
            g, _ = band_graph_as_simple_graph(p)
            if g.vertex_count > 7:
                continue
            cert = certify(p, run_exact=True)
            assert cert.exact_value == brute_exact_bandwidth(g)
            assert cert.upper == cert.exact_value
            assert cert.lower <= cert.exact_value

    def test_run_exact_pinned(self):
        cert = certify(Params(n=6, k=2, b=4), run_exact=True)
        assert cert.exact_value == 10
        assert cert.value == 10
        assert exact_bandwidth_large_b(Params(n=6, k=2, b=4)) == 10

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_run_exact_outside_bracket_asserts(self, shift, monkeypatch):
        # an exact value below the lower bound or above the best numbering
        # contradicts the bracket; certify refuses to return it
        p = Params(n=6, k=2, b=3)
        bracket = certify(p)
        value = bracket.lower - 1 if shift < 0 else bracket.upper + 1
        found = exact_bandwidth_with_witness(band_graph_as_simple_graph(p)[0])[1]
        monkeypatch.setattr(
            bandgraph.solver, "exact_bandwidth_with_witness", lambda g: (value, found)
        )
        with pytest.raises(AssertionError, match="outside"):
            certify(p, run_exact=True)

    def test_run_exact_capacity(self):
        with pytest.raises(CapacityError):
            certify(Params(n=9, k=2, b=5), run_exact=True)

    def test_large_n_narrow_band(self):
        # n^4 overflows int64 here; the band numbering's keys stay below n^3
        cert = certify(Params(n=50000, k=2, b=3))
        assert (cert.lower, cert.upper) == (6, 6)

    def test_band_numbering_considered_when_beta_small(self):
        cert = certify(Params(n=20, k=2, b=9))
        assert cert.upper <= 60
        cert = certify(Params(n=20, k=2, b=7))
        assert cert.upper <= 41

    def test_non_exact_value_is_none(self):
        cert = certify(Params(n=20, k=2, b=7))
        if cert.lower != cert.upper:
            assert cert.value is None and not cert.exact
