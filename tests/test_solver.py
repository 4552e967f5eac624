"""Exact bandwidth search and certification tests.

Oracle: full enumeration over all vertex permutations (fine up to 7
vertices), plus closed forms for the classic families.
"""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bandgraph.solver
from bandgraph.bounds import (
    beta_decomposition,
    central_lower_bound,
    density_lower_bound,
    exact_bandwidth_large_b,
)
from bandgraph.core_graph import (
    Params,
    are_adjacent,
    central_count,
    enumerate_vertices,
    vertex_count_formula,
)
from bandgraph.hypergraph import CapacityError, SimpleGraph, band_graph_as_simple_graph
from bandgraph.numbering import (
    Numbering,
    bandwidth_of_numbering,
    custom_numbering,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
)
from bandgraph.solver import (
    Certificate,
    _adjacency_lists,
    _feasible_placement,
    certify,
    exact_bandwidth,
    exact_bandwidth_with_witness,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def certify_every_candidate(p: Params) -> Certificate:
    """Oracle for certify without run_exact: every candidate built and
    evaluated, no early stop, the first of least width kept."""
    lower = 0 if p.b == p.k - 1 else density_lower_bound(p)
    if central_count(p) > 0:
        lower = max(lower, central_lower_bound(p))
    candidates = [lex_numbering(p), mirror_numbering(p)]
    if 2 * p.b <= p.n:
        low = beta_decomposition(Fraction(p.b, p.n)).regime == "low"
        candidates.append((low_remainder_numbering if low else high_remainder_numbering)(p))
    widths = [bandwidth_of_numbering(f) for f in candidates]
    best = widths.index(min(widths))
    return Certificate(params=p, lower=lower, upper=widths[best], witness=candidates[best])


def wide_order(p: Params) -> Numbering:
    """The vertices with even lo first, then those with odd lo: wider
    than lex wherever an edge joins the two halves."""
    return custom_numbering(p, sorted(enumerate_vertices(p), key=lambda v: (v[0] % 2, v)))


def small_band_graphs(max_vertices: int = 24):
    """Every G(n, k, b) with k = 2..4 and at most max_vertices vertices:
    the large-b ones (2b >= n+k-1) and the narrower ones."""
    for k in (2, 3, 4):
        for n in range(k - 1, max_vertices + 1):
            for b in range(k - 1, n + 1):
                p = Params(n=n, k=k, b=b)
                if vertex_count_formula(p) <= max_vertices:
                    yield p


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
        assert exact_bandwidth_with_witness(SimpleGraph(0, [])) == (0, ())
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
            # the no-argument call is the bracket (0, identity order)
            assert exact_bandwidth_with_witness(g, (0, range(m))) == (value, witness)

    def test_bracket_searches_only_below_the_known_order(self):
        rng = random.Random(23)
        for _ in range(25):
            m = rng.randint(1, 9)
            edges = [
                e for e in itertools.combinations(range(m), 2) if rng.random() < 0.35
            ]
            g = SimpleGraph(m, edges)
            value, witness = exact_bandwidth_with_witness(g)
            # an optimal order is known: nothing narrower is found, and the
            # order itself comes back
            assert exact_bandwidth_with_witness(g, (value, witness)) == (value, witness)
            order = rng.sample(range(m), m)
            found, placement = exact_bandwidth_with_witness(g, (0, order))
            assert found == value and order_width(g, placement) == value
            if value > 0:
                with pytest.raises(AssertionError, match="outside"):
                    exact_bandwidth_with_witness(g, (value + 1, order))

    def test_decision_at_every_width(self):
        # no public call asks below the degree bound: here every width
        # 0..m-1 is decided, feasible iff it is at least the bandwidth.
        # K(2, 4) at width 3 reaches one placed set with two window
        # orders, and only one of them completes
        graphs = [SimpleGraph(6, [(u, v) for u in (0, 1) for v in range(2, 6)])]
        rng = random.Random(24)
        for _ in range(80):
            m, density = rng.randint(1, 7), rng.random()
            edges = [e for e in itertools.combinations(range(m), 2) if rng.random() < density]
            graphs.append(SimpleGraph(m, edges))
        for g in graphs:
            m = g.vertex_count
            value = brute_exact_bandwidth(g)
            adj = _adjacency_lists(g)
            for width in range(m):
                placement = _feasible_placement(adj, width)
                assert (placement is not None) == (width >= value), (g.edges, width)
                if placement is not None:
                    assert sorted(placement) == list(range(m))
                    assert order_width(g, placement) <= width

    def test_bracket_upper_end_is_the_orders_width(self):
        # the upper end is worked out from the order, never taken on trust
        assert exact_bandwidth_with_witness(path(5), (0, range(5))) == (1, (0, 1, 2, 3, 4))
        found, placement = exact_bandwidth_with_witness(path(5), (0, (0, 4, 1, 3, 2)))
        assert found == 1 and order_width(path(5), placement) == 1
        for order in [(0, 1, 2, 3), (0, 1, 2, 3, 3), (0, 1, 2, 3, 5)]:
            with pytest.raises(ValueError, match="each of the 5 vertices once"):
                exact_bandwidth_with_witness(path(5), (0, order))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            exact_bandwidth(path(25))
        assert exact_bandwidth(path(24)) == 1


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
        # a lower bound above the exact value, or a witness wider than the
        # reported upper, contradicts the bracket; certify refuses to
        # return it, by an explicit raise that python -O keeps.  At
        # (6, 2, 3) the bracket is [5, 6], the exact value and the degree
        # bound are 6, and lex attains 6.
        p = Params(n=6, k=2, b=3)
        if shift < 0:
            # lower = 7, so the search finds width lower - 1 = 6 feasible
            monkeypatch.setattr(bandgraph.solver, "density_lower_bound", lambda p: 7)
            match = "width 6 is feasible"
        else:
            # every candidate reported one narrower than it is
            monkeypatch.setattr(
                bandgraph.solver, "bandwidth_of_numbering", lambda f: bandwidth_of_numbering(f) - 1
            )
            match = "witness width 6 over the edges, reported 5"
        with pytest.raises(AssertionError, match=match):
            certify(p, run_exact=True)

    def test_run_exact_proof_raises_under_python_O(self):
        # the lower - 1 proof is an explicit raise, which python -O keeps
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            "import bandgraph.solver as solver\n"
            "from bandgraph.core_graph import Params\n"
            "solver.density_lower_bound = lambda p: 7\n"
            "print(__debug__)\n"
            "try:\n"
            "    solver.certify(Params(6, 2, 3), run_exact=True)\n"
            "except AssertionError as e:\n"
            "    print(e)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        debug, message = proc.stdout.splitlines()
        assert debug == "False"
        assert message.startswith("width 6 is feasible")

    def test_run_exact_refuses_a_misreported_wide_witness(self, monkeypatch):
        # a witness of width 9 reported at the exact value 6: the search
        # finds width 6, not below the reported upper, and certify raises
        p = Params(n=6, k=2, b=3)
        monkeypatch.setattr(bandgraph.solver, "_candidates", lambda p: iter([wide_order(p)]))
        monkeypatch.setattr(bandgraph.solver, "bandwidth_of_numbering", lambda f: 6)
        with pytest.raises(AssertionError, match="exact bandwidth 6, below the witness's width"):
            certify(p, run_exact=True)

    def test_run_exact_replaces_a_wide_witness(self, monkeypatch):
        # no built candidate is wider than the exact value on a graph the
        # search takes, so one is put in: the search's placement replaces it
        p = Params(n=6, k=2, b=3)
        monkeypatch.setattr(bandgraph.solver, "_candidates", lambda p: iter([wide_order(p)]))
        assert certify(p).upper == bandwidth_of_numbering(wide_order(p)) > 6
        cert = certify(p, run_exact=True)
        assert (cert.lower, cert.upper, cert.exact_value, cert.method) == (5, 6, 6, "custom")
        assert bandwidth_of_numbering(cert.witness) == 6

    def test_run_exact_equals_unbracketed_search(self):
        checked = 0
        for p in small_band_graphs():
            g, _ = band_graph_as_simple_graph(p)
            assert certify(p, run_exact=True).exact_value == exact_bandwidth(g), p
            checked += 1
        assert checked == 111

    def test_early_stop_matches_every_candidate(self):
        grid = [
            Params(n=n, k=k, b=b)
            for k in range(1, 5)
            for n in range(max(1, k - 1), 31)
            for b in range(max(1, k - 1), n + 1)
        ]
        grid += [Params(n=2000, k=2, b=3), Params(n=1000, k=2, b=10), Params(n=150, k=3, b=20)]
        for p in grid:
            assert certify(p) == certify_every_candidate(p), p

    @pytest.mark.parametrize("triple, builds", [((2000, 2, 3), 1), ((20, 3, 15), 2), ((150, 3, 20), 3)])
    def test_builds_stop_once_the_bracket_closes(self, triple, builds, monkeypatch):
        built = []
        for name in (
            "lex_numbering",
            "mirror_numbering",
            "low_remainder_numbering",
            "high_remainder_numbering",
        ):
            build = getattr(bandgraph.solver, name)
            monkeypatch.setattr(
                bandgraph.solver, name, lambda p, build=build: built.append(p) or build(p)
            )
        certify(Params(*triple))
        assert len(built) == builds

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
