"""Numbering construction and bandwidth-evaluation tests.

Oracles: the brute-force pair scan for bandwidth (quadratic but
independent of the span-class aggregation), brute subset enumeration for
bijectivity, the closed forms for the mirror numbering's value, and the
per-vertex lex, mirror and band constructions of ``numbering_oracle``.
"""

import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bandgraph.numbering
import numbering_oracle
from bandgraph.bounds import beta_decomposition, exact_bandwidth_large_b, lex_upper_bound_value
from bandgraph.core_graph import (
    Params,
    are_adjacent,
    central_count,
    class_table_cells,
    enumerate_vertices,
    is_central,
    vertex_count_formula,
)
from bandgraph.hypergraph import CapacityError
from bandgraph.numbering import (
    Numbering,
    _check_size,
    _exact_position,
    bandwidth_by_edge_scan,
    bandwidth_of_numbering,
    custom_numbering,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
    palindromic_vertex_count,
)
from bandgraph.solver import certify


def brute_bandwidth_of_order(order, p: Params) -> int:
    best = 0
    for i, j in itertools.combinations(range(len(order)), 2):
        if are_adjacent(order[i], order[j], p):
            best = max(best, j - i)
    return best


LOW_REGIME = [Params(n=20, k=2, b=9), Params(n=18, k=3, b=6), Params(n=10, k=2, b=5)]
HIGH_REGIME = [Params(n=20, k=2, b=7), Params(n=26, k=3, b=9), Params(n=40, k=4, b=15)]


class TestConstructionValidation:
    def test_custom_accepts_valid_order(self):
        p = Params(n=4, k=2, b=2)
        order = tuple(sorted(enumerate_vertices(p), key=lambda v: v[::-1]))
        f = custom_numbering(p, order)
        assert f.tag == "custom"
        assert sorted(f.labels.values()) == list(range(1, len(order) + 1))

    def test_rejects_wrong_count(self):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))[:-1]
        with pytest.raises(ValueError):
            custom_numbering(p, order)

    def test_rejects_duplicates(self):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        order[1] = order[0]
        with pytest.raises(ValueError):
            custom_numbering(p, order)

    def test_rejects_non_vertices(self):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        order[0] = (0, 4)  # span 4 > b
        with pytest.raises(ValueError):
            custom_numbering(p, order)

    def test_count_message(self):
        p = Params(n=4, k=2, b=2)
        with pytest.raises(ValueError, match="numbering has 6 entries, graph has 7 vertices"):
            custom_numbering(p, list(enumerate_vertices(p))[:-1])

    def test_repeat_message_comes_before_non_vertex(self):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        order[1] = order[0]
        order[2] = (0, 4)
        with pytest.raises(ValueError, match="numbering repeats a vertex"):
            custom_numbering(p, order)

    @pytest.mark.parametrize(
        "bad",
        [(0, 4), (-1, 1), (3, 5), (2, 2), (3, 1), (1,), (0, 1, 2), (),
         (0, 2**70), (-(2**64), 1)],
        ids=["span", "negative", "above-n", "repeated-element", "decreasing",
             "short", "long", "empty", "above-int64", "below-int64"],
    )
    def test_non_vertex_message(self, bad):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        order[3] = bad
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad} is not a vertex of G")):
            custom_numbering(p, order)

    @pytest.mark.parametrize(
        "bad",
        [(0, 0.5), (0, 1.0), (Fraction(0), 1), (0, np.float64(1))],
        ids=["half", "whole-float", "fraction", "numpy-float"],
    )
    def test_non_integer_entries_are_not_vertices(self, bad):
        # (0, 1) is missing, so no entry stands in for it
        p = Params(n=3, k=2, b=1)
        with pytest.raises(ValueError, match="^" + re.escape(f"{bad} is not a vertex of G")):
            custom_numbering(p, [bad, (1, 2), (2, 3)])

    def test_numpy_integer_entries_are_vertices(self):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        f = custom_numbering(p, [tuple(map(np.int64, v)) for v in order])
        assert f == custom_numbering(p, order)

    def test_first_non_vertex_is_reported(self):
        # a wrong-length entry after a bad full-length one: the first wins
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        order[2], order[5] = (3, 1), (9,)
        with pytest.raises(ValueError, match=r"^\(3, 1\) is not a vertex"):
            custom_numbering(p, order)
        order[2], order[5] = (9,), (3, 1)
        with pytest.raises(ValueError, match=r"^\(9,\) is not a vertex"):
            custom_numbering(p, order)

    def test_overflow_after_a_non_vertex_reports_the_first(self):
        p = Params(n=4, k=2, b=2)
        order = list(enumerate_vertices(p))
        order[2], order[5] = (3, 1), (0, 2**70)
        with pytest.raises(ValueError, match=r"^\(3, 1\) is not a vertex"):
            custom_numbering(p, order)

    def test_value_equality(self):
        # equal params, tag and order compare and hash equal, however built
        p = Params(n=20, k=2, b=5)
        f, g = low_remainder_numbering(p), low_remainder_numbering(p)
        assert f == g and hash(f) == hash(g)
        assert f == Numbering(p, "low_remainder", f.order)
        assert f != custom_numbering(p, f.order)
        assert lex_numbering(p) != mirror_numbering(p)

    def test_equality_reads_the_class_tables(self):
        # 1.65M vertices each: compared without listing either order
        p = Params(n=400, k=3, b=100)
        f, g = lex_numbering(p), lex_numbering(p)
        start = time.perf_counter()
        assert f == g and hash(f) == hash(g)
        assert time.perf_counter() - start < 0.1
        assert "order" not in vars(f) and "order" not in vars(g)

    def test_explicit_orders_differ_inside_a_class(self):
        # (0, 1, 3) and (0, 2, 3) share the class (0, 3), so one table
        p = Params(n=6, k=3, b=3)
        order = list(enumerate_vertices(p))
        i, j = order.index((0, 1, 3)), order.index((0, 2, 3))
        order[i], order[j] = order[j], order[i]
        f, g = lex_numbering(p), custom_numbering(p, order)
        assert sorted_class_labels(f) == sorted_class_labels(g)
        assert custom_numbering(p, f.order) != g
        assert f != Numbering(p, "lex", order)
        assert f == Numbering(p, "lex", f.order)

    def test_label_lookup(self):
        p = Params(n=5, k=2, b=3)
        f = lex_numbering(p)
        assert f.label(f.order[0]) == 1
        assert f.label(f.order[-1]) == len(f.order)


class TestInt64Refusals:
    def test_lex_and_mirror_refuse_2_pow_62_vertices_at_once(self):
        # 8.7e19 vertices: refused from the closed-form count, not listed
        p = Params(n=70, k=40, b=69)
        assert vertex_count_formula(p) >= 2**62
        for build in (lex_numbering, mirror_numbering):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="2\\^62"):
                build(p)
            assert time.perf_counter() - start < 1

    def test_band_keys_refuse_large_n(self, monkeypatch):
        # n^3 < 2^63 holds up to n = 2^21 - 1; the size cap, raised past the
        # instance's 14,680,071 table cells, would refuse it first
        monkeypatch.setattr(bandgraph.numbering, "MAX_TABLE_CELLS", 15_000_000)
        for fn in (low_remainder_numbering, high_remainder_numbering):
            with pytest.raises(ValueError, match="n\\^3"):
                fn(Params(n=2**21, k=2, b=3))

    def test_labels_refuse_2_pow_62_vertices(self):
        p = Params(n=200, k=60, b=100)
        assert vertex_count_formula(p) >= 2**62
        with pytest.raises(ValueError, match="2\\^62"):
            low_remainder_numbering(p)


BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# each builder with an instance of its regime
CAPPED_BUILDS = [
    (lex_numbering, Params(n=20, k=2, b=9)),
    (mirror_numbering, Params(n=20, k=2, b=9)),
    (low_remainder_numbering, Params(n=20, k=2, b=9)),
    (high_remainder_numbering, Params(n=20, k=2, b=7)),
]


class TestSizeCap:
    @pytest.mark.parametrize("build, p", CAPPED_BUILDS, ids=[b.__name__ for b, _ in CAPPED_BUILDS])
    def test_builds_at_the_cap_and_refuses_past_it(self, monkeypatch, build, p):
        cells = class_table_cells(p)
        monkeypatch.setattr(bandgraph.numbering, "MAX_TABLE_CELLS", cells)
        tag = build(p).tag
        monkeypatch.setattr(bandgraph.numbering, "MAX_TABLE_CELLS", cells - 1)
        message = f"{cells} table cells exceed the cap {cells - 1} for {tag}"
        with pytest.raises(CapacityError, match=f"^{message}$"):
            build(p)

    def test_certify_refuses_past_the_cap(self, monkeypatch):
        # lex, its first candidate, is refused
        p = Params(n=20, k=2, b=9)
        monkeypatch.setattr(bandgraph.numbering, "MAX_TABLE_CELLS", 398)
        with pytest.raises(CapacityError, match="^399 table cells exceed the cap 398 for lex$"):
            certify(p)

    def test_mirror_counts_palindromic_vertices(self):
        # 153.7M palindromic vertices (lo = 10..19) outnumber the 61² cells
        p = Params(n=60, k=10, b=40)
        message = f"{palindromic_vertex_count(p)} palindromic vertices exceed the cap 2000000 for mirror"
        with pytest.raises(CapacityError, match=f"^{message}$"):
            mirror_numbering(p)

    @pytest.mark.parametrize("build", [b for b, _ in CAPPED_BUILDS], ids=lambda b: b.__name__)
    def test_refuses_before_allocating(self, build):
        # 200001 vertices in 40,000,400,001 table cells
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^40000400001 table cells exceed the cap"):
                build(Params(n=200000, k=1, b=100000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_benchmark_instances_stay_under_the_cap(self, monkeypatch):
        # so that no golden answer of the benchmark turns into a refusal:
        # a sweep row builds its method, certify any of the four
        monkeypatch.syspath_prepend(str(BENCH))
        import workloads

        every_tag = ("lex", "mirror", "low_remainder", "high_remainder")
        for inst in workloads.all_instances("band-sweep"):
            k, n, b, method = inst.args
            _check_size(Params(n, k, b), method)
        for inst in workloads.all_instances("certify-grid"):
            n, k, b, _ = inst.args
            for tag in every_tag:
                _check_size(Params(n, k, b), tag)


class TestExactPosition:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
    def test_keeps_order_of_rationals(self, n):
        # every num/den with 0 < den <= n and |num| <= 2n^2
        pairs = [(a, d) for d in range(1, n + 1) for a in range(-2 * n * n, 2 * n * n + 1)]
        num = np.array([a for a, _ in pairs], dtype=np.int64)
        den = np.array([d for _, d in pairs], dtype=np.int64)
        key = _exact_position(num, den, n).tolist()
        exact = [Fraction(a, d) for a, d in pairs]
        ranked = sorted(range(len(pairs)), key=exact.__getitem__)
        for i, j in zip(ranked, ranked[1:]):
            if exact[i] < exact[j]:
                assert key[i] < key[j]
            else:
                assert key[i] == key[j]

    def test_exact_at_the_int64_edge(self):
        # positions num/den lie in [0, n]
        n = 2**21 - 1
        assert n**3 < 2**63
        num = np.array([n * n, n * n - 1, n * (n - 1) - 1, 0, 1, n * 7 - 1], dtype=np.int64)
        den = np.array([n, n, n - 1, 1, n, 7], dtype=np.int64)
        got = _exact_position(num, den, n).tolist()
        assert got == [(a * n * n) // d for a, d in zip(num.tolist(), den.tolist())]


def band_numbering(p: Params):
    """The band constructor for p's regime and the oracle's order."""
    if beta_decomposition(Fraction(p.b, p.n)).regime == "low":
        return low_remainder_numbering(p), numbering_oracle.low_remainder_order(p)
    return high_remainder_numbering(p), numbering_oracle.high_remainder_order(p)


def band_grid(n_max: int):
    for k in range(1, 5):
        lowest = max(1, k - 1)
        for n in range(2 * lowest, n_max + 1):
            for b in range(lowest, n // 2 + 1):
                yield Params(n=n, k=k, b=b)


class TestBandOracle:
    def test_order_matches_oracle_on_grid(self):
        count = 0
        for p in band_grid(26):
            f, expected = band_numbering(p)
            assert tuple(f.order) == expected, p
            assert len(f) == len(expected)
            assert f == Numbering(p, f.tag, f.order), p
            count += 1
        assert count > 300

    def test_classes_take_label_blocks(self):
        p = Params(n=40, k=3, b=14)
        f, expected = band_numbering(p)
        lo, hi, first, last = f.class_labels()
        for c in range(len(lo)):
            block = expected[first[c] - 1 : last[c]]
            assert all(v[0] == lo[c] and v[-1] == hi[c] for v in block)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_band_numbering_vs_oracle_and_scan(data):
    k = data.draw(st.integers(min_value=1, max_value=4))
    lowest = max(1, k - 1)
    n = data.draw(st.integers(min_value=2 * lowest, max_value=24))
    b = data.draw(st.integers(min_value=lowest, max_value=n // 2))
    p = Params(n=n, k=k, b=b)
    assume(vertex_count_formula(p) <= 700)
    f, expected = band_numbering(p)
    assert tuple(f.order) == expected
    assert f == Numbering(p, f.tag, f.order)
    assert bandwidth_of_numbering(f) == bandwidth_by_edge_scan(f)


LEX_AND_MIRROR = (
    (lex_numbering, numbering_oracle.lex_order),
    (mirror_numbering, numbering_oracle.mirror_order),
)


def sorted_class_labels(f) -> list[tuple[int, int, int, int]]:
    return sorted(zip(*(a.tolist() for a in f.class_labels())))


def assert_lex_and_mirror_match_oracle(p: Params, scan_limit: int = 0) -> None:
    """Per-class (first, last) and the listed order equal the per-vertex
    oracle's, and the table equals the one gathered from the order; the
    width equals the edge scan where |V| <= scan_limit."""
    for build, oracle in LEX_AND_MIRROR:
        f, expected = build(p), oracle(p)
        assert sorted_class_labels(f) == sorted_class_labels(Numbering(p, "oracle", expected)), (
            build.__name__,
            p,
        )
        assert tuple(f.order) == expected, (build.__name__, p)
        assert f == Numbering(p, f.tag, f.order), (build.__name__, p)
        if len(f) <= scan_limit:
            assert bandwidth_of_numbering(f) == bandwidth_by_edge_scan(f), (build.__name__, p)


class TestLexAndMirrorOracle:
    def test_grid(self):
        count = 0
        for k in range(1, 6):
            for n in range(max(1, k - 1), 13):
                for b in range(max(1, k - 1), n + 1):
                    assert_lex_and_mirror_match_oracle(Params(n=n, k=k, b=b))
                    count += 1
        assert count > 250

    def test_k1_palindromic_singleton(self):
        # b < n/2: the singleton (5,) is non-central, the only palindromic
        # vertex, and closes r0 after (0,)..(4,)
        p = Params(n=10, k=1, b=3)
        assert palindromic_vertex_count(p) == 1
        assert_lex_and_mirror_match_oracle(p, scan_limit=100)
        assert mirror_numbering(p).label((5,)) == 6

    def test_edgeless(self):
        for p in (Params(n=6, k=3, b=2), Params(n=9, k=4, b=3), Params(n=5, k=2, b=1)):
            assert_lex_and_mirror_match_oracle(p, scan_limit=100)
        for build, _ in LEX_AND_MIRROR:
            assert bandwidth_of_numbering(build(Params(n=6, k=3, b=2))) == 0

    def test_binomials_past_int64_pascal(self):
        # an int64 Pascal table over x <= 80 would hold C(80, 40) ~ 1.1e23
        p = Params(n=80, k=78, b=80)
        for build, oracle in LEX_AND_MIRROR:
            expected = Numbering(p, "oracle", oracle(p))
            assert sorted_class_labels(build(p)) == sorted_class_labels(expected)

    def test_palindromic_vertex_count(self):
        for k in range(1, 5):
            for n in range(max(1, k - 1), 16):
                for b in range(max(1, k - 1), n + 1):
                    p = Params(n=n, k=k, b=b)
                    listed = sum(
                        v[0] + v[-1] == n and not is_central(v, p) for v in enumerate_vertices(p)
                    )
                    assert palindromic_vertex_count(p) == listed, p

    def test_widths_at_80m_vertices_within_2s(self):
        # 80.7M vertices; both widths are k·C(b, k)
        p = Params(n=2000, k=3, b=300)
        for build, _ in LEX_AND_MIRROR:
            start = time.perf_counter()
            assert bandwidth_of_numbering(build(p)) == 13365300 == lex_upper_bound_value(p)
            assert time.perf_counter() - start < 2


def _lex_mirror_bs(n: int, k: int, max_vertices: int) -> list[int]:
    """Every b of G(n, k, b) with at most max_vertices vertices."""
    bs = range(max(1, k - 1), n + 1)
    return [b for b in bs if vertex_count_formula(Params(n=n, k=k, b=b)) <= max_vertices]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_property_lex_and_mirror_vs_oracle_and_scan(data):
    k = data.draw(st.integers(min_value=1, max_value=5))
    n = data.draw(st.integers(min_value=max(1, k - 1), max_value=30))
    b = data.draw(st.sampled_from(_lex_mirror_bs(n, k, 5000)))
    assert_lex_and_mirror_match_oracle(Params(n=n, k=k, b=b), scan_limit=600)


class TestLex:
    def test_order_is_sorted_enumeration(self):
        for p in (Params(n=7, k=2, b=3), Params(n=6, k=3, b=4)):
            f = lex_numbering(p)
            assert list(f.order) == sorted(enumerate_vertices(p))

    def test_upper_bound_invariant_sampled(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 40)
            k = rng.randint(1, min(4, n + 1))
            b = rng.randint(max(1, k - 1), n)
            p = Params(n=n, k=k, b=b)
            f = lex_numbering(p)
            assert bandwidth_of_numbering(f) <= lex_upper_bound_value(p)

    def test_pinned_flat_band(self):
        for n in (50, 100):
            assert bandwidth_of_numbering(lex_numbering(Params(n=n, k=2, b=3))) == 6


class TestMirror:
    def test_partition_shape(self):
        for p in (Params(n=8, k=2, b=5), Params(n=9, k=3, b=6), Params(n=7, k=2, b=3)):
            part = numbering_oracle.mirror_partition(p)
            m = vertex_count_formula(p)
            assert len(part.r0) + len(part.central) + len(part.r1) == m
            assert len(part.central) == central_count(p)
            assert abs(len(part.r0) - len(part.r1)) <= 1
            assert all(is_central(v, p) for v in part.central)
            assert not any(is_central(v, p) for v in part.r0 + part.r1)

    def test_blocks_are_ordered(self):
        p = Params(n=8, k=2, b=5)
        part = numbering_oracle.mirror_partition(p)
        f = mirror_numbering(p)
        assert list(f.order) == list(part.r0) + list(part.central) + list(part.r1)
        # r0 ascending lex; r1 ascending reversed-tuple lex
        assert list(part.r0) == sorted(part.r0)
        assert list(part.r1) == sorted(part.r1, key=lambda v: v[::-1])

    def test_value_formula_on_grid(self):
        for k in (2, 3):
            for n in range(k, 16):
                b_min = -(-(n + k - 1) // 2)
                for b in range(max(b_min, k - 1, 1), n + 1):
                    p = Params(n=n, k=k, b=b)
                    assert bandwidth_of_numbering(mirror_numbering(p)) == (
                        exact_bandwidth_large_b(p)
                    ), p

    def test_construction_valid_without_central(self):
        p = Params(n=12, k=2, b=4)  # central empty
        assert central_count(p) == 0
        f = mirror_numbering(p)
        assert len(set(f.order)) == vertex_count_formula(p)

    def test_pinned_small_order(self):
        # full frozen order for n=4, k=2, b=3
        f = mirror_numbering(Params(n=4, k=2, b=3))
        assert f.order == (
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (1, 4),
            (2, 4),
            (3, 4),
        )
        assert bandwidth_of_numbering(f) == 5

    def test_pinned_three_uniform(self):
        p = Params(n=17, k=3, b=11)
        assert bandwidth_of_numbering(mirror_numbering(p)) == 284
        assert bandwidth_of_numbering(lex_numbering(p)) == 466


class TestBandRegimes:
    @pytest.mark.parametrize("p", LOW_REGIME, ids=str)
    def test_low_builds_bijection(self, p):
        f = low_remainder_numbering(p)
        assert f.tag == "low_remainder"
        assert set(f.order) == set(enumerate_vertices(p))

    @pytest.mark.parametrize("p", HIGH_REGIME, ids=str)
    def test_high_builds_bijection(self, p):
        f = high_remainder_numbering(p)
        assert f.tag == "high_remainder"
        assert set(f.order) == set(enumerate_vertices(p))

    @pytest.mark.parametrize("p", LOW_REGIME, ids=str)
    def test_wrong_regime_raises_high(self, p):
        with pytest.raises(ValueError):
            high_remainder_numbering(p)

    @pytest.mark.parametrize("p", HIGH_REGIME, ids=str)
    def test_wrong_regime_raises_low(self, p):
        with pytest.raises(ValueError):
            low_remainder_numbering(p)

    def test_integral_beta_inverse_is_low(self):
        # r = 0 (for example beta = 1/2 or 1/3) belongs to the low regime
        for n, b in ((12, 6), (18, 6), (20, 10)):
            p = Params(n=n, k=2, b=b)
            low_remainder_numbering(p)
            with pytest.raises(ValueError):
                high_remainder_numbering(p)

    def test_band_regimes_need_halfish_beta(self):
        p = Params(n=10, k=2, b=6)  # beta > 1/2
        with pytest.raises(ValueError):
            low_remainder_numbering(p)
        with pytest.raises(ValueError):
            high_remainder_numbering(p)

    @pytest.mark.parametrize("p", LOW_REGIME, ids=str)
    def test_low_order_relation(self, p):
        # if X comes before Y then min(X) <= max(Y); equivalent to: the
        # running suffix-minimum of max(Y) never drops below min(X)
        order = low_remainder_numbering(p).order
        suffix_min_hi = [0] * len(order)
        cur = order[-1][-1]
        for i in range(len(order) - 1, -1, -1):
            cur = min(cur, order[i][-1])
            suffix_min_hi[i] = cur
        for i, x in enumerate(order[:-1]):
            assert x[0] <= suffix_min_hi[i + 1], (i, x)

    def test_pinned_bandwidths(self):
        # frozen regression values, cross-checked by the pair-scan oracle
        p = Params(n=20, k=2, b=9)
        f = low_remainder_numbering(p)
        assert bandwidth_of_numbering(f) == 60 == bandwidth_by_edge_scan(f)
        p = Params(n=20, k=2, b=7)
        f = high_remainder_numbering(p)
        assert bandwidth_of_numbering(f) == 41 == bandwidth_by_edge_scan(f)

    def test_pinned_bandwidths_larger(self):
        assert (
            bandwidth_of_numbering(low_remainder_numbering(Params(n=40, k=2, b=18)))
            == 242
        )
        assert (
            bandwidth_of_numbering(high_remainder_numbering(Params(n=40, k=2, b=14)))
            == 160
        )

    def test_low_asymptote_structure(self):
        # the low-remainder construction lands at ceil(c1*n^2) - 1 for
        # beta = 9/20 (measured and frozen; approached from below)
        import math

        c1 = Fraction(243, 1600)
        for n in (40, 60, 80):
            p = Params(n=n, k=2, b=9 * n // 20)
            bw = bandwidth_of_numbering(low_remainder_numbering(p))
            assert bw == math.ceil(c1 * n * n) - 1


class TestBandwidthEvaluation:
    def test_matches_pair_scan_on_samples(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(2, 14)
            k = rng.randint(1, min(4, n + 1))
            b = rng.randint(max(1, k - 1), n)
            p = Params(n=n, k=k, b=b)
            verts = list(enumerate_vertices(p))
            rng.shuffle(verts)
            f = custom_numbering(p, verts)
            assert bandwidth_of_numbering(f) == bandwidth_by_edge_scan(f)

    def test_matches_brute_on_lex_and_mirror(self):
        for p in (Params(n=8, k=2, b=3), Params(n=7, k=3, b=5), Params(n=9, k=2, b=5)):
            for f in (lex_numbering(p), mirror_numbering(p)):
                assert bandwidth_of_numbering(f) == brute_bandwidth_of_order(f.order, p)

    def test_edgeless_is_zero(self):
        p = Params(n=6, k=3, b=2)
        assert bandwidth_of_numbering(lex_numbering(p)) == 0

    def test_k1_path_graph(self):
        p = Params(n=9, k=1, b=2)
        f = lex_numbering(p)
        assert bandwidth_of_numbering(f) == 2 == bandwidth_by_edge_scan(f)

    def test_band_table_memory(self):
        # the running-max table covers (n+1) x (min(2b, n)+1) cells, not
        # (n+1)^2: at (8000, 2, 3) the dense tables took about 1 GB
        f = lex_numbering(Params(n=8000, k=2, b=3))
        tracemalloc.start()
        try:
            assert bandwidth_of_numbering(f) == 6
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_tiny_instances(self):
        p = Params(n=1, k=2, b=1)
        assert bandwidth_of_numbering(lex_numbering(p)) == 0  # single vertex (0,1)
        p1 = Params(n=1, k=1, b=1)
        assert bandwidth_of_numbering(lex_numbering(p1)) == 1  # {0}~{1}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_bandwidth_table_vs_scan(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    k = data.draw(st.integers(min_value=1, max_value=min(4, n + 1)))
    b = data.draw(st.integers(min_value=max(1, k - 1), max_value=n))
    p = Params(n=n, k=k, b=b)
    verts = list(enumerate_vertices(p))
    perm = data.draw(st.permutations(verts))
    f = custom_numbering(p, perm)
    assert bandwidth_of_numbering(f) == bandwidth_by_edge_scan(f)
