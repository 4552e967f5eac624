"""Numbering construction and bandwidth-evaluation tests.

Oracles: the brute-force pair scan for bandwidth (quadratic but
independent of the span-class aggregation), brute subset enumeration for
bijectivity, the closed forms for the mirror numbering's value, and the
per-vertex band constructions of ``numbering_oracle``.
"""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numbering_oracle
from bandgraph.bounds import beta_decomposition, exact_bandwidth_large_b, lex_upper_bound_value
from bandgraph.core_graph import (
    Params,
    are_adjacent,
    central_count,
    enumerate_vertices,
    is_central,
    vertex_count_formula,
)
from bandgraph.numbering import (
    Numbering,
    _exact_position,
    bandwidth_by_edge_scan,
    bandwidth_of_numbering,
    custom_numbering,
    high_remainder_numbering,
    lex_numbering,
    low_remainder_numbering,
    mirror_numbering,
    mirror_partition,
)


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

    def test_label_lookup(self):
        p = Params(n=5, k=2, b=3)
        f = lex_numbering(p)
        assert f.label(f.order[0]) == 1
        assert f.label(f.order[-1]) == len(f.order)


class TestClassValidation:
    P = Params(n=6, k=3, b=3)

    def classes(self):
        f = low_remainder_numbering(self.P)
        lo, hi, _, _ = f.class_labels()
        return list(lo), list(hi)

    def test_accepts_all_classes(self):
        lo, hi = self.classes()
        f = Numbering(self.P, "t", classes=(lo[::-1], hi[::-1]))
        assert len(f) == vertex_count_formula(self.P)
        assert set(f.order) == set(enumerate_vertices(self.P))

    def test_rejects_missing_class(self):
        lo, hi = self.classes()
        with pytest.raises(ValueError, match="classes hold"):
            Numbering(self.P, "t", classes=(lo[1:], hi[1:]))

    def test_rejects_repeated_class(self):
        lo, hi = self.classes()
        with pytest.raises(ValueError, match="repeats a span class"):
            Numbering(self.P, "t", classes=(lo + lo[:1], hi + hi[:1]))

    @pytest.mark.parametrize("cls", [(-1, 1), (5, 7), (0, 4), (3, 2)])
    def test_rejects_out_of_range(self, cls):
        lo, hi = self.classes()
        lo[0], hi[0] = cls
        with pytest.raises(ValueError, match="outside"):
            Numbering(self.P, "t", classes=(lo, hi))

    def test_rejects_empty_class(self):
        lo, hi = self.classes()
        lo.append(0)
        hi.append(1)  # span 1 < k-1: no vertex
        with pytest.raises(ValueError, match="holds no vertex"):
            Numbering(self.P, "t", classes=(lo, hi))

    def test_rejects_shape_mismatch(self):
        lo, hi = self.classes()
        with pytest.raises(ValueError, match="equal length"):
            Numbering(self.P, "t", classes=(lo, hi[1:]))

    def test_needs_exactly_one_source(self):
        with pytest.raises(TypeError):
            Numbering(self.P, "t")
        with pytest.raises(TypeError):
            Numbering(self.P, "t", (), classes=([], []))


class TestInt64Refusals:
    def test_band_keys_refuse_large_n(self):
        # n^3 < 2^63 holds up to n = 2^21 - 1
        for fn in (low_remainder_numbering, high_remainder_numbering):
            with pytest.raises(ValueError, match="n\\^3"):
                fn(Params(n=2**21, k=2, b=3))

    def test_labels_refuse_2_pow_62_vertices(self):
        p = Params(n=200, k=60, b=100)
        assert vertex_count_formula(p) >= 2**62
        with pytest.raises(ValueError, match="2\\^62"):
            low_remainder_numbering(p)
        with pytest.raises(ValueError, match="2\\^62"):
            Numbering(p, "t", classes=([0], [59]))


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
    assert bandwidth_of_numbering(f) == bandwidth_by_edge_scan(f)


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
            part = mirror_partition(p)
            m = vertex_count_formula(p)
            assert len(part.r0) + len(part.central) + len(part.r1) == m
            assert len(part.central) == central_count(p)
            assert abs(len(part.r0) - len(part.r1)) <= 1
            assert all(is_central(v, p) for v in part.central)
            assert not any(is_central(v, p) for v in part.r0 + part.r1)

    def test_blocks_are_ordered(self):
        p = Params(n=8, k=2, b=5)
        part = mirror_partition(p)
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
