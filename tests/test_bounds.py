"""Regime decomposition, coefficient, and bound tests.

Pinned rational values are hand-derived from the closed forms:
c1 = beta^k/k! * (k - (k-1)/q), c2 = beta^(k-1)/((q+1)k!) * (k - (k-1)beta),
c3 = (beta-r)^k/((q+1)k!) * q^(k-1).
"""

import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandgraph.bounds import (
    asymptotic_coefficient_interval,
    beta_decomposition,
    central_lower_bound,
    coefficients,
    density_lower_bound,
    exact_bandwidth_large_b,
    lex_upper_bound_value,
    unresolved_beta_measure,
)
from bandgraph.core_graph import (
    Params,
    central_count,
    comb0,
    diameter,
    vertex_count_formula,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# (beta, q, r, regime) that are no decomposition, and the refusal of each
BAD_DECOMPOSITIONS = [
    (("1/3", 2, "1/2", "low"), "q*beta + r must be 1"),
    (("1/2", 1, "1/2", "low"), "r must lie in [0, beta)"),
    (("2/5", 3, "-1/5", "low"), "r must lie in [0, beta)"),
    (("3/5", 1, "2/5", "low"), "q must be at least 2"),
    (("9/20", 2, "1/10", "high"), "regime of q=2, r=1/10 is 'low', got 'high'"),
    (("7/20", 2, "3/10", "low"), "regime of q=2, r=3/10 is 'high', got 'low'"),
]


class TestBetaDecomposition:
    @pytest.mark.parametrize(
        "beta,q,r,regime",
        [
            ("9/20", 2, "1/10", "low"),
            ("7/20", 2, "3/10", "high"),
            ("1/3", 3, "0", "low"),
            ("2/5", 2, "1/5", "low"),  # r = gamma exactly: boundary is low
            ("1/2", 2, "0", "low"),
            ("3/10", 3, "1/10", "low"),
            ("5/12", 2, "1/6", "low"),
            ("13/50", 3, "11/50", "high"),
        ],
    )
    def test_pinned_table(self, beta, q, r, regime):
        dec = beta_decomposition(Fraction(beta))
        assert dec.q == q
        assert dec.r == Fraction(r)
        assert dec.regime == regime

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            beta_decomposition(Fraction(3, 5))  # beta > 1/2
        with pytest.raises(ValueError):
            beta_decomposition(Fraction(0))
        with pytest.raises(ValueError):
            beta_decomposition(Fraction(-1, 4))

    @pytest.mark.parametrize("beta", [0.45, np.float64(0.45), np.float32(0.45), 0.5])
    def test_refuses_floats(self, beta):
        # 0.45 is 8106479329266893/2^54, not 9/20
        with pytest.raises(TypeError):
            beta_decomposition(beta)

    def test_takes_a_decomposition_as_it_is(self):
        dec = beta_decomposition("7/20")
        assert beta_decomposition(dec) is dec
        assert coefficients(dec, 3) == coefficients("7/20", 3)
        assert asymptotic_coefficient_interval(dec, 3) == asymptotic_coefficient_interval("7/20", 3)

    @pytest.mark.parametrize("beta", [0.45, np.float64(0.45)])
    def test_coefficients_refuse_floats(self, beta):
        with pytest.raises(TypeError):
            coefficients(beta, 2)
        with pytest.raises(TypeError):
            asymptotic_coefficient_interval(beta, 2)

    def test_refuses_what_is_no_decomposition_under_python_O(self):
        # the checks are explicit raises, which python -O keeps
        code = (
            f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            "from fractions import Fraction\n"
            "from bandgraph.bounds import BetaDecomposition\n"
            "print(__debug__)\n"
            f"for beta, q, r, regime in {[args for args, _ in BAD_DECOMPOSITIONS]!r}:\n"
            "    try:\n"
            "        BetaDecomposition(Fraction(beta), q, Fraction(r), regime)\n"
            "        print('constructed')\n"
            "    except ValueError as e:\n"
            "        print(e)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        debug, *refusals = proc.stdout.splitlines()
        assert debug == "False"
        assert len(refusals) == len(BAD_DECOMPOSITIONS)
        for line, (_, message) in zip(refusals, BAD_DECOMPOSITIONS):
            assert message in line

    @settings(max_examples=300, deadline=None)
    @given(
        st.fractions(
            min_value=Fraction(1, 500), max_value=Fraction(1, 2), max_denominator=500
        )
    )
    def test_decomposition_identity(self, beta):
        dec = beta_decomposition(beta)
        assert dec.q >= 2
        assert 0 <= dec.r < beta
        assert dec.q * beta + dec.r == 1
        threshold = Fraction(dec.q - 1, dec.q * dec.q + dec.q - 1)
        assert dec.regime == ("low" if dec.r <= threshold else "high")
        # the equivalent low-regime conditions agree
        gamma = beta * (1 - Fraction(1, dec.q))
        assert (dec.r <= threshold) == (dec.r <= gamma)


class TestCoefficients:
    def test_pinned_9_20(self):
        co = coefficients(Fraction(9, 20), 2)
        assert co.c1 == Fraction(243, 1600)
        assert co.c2 == Fraction(93, 800)
        assert co.gamma == Fraction(9, 40)

    def test_pinned_7_20(self):
        co = coefficients(Fraction(7, 20), 2)
        assert co.c2 == Fraction(77, 800)
        assert co.c3 == Fraction(1, 1200)
        assert co.c2 / co.c3 == Fraction(231, 2)
        lo, hi = asymptotic_coefficient_interval(Fraction(7, 20), 2)
        assert (lo, hi) == (Fraction(29, 300), Fraction(233, 2400))

    def test_pinned_1_2(self):
        assert coefficients(Fraction(1, 2), 2).c1 == Fraction(3, 16)

    def test_low_regime_interval_collapses(self):
        for beta in (Fraction(9, 20), Fraction(1, 3), Fraction(2, 5)):
            for k in (2, 3, 4):
                lo, hi = asymptotic_coefficient_interval(beta, k)
                assert lo == hi == coefficients(beta, k).c1

    def test_high_regime_interval_ordered(self):
        for beta in (Fraction(7, 20), Fraction(13, 50), Fraction(9, 26)):
            for k in (2, 3, 4, 5):
                assert beta_decomposition(beta).regime == "high"
                lo, hi = asymptotic_coefficient_interval(beta, k)
                assert lo < hi
                co = coefficients(beta, k)
                assert hi == co.c2 + co.c3
                assert lo == max(co.c1, co.c2 + co.c3 / beta_decomposition(beta).q ** (k - 1))

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            coefficients(Fraction(1, 3), 1)

    @settings(max_examples=200, deadline=None)
    @given(
        st.fractions(
            min_value=Fraction(1, 97), max_value=Fraction(1, 2), max_denominator=97
        ),
        st.integers(min_value=2, max_value=6),
    )
    def test_positivity_and_scale(self, beta, k):
        co = coefficients(beta, k)
        assert co.c1 > 0 and co.c2 > 0 and co.c3 >= 0
        # the band measure beta^(k-1)(k-(k-1)beta)/k! dominates c1
        band_mu = beta ** (k - 1) * (k - (k - 1) * beta) / Fraction(math.factorial(k))
        assert co.c1 < band_mu


class TestFiniteBounds:
    @pytest.mark.parametrize(
        "n,k,b,value",
        [
            (2, 2, 2, 2),  # K3
            (5, 2, 4, 9),  # |V|=14, |C|=6
            (4, 2, 3, 5),  # |V|=9, |C|=3
        ],
    )
    def test_large_b_pins(self, n, k, b, value):
        p = Params(n=n, k=k, b=b)
        assert exact_bandwidth_large_b(p) == value
        m, c = vertex_count_formula(p), central_count(p)
        assert value == -((m + c - 2) // -2)

    def test_large_b_refuses_empty_central_set(self):
        # 2b = n+k-2: one short of the first central vertex
        with pytest.raises(ValueError, match="central set is empty"):
            exact_bandwidth_large_b(Params(n=10, k=2, b=5))

    def test_central_lower_bound_equals_value(self):
        for n, k, b in [(4, 2, 3), (5, 2, 4), (6, 3, 5), (7, 4, 6), (9, 2, 6)]:
            p = Params(n=n, k=k, b=b)
            assert central_count(p) > 0
            assert central_lower_bound(p) == exact_bandwidth_large_b(p)

    def test_density_bound_formula(self):
        p = Params(n=10, k=2, b=3)
        m = vertex_count_formula(p)
        assert density_lower_bound(p) == -((m - 1) // -diameter(p))
        assert density_lower_bound(p) == 6

    def test_lex_upper_bound_value(self):
        assert lex_upper_bound_value(Params(n=50, k=2, b=3)) == 6
        assert lex_upper_bound_value(Params(n=100, k=3, b=4)) == 12
        assert lex_upper_bound_value(Params(n=9, k=2, b=9)) == 2 * comb0(9, 2)

    def test_bounds_sandwich_exact_value(self):
        # density lower <= exact (large-b formula) <= lex upper when central
        for n in range(2, 12):
            for k in (2, 3):
                if k > n:
                    continue
                for b in range(max(k, -(-(n + k - 1) // 2)), n + 1):
                    p = Params(n=n, k=k, b=b)
                    exact = exact_bandwidth_large_b(p)
                    assert density_lower_bound(p) <= exact <= lex_upper_bound_value(p)


class TestUnresolvedMeasure:
    def test_partial_sums(self):
        assert unresolved_beta_measure(2) == Fraction(1, 15)
        assert unresolved_beta_measure(3) == Fraction(1, 15) + Fraction(1, 44)
        assert unresolved_beta_measure(4) == (
            Fraction(1, 15) + Fraction(1, 44) + Fraction(1, 95)
        )

    def test_terms_are_interval_lengths(self):
        # the q-th term is q/(q^2+q-1) - 1/(q+1)
        for q_max in range(2, 8):
            direct = sum(
                Fraction(q, q * q + q - 1) - Fraction(1, q + 1)
                for q in range(2, q_max + 1)
            )
            assert unresolved_beta_measure(q_max) == direct

    def test_monotone_and_bounded(self):
        prev = Fraction(0)
        for q_max in range(2, 40):
            cur = unresolved_beta_measure(q_max)
            assert cur > prev
            prev = cur
        assert cur < Fraction(12, 100)

    def test_large_partial_sum_pin(self):
        val = unresolved_beta_measure(10**4)
        assert Fraction(1185, 10000) < val < Fraction(1195, 10000)

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            unresolved_beta_measure(1)
