"""Closed-form bandwidth values, bounds, and asymptotic coefficients.

Two regimes matter.  When the band is wide (2b >= n+k-1) the central
set is nonempty and the bandwidth is exactly ceil((|V|+|C|-2)/2):
the central lower bound meets the mirror numbering's upper bound.
When b ~ beta*n with beta in (0, 1/2], write 1 = q*beta + r with
q = floor(1/beta) >= 2 and 0 <= r < beta.  The growth of the bandwidth
is governed by the coefficients

    c1 = beta^k/k! * (k - (k-1)/q)
    c2 = beta^(k-1)/((q+1) k!) * (k - (k-1) beta)
    c3 = (beta-r)^k/((q+1) k!) * q^(k-1)

of n^k: for small remainder (r <= (q-1)/(q^2+q-1)) the bandwidth is
asymptotically c1*n^k; for large remainder only the sandwich
[max(c1, c2 + c3/q^(k-1)), c2 + c3] is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core_graph import Params, central_count, comb0, diameter, vertex_count_formula

__all__ = [
    "BetaDecomposition",
    "Coefficients",
    "beta_decomposition",
    "exact_fraction",
    "exact_bandwidth_large_b",
    "central_lower_bound",
    "lex_upper_bound_value",
    "density_lower_bound",
    "coefficients",
    "asymptotic_coefficient_interval",
    "unresolved_beta_measure",
]


@dataclass(frozen=True)
class BetaDecomposition:
    """beta in (0, 1/2] split as 1 = q*beta + r, with the regime label.

    regime is "low" when r <= (q-1)/(q^2+q-1) (remainder small enough
    that the fan apexes clear the band; exact asymptotics known) and
    "high" otherwise (bounds only).  Fields that are no such split, or a
    label that q and r do not give, raise ``ValueError``.
    """

    beta: Fraction
    q: int
    r: Fraction
    regime: str

    def __post_init__(self) -> None:
        if self.q * self.beta + self.r != 1:
            raise ValueError(f"q*beta + r must be 1, got {self.q}*{self.beta} + {self.r}")
        if not 0 <= self.r < self.beta:
            raise ValueError(f"r must lie in [0, beta), got r={self.r}, beta={self.beta}")
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        want = _regime(self.q, self.r)
        if self.regime != want:
            raise ValueError(f"regime of q={self.q}, r={self.r} is {want!r}, got {self.regime!r}")


def _regime(q: int, r: Fraction) -> str:
    """The regime label of 1 = q*beta + r, as ``BetaDecomposition`` states
    it: r <= (q-1)/(q^2+q-1), compared in ints."""
    return "low" if r.numerator * (q * q + q - 1) <= (q - 1) * r.denominator else "high"


def exact_fraction(x: Fraction | int | str) -> Fraction:
    """``Fraction(x)``, refusing a float: no float may take part in a
    decision.  numpy's float64 is a float; its other floats are not
    Rational, and ``Fraction`` refuses them too."""
    if isinstance(x, float):
        raise TypeError(f"exact arithmetic takes an int, a Fraction or a string, got {x!r}")
    return Fraction(x)


def beta_decomposition(beta: BetaDecomposition | Fraction | int | str) -> BetaDecomposition:
    """Decompose beta in (0, 1/2] as 1 = q*beta + r and classify the regime;
    a decomposition is returned as it is."""
    if isinstance(beta, BetaDecomposition):
        return beta
    beta = exact_fraction(beta)
    if not 0 < beta <= Fraction(1, 2):
        raise ValueError(f"beta must lie in (0, 1/2], got {beta}")
    q = int(Fraction(1) / beta)  # floor, exact for integral 1/beta
    r = 1 - q * beta
    return BetaDecomposition(beta=beta, q=q, r=r, regime=_regime(q, r))


@dataclass(frozen=True)
class Coefficients:
    c1: Fraction
    c2: Fraction
    c3: Fraction
    gamma: Fraction  # beta * (1 - 1/q), the quadrangle width on the diagonal


def coefficients(beta: BetaDecomposition | Fraction | int | str, k: int) -> Coefficients:
    """The exact rational growth coefficients for given beta (or its
    decomposition) and k >= 2."""
    if k < 2:
        raise ValueError("coefficients need k >= 2")
    dec = beta_decomposition(beta)
    beta, q, r = dec.beta, dec.q, dec.r
    kf = math.factorial(k)
    c1 = beta**k / Fraction(kf) * (k - Fraction(k - 1, q))
    c2 = beta ** (k - 1) / Fraction((q + 1) * kf) * (k - (k - 1) * beta)
    c3 = (beta - r) ** k / Fraction((q + 1) * kf) * q ** (k - 1)
    gamma = beta * (1 - Fraction(1, q))
    return Coefficients(c1=c1, c2=c2, c3=c3, gamma=gamma)


def asymptotic_coefficient_interval(
    beta: BetaDecomposition | Fraction | int | str, k: int
) -> tuple[Fraction, Fraction]:
    """(lower, upper) coefficients of n^k bounding the bandwidth growth,
    for given beta (or its decomposition).

    In the low-remainder regime the interval collapses to (c1, c1).
    """
    dec = beta_decomposition(beta)
    co = coefficients(dec, k)
    if dec.regime == "low":
        return co.c1, co.c1
    return max(co.c1, co.c2 + co.c3 / dec.q ** (k - 1)), co.c2 + co.c3


# ── finite-n values and bounds ────────────────────────────────────────


def exact_bandwidth_large_b(p: Params) -> int:
    """Exact bandwidth ceil((|V|+|C|-2)/2), valid when 2b >= n+k-1.

    The value is both a lower bound (any numbering stretches an edge at
    a central vertex this far) and the bandwidth of the mirror
    numbering, hence exact.  ``central_lower_bound`` refuses the empty
    central set, C(2b-n+1, k) = 0, which is the case 2b < n+k-1.
    """
    return central_lower_bound(p)


def central_lower_bound(p: Params) -> int:
    """Lower bound ceil((|V|+|C|-2)/2) from the all-adjacent central set."""
    if central_count(p) == 0:
        raise ValueError("central set is empty (2b < n+k-1); bound not applicable")
    total = vertex_count_formula(p) + central_count(p) - 2
    return -(total // -2)


def lex_upper_bound_value(p: Params) -> int:
    """Upper bound k*C(b,k) achieved by the lexicographic numbering."""
    return p.k * comb0(p.b, p.k)


def density_lower_bound(p: Params) -> int:
    """Classical lower bound ceil((|V|-1)/diam)."""
    return -((vertex_count_formula(p) - 1) // -diameter(p))


# ── measure of the betas with unresolved asymptotics ──────────────────


def unresolved_beta_measure(q_max: int) -> Fraction:
    """Partial sum of sum_{q=2}^{q_max} (q/(q^2+q-1) - 1/(q+1)), exact.

    The q-th term is the length of the high-remainder interval
    (1/(q+1), q/(q^2+q-1)) of betas where only bandwidth bounds are
    known; it simplifies to 1/((q^2+q-1)(q+1)).  The tail past q_max is
    below sum 1/q^2 < 1/q_max.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")

    def total(lo: int, hi: int) -> Fraction:
        # pairwise summation keeps intermediate denominators balanced
        if hi - lo == 1:
            return Fraction(1, (lo * lo + lo - 1) * (lo + 1))
        mid = (lo + hi) // 2
        return total(lo, mid) + total(mid, hi)

    return total(2, q_max + 1)
