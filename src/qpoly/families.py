"""Closed forms for the three polynomial families.

All three are polynomials in (rho, z) whose coefficients are rational
functions of q, built from weighted Stirling sums:

    bernoulli  B_n(z) = sum_m S2(n, m, z/rho) (-rho)^(n-m) m! / [m+1]_q^k
    cauchy 1   c_n(z) = sum_m S1(n, m, z/rho) (-rho)^(n-m)    / [m+1]_q^k
    cauchy 2   g_n(z) = (-1)^n sum_m S1(n, m, -z/rho) rho^(n-m) / [m+1]_q^k

k may be any integer. The first-kind Cauchy family also admits a double
sum over unweighted first-kind numbers, kept here as an independent
cross-check path; likewise for the second kind.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .core import ParamPoly, eval_at_q1, q_number_power_inverse
from .stirling import (
    stirling1,
    substitute_weight,
    weighted_stirling1,
    weighted_stirling2,
)

__all__ = [
    "FAMILIES",
    "classical_number",
    "family_value",
    "poly_bernoulli",
    "poly_cauchy1",
    "poly_cauchy1_double_sum",
    "poly_cauchy2",
    "poly_cauchy2_double_sum",
]

FAMILIES = ("polyBernoulli", "polyCauchy1", "polyCauchy2")


def _check_args(n: int, k: int, slot: str) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not isinstance(k, int):
        raise TypeError("k must be an integer")
    if slot not in ("z", "y"):
        raise ValueError("slot must be 'z' or 'y'")


def _stirling_sum(table, weight: int, times_factorial: bool,
                  sign_by_m: bool, n: int, k: int, slot: str) -> ParamPoly:
    """sum_m sign * table(n, m, weight * v/rho) [* m!] / [m+1]_q^k, with v
    the slot variable and sign (-1)^(n-m) if sign_by_m, else (-1)^n.

    Each family looks its table up by name when it is called, so a later
    rebinding of that name (as perfbench's tracer does) is seen here too.
    """
    _check_args(n, k, slot)
    total = ParamPoly.zero()
    for m in range(n + 1):
        c = q_number_power_inverse(m, k)
        if times_factorial:
            c = c * Fraction(factorial(m))
        if (n - m if sign_by_m else n) % 2:
            c = -c
        term = substitute_weight(table(n, m), weight, slot)
        total = total + term.scale(c)
    return total


@lru_cache(maxsize=None)
def poly_bernoulli(n: int, k: int, slot: str = "z") -> ParamPoly:
    """Weighted second-kind Stirling sum for the Bernoulli-type family."""
    return _stirling_sum(weighted_stirling2, 1, True, True, n, k, slot)


@lru_cache(maxsize=None)
def poly_cauchy1(n: int, k: int, slot: str = "z") -> ParamPoly:
    """Weighted first-kind Stirling sum for the first Cauchy-type family."""
    return _stirling_sum(weighted_stirling1, 1, False, True, n, k, slot)


@lru_cache(maxsize=None)
def poly_cauchy2(n: int, k: int, slot: str = "z") -> ParamPoly:
    """Weighted first-kind Stirling sum for the second Cauchy-type family,
    with the weight taken at -z/rho and a global (-1)^n."""
    return _stirling_sum(weighted_stirling1, -1, False, False, n, k, slot)


def _double_sum(n: int, k: int, sign_by_m: bool) -> ParamPoly:
    """sign * sum_m S1(n, m) rho^(n-m) sum_i C(m, i) (-z)^i / [m-i+1]_q^k,
    with sign (-1)^(n-m) inside the m sum if sign_by_m, else (-1)^n.

    It reads the plain, unweighted first-kind numbers, so it stays an
    independent check of the weighted-table closed forms.
    """
    _check_args(n, k, "z")
    pairs = []
    for m in range(n + 1):
        s = stirling1(n, m)
        outer = Fraction(-s if (n - m if sign_by_m else n) % 2 else s)
        for i in range(m + 1):
            c = outer * comb(m, i)
            if i % 2:
                c = -c
            pairs.append(((n - m, i, 0), q_number_power_inverse(m - i, k) * c))
    return ParamPoly._collect(pairs)


def poly_cauchy1_double_sum(n: int, k: int) -> ParamPoly:
    """Independent double-sum form of the first Cauchy-type family:

        sum_m S1(n, m) (-rho)^(n-m) sum_i C(m, i) (-z)^i / [m-i+1]_q^k
    """
    return _double_sum(n, k, True)


def poly_cauchy2_double_sum(n: int, k: int) -> ParamPoly:
    """Independent double-sum form of the second Cauchy-type family:

        (-1)^n sum_m S1(n, m) rho^(n-m) sum_i C(m, i) (-z)^i / [m-i+1]_q^k
    """
    return _double_sum(n, k, False)


def family_value(family: str, n: int, k: int, slot: str = "z") -> ParamPoly:
    if family == "polyBernoulli":
        return poly_bernoulli(n, k, slot)
    if family == "polyCauchy1":
        return poly_cauchy1(n, k, slot)
    if family == "polyCauchy2":
        return poly_cauchy2(n, k, slot)
    raise ValueError("unknown family %r" % family)


def classical_number(family: str, n: int, k: int) -> Fraction:
    """Exact value at z = 0, rho = 1, q -> 1."""
    v = family_value(family, n, k).substitute(rho=1, z=0, y=0)
    return eval_at_q1(v.constant_term())
