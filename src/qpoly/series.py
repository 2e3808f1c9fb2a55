"""Truncated formal power series over ParamPoly coefficients.

This is the second, independent computation path for the families: their
exponential generating functions are expanded here with exact arithmetic
and compared coefficient by coefficient against the closed forms. They
are built in the EGF basis, as integer rows A_{n,j} = n! [t^n] S_j: an
EGF product is a binomial convolution (L. Comtet, Advanced Combinatorics,
1974, ch. 3), so row n follows from the rows below it in integers. A_{n,j}
has degree n - j in (rho, z), a dense row as in families._t_rows. Each
row, and its t-basis twin divided by n!, is cached per (family, n).

The weighted Stirling columns are built the same way. TruncSeries, the
builders' return type, and series_compose serve library callers.
Order-N truncation is exact because every composition argument has zero
constant term, so no discarded term can feed back into a kept one.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .core import ParamPoly, _div
from .families import FAMILIES, _add_product, _from_rows, specialize

__all__ = [
    "NonZeroConstantTerm",
    "TruncSeries",
    "egf_coefficient",
    "family_gf",
    "family_gf_t",
    "gf_poly_bernoulli",
    "gf_poly_cauchy1",
    "gf_poly_cauchy2",
    "gf_weighted_stirling",
    "series_compose",
]


class NonZeroConstantTerm(ValueError):
    """A composition argument has a nonzero constant term."""


class TruncSeries:
    """Power series in t truncated at a fixed order.

    A product of two series has the smaller of the two orders, so a result
    never claims coefficients that were not actually computed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs: tuple[ParamPoly, ...] = tuple(
            c if isinstance(c, ParamPoly) else ParamPoly.const(c)
            for c in coeffs)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls([ParamPoly.const(1)] + [ParamPoly.zero()] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> ParamPoly:
        if not 0 <= i <= self.order:
            raise IndexError("coefficient beyond truncation order")
        return self.coeffs[i]

    def __repr__(self) -> str:
        return "TruncSeries(order=%d)" % self.order

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TruncSeries([
            ParamPoly.sum_of_products((a[i], b[s - i]) for i in range(s + 1))
            for s in range(min(self.order, other.order) + 1)])


def series_compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner(t)), requiring inner to have zero constant term."""
    if not inner.coeffs[0].is_zero():
        raise NonZeroConstantTerm("composition argument must vanish at t=0")
    n = min(outer.order, inner.order)
    # powers, not Horner's rule: inner^j starts at t^j and a zero coefficient
    # adds no product (7x faster than Horner for exp at order 12)
    powers = [TruncSeries.one(n)]
    for _ in range(n):
        powers.append(powers[-1] * inner)
    return TruncSeries([
        ParamPoly.sum_of_products((p.coeffs[s], c)
                                  for p, c in zip(powers, outer.coeffs))
        for s in range(n + 1)])


def egf_coefficient(series: TruncSeries, n: int) -> ParamPoly:
    """n! times the t^n coefficient."""
    return series.coefficient(n).scale(factorial(n))


# ---------------------------------------------------------------------------
# generating functions


def _divexact(row: list, d: int) -> list:
    """row / d for an integer row that d divides entry by entry."""
    if any(c % d for c in row):
        raise ArithmeticError("%r is not divisible by %d" % (row, d))
    return [c // d for c in row]


@lru_cache(maxsize=None)
def _gf_row(family: str, n: int) -> tuple:
    """The integer EGF row n, A_{n,j} = n! [t^n] S_j for j <= n, from the
    cached rows below it by binomial convolutions; in its dense row a rho
    power moves no index and a factor z moves each up by one. S_j is
    S_{j-1} times the series with A_m = weight[m] rho^(m-1): w = (1 -
    e^(-rho t))/rho for the Bernoulli type, v = +-log(1 + rho t)/rho over j
    for the Cauchy types. Rows are read in ascending order, so each is
    cached before the next reads it and the recursion is two calls deep."""
    rows = [_gf_row(family, i) for i in range(n)]
    if family == "polyBernoulli":
        weight = [1 if m % 2 else -1 for m in range(n + 1)]
        head = [0] * n + [-1 if n % 2 else 1]   # e^(-z t)
    else:
        sign = 1 if family == "polyCauchy1" else -1
        weight = [(sign if m % 2 else -sign) * factorial(m - 1) if m else 0
                  for m in range(n + 1)]
        # E = exp(-z v) has E' = -z v' E, and v' has the EGF coefficients
        # A_{m+1}(v), so row n of E convolves the rows below it
        head = [0] * (n + 1) if n else [1]
        for i in range(n):
            _add_product(head, (0, 1), rows[n - 1 - i][0],
                         -comb(n - 1, i) * weight[i + 1])
    out = [tuple(head)]
    for j in range(1, n + 1):
        # S_{j-1} starts at t^(j-1), w and v at t^1
        a = [0] * (n - j + 1)
        for i in range(j - 1, n):
            _add_product(a, (1,), rows[i][j - 1], comb(n, i) * weight[n - i])
        out.append(tuple(a if family == "polyBernoulli" else _divexact(a, j)))
    return tuple(out)


@lru_cache(maxsize=None)
def _gf_t_row(family: str, n: int) -> tuple:
    """The integer row n divided by n!: [t^n] S_j for j <= n."""
    return _from_rows(_gf_row(family, n), n, factorial(n))


def family_gf_t(family: str, order: int) -> tuple:
    """The family's generating function sum_j t_j S_j in the t-basis, with
    q-free S_j: w^j e^(-z t) for the Bernoulli type, v^j/j! exp(-z v) with
    v = u and v = -u for the Cauchy types (see gf_poly_*). Entry n, for
    n <= order, holds [t^n] S_j for j <= n (S_j starts at t^j): the integer
    row A_{n,j} = n! [t^n] S_j divided by n!, both cached per (family, n)."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    if order < 0:
        raise ValueError("order must be nonnegative")
    return tuple(_gf_t_row(family, n) for n in range(order + 1))


def family_gf(family: str, k: int, order: int) -> TruncSeries:
    """family_gf_t specialized at depth k, truncated at order."""
    return TruncSeries([specialize(c, k) for c in family_gf_t(family, order)])


def gf_poly_bernoulli(k: int, order: int) -> TruncSeries:
    """Exponential generating function of the Bernoulli-type family.

    With w = (1 - e^(-rho t))/rho this is

        [ sum_{j>=0} w^j / [j+1]_q^k ] * e^(-z t)

    where the bracket is the k-th q-polylogarithm of w divided by w,
    expanded pole-free.
    """
    return family_gf("polyBernoulli", k, order)


def gf_poly_cauchy1(k: int, order: int) -> TruncSeries:
    """Exponential generating function of the first Cauchy-type family:
    with u = log(1 + rho t)/rho, (1 + rho t)^(-z/rho) * sum_{j>=0} u^j /
    (j! [j+1]_q^k). The prefactor is realized as exp(-z u), which keeps
    every coefficient polynomial in rho and z."""
    return family_gf("polyCauchy1", k, order)


def gf_poly_cauchy2(k: int, order: int) -> TruncSeries:
    """Exponential generating function of the second Cauchy-type family:
    the mirror of the first kind, exp(z u) times the sum over (-u)^j."""
    return family_gf("polyCauchy2", k, order)


def gf_weighted_stirling(kind: str, m: int, order: int) -> TruncSeries:
    """Generating function of one weighted Stirling column, weight x in
    the z slot: e^(x t)(e^t - 1)^m / m! for the second kind and
    (1-t)^(-x) (-log(1-t))^m / m! for the first, in the EGF basis: column
    j is column j-1 times the base (EGF coefficients 1 or (i-1)! past t^0)
    over j, and the front's row n is x^n or x(x+1)...(x+n-1)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < m:
        raise ValueError("order must be at least m")
    if kind not in ("first", "second"):
        raise ValueError("kind must be 'first' or 'second'")
    first = kind == "first"
    base = [factorial(i - 1) if first else 1 for i in range(1, order + 1)]
    column = [1] + [0] * order
    for j in range(1, m + 1):     # base[i - 1] is EGF coefficient i
        column = [sum(comb(n, i) * column[i] * base[n - i - 1]
                      for i in range(n)) // j for n in range(order + 1)]
    front = [[1]]                 # int lists in x, ascending
    for n in range(order):
        front.append([])
        _add_product(front[-1], (n if first else 0, 1), front[-2])
    coeffs = []
    for n in range(order + 1):
        acc, scale = [], factorial(n)
        for i in range(n - m + 1):
            _add_product(acc, (comb(n, i) * column[n - i],), front[i])
        coeffs.append(ParamPoly._raw({(0, b, 0): _div(c, scale)
                                      for b, c in enumerate(acc) if c}))
    return TruncSeries(coeffs)
