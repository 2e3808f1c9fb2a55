"""Truncated formal power series over ParamPoly coefficients.

This is the second, independent computation path for the families: their
exponential generating functions are expanded here with exact arithmetic
and compared coefficient by coefficient against the closed forms. Order-N
truncation is exact because every composition argument has zero constant
term, so no discarded term can feed back into a kept one.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .core import ParamPoly, _power
from .families import FAMILIES, specialize

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
    "series_exp",
]


class NonZeroConstantTerm(ValueError):
    """Composition or exponential argument has a nonzero constant term."""


def _coerce_coeff(c) -> ParamPoly:
    if isinstance(c, ParamPoly):
        return c
    return ParamPoly.const(c)


class TruncSeries:
    """Power series in t truncated at a fixed order.

    A product of two series has the smaller of the two orders, so a result
    never claims coefficients that were not actually computed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        if not coeffs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs: tuple[ParamPoly, ...] = tuple(_coerce_coeff(c) for c in coeffs)

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

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        return "TruncSeries(order=%d)" % self.order

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        return TruncSeries([
            ParamPoly.sum_of_products((a[i], b[s - i]) for i in range(s + 1))
            for s in range(min(self.order, other.order) + 1)])

    def __pow__(self, exponent: int) -> "TruncSeries":
        if exponent < 0:
            raise ValueError("negative series power")
        return _power(self, exponent, TruncSeries.one(self.order))

    def scale(self, c) -> "TruncSeries":
        factor = _coerce_coeff(c)
        return TruncSeries([coeff * factor for coeff in self.coeffs])


def series_compose(outer: TruncSeries, inner: TruncSeries) -> TruncSeries:
    """outer(inner(t)), requiring inner to have zero constant term."""
    if not inner.coeffs[0].is_zero():
        raise NonZeroConstantTerm("composition argument must vanish at t=0")
    n = min(outer.order, inner.order)
    # powers, not Horner's rule: inner^j starts at t^j and a zero coefficient
    # adds no product (7x faster than Horner for series_exp at order 12)
    powers = [TruncSeries.one(n)]
    for _ in range(n):
        powers.append(powers[-1] * inner)
    return TruncSeries([
        ParamPoly.sum_of_products((p.coeffs[s], c)
                                  for p, c in zip(powers, outer.coeffs))
        for s in range(n + 1)])


def series_exp(f: TruncSeries) -> TruncSeries:
    """exp(f) for f with zero constant term (series_compose checks it)."""
    n = f.order
    outer = TruncSeries([ParamPoly.const(Fraction(1, factorial(i)))
                         for i in range(n + 1)])
    return series_compose(outer, f)


def egf_coefficient(series: TruncSeries, n: int) -> ParamPoly:
    """n! times the t^n coefficient."""
    return series.coefficient(n).scale(factorial(n))


# ---------------------------------------------------------------------------
# generating functions


def _rho_argument(order: int, den) -> TruncSeries:
    """sum_{n>=1} (-1)^(n-1) rho^(n-1) t^n / den(n). With den(n) = n! this
    is (1 - e^(-rho t)) / rho; with den(n) = n it is log(1 + rho t) / rho."""
    coeffs = [ParamPoly.zero()]
    for n in range(1, order + 1):
        c = Fraction(1 if n % 2 else -1, den(n))
        coeffs.append(ParamPoly.monomial(c, rho=n - 1))
    return TruncSeries(coeffs)


def _exp_linear(order: int, sign: int) -> TruncSeries:
    """exp(sign * z * t): t^n picks z^n sign^n / n!."""
    return TruncSeries([ParamPoly.monomial(Fraction(sign ** n, factorial(n)),
                                           z=n)
                        for n in range(order + 1)])


# family -> its generating function's t^n coefficients in the t-basis, up
# to the largest order built; they do not depend on the truncation order
_GF_T: dict[str, tuple] = {}


def family_gf_t(family: str, order: int) -> tuple:
    """The family's generating function sum_j t_j S_j in the t-basis, with
    q-free S_j: w^j e^(-z t) for the Bernoulli type, v^j/j! exp(-z v) with
    v = u and v = -u for the Cauchy types (see gf_poly_*). Entry n holds
    [t^n] S_j for j <= n (S_j starts at t^j); entries may run past order."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = _GF_T.get(family, ())
    if len(coeffs) <= order:
        bernoulli = family == "polyBernoulli"
        if bernoulli:
            arg = _rho_argument(order, factorial)
            power = _exp_linear(order, -1)
        else:
            arg = _rho_argument(order, lambda n: n)
            arg = arg if family == "polyCauchy1" else -arg
            power = series_exp(arg.scale(ParamPoly.monomial(-1, z=1)))
        series = [power]
        for j in range(1, order + 1):
            power = power * arg if bernoulli else (
                (power * arg).scale(Fraction(1, j)))
            series.append(power)
        coeffs = _GF_T[family] = tuple(
            tuple(s.coeffs[n] for s in series[:n + 1])
            for n in range(order + 1))
    return coeffs


def family_gf(family: str, k: int, order: int) -> TruncSeries:
    """family_gf_t specialized at depth k, truncated at order."""
    return TruncSeries([specialize(c, k)
                        for c in family_gf_t(family, order)[:order + 1]])


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
    """Generating function of one weighted Stirling column, weight in the
    z slot: e^(x t)(e^t - 1)^m / m! for the second kind and
    (1-t)^(-x) (-log(1-t))^m / m! for the first."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if order < m:
        raise ValueError("order must be at least m")
    if kind == "second":
        base = TruncSeries([ParamPoly.zero()]
                           + [ParamPoly.const(Fraction(1, factorial(i)))
                              for i in range(1, order + 1)])
        front = _exp_linear(order, 1)
    elif kind == "first":
        base = TruncSeries([ParamPoly.zero()]
                           + [ParamPoly.const(Fraction(1, i))
                              for i in range(1, order + 1)])
        front = series_exp(base.scale(ParamPoly.monomial(1, z=1)))
    else:
        raise ValueError("kind must be 'first' or 'second'")
    column = (base ** m).scale(Fraction(1, factorial(m)))
    return front * column
