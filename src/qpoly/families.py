"""Closed forms for the three polynomial families.

All three are polynomials in (rho, z) whose coefficients are rational
functions of q, built from weighted Stirling sums:

    bernoulli  B_n(z) = sum_m S2(n, m, z/rho) (-rho)^(n-m) m! / [m+1]_q^k
    cauchy 1   c_n(z) = sum_m S1(n, m, z/rho) (-rho)^(n-m)    / [m+1]_q^k
    cauchy 2   g_n(z) = (-1)^n sum_m S1(n, m, -z/rho) rho^(n-m) / [m+1]_q^k

k may be any integer. q and k enter only through the scalars
t_m = [m+1]_q^(-k), so each value is built once in the t-basis, as q-free
polynomials P_{n,m}(rho, z) with value sum_m t_m P_{n,m}, and `specialize`
binds the t_m at one k. A relation linear in the family values that holds
with the t_m formal holds for every k and q.

P_{n,m} has degree n - m in (rho, z), so `_t_rows` holds it as a dense
row of ints, built from row n of the weighted Stirling triangle
(stirling._weighted_row), read once per n rather than entry by entry. The
identities and the gf rows work on such rows, with one kernel,
`_add_product`; `family_t` is their ParamPoly view (`_from_rows`). The
tests check these rows against the Cauchy double sums over the usual S1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence

from .core import (_QP_ONE, ParamPoly, QPoly, QRat, _div, _exact,
                   q_number_power_inverse)
from .stirling import _signed_weight, _weighted_row

__all__ = [
    "FAMILIES",
    "classical_number",
    "family_t",
    "family_value",
    "poly_bernoulli",
    "poly_cauchy1",
    "poly_cauchy2",
    "specialize",
]

FAMILIES = ("polyBernoulli", "polyCauchy1", "polyCauchy2")


@lru_cache(maxsize=None)
def _t_rows(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The q-free layer's one form: entry m is P_{n,m}(rho, z) as a dense
    row of n - m + 1 ints, index b the coefficient of rho^(n-m-b) z^b,
    built straight from the Stirling table."""
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % family)
    if n < 0:
        raise ValueError("n must be nonnegative")
    bernoulli, second = family == "polyBernoulli", family == "polyCauchy2"
    # S2 weights the Bernoulli family, S1 both Cauchy families
    table = _weighted_row(n, bernoulli)
    out = []
    for m in range(n + 1):
        c = factorial(m) if bernoulli else 1
        if (n if second else n - m) % 2:
            c = -c
        # the weight has n - m + 1 entries; its length check refuses more
        w = _signed_weight(table[m], n - m, -1 if second else 1)
        out.append(tuple(c * x for x in w))
    return tuple(out)


@lru_cache(maxsize=None)
def family_t(family: str, n: int) -> tuple[ParamPoly, ...]:
    """The family's value at order n in the t-basis: P_{n,m}(rho, z) is
    the m-th term of its closed form without the 1/[m+1]_q^k."""
    return _from_rows(_t_rows(family, n), n)


def _from_rows(rows, n: int, scale: int = 1) -> tuple[ParamPoly, ...]:
    """Dense rows holding scale times a t-value, as that t-value: entry j,
    of degree d = n - j, holds its rho^(d-b-c) z^b y^c term at c*(d+1) + b,
    a y-free one at b. Only a scale other than 1 divides, exactly."""
    if scale != 1:
        rows = [[_div(v, scale) for v in row] for row in rows]
    return tuple(ParamPoly._raw({(n - j - b - c, b, c): v
                                 for i, v in enumerate(row) if v
                                 for c, b in (divmod(i, n - j + 1),)})
                 for j, row in enumerate(rows))


def _add_product(acc: list, a, b, c: int = 1, stride: int = 1) -> None:
    """acc += c * a * b for coefficient lists, a product being their
    convolution with index i of a read at i * stride; acc grows to fit."""
    acc.extend([0] * ((len(a) - 1) * stride + len(b) - len(acc)))
    for i, x in enumerate(a):
        if x:
            x *= c
            for j, v in enumerate(b, i * stride):
                acc[j] += x * v


def specialize(tvalue: Sequence[ParamPoly], k: int) -> ParamPoly:
    """sum_m t_m tvalue[m] at t_m = [m+1]_q^(-k); the q-free tvalue's
    scalars become QRats here (a QRat in tvalue is a TypeError).

    Each t_m is looked up once, and an empty tvalue[m] is skipped, so a
    t-difference that vanishes looks none up."""
    if not isinstance(k, int):
        raise TypeError("k must be an integer")
    pairs = []
    for m, p in enumerate(tvalue):
        if not p.terms:
            continue
        t = q_number_power_inverse(m, k)
        # k >= 0: a nonzero constant over a monic q-number power is canonical
        over = t.num.coeffs == (1,)
        pairs += [(e, QRat._raw(QPoly._raw((_exact(c),)), t.den) if over
                   else QRat._raw(t.num * _exact(c), _QP_ONE))
                  for e, c in p.terms.items()]
    return ParamPoly._collect(pairs)


@lru_cache(maxsize=None)
def poly_bernoulli(n: int, k: int) -> ParamPoly:
    """Weighted second-kind Stirling sum for the Bernoulli-type family."""
    return specialize(family_t("polyBernoulli", n), k)


@lru_cache(maxsize=None)
def poly_cauchy1(n: int, k: int) -> ParamPoly:
    """Weighted first-kind Stirling sum for the first Cauchy-type family."""
    return specialize(family_t("polyCauchy1", n), k)


@lru_cache(maxsize=None)
def poly_cauchy2(n: int, k: int) -> ParamPoly:
    """Weighted first-kind Stirling sum for the second Cauchy-type family,
    with the weight taken at -z/rho and a global (-1)^n."""
    return specialize(family_t("polyCauchy2", n), k)


def family_value(family: str, n: int, k: int) -> ParamPoly:
    if family == "polyBernoulli":
        return poly_bernoulli(n, k)
    if family == "polyCauchy1":
        return poly_cauchy1(n, k)
    if family == "polyCauchy2":
        return poly_cauchy2(n, k)
    raise ValueError("unknown family %r" % family)


def classical_number(family: str, n: int, k: int) -> Fraction:
    """Exact value at z = 0, rho = 1, q -> 1."""
    v = family_value(family, n, k).at_q1().substitute(rho=1, z=0)
    return Fraction(v.constant_term())
