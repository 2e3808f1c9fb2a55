"""Exact arithmetic kernel: q-polynomials, q-rational functions and sparse
polynomials in (rho, z, y).

q is a formal indeterminate throughout this module. It is only ever bound
to a number inside eval_numeric (floats in (0, 1)) and QRat.eval_at_q1
(q = 1 exactly, as coefficient sums). Every value is immutable after
construction, so instances may be shared freely, including between threads.

A QPoly coefficient is an int when it is integral and a Fraction with
denominator > 1 otherwise; no float is ever stored. Every family value has
integral coefficients, so its arithmetic runs on plain ints. Divisions go
through _div, which is exact. A scalar product cross-cancels integer
numerators and denominators and builds a Fraction only for a non-integral
result. QPoly._raw trusts its input: trimmed, normalized coefficients.

A ParamPoly coefficient is either a q-free exact scalar (int or Fraction)
or a QRat. q and k enter the families only through t_m = [m+1]_q^(-k), so
the t-basis values, and every identity and generating-function difference
built from them, hold scalars and never touch QPoly or QRat; QRats appear
only where `families.specialize` binds the t_m.

Every accumulated sum of ParamPoly products is one call of
ParamPoly.sum_of_products, which collects all product terms in one pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "DenominatorVanishes",
    "ParamPoly",
    "QPoly",
    "QRat",
    "eval_numeric",
    "q_number",
    "q_number_power_inverse",
]

# Arbitrary-precision rational scalars. Stored coefficients are normalized
# by _exact: an integral value is an int, any other a Fraction (which keeps
# gcd(|numerator|, denominator) = 1 with denominator > 1).
Scalar = Union[int, Fraction]


class DenominatorVanishes(ZeroDivisionError):
    """A normalized denominator evaluates to zero at the requested point."""


def _exact(value: Scalar) -> Scalar:
    """value as a stored coefficient: an int if integral (a bool too), else
    a Fraction; anything inexact is a TypeError."""
    if type(value) is int:   # the common case skips the ABC check below
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError("expected an exact scalar, got %s" % type(value).__name__)


def _div(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b, normalized as _exact does."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        if not rem:
            return quot
    return _exact(Fraction(a, b))


# ---------------------------------------------------------------------------
# integer primitive-PRS gcd, used by QPoly.gcd. A zero, constant or shorter
# operand needs no case of its own: one remainder step ends or swaps it.


def _primitive(coeffs: Sequence[Scalar]) -> list[int]:
    """Clear denominators and divide out the integer content."""
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over the integers, made primitive."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while r and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[shift + i] -= lr * b[i]
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


class QPoly:
    """Dense polynomial in q over the rationals.

    The coefficient tuple is trimmed: the last entry is nonzero, and the
    zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    @classmethod
    def _raw(cls, coeffs: tuple) -> "QPoly":
        """Trusted constructor: coeffs already trimmed and normalized."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Scalar:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == QPoly([other]).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "QPoly(%r)" % (list(self.coeffs),)

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["QPoly", Scalar]) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _QP_ZERO
            if other == 1:
                return self
            # cross-cancel integer numerators and denominators (Knuth,
            # TAOCP 4.5.1); a nonzero scalar keeps the result trimmed
            sn, sd = other.as_integer_ratio()
            out = []
            for c in self.coeffs:
                if sd == 1 and type(c) is int:
                    out.append(c * sn)
                    continue
                cn, cd = c.as_integer_ratio()
                g, h = math.gcd(cn, sd), math.gcd(sn, cd)
                num, den = (cn // g) * (sn // h), (cd // h) * (sd // g)
                out.append(num if den == 1 else Fraction(num, den))
            return QPoly._raw(tuple(out))
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        # an empty operand leaves out empty or all zeros, which trim to 0
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QPoly":
        if exponent < 0:
            raise ValueError("negative power of a QPoly; use QRat")
        result = self if exponent else _QP_ONE
        for bit in bin(exponent)[3:]:   # square-and-multiply, high bit first
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def divexact(self, other: "QPoly") -> "QPoly":
        """Quotient of a division that must leave no remainder."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dn = other.degree
        lc = other.leading
        quot = [0] * max(len(r) - dn, 0)
        while r and len(r) - 1 >= dn:
            t = _div(r[-1], lc)
            d = len(r) - 1 - dn
            quot[d] = t
            for i, oc in enumerate(other.coeffs):
                r[d + i] -= t * oc
            while r and not r[-1]:
                r.pop()
        if r:
            raise ArithmeticError("inexact polynomial division")
        return QPoly(quot)

    def monic(self) -> "QPoly":
        # a product with the scalar 1 is self
        return self * _div(1, self.leading) if self.coeffs else self

    def evaluate(self, x):
        """Horner evaluation; works for Fraction and float arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def gcd(a: "QPoly", b: "QPoly") -> "QPoly":
        """Monic greatest common divisor over the rationals; 0 for two 0s."""
        a, b = _primitive(a.coeffs), _primitive(b.coeffs)
        while b:
            a, b = b, _prem(a, b)
        return QPoly(a).monic()


_QP_ZERO = QPoly()
_QP_ONE = QPoly([1])


def _as_qpoly(value: Union["QPoly", Scalar]) -> QPoly:
    if isinstance(value, QPoly):
        return value
    return QPoly([value])


class QRat:
    """Rational function in q, kept canonical at all times.

    Invariants: numerator and denominator are coprime, the denominator is
    monic and nonzero, and zero is stored as 0/1. Equality is therefore
    plain structural comparison.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Union[QPoly, Scalar] = 0,
                 den: Union[QPoly, Scalar] = 1) -> None:
        num = _as_qpoly(num)
        den = _as_qpoly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = _QP_ZERO
            self.den = _QP_ONE
            return
        # a constant shares no factor, so only q-dependent pairs can cancel
        if num.degree > 0 and den.degree > 0:
            g = QPoly.gcd(num, den)
            if g.degree > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        lc = den.leading
        if lc != 1:
            inv = _div(1, lc)
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: QPoly, den: QPoly) -> "QRat":
        """Trusted constructor: num/den already coprime with monic den."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QRat):
            if not isinstance(other, (int, Fraction, QPoly)):
                return NotImplemented
            other = _coerce_qrat(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self) -> str:
        return "QRat(%r, %r)" % (list(self.num.coeffs), list(self.den.coeffs))

    def __neg__(self) -> "QRat":
        return QRat._raw(-self.num, self.den)

    def __add__(self, other) -> "QRat":
        other = _coerce_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b == d:
            return QRat(a + c, b)
        return QRat(a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other) -> "QRat":
        other = _coerce_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "QRat":
        if isinstance(other, (int, Fraction)):
            # a nonzero scalar shares no factor with the denominator
            return QRat._raw(self.num * other, self.den) if other else _QR_ZERO
        other = _coerce_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def evaluate(self, q: Union[float, Fraction]):
        """Value at a float q, or exactly at a Fraction q."""
        d = _denominator_at(self.den, q)
        return self.num.evaluate(q) / d

    def eval_at_q1(self) -> Fraction:
        """Exact value at q = 1, each polynomial read as its coefficient sum."""
        d = sum(self.den.coeffs)
        if d == 0:
            raise DenominatorVanishes("denominator vanishes at q=1")
        return Fraction(sum(self.num.coeffs)) / d


def _denominator_at(den: QPoly, q):
    d = den.evaluate(q)
    if d == 0:
        raise DenominatorVanishes("denominator vanishes at q=%s" % q)
    return d


_QR_ZERO = QRat._raw(_QP_ZERO, _QP_ONE)


def _coerce_qrat(value):
    if isinstance(value, QRat):
        return value
    if isinstance(value, (int, Fraction)):
        value = QPoly([value])
    if isinstance(value, QPoly):
        return QRat._raw(value, _QP_ONE)
    return NotImplemented


def _coefficient(value) -> Scalar | QRat:
    """value as a ParamPoly coefficient: an exact scalar as _exact stores
    it, a QPoly lifted to a QRat; anything inexact is a TypeError."""
    if isinstance(value, (QRat, QPoly)):
        return _coerce_qrat(value)
    return _exact(value)


_EXPONENT_SLOTS = {"rho": 0, "z": 1, "y": 2}


class ParamPoly:
    """Sparse polynomial in (rho, z, y) with exact coefficients.

    Terms map exponent triples (e_rho, e_z, e_y) to nonzero coefficients,
    each a q-free scalar (int or Fraction) or a QRat (see the module
    docstring). sorted_terms hands every coefficient out as a QRat, while
    constant_term and coefficient return a QRat as stored and a scalar
    normalized by _exact (arithmetic may store an integral Fraction).

    The y slot is a second weight variable needed only by the mixed-weight
    identity checks; everywhere else its exponent stays 0. Instances are
    treated as immutable: all operations return new values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None) -> None:
        out: dict[tuple[int, int, int], Scalar | QRat] = {}
        if terms:
            for e, c in terms.items():
                c = _coefficient(c)
                if not c:
                    continue
                if len(e) != 3 or any(x < 0 for x in e):
                    raise ValueError("exponent key must be three nonnegative ints")
                out[(int(e[0]), int(e[1]), int(e[2]))] = c
        self.terms = out

    @classmethod
    def _raw(cls, terms: dict) -> "ParamPoly":
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def _collect(cls, pairs: Iterable,
                 terms: Mapping | tuple = ()) -> "ParamPoly":
        """Add (exponent, coefficient) pairs into a copy of terms by
        exponent. No zero coefficient is stored: a zero pair is skipped and
        a sum that cancels is dropped."""
        out = dict(terms)
        for e, c in pairs:
            acc = out.get(e)
            if acc is not None:
                c = acc + c
            if c:
                out[e] = c
            elif acc is not None:
                del out[e]
        return cls._raw(out)

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls._raw({})

    @classmethod
    def const(cls, value) -> "ParamPoly":
        c = _coefficient(value)
        return cls._raw({(0, 0, 0): c} if c else {})

    @classmethod
    def monomial(cls, coeff, rho: int = 0, z: int = 0, y: int = 0) -> "ParamPoly":
        c = _coefficient(coeff)
        if not c:
            return cls._raw({})
        if rho < 0 or z < 0 or y < 0:
            raise ValueError("negative exponent")
        return cls._raw({(rho, z, y): c})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0, 0)}

    def constant_term(self) -> Scalar | QRat:
        return self.coefficient()

    def coefficient(self, rho: int = 0, z: int = 0, y: int = 0) -> Scalar | QRat:
        c = self.terms.get((rho, z, y), 0)
        return c if isinstance(c, QRat) else _exact(c)

    def degree_in(self, name: str) -> int:
        """Largest exponent of the named variable; -1 for the zero value."""
        i = _EXPONENT_SLOTS[name]
        return max((e[i] for e in self.terms), default=-1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QRat)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # as a QRat, since a scalar equals the q-free QRat of its value
        return hash(frozenset(self.sorted_terms()))

    def __repr__(self) -> str:
        return "ParamPoly(%r)" % (self.terms,)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction, QRat)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return ParamPoly._collect(other.terms.items(), self.terms)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction, QRat)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction, QRat)):
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return ParamPoly.sum_of_products(((self, other),))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, pairs: Iterable) -> "ParamPoly":
        """sum of a * b over the (a, b) pairs, collected in one pass."""
        return cls._collect(
            ((e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2]), c1 * c2)
            for a, b in pairs
            for e1, c1 in a.terms.items()
            for e2, c2 in b.terms.items())

    def scale(self, coeff) -> "ParamPoly":
        c = _coefficient(coeff)
        if not c or not self.terms:
            return ParamPoly._raw({})
        return ParamPoly._raw({e: v * c for e, v in self.terms.items()})

    def substitute(self, rho: Scalar | None = None, z: Scalar | None = None,
                   y: Scalar | None = None) -> "ParamPoly":
        """Exact substitution of rational values for any subset of variables."""
        vals = (rho, z, y)
        pairs = []
        for e, c in self.terms.items():
            ne = list(e)
            for i, v in enumerate(vals):
                if v is not None:
                    if e[i]:
                        c = c * (_exact(v) ** e[i])
                    ne[i] = 0
            pairs.append((tuple(ne), c))
        return ParamPoly._collect(pairs)

    def at_q1(self) -> "ParamPoly":
        """Substitute q = 1 in every coefficient, keeping (rho, z, y) formal."""
        return ParamPoly._collect((e, c.eval_at_q1())
                                  for e, c in self.sorted_terms())

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], QRat]]:
        """Terms in ascending (e_rho, e_z, e_y) lexicographic order, each
        coefficient as a QRat."""
        # exponent keys are unique, so the sort never compares coefficients
        return [(e, _coerce_qrat(c)) for e, c in sorted(self.terms.items())]


def q_number(m: int) -> QPoly:
    """[m]_q = 1 + q + ... + q^(m-1); [0]_q is the zero polynomial."""
    if m < 0:
        raise ValueError("q-number needs a nonnegative index")
    return QPoly([1] * m)


@lru_cache(maxsize=None)
def q_number_power_inverse(m: int, k: int) -> QRat:
    """[m+1]_q ** (-k) as a canonical QRat, for any integer k."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    base = q_number(m + 1)
    if k >= 0:
        return QRat._raw(_QP_ONE, base ** k)
    return QRat._raw(base ** (-k), _QP_ONE)


def eval_numeric(value, *, q: float, rho: float | None = None,
                 z: float | None = None, y: float | None = None) -> float:
    """Float evaluation of a QRat or ParamPoly at 0 < q < 1.

    Variables actually present in the value must be supplied. Any real
    rho is allowed, zero included: the value is a polynomial in rho. A
    NaN or infinite rho, z or y is refused whether or not the value uses
    it, and a value that leaves the float range raises OverflowError.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if any(isinstance(v, float) and not math.isfinite(v) for v in (rho, z, y)):
        raise ValueError("rho, z and y must be finite")
    if isinstance(value, QRat):
        return value.evaluate(q)
    if not isinstance(value, ParamPoly):
        raise TypeError("expected QRat or ParamPoly")
    supplied = (rho, z, y)
    for name, i in _EXPONENT_SLOTS.items():
        if value.degree_in(name) > 0 and supplied[i] is None:
            raise ValueError("value depends on %s; supply it" % name)
    total = 0.0
    dens = {}   # terms share denominators: evaluate each one once
    try:
        for e, c in value.sorted_terms():
            d = dens.get(c.den.coeffs)
            if d is None:
                d = dens[c.den.coeffs] = _denominator_at(c.den, q)
            term = c.num.evaluate(q) / d
            if e[0]:
                term *= rho ** e[0]
            if e[1]:
                term *= z ** e[1]
            if e[2]:
                term *= y ** e[2]
            total += term
    except OverflowError:   # a float power past the float range
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError("the value at q = %r, rho = %r, z = %r leaves "
                            "the float range" % (q, rho, z))
    return total
