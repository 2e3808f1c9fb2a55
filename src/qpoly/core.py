"""Exact arithmetic kernel: q-polynomials, q-rational functions and sparse
polynomials in (rho, z, y).

q is a formal indeterminate throughout this module. It is only ever bound
to a number inside eval_numeric (floats in (0, 1)) and eval_at_q1 (exact
substitution q = 1). Every value is immutable after construction, so
instances may be shared freely, including between threads.
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
    "eval_at_q1",
    "eval_numeric",
    "q_number",
    "q_number_power_inverse",
]

# Arbitrary-precision rational scalars. fractions.Fraction already keeps
# gcd(|numerator|, denominator) = 1 with denominator >= 1.
Scalar = Union[int, Fraction]


class DenominatorVanishes(ZeroDivisionError):
    """A normalized denominator evaluates to zero at the requested point."""


def _to_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an exact scalar, got %s" % type(value).__name__)


def _power(base, e: int, one):
    """base ** e for e >= 0 by binary square-and-multiply; one is the
    multiplicative identity of base's ring."""
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# integer primitive-PRS gcd, used by QPoly.gcd


def _int_primitive(coeffs: Sequence[Fraction]) -> list[int]:
    """Clear denominators and divide out the integer content."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c.numerator * (den // c.denominator)) for c in coeffs]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over the integers, content removed."""
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
    g = 0
    for v in r:
        g = math.gcd(g, v)
    if g > 1:
        r = [v // g for v in r]
    return r


class QPoly:
    """Dense polynomial in q over the rationals.

    The coefficient tuple is trimmed: the last entry is nonzero, and the
    zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_to_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return _QP_ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree in q; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

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

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        out = QPoly()
        out.coeffs = tuple(-c for c in self.coeffs)
        return out

    def __mul__(self, other: Union["QPoly", Scalar]) -> "QPoly":
        if isinstance(other, QPoly):
            # a degree-0 operand is a scalar factor; the weighted Stirling
            # sums make nearly every product one of these
            if len(self.coeffs) == 1:
                self, other = other, self.coeffs[0]
            elif len(other.coeffs) == 1:
                other = other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            f = _to_fraction(other)
            if not f:
                return _QP_ZERO
            if f == 1:
                return self
            out = QPoly()
            out.coeffs = tuple(c * f for c in self.coeffs)
            return out
        if not isinstance(other, QPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _QP_ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "QPoly":
        if exponent < 0:
            raise ValueError("negative power of a QPoly; use QRat")
        return _power(self, exponent, _QP_ONE)

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if not isinstance(other, QPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dn = other.degree
        lc = other.leading
        qlen = max(len(r) - dn, 0)
        quot = [Fraction(0)] * qlen
        while r and len(r) - 1 >= dn:
            t = r[-1] / lc
            d = len(r) - 1 - dn
            quot[d] = t
            for i, oc in enumerate(other.coeffs):
                r[d + i] -= t * oc
            while r and not r[-1]:
                r.pop()
        return QPoly(quot), QPoly(r)

    def divexact(self, other: "QPoly") -> "QPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "QPoly":
        lc = self.leading
        if not lc or lc == 1:
            return self
        return self * (1 / lc)

    def evaluate(self, x):
        """Horner evaluation; works for Fraction and float arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @staticmethod
    def gcd(a: "QPoly", b: "QPoly") -> "QPoly":
        """Monic greatest common divisor over the rationals."""
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        if a.degree == 0 or b.degree == 0:
            return _QP_ONE
        pa = _int_primitive(a.coeffs)
        pb = _int_primitive(b.coeffs)
        if len(pa) < len(pb):
            pa, pb = pb, pa
        while pb:
            pa, pb = pb, _int_prem(pa, pb)
        return QPoly(pa).monic()


_QP_ZERO = QPoly()
_QP_ONE = QPoly([1])


def _as_qpoly(value: Union["QPoly", Scalar]) -> QPoly:
    if isinstance(value, QPoly):
        return value
    return QPoly([_to_fraction(value)])


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
        g = QPoly.gcd(num, den)
        if g.degree > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        lc = den.leading
        if lc != 1:
            inv = 1 / lc
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

    @classmethod
    def zero(cls) -> "QRat":
        return _QR_ZERO

    @classmethod
    def one(cls) -> "QRat":
        return _QR_ONE

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            other = _coerce_qrat(other)
        if not isinstance(other, QRat):
            return NotImplemented
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
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b == d:
            return QRat(a + c, b)
        g = QPoly.gcd(b, d)
        if g.degree == 0:
            num = a * d + c * b
            if num.is_zero():
                return _QR_ZERO
            return QRat._raw(num, b * d)
        b1 = b.divexact(g)
        d1 = d.divexact(g)
        t = a * d1 + c * b1
        if t.is_zero():
            return _QR_ZERO
        g2 = QPoly.gcd(t, g)
        if g2.degree > 0:
            t = t.divexact(g2)
            g = g.divexact(g2)
        return QRat._raw(t, b1 * d1 * g)

    __radd__ = __add__

    def __sub__(self, other) -> "QRat":
        other = _coerce_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRat":
        return (-self) + other

    def __mul__(self, other) -> "QRat":
        other = _coerce_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return _QR_ZERO
        a, b = self.num, self.den
        c, d = other.num, other.den
        if d.degree > 0:
            g = QPoly.gcd(a, d)
            if g.degree > 0:
                a = a.divexact(g)
                d = d.divexact(g)
        if b.degree > 0:
            g = QPoly.gcd(c, b)
            if g.degree > 0:
                c = c.divexact(g)
                b = b.divexact(g)
        return QRat._raw(a * c, b * d)

    __rmul__ = __mul__

    def inverse(self) -> "QRat":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        inv = 1 / self.num.leading
        return QRat._raw(self.den * inv, self.num * inv)

    def __truediv__(self, other) -> "QRat":
        other = _coerce_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "QRat":
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "QRat":
        if exponent == 0:
            return _QR_ONE
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return QRat._raw(self.num ** exponent, self.den ** exponent)

    def evaluate(self, q: Union[float, Fraction]):
        """Value at a float q, or exactly at a Fraction q."""
        d = self.den.evaluate(q)
        if d == 0:
            raise DenominatorVanishes("denominator vanishes at q=%s" % q)
        return self.num.evaluate(q) / d

    def eval_at_q1(self) -> Fraction:
        return self.evaluate(Fraction(1))


_QR_ZERO = QRat.__new__(QRat)
_QR_ZERO.num = _QP_ZERO
_QR_ZERO.den = _QP_ONE
_QR_ONE = QRat.__new__(QRat)
_QR_ONE.num = _QP_ONE
_QR_ONE.den = _QP_ONE


def _coerce_qrat(value):
    if isinstance(value, QRat):
        return value
    if isinstance(value, (int, Fraction)):
        f = _to_fraction(value)
        if not f:
            return _QR_ZERO
        return QRat._raw(QPoly([f]), _QP_ONE)
    if isinstance(value, QPoly):
        if value.is_zero():
            return _QR_ZERO
        return QRat._raw(value, _QP_ONE)
    return NotImplemented


_EXPONENT_SLOTS = {"rho": 0, "z": 1, "y": 2}


class ParamPoly:
    """Sparse polynomial in (rho, z, y) with QRat coefficients.

    Terms map exponent triples (e_rho, e_z, e_y) to nonzero QRat values.
    The y slot is a second weight variable needed only by the mixed-weight
    identity checks; everywhere else its exponent stays 0. Instances are
    treated as immutable: all operations return new values.
    """

    __slots__ = ("terms",)
    VARS = ("rho", "z", "y")

    def __init__(self, terms: Mapping[tuple, object] | None = None) -> None:
        out: dict[tuple[int, int, int], QRat] = {}
        if terms:
            for e, c in terms.items():
                c = _coerce_qrat(c)
                if c is NotImplemented:
                    raise TypeError("coefficients must be QRat or exact scalars")
                if c.is_zero():
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
    def zero(cls) -> "ParamPoly":
        return cls._raw({})

    @classmethod
    def const(cls, value) -> "ParamPoly":
        c = _coerce_qrat(value)
        if c is NotImplemented:
            raise TypeError("not an exact constant")
        if c.is_zero():
            return cls._raw({})
        return cls._raw({(0, 0, 0): c})

    @classmethod
    def monomial(cls, coeff, rho: int = 0, z: int = 0, y: int = 0) -> "ParamPoly":
        c = _coerce_qrat(coeff)
        if c is NotImplemented:
            raise TypeError("not an exact coefficient")
        if c.is_zero():
            return cls._raw({})
        if rho < 0 or z < 0 or y < 0:
            raise ValueError("negative exponent")
        return cls._raw({(rho, z, y): c})

    @classmethod
    def var(cls, name: str) -> "ParamPoly":
        e = [0, 0, 0]
        e[_EXPONENT_SLOTS[name]] = 1
        return cls._raw({tuple(e): _QR_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0, 0, 0)}

    def constant_term(self) -> QRat:
        return self.terms.get((0, 0, 0), _QR_ZERO)

    def coefficient(self, rho: int = 0, z: int = 0, y: int = 0) -> QRat:
        return self.terms.get((rho, z, y), _QR_ZERO)

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
        return hash(frozenset((e, c) for e, c in self.terms.items()))

    def __repr__(self) -> str:
        return "ParamPoly(%r)" % (self.terms,)

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._raw({e: -c for e, c in self.terms.items()})

    def __add__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction, QRat)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = acc + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        return ParamPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction, QRat)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction, QRat)):
            return self.scale(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return ParamPoly._raw({})
        out: dict[tuple[int, int, int], QRat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                p = c1 * c2
                acc = out.get(e)
                if acc is None:
                    out[e] = p
                else:
                    s = acc + p
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
        return ParamPoly._raw(out)

    __rmul__ = __mul__

    def scale(self, coeff) -> "ParamPoly":
        c = _coerce_qrat(coeff)
        if c is NotImplemented:
            raise TypeError("not an exact scale factor")
        if c.is_zero() or not self.terms:
            return ParamPoly._raw({})
        return ParamPoly._raw({e: v * c for e, v in self.terms.items()})

    def substitute(self, rho: Scalar | None = None, z: Scalar | None = None,
                   y: Scalar | None = None) -> "ParamPoly":
        """Exact substitution of rational values for any subset of variables."""
        vals = (rho, z, y)
        out: dict[tuple[int, int, int], QRat] = {}
        for e, c in self.terms.items():
            ne = list(e)
            for i, v in enumerate(vals):
                if v is not None and e[i]:
                    c = c * (_to_fraction(v) ** e[i])
                    ne[i] = 0
                elif v is not None:
                    ne[i] = 0
            if c.is_zero():
                continue
            key = tuple(ne)
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                s = acc + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
        return ParamPoly._raw(out)

    def at_q1(self) -> "ParamPoly":
        """Substitute q = 1 in every coefficient, keeping (rho, z, y) formal."""
        out: dict[tuple[int, int, int], QRat] = {}
        for e, c in self.terms.items():
            v = c.eval_at_q1()
            if v:
                out[e] = _coerce_qrat(v)
        return ParamPoly._raw(out)

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], QRat]]:
        """Terms in ascending (e_rho, e_z, e_y) lexicographic order."""
        return sorted(self.terms.items(), key=lambda item: item[0])


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
    if k == 0:
        return _QR_ONE
    if k > 0:
        return QRat._raw(_QP_ONE, base ** k)
    return QRat._raw(base ** (-k), _QP_ONE)


def eval_at_q1(value: QRat) -> Fraction:
    """Exact substitution q = 1 into a canonical QRat."""
    return value.eval_at_q1()


def eval_numeric(value, *, q: float, rho: float | None = None,
                 z: float | None = None, y: float | None = None) -> float:
    """Float evaluation of a QRat or ParamPoly at 0 < q < 1.

    Variables actually present in the value must be supplied. Any real
    rho is allowed, zero included: the value is a polynomial in rho.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if isinstance(value, QRat):
        return value.evaluate(q)
    if not isinstance(value, ParamPoly):
        raise TypeError("expected QRat or ParamPoly")
    supplied = (rho, z, y)
    for name, i in _EXPONENT_SLOTS.items():
        if value.degree_in(name) > 0 and supplied[i] is None:
            raise ValueError("value depends on %s; supply it" % name)
    total = 0.0
    for e, c in value.sorted_terms():
        term = c.evaluate(q)
        if e[0]:
            term *= rho ** e[0]
        if e[1]:
            term *= z ** e[1]
        if e[2]:
            term *= y ** e[2]
        total += term
    return total
