"""Canonical and LaTeX text forms for symbolic values.

The canonical text is deterministic and round-trips exactly:

- a QPoly is its nonzero terms in ascending powers of q joined by " + ":
  "c" for q^0 and "c*q^e" for e >= 1, each c an int or a reduced "a/b";
  the zero polynomial is "0";
- a ParamPoly term is its coefficient as a QRat "(num)/(den)", den monic
  and coprime to num (and written even when it is 1), followed by
  "*rho^a", "*z^b" and "*y^c" in that order, for the exponents >= 1 only;
  terms are joined by " + " in ascending (a, b, c) order, and the zero
  value is "0".

parse_* also accept non-canonical input and normalize it: q-powers,
variables and terms in any order or repeated (they add up), coefficients
in any spelling Fraction(str) reads ("2/4", "3.0", "1e3"; an exponent
past the print limit is refused), denominators that are not monic, and
pairs that are not reduced, which QRat cancels with the PRS gcd.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .core import _EXPONENT_SLOTS, ParamPoly, QPoly, QRat

__all__ = [
    "format_param_poly",
    "format_qpoly",
    "latex_param_poly",
    "latex_qrat",
    "parse_param_poly",
    "parse_qpoly",
]

_TERM_RE = re.compile(
    r"^\((?P<num>[^()]+)\)/\((?P<den>[^()]+)\)"
    r"(?P<vars>(?:\*(?:rho|z|y)\^[0-9]+)*)$")
_VAR_RE = re.compile(r"\*(rho|z|y)\^([0-9]+)")
# every term starts with "(", and inside a term's parentheses " + " is
# followed by a digit or "-", so this splits only between terms
_TERM_SPLIT_RE = re.compile(r" \+ (?=\()")


def _print_limit() -> int:
    """The most digits Python prints of an int; with the limit off (0),
    its default 4,300, so an exact value stays bounded."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _huge_exponent(text: str, limit: int) -> tuple[str, int] | None:
    """(head, e) for a decimal "<head>e<e>" with |e| past len(text) + limit,
    else None: Fraction(text) builds 10^|e|, minutes at e = 10^8."""
    head, _, tail = text.replace("E", "e").rpartition("e")
    try:
        e = int(tail) if head else 0
    except ValueError:      # not a decimal, which Fraction refuses
        return None
    return (head, e) if abs(e) > len(text) + limit else None


def format_qpoly(p: QPoly) -> str:
    if p.is_zero():
        return "0"
    return " + ".join([str(c) if not e else "%s*q^%d" % (c, e)
                       for e, c in enumerate(p.coeffs) if c])


def parse_qpoly(text: str) -> QPoly:
    out: list[int | Fraction] = []
    for part in text.strip().split(" + "):
        c, sep, e = part.partition("*q^")
        exponent = int(e) if sep else 0
        try:
            c = int(c)
        except ValueError:
            # "1/2", "3.0" and "1e3" are rationals int() does not read
            if _huge_exponent(c, _print_limit()):
                raise ValueError("exponent too large in %r" % c) from None
            c = Fraction(c)
        if exponent == len(out):    # as canonical text has it
            out.append(c)
        elif exponent < 0:
            raise ValueError("negative q-exponent in %r" % part)
        else:                       # input may skip or repeat an exponent
            out.extend([0] * (exponent + 1 - len(out)))
            out[exponent] += c
    return QPoly(out)


def format_param_poly(p: ParamPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    dens: dict[tuple, str] = {}   # terms share denominators: render once
    for (rho, z, y), c in p.sorted_terms():
        den = dens.get(c.den.coeffs)
        if den is None:
            den = dens[c.den.coeffs] = format_qpoly(c.den)
        parts.append("(%s)/(%s)%s%s%s" % (
            format_qpoly(c.num), den, "*rho^%d" % rho if rho else "",
            "*z^%d" % z if z else "", "*y^%d" % y if y else ""))
    return " + ".join(parts)


def parse_param_poly(text: str) -> ParamPoly:
    text = text.strip()
    if text == "0":
        return ParamPoly.zero()
    pairs = []
    dens: dict[str, QPoly] = {}   # terms share denominators: parse once
    for part in _TERM_SPLIT_RE.split(text):
        m = _TERM_RE.match(part)
        if m is None:
            raise ValueError("not a canonical term: %r" % part)
        num, den_text, vars_ = m.groups()
        e = [0, 0, 0]
        for name, x in _VAR_RE.findall(vars_):
            e[_EXPONENT_SLOTS[name]] += int(x)
        den = dens.get(den_text)
        if den is None:
            den = dens[den_text] = parse_qpoly(den_text)
        # normalized, as input text need not be canonical
        pairs.append((tuple(e), QRat(parse_qpoly(num), den)))
    return ParamPoly._collect(pairs)


# ---------------------------------------------------------------------------
# LaTeX rendering, for eyeball output only


def _latex_fraction(c: int | Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(c.numerator), c.denominator)


def _latex_qpoly(p: QPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if not c:
            continue
        if e == 0:
            parts.append(_latex_fraction(c))
            continue
        qpart = "q" if e == 1 else "q^{%d}" % e
        if c == 1:
            parts.append(qpart)
        elif c == -1:
            parts.append("-" + qpart)
        else:
            parts.append(_latex_fraction(c) + " " + qpart)
    return _latex_join(parts)


def _latex_join(parts: list[str]) -> str:
    """Join signed terms, turning "+ -x" into "- x"."""
    out = parts[0]
    for piece in parts[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


def latex_qrat(r: QRat) -> str:
    # a monic degree-0 denominator is exactly 1
    if r.is_polynomial():
        return _latex_qpoly(r.num)
    return r"\frac{%s}{%s}" % (_latex_qpoly(r.num), _latex_qpoly(r.den))


_LATEX_VARS = (r"\rho", "z", "y")


def latex_param_poly(p: ParamPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        vars_part = " ".join(name if exponent == 1
                             else "%s^{%d}" % (name, exponent)
                             for name, exponent in zip(_LATEX_VARS, e)
                             if exponent)
        coeff_part = latex_qrat(c)
        if not vars_part:
            parts.append(coeff_part)
        elif c == 1:
            parts.append(vars_part)
        elif c == -1:
            parts.append("-" + vars_part)
        else:
            # a \frac is one group already; a sum of q-powers is not
            if c.is_polynomial() and sum(map(bool, c.num.coeffs)) > 1:
                coeff_part = r"\left(%s\right)" % coeff_part
            parts.append(coeff_part + " " + vars_part)
    return _latex_join(parts)
