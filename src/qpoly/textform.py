"""Canonical and LaTeX text forms for symbolic values.

The canonical form is deterministic and round-trips exactly: terms are
ordered by ascending (e_rho, e_z, e_y), each coefficient is printed as
"(num)/(den)" with q-powers ascending and every exponent explicit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import ParamPoly, QPoly, QRat

__all__ = [
    "format_param_poly",
    "format_qpoly",
    "format_qrat",
    "latex_param_poly",
    "latex_qrat",
    "parse_param_poly",
    "parse_qpoly",
    "parse_qrat",
]

_TERM_RE = re.compile(
    r"^\((?P<num>[^()]+)\)/\((?P<den>[^()]+)\)"
    r"(?P<vars>(?:\*(?:rho|z|y)\^[0-9]+)*)$")
_VAR_RE = re.compile(r"\*(rho|z|y)\^([0-9]+)")
# every term starts with "(", and inside a term's parentheses " + " is
# followed by a digit or "-", so this splits only between terms
_TERM_SPLIT_RE = re.compile(r" \+ (?=\()")


def format_qpoly(p: QPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if not c:
            continue
        parts.append(str(c) if e == 0 else "%s*q^%d" % (c, e))
    return " + ".join(parts)


def parse_qpoly(text: str) -> QPoly:
    text = text.strip()
    if text == "0":
        return QPoly.zero()
    coeffs: dict[int, Fraction] = {}
    for part in text.split(" + "):
        if "*q^" in part:
            c, e = part.split("*q^")
            exponent = int(e)
        else:
            c, exponent = part, 0
        coeffs[exponent] = coeffs.get(exponent, Fraction(0)) + Fraction(c)
    size = max(coeffs) + 1
    out = [Fraction(0)] * size
    for e, c in coeffs.items():
        out[e] = c
    return QPoly(out)


def format_qrat(r: QRat) -> str:
    return "(%s)/(%s)" % (format_qpoly(r.num), format_qpoly(r.den))


def parse_qrat(text: str) -> QRat:
    m = _TERM_RE.match(text.strip())
    if m is None or m.group("vars"):
        raise ValueError("not a canonical rational function: %r" % text)
    return QRat(parse_qpoly(m.group("num")), parse_qpoly(m.group("den")))


def format_param_poly(p: ParamPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        piece = format_qrat(c)
        for name, exponent in zip(ParamPoly.VARS, e):
            if exponent:
                piece += "*%s^%d" % (name, exponent)
        parts.append(piece)
    return " + ".join(parts)


def parse_param_poly(text: str) -> ParamPoly:
    text = text.strip()
    if text == "0":
        return ParamPoly.zero()
    total = ParamPoly.zero()
    for part in _TERM_SPLIT_RE.split(text):
        m = _TERM_RE.match(part)
        if m is None:
            raise ValueError("not a canonical term: %r" % part)
        coeff = QRat(parse_qpoly(m.group("num")), parse_qpoly(m.group("den")))
        exps = {"rho": 0, "z": 0, "y": 0}
        for name, e in _VAR_RE.findall(m.group("vars")):
            exps[name] += int(e)
        total = total + ParamPoly.monomial(coeff, **exps)
    return total


# ---------------------------------------------------------------------------
# LaTeX rendering, for eyeball output only


def _latex_fraction(c: Fraction) -> str:
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
        elif c == QRat.one():
            parts.append(vars_part)
        elif c == -QRat.one():
            parts.append("-" + vars_part)
        else:
            if " + " in coeff_part or " - " in coeff_part:
                coeff_part = r"\left(%s\right)" % coeff_part
            parts.append(coeff_part + " " + vars_part)
    return _latex_join(parts)
