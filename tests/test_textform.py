"""Canonical text round-trips for the three value kinds."""

import hashlib
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpoly import (
    FAMILIES,
    ParamPoly,
    QPoly,
    QRat,
    format_param_poly,
    format_qpoly,
    family_value,
    latex_param_poly,
    latex_qrat,
    parse_param_poly,
    parse_qpoly,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
    q_number_power_inverse,
)

small_ints = st.integers(min_value=-9, max_value=9)
int_polys = st.lists(small_ints, min_size=0, max_size=5).map(QPoly)
nonzero_polys = int_polys.filter(lambda p: not p.is_zero())
param_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    small_ints,
    max_size=5,
).map(lambda d: ParamPoly({k: F(v) for k, v in d.items() if v}))


def test_qpoly_format_examples():
    assert format_qpoly(QPoly([])) == "0"
    assert format_qpoly(QPoly([1])) == "1"
    assert format_qpoly(QPoly([1, 1])) == "1 + 1*q^1"
    assert format_qpoly(QPoly([0, F(-1, 2)])) == "-1/2*q^1"


def test_qrat_format_examples():
    # a QRat is written as one constant ParamPoly term
    assert format_param_poly(ParamPoly.const(QRat(1))) == "(1)/(1)"
    assert format_param_poly(ParamPoly.const(q_number_power_inverse(1, 1))) \
        == "(1)/(1 + 1*q^1)"


def test_param_poly_format_ordering():
    p = ParamPoly.monomial(2, z=1) + ParamPoly.monomial(3, rho=1) \
        + ParamPoly.const(5)
    # constant first, then by exponent triple
    assert format_param_poly(p) == \
        "(5)/(1) + (2)/(1)*z^1 + (3)/(1)*rho^1"


def test_parse_rejects_garbage():
    # garbage coefficients, and a negative q-exponent, which once indexed
    # the coefficients from the end
    for text in ("1 + frog", "1 + 2*q^-1", "1*q^-1", "abc", "", "0x10",
                 "1__0"):
        with pytest.raises(ValueError):
            parse_qpoly(text)
    for text in ("(1 + 2*q^-1)/(1)", "(1/(1)", "(1)/(1)*x^2",
                 "(1)/(1) + ", "(1)/(1) + (2)/(1) + ", "((1))/(1)",
                 "(1)/(1 + (2)/(1))*z^1", "(1 + (1)/(1)"):
        with pytest.raises(ValueError):
            parse_param_poly(text)


@pytest.mark.parametrize("text", [
    "3", "+3", " 3", "-0", "1_0", "3.0", "1e3", "1/2", "\uff13", "-7*q^2"])
def test_parse_reads_coefficients_as_fraction_does(text):
    # int() reads the integers, Fraction() the rest; together they accept
    # exactly what Fraction(str) alone accepts
    coeff, _, power = text.partition("*q^")
    want = QPoly([0] * int(power or 0) + [F(coeff)])
    got = parse_qpoly(text)
    assert got == want
    assert all(type(c) is int or c.denominator > 1 for c in got.coeffs)


@pytest.mark.parametrize("text", ["(1e99999999)/(1)", "(1)/(1e-99999999)"])
def test_parse_refuses_a_huge_decimal_exponent_at_once(text):
    # Fraction(text) would build 10^99999999 first, which takes minutes
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent too large"):
        parse_param_poly(text)
    assert time.perf_counter() - start < 0.5
    assert parse_qpoly("1e3") == QPoly([1000])


def test_parse_accepts_non_canonical_input():
    z = ParamPoly.monomial(1, z=1)
    assert parse_param_poly("(1)/(1)*z^1 + (1)/(1)*z^1") == z.scale(2)
    assert parse_param_poly("(1)/(1)*z^1 + (-1)/(1)*z^1") == ParamPoly.zero()
    # a sum that cancels is dropped, and a later term may bring it back
    assert parse_param_poly("(1)/(1) + (-1)/(1) + (3)/(1)") \
        == ParamPoly.const(3)
    assert parse_qpoly("1 + 2*q^1 + 3*q^1") == QPoly([1, 5])
    assert parse_param_poly("(1)/(1)*z^1*z^2") == ParamPoly.monomial(1, z=3)
    assert parse_param_poly("(0)/(1)*z^1 + (1)/(1)") == ParamPoly.const(1)
    assert parse_param_poly("(2/4)/(1)") == ParamPoly.const(F(1, 2))
    assert parse_param_poly("(2)/(2 + 2*q^1)") \
        == ParamPoly.const(q_number_power_inverse(1, 1))
    assert parse_param_poly("(2)/(2 + 2*q^1)*rho^1") \
        == ParamPoly.monomial(q_number_power_inverse(1, 1), rho=1)
    with pytest.raises(ValueError):
        parse_qpoly("3*q^")


@given(p=int_polys)
@settings(max_examples=120)
def test_qpoly_round_trip(p):
    assert parse_qpoly(format_qpoly(p)) == p


@given(num=int_polys, den=nonzero_polys)
@settings(max_examples=120)
def test_qrat_round_trip(num, den):
    r = ParamPoly.const(QRat(num, den))
    assert parse_param_poly(format_param_poly(r)) == r


@given(p=param_polys)
@settings(max_examples=120)
def test_param_poly_round_trip(p):
    assert parse_param_poly(format_param_poly(p)) == p


@pytest.mark.parametrize("value", [poly_bernoulli(3, 2),
                                   poly_cauchy1(3, -2),
                                   poly_cauchy2(4, 1)])
def test_family_values_round_trip(value):
    # these coefficients are multi-term q-polynomials, so " + " also
    # appears inside a term's parentheses
    text = format_param_poly(value)
    assert "*q^1 + " in text
    assert parse_param_poly(text) == value


# sha256 of the canonical texts of every (family, n <= 12, k in -2..3)
# value, joined by newlines in that order
CANONICAL_TEXT_SHA256 = \
    "e2fe194de004042c38dd9c2c1701bb1531c4e90aff1447a1f768c9f3b5bbf722"


def test_canonical_text_is_pinned():
    values = [family_value(family, n, k) for family in FAMILIES
              for n in range(13) for k in range(-2, 4)]
    texts = [format_param_poly(v) for v in values]
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == CANONICAL_TEXT_SHA256
    for text, value in zip(texts, values):
        assert parse_param_poly(text) == value


@pytest.mark.parametrize("family", ["polyBernoulli", "polyCauchy2"])
@pytest.mark.parametrize("k", [-2, 0, 3])
def test_canonical_text_round_trips_without_a_gcd(monkeypatch, family, k):
    # each canonical term pairs a constant with a q-number power, which
    # shares no factor with it, so parsing never needs the PRS gcd
    def refuse(*args):
        raise AssertionError("parsing canonical text entered QPoly.gcd")

    value = family_value(family, 10, k)
    monkeypatch.setattr(QPoly, "gcd", staticmethod(refuse))
    assert parse_param_poly(format_param_poly(value)) == value


def test_zero_values_round_trip():
    assert parse_param_poly(format_param_poly(ParamPoly.zero())) \
        == ParamPoly.zero()
    assert parse_param_poly("(0)/(1)") == ParamPoly.zero()


def test_latex_smoke():
    s = latex_param_poly(poly_bernoulli(2, 1))
    assert "\\frac" in s and "\\rho" in s
    assert latex_qrat(QRat(1)) == "1"


def test_latex_unit_coefficients():
    assert latex_param_poly(poly_cauchy1(1, 1)) == "\\frac{1}{1 + q} - z"
    assert latex_param_poly(ParamPoly.monomial(1, z=1)) == "z"
    assert latex_param_poly(ParamPoly.monomial(-1, rho=1, z=2)
                            + ParamPoly.const(F(1, 2))) \
        == "\\frac{1}{2} - \\rho z^{2}"


def test_latex_brackets_only_multi_term_polynomials():
    # a \frac coefficient is one group, whatever its denominator holds
    assert latex_param_poly(poly_bernoulli(2, 1)) == (
        "\\frac{2}{1 + q + q^{2}} + \\frac{-2}{1 + q} z + z^{2}"
        " + \\frac{-1}{1 + q} \\rho")
    assert latex_param_poly(poly_bernoulli(2, -1)) == (
        "2 + 2 q + 2 q^{2} + \\left(-2 - 2 q\\right) z + z^{2}"
        " + \\left(-1 - q\\right) \\rho")
