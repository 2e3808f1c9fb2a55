"""Canonical text round-trips for the three value kinds."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpoly import (
    ParamPoly,
    QPoly,
    QRat,
    format_param_poly,
    format_qpoly,
    format_qrat,
    latex_param_poly,
    latex_qrat,
    parse_param_poly,
    parse_qpoly,
    parse_qrat,
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
    assert format_qrat(QRat(1)) == "(1)/(1)"
    assert format_qrat(q_number_power_inverse(1, 1)) == "(1)/(1 + 1*q^1)"


def test_param_poly_format_ordering():
    p = ParamPoly.monomial(2, z=1) + ParamPoly.monomial(3, rho=1) \
        + ParamPoly.const(5)
    # constant first, then by exponent triple
    assert format_param_poly(p) == \
        "(5)/(1) + (2)/(1)*z^1 + (3)/(1)*rho^1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_qpoly("1 + frog")
    with pytest.raises(ValueError):
        parse_qrat("(1/(1)")
    with pytest.raises(ValueError):
        parse_param_poly("(1)/(1)*x^2")
    for text in ("(1)/(1) + ", "(1)/(1) + (2)/(1) + ", "((1))/(1)",
                 "(1)/(1 + (2)/(1))*z^1", "(1 + (1)/(1)"):
        with pytest.raises(ValueError):
            parse_param_poly(text)


@given(p=int_polys)
@settings(max_examples=120)
def test_qpoly_round_trip(p):
    assert parse_qpoly(format_qpoly(p)) == p


@given(num=int_polys, den=nonzero_polys)
@settings(max_examples=120)
def test_qrat_round_trip(num, den):
    r = QRat(num, den)
    assert parse_qrat(format_qrat(r)) == r


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


def test_zero_values_round_trip():
    assert parse_param_poly(format_param_poly(ParamPoly.zero())) \
        == ParamPoly.zero()
    assert parse_qrat(format_qrat(QRat(0))) == QRat(0)


def test_latex_smoke():
    s = latex_param_poly(poly_bernoulli(2, 1))
    assert "\\frac" in s and "\\rho" in s
    assert latex_qrat(QRat(1)) == "1"


def test_latex_unit_coefficients():
    assert latex_param_poly(poly_cauchy1(1, 1)) == "\\frac{1}{1 + q} - z"
    assert latex_param_poly(ParamPoly.var("z")) == "z"
    assert latex_param_poly(ParamPoly.monomial(-1, rho=1, z=2)
                            + ParamPoly.const(F(1, 2))) \
        == "\\frac{1}{2} - \\rho z^{2}"
