"""Exact q-arithmetic kernel: QPoly, QRat, ParamPoly, q-operators."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpoly import (
    DenominatorVanishes,
    ParamPoly,
    QPoly,
    QRat,
    eval_at_q1,
    eval_numeric,
    q_number,
    q_number_power_inverse,
)

ONE_POLY = QPoly([1])


# --- strategies -------------------------------------------------------------

small_ints = st.integers(min_value=-6, max_value=6)
int_polys = st.lists(small_ints, min_size=0, max_size=4).map(QPoly)
nonzero_polys = int_polys.filter(lambda p: not p.is_zero())
qrats = st.builds(QRat, int_polys, nonzero_polys)

param_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    small_ints,
    max_size=4,
).map(lambda d: ParamPoly({k: F(v) for k, v in d.items() if v}))


# --- q-numbers --------------------------------------------------------------

def test_q_number_small():
    assert q_number(0).is_zero()
    assert q_number(1) == ONE_POLY
    assert q_number(2) == QPoly([1, 1])
    assert q_number(4) == QPoly([1, 1, 1, 1])


def test_q_number_at_q1_is_the_index():
    for m in range(8):
        assert q_number(m).evaluate(F(1)) == m


def test_q_number_power_inverse_examples():
    assert q_number_power_inverse(0, 5) == QRat(1)
    assert q_number_power_inverse(1, 1) == QRat(1, QPoly([1, 1]))
    # negative k turns the inverse into a positive power
    assert q_number_power_inverse(1, -2) == QRat(QPoly([1, 2, 1]))
    assert q_number_power_inverse(2, 2) == QRat(1, QPoly([1, 1, 1]) ** 2)


def test_q_number_power_inverse_rejects_negative_index():
    with pytest.raises(ValueError):
        q_number_power_inverse(-1, 1)


# --- QRat normalization -----------------------------------------------------

def test_qrat_cancels_common_factor():
    one_minus_q2 = QPoly([1, 0, -1])
    one_minus_q = QPoly([1, -1])
    r = QRat(one_minus_q2, one_minus_q)
    assert r == QRat(QPoly([1, 1]))
    assert r.evaluate(0.7) == pytest.approx(1.7)


def test_qrat_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        QRat(1, QPoly([]))


def test_qrat_evaluate_denominator_root():
    r = QRat(1, QPoly([1, -2]))  # 1/(1 - 2q)
    with pytest.raises(DenominatorVanishes):
        r.evaluate(0.5)


def test_eval_at_q1_simple_and_singular():
    assert eval_at_q1(q_number_power_inverse(2, 2)) == F(1, 9)
    with pytest.raises(DenominatorVanishes):
        eval_at_q1(QRat(1, QPoly([1, -1])))  # 1/(1-q)


@given(num=int_polys, den=nonzero_polys, h=nonzero_polys)
@settings(max_examples=150)
def test_qrat_canonical_form(num, den, h):
    r = QRat(num, den)
    # common factors never survive construction
    assert QRat(num * h, den * h) == r
    # denominator is monic and coprime to the numerator
    assert r.den.coeffs[-1] == 1
    assert QPoly.gcd(r.num, r.den) == ONE_POLY


@given(a=qrats, b=qrats, c=qrats)
@settings(max_examples=100)
def test_qrat_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == QRat(1)


# --- ParamPoly --------------------------------------------------------------

def test_param_poly_construction_and_terms():
    p = ParamPoly.monomial(F(3), rho=1, z=2) + ParamPoly.const(F(1, 2))
    assert p.coefficient(rho=1, z=2) == QRat(3)
    assert p.constant_term() == QRat(F(1, 2))
    assert p.degree_in("rho") == 1
    assert p.degree_in("z") == 2
    assert p.degree_in("y") == 0


def test_param_poly_substitute_partial():
    p = ParamPoly.monomial(1, rho=1, z=1) + ParamPoly.monomial(1, z=2)
    at_rho = p.substitute(rho=F(2))
    assert at_rho == ParamPoly.monomial(2, z=1) + ParamPoly.monomial(1, z=2)
    full = at_rho.substitute(z=F(1, 2))
    assert full.constant_term() == QRat(F(5, 4))


def test_param_poly_rejects_negative_exponent():
    with pytest.raises(ValueError):
        ParamPoly.monomial(1, rho=-1)


@given(a=param_polys, b=param_polys, c=param_polys)
@settings(max_examples=100)
def test_param_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


# --- numeric evaluation -----------------------------------------------------

def test_eval_numeric_mixed_terms():
    p = ParamPoly.monomial(q_number_power_inverse(1, 1)) \
        + ParamPoly.monomial(1, rho=1, z=1)
    got = eval_numeric(p, q=0.5, rho=2.0, z=0.25)
    assert got == pytest.approx(1 / 1.5 + 0.5)


def test_eval_numeric_requires_needed_vars():
    p = ParamPoly.monomial(1, z=1)
    with pytest.raises(ValueError):
        eval_numeric(p, q=0.5)


def test_eval_numeric_domain_checks():
    p = ParamPoly.const(1)
    with pytest.raises(ValueError):
        eval_numeric(p, q=1.2)
    # rho = 0 is allowed, as on the exact path: the value is a polynomial in rho
    p = ParamPoly.monomial(q_number_power_inverse(1, 1)) \
        + ParamPoly.monomial(1, rho=1, z=1)
    exact = p.substitute(rho=0, z=F(1, 4)).constant_term()
    half = F(1, 2)
    want = float(exact.num.evaluate(half) / exact.den.evaluate(half))
    assert eval_numeric(p, q=0.5, rho=0.0, z=0.25) == want
