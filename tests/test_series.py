"""Truncated series engine and the generating-function route."""

from fractions import Fraction as F

import pytest

import oracles as O
from qpoly import (
    NonZeroConstantTerm,
    ParamPoly,
    TruncSeries,
    egf_coefficient,
    eval_at_q1,
    gf_poly_bernoulli,
    gf_poly_cauchy1,
    gf_poly_cauchy2,
    gf_weighted_stirling,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
    series_compose,
    series_exp,
    weighted_stirling1,
    weighted_stirling2,
)

ORDER = 8


def _const_series(values):
    return TruncSeries([ParamPoly.const(F(v)) for v in values])


# --- ring and composition laws ----------------------------------------------

def test_series_basic_arithmetic():
    a = _const_series([1, 2, 3])
    b = _const_series([0, 1, 1])
    assert (a + b).coeffs == _const_series([1, 3, 4]).coeffs
    prod = a * b
    assert prod.order == 2
    assert prod.coefficient(2) == ParamPoly.const(3)
    assert a.truncate(1).order == 1


def test_exp_log_round_trip():
    # exp(log(1 + t)) = 1 + t, with log(1 + t) taken from the oracle
    log_side = _const_series(O.s_log1p(ORDER))
    back = series_exp(log_side)
    want = TruncSeries.one(ORDER) + TruncSeries.identity(ORDER)
    assert back.coeffs == want.truncate(ORDER).coeffs


def test_log_exp_round_trip():
    # log(1 + (e^t - 1)) = t, composing the oracle's log(1 + u) with e^t - 1
    t = TruncSeries.identity(ORDER)
    em1 = series_exp(t) - TruncSeries.one(ORDER)
    back = series_compose(_const_series(O.s_log1p(ORDER)), em1)
    assert back.coeffs == t.truncate(ORDER).coeffs


def test_exp_matches_oracle_series():
    got = series_exp(TruncSeries.identity(ORDER))
    assert got.coeffs == _const_series(O.s_exp_outer(ORDER)).coeffs


def test_compose_with_identity():
    outer = _const_series([3, 1, 4, 1, 5])
    t = TruncSeries.identity(4)
    assert series_compose(outer, t).coeffs == outer.coeffs


def test_compose_rejects_nonzero_inner_constant():
    outer = _const_series([1, 1])
    inner = _const_series([1, 1])
    with pytest.raises(NonZeroConstantTerm):
        series_compose(outer, inner)


# --- weighted Stirling columns ----------------------------------------------

def test_gf_columns_match_recurrence_tables():
    for kind, table in (("first", weighted_stirling1),
                        ("second", weighted_stirling2)):
        for m in range(7):
            s = gf_weighted_stirling(kind, m, 6)
            for n in range(m, 7):
                assert egf_coefficient(s, n) == table(n, m).as_param_poly("z")


def test_gf_column_guards():
    with pytest.raises(ValueError):
        gf_weighted_stirling("first", 3, 2)
    with pytest.raises(ValueError):
        gf_weighted_stirling("third", 1, 4)


# --- family generating functions --------------------------------------------

def test_gf_equals_closed_form():
    pairs = ((gf_poly_bernoulli, poly_bernoulli),
             (gf_poly_cauchy1, poly_cauchy1),
             (gf_poly_cauchy2, poly_cauchy2))
    for gf, closed in pairs:
        for k in range(-2, 4):
            s = gf(k, 7)
            for n in range(8):
                assert egf_coefficient(s, n) == closed(n, k), (k, n)


def test_gf_limit_reproduces_classical_numbers():
    s = gf_poly_bernoulli(1, 6)
    for n in range(7):
        v = egf_coefficient(s, n).substitute(rho=F(1), z=F(0))
        got = eval_at_q1(v.constant_term())
        assert got == O.classical_family("polyBernoulli", n, 1)


def test_gf_coefficients_depend_on_expected_slots():
    s = gf_poly_cauchy1(2, 5)
    c = egf_coefficient(s, 4)
    assert c.degree_in("z") == 4
    assert c.degree_in("y") == 0
