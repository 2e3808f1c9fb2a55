"""Truncated series engine and the generating-function route."""

import hashlib
import threading
from fractions import Fraction as F
from math import factorial

import pytest

import oracles as O
import qpoly.series as series
from qpoly import (
    FAMILIES,
    NonZeroConstantTerm,
    ParamPoly,
    TruncSeries,
    egf_coefficient,
    families,
    family_gf,
    family_gf_t,
    format_param_poly,
    gf_poly_bernoulli,
    gf_poly_cauchy1,
    gf_poly_cauchy2,
    gf_weighted_stirling,
    identities,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
    series_compose,
    stirling,
    weighted_stirling1,
    weighted_stirling2,
)

ORDER = 8


def _const_series(values):
    return TruncSeries([ParamPoly.const(F(v)) for v in values])


def _t_series(order):
    """The series t."""
    return _const_series([0, 1] + [0] * (order - 1))


def _exp(f):
    """exp(f), composing the oracle's exp(t) with f."""
    return series_compose(_const_series(O.s_exp_outer(f.order)), f)


# --- ring and composition laws ----------------------------------------------

def test_series_basic_arithmetic():
    a = _const_series([1, 2, 3])
    b = _const_series([0, 1, 1])
    prod = a * b
    assert prod.order == 2
    assert prod.coefficient(2) == ParamPoly.const(3)


def test_exp_log_round_trip():
    # exp(log(1 + t)) = 1 + t, with log(1 + t) taken from the oracle
    log_side = _const_series(O.s_log1p(ORDER))
    back = _exp(log_side)
    assert back.coeffs == _const_series([1, 1] + [0] * (ORDER - 1)).coeffs


def test_log_exp_round_trip():
    # log(1 + (e^t - 1)) = t, composing the oracle's log(1 + u) with e^t - 1
    t = _t_series(ORDER)
    em1 = _const_series([0] + O.s_exp_outer(ORDER)[1:])
    back = series_compose(_const_series(O.s_log1p(ORDER)), em1)
    assert back.coeffs == t.coeffs


def test_exp_matches_oracle_series():
    got = _exp(_t_series(ORDER))
    assert got.coeffs == _const_series(O.s_exp_outer(ORDER)).coeffs


def test_compose_with_identity():
    outer = _const_series([3, 1, 4, 1, 5])
    t = _t_series(4)
    assert series_compose(outer, t).coeffs == outer.coeffs


def test_compose_reads_no_inner_coefficient_past_the_outer_order():
    # powers of inner start at order n = 4, and each product keeps the
    # smaller order, so inner's t^5..t^7 never enter
    outer = _const_series([1, 1, F(1, 2), F(1, 6), F(1, 24)])
    rho, z = ParamPoly.monomial(1, rho=1), ParamPoly.monomial(1, z=1)
    inner = TruncSeries([0, 1, rho, z, rho * z, 3, z * z, 7])
    got = series_compose(outer, inner)
    assert got.order == 4
    short = TruncSeries(inner.coeffs[:5])
    assert got.coeffs == series_compose(outer, short).coeffs


def test_compose_rejects_nonzero_inner_constant():
    outer = _const_series([1, 1])
    inner = _const_series([1, 1])
    with pytest.raises(NonZeroConstantTerm):
        series_compose(outer, inner)


# --- weighted Stirling columns ----------------------------------------------

def test_gf_columns_match_recurrence_tables():
    # against the package's tables and the stdlib oracle's polynomials in
    # x, which the columns carry in the z slot; below t^m a column is zero
    for kind, table, oracle in (("first", weighted_stirling1,
                                 O.weighted_s1_poly),
                                ("second", weighted_stirling2,
                                 O.weighted_s2_poly)):
        for m in range(7):
            s = gf_weighted_stirling(kind, m, 6)
            assert all(s.coefficient(n).is_zero() for n in range(m))
            for n in range(m, 7):
                got = egf_coefficient(s, n)
                assert got == table(n, m).as_param_poly()
                assert got == ParamPoly({(0, j, 0): c for j, c
                                         in enumerate(oracle(n, m))})


def test_gf_column_text_is_pinned():
    """The canonical text of every coefficient of the order-12 columns,
    both kinds, m <= 12."""
    digest = hashlib.sha256()
    for kind in ("first", "second"):
        for m in range(13):
            for c in gf_weighted_stirling(kind, m, 12).coeffs:
                digest.update(format_param_poly(c).encode() + b"\n")
    assert digest.hexdigest() == (
        "7e0a082d46abb39718c3f9fa0a0a929044c31fab8a815368a60e29e1f85d555c")


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


def _reference_rows(family, order):
    """n! [t^n] S_j for j <= n <= order, from series products and
    compositions with exp: the route the integer rows replace."""
    def rho_argument(den, sign=1):
        # (1 - e^(-rho t))/rho with den = n!, +-log(1 + rho t)/rho with den = n
        return TruncSeries([0] + [
            ParamPoly.monomial(F(sign if n % 2 else -sign, den(n)), rho=n - 1)
            for n in range(1, order + 1)])

    def scaled(s, c):
        return TruncSeries([a * c for a in s.coeffs])

    if family == "polyBernoulli":
        arg = rho_argument(factorial)
        power = TruncSeries([ParamPoly.monomial(F((-1) ** n, factorial(n)),
                                                z=n)
                             for n in range(order + 1)])
    else:
        arg = rho_argument(lambda n: n, 1 if family == "polyCauchy1" else -1)
        power = _exp(scaled(arg, ParamPoly.monomial(-1, z=1)))
    powers = [power]
    for j in range(1, order + 1):
        power = power * arg
        if family != "polyBernoulli":
            power = scaled(power, F(1, j))
        powers.append(power)
    return [tuple(egf_coefficient(s, n) for s in powers[:n + 1])
            for n in range(order + 1)]


@pytest.mark.parametrize("family", FAMILIES)
def test_integer_rows_equal_the_series_route(fresh_caches, family):
    # entry j of row n is a dense int row of n - j + 1 slots
    rows = [series._gf_row(family, n) for n in range(13)]
    assert [[len(a) for a in row] for row in rows] == [
        list(range(n + 1, 0, -1)) for n in range(13)]
    assert {type(c) for row in rows for a in row for c in a} == {int}
    read = [families._from_rows(row, n) for n, row in enumerate(rows)]
    assert read == _reference_rows(family, 12)
    t_rows = family_gf_t(family, 12)
    for n, (row, t_row) in enumerate(zip(read, t_rows)):
        assert t_row == tuple(a.scale(F(1, factorial(n))) for a in row)


def test_a_row_division_with_a_remainder_raises():
    # the Cauchy rows divide by j; an inexact quotient is a fault, not floored
    row = [4, 0, -6]
    assert series._divexact(row, 2) == [2, 0, -3]
    with pytest.raises(ArithmeticError):
        series._divexact(row, 4)


def test_integer_rows_read_no_stirling_table(monkeypatch, fresh_caches):
    # the gf route, the weighted columns included, is independent of the
    # closed forms' tables
    def refuse(*args):
        raise AssertionError("the gf route read a Stirling table")

    for module in (stirling, families, identities):
        for name in ("weighted_stirling1", "weighted_stirling2", "stirling1",
                     "substitute_weight", "_weighted_row"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for family in FAMILIES:
        assert len(family_gf_t(family, 12)) == 13
    for kind in ("first", "second"):
        assert gf_weighted_stirling(kind, 3, 6).order == 6


def test_gf_orders_share_their_coefficients(fresh_caches):
    # the q-free coefficients are cached per (family, n): two orders share
    # the entries below both
    small = family_gf_t("polyCauchy2", 3)
    large = family_gf_t("polyCauchy2", 9)
    assert len(small) == 4 and len(large) == 10
    assert all(large[n] is small[n] for n in range(4))
    for order in (3, 9, 5):
        s = gf_poly_cauchy2(-1, order)
        assert s.order == order
        for n in range(order + 1):
            assert egf_coefficient(s, n) == poly_cauchy2(n, -1), (order, n)
    assert family_gf("polyCauchy2", -1, 5).coeffs == s.coeffs
    with pytest.raises(ValueError):
        family_gf("nosuch", 1, 2)


def test_first_builds_from_threads_match_one_thread(fresh_caches):
    # four threads build the same table from cold caches at once; a
    # concurrent miss may build a row twice, but every thread must get the
    # rows one thread builds alone
    start = threading.Barrier(4)
    got = []

    def build():
        start.wait()
        try:
            got.append(family_gf_t("polyCauchy1", 30))
        except ArithmeticError as exc:
            got.append(exc)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    fresh_caches()
    assert got == [family_gf_t("polyCauchy1", 30)] * 4


def test_gf_limit_reproduces_classical_numbers():
    s = gf_poly_bernoulli(1, 6)
    for n in range(7):
        v = egf_coefficient(s, n).substitute(rho=F(1), z=F(0))
        got = v.at_q1().constant_term()
        assert got == O.classical_family("polyBernoulli", n, 1)


def test_gf_coefficients_depend_on_expected_slots():
    s = gf_poly_cauchy1(2, 5)
    c = egf_coefficient(s, 4)
    assert c.degree_in("z") == 4
    assert c.degree_in("y") == 0


def test_per_k_gf_text_is_pinned():
    """The canonical text of every order-12 GF coefficient, k = -2..3: its
    coefficients carry non-integral Fractions (1/n! and the like)."""
    digest = hashlib.sha256()
    for build in (gf_poly_bernoulli, gf_poly_cauchy1, gf_poly_cauchy2):
        for k in range(-2, 4):
            for c in build(k, 12).coeffs:
                digest.update(format_param_poly(c).encode() + b"\n")
    assert digest.hexdigest() == (
        "9926e883143f17edd5a816f5de168617e65acc8bd181dd5c705e32c7de7d6947")
