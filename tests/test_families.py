"""Closed-form families: frozen values, degenerations, two-form agreement."""

from fractions import Fraction as F
from math import factorial

import pytest

import oracles as O
import qpoly.families as families
import qpoly.identities as identities
from conftest import bump_weight
from qpoly import (
    FAMILIES,
    ParamPoly,
    QRat,
    classical_number,
    family_gf_t,
    family_t,
    family_value,
    format_param_poly,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
    specialize,
    substitute_weight,
    weighted_stirling1,
    weighted_stirling2,
)

# limits of the three families at q -> 1, rho = 1, z = 0, depth k = 1,
# frozen from the series oracle in oracles.py
CLASSICAL_K1 = {
    "polyBernoulli": [F(1), F(1, 2), F(1, 6), F(0), F(-1, 30), F(0),
                      F(1, 42), F(0), F(-1, 30), F(0), F(5, 66)],
    "polyCauchy1": [F(1), F(1, 2), F(-1, 6), F(1, 4), F(-19, 30), F(9, 4),
                    F(-863, 84), F(1375, 24), F(-33953, 90), F(57281, 20),
                    F(-3250433, 132)],
    "polyCauchy2": [F(1), F(-1, 2), F(5, 6), F(-9, 4), F(251, 30),
                    F(-475, 12), F(19087, 84), F(-36799, 24),
                    F(1070017, 90), F(-2082753, 20), F(134211265, 132)],
}

# deeper and negative depths, same limit, frozen from the series oracle
CLASSICAL_SPOT = {
    ("polyBernoulli", 2): [F(1), F(1, 4), F(-1, 36), F(-1, 24), F(7, 450),
                           F(1, 40), F(-38, 2205)],
    ("polyCauchy1", -2): [F(1), F(4), F(5), F(-3), F(4), F(-8), F(20)],
    ("polyCauchy2", 3): [F(1), F(-1, 8), F(35, 216), F(-217, 576),
                         F(135989, 108000), F(-236881, 43200),
                         F(435876493, 14817600)],
}

# canonical text of the first symbolic values, checked by hand
SYMBOLIC_K1 = {
    ("polyBernoulli", 1): "(1)/(1 + 1*q^1) + (-1)/(1)*z^1",
    ("polyBernoulli", 2): "(2)/(1 + 1*q^1 + 1*q^2) + (-2)/(1 + 1*q^1)*z^1"
                          " + (1)/(1)*z^2 + (-1)/(1 + 1*q^1)*rho^1",
    ("polyCauchy1", 1): "(1)/(1 + 1*q^1) + (-1)/(1)*z^1",
    ("polyCauchy1", 2): "(1)/(1 + 1*q^1 + 1*q^2) + (-2)/(1 + 1*q^1)*z^1"
                        " + (1)/(1)*z^2 + (-1)/(1 + 1*q^1)*rho^1"
                        " + (1)/(1)*rho^1*z^1",
    ("polyCauchy2", 1): "(-1)/(1 + 1*q^1) + (1)/(1)*z^1",
    ("polyCauchy2", 2): "(1)/(1 + 1*q^1 + 1*q^2) + (-2)/(1 + 1*q^1)*z^1"
                        " + (1)/(1)*z^2 + (1)/(1 + 1*q^1)*rho^1"
                        " + (-1)/(1)*rho^1*z^1",
}


def test_frozen_classical_values_k1():
    for fam, row in CLASSICAL_K1.items():
        for n, want in enumerate(row):
            assert classical_number(fam, n, 1) == want, (fam, n)


def test_frozen_classical_spot_values():
    for (fam, k), row in CLASSICAL_SPOT.items():
        for n, want in enumerate(row):
            assert classical_number(fam, n, k) == want, (fam, n, k)


def test_classical_grid_matches_series_oracle():
    for fam in FAMILIES:
        for k in range(-2, 4):
            for n in range(11):
                assert classical_number(fam, n, k) == \
                    O.classical_family(fam, n, k), (fam, n, k)


def test_general_parameter_limit_matches_series_oracle():
    for fam in FAMILIES:
        for k in (-1, 2):
            for rho in (F(2), F(-1, 2)):
                for n in range(7):
                    v = family_value(fam, n, k).substitute(rho=rho, z=F(1, 3))
                    got = v.at_q1().constant_term()
                    want = O.classical_family(fam, n, k, rho=rho, z=F(1, 3))
                    assert got == want, (fam, n, k, rho)


# exact (q, rho, z) points for the q-dependence check
Q_POINTS = ((F(1, 3), F(2), F(1, 5)), (F(7, 10), F(-1, 2), F(2, 3)))


@pytest.mark.parametrize("family", FAMILIES)
def test_q_dependence_matches_exact_oracle(family):
    """Each value at exact q, rho, z, term by term through QRat.evaluate,
    against the stdlib oracle: Jackson moments for the Cauchy kinds, the
    oracle's own weighted S2 for the Bernoulli type."""
    for q, rho, z in Q_POINTS:
        for k in range(-2, 4):
            for n in range(11):
                value = family_value(family, n, k)
                got = sum(c.evaluate(q) * rho ** e[0] * z ** e[1]
                          for e, c in value.sorted_terms())
                assert got == O.q_family(family, n, k, q, rho, z), (n, k, q)


def test_symbolic_low_order_forms():
    fns = {"polyBernoulli": poly_bernoulli, "polyCauchy1": poly_cauchy1,
           "polyCauchy2": poly_cauchy2}
    for (fam, n), want in SYMBOLIC_K1.items():
        assert format_param_poly(fns[fam](n, 1)) == want


def test_order_one_coincidences():
    # B_1 and c_1 agree for every depth; the second kind is the negative
    for k in range(-2, 4):
        assert poly_bernoulli(1, k) == poly_cauchy1(1, k)
        assert poly_cauchy2(1, k) == poly_cauchy1(1, k).scale(-1)


def test_order_zero_is_one():
    for fam in FAMILIES:
        for k in range(-2, 4):
            assert family_value(fam, 0, k) == ParamPoly.const(1)


def test_depth_zero_products():
    # at k = 0 both Cauchy kinds collapse to factorial-style products
    z = ParamPoly.monomial(1, z=1)
    rho = ParamPoly.monomial(1, rho=1)
    one = ParamPoly.const(1)
    for n in range(7):
        first = one
        second = one
        for j in range(n):
            first = first * (one - z - rho.scale(j))
            second = second * (z - one - rho.scale(j))
        assert poly_cauchy1(n, 0) == first
        assert poly_cauchy2(n, 0) == second
        assert classical_number("polyBernoulli", n, 0) == 1


def test_degrees():
    for fam in FAMILIES:
        for n in range(1, 7):
            v = family_value(fam, n, 2)
            assert v.degree_in("z") == n
            assert v.degree_in("rho") == n - 1
            assert v.degree_in("y") == 0


def test_kaneko_duality_at_q1():
    # B_n^(-k) = B_k^(-n) (M. Kaneko, J. Theor. Nombres Bordeaux 9, 1997)
    # anchors q = 1 only: the q-analog breaks it already at n = 3, k = 2
    for n in range(9):
        for k in range(9):
            assert classical_number("polyBernoulli", n, -k) == \
                classical_number("polyBernoulli", k, -n), (n, k)
    at_rho1_z0 = [poly_bernoulli(a, b).substitute(rho=1, z=0)
                  for a, b in ((3, -2), (2, -3))]
    assert at_rho1_z0[0] != at_rho1_z0[1]


def test_from_rows_divides_a_scaled_row_back_and_reads_scale_1_as_is():
    for fam in FAMILIES:
        for n in range(8):
            rows = families._t_rows(fam, n)
            scaled = [[factorial(n) * c for c in row] for row in rows]
            assert families._from_rows(scaled, n, factorial(n)) == \
                families._from_rows(rows, n) == family_t(fam, n)
    # an inexact quotient is a Fraction, and scale 1 keeps the very ints
    big = 10 ** 40 + 1
    [p] = families._from_rows(((big, 0, -3),), 2)
    assert p.terms[2, 0, 0] is big and p.terms[0, 2, 0] == -3
    [p] = families._from_rows(((big, 0, -3),), 2, 2)
    assert p.terms == {(2, 0, 0): F(big, 2), (0, 2, 0): F(-3, 2)}


def test_renaming_z_to_y_moves_the_weight():
    # the T7 inner sums read the z-built dense rows as rows in y: entry j
    # holds its y^c term at index c*(n-j+1)
    for fam in FAMILIES:
        rows = [[x for c in row for x in (c,) + (0,) * (3 - j)]
                for j, row in enumerate(identities._t_rows(fam, 3))]
        v = specialize(identities._dense(rows, 3), 1)
        assert v.degree_in("y") == 3
        assert v.degree_in("z") == 0
        base = family_value(fam, 3, 1)
        remapped = {(r, 0, ze): c for (r, ze, _), c in base.sorted_terms()}
        assert dict(v.sorted_terms()) == remapped


def _kinds(values):
    return {type(c) for p in values for c in p.terms.values()}


def test_t_basis_is_q_free_and_specialize_binds_q():
    weights = [substitute_weight(table(5, m), sign)
               for table in (weighted_stirling1, weighted_stirling2)
               for m in range(6) for sign in (1, -1)]
    assert _kinds(weights) == {int}
    for fam in FAMILIES:
        tvalues = [p for n in range(7) for p in family_t(fam, n)]
        assert _kinds(tvalues) == {int}
        gf = family_gf_t(fam, 6)
        assert _kinds(c for entry in gf for c in entry) <= {int, F}
        for k in (-1, 0, 2):
            assert _kinds([specialize(family_t(fam, 5), k)]) == {QRat}
            assert _kinds([specialize(gf[4], k)]) == {QRat}


def test_a_row_weight_past_its_degree_bound_is_refused(monkeypatch,
                                                       fresh_caches):
    # the row path keeps the entry path's degree check: S1(3, 3, x) = 1
    # read as 1 + x would give P_{3,3} a rho^-1 term
    true_row = families._weighted_row

    def padded(n, second):
        row = true_row(n, second)
        return row[:n] + (row[n] + (1,),)

    monkeypatch.setattr(families, "_weighted_row", padded)
    with pytest.raises(ValueError, match="exceeds"):
        families._t_rows("polyCauchy1", 3)


def test_specialize_looks_up_no_t_m_for_empty_terms(monkeypatch):
    # every passing identity verdict specializes an all-empty t-difference
    def refuse(m, k):
        raise AssertionError("t_%d looked up" % m)

    monkeypatch.setattr(families, "q_number_power_inverse", refuse)
    for k in (-2, 0, 3):
        assert specialize((ParamPoly.zero(),) * 5, k).is_zero()


def test_the_double_sum_rows_catch_a_planted_closed_form_fault(
        monkeypatch, fresh_caches):
    # S1(6, 3, x) with its constant coefficient bumped by 1, read by the
    # closed forms alone: criterion 6's row check fails at n = 6 only
    bump_weight(monkeypatch, families, 6, 3, second=False)
    for fam in ("polyCauchy1", "polyCauchy2"):
        assert families._t_rows(fam, 5) == O.cauchy_double_sum_rows(fam, 5)
        assert families._t_rows(fam, 6) != O.cauchy_double_sum_rows(fam, 6)


def test_family_value_dispatch_and_errors():
    assert family_value("polyBernoulli", 2, 1) == poly_bernoulli(2, 1)
    with pytest.raises(ValueError):
        family_value("nosuch", 1, 1)
    with pytest.raises(ValueError):
        poly_bernoulli(-1, 1)
