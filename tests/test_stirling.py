"""Stirling layer against enumeration and direct product expansion."""

import random
from fractions import Fraction as F
from math import comb

import pytest

import oracles as O
from qpoly import (
    ParamPoly,
    carlitz_expand,
    stirling1,
    stirling2,
    substitute_weight,
    weighted_stirling1,
    weighted_stirling2,
)
from qpoly.stirling import WeightedStirling, _weighted_row


def _coeff_list(w):
    return [F(c) for c in w.coeffs]


# --- plain Stirling numbers -------------------------------------------------

def test_stirling1_matches_cycle_counts():
    for n in range(8):
        for m in range(n + 2):
            assert stirling1(n, m) == O.stirling1_bruteforce(n, m)


def test_stirling2_matches_partition_counts():
    for n in range(8):
        for m in range(n + 2):
            assert stirling2(n, m) == O.stirling2_bruteforce(n, m)


def test_stirling_rows_match_expansions_to_12():
    for n in range(13):
        prod_row = O.weighted_s1_row(n, 0)
        for m in range(n + 1):
            assert stirling1(n, m) == prod_row[m]
            assert stirling2(n, m) == O.weighted_s2_poly(n, m)[0]


def test_stirling_out_of_range_is_zero():
    assert stirling1(3, 5) == 0
    assert stirling2(3, 5) == 0
    assert stirling1(4, 0) == 0
    assert stirling2(4, 0) == 0
    assert stirling1(0, 0) == 1
    assert stirling2(0, 0) == 1


# --- weighted rows ----------------------------------------------------------

def test_weighted_examples():
    assert _coeff_list(weighted_stirling2(1, 0)) == [0, 1]          # x
    assert _coeff_list(weighted_stirling2(2, 1)) == [1, 2]          # 1 + 2x
    assert _coeff_list(weighted_stirling1(2, 0)) == [0, 1, 1]       # x + x^2
    assert _coeff_list(weighted_stirling1(2, 1)) == [1, 2]          # 1 + 2x
    assert _coeff_list(weighted_stirling1(3, 1)) == [2, 6, 3]


def test_weighted_rows_match_oracles_to_12():
    for n in range(13):
        for m in range(n + 1):
            assert _coeff_list(weighted_stirling1(n, m)) == \
                O.weighted_s1_poly(n, m)
            assert _coeff_list(weighted_stirling2(n, m)) == \
                O.weighted_s2_poly(n, m)


def test_weighted_reduce_to_plain_at_zero_weight():
    for n in range(9):
        for m in range(n + 1):
            assert weighted_stirling1(n, m).coeffs[0] == stirling1(n, m)
            assert weighted_stirling2(n, m).coeffs[0] == stirling2(n, m)


def test_weighted_degree_bound():
    # S(n, m, x) has degree n - m and leading coefficient C(n, m), so a
    # stored entry is never trimmed and a family row never padded
    for second in (False, True):
        for n in range(31):
            for m, w in enumerate(_weighted_row(n, second)):
                assert len(w) == n - m + 1
                assert w[-1] == comb(n, m)


def test_weighted_rejects_bad_indices():
    with pytest.raises(ValueError):
        weighted_stirling1(-1, 0)
    # a negative index would otherwise read the last row built
    for second in (False, True):
        with pytest.raises(ValueError):
            _weighted_row(-1, second)


def test_weighted_rows_hold_the_entries():
    for n in range(9):
        for second, table in ((False, weighted_stirling1),
                              (True, weighted_stirling2)):
            row = _weighted_row(n, second)
            assert isinstance(row, tuple) and len(row) == n + 1
            assert row == tuple(table(n, m).coeffs for m in range(n + 1))


def test_weighted_entry_construction_equality_and_hashing():
    w = WeightedStirling(2, 1, "second", (1, 2))
    assert w == WeightedStirling(n=2, m=1, kind="second", coeffs=(1, 2))
    assert w == weighted_stirling2(2, 1)
    assert hash(w) == hash(weighted_stirling2(2, 1))
    assert w != weighted_stirling1(2, 1)
    assert (w.n, w.m, w.kind, w.coeffs) == (2, 1, "second", (1, 2))
    assert repr(w) == "WeightedStirling(n=2, m=1, kind='second', coeffs=(1, 2))"
    with pytest.raises(AttributeError):
        w.coeffs = (0,)
    with pytest.raises(AttributeError):
        del w.n


# --- Carlitz expansion ------------------------------------------------------

def test_carlitz_expansion_equals_weighted_first_kind():
    for n in range(13):
        for m in range(n + 1):
            assert carlitz_expand(n, m) == weighted_stirling1(n, m)


def test_carlitz_expansion_past_the_row_needs_no_special_case():
    # m > n: the sum over i is empty and trims to the zero polynomial
    assert carlitz_expand(3, 5) == WeightedStirling(3, 5, "first", ())
    assert carlitz_expand(0, 1) == weighted_stirling1(0, 1)


# --- orthogonality, oracle level --------------------------------------------

def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def test_orthogonality_of_oracle_polynomials():
    # both contractions collapse to the identity, exactly in the weight
    for n in range(9):
        for m in range(n + 1):
            acc1 = [F(0)]
            acc2 = [F(0)]
            for l in range(m, n + 1):
                t1 = _poly_mul(O.weighted_s2_poly(n, l), O.weighted_s1_poly(l, m))
                t2 = _poly_mul(O.weighted_s1_poly(n, l), O.weighted_s2_poly(l, m))
                acc1 = _poly_add(acc1, [c * (-1) ** (n - l) for c in t1])
                acc2 = _poly_add(acc2, [c * (-1) ** (l - m) for c in t2])
            want = F(1) if m == n else F(0)
            assert all(c == 0 for c in acc1[1:]) and acc1[0] == want
            assert all(c == 0 for c in acc2[1:]) and acc2[0] == want


# --- inverse pair round-trip ------------------------------------------------

def test_inverse_pair_round_trip_symbolic_weight():
    # f = sum_m (-1)^(n-m) S2(n,m,x) g_m  recovers  g = sum_m S1(n,m,x) f_m
    rng = random.Random(20240817)
    nmax = 8
    g = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(nmax + 1)]
    f = []
    for n in range(nmax + 1):
        acc = ParamPoly.zero()
        for m in range(n + 1):
            s2 = weighted_stirling2(n, m).as_param_poly()
            acc = acc + s2.scale(F((-1) ** (n - m)) * g[m])
        f.append(acc)
    for n in range(nmax + 1):
        acc = ParamPoly.zero()
        for m in range(n + 1):
            s1 = weighted_stirling1(n, m).as_param_poly()
            acc = acc + s1 * f[m]
        assert acc == ParamPoly.const(g[n])


# --- weight substitution ----------------------------------------------------

def test_substitute_weight_spreads_rho_powers():
    got = substitute_weight(weighted_stirling2(2, 1), 1)
    want = ParamPoly.monomial(1, rho=1) + ParamPoly.monomial(2, z=1)
    assert got == want
    flipped = substitute_weight(weighted_stirling2(2, 1), -1)
    want = ParamPoly.monomial(1, rho=1) + ParamPoly.monomial(-2, z=1)
    assert flipped == want


def test_substitute_weight_constant_row():
    got = substitute_weight(weighted_stirling1(3, 3), 1)
    assert got == ParamPoly.const(1)


def test_substitute_weight_refuses_a_bad_degree_or_sign():
    # S2(2, 1, x) has degree <= 1: an x^2 term would need rho^-1
    with pytest.raises(ValueError):
        substitute_weight(WeightedStirling(2, 1, "second", (1, 2, 3)), 1)
    with pytest.raises(ValueError):
        substitute_weight(weighted_stirling2(2, 1), 2)
