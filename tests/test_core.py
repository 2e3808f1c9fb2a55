"""Exact q-arithmetic kernel: QPoly, QRat, ParamPoly, q-operators."""

from fractions import Fraction as F

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as O
import qpoly
from qpoly import (
    FAMILIES,
    DenominatorVanishes,
    ParamPoly,
    QPoly,
    QRat,
    eval_numeric,
    family_t,
    format_param_poly,
    poly_bernoulli,
    q_number,
    q_number_power_inverse,
    specialize,
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


@pytest.mark.parametrize("m", range(6))
def test_depth_zero_needs_no_special_case(m):
    # k = 0 takes the k >= 0 path: the zeroth power of [m+1]_q is 1/1
    t = q_number_power_inverse(m, 0)
    assert (t.num.coeffs, t.den.coeffs) == ((1,), (1,))


def test_depth_zero_values_are_the_plain_t_sums():
    # at k = 0 every t_m is 1; the text is pinned as it was printed when
    # q_number_power_inverse still returned a shared 1/1 for k = 0
    tvalues = [family_t(f, n) for f in FAMILIES for n in range(7)]
    values = [specialize(tv, 0) for tv in tvalues]
    assert values == [sum(tv, ParamPoly.zero()) for tv in tvalues]
    text = "\n".join(map(format_param_poly, values))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "852d3215474760982508d6271e04176df39c16a0010824bc9f90a41d19a452d2")


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


@pytest.mark.parametrize("a, b", [(QPoly(), q_number(3)),
                                  (q_number(3), QPoly()), (QPoly(), QPoly())],
                         ids=["left", "right", "both"])
def test_product_with_an_empty_operand_needs_no_special_case(a, b):
    # the general product trims an empty or all-zero result to 0
    assert (a * b).coeffs == ()


@pytest.mark.parametrize("p", [
    poly_bernoulli(2, 1),
    ParamPoly({(1, 0, 0): F(1, 2), (0, 2, 1): -3}),
], ids=["qrat", "scalar"])
def test_sum_with_zero_needs_no_special_case(p):
    # collecting over an empty side returns the other side's terms
    for total in (ParamPoly.zero() + p, p + ParamPoly.zero(), 0 + p):
        assert total == p and total.terms == p.terms


def test_qrat_evaluate_denominator_root():
    r = QRat(1, QPoly([1, -2]))  # 1/(1 - 2q)
    with pytest.raises(DenominatorVanishes):
        r.evaluate(0.5)
    with pytest.raises(DenominatorVanishes):
        eval_numeric(ParamPoly.monomial(r, z=1), q=0.5, z=1.0)


def test_eval_at_q1_simple_and_singular():
    assert q_number_power_inverse(2, 2).eval_at_q1() == F(1, 9)
    with pytest.raises(DenominatorVanishes):
        QRat(1, QPoly([1, -1])).eval_at_q1()  # 1/(1-q)


@given(r=qrats)
@settings(max_examples=200)
@example(r=QRat(1, QPoly([1, -1])))
@example(r=QRat(QPoly([2, 1]), QPoly([-2, 1, 1])))
def test_eval_at_q1_is_the_value_at_one(r):
    # coefficient sums give what Horner's rule gives at Fraction(1)
    if r.den.evaluate(F(1)):
        assert r.eval_at_q1() == r.evaluate(F(1))
        assert type(r.eval_at_q1()) is F
        return
    with pytest.raises(DenominatorVanishes):
        r.eval_at_q1()
    with pytest.raises(DenominatorVanishes):
        r.evaluate(F(1))


@given(num=int_polys, den=nonzero_polys, h=nonzero_polys)
@settings(max_examples=150)
# one side constant, the other with a leading coefficient other than 1:
# no gcd is needed, but the denominator must still be made monic
@example(num=QPoly([1, 2]), den=QPoly([3]), h=QPoly([1, 1]))
@example(num=QPoly([5]), den=QPoly([2, 4]), h=QPoly([-2, 0, 3]))
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
        assert a * QRat(a.den, a.num) == QRat(1)


q_dependent = int_polys.filter(lambda p: p.degree > 0)


@given(p=int_polys, r=nonzero_polys, s=int_polys, t=nonzero_polys,
       h=q_dependent)
@settings(max_examples=150)
def test_qrat_product_cancels_across_operands(p, r, s, t, h):
    prod = QRat(p * h, r) * QRat(s, h * t)
    assert prod.den.coeffs[-1] == 1
    assert QPoly.gcd(prod.num, prod.den) == ONE_POLY
    # r * h * t has degree at most 9, so one of ten points misses its roots
    q = next(x for x in (F(j, 11) for j in range(1, 11))
             if r.evaluate(x) and (h * t).evaluate(x))
    want = (p * h).evaluate(q) / r.evaluate(q) * s.evaluate(q) / (
        h * t).evaluate(q)
    assert prod.evaluate(q) == want


@given(p=int_polys, r=nonzero_polys, s=int_polys, t=nonzero_polys,
       h=q_dependent)
@settings(max_examples=150)
def test_qrat_sum_cancels_across_operands(p, r, s, t, h):
    total = QRat(p, r * h) + QRat(s, t * h)
    assert total.den.coeffs[-1] == 1
    assert QPoly.gcd(total.num, total.den) == ONE_POLY
    # r * h * t has degree at most 9, so one of ten points misses its roots
    q = next(x for x in (F(j, 11) for j in range(1, 11))
             if (r * h).evaluate(x) and (t * h).evaluate(x))
    want = p.evaluate(q) / (r * h).evaluate(q) + s.evaluate(q) / (
        t * h).evaluate(q)
    assert total.evaluate(q) == want


def test_qrat_sums_that_cancel():
    two = q_number(2)
    # q/[2]_q + 1/[2]_q = 1
    assert QRat(QPoly([0, 1]), two) + QRat(1, two) == QRat(1)
    # 1/(q [2]_q) + 1/[2]_q = 1/q: the shared factor [2]_q cancels
    assert QRat(1, QPoly([0, 1]) * two) + QRat(1, two) == QRat(
        1, QPoly([0, 1]))


# --- coefficient representation ---------------------------------------------

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
fraction_polys = st.lists(small_fractions, max_size=4).map(QPoly)
nonzero_fraction_polys = fraction_polys.filter(lambda p: not p.is_zero())


def _stored_exactly(p):
    """Integral coefficients are ints, the others Fractions; no floats."""
    return all(type(c) is int or (type(c) is F and c.denominator > 1)
               for c in p.coeffs)


def test_integral_coefficients_are_ints():
    assert QPoly([F(1, 2)]) * 2 == QPoly([1])
    assert type((QPoly([F(1, 2)]) * 2).coeffs[0]) is int
    # an integral product of two Fraction polynomials
    prod = QPoly([F(1, 2), F(1, 2)]) * QPoly([2, -2])
    assert prod.coeffs == (1, 0, -1)
    assert all(type(c) is int for c in prod.coeffs)
    r = QRat(QPoly([2, 4]), 3)
    assert r.num.coeffs == (F(2, 3), F(4, 3))
    assert r.den.coeffs == (1,) and type(r.den.coeffs[0]) is int
    assert QPoly().leading == 0 and type(QPoly().leading) is int
    assert type(QPoly([True]).coeffs[0]) is int
    assert repr(QPoly([1, 1])) == "QPoly([1, 1])"
    with pytest.raises(TypeError):
        QPoly([0.5])


@given(a=fraction_polys, b=nonzero_fraction_polys, s=small_fractions)
@settings(max_examples=150)
def test_kernel_stores_no_float(a, b, s):
    prod = a * b
    r = QRat(a, b)
    values = [a, b, prod, a * s, -a, a + b, prod.divexact(b), b.monic(),
              QPoly.gcd(a, b), r.num, r.den]
    if not r.is_zero():
        inv = QRat(r.den, r.num)
        assert inv * r == QRat(1)
        values += [inv.num, inv.den]
    assert prod.divexact(b) == a
    assert all(_stored_exactly(p) for p in values)


# --- gcd against Euclid's algorithm over Fraction -----------------------------

Q3, Q4, Q5, Q7 = (q_number(m) for m in (3, 4, 5, 7))


@pytest.mark.parametrize("a, b, want", [
    (QPoly(), QPoly(), QPoly()),
    (QPoly(), QPoly([2, 4]), QPoly([F(1, 2), 1])),
    (QPoly([F(-3, 2)]), Q3, ONE_POLY),
    (Q4, QPoly([5]), ONE_POLY),
    (QPoly([1, 1]), Q4 * Q3, QPoly([1, 1])),
    (Q3 ** 4 * Q5 ** 3 * Q7 ** 2, Q5 ** 2 * Q7 ** 3 * Q4 ** 3,
     Q5 ** 2 * Q7 ** 2),
], ids=["zeros", "zero-and-b", "constant-a", "constant-b", "shorter-a",
        "degree-20"])
def test_gcd_needs_no_special_case(a, b, want):
    # a zero, a constant and a shorter first operand take the one loop
    g = QPoly.gcd(a, b)
    assert g == want and _stored_exactly(g)
    assert g.coeffs == tuple(O.p_gcd(a.coeffs, b.coeffs))


@given(a=st.one_of(int_polys, fraction_polys),
       b=st.one_of(int_polys, fraction_polys),
       h=st.one_of(nonzero_polys, nonzero_fraction_polys))
@settings(max_examples=200)
@example(a=QPoly(), b=QPoly(), h=QPoly([F(2, 3), 1]))
@example(a=QPoly([F(1, 2)]), b=QPoly([1, -1]), h=ONE_POLY)
@example(a=Q3 ** 4 * Q5 ** 3 * Q7 ** 2, b=Q5 ** 2 * Q7 ** 3 * Q4 ** 3,
         h=ONE_POLY)
def test_gcd_matches_euclid_over_fractions(a, b, h):
    a, b = a * h, b * h
    assert QPoly.gcd(a, b).coeffs == tuple(O.p_gcd(a.coeffs, b.coeffs))


mixed_scalars = st.one_of(
    st.integers(-10**20, 10**20),
    st.fractions(min_value=-50, max_value=50, max_denominator=60))
mixed_polys = st.lists(mixed_scalars.filter(bool), max_size=5).map(QPoly)
# Fraction(n, 1) and True included: they take the exact paths too
nonzero_scalars = st.one_of(mixed_scalars, st.just(True)).filter(bool)


def _storage(p):
    return [(c, type(c)) for c in p.coeffs]


@given(p=mixed_polys, s=nonzero_scalars)
@settings(max_examples=300)
@example(p=QPoly([F(3, 4), 2, F(-5, 6)]), s=F(8, 3))
@example(p=QPoly([6, F(1, 2)]), s=F(4))
@example(p=QPoly([F(1, 6), 9]), s=-12)
@example(p=QPoly(), s=F(2, 3))
def test_scalar_product_matches_the_fraction_route(p, s):
    """Cross-cancelling stores what multiplying through Fraction and
    normalizing in the constructor stores, type included."""
    want = _storage(QPoly([c * s for c in p.coeffs]))
    assert _storage(p * s) == want
    assert _storage(s * p) == want
    assert _stored_exactly(p * s)


t_values = st.lists(
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
        st.one_of(small_ints, small_fractions), max_size=3,
    ).map(lambda d: ParamPoly._raw({e: c for e, c in d.items() if c})),
    max_size=5)


@given(tvalue=t_values, k=st.integers(-3, 3))
@settings(max_examples=150)
def test_specialize_matches_the_per_term_product(tvalue, k):
    """Binding each t_m once gives what multiplying every term by its t_m
    as a QRat gives, coefficient types included."""
    want = ParamPoly._collect((e, q_number_power_inverse(m, k) * c)
                              for m, p in enumerate(tvalue)
                              for e, c in p.terms.items())
    got = specialize(tvalue, k)
    assert got == want
    for e, c in got.terms.items():
        assert _storage(c.num) == _storage(want.terms[e].num)
        assert _storage(c.den) == _storage(want.terms[e].den)


def test_specialize_refuses_a_q_dependent_t_value():
    for k in (-1, 1):
        with pytest.raises(TypeError):
            specialize([ParamPoly.const(QRat(1, q_number(2)))], k)


# --- ParamPoly --------------------------------------------------------------

# each builds a one-term ParamPoly from a coefficient and reads it back
COEFFICIENT_BUILDERS = {
    "init": lambda v: ParamPoly({(0, 1, 0): v}).coefficient(z=1),
    "const": lambda v: ParamPoly.const(v).constant_term(),
    "monomial": lambda v: ParamPoly.monomial(v, z=1).coefficient(z=1),
    "scale": lambda v: ParamPoly.monomial(1, z=1).scale(v).coefficient(z=1),
    # (1/2) z * 2v and (1/2) z + v z - (1/2) z: an integral v sums to an
    # integral Fraction, which is read back as an int
    "product": lambda v: (ParamPoly.monomial(F(1, 2), z=1)
                          * ParamPoly.const(2 * v)).coefficient(z=1),
    "sum": lambda v: (ParamPoly.monomial(F(1, 2), z=1)
                      + ParamPoly.monomial(v, z=1)
                      + ParamPoly.monomial(F(-1, 2), z=1)).coefficient(z=1),
}
INV_2 = QRat(1, QPoly([1, 1]))


@pytest.mark.parametrize("build", sorted(COEFFICIENT_BUILDERS))
@pytest.mark.parametrize("value, stored", [
    (3, 3), (True, 1), (F(1, 2), F(1, 2)), (F(4, 2), 2),
    (QPoly([1, 1]), QRat(QPoly([1, 1]))), (INV_2, INV_2),
    # a zero of any kind is not stored; the missing term reads 0
    (0, 0), (F(0), 0), (QPoly(), 0), (QRat(0), 0),
    (0.5, TypeError), (1.0, TypeError), ("1", TypeError),
])
def test_param_poly_coefficient_kinds(build, value, stored):
    """Exact scalars are stored as scalars, a QPoly is lifted to a QRat,
    and an inexact value is refused."""
    if stored is TypeError:
        with pytest.raises(TypeError):
            COEFFICIENT_BUILDERS[build](value)
        return
    got = COEFFICIENT_BUILDERS[build](value)
    assert got == stored and type(got) is type(stored)


def test_param_poly_scalar_equals_q_free_qrat():
    for value in (3, F(-1, 2)):
        a, b = ParamPoly.const(value), ParamPoly.const(QRat(value))
        assert a == b and hash(a) == hash(b)
        assert a.sorted_terms() == b.sorted_terms()
        assert type(a.sorted_terms()[0][1]) is QRat


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


kernel_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    st.one_of(small_ints, small_fractions, qrats), max_size=3,
).map(ParamPoly)


@given(pairs=st.lists(st.tuples(kernel_polys, kernel_polys), max_size=4))
@settings(max_examples=150)
@example(pairs=[])
def test_sum_of_products_matches_the_pairwise_sum(pairs):
    """One collect over every product term gives the sum of the products
    built one at a time, with no zero coefficient stored; pairs that
    cancel leave the zero value."""
    got = ParamPoly.sum_of_products(pairs)
    assert got == sum((a * b for a, b in pairs), ParamPoly.zero())
    assert all(got.terms.values())
    mirrored = pairs + [(-a, b) for a, b in pairs]
    assert ParamPoly.sum_of_products(mirrored) == ParamPoly.zero()


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


def test_eval_numeric_matches_the_per_term_sum_bit_for_bit():
    # the terms share few denominators, which are evaluated once each
    value = poly_bernoulli(25, 3)
    assert len({c.den for c in value.terms.values()}) < len(value.terms)
    q, rho, z = 0.7, 2.0, 0.33
    total = 0.0
    for e, c in value.sorted_terms():
        term = c.evaluate(q)
        if e[0]:
            term *= rho ** e[0]
        if e[1]:
            term *= z ** e[1]
        total += term
    assert eval_numeric(value, q=q, rho=rho, z=z) == total


# --- the public API ---------------------------------------------------------

# every name the package exports, so that one is added or dropped only on
# purpose
PUBLIC_NAMES = """
DenominatorVanishes FAMILIES IDENTITY_IDS IdentityReport NonZeroConstantTerm
NonconvergedTruncation OracleConfig ParamPoly QPoly QRat QuadResult TruncSeries
WeightedStirling check_inverse_relations check_kind_reciprocity
check_mixed_expansions check_orthogonality classical_number egf_coefficient
eval_numeric family_gf family_gf_t family_t family_value format_param_poly
format_qpoly gf_poly_bernoulli gf_poly_cauchy1 gf_poly_cauchy2
gf_weighted_stirling jackson_integral_1d latex_param_poly latex_qrat
oracle_family parse_param_poly parse_qpoly poly_bernoulli poly_cauchy1
poly_cauchy2 q_number q_number_power_inverse report_record
reports_to_json_lines run_gf_sweep run_identity_sweep series_compose specialize
stirling1 stirling2 substitute_weight weighted_stirling1 weighted_stirling2
""".split()


def test_public_names_are_pinned():
    assert qpoly.__all__ == PUBLIC_NAMES
