"""Identity battery: orthogonality, inversion, reciprocity, mixed sums."""

import hashlib
import json
from fractions import Fraction as F
from functools import lru_cache
from math import factorial

import pytest

import oracles as O
import qpoly.families as families
import qpoly.identities as identities
import qpoly.series as series
import qpoly.stirling as stirling
from conftest import bump_weight, use_fresh_caches
from qpoly import (
    IDENTITY_IDS,
    IdentityReport,
    ParamPoly,
    QPoly,
    QRat,
    check_inverse_relations,
    check_kind_reciprocity,
    check_mixed_expansions,
    check_orthogonality,
    poly_cauchy1,
    poly_cauchy2,
    parse_param_poly,
    reports_to_json_lines,
    run_gf_sweep,
    run_identity_sweep,
)
from qpoly.cli import main


def test_identity_id_catalogue():
    assert set(IDENTITY_IDS) == {
        "T5_201", "T5_202", "T5_203", "T6_301", "T6_302",
        "T7_1", "T7_2", "T7_3", "T7_4", "ORTHO_1", "ORTHO_2",
    }


def test_orthogonality_small():
    for n in range(7):
        for r in check_orthogonality(n):
            assert r.status == "verified", (r.identity_id, n, r.witness)
            assert r.k is None


def test_inverse_relations_small():
    for n in range(6):
        for k in (-2, 0, 1, 3):
            for r in check_inverse_relations(n, k):
                assert r.status == "verified", (r.identity_id, n, k, r.witness)


def test_kind_reciprocity_small():
    for n in range(1, 6):
        for k in (-2, 0, 1, 3):
            for r in check_kind_reciprocity(n, k):
                assert r.status == "verified", (r.identity_id, n, k, r.witness)


def test_kind_reciprocity_order_one():
    # at n = 1 the relation collapses to a plain sign flip
    for k in range(-2, 4):
        assert poly_cauchy1(1, k).scale(-1) == poly_cauchy2(1, k)


def test_kind_reciprocity_needs_positive_order():
    with pytest.raises(ValueError):
        check_kind_reciprocity(0, 1)


def test_mixed_expansions_small():
    for n in range(5):
        for k in (-1, 0, 2):
            for r in check_mixed_expansions(n, k):
                assert r.status == "verified", (r.identity_id, n, k, r.witness)


def test_sweep_shape_and_status():
    reports = run_identity_sweep(nmax=4, nmax_mixed=3, k_values=(-1, 1))
    assert all(r.status == "verified" for r in reports)
    seen = {r.identity_id for r in reports}
    assert seen == set(IDENTITY_IDS)
    for r in reports:
        if r.identity_id.startswith("ORTHO"):
            assert r.k is None
        else:
            assert r.k in (-1, 1)
    # counts follow the sweep grid
    ortho = [r for r in reports if r.identity_id.startswith("ORTHO")]
    t5 = [r for r in reports if r.identity_id.startswith("T5")]
    t6 = [r for r in reports if r.identity_id.startswith("T6")]
    t7 = [r for r in reports if r.identity_id.startswith("T7")]
    assert len(ortho) == 2 * 5
    assert len(t5) == 3 * 5 * 2
    assert len(t6) == 2 * 4 * 2
    assert len(t7) == 4 * 4 * 2


def test_sweep_order_is_deterministic():
    a = run_identity_sweep(nmax=3, nmax_mixed=2, k_values=(0, 1))
    b = run_identity_sweep(nmax=3, nmax_mixed=2, k_values=(0, 1))
    assert a == b


def test_json_lines_round_trip():
    reports = run_identity_sweep(nmax=2, nmax_mixed=1, k_values=(1,))
    text = reports_to_json_lines(reports)
    lines = text.splitlines()
    assert len(lines) == len(reports)
    for line, r in zip(lines, reports):
        rec = json.loads(line)
        assert rec == {"identity": r.identity_id, "n": r.n, "k": r.k,
                       "status": r.status, "witness": r.witness}


def test_json_lines_carry_failure_witness():
    made_up = IdentityReport("T5_201", 3, 1, "failed", "(1)/(1)*z^1")
    rec = json.loads(reports_to_json_lines([made_up]))
    assert rec["status"] == "failed"
    assert rec["witness"] == "(1)/(1)*z^1"


def _perturb_cauchy2(monkeypatch):
    """Make the identities see g_n(z) + z^n in place of g_n(z). The checks
    read each family in the t-basis as dense rows through
    identities._t_rows; t_0 = 1 at every k, so adding z^n, index n of
    entry 0, to the t_0 component adds z^n to the value."""
    true_rows = identities._t_rows

    def perturbed(family, n):
        rows = true_rows(family, n)
        if family != "polyCauchy2":
            return rows
        return (rows[0][:n] + (rows[0][n] + 1,),) + rows[1:]

    monkeypatch.setattr(identities, "_t_rows", perturbed)


def test_reciprocity_failure_witness_is_the_exact_difference(monkeypatch,
                                                             fresh_caches):
    _perturb_cauchy2(monkeypatch)
    reports = check_kind_reciprocity(2, 1)
    assert [r.status for r in reports] == ["failed", "failed"]
    # T6_301's right side gains C(1, m-1) rho^(2-m) z^m / m! for m = 1, 2;
    # T6_302's left side gains z^2 / 2!
    expected = {
        "T6_301": -(ParamPoly.monomial(1, rho=1, z=1)
                    + ParamPoly.monomial(F(1, 2), z=2)),
        "T6_302": ParamPoly.monomial(F(1, 2), z=2),
    }
    for r in reports:
        assert parse_param_poly(r.witness) == expected[r.identity_id]


def test_a_planted_fault_reaches_the_memoized_t7_inner_sums(monkeypatch,
                                                            fresh_caches):
    # the T7 inner sums are the inverse left sides, cached per n and read
    # with z renamed y; T7_2 reads g_l(y) only through them, so its failure
    # shows that the plant reaches them
    _perturb_cauchy2(monkeypatch)
    assert [(r.identity_id, r.status) for r in check_mixed_expansions(2, 1)] \
        == [("T7_1", "verified"), ("T7_2", "failed"),
            ("T7_3", "verified"), ("T7_4", "failed")]


def test_rescaled_t7_witnesses_are_the_differences(monkeypatch,
                                                    fresh_caches):
    # T7_4 is built times n! and its witness divided back; T7_2 is built
    # unscaled. The texts are those of the differences themselves. T7_2
    # meets the plant only in its inner sums, as g_l(y) + y^l.
    _perturb_cauchy2(monkeypatch)
    at = {(n, k): {r.identity_id: r.witness
                   for r in check_mixed_expansions(n, k)}
          for n, k in ((2, 1), (3, -1))}
    assert at[2, 1]["T7_4"] == "(1)/(1)*z^2"
    assert at[3, -1]["T7_4"] == "(1)/(1)*z^3"
    assert at[3, -1]["T7_2"] == (
        "(1)/(1)*z^3 + (6)/(1)*rho^1*z^1*y^1 + (12)/(1)*rho^2*y^1")


def test_every_t_difference_is_built_in_integers(monkeypatch, fresh_caches):
    # the bodies hand int rows and an int scale to the reader, _dense,
    # which alone divides; a planted fault makes the differences nonzero,
    # so the rows of a failing difference are checked as well
    _perturb_cauchy2(monkeypatch)
    scalars = [c for fam in ("polyBernoulli", "polyCauchy1", "polyCauchy2")
               for n in range(11) for row in identities._t_rows(fam, n)
               for c in row]
    scalars += [c for n in range(11) for lhs in identities._inverse_lhs(n)
                for row in lhs for c in row]
    true_dense, handed = identities._dense, []

    def recorded(rows, n, scale=1):
        handed.append((n, scale))
        scalars.extend(c for row in rows for c in row)
        scalars.append(scale)
        return true_dense(rows, n, scale)

    monkeypatch.setattr(identities, "_dense", recorded)
    for body, ns in ((identities._inverse_t, range(11)),
                     (identities._reciprocity_t, range(1, 11)),
                     (identities._mixed_t, range(9))):
        out = [p for n in ns for row in body(n) for p in row]
        assert any(p.terms for p in out), body.__name__
    assert {type(c) for c in scalars} == {int}
    # T5, T7_1 and T7_2 are read as they are; T6, T7_3, T7_4 times n!
    assert set(handed) == ({(n, 1) for n in range(11)}
                           | {(n, factorial(n)) for n in range(11)})


def test_t5_and_t7_share_one_inverse_left_side_per_n(monkeypatch,
                                                      fresh_caches):
    # the T7 inner sums are the T5 left sides with z renamed y, so a sweep
    # over both builds each left side once; T5 stops at n = 6 here, so the
    # builds at 7 and 8 come from T7 alone
    calls = []
    true_lhs = identities._inverse_lhs.__wrapped__

    @lru_cache(maxsize=None)
    def counted(n):
        calls.append(n)
        return true_lhs(n)

    monkeypatch.setattr(identities, "_inverse_lhs", counted)
    run_identity_sweep(nmax=6, nmax_mixed=8, k_values=(-1, 2))
    assert calls == list(range(9))


def test_a_fault_planted_in_fresh_caches_leaves_the_shared_ones_clean():
    # the plant fails T5, T6 and T7 in caches of their own; once it is
    # undone, the same checks read the shared caches, which never saw it
    def failed():
        return [r.identity_id for check in (check_inverse_relations,
                                            check_kind_reciprocity,
                                            check_mixed_expansions)
                for r in check(2, 1) if r.status == "failed"]

    with pytest.MonkeyPatch.context() as patch:
        use_fresh_caches(patch)
        _perturb_cauchy2(patch)
        assert failed() == ["T5_203", "T6_301", "T6_302", "T7_2", "T7_4"]
    assert failed() == []


def test_verdict_judges_the_t_difference_at_k():
    # t_0 - t_1 = 1 - [2]_q^(-k) is nonzero with t formal but 0 at k = 0
    def body(n):
        return ((ParamPoly.const(1), ParamPoly.const(-1)),)

    assert identities._verdicts(("T5_201",), 1, 0, body) == [
        IdentityReport("T5_201", 1, 0, "verified")]
    [failed] = identities._verdicts(("T5_201",), 1, 1, body)
    assert failed.status == "failed"
    # 1 - 1/(1 + q) = q/(1 + q)
    assert failed.witness == "(1*q^1)/(1 + 1*q^1)"
    assert parse_param_poly(failed.witness) == ParamPoly.const(
        QRat(QPoly([0, 1]), QPoly([1, 1])))


def test_orthogonality_failure_names_the_column(monkeypatch):
    # S2(2, 1, x) = 1 + 2x becomes 2 + 2x
    bump_weight(monkeypatch, identities, 2, 1, second=True)
    reports = check_orthogonality(2)
    assert [r.status for r in reports] == ["failed", "failed"]
    # ORTHO_1 meets the bump at m = 0 through -S1(1, 0, x) = -x, ORTHO_2
    # at m = 1 through -S1(2, 2, x) = -1
    assert [r.witness for r in reports] == ["m=0: (-1)/(1)*z^1",
                                            "m=1: (-1)/(1)"]


def test_verify_exits_1_when_a_check_fails(monkeypatch, capsys, fresh_caches):
    _perturb_cauchy2(monkeypatch)
    code = main(["verify", "--scope", "identities", "--nmax", "2",
                 "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "checks failed" in captured.err
    failed = [json.loads(line) for line in captured.out.splitlines()
              if json.loads(line)["status"] == "failed"]
    assert failed and all(r["witness"] for r in failed)


def test_a_cold_identity_sweep_builds_no_weighted_stirling(monkeypatch,
                                                           fresh_caches):
    # the q-free layer reads whole rows of the triangle, never one
    # WeightedStirling per entry
    calls = []
    true_weighted = stirling._weighted

    def counted(*args, **kwargs):
        calls.append(args)
        return true_weighted(*args, **kwargs)

    families.family_t.cache_clear()
    families._t_rows.cache_clear()
    monkeypatch.setattr(stirling, "_weighted", counted)
    try:
        reports = run_identity_sweep()
    finally:
        families.family_t.cache_clear()
        families._t_rows.cache_clear()
    assert {r.status for r in reports} == {"verified"}
    assert calls == []


def test_a_planted_stirling_fault_fails_the_same_records_at_scale(
        monkeypatch, capsys, fresh_caches):
    # S1(6, 3, x) with its constant coefficient bumped by 1 fails 27
    # records across ORTHO_1, ORTHO_2, T5_201, T7_3 and T7_4; the whole
    # stdout, witnesses included, is pinned
    bump_weight(monkeypatch, identities, 6, 3, second=False)
    code = main(["verify", "--scope", "identities", "--nmax", "10",
                 "--k=-1,1"])
    out = capsys.readouterr().out
    assert code == 1
    failed = [json.loads(line) for line in out.splitlines()
              if json.loads(line)["status"] == "failed"]
    assert len(failed) == 27
    assert {r["identity"] for r in failed} == {
        "ORTHO_1", "ORTHO_2", "T5_201", "T7_3", "T7_4"}
    assert len(out.encode()) == 31905
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9338b8ea3b35f0e0e02fed717589ab00f3f3840ac88064c3368f7c433eed34c9")


def test_a_gf_row_of_the_wrong_length_is_refused(monkeypatch, fresh_caches):
    # entry 1 of gf row 3 has 3 slots; a fourth, even a zero one, is a
    # fault that the sweep refuses, not a slot it drops into a pass
    true_row = series._gf_row

    def planted(family, n):
        row = true_row(family, n)
        if (family, n) != ("polyCauchy1", 3):
            return row
        return row[:1] + (row[1] + (0,),) + row[2:]

    monkeypatch.setattr(series, "_gf_row", planted)
    with pytest.raises(ValueError, match="zip"):
        run_gf_sweep(3, [0])


def _homogenized(coeffs, degree, sign=1):
    """rho^degree p(sign*z/rho) for p with the given coefficients in x."""
    return ParamPoly({(degree - i, i, 0): c * sign ** i
                      for i, c in enumerate(coeffs)})


def _assert_lhs_is_a_row_sum(relation, outer, inner, sign, weight):
    """Entry j of the inverse relation's left side at n <= 10 is
    sum_l weight(n, l, j) rho^(n-j) S_outer(n, l, x) S_inner(l, j, x) at
    x = sign*z/rho, here built from the stdlib oracle's Stirling
    polynomials."""
    for n in range(11):
        lhs = identities._inverse_lhs(n)[relation]
        for j in range(n + 1):
            rhs = ParamPoly.zero()
            for l in range(j, n + 1):
                rhs = rhs + (_homogenized(outer(n, l), n - l, sign)
                             * _homogenized(inner(l, j), l - j, sign)
                             ).scale(weight(n, l, j))
            got = ParamPoly({(n - j - b, b, 0): c
                             for b, c in enumerate(lhs[j])})
            assert got == rhs, (n, j)


def test_t5_201_left_side_is_the_ortho_2_row_sum():
    # B_m = sum_j t_j j! (-rho)^(m-j) S2(m, j, z/rho), so T5_201's left
    # side at t_j is j! rho^(n-j) sum_l (-1)^(l-j) S1(n, l, x) S2(l, j, x)
    # at x = z/rho: ORTHO_2's row sum at (n, j) without its delta
    _assert_lhs_is_a_row_sum(
        0, O.weighted_s1_poly, O.weighted_s2_poly, 1,
        lambda n, l, j: (-1) ** (l - j) * factorial(j))


@pytest.mark.parametrize("relation, sign", [(1, 1), (2, -1)],
                         ids=["T5_202", "T5_203"])
def test_t5_202_and_t5_203_left_sides_are_the_ortho_1_row_sums(relation,
                                                                sign):
    # c_m = sum_j t_j (-rho)^(m-j) S1(m, j, z/rho), so T5_202's left side
    # at t_j is (-1)^(n-j) rho^(n-j) times ORTHO_1's row sum at (n, j),
    # sum_l (-1)^(n-l) S2(n, l, x) S1(l, j, x), at x = z/rho; with
    # g_m = (-1)^m sum_j t_j rho^(m-j) S1(m, j, -z/rho), T5_203's is
    # (-1)^n rho^(n-j) times the same sum at x = -z/rho
    def weight(n, l, j):
        return (-1) ** (n - l) * (-1) ** (n if sign < 0 else n - j)

    _assert_lhs_is_a_row_sum(relation, O.weighted_s2_poly,
                             O.weighted_s1_poly, sign, weight)
