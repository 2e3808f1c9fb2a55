"""Identity battery: orthogonality, inversion, reciprocity, mixed sums."""

import json
from fractions import Fraction as F

import pytest

import qpoly.identities as identities
from qpoly import (
    IDENTITY_IDS,
    IdentityReport,
    ParamPoly,
    WeightedStirling,
    check_inverse_relations,
    check_kind_reciprocity,
    check_mixed_expansions,
    check_orthogonality,
    poly_cauchy1,
    poly_cauchy2,
    parse_param_poly,
    reports_to_json_lines,
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


def test_sweep_can_skip_orthogonality():
    reports = run_identity_sweep(nmax=2, nmax_mixed=2, k_values=(1,),
                                 include_orthogonality=False)
    assert not any(r.identity_id.startswith("ORTHO") for r in reports)


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
    """Make the identities see g_n(z) + z^n in place of g_n(z)."""
    true_value = identities.poly_cauchy2
    monkeypatch.setattr(
        identities, "poly_cauchy2",
        lambda n, k, slot="z": true_value(n, k, slot)
        + ParamPoly.monomial(1, z=n))


def test_reciprocity_failure_witness_is_the_exact_difference(monkeypatch):
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


def test_orthogonality_failure_names_the_column(monkeypatch):
    true_entry = identities.weighted_stirling2

    def bumped(n, m):
        # S2(2, 1, x) = 1 + 2x becomes 2 + 2x
        w = true_entry(n, m)
        if (n, m) != (2, 1):
            return w
        return WeightedStirling(n, m, w.kind, (w.coeffs[0] + 1,) + w.coeffs[1:])

    monkeypatch.setattr(identities, "weighted_stirling2", bumped)
    reports = check_orthogonality(2)
    assert [r.status for r in reports] == ["failed", "failed"]
    # ORTHO_1 meets the bump at m = 0 through -S1(1, 0, x) = -x, ORTHO_2
    # at m = 1 through -S1(2, 2, x) = -1
    assert [r.witness for r in reports] == ["m=0: (-1)/(1)*z^1",
                                            "m=1: (-1)/(1)"]


def test_verify_exits_1_when_a_check_fails(monkeypatch, capsys):
    _perturb_cauchy2(monkeypatch)
    code = main(["verify", "--scope", "identities", "--nmax", "2",
                 "--k", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "checks failed" in captured.err
    failed = [json.loads(line) for line in captured.out.splitlines()
              if json.loads(line)["status"] == "failed"]
    assert failed and all(r["witness"] for r in failed)
