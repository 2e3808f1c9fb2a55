"""Command-line surface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from conftest import bump_weight
from qpoly import (
    QPoly,
    QRat,
    eval_numeric,
    families,
    identities,
    parse_param_poly,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
    series,
)
from qpoly import cli
from qpoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_classical_row(capsys):
    code, out = run_cli(capsys, "table", "polyCauchy1", "--nmax", "2",
                        "--k", "1", "--at-q1", "--rho", "1", "--z", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,n,k,value"
    assert lines[1:] == ["polyCauchy1,0,1,1",
                         "polyCauchy1,1,1,1/2",
                         "polyCauchy1,2,1,-1/6"]


def test_table_json_symbolic(capsys):
    code, out = run_cli(capsys, "table", "polyBernoulli", "--nmax", "1",
                        "--k", "1", "--format", "json")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in recs] == [0, 1]
    assert recs[0]["provenance_path"] == "closed_form"
    assert parse_param_poly(recs[1]["value"]) == poly_bernoulli(1, 1)


def test_value_round_trip(capsys):
    code, out = run_cli(capsys, "value", "--family", "polyCauchy1",
                        "--n", "3", "--k", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["vars"] == {"q": "symbolic", "rho": "symbolic",
                           "z": "symbolic"}
    assert parse_param_poly(rec["value"]) == poly_cauchy1(3, 2)


def test_value_latex_contains_fraction(capsys):
    code, out = run_cli(capsys, "value", "--family", "polyBernoulli",
                        "--n", "2", "--k", "1", "--format", "latex")
    assert code == 0
    assert "\\frac" in out


@pytest.mark.parametrize("fmt, first", [("csv", 1), ("latex", 1),
                                        ("json", 0)])
def test_table_writes_each_row_before_building_the_next(
        monkeypatch, capsys, fmt, first):
    # each table row is specialized from its t-basis form
    true_specialize = cli.specialize
    lines_out = []

    def watched(tvalue, k):
        lines_out.append(sys.stdout.getvalue().count("\n"))
        return true_specialize(tvalue, k)

    monkeypatch.setattr(cli, "specialize", watched)
    code, _ = run_cli(capsys, "table", "polyBernoulli", "--nmax", "3",
                      "--k", "1", "--format", fmt)
    assert code == 0
    assert lines_out == [first + n for n in range(4)]


@pytest.mark.parametrize("argv", [
    ["table", family, "--nmax", "6", "--k", "-3"]
    for family in ("polyBernoulli", "polyCauchy1", "polyCauchy2")] + [
    ["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "2",
     "--q", "0.5"],
    ["verify", "--scope", "oracle", "--q", "0.5"],
], ids=["polyBernoulli", "polyCauchy1", "polyCauchy2", "oracle",
        "verify-oracle"])
def test_table_leaves_the_closed_form_cache_alone(capsys, argv):
    closed_forms = (families.poly_bernoulli, families.poly_cauchy1,
                    families.poly_cauchy2)
    for f in closed_forms:
        f.cache_clear()
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert [f.cache_info().currsize for f in closed_forms] == [0, 0, 0]
    if argv[0] == "table":
        # the rows are still the closed forms
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [parse_param_poly(r[-1]) for r in rows] == [
            families.family_value(argv[1], n, -3) for n in range(7)]


def test_table_latex_at_q1_renders_latex(capsys):
    code, out = run_cli(capsys, "table", "polyBernoulli", "--nmax", "2",
                        "--k", "1", "--format", "latex", "--at-q1",
                        "--rho", "1/2")
    assert code == 0
    assert out.splitlines() == ["\\begin{tabular}{rl}",
                                "0 & $1$ \\\\",
                                "1 & $\\frac{1}{2} - z$ \\\\",
                                "2 & $\\frac{5}{12} - z + z^{2}$ \\\\",
                                "\\end{tabular}"]


def test_value_latex_numeric_is_the_float_repr(capsys):
    code, out = run_cli(capsys, "value", "--family", "polyCauchy1",
                        "--n", "2", "--k", "1", "--q", "0.5",
                        "--format", "latex")
    assert code == 0
    x = eval_numeric(poly_cauchy1(2, 1), q=0.5, rho=1.0, z=0.0, y=0.0)
    assert out.splitlines()[1] == "2 & $%r$ \\\\" % x


def test_value_at_q1_keeps_rho_and_z_symbolic(capsys):
    code, out = run_cli(capsys, "value", "--family", "polyCauchy1",
                        "--n", "2", "--k", "1", "--at-q1")
    assert code == 0
    assert json.loads(out)["value"] == (
        "(1/3)/(1) + (-1)/(1)*z^1 + (1)/(1)*z^2 + (-1/2)/(1)*rho^1"
        " + (1)/(1)*rho^1*z^1")


def test_value_numeric_point(capsys):
    code, out = run_cli(capsys, "value", "--family", "polyCauchy2",
                        "--n", "2", "--k", "1", "--q", "0.5",
                        "--rho", "2", "--z", "0.25")
    assert code == 0
    rec = json.loads(out)
    assert rec["vars"]["q"] == 0.5
    assert isinstance(rec["value"], float)


def test_value_numeric_accepts_fractions_and_zero_rho(capsys):
    # --q parses --rho/--z exactly, as --at-q1 does, then rounds to floats
    code, out = run_cli(capsys, "value", "--family", "polyCauchy2",
                        "--n", "2", "--k", "1", "--q", "0.5", "--rho", "1/2")
    assert code == 0
    rec = json.loads(out)
    assert rec["vars"] == {"q": 0.5, "rho": 0.5, "z": 0.0}
    assert rec["value"] == eval_numeric(poly_cauchy2(2, 1), q=0.5, rho=0.5,
                                        z=0.0, y=0.0)
    code, out = run_cli(capsys, "value", "--family", "polyBernoulli",
                        "--n", "2", "--k", "1", "--q", "0.5", "--rho", "0",
                        "--z", "1/3")
    assert code == 0
    assert json.loads(out)["vars"]["rho"] == 0.0


def test_value_zero_denominator_is_usage_error(capsys):
    code = main(["value", "--family", "polyBernoulli", "--n", "1", "--k", "1",
                 "--at-q1", "--rho", "1/0"])
    assert code == 2


def test_config_only_on_verify_and_oracle(capsys):
    for argv in (["value", "--family", "polyBernoulli", "--n", "2",
                  "--k", "1", "--config", "x"],
                 ["table", "polyBernoulli", "--nmax", "2", "--k", "1",
                  "--config", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# sha256 and line count of verify stdout, pinned so that a change to the
# record format or order fails even when two runs agree with each other
PINNED_VERIFY = {
    "gf": ("626028c6c47d60662fdb5c6b974425f1d9537f07d5a5bb94245ef4c85080ee5b",
           30),
    "identities": (
        "e8a646eb67b1a492a3780b6f6a7cc15334713d7bbca477bdfb9a8b3477880a64",
        96),
}


@pytest.mark.parametrize("scope", sorted(PINNED_VERIFY))
def test_verify_stdout_is_pinned(capsys, scope):
    code, out = run_cli(capsys, "verify", "--scope", scope, "--nmax", "4",
                        "--k", "0,1")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, out.count("\n")) == PINNED_VERIFY[scope]


# the same at full scale, the configured defaults: series order 12, n <= 10
# (mixed n <= 8) for the identities, k in -2..3; and the gf rows at order
# 30, 2.5 times the default
PINNED_VERIFY_FULL = {
    "gf": (["--scope", "gf"],
           "da4ab9be7e0f0d1f4f73a1564f05f78f626b71c68f10eafe674ef0ba0c1edd58",
           234),
    "identities": (
        ["--scope", "identities"],
        "fa148fee1242d64b5e41140f5f4de4f910d4360b18de82c96dc4e050e64167f4",
        556),
    "gf-order-30": (
        ["--scope", "gf", "--nmax", "30", "--k=-1,1"],
        "3619c0d020b670e8637c0271ce0e6d230408e96f5611c3aec32c39a22ce997bb",
        279),
}


@pytest.mark.parametrize("run", sorted(PINNED_VERIFY_FULL))
def test_full_verify_stdout_is_pinned(capsys, run):
    argv, digest, lines = PINNED_VERIFY_FULL[run]
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(),
            out.count("\n")) == (digest, lines)


def test_a_planted_closed_form_fault_fails_the_same_records(
        monkeypatch, capsys, fresh_caches):
    # S1(6, 3, x) with its constant coefficient bumped by 1, read by the
    # closed forms alone: the gf route and the identities' own weights keep
    # the true table, so 90 records fail across the Cauchy-type gf matches,
    # T5_202/203, T6 and T7_1-4; the whole stdout, witnesses included, is
    # pinned
    families.family_t.cache_clear()
    families._t_rows.cache_clear()
    bump_weight(monkeypatch, families, 6, 3, second=False)
    try:
        code, out = run_cli(capsys, "verify", "--nmax", "10", "--k=-1,1")
    finally:
        families.family_t.cache_clear()
        families._t_rows.cache_clear()
    assert code == 1
    failed = [json.loads(line) for line in out.splitlines()
              if json.loads(line)["status"] == "failed"]
    assert len(failed) == 90
    assert {r["identity"] for r in failed} == {
        "GF_polyCauchy1", "GF_polyCauchy2", "T5_202", "T5_203", "T6_301",
        "T6_302", "T7_1", "T7_2", "T7_3", "T7_4"}
    assert len(out.encode()) == 77684
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b3528fbb05ff05c1db1fdaba97038469d774c370c6d20192e14727507e903e01")


def test_verify_gf_works_in_the_t_basis(monkeypatch, capsys):
    # the sweep must build no closed form and no series specialized at k
    def refuse(*args):
        raise AssertionError("the gf sweep left the t-basis")

    for name in ("poly_bernoulli", "poly_cauchy1", "poly_cauchy2"):
        monkeypatch.setattr(families, name, refuse)
    for name in ("family_gf", "egf_coefficient"):
        monkeypatch.setattr(series, name, refuse)
    code, out = run_cli(capsys, "verify", "--scope", "gf", "--nmax", "4",
                        "--k", "0,1")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, out.count("\n")) == PINNED_VERIFY["gf"]


@pytest.mark.parametrize("scope", sorted(PINNED_VERIFY))
def test_verify_never_enters_the_q_kernel(monkeypatch, capsys, fresh_caches,
                                          scope):
    # the t-basis values are q-free, so a proof that every difference is
    # zero needs no gcd and no QRat arithmetic; the caches are emptied so
    # that the t-basis values are rebuilt under the patches
    def refuse(*args):
        raise AssertionError("verification entered the q-kernel")

    families.family_t.cache_clear()
    families._t_rows.cache_clear()
    monkeypatch.setattr(QPoly, "gcd", staticmethod(refuse))
    for name in ("__init__", "__mul__", "__add__"):
        monkeypatch.setattr(QRat, name, refuse)
    code, out = run_cli(capsys, "verify", "--scope", scope, "--nmax", "4",
                        "--k", "0,1")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, out.count("\n")) == PINNED_VERIFY[scope]


# sha256 and line count of table and value stdout in every output mode:
# symbolic (csv, json, latex), exact at q = 1 with rho and z symbolic or
# bound, and numeric under --q
PINNED_VALUES = {
    "table-csv": (
        ["table", "polyBernoulli", "--nmax", "6", "--k", "2"],
        "54d9c27ae5e5ca7090acf6eacc9ecfa6ae56ba57c4f51e4936e755a8a54b523b", 8),
    "table-json": (
        ["table", "polyCauchy1", "--nmax", "6", "--k", "-2",
         "--format", "json"],
        "fe23cf2b7abe03090eb2c18c58a4de701f59bc1a092b028c214067bb480eb3ca", 7),
    "value-json": (
        ["value", "--family", "polyCauchy2", "--n", "7", "--k", "3"],
        "a775570346b732c7581ea7b4f183d86d9863a776bf142103f8760022d96464cd", 1),
    "value-csv": (
        ["value", "--family", "polyBernoulli", "--n", "7", "--k", "-1",
         "--format", "csv"],
        "c73b704e3bb48407f1b6d193bfc8d673dc935d481ba5525478a62c651cbd82a0", 2),
    "table-latex": (
        ["table", "polyCauchy2", "--nmax", "5", "--k", "1",
         "--format", "latex"],
        "e49663bdb0e1787db7b625f2968f5db0a60ed2331cc58f1d52fbd69028c796e3", 8),
    "value-latex": (
        ["value", "--family", "polyCauchy1", "--n", "6", "--k", "-2",
         "--format", "latex"],
        "87c8063482ec3d23056bed1504d3a9a57e9a975086744f76c16ce3d51e6b18de", 3),
    "table-at-q1": (
        ["table", "polyBernoulli", "--nmax", "6", "--k", "-1", "--at-q1"],
        "ecde4d49ac78605921f5c4a082366ed752ab574a6dabca0b8e943e094a74bc17", 8),
    "value-at-q1": (
        ["value", "--family", "polyCauchy1", "--n", "6", "--k", "2",
         "--at-q1", "--z", "1/3"],
        "f719a923f0c2371bf6a7a1be22100164278528e71be60134670e8c2cf02a0b36", 1),
    "table-at-q1-rho": (
        ["table", "polyCauchy2", "--nmax", "6", "--k", "2", "--at-q1",
         "--rho", "1/2", "--z", "-3"],
        "1ea8a59cbff56fb33da4c35441f27fa0550c7f0eba3e86c68c637bc4515744f9", 8),
    "value-at-q1-rho-latex": (
        ["value", "--family", "polyBernoulli", "--n", "6", "--k", "3",
         "--at-q1", "--rho", "2", "--format", "latex"],
        "1368e30d1196cf4786af8b8bc897f2efd013da00acceb1d7f26c6d22f9e79583", 3),
    "table-q": (
        ["table", "polyCauchy1", "--nmax", "6", "--k", "3", "--q", "0.3",
         "--rho", "2", "--z", "1/3"],
        "78550d57015b6797415422f28caad7b0fdf88b1e79733aad652a8b09808ad2a6", 8),
    "value-q": (
        ["value", "--family", "polyBernoulli", "--n", "8", "--k", "-2",
         "--q", "0.7", "--rho=-1/2", "--z", "0.25"],
        "ca3389f6ce8c51a9845c964a7d562832a59a9d663b696b40782260e6e39ddc6f", 1),
}


def _assert_pinned_values(capsys, mode):
    argv, digest, lines = PINNED_VALUES[mode]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest(),
            out.count("\n")) == (digest, lines)


@pytest.mark.parametrize("mode", sorted(PINNED_VALUES))
def test_value_stdout_is_pinned(capsys, mode):
    _assert_pinned_values(capsys, mode)


@pytest.mark.parametrize("mode", sorted(PINNED_VALUES))
def test_values_never_enter_the_q_kernel(monkeypatch, capsys, mode):
    # a value is specialized from q-free t-basis terms, each a constant
    # over a q-number power or a q-number power alone, so printing it needs
    # no gcd, no QRat sum and no product of two QRats
    def refuse(*args):
        raise AssertionError("a value command entered the q-kernel")

    true_mul = QRat.__mul__

    def scalar_mul_only(self, other):
        if isinstance(other, QRat):
            refuse()
        return true_mul(self, other)

    families.family_t.cache_clear()
    monkeypatch.setattr(QPoly, "gcd", staticmethod(refuse))
    monkeypatch.setattr(QRat, "__add__", refuse)
    monkeypatch.setattr(QRat, "__mul__", scalar_mul_only)
    _assert_pinned_values(capsys, mode)


@pytest.mark.parametrize("table", [
    ["table", "polyBernoulli", "--nmax", "6", "--k", "-2"],
    ["table", "polyCauchy2", "--nmax", "6", "--k", "2", "--at-q1",
     "--z=-1/3"],
    ["table", "polyCauchy1", "--nmax", "6", "--k", "3", "--q", "0.3",
     "--rho", "2", "--z", "1/3"],
])
def test_csv_rows_are_what_csv_writer_writes(capsys, table):
    # the direct write quotes nothing, so every field must need no quoting
    code, rows = run_cli(capsys, *table, "--format", "json")
    assert code == 0
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["family", "n", "k", "value"])
    for rec in map(json.loads, rows.splitlines()):
        writer.writerow([rec["family"], rec["n"], rec["k"], rec["value"]])
    assert run_cli(capsys, *table, "--format", "csv") == (0, want.getvalue())


def test_verify_gf_fails_on_a_planted_series_fault(monkeypatch, capsys,
                                                   fresh_caches):
    # z^n on the t_0 component of each integer row n! [t^n] S_j adds z^n to
    # the n-th family value of the series at every k, since t_0 = 1; z^n
    # is index n of entry 0
    true_row = series._gf_row
    planted = {n: (a[0][:n] + (a[0][n] + 1,),) + a[1:]
               for n, a in enumerate(true_row("polyCauchy2", n)
                                     for n in range(4))}
    monkeypatch.setattr(series, "_gf_row", lambda family, n: (
        planted[n] if family == "polyCauchy2" else true_row(family, n)))
    code, out = run_cli(capsys, "verify", "--scope", "gf", "--nmax", "3",
                        "--k", "0,1")
    assert code == 1
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["identity"] for r in recs if r["status"] == "failed"] == [
        "GF_polyCauchy2"] * 8


def test_verify_gf_failure_carries_its_witness(monkeypatch, capsys):
    # z^2 on the t_0 component of P_{2,m}, index 2 of its row, adds z^2 to
    # the value c_2 at every k, so n! [t^2] S_j - P_{2,j} specializes to -z^2
    true_rows = identities._t_rows

    def perturbed(family, n):
        rows = true_rows(family, n)
        if (family, n) != ("polyCauchy1", 2):
            return rows
        return (rows[0][:2] + (rows[0][2] + 1,),) + rows[1:]

    monkeypatch.setattr(identities, "_t_rows", perturbed)
    code, out = run_cli(capsys, "verify", "--scope", "gf", "--nmax", "3",
                        "--k", "0,1")
    assert code == 1
    recs = [json.loads(line) for line in out.splitlines()]
    failed = [r for r in recs if r["status"] == "failed"]
    assert failed == [{"identity": "GF_polyCauchy1", "n": 2, "k": k,
                       "status": "failed", "witness": "(-1)/(1)*z^2"}
                      for k in (0, 1)]
    # a passing record stays as it was, with no witness key
    assert all("witness" not in r for r in recs if r["status"] == "verified")


def test_verify_gf_judges_with_the_identities_judge(monkeypatch, capsys):
    # the gf sweep keeps no verdict rule of its own: every record is one
    # call of identities._verdict
    true_verdict = identities._verdict
    calls = []

    def counted(*args):
        calls.append(args)
        return true_verdict(*args)

    monkeypatch.setattr(identities, "_verdict", counted)
    code, out = run_cli(capsys, "verify", "--scope", "gf", "--nmax", "2",
                        "--k", "0,1")
    assert code == 0
    assert len(calls) == 3 * 3 * 2
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, out.count("\n")) == (
        "ab22d5c6e882ad2c2b14b18cbcf9e2a3ac2a93c4f02358d5b543eb5abae72655", 18)


def test_verify_identities_scope(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "identities",
                        "--nmax", "3", "--k", "0,1")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs and all(r["status"] == "verified" for r in recs)


def test_verify_says_when_nmax_leaves_t7_behind(capsys):
    # --nmax raises the identity bound but not nmax_mixed (8), so T7 stops
    # short of it; one stderr line says so, and stdout carries no note
    code = main(["verify", "--scope", "identities", "--nmax", "9",
                 "--k", "0"])
    captured = capsys.readouterr()
    assert code == 0
    recs = [json.loads(line) for line in captured.out.splitlines()]
    assert max(r["n"] for r in recs if r["identity"].startswith("T7")) == 8
    assert captured.err.splitlines() == [
        "verify: T7 checked up to n = 8 (nmax_mixed)",
        "verify: %d checks passed" % len(recs)]
    # no note at the defaults, at --nmax 8, or outside the identity scope
    for argv in (["verify", "--scope", "identities"],
                 ["verify", "--scope", "identities", "--nmax", "8",
                  "--k", "0"],
                 ["verify", "--scope", "gf", "--nmax", "9", "--k", "0"]):
        assert main(argv) == 0
        assert "T7" not in capsys.readouterr().err


def test_verify_gf_scope_deterministic(capsys):
    args = ("verify", "--scope", "gf", "--nmax", "4", "--k=-1,1")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert all(json.loads(l)["status"] == "verified"
               for l in out1.strip().splitlines())


def test_verify_oracle_scope(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "oracle",
                        "--nmax", "2", "--q", "0.5")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs and all(r["status"] == "verified" for r in recs)
    assert all(r["abs_err"] < 1e-9 for r in recs)


ORACLE_KEY = ("identity", "n", "k", "q", "rho", "z")


def test_verify_oracle_records_come_out_sorted(tmp_path, capsys):
    # the loops emit (identity, n, k, q, rho, z) order; no sort is needed
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("nmax_oracle = 2\n")
    code, out = run_cli(capsys, "verify", "--scope", "oracle",
                        "--config", str(cfg))
    assert code == 0
    keys = [tuple(json.loads(line)[f] for f in ORACLE_KEY)
            for line in out.splitlines()]
    assert len(keys) == 2 * 3 * 2 * 2 * 3 * 2 and keys == sorted(keys)
    code, out = run_cli(capsys, "verify", "--scope", "oracle", "--q", "0.7")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "c0c83fa63a633ca945dc3f9d05e21fdc56b055318fd0e1e443742f24d76c3a00")


def test_oracle_subcommand(capsys):
    code, out = run_cli(capsys, "oracle", "--family", "polyCauchy2",
                        "--n", "3", "--k", "2", "--q", "0.7",
                        "--rho", "-0.5", "--z", "0.33")
    assert code == 0
    lines = out.strip().splitlines()
    closed = json.loads(lines[0])
    oracle = json.loads(lines[1])
    verdict = json.loads(lines[2])
    assert closed["provenance_path"] == "closed_form"
    assert oracle["provenance_path"] == "jackson_oracle"
    assert verdict["status"] == "verified"
    assert verdict["abs_err"] < 1e-9


def test_oracle_tolerance_is_relative_at_scale(capsys):
    # the value is 5.4e9, so float rounding alone leaves an absolute error
    # near 1e-6, far above the 1e-9 tolerance; relative to the value it is
    # about 2e-16
    code, out = run_cli(capsys, "oracle", "--family", "polyCauchy1",
                        "--n", "12", "--k", "2", "--q", "0.7",
                        "--rho", "2", "--z", "0.3")
    assert code == 0
    closed, _, verdict = [json.loads(l) for l in out.strip().splitlines()]
    assert verdict["status"] == "verified"
    assert verdict["tolerance"] < verdict["abs_err"]
    assert verdict["abs_err"] < verdict["tolerance"] * abs(closed["value"])


def test_oracle_verdict_rule():
    verdict = cli._oracle_verdict
    assert verdict(5e9, 5e9 + 1e-6, 1e-9)[1]
    assert not verdict(5e9, 5e9 + 10.0, 1e-9)[1]
    # below size 1 the tolerance stays absolute
    assert verdict(1e-3, 1e-3 + 5e-10, 1e-9)[1]
    assert not verdict(1e-3, 1e-3 + 2e-9, 1e-9)[1]
    # the size is |closed|, so a negative value scales the bound too
    assert verdict(-2.0, -2.0 - 1.5e-9, 1e-9)[1]


def test_oracle_takes_any_depth_from_one(capsys):
    argv = ["oracle", "--family", "polyCauchy2", "--n", "3", "--q", "0.7"]
    code, out = run_cli(capsys, *argv, "--k", "3")
    assert code == 0
    assert json.loads(out.strip().splitlines()[2])["status"] == "verified"
    for k in (0, -2, cli.K_LIMIT + 1):
        assert main(argv + ["--k", str(k)]) == 2
        assert capsys.readouterr().err == (
            "error: --k must lie in 1..%d, got %d\n" % (cli.K_LIMIT, k))


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("# sweep size\nseries_order = 5\nk_range = 0,1\n")
    code, out = run_cli(capsys, "verify", "--scope", "gf",
                        "--config", str(cfg))
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["k"] for r in recs} == {0, 1}
    assert max(r["n"] for r in recs) == 5


def test_config_saved_with_a_byte_order_mark_reads_as_without(tmp_path,
                                                              capsys):
    # Notepad's "UTF-8 with BOM" and PowerShell 5's Out-File write EF BB BF
    outs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        cfg = tmp_path / "qpoly.cfg"
        cfg.write_bytes(bom + b"series_order = 4\n")
        code, out = run_cli(capsys, "verify", "--scope", "gf",
                            "--config", str(cfg))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[1].encode("utf-8")).hexdigest() == (
        "6ac30c5309e1be6a6bfd62de84c4d9545a040d455103443280cb76d95d0c161f")


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("series_order = 5\nnope = 1\n")
    code = main(["verify", "--scope", "gf", "--config", str(cfg)])
    assert code == 2


def test_bad_k_range_is_usage_error(capsys):
    code = main(["verify", "--scope", "gf", "--nmax", "2", "--k", "x,y"])
    assert code == 2


VALUE_ARGS = ["value", "--family", "polyBernoulli", "--k", "1"]
TABLE_ARGS = ["table", "polyBernoulli", "--nmax", "3", "--k", "1"]


@pytest.mark.parametrize("argv", [
    VALUE_ARGS + ["--n", "1", "--at-q1", "--q", "0.5"],
    VALUE_ARGS + ["--n", "1", "--rho", "2"],
    VALUE_ARGS + ["--n", "-1"],
    ["table", "polyBernoulli", "--nmax", "-1", "--k", "1"],
    ["verify", "--scope", "gf", "--nmax", "-1"],
    ["verify", "--scope", "gf", "--nmax", "2", "--k", "3,1"],
    ["verify", "--scope", "gf", "--nmax", "2", "--k", "1,2,3"],
    # a depth past cli.K_LIMIT, whose Jackson weights C(s+k-1, k-1) would
    # also pass the float range (see test_jackson)
    ["oracle", "--family", "polyCauchy1", "--n", "2", "--k", "400",
     "--q", "0.3"],
    ["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
     "--q", "0.5", "--rho", "nan"],
    ["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
     "--q", "0.5", "--z", "inf"],
    # table streams its rows, so a flag error must come before the csv
    # header or the tabular opening
    TABLE_ARGS + ["--at-q1", "--q", "0.5"],
    TABLE_ARGS + ["--z", "1/3", "--format", "latex"],
    TABLE_ARGS + ["--q", "1.5"],
    TABLE_ARGS + ["--at-q1", "--rho", "1/0", "--format", "latex"],
    # a value the oracle cannot hold as a float: its integrand overflows
    # to both infinities (no NaN is printed)
    ["oracle", "--family", "polyCauchy1", "--n", "10", "--k", "1",
     "--q", "0.5", "--rho", "1e200", "--z", "0.3"],
])
def test_usage_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    VALUE_ARGS + ["--n", str(cli.N_LIMIT + 1)],
    ["table", "polyBernoulli", "--nmax", str(cli.N_LIMIT + 1), "--k", "1"],
    ["verify", "--scope", "identities", "--nmax", str(cli.N_LIMIT + 1)],
    ["oracle", "--family", "polyCauchy1", "--n", str(cli.N_LIMIT + 1),
     "--k", "1", "--q", "0.5"],
    ["value", "--family", "polyBernoulli", "--n", "1",
     "--k", str(cli.K_LIMIT + 1)],
    ["table", "polyBernoulli", "--nmax", "1", "--k", str(-cli.K_LIMIT - 1)],
    ["verify", "--scope", "gf", "--nmax", "1", "--k",
     "0,%d" % (cli.K_LIMIT + 1)],
    ["verify", "--scope", "identities", "--nmax", "1",
     "--k=%d" % (-cli.K_LIMIT - 1)],
    ["oracle", "--family", "polyCauchy1", "--n", "1",
     "--k", str(cli.K_LIMIT + 1), "--q", "0.5"],
    # the oracle's q is refused before the first sweep of any scope
    ["verify", "--scope", "gf", "--q", "7"],
    ["verify", "--scope", "all", "--q", "7"],
])
def test_sizes_beyond_the_limit_are_refused_before_any_build(
        monkeypatch, capsys, argv):
    _refuse_builds(monkeypatch)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def _refuse_builds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family was built")

    for name in ("family_t", "run_gf_sweep", "run_identity_sweep",
                 "oracle_family"):
        monkeypatch.setattr(cli, name, refuse)


def test_config_sizes_beyond_the_limit_are_refused(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("series_order = %d\n" % (cli.N_LIMIT + 1))
    assert main(["verify", "--scope", "gf", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("k_range", ["%d,0" % (-cli.K_LIMIT - 1),
                                     str(cli.K_LIMIT + 1)])
def test_config_depths_beyond_the_limit_are_refused_before_any_build(
        monkeypatch, tmp_path, capsys, k_range):
    _refuse_builds(monkeypatch)
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("k_range = %s\n" % k_range)
    assert main(["verify", "--scope", "all", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: %s:1: k_range: k_range must lie in" % cfg)


def test_the_size_limit_itself_is_accepted(capsys):
    code, out = run_cli(capsys, *VALUE_ARGS, "--n", str(cli.N_LIMIT))
    assert code == 0
    assert parse_param_poly(json.loads(out)["value"]) \
        == poly_bernoulli(cli.N_LIMIT, 1)


@pytest.mark.parametrize("k", [cli.K_LIMIT, -cli.K_LIMIT])
def test_the_depth_limit_itself_is_accepted(capsys, k):
    code, out = run_cli(capsys, "value", "--family", "polyBernoulli",
                        "--n", "4", "--k", str(k))
    assert code == 0
    assert parse_param_poly(json.loads(out)["value"]) == poly_bernoulli(4, k)


@pytest.mark.parametrize("text", [
    # with one node the oracle reads 0.0 against 0.152, which an infinite
    # tolerance would call verified
    "tolerance = inf\noracle_truncation = 1\n",
    "tolerance = nan\n",
])
def test_config_tolerance_must_be_finite(tmp_path, capsys, text):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text(text)
    for argv in (["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
                  "--q", "0.5"],
                 ["verify", "--scope", "oracle"],
                 ["verify", "--scope", "identities"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be positive and finite" in captured.err


@pytest.mark.parametrize("scope", ["gf", "identities", "all"])
def test_a_bad_oracle_config_is_refused_before_any_build(
        monkeypatch, tmp_path, capsys, scope):
    # each line is held to its key's bound or oracle rule as it is read,
    # so the error names its path:line and key
    _refuse_builds(monkeypatch)
    cfg = tmp_path / "qpoly.cfg"
    for line, why in [
            ("oracle_truncation = 0",
             "oracle_truncation must lie in 1..%d, got 0"
             % cli.TRUNCATION_LIMIT),
            ("tolerance = inf", "tolerance must be positive and finite"),
            ("series_order = %d" % (cli.N_LIMIT + 1),
             "series_order must lie in 0..%d, got %d"
             % (cli.N_LIMIT, cli.N_LIMIT + 1))]:
        cfg.write_text("# comment\n%s\n" % line)
        assert main(["verify", "--scope", scope, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: %s:2: %s: %s\n" % (
            cfg, line.split()[0], why)
        assert captured.out == ""


def test_oracle_refuses_a_nan_rho_before_building_the_value(
        monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the value was built")

    for name in ("family_t", "specialize", "eval_numeric", "oracle_family"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
                 "--q", "0.5", "--rho", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_oracle_reads_rho_and_z_as_value_does(capsys):
    # --rho/--z are exact fractions or decimals, rounded to floats
    argv = ["oracle", "--family", "polyCauchy2", "--n", "6", "--k", "2",
            "--q", "0.5"]
    code, out = run_cli(capsys, *argv, "--rho", "1/2", "--z", "1/3")
    assert code == 0
    assert (code, out) == run_cli(capsys, *argv, "--rho", "0.5",
                                  "--z", "0.3333333333333333")
    # a zero rho is a point like any other: the integrand has no division
    code, out = run_cli(capsys, *argv, "--rho", "0", "--z", "0.3")
    assert code == 0
    assert json.loads(out.splitlines()[2])["status"] == "verified"


def test_oracle_terms_of_both_infinities_name_the_float_range(capsys):
    # at rho = 1e200 the integrand overflows to +inf at some nodes and to
    # -inf at others; the sum is refused as out of range, not by fsum
    assert main(["oracle", "--family", "polyCauchy1", "--n", "10", "--k", "1",
                 "--q", "0.5", "--rho", "1e200", "--z", "0.3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the oracle's value at rho = 1e+200 leaves "
                            "the float range\n")
    assert captured.out == ""


def _at_point(rho, z):
    return ["--k", "3", "--q", "0.5", "--rho", rho, "--z", z]


@pytest.mark.parametrize("argv", [
    pytest.param(["value", "--family", "polyCauchy1", "--n", "5"]
                 + _at_point("1e62", "1e61"), id="1e62-1e61"),
    pytest.param(["value", "--family", "polyCauchy1", "--n", "5"]
                 + _at_point("1e300", "1e300"), id="1e300-1e300"),
    # rows n = 0..3 are finite and n = 4 is not: a csv table or value
    # writes neither its header nor a row before the row that fails
    pytest.param(["table", "polyCauchy1", "--nmax", "6"]
                 + _at_point("1e100", "1e100"), id="table-csv"),
    pytest.param(["value", "--family", "polyCauchy1", "--n", "6", "--format",
                  "csv"] + _at_point("1e100", "1e100"), id="value-csv"),
])
def test_numeric_values_past_the_float_range_name_the_point(capsys, argv):
    # a sum that reaches -inf and a power that overflows both leave the
    # float range; neither prints Infinity, which is not JSON
    rho, z = argv[argv.index("--rho") + 1], argv[argv.index("--z") + 1]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the value at q = 0.5, rho = %r, z = %r "
                            "leaves the float range\n"
                            % (float(rho), float(z)))
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--family", "polyCauchy2", "--n", "6", "--k", "2", "--q", "0.5",
      "--rho", "1e400"], "--rho 1e400"),
    (["value", "--family", "polyCauchy2", "--n", "6", "--k", "2", "--q", "0.5",
      "--z", "1e400"], "--z 1e400"),
    (["table", "polyCauchy1", "--nmax", "2", "--k", "1", "--q", "0.5",
      "--rho=-1e400"], "--rho -1e400"),
], ids=["oracle-rho", "value-z", "table-negative-rho"])
def test_a_point_past_the_float_range_names_its_flag(capsys, argv, flag):
    # the exact --rho/--z is read, then rounded to a float under --q
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s is past the float range\n" % flag
    assert captured.out == ""


@pytest.mark.parametrize("argv, where", [
    (["value", "--family", "polyCauchy2", "--n", "3", "--k", "2", "--q", "0.5",
      "--rho", "nan"], "--rho nan"),
    (["value", "--family", "polyCauchy2", "--n", "3", "--k", "2", "--q", "0.5",
      "--z", "inf"], "--z inf"),
    (["value", "--family", "polyCauchy2", "--n", "3", "--k", "2", "--at-q1",
      "--rho", "abc"], "--rho abc"),
    (["value", "--family", "polyCauchy2", "--n", "3", "--k", "2", "--at-q1",
      "--z", "1/0"], "--z 1/0"),
    (["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
      "--q", "0.5", "--rho", "nan"], "--rho nan"),
    (["verify", "--scope", "gf", "--k", "x"], "--k"),
    (["verify", "--scope", "gf", "--k", "1,2,3"], "--k"),
    (["verify", "--scope", "gf", "--k", "3,1"], "--k"),
], ids=["value-rho-nan", "value-z-inf", "at-q1-rho-abc", "at-q1-z-1/0",
        "oracle-rho-nan", "verify-k-x", "verify-k-three-parts",
        "verify-k-empty"])
def test_a_bad_value_names_its_flag(monkeypatch, capsys, argv, where):
    _refuse_builds(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s" % where)
    assert captured.out == ""


@pytest.mark.parametrize("argv, where", [
    (VALUE_ARGS + ["--n", "50", "--at-q1", "--rho", "1e100", "--z", "1/3"],
     "--rho 1e100 --z 1/3"),
    (["table", "polyCauchy1", "--nmax", "50", "--k", "1", "--at-q1",
      "--z=-1/1" + "0" * 100], "--z -1/1000"),
    # the point alone is past the limit, whatever n
    (VALUE_ARGS + ["--n", "0", "--at-q1", "--rho", "1e5000"], "--rho 1e5000"),
])
def test_an_exact_point_too_large_to_print_is_refused_before_any_build(
        monkeypatch, capsys, argv, where):
    _refuse_builds(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s" % where)
    assert "past the %d that Python prints" % sys.get_int_max_str_digits() \
        in captured.err
    assert captured.out == ""


def test_an_exact_point_just_inside_the_print_limit_prints(capsys):
    # 50 * (75 + 1 + 1 + 1 + 6) = 4200 estimated digits: accepted, and the
    # largest family value at k = 10 prints
    code, out = run_cli(capsys, "value", "--family", "polyCauchy1", "--n",
                        "50", "--k", str(cli.K_LIMIT), "--at-q1",
                        "--rho", "1e74", "--z=-1")
    assert code == 0
    assert F(json.loads(out)["value"]) != 0


HUGE, TINY = "1e99999999", "-1e-99999999"
ORACLE_ARGS = ["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
               "--q", "0.5"]


def _timed_main(argv):
    # Fraction(HUGE) builds 10^99999999, which takes minutes
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 0.5, argv
    return code


@pytest.mark.parametrize("argv, where, limit", [
    (VALUE_ARGS + ["--n", "3", "--at-q1", "--rho", HUGE], "--rho " + HUGE,
     None),
    (VALUE_ARGS + ["--n", "3", "--at-q1", "--z=" + TINY], "--z " + TINY,
     None),
    (TABLE_ARGS + ["--at-q1", "--rho=" + TINY], "--rho " + TINY, None),
    (TABLE_ARGS + ["--at-q1", "--z", HUGE], "--z " + HUGE, None),
    # with Python's print limit off, an exact value is held to its default
    (VALUE_ARGS + ["--n", "3", "--at-q1", "--rho", HUGE], "--rho " + HUGE, 0),
], ids=["value-huge", "value-tiny", "table-tiny", "table-huge",
        "value-huge-no-limit"])
def test_a_huge_decimal_exponent_is_refused_when_exact(monkeypatch, capsys,
                                                       argv, where, limit):
    _refuse_builds(monkeypatch)
    old = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        assert _timed_main(argv) == 2
    finally:
        sys.set_int_max_str_digits(old)
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s would have over 999999" % where)
    assert captured.err.endswith(" digits, past the %d that Python prints\n"
                                 % ((old if limit is None else limit)
                                    or sys.int_info.default_max_str_digits))
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    VALUE_ARGS + ["--n", "3", "--q", "0.5"],
    TABLE_ARGS + ["--q", "0.5", "--format", "json"], ORACLE_ARGS],
    ids=["value", "table", "oracle"])
@pytest.mark.parametrize("flag", ["--rho", "--z"])
def test_a_huge_decimal_exponent_is_decided_as_a_float(capsys, argv, flag):
    # past the float range is refused; below it rounds to -0.0, as the
    # float of -1e-330 does
    assert _timed_main(argv + [flag, HUGE]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: %s %s is past the float range\n" % (
        flag, HUGE)
    assert captured.out == ""
    code, out = run_cli(capsys, *argv, "%s=-1e-330" % flag)
    assert (_timed_main(argv + ["%s=%s" % (flag, TINY)]),
            capsys.readouterr().out) == (code, out)
    assert code == 0 and "-0.0" in out


@pytest.mark.parametrize("argv", [
    VALUE_ARGS + ["--n", "3", "--q"], TABLE_ARGS + ["--q"],
    ["verify", "--scope", "oracle", "--q"], ORACLE_ARGS[:-1]],
    ids=["value", "table", "verify", "oracle"])
@pytest.mark.parametrize("q", ["1.5", "nan", "0", "-0.5"])
def test_a_bad_q_names_its_flag(monkeypatch, capsys, argv, q):
    _refuse_builds(monkeypatch)
    assert main(argv + [q]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: --q must lie strictly between 0 and 1, got %r\n" % float(q))
    assert captured.out == ""


@pytest.mark.parametrize("line", ["series_order = abc", "k_range = 1,x",
                                  "k_range = 3,1", "tolerance = tiny",
                                  "nmax_oracle = 2.5"])
def test_a_bad_config_value_names_its_line_and_key(
        monkeypatch, tmp_path, capsys, line):
    _refuse_builds(monkeypatch)
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("# comment\n%s\n" % line)
    key = line.split()[0]
    for argv in (["verify", "--scope", "all"],
                 ["oracle", "--family", "polyCauchy1", "--n", "3", "--k", "1",
                  "--q", "0.5"]):
        assert main(argv + ["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: %s:2: %s: " % (cfg, key))
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--scope", "oracle"],
    ["verify", "--scope", "gf"],
    ["oracle", "--family", "polyCauchy1", "--n", "2", "--k", "3",
     "--q", "0.5"],
])
def test_an_oracle_truncation_past_the_cap_is_refused_before_any_build(
        monkeypatch, tmp_path, capsys, argv):
    _refuse_builds(monkeypatch)
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("oracle_truncation = 100000000\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: %s:1: oracle_truncation: oracle_truncation must lie in "
        "1..%d, got 100000000\n" % (cfg, cli.TRUNCATION_LIMIT))
    assert captured.out == ""


def test_the_truncation_cap_itself_is_accepted(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("oracle_truncation = %d\n" % cli.TRUNCATION_LIMIT)
    code, out = run_cli(capsys, "oracle", "--family", "polyCauchy1", "--n",
                        "2", "--k", "1", "--q", "0.5", "--config", str(cfg))
    assert code == 0
    assert json.loads(out.splitlines()[2])["status"] == "verified"


def test_config_line_without_equals_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("series_order 5\n")
    assert main(["verify", "--scope", "gf", "--config", str(cfg)]) == 2
    assert "expected key = value" in capsys.readouterr().err


def test_single_k_value_is_accepted(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "gf", "--nmax", "2",
                        "--k", "2")
    assert code == 0
    assert {json.loads(line)["k"] for line in out.splitlines()} == {2}


def test_oracle_nonconvergence_is_clean_failure(tmp_path, capsys):
    # q near 1 with a short truncation cannot meet the tolerance; the
    # CLI must report that as a failure line, not a traceback.
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("oracle_truncation = 30\ntolerance = 1e-12\n")
    code = main(["oracle", "--family", "polyCauchy1", "--n", "4",
                 "--k", "2", "--q", "0.97", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "tail bound" in err


def test_unknown_family_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["table", "nosuch", "--nmax", "1", "--k", "1"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qpoly", "value", "--family",
         "polyBernoulli", "--n", "1", "--k", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["family"] == "polyBernoulli"
