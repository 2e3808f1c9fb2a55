"""Command-line surface: formats, exit codes, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from qpoly import (
    eval_numeric,
    parse_param_poly,
    poly_bernoulli,
    poly_cauchy1,
    poly_cauchy2,
)
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


def test_verify_identities_scope(capsys):
    code, out = run_cli(capsys, "verify", "--scope", "identities",
                        "--nmax", "3", "--k", "0,1")
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert recs and all(r["status"] == "verified" for r in recs)


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


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("# sweep size\nseries_order = 5\nk_range = 0,1\n")
    code, out = run_cli(capsys, "verify", "--scope", "gf",
                        "--config", str(cfg))
    assert code == 0
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert {r["k"] for r in recs} == {0, 1}
    assert max(r["n"] for r in recs) == 5


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "qpoly.cfg"
    cfg.write_text("series_order = 5\nnope = 1\n")
    code = main(["verify", "--scope", "gf", "--config", str(cfg)])
    assert code == 2


def test_bad_k_range_is_usage_error(capsys):
    code = main(["verify", "--scope", "gf", "--nmax", "2", "--k", "x,y"])
    assert code == 2


VALUE_ARGS = ["value", "--family", "polyBernoulli", "--k", "1"]


@pytest.mark.parametrize("argv", [
    VALUE_ARGS + ["--n", "1", "--at-q1", "--q", "0.5"],
    VALUE_ARGS + ["--n", "1", "--rho", "2"],
    VALUE_ARGS + ["--n", "-1"],
    ["table", "polyBernoulli", "--nmax", "-1", "--k", "1"],
    ["verify", "--scope", "gf", "--nmax", "-1"],
    ["verify", "--scope", "gf", "--nmax", "2", "--k", "3,1"],
    ["verify", "--scope", "gf", "--nmax", "2", "--k", "1,2,3"],
])
def test_usage_errors_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


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
