"""Acceptance gate: one test per shipped claim, at full advertised scale.

Each test prints a single [PASS]/[FAIL] line (visible with -s or on
failure) and asserts the same condition, so `pytest -v` shows exactly one
verdict line per criterion.
"""

import random
import subprocess
import sys
from fractions import Fraction as F

import oracles as O
import qpoly.families as families
import qpoly.stirling as stirling
from qpoly import (
    FAMILIES,
    OracleConfig,
    ParamPoly,
    check_orthogonality,
    classical_number,
    egf_coefficient,
    eval_numeric,
    family_value,
    gf_poly_bernoulli,
    gf_poly_cauchy1,
    gf_poly_cauchy2,
    gf_weighted_stirling,
    jackson_integral_1d,
    oracle_family,
    q_number,
    run_identity_sweep,
    weighted_stirling1,
    weighted_stirling2,
)

K_RANGE = range(-2, 4)


def _verdict(ok, label):
    print("[%s] %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def test_criterion_1_gf_matches_closed_forms():
    gfs = {"polyBernoulli": gf_poly_bernoulli,
           "polyCauchy1": gf_poly_cauchy1,
           "polyCauchy2": gf_poly_cauchy2}
    bad = []
    for fam, gf in gfs.items():
        for k in K_RANGE:
            s = gf(k, 12)
            for n in range(13):
                if egf_coefficient(s, n) != family_value(fam, n, k):
                    bad.append((fam, k, n))
    _verdict(not bad,
             "criterion 1: series coefficients equal closed forms, "
             "n <= 12, k in -2..3, all families%s"
             % ("" if not bad else "; first failure %r" % (bad[0],)))


def test_criterion_2_weighted_stirling_layer():
    bad = []
    for kind, table in (("first", weighted_stirling1),
                        ("second", weighted_stirling2)):
        for m in range(13):
            s = gf_weighted_stirling(kind, m, 12)
            for n in range(m, 13):
                if egf_coefficient(s, n) != table(n, m).as_param_poly():
                    bad.append(("gf", kind, n, m))
    for n in range(13):
        if stirling._weighted_row(n, False) != O.carlitz_s1_row(n):
            bad.append(("carlitz", n))
    for n in range(11):
        for r in check_orthogonality(n):
            if r.status != "verified":
                bad.append(("ortho", r.identity_id, n))
    # inverse pair: transform a random exact sequence and transform back
    rng = random.Random(987123)
    g = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)]
    f = []
    for n in range(11):
        acc = ParamPoly.zero()
        for m in range(n + 1):
            s2 = weighted_stirling2(n, m).as_param_poly()
            acc = acc + s2.scale(F((-1) ** (n - m)) * g[m])
        f.append(acc)
    for n in range(11):
        acc = ParamPoly.zero()
        for m in range(n + 1):
            acc = acc + weighted_stirling1(n, m).as_param_poly() * f[m]
        if acc != ParamPoly.const(g[n]):
            bad.append(("inverse", n))
    _verdict(not bad,
             "criterion 2: recurrence tables = series extraction (n <= 12), "
             "orthogonality + inverse pair exact in the weight (n <= 10), "
             "Carlitz's expansion over the usual S1 = weighted rows (n <= 12)%s"
             % ("" if not bad else "; first failure %r" % (bad[0],)))


def test_criterion_3_identity_suite():
    reports = run_identity_sweep(nmax=10, nmax_mixed=8, k_values=K_RANGE)
    bad = [r for r in reports if r.status != "verified"]
    _verdict(not bad,
             "criterion 3: all eleven identities verified symbolically, "
             "n <= 10 (pairwise) / n <= 8 (mixed), k in -2..3 "
             "(%d reports)%s" % (len(reports),
                                 "" if not bad else "; first failure %s n=%d"
                                 % (bad[0].identity_id, bad[0].n)))


def test_criterion_4_classical_degenerations():
    bad = []
    for fam in FAMILIES:
        for n in range(11):
            if classical_number(fam, n, 1) != O.classical_family(fam, n, 1):
                bad.append((fam, n))
    spot = (classical_number("polyBernoulli", 1, 1) == F(1, 2)
            and classical_number("polyCauchy1", 2, 1) == F(-1, 6)
            and classical_number("polyCauchy2", 2, 1) == F(5, 6))
    _verdict(not bad and spot,
             "criterion 4: q->1 limits reproduce the classical series "
             "(n <= 10, depth 1), with 1/2, -1/6, 5/6 at the checkpoints%s"
             % ("" if not bad else "; first failure %r" % (bad[0],)))


def test_criterion_5_jackson_oracle():
    tol = 1e-9
    bad = []
    for fam in ("polyCauchy1", "polyCauchy2"):
        for n in range(6):
            for k in (1, 2):
                closed = family_value(fam, n, k)
                for q in (0.3, 0.7):
                    cfg = OracleConfig(q=q, truncation=200, tolerance=tol)
                    for rho in (1.0, 2.0, -0.5):
                        for z in (0.0, 1.0 / 3.0):
                            got = oracle_family(fam, n, k, rho, z, cfg)
                            want = eval_numeric(closed, q=q, rho=rho, z=z)
                            if abs(got - want) >= tol:
                                bad.append((fam, n, k, q, rho, z))
    for q in (0.3, 0.7):
        cfg = OracleConfig(q=q, truncation=200, tolerance=tol)
        for m in range(11):
            got = jackson_integral_1d(lambda x, m=m: x ** m, cfg).value
            want = 1.0 / q_number(m + 1).evaluate(q)
            if abs(got - want) >= tol:
                bad.append(("monomial", q, m))
    _verdict(not bad,
             "criterion 5: quadrature oracle within 1e-9 on the full grid "
             "(n <= 5, k in {1,2}, q in {0.3,0.7}, rho in {1,2,-0.5}, "
             "z in {0,1/3}) and monomial rule m <= 10%s"
             % ("" if not bad else "; first failure %r" % (bad[0],)))


def test_criterion_6_two_sum_forms_agree():
    # equal t-basis rows make the two forms equal at every k and q
    bad = [(fam, n) for fam in ("polyCauchy1", "polyCauchy2")
           for n in range(21)
           if families._t_rows(fam, n) != O.cauchy_double_sum_rows(fam, n)]
    _verdict(not bad,
             "criterion 6: double sums over the usual S1 and weighted-table "
             "forms agree as t-basis rows, n <= 20, every k and q%s"
             % ("" if not bad else "; first failure %r" % (bad[0],)))


def test_criterion_7_cli_determinism():
    cmd = [sys.executable, "-m", "qpoly", "verify", "--scope", "all"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _verdict(ok,
             "criterion 7: verify --scope all exits 0 and emits "
             "byte-identical output across runs (%d bytes)"
             % len(first.stdout))
