"""Numeric path: truncated Jackson integrals as an outside check."""

import copy
import math
import pickle
import subprocess
import sys

import pytest

import oracles as O
import qpoly.jackson as jackson
from qpoly import (
    NonconvergedTruncation,
    OracleConfig,
    eval_numeric,
    family_value,
    jackson_integral_1d,
    oracle_family,
    q_number,
)

TOL = 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(q=0.0)
    with pytest.raises(ValueError):
        OracleConfig(q=1.0)
    with pytest.raises(ValueError):
        OracleConfig(q=0.5, truncation=0)
    # an infinite tolerance would pass every comparison, a NaN fail them all
    for tolerance in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(ValueError):
            OracleConfig(q=0.5, tolerance=tolerance)


def test_config_refuses_a_non_integer_truncation():
    # range() would otherwise refuse it only inside oracle_family
    for truncation in (2.5, 200.0, "200", None):
        with pytest.raises(TypeError):
            OracleConfig(0.5, truncation)


def test_config_construction_equality_and_defaults():
    # the three ways cli.py builds a config, and its defaults read off
    # the class as DEFAULT_CONFIG does
    assert OracleConfig._field_defaults == {"truncation": 200,
                                            "tolerance": 1e-9}
    by_position = OracleConfig(0.5, 200, 1e-9)
    assert by_position == OracleConfig(0.5) == OracleConfig(
        q=0.5, truncation=200, tolerance=1e-9)
    assert OracleConfig(0.5, tolerance=1e-6).tolerance == 1e-6
    assert (by_position.q, by_position.truncation,
            by_position.tolerance) == (0.5, 200, 1e-9)
    assert hash(by_position) == hash(OracleConfig(q=0.5))
    assert OracleConfig(0.5) != OracleConfig(0.5, 100)
    assert repr(by_position) == (
        "OracleConfig(q=0.5, truncation=200, tolerance=1e-09)")
    with pytest.raises(AttributeError):
        by_position.q = 0.7
    with pytest.raises(AttributeError):
        del by_position.q
    with pytest.raises(TypeError):
        OracleConfig()


def test_no_way_to_build_a_config_skips_its_checks():
    # a bare NamedTuple's _make, which _replace calls, builds the tuple
    # without __new__; copy and pickle rebuild through __new__
    cfg = OracleConfig(0.5)
    assert cfg._replace(tolerance=1e-6) == OracleConfig(0.5, 200, 1e-6)
    assert OracleConfig._make((0.7, 50, 1e-9)) == OracleConfig(0.7, 50)
    assert copy.copy(cfg) == pickle.loads(pickle.dumps(cfg)) == cfg
    for bad in ({"q": 2.0}, {"truncation": 0}, {"tolerance": math.nan}):
        with pytest.raises(ValueError):
            cfg._replace(**bad)
    with pytest.raises(TypeError):
        cfg._replace(truncation=2.5)
    with pytest.raises(TypeError):
        OracleConfig._make((0.5, 2.5, 1e-9))
    with pytest.raises(ValueError):
        OracleConfig._make((1.0, 200, 1e-9))
    # an instance forged past __new__ cannot be copied or unpickled
    forged = tuple.__new__(OracleConfig, (2.0, 200, 1e-9))
    with pytest.raises(ValueError):
        copy.copy(forged)
    with pytest.raises(ValueError):
        pickle.loads(pickle.dumps(forged))


def test_monomial_rule():
    # the quadrature is exact on monomials: integral of x^m is 1/[m+1]
    for q in (0.3, 0.7):
        cfg = OracleConfig(q=q)
        for m in range(11):
            got = jackson_integral_1d(lambda x, m=m: x ** m, cfg)
            want = 1.0 / q_number(m + 1).evaluate(q)
            assert abs(got.value - want) < TOL, (q, m)
            assert got.tail_bound < TOL


def test_quadrature_matches_plain_python_reference():
    cfg = OracleConfig(q=0.6, truncation=120)
    f = lambda x: math.sin(x) + x ** 2
    got = jackson_integral_1d(f, cfg)
    want = O.jackson_integral_reference(f, 0.6, 120)
    assert got.value == pytest.approx(want, abs=1e-12)


def test_closed_forms_match_oracle_grid():
    # the criterion-5 grid, at every depth the nested sums cannot reach too,
    # and at a zero and a tiny rho
    for family in ("polyCauchy1", "polyCauchy2"):
        for n in range(6):
            for k in (1, 2, 3, 4):
                closed = family_value(family, n, k)
                for q in (0.3, 0.7):
                    cfg = OracleConfig(q=q)
                    for rho in (1.0, 2.0, -0.5, 0.0, 1e-35):
                        for z in (0.0, 1.0 / 3.0):
                            got = oracle_family(family, n, k, rho, z, cfg)
                            want = eval_numeric(closed, q=q, rho=rho, z=z)
                            assert abs(got - want) < TOL, \
                                (family, n, k, q, rho, z)


def test_collapsed_sum_matches_literal_nested_sums():
    # points of the criterion-5 grid; the k = 2 reference visits all
    # 200^2 index pairs, so the grid is thinned to keep the test quick
    for family in ("polyCauchy1", "polyCauchy2"):
        for n in (1, 3, 5):
            for k in (1, 2):
                for q in (0.3, 0.7):
                    cfg = OracleConfig(q=q, truncation=200)
                    for rho, z in ((2.0, 0.0), (-0.5, 1.0 / 3.0)):
                        got = oracle_family(family, n, k, rho, z, cfg)
                        want = O.cauchy_integral_reference(
                            family, n, k, rho, z, q, 200)
                        assert got == pytest.approx(want, rel=1e-12), \
                            (family, n, k, q, rho, z)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tail_bound_covers_the_dropped_nodes(k):
    # q near 1 and a short truncation put the bound far above rounding
    f = lambda u: 1.0 + u
    short = jackson._jackson_sum(f, k, OracleConfig(q=0.9, truncation=40))
    long = jackson._jackson_sum(f, k, OracleConfig(q=0.9, truncation=160))
    assert short.tail_bound >= 1e-8
    assert 0.0 < long.value - short.value <= short.tail_bound


def test_oracle_rejects_unsupported_depth():
    cfg = OracleConfig(q=0.5)
    with pytest.raises(ValueError):
        oracle_family("polyCauchy1", 2, 0, 1.0, 0.0, cfg)
    with pytest.raises(ValueError):
        oracle_family("polyBernoulli", 2, 1, 1.0, 0.0, cfg)


def test_oracle_weights_past_the_float_range_raise_overflow():
    # the CLI refuses such a depth first (cli.K_LIMIT); the library raises
    with pytest.raises(OverflowError):
        oracle_family("polyCauchy1", 2, 400, 1.0, 0.0, OracleConfig(q=0.3))
    # so does a sum whose terms overflow to both infinities, which fsum
    # refuses: at rho = 1e200 and z = 0.3, 198 nodes give +inf and 2 -inf
    with pytest.raises(OverflowError, match="rho = 1e\\+200"):
        oracle_family("polyCauchy1", 10, 1, 1e200, 0.3, OracleConfig(q=0.5))
    # and a finite value whose tail bound reads inf * 0: the integrand
    # overflows in the bound's product while q^s0 underflows
    with pytest.raises(OverflowError, match="rho = 3e\\+33"):
        oracle_family("polyCauchy1", 10, 2, 3e33, 0.3, OracleConfig(q=0.02))
    # a tiny rho stays in range and agrees with the closed form
    for family, n, k, rho in (("polyCauchy1", 10, 1, 1e-40),
                              ("polyCauchy2", 9, 2, 1e-35)):
        got = oracle_family(family, n, k, rho, 0.3, OracleConfig(q=0.5))
        want = eval_numeric(family_value(family, n, k), q=0.5, rho=rho,
                            z=0.3)
        assert abs(got - want) < TOL, (family, rho)


@pytest.mark.parametrize("rho, z", [(math.nan, 0.0), (1.0, math.inf),
                                    (-math.inf, 0.5), (1.0, math.nan)])
def test_oracle_rejects_non_finite_parameters(rho, z):
    with pytest.raises(ValueError):
        oracle_family("polyCauchy1", 3, 1, rho, z, OracleConfig(q=0.5))
    # the closed form's numeric path refuses the same points the same way
    with pytest.raises(ValueError, match="must be finite"):
        eval_numeric(family_value("polyCauchy1", 3, 1), q=0.5, rho=rho, z=z)


@pytest.mark.parametrize("point", [
    {"rho": math.nan, "z": math.nan},
    {"rho": 1.0, "z": 0.5, "y": math.inf},
], ids=["unused-rho-and-z", "unused-y"])
def test_eval_numeric_refuses_a_non_finite_point_it_does_not_use(point):
    # n = 0 is the constant 1, which once read 1.0 at any rho and z
    with pytest.raises(ValueError, match="must be finite"):
        eval_numeric(family_value("polyCauchy1", 0, 1), q=0.5, **point)


def test_truncation_failure_is_loud():
    # a short q near 1 tail cannot meet a 1e-12 demand
    cfg = OracleConfig(q=0.97, truncation=30, tolerance=1e-12)
    with pytest.raises(NonconvergedTruncation):
        oracle_family("polyCauchy1", 5, 1, 0.5, 0.0, cfg)


def test_quad_result_shape():
    cfg = OracleConfig(q=0.5, truncation=60)
    r = jackson_integral_1d(lambda x: 1.0, cfg)
    assert r.value == pytest.approx(1.0)
    assert r.tail_bound >= 0.0
    value, tail = r
    assert value == r.value and tail == r.tail_bound


def test_import_leaves_numpy_out():
    # the oracle is plain Python; a fresh interpreter shows what
    # importing the package pulls in
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qpoly; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_leaves_dataclasses_and_inspect_out():
    # dataclasses pulls in inspect, a large share of the import time
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qpoly; print(sorted({'dataclasses', 'inspect'}"
         " & set(sys.modules)))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
