"""Workload definitions: the op list of one pass, how an op runs, and how
its output is checked against the pinned references.

A pass is the op list one fresh worker process runs. Ops call the package
through module attributes looked up at call time, so the wrappers that
tracing.py installs on those attributes see every call.

Why these three workloads:

- identity_sweep: the identity battery at acceptance scale. Identities and
  the kernel's small-operand QRat add/mul and gcd do most of the work;
  series, textform and jackson do none.
- gf_sweep: every generating-function build of `verify --scope gf` and
  smaller orders. Series mul and compose over growing ParamPolys do most
  of the work; identities do none.
- value_mix: single-value lookups as a CLI user makes them, at random q,
  rho, z: large-n closed forms, high q-degree gcds, parsing text through
  the general QRat constructor, eval_numeric and the Jackson oracle. Some
  keys repeat within a pass, so the family caches are hit at a measured
  rate; the sweeps repeat none.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import qpoly.core as core
import qpoly.families as families
import qpoly.identities as identities
import qpoly.jackson as jackson
import qpoly.series as series
import qpoly.textform as textform

WORKLOADS = ("identity_sweep", "gf_sweep", "value_mix")
FAMILY_NAMES = ("polyBernoulli", "polyCauchy1", "polyCauchy2")
K_VALUES = tuple(range(-2, 4))
NMAX, NMAX_MIXED = 10, 8          # acceptance scale of the identity sweep
GF_ORDERS = (4, 8, 12)            # 12 is the order `verify --scope gf` uses
VALUE_REPEAT = 8                  # one grid cell in 8 is looked up twice
VALUE_NMAX = 25                   # the reference grid covers n <= 25
ORACLE_NMAX = 5                   # the n range `verify --scope oracle` checks
REF_DIR = Path(__file__).resolve().parent / "ref"

_GF_BUILDERS = {"polyBernoulli": "gf_poly_bernoulli",
                "polyCauchy1": "gf_poly_cauchy1",
                "polyCauchy2": "gf_poly_cauchy2"}
IDENTITY_CHECKS = {"orthogonality": "check_orthogonality",
                   "inverse": "check_inverse_relations",
                   "reciprocity": "check_kind_reciprocity",
                   "mixed": "check_mixed_expansions"}
NONCONVERGED = "nonconverged"


def build_ops(workload: str, seed: int, pass_index: int) -> list[tuple]:
    """The op list of one pass; a function of its arguments only."""
    rng = random.Random("%s/%d/%d" % (workload, seed, pass_index))
    if workload == "identity_sweep":
        ops = [("orthogonality", n, None) for n in range(NMAX + 1)]
        for k in K_VALUES:
            ops += [("inverse", n, k) for n in range(NMAX + 1)]
            ops += [("reciprocity", n, k) for n in range(1, NMAX + 1)]
            ops += [("mixed", n, k) for n in range(NMAX_MIXED + 1)]
        rng.shuffle(ops)
        return ops
    if workload == "gf_sweep":
        ops = [("gf", fam, k, order) for fam in FAMILY_NAMES
               for k in K_VALUES for order in GF_ORDERS]
        rng.shuffle(ops)
        return ops
    if workload == "value_mix":
        # Each pass looks up half of the (family, n, k) grid, so that every
        # two passes look every value up once, in a seeded order that is new
        # for each two passes; a run's mix of cheap and costly lookups then
        # does not hinge on the seed. Every VALUE_REPEAT-th cell of the grid
        # is looked up a second time, later in the same pass, as in a
        # user's session.
        grid = [(fam, n, k) for fam in FAMILY_NAMES
                for n in range(VALUE_NMAX + 1) for k in K_VALUES]
        repeated = set(grid[::VALUE_REPEAT])
        cells = list(grid)
        random.Random("%s/%d/cycle%d" % (workload, seed, pass_index // 2)
                      ).shuffle(cells)
        half = len(cells) // 2
        keys = cells[half * (pass_index % 2):][:half]
        for key in [key for key in keys if key in repeated]:
            keys.insert(rng.randint(keys.index(key) + 1, len(keys)), key)
        ops = []
        for fam, n, k in keys:
            q = rng.uniform(0.05, 0.95)
            rho = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0)
            z = rng.uniform(-1.0, 1.0)
            ops.append(("value", fam, n, k, q, rho, z))
        return ops
    raise ValueError("unknown workload %r" % workload)


def op_size(op: tuple) -> int:
    """The n (or series order) an op works at."""
    if op[0] == "gf":
        return op[3]
    return op[2] if op[0] == "value" else op[1]


def op_key(op: tuple) -> str:
    return "|".join(str(x) for x in op)


def execute(op: tuple):
    """Run one op; this is the timed section."""
    kind = op[0]
    if kind in IDENTITY_CHECKS:
        check = getattr(identities, IDENTITY_CHECKS[kind])
        return check(op[1]) if op[2] is None else check(op[1], op[2])
    if kind == "gf":
        _, fam, k, order = op
        gf = getattr(series, _GF_BUILDERS[fam])(k, order)
        coeffs = [series.egf_coefficient(gf, n) for n in range(order + 1)]
        same = [c == families.family_value(fam, n, k)
                for n, c in enumerate(coeffs)]
        return coeffs, same
    if kind == "value":
        _, fam, n, k, q, rho, z = op
        value = families.family_value(fam, n, k)
        text = textform.format_param_poly(value)
        back = textform.parse_param_poly(text)
        x = core.eval_numeric(back, q=q, rho=rho, z=z)
        oracle = None
        if fam != "polyBernoulli" and k in (1, 2):
            try:
                oracle = jackson.oracle_family(fam, n, k, rho, z,
                                               jackson.OracleConfig(q=q))
            except jackson.NonconvergedTruncation:
                oracle = NONCONVERGED
        return value, text, back, x, oracle
    raise ValueError("unknown op %r" % (op,))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grid_key(fam: str, n: int, k: int) -> str:
    return "%s|%d|%d" % (fam, n, k)


def load_refs() -> dict:
    refs = {}
    for name in ("grid", "identity"):
        with open(REF_DIR / ("%s.json" % name)) as fh:
            refs[name] = json.load(fh)
    return refs


def sweep_digest(reports) -> str:
    """Digest of the reports in run_identity_sweep's order."""
    ordered = sorted(reports, key=lambda r: (r.identity_id, r.n, r.k or 0))
    return digest(identities.reports_to_json_lines(ordered))


def check(op: tuple, out, refs: dict) -> dict:
    """Compare one op's output with the references; never timed.

    Returns {"ok": bool} plus, for value ops, the numeric error and, for
    Cauchy k = 1, 2, the oracle's outcome: "agree" (True, False or
    NONCONVERGED), "certified" (n is in the range the CLI's oracle sweep
    checks) and "rel_err" (the oracle's error relative to the exact value).
    Numeric loss and oracle disagreement are measured, not counted as
    failures: the pinned exact outputs are what must match.
    """
    kind = op[0]
    if kind in IDENTITY_CHECKS:
        want = refs["identity"]["ops"].get(op_key(op))
        return {"ok": digest(identities.reports_to_json_lines(out)) == want}
    if kind == "gf":
        _, fam, k, _order = op
        coeffs, same = out
        ok = all(same) and all(
            digest(textform.format_param_poly(c))
            == refs["grid"].get(grid_key(fam, n, k))
            for n, c in enumerate(coeffs))
        return {"ok": ok}
    _, fam, n, k, q, rho, z = op
    value, text, back, x, oracle = out
    ok = (digest(text) == refs["grid"].get(grid_key(fam, n, k))
          and back == value and math.isfinite(x))
    rel_err, scaled_err = numeric_error(value, x, q, rho, z)
    result = {"ok": ok, "rel_err": rel_err, "scaled_err": scaled_err}
    if oracle is not None:
        verdict = {"agree": NONCONVERGED, "certified": n <= ORACLE_NMAX,
                   "rel_err": None}
        if oracle != NONCONVERGED:
            # the agreement test `qpoly oracle` applies: an absolute
            # tolerance, which values of size 1e10 and more cannot meet
            tolerance = jackson.OracleConfig(q=q).tolerance
            verdict["agree"] = abs(x - oracle) < tolerance
            verdict["rel_err"] = numeric_error(value, oracle, q, rho, z)[0]
        result["oracle"] = verdict
    return result


# ---------------------------------------------------------------------------
# exact evaluation at the binary values of float inputs

# Each exact term is rounded to a multiple of 2**-4096, far below any
# error a float evaluation can show at these magnitudes.
_FIXED_BITS = 4096


def _poly_at(coeffs, qn: int, qd: int) -> tuple[int, int]:
    """P(qn/qd) as (numerator, denominator) integers, by homogeneous Horner
    over the integer-scaled coefficients."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * qn + c.numerator * (den // c.denominator) * scale
        scale *= qd
    return acc, den * scale // qd


def numeric_error(value, x: float, q: float, rho: float, z: float
                  ) -> tuple[float, float]:
    """Error of the float x against the exact value of `value` at the
    exact binary q, rho, z: relative to |exact|, and relative to the sum of
    the absolute values of the evaluated terms."""
    qn, qd = q.as_integer_ratio()
    rn, rd = rho.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    one = 1 << _FIXED_BITS
    total = 0
    size = 0
    at = {}   # terms share denominator objects
    for (er, ez, _ey), c in value.sorted_terms():
        nn, nd = _poly_at(c.num.coeffs, qn, qd)
        if id(c.den) not in at:
            at[id(c.den)] = _poly_at(c.den.coeffs, qn, qd)
        dn, dd = at[id(c.den)]
        term = (nn * dd * rn ** er * zn ** ez * one) // (
            nd * dn * rd ** er * zd ** ez)
        total += term
        size += abs(term)
    err = abs(Fraction(x) * one - total)
    rel = float(err / abs(total)) if total else float(err / max(size, 1))
    return rel, float(err / max(size, 1))
