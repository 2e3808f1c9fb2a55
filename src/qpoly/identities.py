"""Symbolic verification of the identity catalogue.

Every check clears the weighted sums to polynomial form (the rho^(n-m)
prefactor absorbs each 1/rho inside a weight) and asserts that the
difference of the two sides is the zero ParamPoly, so a pass is an exact
statement about rational functions of q, not a numeric one.

Orthogonality involves no family. Every other identity, like each
generating function against its family (run_gf_sweep), is linear in the
family values, so its difference is formed once per n in the t-basis of
families, sum_m t_m D_m with q-free D_m and t_m = [m+1]_q^(-k), cached per
n (an lru_cache keyed by n alone) and shared by every k. The verdict at
(n, k) is that t-difference specialized at k: a zero t-difference is one
proof for every k and q, and a failure's witness is the specialized
difference.

Each D_m is homogeneous of degree n - m in (rho, z, y), so it is built as
a dense int row indexed by its z and y exponents, from the family rows of
families._t_rows and the weights of stirling._weighted_row (one row of
the triangle per n and kind, indexed by m), and becomes a ParamPoly once,
when cached. Differences with 1/m! weights (T6, T7_3, T7_4) are built
times n!, in integers, and divided back by families._from_rows.

Identity labels are stable wire-format tokens; one JSON record is emitted
per (identity, n, k).
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, NamedTuple, Sequence

from . import series
from .core import ParamPoly
from .families import (FAMILIES, _add_product, _from_rows, _t_rows,
                       specialize)
from .stirling import _signed_weight, _weighted_row
from .textform import format_param_poly

__all__ = [
    "IDENTITY_IDS",
    "IdentityReport",
    "check_inverse_relations",
    "check_kind_reciprocity",
    "check_mixed_expansions",
    "check_orthogonality",
    "report_record",
    "reports_to_json_lines",
    "run_gf_sweep",
    "run_identity_sweep",
]

IDENTITY_IDS = (
    "ORTHO_1", "ORTHO_2",
    "T5_201", "T5_202", "T5_203",
    "T6_301", "T6_302",
    "T7_1", "T7_2", "T7_3", "T7_4",
)


class IdentityReport(NamedTuple):
    identity_id: str
    n: int
    k: int | None
    status: str  # "verified" | "failed"
    witness: str | None = None


def _verdict(identity_id: str, n: int, k: int, tdiff) -> IdentityReport:
    """The verdict on the t-difference tdiff at k, the rule of every exact
    check; a failure's witness is the difference specialized at k."""
    if not isinstance(k, int):
        raise TypeError("k must be an integer")
    if tdiff:   # a zero t-difference is () and zero at every k
        d = specialize(tdiff, k)
        if not d.is_zero():
            return IdentityReport(identity_id, n, k, "failed",
                                  format_param_poly(d))
    return IdentityReport(identity_id, n, k, "verified")


def _verdicts(ids: Sequence[str], n: int, k: int,
              body) -> list[IdentityReport]:
    """The verdicts at k on the t-differences body(n), one per identity."""
    return [_verdict(i, n, k, d) for i, d in zip(ids, body(n))]


def _dense(rows, n: int, scale: int = 1) -> tuple[ParamPoly, ...]:
    """The t-difference that dense rows hold scale times, read by
    _from_rows without its trailing zero entries, so a zero one is () and
    a verified one is cheap to judge and never divided back."""
    while rows and not any(rows[-1]):
        rows = rows[:-1]
    return _from_rows(rows, n, scale)


@lru_cache(maxsize=None)
def _inverse_lhs(n: int) -> tuple:
    """The inverse relations' left sides at n as dense rows,
    sum_m S(n, m, +-z/rho) rho^(n-m) F_m(z); entry j has degree n - j."""
    out = []
    for second, sign, family in ((False, 1, "polyBernoulli"),
                                 (True, 1, "polyCauchy1"),
                                 (True, -1, "polyCauchy2")):
        table = _weighted_row(n, second)
        rows = [[0] * (n - j + 1) for j in range(n + 1)]
        for m in range(n + 1):
            w = _signed_weight(table[m], n - m, sign)
            for j, row in enumerate(_t_rows(family, m)):
                _add_product(rows[j], w, row)
        out.append(tuple(map(tuple, rows)))
    return tuple(out)


def check_orthogonality(n: int) -> list[IdentityReport]:
    """Both weighted orthogonality relations at level n, as exact
    polynomial identities in the weight:

        sum_l (-1)^(n-l) S2(n, l, x) S1(l, m, x) = delta_(m,n)
        sum_l (-1)^(l-m) S1(n, l, x) S2(l, m, x) = delta_(m,n)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    # the outer sum reads row n of one kind, the inner rows 0..n of the other
    for identity_id, second, sign_by_l in (("ORTHO_1", True, False),
                                           ("ORTHO_2", False, True)):
        witness: str | None = None
        row = _weighted_row(n, second)
        inner = [_weighted_row(l, not second) for l in range(n + 1)]
        for m in range(n + 1):
            diff = [-(m == n)]
            for l in range(m, n + 1):
                _add_product(diff, row[l], inner[l][m],
                             -1 if (l - m if sign_by_l else n - l) % 2 else 1)
            if any(diff):
                witness = "m=%d: %s" % (m, format_param_poly(ParamPoly._raw(
                    {(0, i, 0): c for i, c in enumerate(diff) if c})))
                break
        status = "verified" if witness is None else "failed"
        out.append(IdentityReport(identity_id, n, None, status, witness))
    return out


def check_inverse_relations(n: int, k: int) -> list[IdentityReport]:
    """The three closed evaluations obtained by inverting each family's
    weighted Stirling sum; cleared by rho^n they read

        sum_m S1(n, m, z/rho) rho^(n-m) B_m(z)  = n! / [n+1]_q^k
        sum_m S2(n, m, z/rho) rho^(n-m) c_m(z)  = 1  / [n+1]_q^k
        sum_m S2(n, m, -z/rho) rho^(n-m) g_m(z) = (-1)^n / [n+1]_q^k

    with B, c, g the three families.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _verdicts(("T5_201", "T5_202", "T5_203"), n, k, _inverse_t)


@lru_cache(maxsize=None)
def _inverse_t(n: int) -> tuple:
    # each right side is a multiple of t_n, a constant in entry n
    return tuple(_dense(lhs[:n] + ((lhs[n][0] - rhs,),), n)
                 for lhs, rhs in zip(_inverse_lhs(n),
                                     (factorial(n), 1, (-1) ** n)))


def check_kind_reciprocity(n: int, k: int) -> list[IdentityReport]:
    """Binomial reciprocity between the two Cauchy-type kinds, n >= 1:

        (-1)^n c_n(z)/n! = sum_{m=1}^{n} C(n-1, m-1) rho^(n-m) g_m(z)/m!
        (-1)^n g_n(z)/n! = sum_{m=1}^{n} C(n-1, m-1) rho^(n-m) c_m(z)/m!

    The scale factor rho^(n-m) is forced by degree bookkeeping: both sides
    are weighted sums of rho^n binom((x-z)/rho + j, n) terms, and the
    binomial convolution that splits the order-n factor into order-m pieces
    leaves rho^(n-m) uncancelled on each piece.

    Each difference is built times n!, which clears every denominator:
    C(n-1, m-1) n!/m! is the unsigned Lah number L(n, m), so the check
    runs in integers on

        (-1)^n c_n(z) - sum_{m=1}^{n} L(n, m) rho^(n-m) g_m(z)

    and its twin; _dense divides a failing one back by n!, so a failure's
    witness is the difference itself.
    """
    if n < 1:
        raise ValueError("reciprocity starts at n = 1")
    return _verdicts(("T6_301", "T6_302"), n, k, _reciprocity_t)


@lru_cache(maxsize=None)
def _reciprocity_t(n: int) -> tuple:
    # n! times each difference; a weight -L(n, m) rho^(n-m) scales a row
    out = []
    for lhs, rhs in (("polyCauchy1", "polyCauchy2"),
                     ("polyCauchy2", "polyCauchy1")):
        rows = [[(-1) ** n * c for c in row] for row in _t_rows(lhs, n)]
        for m in range(1, n + 1):
            w = -(comb(n - 1, m - 1) * factorial(n) // factorial(m))
            for j, row in enumerate(_t_rows(rhs, m)):
                _add_product(rows[j], (w,), row)
        out.append(_dense(rows, n, factorial(n)))
    return tuple(out)


def check_mixed_expansions(n: int, k: int) -> list[IdentityReport]:
    """The four double-sum expansions mixing the families through two
    independent weights z and y. With all rho powers cleared into the
    weights, they read

        B_n(z) = sum_{l,m} (-1)^(n-m) m! S2z(n,m) S2y(m,l) c_l(y)
        B_n(z) = sum_{l,m} (-1)^n     m! S2z(n,m) S2y-(m,l) g_l(y)
        c_n(z) = sum_{l,m} (-1)^(n-m)/m! S1z(n,m) S1y(m,l) B_l(y)
        g_n(z) = sum_{l,m} (-1)^n    /m! S1z-(n,m) S1y(m,l) B_l(y)

    where S*z, S*y are weighted Stirling polynomials under the weight
    substitution in z or y and a trailing minus marks a negated weight.
    Each inner sum over l is an inverse relation's left side at m (see
    check_inverse_relations), built once in z and read as a row in y.
    The last two differences are built times n!, with the integer weights
    n!/m!, so every check runs in integers; _dense divides a failing one
    back by n!, so a failure's witness is the difference itself.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _verdicts(("T7_1", "T7_2", "T7_3", "T7_4"), n, k, _mixed_t)


@lru_cache(maxsize=None)
def _mixed_t(n: int) -> tuple:
    # each sum over l is _inverse_lhs(m), its rows read in y at stride n-j+1
    out = []
    for lhs, second, sign, sign_by_m, cleared, relation in (
            ("polyBernoulli", True, 1, True, False, 1),
            ("polyBernoulli", True, 1, False, False, 2),
            ("polyCauchy1", False, 1, True, True, 0),
            ("polyCauchy2", False, -1, False, True, 0)):
        # a cleared row is n! times its difference: weights n!/m!, not 1/m!
        scale = factorial(n) if cleared else 1
        rows = [[scale * c for c in row] for row in _t_rows(lhs, n)]
        table = _weighted_row(n, second)
        for m in range(n + 1):
            w = scale // factorial(m) if cleared else factorial(m)
            c = -w if (n - m if sign_by_m else n) % 2 == 0 else w
            weight = _signed_weight(table[m], n - m, sign)
            for j, inner in enumerate(_inverse_lhs(m)[relation]):
                _add_product(rows[j], inner, weight, c, n - j + 1)
        out.append(_dense(rows, n, scale))
    return tuple(out)


def run_identity_sweep(nmax: int, nmax_mixed: int,
                       k_values: Sequence[int]) -> list[IdentityReport]:
    """Run the whole catalogue and return reports sorted by
    (identity_id, n, k)."""
    reports: list[IdentityReport] = []
    for n in range(nmax + 1):
        reports.extend(check_orthogonality(n))
    for k in k_values:
        for n in range(nmax + 1):
            reports.extend(check_inverse_relations(n, k))
            if n >= 1:
                reports.extend(check_kind_reciprocity(n, k))
        for n in range(nmax_mixed + 1):
            reports.extend(check_mixed_expansions(n, k))
    reports.sort(key=lambda r: (r.identity_id, r.n, r.k or 0))
    return reports


def run_gf_sweep(nmax: int, k_values: Sequence[int]) -> list[IdentityReport]:
    """Each family's generating function against its values for n <= nmax:
    n! [t^n] S_j - P_{n,j}, formed once per (family, n) in the t-basis and
    judged at each k. Reports are GF_<family>, in (family, n, k) order."""
    reports = []
    for family in FAMILIES:
        for n in range(nmax + 1):
            # strict: a row of the wrong length fails loudly, not as a pass
            diff = _dense([[a - p for a, p in zip(ra, rp, strict=True)]
                           for ra, rp in zip(series._gf_row(family, n),
                                             _t_rows(family, n),
                                             strict=True)], n)
            reports.extend(_verdict("GF_" + family, n, k, diff)
                           for k in k_values)
    return reports


def report_record(r: IdentityReport) -> dict:
    """The JSON record of one report."""
    return {"identity": r.identity_id, "n": r.n, "k": r.k,
            "status": r.status, "witness": r.witness}


def reports_to_json_lines(reports: Iterable[IdentityReport]) -> str:
    return "\n".join(json.dumps(report_record(r)) for r in reports)
