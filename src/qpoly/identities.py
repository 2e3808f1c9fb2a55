"""Symbolic verification of the identity catalogue.

Every check clears the weighted sums to polynomial form (the rho^(n-m)
prefactor absorbs each 1/rho inside a weight) and asserts that the
difference of the two sides is the zero ParamPoly, so a pass is an exact
statement about rational functions of q, not a numeric one.

Identity labels are stable wire-format tokens; one JSON record is emitted
per (identity, n, k).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence

from .core import ParamPoly, q_number_power_inverse
from .families import poly_bernoulli, poly_cauchy1, poly_cauchy2
from .stirling import (
    substitute_weight,
    weighted_stirling1,
    weighted_stirling2,
)
from .textform import format_param_poly

__all__ = [
    "IDENTITY_IDS",
    "IdentityReport",
    "check_inverse_relations",
    "check_kind_reciprocity",
    "check_mixed_expansions",
    "check_orthogonality",
    "reports_to_json_lines",
    "run_identity_sweep",
]

IDENTITY_IDS = (
    "ORTHO_1", "ORTHO_2",
    "T5_201", "T5_202", "T5_203",
    "T6_301", "T6_302",
    "T7_1", "T7_2", "T7_3", "T7_4",
)


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    n: int
    k: int | None
    status: str  # "verified" | "failed"
    witness: str | None = None


def _report(identity_id: str, n: int, k: int | None,
            diff: ParamPoly) -> IdentityReport:
    if diff.is_zero():
        return IdentityReport(identity_id, n, k, "verified")
    return IdentityReport(identity_id, n, k, "failed", format_param_poly(diff))


def check_orthogonality(n: int) -> list[IdentityReport]:
    """Both weighted orthogonality relations at level n, as exact
    polynomial identities in the weight:

        sum_l (-1)^(n-l) S2(n, l, x) S1(l, m, x) = delta_(m,n)
        sum_l (-1)^(l-m) S1(n, l, x) S2(l, m, x) = delta_(m,n)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = []
    for identity_id, first_outer in (("ORTHO_1", False), ("ORTHO_2", True)):
        witness: str | None = None
        for m in range(n + 1):
            acc = ParamPoly.zero()
            for l in range(m, n + 1):
                if first_outer:
                    prod = (weighted_stirling1(n, l).as_param_poly()
                            * weighted_stirling2(l, m).as_param_poly())
                    sign = (-1) ** (l - m)
                else:
                    prod = (weighted_stirling2(n, l).as_param_poly()
                            * weighted_stirling1(l, m).as_param_poly())
                    sign = (-1) ** (n - l)
                acc = acc + prod.scale(sign)
            diff = acc - ParamPoly.const(1 if m == n else 0)
            if not diff.is_zero():
                witness = "m=%d: %s" % (m, format_param_poly(diff))
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
    rhs = ParamPoly.const(q_number_power_inverse(n, k))
    lhs1 = ParamPoly.zero()
    lhs2 = ParamPoly.zero()
    lhs3 = ParamPoly.zero()
    for m in range(n + 1):
        w1 = substitute_weight(weighted_stirling1(n, m), 1)
        w2 = substitute_weight(weighted_stirling2(n, m), 1)
        w2n = substitute_weight(weighted_stirling2(n, m), -1)
        lhs1 = lhs1 + w1 * poly_bernoulli(m, k)
        lhs2 = lhs2 + w2 * poly_cauchy1(m, k)
        lhs3 = lhs3 + w2n * poly_cauchy2(m, k)
    return [
        _report("T5_201", n, k, lhs1 - rhs.scale(Fraction(factorial(n)))),
        _report("T5_202", n, k, lhs2 - rhs),
        _report("T5_203", n, k, lhs3 - rhs.scale((-1) ** n)),
    ]


def check_kind_reciprocity(n: int, k: int) -> list[IdentityReport]:
    """Binomial reciprocity between the two Cauchy-type kinds, n >= 1:

        (-1)^n c_n(z)/n! = sum_{m=1}^{n} C(n-1, m-1) rho^(n-m) g_m(z)/m!
        (-1)^n g_n(z)/n! = sum_{m=1}^{n} C(n-1, m-1) rho^(n-m) c_m(z)/m!

    The scale factor rho^(n-m) is forced by degree bookkeeping: both sides
    are weighted sums of rho^n binom((x-z)/rho + j, n) terms, and the
    binomial convolution that splits the order-n factor into order-m pieces
    leaves rho^(n-m) uncancelled on each piece.
    """
    if n < 1:
        raise ValueError("reciprocity starts at n = 1")
    sign = Fraction((-1) ** n, factorial(n))
    lhs1 = poly_cauchy1(n, k).scale(sign)
    lhs2 = poly_cauchy2(n, k).scale(sign)
    rhs1 = ParamPoly.zero()
    rhs2 = ParamPoly.zero()
    for m in range(1, n + 1):
        c = Fraction(comb(n - 1, m - 1), factorial(m))
        gap = ParamPoly.monomial(c, rho=n - m)
        rhs1 = rhs1 + poly_cauchy2(m, k) * gap
        rhs2 = rhs2 + poly_cauchy1(m, k) * gap
    return [
        _report("T6_301", n, k, lhs1 - rhs1),
        _report("T6_302", n, k, lhs2 - rhs2),
    ]


def check_mixed_expansions(n: int, k: int) -> list[IdentityReport]:
    """The four double-sum expansions mixing the families through two
    independent weights. With x in the z slot, y in the y slot, and all
    rho powers cleared into the weights, they read

        B_n(x) = sum_{l,m} (-1)^(n-m) m! S2x(n,m) S2y(m,l) c_l(y)
        B_n(x) = sum_{l,m} (-1)^n     m! S2x(n,m) S2y-(m,l) g_l(y)
        c_n(x) = sum_{l,m} (-1)^(n-m)/m! S1x(n,m) S1y(m,l) B_l(y)
        g_n(x) = sum_{l,m} (-1)^n    /m! S1x-(n,m) S1y(m,l) B_l(y)

    where S*x, S*y are weighted Stirling polynomials under the weight
    substitution in the named slot and a trailing minus marks weight -v.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # weights[l] holds the four q-free sums over m of the Stirling factors,
    # so each family value meets one product per (identity, l)
    weights = [[ParamPoly.zero()] * 4 for _ in range(n + 1)]
    for m in range(n + 1):
        s2x = substitute_weight(weighted_stirling2(n, m), 1, "z")
        s1x = substitute_weight(weighted_stirling1(n, m), 1, "z")
        s1xn = substitute_weight(weighted_stirling1(n, m), -1, "z")
        fm = factorial(m)
        sign_nm = (-1) ** (n - m)
        sign_n = (-1) ** n
        for l in range(m + 1):
            s2y = substitute_weight(weighted_stirling2(m, l), 1, "y")
            s2yn = substitute_weight(weighted_stirling2(m, l), -1, "y")
            s1y = substitute_weight(weighted_stirling1(m, l), 1, "y")
            w = weights[l]
            w[0] = w[0] + (s2x * s2y).scale(sign_nm * fm)
            w[1] = w[1] + (s2x * s2yn).scale(sign_n * fm)
            w[2] = w[2] + (s1x * s1y).scale(Fraction(sign_nm, fm))
            w[3] = w[3] + (s1xn * s1y).scale(Fraction(sign_n, fm))
    rhs = [ParamPoly.zero()] * 4
    for l, w in enumerate(weights):
        rhs[0] = rhs[0] + w[0] * poly_cauchy1(l, k, "y")
        rhs[1] = rhs[1] + w[1] * poly_cauchy2(l, k, "y")
        rhs[2] = rhs[2] + w[2] * poly_bernoulli(l, k, "y")
        rhs[3] = rhs[3] + w[3] * poly_bernoulli(l, k, "y")
    return [
        _report("T7_1", n, k, poly_bernoulli(n, k) - rhs[0]),
        _report("T7_2", n, k, poly_bernoulli(n, k) - rhs[1]),
        _report("T7_3", n, k, poly_cauchy1(n, k) - rhs[2]),
        _report("T7_4", n, k, poly_cauchy2(n, k) - rhs[3]),
    ]


def _sort_key(r: IdentityReport):
    return (r.identity_id, r.n, r.k if r.k is not None else 0)


def run_identity_sweep(nmax: int = 10, nmax_mixed: int = 8,
                       k_values: Sequence[int] = range(-2, 4),
                       include_orthogonality: bool = True) -> list[IdentityReport]:
    """Run the whole catalogue and return reports sorted by
    (identity_id, n, k)."""
    reports: list[IdentityReport] = []
    if include_orthogonality:
        for n in range(nmax + 1):
            reports.extend(check_orthogonality(n))
    for k in k_values:
        for n in range(nmax + 1):
            reports.extend(check_inverse_relations(n, k))
            if n >= 1:
                reports.extend(check_kind_reciprocity(n, k))
        for n in range(nmax_mixed + 1):
            reports.extend(check_mixed_expansions(n, k))
    reports.sort(key=_sort_key)
    return reports


def reports_to_json_lines(reports: Iterable[IdentityReport]) -> str:
    lines = []
    for r in reports:
        lines.append(json.dumps(
            {"identity": r.identity_id, "n": r.n, "k": r.k,
             "status": r.status, "witness": r.witness},
            sort_keys=False))
    return "\n".join(lines)
