"""Stirling numbers of both kinds, plain and carrying a weight variable.

The weighted arrays are polynomials in a weight x defined by the pair of
exponential generating functions

    (1-t)^(-x) (-log(1-t))^m / m!  =  sum_n S1(n, m, x) t^n / n!
    e^(x t) (e^t - 1)^m / m!       =  sum_n S2(n, m, x) t^n / n!

and computed here through the equivalent triangular recurrences

    S1(n+1, m, x) = S1(n, m-1, x) + (n + x) S1(n, m, x)
    S2(n+1, m, x) = S2(n, m-1, x) + (m + x) S2(n, m, x)

with S(0, 0, x) = 1 and S(n, m, x) = 0 for m < 0 or m > n. Setting x = 0
recovers the unsigned classical numbers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import ParamPoly, QRat

__all__ = [
    "WeightedStirling",
    "carlitz_expand",
    "stirling1",
    "stirling2",
    "substitute_weight",
    "weighted_stirling1",
    "weighted_stirling2",
]


def _xpoly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _weighted_row_next(row: list[tuple[int, ...]], n: int,
                       second: bool) -> list[tuple[int, ...]]:
    """Row n+1 from row n: S(n+1, m) = S(n, m-1) + (a + x) S(n, m), with
    a = m for the second kind and a = n for the first."""
    out = []
    for m in range(n + 2):
        # row n, column m has degree <= n - m, so n + 2 slots hold the sum
        acc = [0] * (n + 2)
        if m <= n:
            a = m if second else n
            for i, c in enumerate(row[m]):
                acc[i] += a * c
                acc[i + 1] += c
        if m:
            for i, c in enumerate(row[m - 1]):
                acc[i] += c
        out.append(_xpoly_trim(acc))
    return out


def _plain_row_next(row: list[int], n: int, second: bool) -> list[int]:
    out = []
    for m in range(n + 2):
        v = (m if second else n) * row[m] if m <= n else 0
        if m:
            v += row[m - 1]
        out.append(v)
    return out


_LOCK = threading.Lock()
# rows 0..n of each triangle computed so far, keyed by (weighted, second)
_TRIANGLES: dict[tuple[bool, bool], list] = {
    (False, False): [[1]], (False, True): [[1]],
    (True, False): [[(1,)]], (True, True): [[(1,)]],
}


def _row(n: int, weighted: bool, second: bool) -> list:
    rows = _TRIANGLES[weighted, second]
    if len(rows) <= n:
        step = _weighted_row_next if weighted else _plain_row_next
        with _LOCK:
            while len(rows) <= n:
                rows.append(step(rows[-1], len(rows) - 1, second))
    return rows[n]


def _check_indices(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")


def _plain(n: int, m: int, second: bool) -> int:
    _check_indices(n, m)
    return 0 if m > n else _row(n, False, second)[m]


def stirling1(n: int, m: int) -> int:
    """Unsigned Stirling number of the first kind: the coefficient of x^m
    in the rising factorial x (x+1) ... (x+n-1)."""
    return _plain(n, m, second=False)


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind: partitions of an n-set into m
    nonempty blocks."""
    return _plain(n, m, second=True)


@dataclass(frozen=True)
class WeightedStirling:
    """One weighted Stirling entry: an integer polynomial in the weight x.

    coeffs lists the coefficients ascending in x, trimmed; () is the zero
    polynomial (m > n). The degree never exceeds n - m.
    """

    n: int
    m: int
    kind: str  # "first" | "second"
    coeffs: tuple[int, ...]

    def as_param_poly(self, slot: str = "z") -> ParamPoly:
        """The plain weight polynomial with x placed in the given slot."""
        if slot not in ("z", "y"):
            raise ValueError("slot must be 'z' or 'y'")
        terms = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = (0, i, 0) if slot == "z" else (0, 0, i)
                terms[e] = QRat(c)
        return ParamPoly._raw(terms)


def _weighted(n: int, m: int, second: bool) -> WeightedStirling:
    _check_indices(n, m)
    coeffs = () if m > n else _row(n, True, second)[m]
    return WeightedStirling(n, m, "second" if second else "first", coeffs)


def weighted_stirling1(n: int, m: int) -> WeightedStirling:
    return _weighted(n, m, second=False)


def weighted_stirling2(n: int, m: int) -> WeightedStirling:
    return _weighted(n, m, second=True)


def carlitz_expand(n: int, m: int) -> WeightedStirling:
    """First-kind weight polynomial assembled from unweighted numbers:

        sum_i C(m+i, i) stirling1(n, m+i) x^i

    The sum stops at i = n - m since higher first-kind numbers vanish.
    """
    _check_indices(n, m)
    if m > n:
        return WeightedStirling(n, m, "first", ())
    coeffs = [comb(m + i, i) * stirling1(n, m + i) for i in range(n - m + 1)]
    return WeightedStirling(n, m, "first", _xpoly_trim(coeffs))


def substitute_weight(w: WeightedStirling, sign: int,
                      slot: str = "z") -> ParamPoly:
    """Clear the weight x = sign*v/rho against the rho^(n-m) prefactor.

    Returns rho^(n-m) * poly(sign*v/rho) with v the slot variable: each
    x^i becomes sign^i v^i rho^(n-m-i). The degree bound i <= n - m keeps
    every rho exponent nonnegative.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if slot not in ("z", "y"):
        raise ValueError("slot must be 'z' or 'y'")
    gap = w.n - w.m
    terms = {}
    for i, c in enumerate(w.coeffs):
        if not c:
            continue
        if i > gap:
            raise ValueError("weight degree exceeds n - m")
        val = c if sign == 1 or i % 2 == 0 else -c
        e = (gap - i, i, 0) if slot == "z" else (gap - i, 0, i)
        terms[e] = QRat(val)
    return ParamPoly._raw(terms)
