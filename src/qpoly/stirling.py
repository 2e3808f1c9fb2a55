"""Stirling numbers of both kinds, plain and carrying a weight variable.

The weighted arrays are polynomials in a weight x defined by the pair of
exponential generating functions

    (1-t)^(-x) (-log(1-t))^m / m!  =  sum_n S1(n, m, x) t^n / n!
    e^(x t) (e^t - 1)^m / m!       =  sum_n S2(n, m, x) t^n / n!

and computed here through the equivalent triangular recurrences

    S1(n+1, m, x) = S1(n, m-1, x) + (n + x) S1(n, m, x)
    S2(n+1, m, x) = S2(n, m-1, x) + (m + x) S2(n, m, x)

with S(0, 0, x) = 1 and S(n, m, x) = 0 for m < 0 or m > n. Setting x = 0
recovers the unsigned classical numbers (the tests rebuild the first-kind
rows from them by Carlitz's expansion). For m <= n, S(n, m, x) has
degree n - m and leading coefficient C(n, m), so it needs no trimming.

Each triangle is built a row at a time and kept. weighted_stirling1/2
return one entry as a WeightedStirling NamedTuple; the q-free layer
(families, identities) reads whole rows of coefficient tuples through
_weighted_row and clears each weight with _signed_weight, with no
per-entry object.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .core import ParamPoly

__all__ = [
    "WeightedStirling",
    "stirling1",
    "stirling2",
    "substitute_weight",
    "weighted_stirling1",
    "weighted_stirling2",
]


def _weighted_row_next(row: tuple[tuple[int, ...], ...], n: int,
                       second: bool) -> tuple[tuple[int, ...], ...]:
    """Row n+1 from row n: S(n+1, m) = S(n, m-1) + (a + x) S(n, m), with
    a = m for the second kind and a = n for the first."""
    out = []
    for m in range(n + 2):
        # degree n + 1 - m, leading coefficient C(n+1, m): no slot spare
        acc = [0] * (n + 2 - m)
        if m <= n:
            a = m if second else n
            for i, c in enumerate(row[m]):
                acc[i] += a * c
                acc[i + 1] += c
        if m:
            for i, c in enumerate(row[m - 1]):
                acc[i] += c
        out.append(tuple(acc))
    return tuple(out)


def _plain_row_next(row: tuple[int, ...], n: int,
                    second: bool) -> tuple[int, ...]:
    out = []
    for m in range(n + 2):
        v = (m if second else n) * row[m] if m <= n else 0
        if m:
            v += row[m - 1]
        out.append(v)
    return tuple(out)


# a locked list, not an lru_cache, which would recurse n frames deep at row n
_LOCK = threading.Lock()
# rows 0..n of each triangle computed so far, keyed by (weighted, second);
# each row is a tuple, so a reader cannot change the table
_TRIANGLES: dict[tuple[bool, bool], list] = {
    (False, False): [(1,)], (False, True): [(1,)],
    (True, False): [((1,),)], (True, True): [((1,),)],
}


def _row(n: int, weighted: bool, second: bool) -> tuple:
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


class WeightedStirling(NamedTuple):
    """One weighted Stirling entry: an integer polynomial in the weight x.

    coeffs lists the n - m + 1 coefficients ascending in x, the last
    C(n, m); () is the zero polynomial (m > n).
    """

    n: int
    m: int
    kind: str   # "first" | "second"
    coeffs: tuple[int, ...]

    def as_param_poly(self) -> ParamPoly:
        """The plain weight polynomial with x read as z."""
        return ParamPoly._raw({(0, i, 0): c
                               for i, c in enumerate(self.coeffs) if c})


def _weighted_row(n: int, second: bool) -> tuple[tuple[int, ...], ...]:
    """Row n of the weighted triangle of the given kind: entry m (m <= n)
    is the coefficient tuple of S(n, m, x), as WeightedStirling.coeffs
    holds it. The q-free layer reads its weights here, a row at a time."""
    _check_indices(n, 0)
    return _row(n, True, second)


def _weighted(n: int, m: int, second: bool) -> WeightedStirling:
    _check_indices(n, m)
    coeffs = () if m > n else _row(n, True, second)[m]
    return WeightedStirling(n, m, "second" if second else "first", coeffs)


def weighted_stirling1(n: int, m: int) -> WeightedStirling:
    return _weighted(n, m, second=False)


def weighted_stirling2(n: int, m: int) -> WeightedStirling:
    return _weighted(n, m, second=True)


def substitute_weight(w: WeightedStirling, sign: int) -> ParamPoly:
    """Clear the weight x = sign*z/rho against the rho^(n-m) prefactor.

    Returns rho^(n-m) * poly(sign*z/rho): each x^i becomes
    sign^i z^i rho^(n-m-i). The degree bound i <= n - m keeps every rho
    exponent nonnegative.
    """
    weight = _signed_weight(w.coeffs, w.n - w.m, sign)
    return ParamPoly._raw({(w.n - w.m - i, i, 0): c
                           for i, c in enumerate(weight) if c})


def _signed_weight(coeffs: tuple[int, ...], bound: int,
                   sign: int) -> tuple[int, ...]:
    """The weight polynomial coeffs at sign*x, refused if its degree
    exceeds bound (n - m for an entry S(n, m, x)): index i is the
    coefficient of z^i rho^(bound-i) once x = sign*z/rho is cleared."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if coeffs and len(coeffs) > bound + 1:
        raise ValueError("weight degree exceeds n - m")
    return coeffs if sign == 1 else tuple(
        -c if i % 2 else c for i, c in enumerate(coeffs))
