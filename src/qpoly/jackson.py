"""Numeric oracle: truncated Jackson q-integrals on [0, 1]^k.

The k-fold Jackson integral of f(x_1...x_k) is (1-q)^k times the sum of
q^s f(q^s) over all index tuples, s = i_1 + ... + i_k. C(s+k-1, k-1)
tuples share each s, so it is one sum over s, kept up to s = k(T-1) for
T nodes per level. The weight ratio q(s+k)/(s+1) falls with s, so the
dropped tail of a bounded integrand is at most a geometric series from
the first dropped weight. This module is deliberately independent of
the symbolic layer: plain floats.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

__all__ = [
    "NonconvergedTruncation",
    "OracleConfig",
    "QuadResult",
    "jackson_integral_1d",
    "oracle_family",
]


class NonconvergedTruncation(RuntimeError):
    """The geometric tail estimate exceeds the configured tolerance."""


class _OracleFields(NamedTuple):
    q: float
    truncation: int = 200
    tolerance: float = 1e-9


class OracleConfig(_OracleFields):
    """The quadrature's q in (0, 1), its nodes per level and the tolerance
    on the tail bound: a NamedTuple whose defaults are in _field_defaults.
    Every way to build one, _replace, _make, copy and pickle included,
    runs the checks in __new__."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        q, truncation, tolerance = _OracleFields(*args, **kwargs)
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        truncation = operator.index(truncation)   # a float is a TypeError
        if truncation < 1:
            raise ValueError("truncation must be positive")
        # an infinite tolerance passes every comparison, a NaN none
        if not 0.0 < tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        return super().__new__(cls, q, truncation, tolerance)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)   # the base's _make would skip the checks


class QuadResult(NamedTuple):
    value: float
    tail_bound: float


def _jackson_sum(f: Callable[[float], float], k: int,
                 cfg: OracleConfig) -> QuadResult:
    """(1-q)^k sum_{s=0}^{k(T-1)} C(s+k-1, k-1) q^s f(q^s), the k-fold
    Jackson integral of f(x_1...x_k) at T nodes per level, and a bound
    on the dropped tail (max|f| over the computed nodes)."""
    q, s0 = cfg.q, k * (cfg.truncation - 1) + 1
    nodes = [q ** s for s in range(s0)]
    vals = [f(u) for u in nodes]
    terms = [math.comb(s + k - 1, k - 1) * u * v
             for s, (u, v) in enumerate(zip(nodes, vals))]
    scale, r = (1.0 - q) ** k, q * (s0 + k) / (s0 + 1)
    tail = (max(map(abs, vals)) * scale * math.comb(s0 + k - 1, k - 1)
            * q ** s0 / (1.0 - r) if r < 1.0 else math.inf)
    try:
        total = math.fsum(terms)
    except ValueError:   # fsum refuses inf + -inf; their sum reads NaN
        total = math.nan
    return QuadResult(scale * total, tail)


def jackson_integral_1d(f: Callable[[float], float],
                        cfg: OracleConfig) -> QuadResult:
    """Truncated Jackson integral of f over [0, 1] with its tail bound."""
    return _jackson_sum(f, 1, cfg)


def oracle_family(family: str, n: int, k: int, rho: float, z: float,
                  cfg: OracleConfig) -> float:
    """Defining k-fold q-integral of one Cauchy-type value, for any k >= 1
    and any real rho: the Jackson integral of prod_{i<n}(sigma*(x_1...x_k
    - z) - i*rho), sigma = 1 (first kind) or -1 (second), which is rho^n
    times the falling factorial of sigma*(x_1...x_k - z)/rho multiplied out.
    This path exists to check the symbolic ones, not to replace them.
    """
    if family not in ("polyCauchy1", "polyCauchy2"):
        raise ValueError("the integral oracle covers the two Cauchy kinds")
    if k < 1:
        raise ValueError("oracle needs k >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not (math.isfinite(rho) and math.isfinite(z)):
        raise ValueError("rho and z must be finite")
    sigma = 1.0 if family == "polyCauchy1" else -1.0
    steps = [i * rho for i in range(n)]
    def integrand(u: float) -> float:
        a = sigma * (u - z)
        return math.prod([a - c for c in steps])
    value, tail = _jackson_sum(integrand, k, cfg)
    # integrand values overflowing to both infinities read NaN, as does a
    # tail whose overflowing integrand meets an underflowing weight; an
    # infinite tail with a finite value only means the sum cannot converge
    if not math.isfinite(value) or math.isnan(tail):
        raise OverflowError("the oracle's value at rho = %r leaves the float "
                            "range" % rho)
    if tail > cfg.tolerance:
        raise NonconvergedTruncation(
            "tail bound %.3g exceeds tolerance %.3g" % (tail, cfg.tolerance))
    return value
