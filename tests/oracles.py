"""Independent ground-truth helpers for the test suite.

Everything in this module is built from the standard library alone and
never imports the package under test. Series are plain lists of Fraction
ordinary coefficients (index = power of t). Combinatorial counts come
from brute-force enumeration, factorial polynomials from direct product
expansion, so agreement with the package is evidence, not circularity.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

F = Fraction
ZERO = F(0)
ONE = F(1)


# --------------------------------------------------------------------------
# truncated power series over Fraction


def s_trim(a, order):
    """Copy of a, padded or cut to exactly order+1 coefficients."""
    out = [F(c) for c in a[: order + 1]]
    out.extend([ZERO] * (order + 1 - len(out)))
    return out


def s_add(a, b, order):
    a = s_trim(a, order)
    b = s_trim(b, order)
    return [x + y for x, y in zip(a, b)]


def s_mul(a, b, order):
    a = s_trim(a, order)
    b = s_trim(b, order)
    out = [ZERO] * (order + 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] += x * b[j]
    return out


def s_scale(a, c, order):
    return [F(c) * x for x in s_trim(a, order)]


def s_compose(outer, inner, order):
    """outer(inner(t)); inner must have zero constant term."""
    inner = s_trim(inner, order)
    if inner[0] != 0:
        raise ValueError("inner constant term must vanish")
    out = [ZERO] * (order + 1)
    for c in reversed(s_trim(outer, order)):
        out = s_mul(out, inner, order)
        out[0] += F(c)
    return out


def s_exp_outer(order):
    """Coefficients of exp(t)."""
    return [F(1, factorial(j)) for j in range(order + 1)]


def s_log1p(order):
    """Coefficients of log(1 + t)."""
    return [ZERO] + [F((-1) ** (j - 1), j) for j in range(1, order + 1)]


def binom_frac(z, j):
    """Generalized binomial coefficient with Fraction upper argument."""
    out = ONE
    for i in range(j):
        out *= (F(z) - i) / (i + 1)
    return out


def s_binomial_power(z, order):
    """Coefficients of (1 + t)^z for Fraction z."""
    return [binom_frac(z, j) for j in range(order + 1)]


# --------------------------------------------------------------------------
# classical families at q -> 1, general Fraction rho and z


def _li_over_arg_outer(k, order):
    # sum_j w^j / (j+1)^k, the polylogarithm divided by its argument
    return [F(1, (j + 1) ** k) if k >= 0 else F((j + 1) ** (-k))
            for j in range(order + 1)]


def _lif_outer(k, order):
    # sum_j u^j / (j! (j+1)^k)
    out = []
    for j in range(order + 1):
        c = F(1, factorial(j))
        c = c / (j + 1) ** k if k >= 0 else c * (j + 1) ** (-k)
        out.append(c)
    return out


def _bern_inner(rho, order):
    # (1 - e^(-rho t)) / rho
    rho = F(rho)
    return [ZERO] + [F((-1) ** (j + 1)) * rho ** (j - 1) / factorial(j)
                     for j in range(1, order + 1)]


def _cauchy_inner(rho, order):
    # log(1 + rho t) / rho
    rho = F(rho)
    return [ZERO] + [F((-1) ** (j - 1)) * rho ** (j - 1) / j
                     for j in range(1, order + 1)]


def classical_family(family, n, k, rho=1, z=0):
    """n-th value of the named family at q -> 1, exact Fractions.

    family is one of polyBernoulli, polyCauchy1, polyCauchy2; rho and z
    may be any Fractions with rho nonzero.
    """
    order = n
    rho = F(rho)
    z = F(z)
    if rho == 0:
        raise ValueError("rho must be nonzero")
    if family == "polyBernoulli":
        inner = _bern_inner(rho, order)
        body = s_compose(_li_over_arg_outer(k, order), inner, order)
        tail = [F(-z) ** j / factorial(j) for j in range(order + 1)]
        egf = s_mul(body, tail, order)
    elif family == "polyCauchy1":
        u = _cauchy_inner(rho, order)
        body = s_compose(_lif_outer(k, order), u, order)
        zu = s_scale(u, -z, order)
        egf = s_mul(body, s_compose(s_exp_outer(order), zu, order), order)
    elif family == "polyCauchy2":
        u = _cauchy_inner(rho, order)
        body = s_compose(_lif_outer(k, order), s_scale(u, -1, order), order)
        zu = s_scale(u, z, order)
        egf = s_mul(body, s_compose(s_exp_outer(order), zu, order), order)
    else:
        raise ValueError("unknown family %r" % (family,))
    return egf[n] * factorial(n)


# --------------------------------------------------------------------------
# Stirling numbers by enumeration and by direct expansion


def stirling1_bruteforce(n, m):
    """Permutations of n letters with exactly m cycles (unsigned count)."""
    if n == 0:
        return 1 if m == 0 else 0
    count = 0
    for p in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for s in range(n):
            if seen[s]:
                continue
            cycles += 1
            j = s
            while not seen[j]:
                seen[j] = True
                j = p[j]
        if cycles == m:
            count += 1
    return count


def stirling2_bruteforce(n, m):
    """Set partitions of n elements into exactly m blocks, counted via
    restricted growth strings."""
    if n == 0:
        return 1 if m == 0 else 0
    count = 0
    rgs = [0] * n  # restricted growth string, position 0 pinned to block 0

    def walk(pos, used):
        nonlocal count
        if pos == n:
            if used == m:
                count += 1
            return
        for b in range(min(used + 1, m + 1)):
            rgs[pos] = b
            walk(pos + 1, max(used, b + 1))

    walk(1, 1)
    return count


def weighted_s1_row(n, x):
    """Coefficients in t of prod_{j=0}^{n-1} (t + x + j), Fraction x.

    Entry m is the first-kind weighted Stirling number S1(n, m, x).
    """
    row = [ONE]
    for j in range(n):
        shifted = [ZERO] + row
        row = [c * (F(x) + j) for c in row] + [ZERO]
        row = [a + b for a, b in zip(row, shifted)]
    return row


def weighted_s1_poly(n, m):
    """S1(n, m, x) as a list of Fraction coefficients in x.

    Expands prod_{j=0}^{n-1} (t + x + j) over both variables and reads
    off the t^m slice; degree in x is at most n - m.
    """
    # terms: dict (t_power, x_power) -> Fraction
    terms = {(0, 0): ONE}
    for j in range(n):
        nxt = {}
        for (tp, xp), c in terms.items():
            for dtp, dxp, f in ((1, 0, ONE), (0, 1, ONE), (0, 0, F(j))):
                key = (tp + dtp, xp + dxp)
                nxt[key] = nxt.get(key, ZERO) + c * f
        terms = nxt
    out = [ZERO] * (n - m + 1) if n >= m else [ZERO]
    for (tp, xp), c in terms.items():
        if tp == m and c:
            out[xp] += c
    return out


def weighted_s2_poly(n, m):
    """S2(n, m, x) as Fraction coefficients in x, from the alternating
    binomial sum (1/m!) sum_i (-1)^(m-i) C(m,i) (x+i)^n expanded by the
    binomial theorem."""
    out = [ZERO] * (n - m + 1) if n >= m else [ZERO]
    if n < m:
        return out
    for j in range(n - m + 1):
        acc = ZERO
        for i in range(m + 1):
            acc += F((-1) ** (m - i) * comb(m, i)) * F(i) ** (n - j)
        out[j] = F(comb(n, j)) * acc / factorial(m)
    return out


def jackson_integral_reference(f, q, terms):
    """Plain-Python Jackson integral on [0, 1]: (1-q) sum f(q^n) q^n."""
    acc = 0.0
    p = 1.0
    for _ in range(terms):
        acc += f(p) * p
        p *= q
    return (1.0 - q) * acc
