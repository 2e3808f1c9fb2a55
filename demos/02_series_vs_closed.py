"""
Two independent routes to the same polynomials
==============================================

The closed route sums weighted Stirling tables; the series route expands
a composed generating function and reads off coefficients. They are built
from different recursions, so exact agreement is a real check, not an
echo.
"""

from qpoly import (
    egf_coefficient,
    family_value,
    format_param_poly,
    gf_poly_bernoulli,
    gf_poly_cauchy1,
    gf_weighted_stirling,
    weighted_stirling2,
)

ORDER = 6

# route one: closed form from the weighted tables
closed = family_value("polyCauchy1", 4, 2)

# route two: series composition, then the t^4 coefficient times 4!
series = gf_poly_cauchy1(2, ORDER)
from_series = egf_coefficient(series, 4)

print("closed :", format_param_poly(closed))
print("series :", format_param_poly(from_series))
print("equal  :", closed == from_series)
print()

# the whole band n <= ORDER agrees, at every depth we ask for
for k in (-1, 1, 3):
    s = gf_poly_bernoulli(k, ORDER)
    ok = all(egf_coefficient(s, n) == family_value("polyBernoulli", n, k)
             for n in range(ORDER + 1))
    print("Bernoulli-type, depth %+d: %s" % (k, "agree" if ok else "DIFFER"))
print()

# the weighted Stirling columns themselves have generating functions too
col = gf_weighted_stirling("second", 2, ORDER)
for n in range(2, 5):
    lhs = egf_coefficient(col, n)
    rhs = weighted_stirling2(n, 2).as_param_poly()
    print("column m=2, n=%d:" % n, format_param_poly(rhs),
          "(series agrees: %s)" % (lhs == rhs))
