# coding: utf-8
"""
==============================================================
When the alpha rule misreads the eventual sign of the margins
==============================================================

The sign of the alpha invariant settles the positivity margins of
O_X(h) throughout the band h < min(k), and for balanced data or
hypersurfaces it settles every twist.  It is tempting to read the
eventual sign (h large) off alpha as well; that is the classical rule.
The asymptotic verdict reads it off the exact stable polynomial instead.

This script exhibits an unbalanced intersection where the rule fails.
The reason is structural, not numerical noise: writing the margin over
h^(dim X - 1) as an exact polynomial in h for large h, the candidate
top coefficient (degree dim X) cancels identically, and the surviving
leading coefficient

    fibre * (alpha*(k_sum - r) + dimX * fibre * (k_sum*d - r*y_sum))
        / (2 * r * (dimX - 1)!)

mixes alpha with the second comparison k_sum*d - r*y_sum.  The two can
have opposite signs only when the k_i differ, which is why the
balanced and hypersurface cases are safe.
"""

from fractions import Fraction
from math import factorial

from relci import (
    BundleOverCurve,
    RelativeCI,
    alpha_invariant,
    asymptotic_verdict,
    fibre_deg,
    h_sweep,
    positivity_margin,
    stable_margin_poly,
)

# %%
# Degrees (2, 5), twists (-2, 7), bundle rank 4 of degree 1.  The
# twist/degree ratios sum to 2/5, below c*mu = 1/2, so alpha > 0.

X = RelativeCI(BundleOverCurve(4, 1), (2, 5), (-2, 7))
print("alpha =", alpha_invariant(X))
print("ratio sum =", X.ratio_sum, " vs c*mu =", X.codim * X.bundle.slope)

# %%
# Small twists behave as alpha promises...

for h in (1,):
    print("margin(1) =", positivity_margin(X, h), "(positive band)")

# %%
# ...but the margins turn negative and stay negative.

sweep = h_sweep(X, 12)
print("margins h=1..12:", list(sweep.margins))
print("stable polynomial coefficients:", [str(a) for a in sweep.stable_poly])
print("sign constant from h >", sweep.sign_stable_from, " eventual sign:", sweep.eventual_sign)

# %%
# The structural leading coefficient, computed from first principles,
# matches the closed-form stable polynomial exactly.

r, n = X.rank, X.dim
fib = fibre_deg(X)
a = alpha_invariant(X)
lead = Fraction(
    fib * (a * (X.k_sum - r) + n * fib * (X.k_sum * X.degree - r * X.y_sum)),
    2 * r * factorial(n - 1),
)
print("predicted leading coefficient:", lead)
print("closed-form leading coefficient:", stable_margin_poly(X)[-1])

# %%
# The verdict follows the exact sign (NotFPositiveEventually) and keeps
# alpha among its witnesses, so the disagreement with the classical rule
# stays visible.

verdict = asymptotic_verdict(X)
print("verdict:", verdict.conclusion)
print("witnesses:", verdict.witnesses)
