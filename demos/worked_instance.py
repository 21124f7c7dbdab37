# coding: utf-8
"""
=====================================================
A twisted (3,3) intersection, start to finish
=====================================================

The running example everywhere in this package: over a curve, take the
rank-4 semistable bundle E of degree 4, its projective bundle P, and
inside P the intersection X of two relative cubics twisted by base
divisors of degrees 1 and 2.  The fibres of X -> B are (3,3) curves of
genus 10 in projective 3-space.

This script walks through every invariant the library computes for it.
"""

from fractions import Fraction

from relci import (
    BundleOverCurve,
    RelativeCI,
    alpha_invariant,
    asymptotic_verdict,
    canonical_class,
    canonical_margin,
    canonical_top_power,
    fibre_deg,
    h_top,
    instability_verdict,
    omega_pushforward,
    positivity_margin,
    pushforward,
    slope_verdict,
    small_h_verdict,
    surface_formula_check,
)

# %%
# The instance.  A semistable bundle is the one-block profile.

E = BundleOverCurve.semistable(rank=4, degree=4)
X = RelativeCI(E, k=(3, 3), y=(1, 2))
print("dim X =", X.dim, " fibre dimension =", X.dim - 1)
print("balanced:", X.balanced, " slope mu(E) =", E.slope)

# %%
# Intersection numbers.  The tautological top power mixes the bundle
# degree with the twists; on a fibre only the cubic degrees matter.

print("H_X^2 =", h_top(X))          # 27
print("H_F^1 =", fibre_deg(X))      # 9
print("alpha =", alpha_invariant(X))  # 36 > 0: margins positive for small twists

# %%
# Pushforward of O_X(h): rank is the space of degree-h forms on a
# (3,3) curve, the degree comes from the alternating Koszul sum.

for h in range(0, 5):
    print(f"f_* O_X({h}):", pushforward(X, h))

# %%
# Positivity margins.  Cleared form = rank * rational margin; for the
# genus-10 fibre the margin at h = 2 is the slope-inequality margin.

for h in range(1, 5):
    margin = positivity_margin(X, h)
    rational = Fraction(margin, pushforward(X, h).rank)
    print(f"h = {h}: cleared = {margin}, rational = {rational}")

# %%
# The relative canonical class is 2 H_X + F here, ample on the fibres,
# so the slope inequality is meaningful; its margin agrees exactly with
# the plain margin at h = k_sum - r = 2 (twist invariance).

print("K_f coefficients:", canonical_class(X))
print("K_f^2 =", canonical_top_power(X))          # 144
print("f_* omega_f:", omega_pushforward(X))       # rank 10 = genus, degree 30
print("slope margin:", canonical_margin(X))  # 360 >= 0

# %%
# X is a surface, balanced, with c*k = 6 > 4 = r, so the closed surface
# formulas apply and must reproduce the direct computations.

print(surface_formula_check(X))

# %%
# Verdict layer: every theorem-level conclusion with witnesses.

for verdict in (
    small_h_verdict(X),
    asymptotic_verdict(X),
    slope_verdict(X),
    instability_verdict(X),
):
    print(f"{verdict.theorem:12s} -> {verdict.conclusion}")
    for name, value in verdict.witnesses.items():
        print(f"    {name} = {value}")
