# coding: utf-8
"""
==================================================
Nested cones in the cycle planes of a split bundle
==================================================

For the split bundle O(2) + O(1) + O(0) the three virtual slopes are
(2, 1, 0), and each codimension-c cycle plane carries three nested
cones: nef inside the bridge cone inside pseudo-effective.  This script
prints their thresholds, classifies some classes, cross-checks the
codimension-1 thresholds against the divisor positivity test, and
writes an SVG wedge diagram.
"""

from fractions import Fraction
from pathlib import Path

from relci import (
    BundleOverCurve,
    ConeLabel,
    CycleClass,
    RelativeCI,
    ci_class,
    classify,
    cone,
    mn_divisor_test,
    virtual_slopes,
)
from relci.svg import cone_diagram

# %%
# Virtual slopes: one per line summand here, in non-increasing order.

E = BundleOverCurve.split((2, 1, 0))
print("virtual slopes:", virtual_slopes(E), " mu =", E.slope)

# %%
# Thresholds t of the rays H^c - t * H^(c-1)S for each codimension.

for c in (1, 2):
    row = {label.value: cone(E, c, label) for label in ConeLabel}
    print(f"c = {c}:", row)

# %%
# Codimension 1 reproduces the divisor test exactly: a divisor
# k*H - m*S is pseudo-effective iff m/k <= 2 and nef iff m/k <= 0.

print("2H - 5S:", mn_divisor_test(E, 2, 5))   # neither
print("2H - 3S:", mn_divisor_test(E, 2, 3))   # pseff only
print("2H + 1S:", mn_divisor_test(E, 2, -1))  # both

# %%
# Classifying classes in the c = 2 plane, thresholds (1, 2, 3).

for p, q in ((4, -4), (2, -3), (2, -5), (1, -7)):
    cls = CycleClass(2, Fraction(p), Fraction(q))
    print(f"p = {cls.p}, q = {cls.q}: {classify(E, cls).value}")

# %%
# The class of an actual complete intersection: rank 3 leaves room for
# one hypersurface, a twisted conic, classified in the c = 1 plane
# against thresholds (0, 1, 2).

X = RelativeCI(E, (2,), (1,))
cls = ci_class(X)
print("class of X:", (cls.p, cls.q), "->", classify(E, cls).value)

# %%
# Wedge diagram: three translucent wedges from the common ray, the
# exact rational thresholds stored in data-slope attributes.

out = Path("cone_wedges.svg")
thresholds = {label: cone(E, 2, label) for label in reversed(ConeLabel)}  # outermost first
out.write_text(cone_diagram(2, thresholds, E.is_semistable), encoding="utf-8")
print("wrote", out)
