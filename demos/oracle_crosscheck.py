# coding: utf-8
"""
============================================
Trust nothing: brute force versus closed form
============================================

Every closed formula in the library has an independent brute-force
route, exercised here on a split bundle where everything reduces to
finite enumeration:

* symmetric-power degrees by listing monomials in the line summands;
* pushforward degrees by summing the twisted symmetric powers through
  the resolution, subset by subset;
* pushforward ranks as Hilbert-series coefficients;
* intersection numbers through a symbolic normal-form expansion.

The same checks run as the ``relci oracle`` subcommand and exit
nonzero on any mismatch.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from relci import (
    BundleOverCurve,
    RelativeCI,
    canonical_top_power,
    chow_expand,
    cross_check,
    fibre_deg,
    h_top,
    sym_degree_bruteforce,
)
from relci.exact import binom_trunc

# %%
# A split bundle of rank 4 and degree 2 with mixed summands.

E = BundleOverCurve.split((2, 1, 0, -1))
print("bundle:", E.rank, E.degree, E.hn)

# %%
# Symmetric powers: enumerate the monomials of Sym^2 explicitly.

monomials = list(combinations_with_replacement(E.line_degrees, 2))
print("Sym^2 monomial degrees:", [sum(m) for m in monomials])
brute = sym_degree_bruteforce(E, 2, 0)
closed = Fraction(binom_trunc(2 + 3, 3) * (2 * E.degree), E.rank)
print("deg Sym^2 E: brute", brute, " closed", closed)

# %%
# A twisted intersection of a conic and a quartic in this bundle.

X = RelativeCI(E, (2, 4), (1, -2))

# %%
# Intersection numbers through the symbolic expansion.

chow = chow_expand(X)
print("symbolic:", chow)
print(
    "closed:  ",
    (h_top(X), fibre_deg(X), canonical_top_power(X)),
)

# %%
# All four suites at once, for twists and exponents 0..8: the same
# cross-check the ``relci oracle`` subcommand and the acceptance suite run.

checks, mismatches = cross_check(X, 8)
print("checks per suite:", checks)
assert not mismatches, mismatches
print("all cross-checks passed")
