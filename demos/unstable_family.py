# coding: utf-8
"""
===================================================
Hunting an unstable family over the projective line
===================================================

A classical recipe proposes complete intersections inside the
projective bundle of O(a)^(r-1) + O(a-1) over a genus-0 base whose
fibres should be Chow unstable with one singular point.  The recipe
prescribes the linear system |m(ra-1)H - m(r+1)S|; its validity rests
on three exact conditions:

* effectivity: the twist/degree ratio must not exceed the top slope a,
  else the linear system is empty;
* base locus: the ratio must exceed the second slope a - 1, which pins
  the singularities to the distinguished section;
* instability excess: the summed ratios must exceed c * mu(E).

The builder evaluates all three for the system as written and for the
swapped reading (degree and twist exchanged).  Neither passes all
three, so the builder never asserts the family exists; it reports the
diagnosis instead.
"""

from relci import Orientation, build_example

# %%
# As written: k = m(ra-1), y = m(r+1).  The instability excess holds
# but the system is empty (ratio above the top slope).

for params in ((1, 4, 2, 2), (1, 3, 1, 1), (2, 5, 3, 1)):
    a, r, c, m = params
    bundle, X, report = build_example(a, r, c, m, Orientation.AS_WRITTEN)
    print(f"a={a} r={r} c={c} m={m} as-written: k={X.k[0]}, y={X.y[0]}")
    for name, ok in report.hypotheses.items():
        print(f"    {name}: {'ok' if ok else 'FAILS'}")
    print("    conclusion:", report.conclusion)

# %%
# Swapped: k = m(r+1), y = m(ra-1).  Now the system is effective and
# the base locus sits on the section, but the excess fails: the ratio
# (ra-1)/(r+1) is always below mu = a - 1/r.

for params in ((1, 4, 2, 2), (1, 3, 1, 1), (2, 5, 3, 1)):
    a, r, c, m = params
    bundle, X, report = build_example(a, r, c, m, Orientation.SWAPPED)
    print(f"a={a} r={r} c={c} m={m} swapped: k={X.k[0]}, y={X.y[0]}")
    for name, ok in report.hypotheses.items():
        print(f"    {name}: {'ok' if ok else 'FAILS'}")
    print("    witnesses:", report.witnesses)
