"""Exact combinatorial kernel.

Everything downstream reduces to two ingredients, both computed over
arbitrary-precision integers (``fractions.Fraction`` is the one rational
type of the package: stdlib Fractions are exact, always stored reduced,
with a positive denominator):

* truncated binomial coefficients, with the convention ``C(n, m) = 0``
  whenever ``n < m`` (including every negative ``n``);
* signed subset-sum tables, the workhorse behind alternating sums over
  all ``2^c`` subsets without materialising them.

No floating point is used anywhere in the computation path.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .errors import InputError, shown

__all__ = [
    "binom_trunc",
    "signed_subset_tables",
]


def binom_trunc(n: int, m: int) -> int:
    """Binomial coefficient C(n, m), truncated to 0 when n < m.

    The truncation (rather than the analytic continuation to negative
    upper index) is what makes the alternating Koszul sums correct
    verbatim: terms whose twist pushes the argument negative must drop
    out entirely.

    >>> binom_trunc(5, 2)
    10
    >>> binom_trunc(1, 3)
    0
    >>> binom_trunc(-2, 4)
    0
    """
    if m < 0:
        raise InputError(f"binom_trunc: lower index must be >= 0, got {shown(m)}")
    if n < m:
        return 0
    return comb(n, m)


def signed_subset_tables(
    weights: Sequence[int], values: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Aggregate (-1)^|I| over subsets I, grouped by the weight sum.

    Returns two lists ``cnt`` and ``val`` indexed by ``s = 0 .. sum(weights)``:

    * ``cnt[s] = sum over subsets I with weight(I) = s of (-1)^|I|``
    * ``val[s] = sum over the same subsets of (-1)^|I| * value(I)``

    where ``weight(I)`` and ``value(I)`` are the coordinate sums of the
    picked indices.  A knapsack-style pass makes alternating sums over
    2^c subsets cost O(c * sum(weights)), which keeps codimensions in
    the tens cheap; for equal weights it degenerates to the classical
    binomial grouping.  The tables do not depend on the order of the
    (weight, value) pairs, and an item's pass costs the weight already
    used plus one, so the lightest items go first.  Weights must be positive.
    """
    if len(weights) != len(values):
        raise InputError("signed_subset_tables: weight/value length mismatch")
    if any(w <= 0 for w in weights):
        raise InputError("signed_subset_tables: weights must be positive")
    total = sum(weights)
    cnt = [0] * (total + 1)
    val = [0] * (total + 1)
    cnt[0] = 1
    used = 0
    for w, v in sorted(zip(weights, values)):
        # descending s: cnt[s]/val[s] still refer to subsets of the items
        # already processed, so each item enters a subset at most once
        for s in range(used, -1, -1):
            if cnt[s] or val[s]:
                cnt[s + w] -= cnt[s]
                val[s + w] -= val[s] + v * cnt[s]
        used += w
    return cnt, val

