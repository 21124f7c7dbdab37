"""Test-side oracles for the kernels the report spec does not pin.

``balanced_margin`` is a closed form of the margin for balanced data,
which the tests hold to ``positivity_margin``.  ``two_pass_moments``
takes the moments of each subset table on its own, from their
definition, and ``two_list_runs`` the running sums of each table on its
own, for the tests of the packed passes that the library makes.
``per_level_koszul`` is the Koszul sum of a lone twist with one binomial
per nonzero table level, for the tests of the library's stepped sum.
The stable polynomial is rebuilt apart from relci by
``perfbench.reference.Reference``, which ``tests/test_spec.py`` holds the
reports to.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate
from math import comb

from relci import InputError, PushforwardSummary, RelativeCI, alpha_invariant, binom_trunc


def balanced_margin(X: RelativeCI, h: int) -> int:
    """Closed-form margin for balanced data, cleared by a factor r.

    For k_i = k the subset sums collapse and the margin divided by
    h^(n-1) factors through the alpha invariant:

        r * margin(h) / h^(n-1)
            = alpha * [ h * R_c(h) - n * k * R_{c-1}(h - k) ]

    where R_j(m) = sum_i (-1)^i binom(j, i) binom(m - i*k + r - 1, r - 1)
    is the pushforward rank of a balanced intersection of j hypersurfaces
    and n = dim X.  The second sum is the one-fewer-hypersurface rank
    shifted one degree down; for h < k it vanishes and the bracket
    degenerates to the universal small-twist form h * binom(h+r-1, r-1).
    Returns the exact integer value of the right-hand side.
    """
    if not X.balanced:
        raise InputError("balanced_margin needs all k_i equal")
    if h < 1:
        raise InputError(f"balanced_margin needs h >= 1, got {h}")
    r, c, n = X.rank, X.codim, X.dim
    k = X.k[0]
    first = sum(
        (-1) ** i * binom_trunc(c, i) * binom_trunc(h - i * k + r - 1, r - 1)
        for i in range(c + 1)
    )
    second = sum(
        (-1) ** j * binom_trunc(c - 1, j) * binom_trunc(h - (j + 1) * k + r - 1, r - 1)
        for j in range(c)
    )
    return alpha_invariant(X) * (h * first - n * k * second)


def two_pass_moments(
    cnt: Sequence[int], val: Sequence[int], count: int
) -> tuple[list[int], list[int]]:
    """Coefficients of cnt(t) and val(t) in powers of (1 - t), orders 0..count-1.

    One table at a time, from the expansion
    sum_s a_s t^s = sum_i (-1)^i (1 - t)^i sum_s a_s C(s, i).
    """
    def moments(coeffs: Sequence[int]) -> list[int]:
        return [(-1) ** i * sum(a * comb(s, i) for s, a in enumerate(coeffs)) for i in range(count)]

    return moments(cnt), moments(val)


def two_list_runs(
    cnt: Sequence[int], val: Sequence[int], r: int, length: int
) -> tuple[list[int], list[int]]:
    """t^0..t^(length-1) of cnt(t) / (1 - t)^r and val(t) / (1 - t)^r, one table at a time.

    Each table is cut or zero-padded to ``length`` and summed r times.
    """
    def runs(coeffs: Sequence[int]) -> list[int]:
        out = [*coeffs[:length], *[0] * (length - len(coeffs))]
        for _ in range(r):
            out = list(accumulate(out))
        return out

    return runs(cnt), runs(val)


def per_level_koszul(X: RelativeCI, h: int) -> PushforwardSummary:
    """Rank and degree of the pushforward of O_X(h), one ``binom_trunc`` per nonzero level.

    The alternating sum over the subset tables' levels s = 0..h, with
    C(h - s + r - 1, r - 1) taken afresh at every level that has a
    nonzero entry.  The degree stays a Fraction, so a non-integral one
    shows as a mismatch.
    """
    r, d = X.rank, X.degree
    cnt, val = X.tables
    rank = num = 0
    for s, (c, v) in enumerate(zip(cnt[: h + 1], val[: h + 1])):
        if c or v:
            b = binom_trunc(h - s + r - 1, r - 1)
            rank += c * b
            num += b * (c * (h - s) * d + v * r)
    return PushforwardSummary(h, rank, Fraction(num, r))
