"""Test-side oracle for the stable margin polynomial: sample, then interpolate.

``interpolate`` is exact Newton interpolation over Fractions;
``sampled_stable_poly`` feeds it sampled margins, independently of the
closed form that ``relci.invariants.stable_margin_poly`` builds from the
moments of the subset tables, and the tests hold the two equal.
A polynomial is its tuple of coefficients by power of the variable,
trailing zeros trimmed, as ``stable_margin_poly`` returns it; ``horner``
evaluates one exactly, which the library never needs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from relci import InputError, RelativeCI, positivity_margin


def horner(poly: tuple[Fraction, ...], x: Fraction | int) -> Fraction:
    """The exact value of ``poly`` at ``x``."""
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def interpolate(
    samples: Sequence[tuple[Fraction | int, Fraction | int]],
) -> tuple[Fraction, ...]:
    """Exact polynomial through the given (x, y) samples.

    Newton's divided differences over Fractions; the result is the
    unique polynomial of degree < len(samples) hitting every sample
    exactly, trailing zeros trimmed.  Duplicate abscissae are rejected.
    """
    if not samples:
        raise InputError("interpolate: need at least one sample")
    xs = [Fraction(x) for x, _ in samples]
    ys = [Fraction(y) for _, y in samples]
    if len(set(xs)) != len(xs):
        raise InputError("interpolate: duplicate abscissae")
    n = len(xs)
    dd = ys[:]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    # expand the Newton form sum dd[j] * prod_{i<j} (x - xs[i])
    out = [Fraction(0)] * n
    basis = [Fraction(1)]
    for j in range(n):
        for i, b in enumerate(basis):
            out[i] += dd[j] * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nxt[i] -= b * xs[j]
            nxt[i + 1] += b
        basis = nxt
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def sampled_stable_poly(X: RelativeCI) -> tuple[Fraction, ...]:
    """The stable margin polynomial interpolated from dim X + 2 sampled margins.

    For h >= k_sum - r + 1 every truncated binomial of the Koszul sums
    agrees with its polynomial extension, so margin(h) / h^(dim X - 1)
    sampled at the dim X + 2 twists from k_sum on determines the
    polynomial exactly (one sample more than its degree bound dim X
    needs).  Independent of the closed form built from the table moments.
    """
    n = X.dim
    return interpolate([
        (h, Fraction(positivity_margin(X, h), h ** (n - 1)))
        for h in range(X.k_sum, X.k_sum + n + 2)
    ])
