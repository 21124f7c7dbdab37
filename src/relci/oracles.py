"""Brute-force cross-checks for every closed formula in the package.

None of these reuse the closed forms they validate:

* symmetric-power degrees of split bundles (``BundleOverCurve.split``)
  by exhaustive multiset enumeration (the pushforward degree formulas
  depend on the bundle only through rank and degree, so split instances
  validate them for all bundles);
* pushforward degrees via the alternating sum of twisted
  symmetric-power degrees over index subsets, term by term;
* pushforward ranks as coefficients of the fibre Hilbert series
  prod (1 - t^k_i) / (1 - t)^r, by truncated integer series
  multiplication;
* intersection numbers by multiplying ``CycleClass`` values factor by
  factor in the cycle ring of the projective bundle (relations S*S = 0,
  H^r = d * point, H^(r-1) * S = point).

``cross_check`` runs all four against the closed forms on one split instance.

Enumeration sizes grow like binom(h + r - 1, r - 1); the intended range
(r <= 5, twists <= 12 or so) runs in well under a second.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement

from .bundles import BundleOverCurve, CycleClass
from .errors import InputError, InternalCheckError, integer, shown
from .exact import binom_trunc
from .invariants import (
    RelativeCI,
    canonical_top_power,
    ci_class,
    fibre_deg,
    h_top,
    pushforward,
)

__all__ = [
    "ChowSummary",
    "sym_degree_bruteforce",
    "koszul_degree_bruteforce",
    "hilbert_series_rank",
    "chow_expand",
    "cross_check",
]


def sym_degree_bruteforce(bundle: BundleOverCurve, a: int, twist: int) -> int:
    """Degree of Sym^a(E) twisted down by a degree-``twist`` line bundle.

    Monomials of degree a in the line summands (E from ``BundleOverCurve.split``)
    enumerate a basis of the symmetric power; each contributes the sum of
    its chosen degrees.  The twist subtracts its degree once per basis
    element.  For a = 0 this is just -twist (the trivial summand).
    """
    if a < 0:
        raise InputError(f"symmetric power exponent must be >= 0, got {shown(a)}")
    if bundle.line_degrees is None:
        raise InputError("brute-force oracles need a split bundle (BundleOverCurve.split)")
    total = sum(sum(pick) for pick in combinations_with_replacement(bundle.line_degrees, a))
    return total - binom_trunc(a + bundle.rank - 1, bundle.rank - 1) * twist


def koszul_degree_bruteforce(X: RelativeCI, h: int) -> int:
    """Pushforward degree of O_X(h) summed term by term over subsets.

    The term for subset I is the twisted symmetric power of exponent
    h - k_I; its twist raises the base degree by y_I, so it enters the
    enumerator with twist -y_I.  Subsets pushing the exponent negative
    contribute nothing.  Independent of the closed degree formula.
    """
    if h < 0:
        raise InputError(f"twist h must be >= 0, got {shown(h)}")
    total = 0
    for size in range(X.codim + 1):
        for I in combinations(zip(X.k, X.y), size):
            a = h - sum(ki for ki, _ in I)
            if a >= 0:
                total += (-1) ** size * sym_degree_bruteforce(X.bundle, a, -sum(yi for _, yi in I))
    return total


def hilbert_series_rank(k: tuple[int, ...], r: int, h: int) -> int:
    """Coefficient of t^h in prod (1 - t^k_i) / (1 - t)^r.

    The series is the Hilbert series of a multidegree-k complete
    intersection ring in r variables, so the coefficient is the number
    of independent degree-h forms on the fibre.  Computed by exact
    truncated multiplication, no binomial identities involved.
    """
    if h < 0:
        raise InputError(f"series coefficient index must be >= 0, got {shown(h)}")
    num = [0] * (h + 1)
    num[0] = 1
    for ki in k:
        nxt = num[:]
        for i in range(h + 1 - ki):
            nxt[i + ki] -= num[i]
        num = nxt
    # multiply by 1/(1-t)^r = sum binom(n + r - 1, r - 1) t^n
    return sum(num[j] * binom_trunc(h - j + r - 1, r - 1) for j in range(h + 1))


def _times(a: CycleClass, b: CycleClass) -> CycleClass:
    """Product in the cycle ring of P, where S * S = 0."""
    return CycleClass(a.codim + b.codim, a.p * b.p, a.p * b.q + a.q * b.p)


def _contract(cls: CycleClass, bundle_degree: int, rank: int) -> Fraction:
    """Scalar of a top-degree class, via H^r = d * point and H^(r-1) * S = point."""
    if cls.codim != rank:
        raise InternalCheckError(f"contracting degree {shown(cls.codim)}, expected {shown(rank)}")
    return cls.p * bundle_degree + cls.q


class ChowSummary(namedtuple("ChowSummary", "h_top fibre_deg kf_top ci_class")):
    """Intersection numbers recomputed symbolically, bypassing closed forms."""

    __slots__ = ()


def chow_expand(X: RelativeCI) -> ChowSummary:
    """Expand the class of X in the cycle ring and contract everything.

    Builds prod (k_i * H - y_i * S) and reads off, via honest symbolic
    multiplication: the class of X, its product with powers of H (top
    tautological number), the extra fibre factor (fibre degree) and the
    pairing against the canonical combination (top canonical number).
    """
    r, d = X.rank, X.degree
    H, S = CycleClass(1, 1, 0), CycleClass(1, 0, 1)
    cls = reduce(_times, [CycleClass(1, ki, -yi) for ki, yi in zip(X.k, X.y)])

    def number(factors: list[CycleClass]) -> int:
        x = _contract(reduce(_times, factors, cls), d, r)
        if x.denominator != 1:
            raise InternalCheckError(f"expected integer intersection number, got {shown(x)}")
        return int(x)

    return ChowSummary(
        h_top=number([H] * (r - X.codim)),
        fibre_deg=number([S] + [H] * (r - X.codim - 1)),
        kf_top=number([CycleClass(1, X.k_sum - r, d - X.y_sum)] * X.dim),  # K_f^(dim X)
        ci_class=cls,
    )


def cross_check(X: RelativeCI, h_max: int) -> tuple[dict[str, int], list[dict]]:
    """Compare every closed form on X with its brute-force oracle.

    Four suites: symmetric-power degrees of the (split) bundle of X for
    exponents 0..h_max and twists -3..3, pushforward degrees and ranks
    for h = 0..h_max, and the intersection numbers and class of X
    against ``chow_expand``.  Returns the number of comparisons per
    suite and one entry per disagreement (empty when all agree).
    """
    h_max = integer(h_max, "h_max")
    if h_max < 0:
        raise InputError(f"h_max must be >= 0, got {shown(h_max)}")
    r, d = X.rank, X.degree
    checks = {"sym_closed_form": 0, "koszul_vs_degree": 0, "hilbert_vs_rank": 0, "chow_vs_closed_forms": 0}
    mismatches: list[dict] = []

    def compare(suite: str, brute: Fraction, closed: Fraction, **where: object) -> None:
        checks[suite] += 1
        if brute != closed:
            mismatches.append({"suite": suite, **where, "brute": brute, "closed": closed})

    for a in range(h_max + 1):
        for twist in range(-3, 4):
            closed = Fraction(binom_trunc(a + r - 1, r - 1) * (a * d - twist * r), r)
            compare("sym_closed_form", sym_degree_bruteforce(X.bundle, a, twist), closed, a=a, twist=twist)
    for h in range(h_max + 1):
        pf = pushforward(X, h)
        compare("koszul_vs_degree", koszul_degree_bruteforce(X, h), pf.degree, h=h)
        compare("hilbert_vs_rank", hilbert_series_rank(X.k, r, h), pf.rank, h=h)
    summary = chow_expand(X)
    cls = ci_class(X)
    for name, brute, closed in (
        ("h_top", summary.h_top, h_top(X)),
        ("fibre_deg", summary.fibre_deg, fibre_deg(X)),
        ("kf_top", summary.kf_top, canonical_top_power(X)),
        ("ci_class_p", summary.ci_class.p, cls.p),
        ("ci_class_q", summary.ci_class.q, cls.q),
    ):
        compare("chow_vs_closed_forms", brute, closed, field=name)
    return checks, mismatches
