"""Vector bundles over a curve and the cone structure of their cycle spaces.

A rank-r bundle E over a smooth curve determines a projective bundle P
whose codimension-c cycle space (modulo numerical equivalence) is
two-dimensional, spanned by H^c and H^(c-1)S, with H the tautological
divisor class and S a fibre of the projection.  Three nested cones live
in each of these planes:

    Nef^c  <=  B  <=  Pseff^c

where the outer two are cut out by partial sums of the *virtual slopes*
of E (the Harder-Narasimhan subquotient slopes, each repeated by its
block rank) and the middle cone B uses c times the ordinary slope
mu = deg/rank.  All three share the ray spanned by H^(c-1)S; the second
extremal ray of each is H^c - t * H^(c-1)S for a rational threshold t.

Virtual slopes are stored in non-increasing order, so that for c = 1 the
Pseff/Nef thresholds reproduce the classical pseudo-effectivity and
nefness bounds mu_1 and mu_last for divisors k*H - m*S.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction
from itertools import groupby

from .errors import InputError, integer, shown

__all__ = [
    "BundleOverCurve",
    "CycleClass",
    "ConeLabel",
    "Region",
    "DivisorPositivity",
    "virtual_slopes",
    "cone",
    "mn_divisor_test",
    "classify",
    "split_hn_blocks",
]


def split_hn_blocks(line_degrees: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Harder-Narasimhan blocks of a direct sum of line bundles.

    Equal degrees merge into one block; blocks are ordered by strictly
    decreasing degree (= slope, since every summand has rank one).
    """
    if not line_degrees:
        raise InputError("split bundle needs at least one summand")
    runs = [list(run) for _, run in groupby(sorted(line_degrees, reverse=True))]
    return tuple((len(run), sum(run)) for run in runs)


class BundleOverCurve(namedtuple("BundleOverCurve", "rank degree base_genus hn line_degrees")):
    """Numerical data of a vector bundle E on a smooth projective curve.

    Only rank, degree and (optionally) the Harder-Narasimhan profile
    enter any formula; the base genus is carried along as metadata and
    echoed in reports.  ``hn`` lists the subquotient blocks as
    (rank, degree) pairs, top slope first; a semistable bundle is the
    single-block profile ``((rank, degree),)``.  ``line_degrees`` are the
    summand degrees of a direct sum of line bundles (in input order, as
    ``split`` sets them), which the brute-force oracles need; they must
    induce ``hn``.  A tuple, like every value type of the package: ``==``
    is tuple equality, and ``_replace`` validates as the constructor does.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __new__(cls, rank: int, degree: int, base_genus: int = 0,
                hn: tuple[tuple[int, int], ...] | None = None,
                line_degrees: tuple[int, ...] | None = None) -> "BundleOverCurve":
        rank, degree, base_genus = map(integer, (rank, degree, base_genus), cls._fields)
        if rank < 2:
            raise InputError(f"bundle rank must be >= 2, got {shown(rank)}")
        if base_genus < 0:
            raise InputError("base genus must be >= 0")
        if hn is not None:
            hn = tuple((integer(r, "hn"), integer(d, "hn")) for r, d in hn)
            if any(r < 1 for r, _ in hn):
                raise InputError("hn block ranks must be >= 1")
            if sum(r for r, _ in hn) != rank:
                raise InputError("hn block ranks must sum to the bundle rank")
            if sum(d for _, d in hn) != degree:
                raise InputError("hn block degrees must sum to the bundle degree")
            # d/r is the rank-weighted mean of these, so it lies between the extremes
            slopes = [Fraction(d, r) for r, d in hn]
            if any(a <= b for a, b in zip(slopes, slopes[1:])):
                raise InputError("hn block slopes must be strictly decreasing")
        if line_degrees is not None:
            line_degrees = tuple(integer(a, "line_degrees") for a in line_degrees)
            if split_hn_blocks(line_degrees) != hn:  # so the count and sum are rank and degree
                raise InputError("line degrees disagree with the Harder-Narasimhan profile")
        return super().__new__(cls, rank, degree, base_genus, hn, line_degrees)

    @classmethod
    def semistable(cls, rank: int, degree: int, base_genus: int = 0) -> "BundleOverCurve":
        return cls(rank, degree, base_genus, hn=((rank, degree),))

    @classmethod
    def split(cls, line_degrees: Sequence[int], base_genus: int = 0) -> "BundleOverCurve":
        degs = tuple(integer(a, "line_degrees") for a in line_degrees)
        return cls(len(degs), sum(degs), base_genus, split_hn_blocks(degs), degs)

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    @property
    def has_hn(self) -> bool:
        return self.hn is not None

    @property
    def is_semistable(self) -> bool:
        return self.hn is not None and len(self.hn) == 1

    @property
    def mu_first(self) -> Fraction:
        """Largest Harder-Narasimhan slope."""
        r, d = _hn(self)[0]
        return Fraction(d, r)

    @property
    def mu_last(self) -> Fraction:
        """Smallest Harder-Narasimhan slope."""
        r, d = _hn(self)[-1]
        return Fraction(d, r)


def _hn(bundle: BundleOverCurve) -> tuple[tuple[int, int], ...]:
    if bundle.hn is None:
        raise InputError(
            "virtual slopes need the Harder-Narasimhan profile; "
            "provide hn (a semistable bundle is hn=[(rank, degree)])"
        )
    return bundle.hn


def virtual_slopes(bundle: BundleOverCurve) -> tuple[Fraction, ...]:
    """Slope multiset of the bundle: each block slope, repeated block-rank times.

    Sorted non-increasing; the sum always equals the bundle degree.
    Requires the Harder-Narasimhan profile.
    """
    out: list[Fraction] = []
    for r, d in _hn(bundle):
        out.extend([Fraction(d, r)] * r)
    return tuple(out)


class CycleClass(namedtuple("CycleClass", "codim p q")):
    """A codimension-c numerical class p*H^c + q*H^(c-1)S."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __new__(cls, codim: int, p: Fraction | int, q: Fraction | int) -> "CycleClass":
        codim, p, q = integer(codim, "codim"), Fraction(p), Fraction(q)
        if codim < 1:
            raise InputError("cycle codimension must be >= 1")
        return super().__new__(cls, codim, p, q)


class ConeLabel(str, Enum):
    """Listed from the innermost cone out: Nef <= bridge <= Pseff."""

    NEF = "Nef"
    BRIDGE = "Bridge"
    PSEFF = "Pseff"


def cone(bundle: BundleOverCurve, c: int, label: ConeLabel) -> Fraction:
    """Threshold t of the Nef / bridge / Pseff cone in codim c.

    The cone is <H^(c-1)S, H^c - t*H^(c-1)S>, with t the sum of the c
    smallest virtual slopes (Nef), c times the slope (bridge) or the sum
    of the c largest virtual slopes (Pseff).  The bridge cone needs only
    (rank, degree); the other two need the Harder-Narasimhan profile.
    """
    if not 1 <= c <= bundle.rank - 1:
        raise InputError(f"codimension {shown(c)} out of range 1..{shown(bundle.rank - 1)}")
    label = ConeLabel(label)
    if label is ConeLabel.BRIDGE:
        return c * bundle.slope
    slopes = virtual_slopes(bundle)
    return sum(slopes[:c] if label is ConeLabel.PSEFF else slopes[-c:], Fraction(0))


class DivisorPositivity(namedtuple("DivisorPositivity", "pseff nef")):
    """Whether a divisor class k*H - m*S is pseudo-effective and whether it is nef."""

    __slots__ = ()


def mn_divisor_test(bundle: BundleOverCurve, k: int, m: int) -> DivisorPositivity:
    """Positivity of the divisor class k*H - m*S on the projective bundle.

    Pseudo-effective iff m/k is at most the largest Harder-Narasimhan
    slope; nef iff m/k is at most the smallest.  Exact comparisons.
    """
    if k <= 0:
        raise InputError(f"divisor H-coefficient must be >= 1, got {shown(k)}")
    ratio = Fraction(m, k)
    return DivisorPositivity(pseff=ratio <= bundle.mu_first, nef=ratio <= bundle.mu_last)


class Region(str, Enum):
    """Position of a class relative to the nested cones Nef <= B <= Pseff.

    Declared in order of the threshold ratio: member 2i lies strictly
    between the thresholds of cones i - 1 and i (in ``ConeLabel`` order),
    member 2i + 1 on the boundary of cone i; ``classify`` counts on it.
    """

    INSIDE_NEF = "InsideNef"
    NEF_BOUNDARY = "NefBoundary"
    INSIDE_BRIDGE_OUTSIDE_NEF = "InsideBridgeOutsideNef"
    BRIDGE_BOUNDARY = "BridgeBoundary"
    INSIDE_PSEFF_OUTSIDE_BRIDGE = "InsidePseffOutsideBridge"
    PSEFF_BOUNDARY = "PseffBoundary"
    OUTSIDE_PSEFF = "OutsidePseff"


#: Regions strictly outside the bridge cone B (ratio -q/p > c*mu).
REGIONS_OUTSIDE_BRIDGE = frozenset(
    {Region.INSIDE_PSEFF_OUTSIDE_BRIDGE, Region.PSEFF_BOUNDARY, Region.OUTSIDE_PSEFF}
)


def classify(bundle: BundleOverCurve, cls: CycleClass) -> Region:
    """Locate a class among the nested cones of its codimension plane.

    Classes with p = 0 sit on the ray common to all three cones and are
    reported as the (innermost) Nef boundary; p < 0 is rejected outright
    since such a class cannot be effective.  The answer is invariant
    under positive rescaling of (p, q).  When the cones coincide
    (semistable bundle) the innermost matching region is reported.
    """
    if not 1 <= cls.codim <= bundle.rank - 1:
        raise InputError(f"codimension {shown(cls.codim)} out of range 1..{shown(bundle.rank - 1)}")
    if cls.p < 0:
        raise InputError("cycle class with negative H^c coefficient is not a candidate")
    if cls.p == 0:
        return Region.NEF_BOUNDARY
    ts = [cone(bundle, cls.codim, label) for label in ConeLabel]  # non-decreasing
    ratio = -cls.q / cls.p
    i = bisect_left(ts, ratio)  # the innermost cone whose threshold is not below the ratio
    return list(Region)[2 * i + (ts[i:i + 1] == [ratio])]
