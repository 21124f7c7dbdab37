"""Formula-level degree-of-contact arithmetic and stability propagation.

A one-parameter subgroup of the ambient linear group induces a weighted
filtration of the coordinate space; each subvariety T of the ambient
projective n-space then has a degree of contact e_F(T), and the
numerical stability criterion compares

    e_F(T) / ((dim T + 1) * deg T)   against   sum(weights) / (n + 1)

(strictly below: stable; equal: semistable boundary; above: unstable
for this filtration).  Degrees of contact are *inputs* here: nothing is
computed from equations or Chow forms.  What the module does compute is
the Bezout-type behaviour under proper intersection,

    e_F(Y.Z) = deg(Y) e_F(Z) + deg(Z) e_F(Y) - deg(Y) deg(Z) sum(weights),

and the resulting propagation check: intersections of instances
satisfying the semistable bound satisfy it again, strictly if either
input is strict.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import InputError, integer, shown

__all__ = [
    "ContactInstance",
    "WeightFiltration",
    "HMStatus",
    "hm_test",
    "contact_of_intersection",
    "intersection_semistability_check",
]


class ContactInstance(namedtuple("ContactInstance", "ambient_n dim deg e_f")):
    """Dimension, degree and degree of contact of a subvariety of P^n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __new__(cls, ambient_n: int, dim: int, deg: int, e_f: Fraction | int) -> "ContactInstance":
        ambient_n, dim, deg = map(integer, (ambient_n, dim, deg), cls._fields)
        e_f = Fraction(e_f)
        if not 0 <= dim <= ambient_n:
            raise InputError(f"dimension {shown(dim)} out of range 0..{ambient_n}")
        if deg < 1:
            raise InputError(f"degree must be >= 1, got {shown(deg)}")
        return super().__new__(cls, ambient_n, dim, deg, e_f)


class WeightFiltration(namedtuple("WeightFiltration", "weights")):
    """Nonnegative weights r_0..r_n of a one-parameter subgroup, not all zero."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __new__(cls, weights: tuple[Fraction | int, ...]) -> "WeightFiltration":
        weights = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in weights):
            raise InputError("weights must be >= 0")
        if not any(weights):
            raise InputError("weights must not all vanish")
        return super().__new__(cls, weights)

    @property
    def ambient_n(self) -> int:
        return len(self.weights) - 1

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


class HMStatus(str, Enum):
    STABLE = "Stable"
    SEMISTABLE = "Semistable"
    UNSTABLE = "Unstable"


def hm_test(T: ContactInstance, W: WeightFiltration) -> HMStatus:
    """Numerical stability of T for this one filtration.

    A per-filtration test only: Stable/Semistable here certify nothing
    global, while Unstable exhibits a destabilising filtration.
    """
    if T.ambient_n != W.ambient_n:
        raise InputError(
            f"ambient mismatch: instance in P^{T.ambient_n}, "
            f"filtration on P^{W.ambient_n}"
        )
    lhs = T.e_f / ((T.dim + 1) * T.deg)
    rhs = W.total / (T.ambient_n + 1)
    if lhs < rhs:
        return HMStatus.STABLE
    if lhs == rhs:
        return HMStatus.SEMISTABLE
    return HMStatus.UNSTABLE


def contact_of_intersection(
    Y: ContactInstance, Z: ContactInstance, W: WeightFiltration
) -> ContactInstance:
    """Contact data of the proper intersection cycle Y.Z.

    Dimensions add and drop by the ambient dimension, degrees multiply,
    and the degree of contact obeys the Bezout-type formula above.
    Requires dim Y + dim Z >= n.
    """
    if Y.ambient_n != Z.ambient_n:
        raise InputError("instances live in different ambient spaces")
    if Y.ambient_n != W.ambient_n:
        raise InputError("filtration ambient does not match the instances")
    n = Y.ambient_n
    if Y.dim + Z.dim < n:
        raise InputError(
            f"intersection is empty in expected dimension: "
            f"{Y.dim} + {Z.dim} < {n}"
        )
    return ContactInstance(
        ambient_n=n,
        dim=Y.dim + Z.dim - n,
        deg=Y.deg * Z.deg,
        e_f=Y.deg * Z.e_f + Z.deg * Y.e_f - Y.deg * Z.deg * W.total,
    )


def intersection_semistability_check(
    Y: ContactInstance, Z: ContactInstance, W: WeightFiltration
) -> bool:
    """Verify that the semistable bound survives proper intersection.

    Preconditions (reported, not silently assumed): both inputs satisfy
    the bound for W.  Returns whether the intersection instance does;
    on valid inputs this is always True, strictly below the bound
    whenever either input is strictly below.
    """
    for name, inst in (("first", Y), ("second", Z)):
        if hm_test(inst, W) is HMStatus.UNSTABLE:
            raise InputError(f"{name} input violates the semistable bound")
    cut = contact_of_intersection(Y, Z, W)
    return hm_test(cut, W) is not HMStatus.UNSTABLE
