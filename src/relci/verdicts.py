"""Decision procedures built on top of the invariant formulas.

Each verdict bundles a conclusion with the hypothesis flags that gate
it and the exact witnesses behind it.  No conclusion other than
"Undetermined" / "NoConclusion" is ever reported with a failed
hypothesis flag; the constructor enforces this.

The asymptotic verdict takes its label from the exact sign of the
stable margin polynomial, not from the classical rule that reads the
eventual sign of the twist margins off the sign of the alpha invariant.
That rule is provably exact for balanced data and for hypersurfaces,
but for unbalanced data in codimension two or more it can fail: the
candidate top coefficient of the stable margin polynomial cancels
identically, and the surviving leading coefficient

    fibre_deg * (alpha * (k_sum - r)
                 + dim X * fibre_deg * (k_sum * d - r * y_sum))
        / (2 * r * (dim X - 1)!)

mixes alpha with a second slope comparison.  The verdict keeps alpha
among its witnesses next to the exact stable polynomial data, so a
disagreement with the classical rule stays visible.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from math import ceil, factorial

from .bundles import BundleOverCurve, mn_divisor_test
from .errors import InputError, InternalCheckError, shown
from .invariants import (
    RelativeCI,
    alpha_invariant,
    canonical_class,
    canonical_margin,
    canonical_top_power,
    positivity_margins,
    stable_margin_poly,
)

__all__ = [
    "VerdictReport",
    "SweepResult",
    "Orientation",
    "small_h_verdict",
    "asymptotic_verdict",
    "slope_verdict",
    "instability_verdict",
    "build_example",
    "h_sweep",
]

_NO_CONCLUSION = ("Undetermined", "NoConclusion")
_EVENTUAL_LABEL = {1: "StrictlyFPositiveEventually", -1: "NotFPositiveEventually", 0: "Boundary"}


class VerdictReport(namedtuple("VerdictReport", "theorem hypotheses conclusion witnesses")):
    """A theorem-level conclusion with its gates (name to flag) and exact witnesses.

    Its fields, in order, are the report that ``relci verdict`` and
    ``relci example`` print.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def __new__(cls, theorem: str, hypotheses: dict[str, bool], conclusion: str,
                witnesses: dict[str, object]) -> "VerdictReport":
        self = super().__new__(cls, theorem, hypotheses, conclusion, witnesses)
        if not self.hypotheses_ok and conclusion not in _NO_CONCLUSION:
            raise InternalCheckError(
                f"verdict {theorem!r} concluded {conclusion!r} with a failed hypothesis"
            )
        return self

    @property
    def hypotheses_ok(self) -> bool:
        return all(self.hypotheses.values())


def small_h_verdict(X: RelativeCI) -> VerdictReport:
    """Positivity of O_X(h) throughout the band 1 <= h < min(k).

    In this band only the empty subset survives the Koszul sums and the
    cleared margin collapses to

        h^(dim X - 1) * (h / r) * binom(h + r - 1, r - 1) * alpha,

    so the verdict is equivalent to alpha >= 0, equivalently to
    sum_i y_i/k_i <= c * mu(E).  All three readings are computed
    independently and must agree.  The band's margins come from one run
    of twists (``positivity_margins``), so it costs additions, not one
    Koszul sum per twist; each is then held to the closed form,
    r * margin(h) = h^(dim X) * binom(h + r - 1, r - 1) * alpha, with the
    binomial stepped exactly from binom(r - 1, r - 1) = 1 at h = 0.
    """
    a = alpha_invariant(X)
    c_mu = X.codim * X.bundle.slope
    margins = dict(enumerate(positivity_margins(X, min(X.k) - 1), 1))
    by_alpha = a >= 0
    by_ratio = X.ratio_sum <= c_mu
    by_margins = all(m >= 0 for m in margins.values())
    if not by_alpha == by_ratio == by_margins:
        raise InternalCheckError(
            f"small-twist equivalence broke: alpha {shown(a)}, ratio {shown(X.ratio_sum)} vs "
            f"{shown(c_mu)}, margins < 0 at h = {shown([h for h, m in margins.items() if m < 0])}"
        )
    r, n, b = X.rank, X.dim, 1
    for h, m in margins.items():
        b = b * (h + r - 1) // h
        closed = h ** n * b * a
        if r * m != closed:
            raise InternalCheckError(
                f"small-twist margin disagrees with its closed form at h={shown(h)}: "
                f"r margin {shown(r * m)} vs h^{n} binom({shown(h + r - 1)}, {r - 1}) alpha "
                f"{shown(closed)}"
            )
    return VerdictReport(
        theorem="SmallH",
        hypotheses={},
        conclusion="FPositiveAllSmallH" if by_alpha else "NotFPositiveSmallH",
        witnesses={
            "alpha": a,
            "c_mu": c_mu,
            "ratio_sum": X.ratio_sum,
            "margins": margins,
        },
    )


def asymptotic_verdict(X: RelativeCI) -> VerdictReport:
    """Eventual positivity of O_X(h), read off the exact stable polynomial.

    The label is the sign of the leading coefficient, proven since the
    polynomial is the normalised margin for every h >= k_sum - r + 1;
    the zero polynomial is a boundary case whose next coefficient
    (degree dim X - 1) is reported without any label.  The witnesses
    keep alpha, whose sign can disagree on unbalanced data (see the
    module docstring).
    """
    a = alpha_invariant(X)
    poly, n = stable_margin_poly(X), X.dim
    lead = poly[-1] if poly else Fraction(0)
    sign = (lead > 0) - (lead < 0)
    return VerdictReport(
        theorem="Asymptotic",
        hypotheses={},
        conclusion=_EVENTUAL_LABEL[sign],
        witnesses={
            "alpha": a,
            "stable_poly_degree": len(poly) - 1,
            "stable_leading_coeff": lead,
            "next_coeff": poly[n - 1] if len(poly) == n else Fraction(0),
            "exact_eventual_sign": sign,
        },
    )


def slope_verdict(X: RelativeCI) -> VerdictReport:
    """Slope inequality for balanced data with ample relative canonical class.

    Under the gates (balanced, k > 1, c*k > r) three predicates agree
    on every instance: nonnegative canonical top power, nonnegative
    canonical margin, and mu(E) >= y_sum / (c*k).  They are evaluated
    independently and must coincide.
    """
    gates = {
        "balanced": X.balanced,
        "degree_above_one": min(X.k) > 1,
        "canonical_relatively_ample": X.balanced and canonical_class(X).general_type_fibres,
    }
    if not all(gates.values()):
        return VerdictReport(
            theorem="Slope",
            hypotheses=gates,
            conclusion="Undetermined",
            witnesses={"failed": tuple(name for name, ok in gates.items() if not ok)},
        )
    ratio = Fraction(X.y_sum, X.k_sum)
    kf = canonical_top_power(X)
    margin = canonical_margin(X)
    crit = X.bundle.slope >= ratio
    if not (kf >= 0) == (margin >= 0) == crit:
        raise InternalCheckError(
            f"slope equivalence broke: kf_top {shown(kf)}, margin {shown(margin)}, criterion {crit}"
        )
    return VerdictReport(
        theorem="Slope",
        hypotheses=gates,
        conclusion="SlopeHolds" if crit else "SlopeFails",
        witnesses={
            "kf_top": kf,
            "margin": margin,
            "mu": X.bundle.slope,
            "ratio": ratio,
        },
    )


def instability_verdict(X: RelativeCI) -> VerdictReport:
    """One-directional instability condition for the fibres.

    When sum_i y_i/k_i strictly exceeds c * mu(E), that is when alpha is
    negative (the class of X lies strictly outside the bridge cone), the
    fibres are Chow unstable in the small-twist band, where the excess is
    equivalent to negative margins; balanced data with c*k > r are
    additionally unstable with respect to the dualizing sheaf.  The
    excess does not settle large twists on unbalanced data, so
    ``unstable_large_h`` is read off the exact stable polynomial: it
    holds exactly when the margins end negative.  Ending at 0 is not
    ending negative: r = 5, d = -16, k = (2, 3, 4), y = (-5, -12, -12)
    has alpha = -12 and a zero stable polynomial, its margins are -12,
    0, 36 and then 0 from h = 4 on, the asymptotic verdict says
    ``Boundary``, and ``unstable_large_h`` is false.  When the excess
    fails there is no conclusion either way.
    """
    witnesses: dict[str, object] = {"ratio_sum": X.ratio_sum, "c_mu": X.codim * X.bundle.slope}
    if alpha_invariant(X) >= 0:
        return VerdictReport(
            theorem="Instability",
            hypotheses={"ratio_exceeds_bridge": False},
            conclusion="NoConclusion",
            witnesses=witnesses,
        )
    witnesses["unstable_small_h"] = True
    witnesses["unstable_large_h"] = (stable_margin_poly(X) or (0,))[-1] < 0  # zero is ()
    witnesses["unstable_dualizing"] = X.balanced and canonical_class(X).general_type_fibres
    return VerdictReport(
        theorem="Instability",
        hypotheses={"ratio_exceeds_bridge": True},
        conclusion="ChowUnstableFibres",
        witnesses=witnesses,
    )


class Orientation(str, Enum):
    """Which of the two degree/twist readings of the example family to build."""

    AS_WRITTEN = "as-written"
    SWAPPED = "swapped"


def build_example(
    a: int, r: int, c: int, m: int, orientation: Orientation | str
) -> tuple[RelativeCI, VerdictReport]:
    """Candidate unstable family over a genus-0 base, with validation.

    The bundle is O(a)^(r-1) + O(a-1), of degree r*a - 1, whose two
    Harder-Narasimhan slopes are a and a - 1.  The c hypersurfaces all
    sit in |k*H - y*S| with (k, y) = (m*(r*a - 1), m*(r + 1)) as
    written, or the swapped reading.  Three conditions are then checked
    exactly: effectivity (y/k at most the top slope), base locus
    (y/k above the second slope, forcing the singular section) and the
    instability excess (sum y_i/k_i above c*mu).  Neither orientation
    satisfies all three at once; the report carries the diagnosis and
    concludes only if every condition holds.
    """
    if a < 1 or m < 1:
        raise InputError("family parameters a and m must be >= 1")
    if r < 3:
        raise InputError("family needs rank >= 3")
    if not 1 <= c <= r - 2:
        raise InputError(f"codimension {shown(c)} out of range 1..{r - 2}")
    orientation = Orientation(orientation)
    bundle = BundleOverCurve(
        rank=r,
        degree=r * a - 1,
        base_genus=0,
        hn=((r - 1, a * (r - 1)), (1, a - 1)),
    )
    big, small = m * (r * a - 1), m * (r + 1)
    k, y = (big, small) if orientation is Orientation.AS_WRITTEN else (small, big)
    X = RelativeCI(bundle, (k,) * c, (y,) * c)
    ratio = Fraction(y, k)
    mu2 = bundle.mu_last
    checks = {
        "effective": mn_divisor_test(bundle, k, y).pseff,
        "base_locus_on_section": ratio > mu2,
        "instability_excess": alpha_invariant(X) < 0,
    }
    report = VerdictReport(
        theorem="ExampleFamily",
        hypotheses=checks,
        conclusion="UnstableFamily" if all(checks.values()) else "Undetermined",
        witnesses={
            "k": k,
            "y": y,
            "ratio": ratio,
            "mu": bundle.slope,
            "mu_first": bundle.mu_first,
            "mu_second": mu2,
            "orientation": orientation.value,
        },
    )
    return X, report


class SweepResult(namedtuple("SweepResult", "margins stable_poly sign_stable_from eventual_sign")):
    """Cleared margins for h = 1..h_max plus exact stabilisation data."""

    __slots__ = ()


def h_sweep(X: RelativeCI, h_max: int) -> SweepResult:
    """Cleared margins for h = 1..h_max and the exact eventual behaviour.

    The margins come from one run of twists (``positivity_margins``):
    running sums of the subset tables up to dim X + 1 twists past
    k_sum - r, then dim X running sums of the margin's differences, so
    a long run past k_sum costs dim X passes, not r.
    The stable polynomial is the normalised margin for h > k_sum - r,
    built from the subset tables without evaluating any twist (see
    ``stable_margin_poly``).  Beyond ``sign_stable_from``, the larger of
    k_sum and the Cauchy root bound 1 + max_i |a_i / a_lead| rounded up
    (k_sum alone for a constant or zero polynomial), the sign of every
    margin equals ``eventual_sign``.

    The two are held to each other in integers: n! * margin(h) against
    h^(n-1) times the stable polynomial cleared by n!, n = dim X, at the
    run's twists among the n + 1 from start = max(1, k_sum - r + 1) on.
    Both sides are h^(n-1) times polynomials of degree at most n from
    start on, and the run continues E past those twists as the one
    polynomial through them, so agreement there is agreement at every
    twist of the run from start on; a mismatch aborts hard.
    """
    margins = positivity_margins(X, h_max)
    poly = stable_margin_poly(X)
    n, den = X.dim, factorial(X.dim)
    cleared = [int(a * den) for a in reversed(poly)]  # the coefficients are over n!
    start = max(1, X.k_sum - X.rank + 1)
    for h in range(start, min(h_max, start + n) + 1):
        value = 0
        for a in cleared:
            value = value * h + a
        run, stable = den * margins[h - 1], h ** (n - 1) * value
        if run != stable:
            raise InternalCheckError(
                f"stable margin polynomial disagrees with the run of twists at h={shown(h)}: "
                f"{n}! margin {shown(run)} vs {shown(stable)}"
            )
    lead = poly[-1] if poly else 0
    bound = 1 + ceil(max(map(abs, poly[:-1])) / abs(lead)) if len(poly) > 1 else 0
    return SweepResult(
        margins=margins,
        stable_poly=poly,
        sign_stable_from=max(X.k_sum, bound),
        eventual_sign=(lead > 0) - (lead < 0),
    )
