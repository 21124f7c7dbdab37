"""Exact invariants of relative complete intersections in projective bundles.

The library computes, entirely over arbitrary-precision integers and
rationals: intersection numbers, pushforward ranks and degrees,
positivity margins of tautological twists and of the relative canonical
class, the nested Nef / bridge / Pseff cone structure of the cycle
planes, instability conditions for the fibres, and degree-of-contact
arithmetic.  Every closed formula has an independent brute-force oracle
in :mod:`relci.oracles`.
"""

__version__ = "0.1.0"

from .bundles import (
    BundleOverCurve,
    ConeDescription,
    ConeLabel,
    CycleClass,
    DivisorPositivity,
    Region,
    classify,
    cone,
    mn_divisor_test,
    virtual_slopes,
)
from .contact import (
    ContactInstance,
    HMStatus,
    WeightFiltration,
    contact_of_intersection,
    hm_test,
    intersection_semistability_check,
)
from .errors import HypothesisError, InputError, InternalCheckError
from .exact import Rat, RatPoly, binom_trunc, interpolate, subsets_of_size
from .invariants import (
    CanonicalClass,
    PositivityReport,
    PushforwardSummary,
    RelativeCI,
    SurfaceFormulaReport,
    alpha_invariant,
    balanced_margin,
    canonical_class,
    canonical_margin,
    canonical_top_power,
    ci_class,
    effectivity_violations,
    fibre_deg,
    h_top,
    omega_pushforward,
    positivity_margin,
    pushforward,
    surface_formula_check,
)
from .oracles import (
    ChowSummary,
    SplitBundle,
    chow_expand,
    cross_check,
    hilbert_series_rank,
    koszul_degree_bruteforce,
    sym_degree_bruteforce,
)
from .verdicts import (
    Orientation,
    SweepResult,
    VerdictReport,
    asymptotic_verdict,
    build_example,
    h_sweep,
    instability_verdict,
    slope_verdict,
    small_h_verdict,
    stable_margin_poly,
)

__all__ = [
    "__version__",
    "BundleOverCurve",
    "CanonicalClass",
    "ChowSummary",
    "ConeDescription",
    "ConeLabel",
    "ContactInstance",
    "CycleClass",
    "DivisorPositivity",
    "HMStatus",
    "HypothesisError",
    "InputError",
    "InternalCheckError",
    "Orientation",
    "PositivityReport",
    "PushforwardSummary",
    "Rat",
    "RatPoly",
    "Region",
    "RelativeCI",
    "SplitBundle",
    "SurfaceFormulaReport",
    "SweepResult",
    "VerdictReport",
    "WeightFiltration",
    "alpha_invariant",
    "asymptotic_verdict",
    "balanced_margin",
    "binom_trunc",
    "build_example",
    "canonical_class",
    "canonical_margin",
    "canonical_top_power",
    "chow_expand",
    "ci_class",
    "classify",
    "cone",
    "contact_of_intersection",
    "cross_check",
    "effectivity_violations",
    "fibre_deg",
    "h_sweep",
    "h_top",
    "hilbert_series_rank",
    "hm_test",
    "instability_verdict",
    "interpolate",
    "intersection_semistability_check",
    "koszul_degree_bruteforce",
    "mn_divisor_test",
    "omega_pushforward",
    "positivity_margin",
    "pushforward",
    "slope_verdict",
    "small_h_verdict",
    "stable_margin_poly",
    "subsets_of_size",
    "surface_formula_check",
    "sym_degree_bruteforce",
    "virtual_slopes",
]
