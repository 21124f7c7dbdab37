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

from . import bundles, contact, errors, exact, invariants, oracles, verdicts
from .bundles import *
from .contact import *
from .errors import *
from .exact import *
from .invariants import *
from .oracles import *
from .verdicts import *

__all__ = [
    "__version__",
    *bundles.__all__,
    *contact.__all__,
    *errors.__all__,
    *exact.__all__,
    *invariants.__all__,
    *oracles.__all__,
    *verdicts.__all__,
]
