"""Shared generators for randomized exact-identity tests.

Instances are drawn with plain seeded ``random.Random`` so every run
checks the same cases; ranges follow the acceptance suite conventions
(rank 3..8, degrees 2..6, twists and bundle degrees in -10..10).
``child_env`` is the environment for a child ``python`` that must import
relci from this checkout.  ``CORNERS`` are the rank-200 instances at the
documented limits (k_sum up to 10000), as (k, y) at bundle degree 17.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from relci import BundleOverCurve, RelativeCI


CORNERS = {
    "k10000": ((10000,), (1,)),
    "k100x100": ((100,) * 100, tuple(range(100))),
    "k50x198": ((50,) * 198, (1,) * 198),
    "mixed198": (tuple(2 + i * 37 % 97 for i in range(198)), tuple(range(-99, 99))),  # k_sum 9833
}


def make_ci(
    rng: random.Random,
    *,
    balanced: bool = False,
    surface: bool = False,
    ample_canonical: bool = False,
) -> RelativeCI:
    """Random complete intersection with optional structural constraints."""
    while True:
        r = rng.randint(3, 8)
        c = r - 2 if surface else rng.randint(1, r - 2)
        if balanced or surface:
            k = (rng.randint(2, 6),) * c
        else:
            k = tuple(rng.randint(2, 6) for _ in range(c))
        if ample_canonical and c * k[0] <= r:
            continue
        y = tuple(rng.randint(-10, 10) for _ in range(c))
        d = rng.randint(-10, 10)
        return RelativeCI(BundleOverCurve(r, d), k, y)


def make_hn_bundle(rng: random.Random, r: int | None = None) -> BundleOverCurve:
    """Random bundle with a valid Harder-Narasimhan profile."""
    if r is None:
        r = rng.randint(3, 8)
    while True:
        blocks = rng.randint(1, min(4, r))
        ranks = []
        left = r
        for i in range(blocks - 1):
            hi = left - (blocks - 1 - i)
            ranks.append(rng.randint(1, hi))
            left -= ranks[-1]
        ranks.append(left)
        degs = [rng.randint(-12, 12) for _ in ranks]
        pairs = sorted(zip(ranks, degs), key=lambda p: Fraction(p[1], p[0]), reverse=True)
        slopes = [Fraction(d, rk) for rk, d in pairs]
        if all(a > b for a, b in zip(slopes, slopes[1:])):
            return BundleOverCurve(r, sum(degs), hn=tuple(pairs))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


@pytest.fixture
def child_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
