"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single line

    ACCEPTANCE <n> (<name>): PASS|FAIL

before asserting, so ``pytest tests/test_acceptance.py -v -s`` gives a
per-criterion scoreboard.  All tolerances are zero; every expected
value is either computed by an independent oracle inside the test or
frozen after being derived that way.

Criterion 2 has two tests on the same 200 instances.  The classical
rule states that the normalised margin polynomial margin(h)/h^(dim X - 1)
has degree dim X and leading coefficient (1 + dimX * fibre) * alpha / r.
It does not: Riemann-Roch and the Hilbert polynomial make the degree-(dim X)
coefficient cancel identically.  The first test pins what does hold of
the stated constant: that cancellation on every instance, and on
balanced data (every hypersurface included) both the sign of the stated
constant as the exact eventual sign and the balanced closed form
fibre * (k - 1) * alpha / (2 * (dimX - 1)!) of the leading coefficient.
The second test pins the general closed form of the surviving leading
coefficient,

    fibre * (alpha*(k_sum - r) + dimX * fibre * (k_sum*d - r*y_sum))
        / (2 * r * (dimX - 1)!)

whose sign need not be that of alpha on unbalanced data.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

from relci import (
    BundleOverCurve,
    ConeLabel,
    RelativeCI,
    alpha_invariant,
    canonical_margin,
    canonical_top_power,
    chow_expand,
    ci_class,
    classify,
    cone,
    contact_of_intersection,
    cross_check,
    fibre_deg,
    h_top,
    hilbert_series_rank,
    hm_test,
    instability_verdict,
    koszul_degree_bruteforce,
    mn_divisor_test,
    omega_pushforward,
    positivity_margin,
    slope_verdict,
    stable_margin_poly,
    virtual_slopes,
)
from relci.bundles import REGIONS_OUTSIDE_BRIDGE
from relci.contact import ContactInstance, HMStatus, WeightFiltration
from relci.exact import binom_trunc
from tests.conftest import make_ci, make_hn_bundle
from tests.oracle_poly import balanced_margin


def scoreboard(n: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n:2d} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_small_twist_proportionality():
    rng = random.Random(101)
    bad = []
    for _ in range(500):
        X = make_ci(rng)
        a = alpha_invariant(X)
        r, n = X.rank, X.dim
        for h in range(1, min(X.k)):
            got = positivity_margin(X, h)
            want = h ** (n - 1) * Fraction(h, r) * binom_trunc(h + r - 1, r - 1) * a
            if got != want:
                bad.append((X, h, got, want))
            sign_a = (a > 0) - (a < 0)
            if ((got > 0) - (got < 0)) != sign_a:
                bad.append((X, h, got, "sign"))
    ok = not bad
    scoreboard(1, "small-twist proportionality", ok)
    assert ok, bad[:3]


def test_criterion_2_asymptotic_leading_coefficient_as_stated():
    # The stated constant (1 + n*prod(k)) * alpha / r is checked for what
    # can be proven of it.  Riemann-Roch gives deg = h_top * h^n/n! + ...
    # and the Hilbert polynomial rank = prod(k) * h^(n-1)/(n-1)! + ..., so
    # the h^n coefficient of h*h_top*rank - n*prod(k)*deg is
    # h_top*prod(k)/(n-1)! - n*prod(k)*h_top/n! = 0: the constant can
    # never be the leading coefficient.  What survives is its sign on
    # balanced data, where k_sum*d - r*y_sum = alpha / k^(c-1) turns the
    # general closed form into prod(k) * (k-1) * alpha / (2 * (n-1)!).
    rng = random.Random(202)
    bad = []
    balanced = 0
    for _ in range(200):
        X = make_ci(rng)
        poly = stable_margin_poly(X)
        n = X.dim
        a = alpha_invariant(X)
        stated = Fraction((1 + n * fibre_deg(X)) * a, X.rank)
        lead = poly[-1] if poly else 0
        top = poly[n] if len(poly) > n else 0
        if top != 0 or len(poly) - 1 > n:
            bad.append((X, f"degree-{n} coefficient {top}, degree {len(poly) - 1}", stated))
        if not X.balanced:
            continue
        balanced += 1
        if (lead > 0) - (lead < 0) != (stated > 0) - (stated < 0):
            bad.append((X, f"eventual sign of leading coefficient {lead}", stated))
        want = Fraction(fibre_deg(X) * (X.k[0] - 1) * a, 2 * factorial(n - 1))
        if lead != want:
            bad.append((X, f"leading coefficient {lead}, balanced closed form {want}", stated))
    ok = not bad and balanced > 0
    scoreboard(2, f"stated asymptotic constant ({balanced} balanced of 200)", ok)
    assert balanced > 0
    assert not bad, "; ".join(
        f"instance {X!r}: {what}, stated value {stated}" for X, what, stated in bad[:3]
    )


def test_criterion_2_corrected_leading_coefficient():
    # the exact closed form the interpolation actually produces
    rng = random.Random(202)
    bad = []
    for _ in range(200):
        X = make_ci(rng)
        poly = stable_margin_poly(X)
        n, r = X.dim, X.rank
        fib = fibre_deg(X)
        a = alpha_invariant(X)
        lead = Fraction(
            fib * (a * (X.k_sum - r) + n * fib * (X.k_sum * X.degree - r * X.y_sum)),
            2 * r * factorial(n - 1),
        )
        if len(poly) > n:
            bad.append((X, "degree", len(poly) - 1))
        want = poly[n - 1] if len(poly) == n else 0
        if lead != want:
            bad.append((X, lead, want))
    ok = not bad
    scoreboard(2, "corrected asymptotic leading coefficient", ok)
    assert ok, bad[:3]


def test_criterion_3_balanced_closed_form():
    rng = random.Random(303)
    bad = []
    for _ in range(200):
        X = make_ci(rng, balanced=True)
        n = X.dim
        for h in range(1, 3 * X.k[0] + 1):
            closed = balanced_margin(X, h)
            general = X.rank * Fraction(positivity_margin(X, h), h ** (n - 1))
            if closed != general:
                bad.append((X, h, closed, general))
    ok = not bad
    scoreboard(3, "balanced closed form", ok)
    assert ok, bad[:3]


def test_criterion_4_slope_theorem():
    rng = random.Random(404)
    bad = []
    for _ in range(200):
        X = make_ci(rng, balanced=True, ample_canonical=True)
        r, c, n = X.rank, X.codim, X.dim
        k = X.k[0]
        a = alpha_invariant(X)
        kf = canonical_top_power(X)
        if kf != (c * k - r) ** (n - 1) * (k - 1) * a:
            bad.append((X, "kf_top closed form", kf))
        margin = canonical_margin(X)
        crit = X.bundle.slope >= Fraction(X.y_sum, c * k)
        if not ((kf >= 0) == (margin >= 0) == crit):
            bad.append((X, "predicates diverge", kf, margin, crit))
        if slope_verdict(X).conclusion != ("SlopeHolds" if crit else "SlopeFails"):
            bad.append((X, "verdict"))
    ok = not bad
    scoreboard(4, "slope theorem equivalences", ok)
    assert ok, bad[:3]


def test_criterion_5_worked_instance_via_oracles():
    X = RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))

    # oracle-side values first
    chow = chow_expand(X)
    rank_oracle = hilbert_series_rank((3, 3), 4, 2)
    deg_oracle = koszul_degree_bruteforce(X, 2)
    deg_omega_oracle = deg_oracle - (3 - 4) * rank_oracle
    alpha_oracle = 4 * 9 * (2 * Fraction(4, 4) - (Fraction(1, 3) + Fraction(2, 3)))
    slope_margin_oracle = chow.kf_top * rank_oracle - 2 * (2 * 9) * deg_omega_oracle

    frozen = {
        "h_top": 27,
        "fibre_deg": 9,
        "alpha": 36,
        "kf2": 144,
        "rank_omega": 10,
        "deg_omega": 30,
        "slope_margin": 360,
    }
    oracle_side = {
        "h_top": chow.h_top,
        "fibre_deg": chow.fibre_deg,
        "alpha": alpha_oracle,
        "kf2": chow.kf_top,
        "rank_omega": rank_oracle,
        "deg_omega": deg_omega_oracle,
        "slope_margin": slope_margin_oracle,
    }
    closed_side = {
        "h_top": h_top(X),
        "fibre_deg": fibre_deg(X),
        "alpha": alpha_invariant(X),
        "kf2": canonical_top_power(X),
        "rank_omega": omega_pushforward(X).rank,
        "deg_omega": omega_pushforward(X).degree,
        "slope_margin": canonical_margin(X),
    }
    ok = oracle_side == frozen and closed_side == frozen
    scoreboard(5, "worked instance", ok)
    assert oracle_side == frozen, oracle_side
    assert closed_side == frozen, closed_side


def test_criterion_6_surface_closed_forms():
    rng = random.Random(606)
    bad = []
    for _ in range(100):
        X = make_ci(rng, surface=True, ample_canonical=True)
        r, c, k = X.rank, X.codim, X.k[0]
        a_red = c * X.degree * k - r * X.y_sum
        kf2 = canonical_top_power(X)
        deg_omega = omega_pushforward(X).degree
        if kf2 != ((r - 2) * k - r) * (k - 1) * k ** (r - 3) * a_red:
            bad.append((X, "kf2"))
        if Fraction(((3 * r - 5) * k - 3 * r + 1) * (k - 1) * k ** (r - 3) * a_red, 24) != deg_omega:
            bad.append((X, "deg_omega"))
        if kf2 * ((3 * r - 5) * k - 3 * r + 1) != 24 * ((r - 2) * k - r) * deg_omega:
            bad.append((X, "ratio"))
    ok = not bad
    scoreboard(6, "surface closed forms", ok)
    assert ok, bad[:3]


GRID_SPLITS = {
    3: [(0, 0, 0), (1, 0, -1), (4, 2, -3), (2, 2, 2)],
    4: [(1, 1, 1, 1), (2, 1, 0, -1), (4, -4, 3, 1), (0, 0, -2, -2)],
    5: [(1, 1, 0, 0, -1), (4, 3, 2, 1, 0), (2, -2, 2, -2, 2)],
}
GRID_DEGREES = {
    1: [(2,), (3,), (5,)],
    2: [(2, 2), (2, 5), (3, 4)],
    3: [(2, 2, 2), (2, 3, 4)],
}
GRID_TWISTS = {1: [(1,), (-2,)], 2: [(1, -2), (3, 0)], 3: [(1, -2, 2), (0, 3, -1)]}


def test_criterion_7_oracle_equivalence():
    bad = []
    checked = 0
    for r, splits in GRID_SPLITS.items():
        for degs in splits:
            E = BundleOverCurve.split(degs)
            for c in range(1, r - 1):
                for k in GRID_DEGREES[c]:
                    for y in GRID_TWISTS[c]:
                        checks, mismatches = cross_check(RelativeCI(E, k, y), 12)
                        checked += sum(checks.values())
                        bad += [(degs, k, y, m) for m in mismatches]
    rng = random.Random(707)
    for _ in range(200):
        r = rng.randint(3, 5)
        E = BundleOverCurve.split([rng.randint(-4, 4) for _ in range(r)])
        c = rng.randint(1, r - 2)
        X = RelativeCI(
            E,
            tuple(rng.randint(2, 5) for _ in range(c)),
            tuple(rng.randint(-6, 6) for _ in range(c)),
        )
        h = rng.randint(0, 12)
        checks, mismatches = cross_check(X, h)
        checked += sum(checks.values())
        bad += [(X, m) for m in mismatches]
    ok = not bad
    scoreboard(7, f"oracle equivalence ({checked} checks)", ok)
    assert ok, bad[:3]


def test_criterion_8_twist_invariance_of_canonical_margin():
    rng = random.Random(404)  # same stream as criterion 4
    bad = []
    for _ in range(200):
        X = make_ci(rng, balanced=True, ample_canonical=True)
        h0 = X.k_sum - X.rank
        n = X.dim
        omega = omega_pushforward(X)
        direct = (
            canonical_top_power(X) * omega.rank
            - n * h0 ** (n - 1) * fibre_deg(X) * omega.degree
        )
        twisted = positivity_margin(X, h0)
        if direct != twisted or canonical_margin(X) != twisted:
            bad.append((X, direct, twisted))
    ok = not bad
    scoreboard(8, "twist invariance of the canonical margin", ok)
    assert ok, bad[:3]


def test_criterion_9_cone_structure():
    rng = random.Random(909)
    bad = []
    for _ in range(200):
        E = make_hn_bundle(rng)
        slopes = virtual_slopes(E)
        if sum(slopes) != E.degree:
            bad.append((E, "slope sum"))
        unstable = len(E.hn) >= 2
        for c in range(1, E.rank):
            nef = cone(E, c, ConeLabel.NEF)
            bridge = cone(E, c, ConeLabel.BRIDGE)
            pseff = cone(E, c, ConeLabel.PSEFF)
            if not nef <= bridge <= pseff:
                bad.append((E, c, "nesting"))
            if unstable and not (nef < bridge < pseff):
                bad.append((E, c, "strictness"))
            if not unstable and not (nef == bridge == pseff):
                bad.append((E, c, "coincidence"))
        if cone(E, 1, ConeLabel.NEF) != E.mu_last:
            bad.append((E, "c1 nef"))
        if cone(E, 1, ConeLabel.PSEFF) != E.mu_first:
            bad.append((E, "c1 pseff"))
        k, m = rng.randint(1, 5), rng.randint(-10, 10)
        dp = mn_divisor_test(E, k, m)
        ratio = Fraction(m, k)
        if dp.pseff != (ratio <= E.mu_first) or dp.nef != (ratio <= E.mu_last):
            bad.append((E, "divisor test"))
        c = rng.randint(1, E.rank - 2)
        X = RelativeCI(
            E,
            tuple(rng.randint(2, 6) for _ in range(c)),
            tuple(rng.randint(-10, 10) for _ in range(c)),
        )
        fired = instability_verdict(X).conclusion == "ChowUnstableFibres"
        outside = classify(E, ci_class(X)) in REGIONS_OUTSIDE_BRIDGE
        if fired != outside:
            bad.append((E, X, "instability vs cone"))
    ok = not bad
    scoreboard(9, "cone structure", ok)
    assert ok, bad[:3]


def test_criterion_10_contact_propagation():
    rng = random.Random(1010)
    counterexamples = 0
    draws = 0
    while draws < 1000:
        n = rng.randint(2, 7)
        W = WeightFiltration(
            tuple(Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(n)) + (1,)
        )
        dy, dz = rng.randint(0, n), rng.randint(0, n)
        if dy + dz < n:
            continue
        draws += 1
        made = []
        strict = []
        for dim in (dy, dz):
            deg = rng.randint(1, 8)
            bound = (dim + 1) * deg * W.total / (n + 1)
            s = rng.random() < 0.5
            e = bound - Fraction(rng.randint(1, 20), 7) if s else bound
            made.append(ContactInstance(n, dim, deg, e))
            strict.append(s)
        cut = contact_of_intersection(made[0], made[1], W)
        status = hm_test(cut, W)
        if status is HMStatus.UNSTABLE:
            counterexamples += 1
        if any(strict) and status is not HMStatus.STABLE:
            counterexamples += 1
        if not any(strict) and status is not HMStatus.SEMISTABLE:
            counterexamples += 1
    ok = counterexamples == 0
    scoreboard(10, "contact propagation (1000 draws)", ok)
    assert ok, f"{counterexamples} counterexamples"


def test_criterion_11_deterministic_reports(tmp_path, child_env):
    instance = {
        "bundle": {"rank": 4, "degree": 4, "base_genus": 0, "split": [1, 1, 1, 1]},
        "ci": {"k": [3, 3], "y": [1, 2]},
    }
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    outputs = set()
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "relci.cli", "verdict", "-i", str(path)],
            env=child_env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    ok = len(outputs) == 1
    scoreboard(11, "deterministic verdict reports", ok)
    assert ok
