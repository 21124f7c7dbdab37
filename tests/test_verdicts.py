from fractions import Fraction

import pytest

from relci import (
    BundleOverCurve,
    InputError,
    InternalCheckError,
    Orientation,
    Region,
    RelativeCI,
    VerdictReport,
    alpha_invariant,
    asymptotic_verdict,
    build_example,
    ci_class,
    classify,
    h_sweep,
    instability_verdict,
    slope_verdict,
    small_h_verdict,
    stable_margin_poly,
)
from relci import verdicts
from relci.bundles import REGIONS_OUTSIDE_BRIDGE
from tests.conftest import make_ci, make_hn_bundle
from tests.oracle_poly import horner

WORKED = RelativeCI(BundleOverCurve.semistable(4, 4), (3, 3), (1, 2))


def plain(r, d, k, y):
    return RelativeCI(BundleOverCurve(r, d), tuple(k), tuple(y))


class TestReportGate:
    def test_conclusion_with_failed_hypothesis_rejected(self):
        with pytest.raises(InternalCheckError):
            VerdictReport("X", {"gate": False}, "SomethingDefinite", {})

    def test_undetermined_allowed(self):
        rep = VerdictReport("X", {"gate": False}, "Undetermined", {})
        assert not rep.hypotheses_ok


class TestSmallH:
    def test_worked(self):
        rep = small_h_verdict(WORKED)
        assert rep.conclusion == "FPositiveAllSmallH"
        assert rep.witnesses["alpha"] == 36
        assert rep.witnesses["margins"] == {1: 36, 2: 360}

    def test_negative(self):
        rep = small_h_verdict(plain(4, 4, (3, 3), (5, 5)))
        assert rep.conclusion == "NotFPositiveSmallH"
        assert rep.witnesses["alpha"] == -48

    def test_alpha_zero_boundary(self):
        X = plain(4, 2, (2, 2), (1, 1))
        assert alpha_invariant(X) == 0
        rep = small_h_verdict(X)
        assert rep.conclusion == "FPositiveAllSmallH"
        assert rep.witnesses["margins"] == {1: 0}


class TestAsymptotic:
    def test_positive(self):
        rep = asymptotic_verdict(WORKED)
        assert rep.conclusion == "StrictlyFPositiveEventually"
        assert rep.witnesses["exact_eventual_sign"] == 1

    def test_negative(self):
        rep = asymptotic_verdict(plain(4, 4, (3, 3), (5, 5)))
        assert rep.conclusion == "NotFPositiveEventually"
        assert rep.witnesses["exact_eventual_sign"] == -1

    def test_boundary_reports_next_coefficient(self):
        X = plain(4, 2, (2, 2), (1, 1))
        rep = asymptotic_verdict(X)
        assert rep.conclusion == "Boundary"
        poly = stable_margin_poly(X)
        assert rep.witnesses["next_coeff"] == (poly[X.dim - 1] if len(poly) == X.dim else 0)

    def test_alpha_rule_can_disagree_with_exact_sign(self):
        # unbalanced instance whose margins end negative although the
        # alpha invariant is strictly positive: the top coefficient of
        # the stable polynomial cancels and the surviving leading term
        # has the opposite sign, which the label follows
        X = plain(4, 1, (2, 5), (-2, 7))
        assert alpha_invariant(X) == 4
        rep = asymptotic_verdict(X)
        assert rep.conclusion == "NotFPositiveEventually"
        assert rep.witnesses["exact_eventual_sign"] == -1
        assert rep.witnesses["stable_leading_coeff"] == -310
        sweep = h_sweep(X, 3)
        h = sweep.sign_stable_from + 1
        from relci import positivity_margin

        assert positivity_margin(X, h) < 0

    def test_label_follows_exact_sign_on_unbalanced_draws(self, rng):
        from relci import positivity_margin

        labels = {1: "StrictlyFPositiveEventually", -1: "NotFPositiveEventually", 0: "Boundary"}
        unbalanced = alpha_misreads = 0
        for _ in range(300):
            X = make_ci(rng)
            if X.balanced:
                continue
            unbalanced += 1
            rep = asymptotic_verdict(X)
            sign = rep.witnesses["exact_eventual_sign"]
            assert rep.conclusion == labels[sign]
            # the stable polynomial is an identity past k_sum - r, so
            # the margins beyond its root bound carry the same sign
            h = h_sweep(X, 1).sign_stable_from + 1
            m = positivity_margin(X, h)
            assert (m > 0) - (m < 0) == sign
            a = rep.witnesses["alpha"]
            alpha_misreads += (a > 0) - (a < 0) != sign
        assert unbalanced >= 100
        assert alpha_misreads  # the draws include cases the alpha rule gets wrong

    def test_stable_poly_degree_bound(self, rng):
        # the naive top degree dim X always cancels exactly
        for _ in range(100):
            X = make_ci(rng)
            assert len(stable_margin_poly(X)) <= X.dim


class TestSlope:
    def test_worked(self):
        rep = slope_verdict(WORKED)
        assert rep.conclusion == "SlopeHolds"
        assert rep.witnesses["kf_top"] == 144
        assert rep.witnesses["margin"] == 360

    def test_fails(self):
        rep = slope_verdict(plain(4, 4, (3, 3), (4, 4)))
        assert rep.conclusion == "SlopeFails"
        assert rep.witnesses["kf_top"] == -96

    def test_gate_ck_le_r(self):
        rep = slope_verdict(plain(5, 3, (3,), (0,)))
        assert rep.conclusion == "Undetermined"
        assert rep.witnesses["failed"] == ("canonical_relatively_ample",)

    def test_gate_unbalanced(self):
        rep = slope_verdict(plain(4, 3, (2, 3), (0, 0)))
        assert rep.conclusion == "Undetermined"
        assert "balanced" in rep.witnesses["failed"]

    def test_three_predicates_agree(self, rng):
        for _ in range(150):
            X = make_ci(rng, balanced=True, ample_canonical=True)
            rep = slope_verdict(X)  # raises InternalCheckError on divergence
            assert rep.conclusion in ("SlopeHolds", "SlopeFails")


class TestInstability:
    def test_all_flags(self):
        rep = instability_verdict(plain(4, 4, (3, 3), (5, 5)))
        assert rep.conclusion == "ChowUnstableFibres"
        assert rep.witnesses["unstable_small_h"]
        assert rep.witnesses["unstable_large_h"]
        assert rep.witnesses["unstable_dualizing"]

    def test_no_conclusion_when_alpha_nonnegative(self):
        assert instability_verdict(WORKED).conclusion == "NoConclusion"

    def test_unbalanced_skips_dualizing_flag(self):
        X = plain(4, 1, (2, 3), (4, 4))
        assert X.ratio_sum > X.codim * X.bundle.slope
        rep = instability_verdict(X)
        assert rep.conclusion == "ChowUnstableFibres"
        assert not rep.witnesses["unstable_dualizing"]

    def test_fires_iff_strictly_outside_bridge(self, rng):
        for _ in range(150):
            E = make_hn_bundle(rng)
            c = rng.randint(1, E.rank - 2)
            X = RelativeCI(
                E,
                tuple(rng.randint(2, 6) for _ in range(c)),
                tuple(rng.randint(-10, 10) for _ in range(c)),
            )
            fired = instability_verdict(X).conclusion == "ChowUnstableFibres"
            region = classify(E, ci_class(X))
            assert fired == (region in REGIONS_OUTSIDE_BRIDGE)

    def test_large_h_flag_follows_exact_sign(self, rng):
        # the excess settles the small-twist band only: on unbalanced
        # data the margins can still end positive, as on this instance
        # (negative up to h = 12, positive from h = 13 on)
        X = RelativeCI(BundleOverCurve.semistable(12, 6), (5, 3), (-4, 7))
        rep = instability_verdict(X)
        assert rep.conclusion == "ChowUnstableFibres"
        assert rep.witnesses["unstable_large_h"] is False
        excess = ends_nonnegative = 0
        for _ in range(300):
            X = make_ci(rng)
            rep = instability_verdict(X)
            if X.balanced or rep.conclusion != "ChowUnstableFibres":
                continue
            excess += 1
            sign = asymptotic_verdict(X).witnesses["exact_eventual_sign"]
            assert rep.witnesses["unstable_large_h"] == (sign == -1)
            ends_nonnegative += sign != -1
        assert excess >= 50
        assert ends_nonnegative  # the draws include cases the excess gets wrong


class TestBuildExample:
    def test_as_written_fails_effectivity(self):
        X, rep = build_example(1, 4, 2, 2, Orientation.AS_WRITTEN)
        assert X.k == (6, 6) and X.y == (10, 10)
        flags = dict(rep.hypotheses)
        assert not flags["effective"]
        assert rep.conclusion == "Undetermined"

    def test_swapped_fails_instability(self):
        X, rep = build_example(1, 4, 2, 2, "swapped")
        assert X.k == (10, 10) and X.y == (6, 6)
        flags = dict(rep.hypotheses)
        assert flags["effective"] and flags["base_locus_on_section"]
        assert not flags["instability_excess"]
        assert rep.witnesses["ratio"] == Fraction(3, 5)

    def test_small_swapped_case(self):
        X, rep = build_example(1, 3, 1, 1, Orientation.SWAPPED)
        assert X.k == (4,) and X.y == (2,)
        assert X.bundle.slope == Fraction(2, 3)
        flags = dict(rep.hypotheses)
        assert flags["effective"] and flags["base_locus_on_section"]
        assert not flags["instability_excess"]

    def test_bundle_profile(self):
        X, _ = build_example(2, 5, 3, 1, Orientation.AS_WRITTEN)
        assert X.bundle.degree == 9
        assert X.bundle.hn == ((4, 8), (1, 1))

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            build_example(0, 4, 2, 1, Orientation.SWAPPED)
        with pytest.raises(InputError):
            build_example(1, 4, 3, 1, Orientation.SWAPPED)
        with pytest.raises(InputError, match="^family needs rank >= 3$"):
            build_example(1, 2, 1, 1, Orientation.SWAPPED)


class TestSweep:
    def test_signs_match_alpha_in_both_regimes_balanced(self, rng):
        for _ in range(60):
            X = make_ci(rng, balanced=True)
            a = alpha_invariant(X)
            sweep = h_sweep(X, min(X.k) - 1) if min(X.k) > 1 else None
            want = (a > 0) - (a < 0)
            full = h_sweep(X, X.k_sum)
            assert full.eventual_sign == want
            for m in full.margins[: min(X.k) - 1]:
                assert (m > 0) - (m < 0) == want

    def test_c1_sign_constant_everywhere(self, rng):
        for _ in range(60):
            r = rng.randint(3, 8)
            X = plain(r, rng.randint(-10, 10), (rng.randint(2, 6),), (rng.randint(-10, 10),))
            a = alpha_invariant(X)
            want = (a > 0) - (a < 0)
            sweep = h_sweep(X, 3 * X.k[0] + r)
            assert all((m > 0) - (m < 0) == want for m in sweep.margins)
            assert sweep.eventual_sign == want

    def test_sign_constant_beyond_bound(self, rng):
        for _ in range(40):
            X = make_ci(rng)
            sweep = h_sweep(X, 1)
            from relci import positivity_margin

            for h in range(sweep.sign_stable_from + 1, sweep.sign_stable_from + 8):
                m = positivity_margin(X, h)
                assert (m > 0) - (m < 0) == sweep.eventual_sign

    # the polynomial stands in for the stable one of an instance with k_sum = 2, and
    # its value at h = 1 for the run's one margin there (dim X = 2), which h_sweep
    # holds to the polynomial
    @pytest.mark.parametrize("coeffs, bound", [
        ((-540, 324), 3),  # Cauchy bound 1 + 540/324, rounded up
        ((0, -10, 1), 11),  # roots 0 and 10, bound 1 + 10
        ((7,), 2),  # constant and zero: k_sum alone
        ((), 2),
    ], ids=["linear", "quadratic", "constant", "zero"])
    def test_sign_stable_bound(self, monkeypatch, coeffs, bound):
        poly = tuple(map(Fraction, coeffs))
        monkeypatch.setattr(verdicts, "stable_margin_poly", lambda X: poly)
        monkeypatch.setattr(verdicts, "positivity_margins", lambda X, h_max: (int(horner(poly, 1)),))
        sweep = h_sweep(plain(3, 0, (2,), (0,)), 1)
        assert (sweep.stable_poly, sweep.sign_stable_from) == (poly, bound)
        for x in range(bound + 1, bound + 50):
            value = horner(poly, x)
            assert (value > 0) - (value < 0) == sweep.eventual_sign

    def test_h_max_validated(self):
        with pytest.raises(InputError):
            h_sweep(WORKED, 0)
