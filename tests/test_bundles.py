import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from relci import (
    BundleOverCurve,
    ConeLabel,
    CycleClass,
    InputError,
    Region,
    RelativeCI,
    ci_class,
    classify,
    cone,
    mn_divisor_test,
    virtual_slopes,
)
from relci.cli import main
from relci.oracles import chow_expand
from tests.conftest import make_hn_bundle

SPLIT_210 = BundleOverCurve.split((2, 1, 0))


class TestBundleValidation:
    def test_rank_bound(self):
        with pytest.raises(InputError):
            BundleOverCurve(1, 0)

    def test_hn_rank_sum(self):
        with pytest.raises(InputError):
            BundleOverCurve(4, 4, hn=((2, 3), (1, 1)))

    def test_hn_degree_sum(self):
        with pytest.raises(InputError):
            BundleOverCurve(4, 4, hn=((2, 3), (2, 2)))

    def test_hn_strictly_decreasing(self):
        with pytest.raises(InputError):
            BundleOverCurve(4, 4, hn=((2, 2), (2, 2)))
        with pytest.raises(InputError):
            BundleOverCurve(4, 4, hn=((2, 1), (2, 3)))

    # the block sums and strictly decreasing slopes bound the bundle slope by the extremes
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(-20, 20)), min_size=1, max_size=5),
           st.booleans())
    def test_accepted_hn_brackets_the_slope(self, blocks, by_slope):
        if by_slope:
            blocks.sort(key=lambda b: Fraction(b[1], b[0]), reverse=True)
        try:
            bundle = BundleOverCurve(sum(r for r, _ in blocks), sum(d for _, d in blocks), hn=blocks)
        except InputError:
            return
        assert bundle.mu_last <= bundle.slope <= bundle.mu_first

    def test_split_grouping(self):
        assert SPLIT_210.hn == ((1, 2), (1, 1), (1, 0))
        assert BundleOverCurve.split((1, 1, 1, 1)).hn == ((4, 4),)
        assert BundleOverCurve.split((3, 3, 0)).hn == ((2, 6), (1, 0))


class TestLineDegrees:
    def test_split_keeps_input_order(self):
        bundle = BundleOverCurve.split((0, 2, 1, 0))
        assert bundle.line_degrees == (0, 2, 1, 0)
        assert bundle.hn == ((1, 2), (1, 1), (2, 0))

    def test_echo_keeps_input_order(self, tmp_path, capsys):
        path = tmp_path / "split.json"
        path.write_text(json.dumps({"bundle": {"rank": 4, "degree": 3, "split": [0, 2, 1, 0]},
                                    "ci": {"k": [3], "y": [1]}}), encoding="utf-8")
        assert main(["invariants", "-i", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["input"]["bundle"]["split"] == ["0", "2", "1", "0"]

    def test_unsplit_bundles_have_none(self):
        assert BundleOverCurve(4, 4).line_degrees is None
        assert BundleOverCurve(4, 4, hn=((2, 4), (2, 0))).line_degrees is None
        assert BundleOverCurve.semistable(4, 4).line_degrees is None

    def test_disagreeing_degrees_rejected(self):
        with pytest.raises(InputError, match="line degrees disagree"):
            BundleOverCurve(4, 4, 0, ((4, 4),), (2, 1, 1, 0))

    def test_survives_replace(self):
        assert BundleOverCurve.split((1, 1, 1, 1))._replace(base_genus=1) == BundleOverCurve.split(
            (1, 1, 1, 1), 1
        )


class TestVirtualSlopes:
    def test_split_lines(self):
        assert virtual_slopes(SPLIT_210) == (2, 1, 0)

    def test_semistable_block(self):
        assert virtual_slopes(BundleOverCurve.semistable(3, 3)) == (1, 1, 1)

    def test_block_repetition(self):
        E = BundleOverCurve(4, 4, hn=((2, 3), (2, 1)))
        assert virtual_slopes(E) == (
            Fraction(3, 2),
            Fraction(3, 2),
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_missing_hn(self):
        with pytest.raises(InputError):
            virtual_slopes(BundleOverCurve(4, 4))

    def test_sum_is_degree(self, rng):
        for _ in range(100):
            E = make_hn_bundle(rng)
            assert sum(virtual_slopes(E)) == E.degree


class TestCones:
    def test_split_thresholds_c2(self):
        assert cone(SPLIT_210, 2, ConeLabel.PSEFF) == 3
        assert cone(SPLIT_210, 2, ConeLabel.NEF) == 1
        assert cone(SPLIT_210, 2, ConeLabel.BRIDGE) == 2

    def test_semistable_coincide(self):
        E = BundleOverCurve.semistable(5, 7)
        for c in range(1, 5):
            ts = {cone(E, c, lab) for lab in ConeLabel}
            assert ts == {c * Fraction(7, 5)}

    def test_c1_matches_divisor_test(self):
        # codim-1 thresholds are the classical divisor bounds
        assert cone(SPLIT_210, 1, ConeLabel.PSEFF) == SPLIT_210.mu_first == 2
        assert cone(SPLIT_210, 1, ConeLabel.NEF) == SPLIT_210.mu_last == 0

    def test_bridge_without_hn(self):
        E = BundleOverCurve(4, 6)
        assert cone(E, 3, ConeLabel.BRIDGE) == Fraction(9, 2)
        with pytest.raises(InputError):
            cone(E, 3, ConeLabel.NEF)

    def test_codim_range(self):
        with pytest.raises(InputError):
            cone(SPLIT_210, 3, ConeLabel.NEF)

    def test_nested_strict_iff_unstable(self, rng):
        for _ in range(100):
            E = make_hn_bundle(rng)
            for c in range(1, E.rank):
                nef = cone(E, c, ConeLabel.NEF)
                bridge = cone(E, c, ConeLabel.BRIDGE)
                pseff = cone(E, c, ConeLabel.PSEFF)
                assert nef <= bridge <= pseff
                if len(E.hn) >= 2:
                    assert nef < bridge < pseff
                else:
                    assert nef == bridge == pseff


class TestDivisorTest:
    def test_beyond_pseff(self):
        assert mn_divisor_test(SPLIT_210, 2, 5) == (False, False)

    def test_pseff_not_nef(self):
        assert mn_divisor_test(SPLIT_210, 2, 3) == (True, False)

    def test_semistable_boundary(self):
        E = BundleOverCurve.semistable(3, 3)
        assert mn_divisor_test(E, 1, 1) == (True, True)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InputError):
            mn_divisor_test(SPLIT_210, 0, 1)


class TestCiClass:
    def test_symmetric(self):
        X = RelativeCI(BundleOverCurve(4, 0), (2, 2), (1, 1))
        cls = ci_class(X)
        assert (cls.p, cls.q) == (4, -4)

    def test_hypersurface_no_twist(self):
        X = RelativeCI(BundleOverCurve(3, 5), (2,), (0,))
        cls = ci_class(X)
        assert (cls.p, cls.q) == (2, 0)

    def test_vs_symbolic_expansion(self, rng):
        from tests.conftest import make_ci

        X = RelativeCI(BundleOverCurve(4, 4), (3, 3), (1, 2))
        assert (ci_class(X).p, ci_class(X).q) == (9, -9)
        for _ in range(60):
            X = make_ci(rng)
            cls = ci_class(X)
            sym = chow_expand(X).ci_class
            assert (cls.p, cls.q) == (sym.p, sym.q)


class TestClassify:
    def test_nef_boundary(self):
        assert classify(SPLIT_210, CycleClass(2, 4, -4)) is Region.NEF_BOUNDARY

    def test_between_bridge_and_pseff(self):
        assert (
            classify(SPLIT_210, CycleClass(2, 1, Fraction(-5, 2)))
            is Region.INSIDE_PSEFF_OUTSIDE_BRIDGE
        )

    def test_semistable_common_boundary(self):
        E = BundleOverCurve.semistable(3, 3)
        # cones coincide, so the common boundary reports as the innermost
        assert classify(E, CycleClass(2, 1, -2)) is Region.NEF_BOUNDARY

    def test_p_zero_common_ray(self):
        assert classify(SPLIT_210, CycleClass(2, 0, 5)) is Region.NEF_BOUNDARY

    def test_p_negative_rejected(self):
        with pytest.raises(InputError):
            classify(SPLIT_210, CycleClass(2, -1, 0))

    def test_scaling_invariance(self, rng):
        for _ in range(50):
            E = make_hn_bundle(rng)
            c = rng.randint(1, E.rank - 1)
            p = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
            scale = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            a = classify(E, CycleClass(c, p, q))
            b = classify(E, CycleClass(c, p * scale, q * scale))
            assert a is b

    def test_all_regions_reachable(self):
        # thresholds for SPLIT_210 at c=2 are (1, 2, 3)
        expected = {
            Fraction(1, 2): Region.INSIDE_NEF,
            Fraction(1): Region.NEF_BOUNDARY,
            Fraction(3, 2): Region.INSIDE_BRIDGE_OUTSIDE_NEF,
            Fraction(2): Region.BRIDGE_BOUNDARY,
            Fraction(5, 2): Region.INSIDE_PSEFF_OUTSIDE_BRIDGE,
            Fraction(3): Region.PSEFF_BOUNDARY,
            Fraction(7, 2): Region.OUTSIDE_PSEFF,
        }
        for ratio, region in expected.items():
            assert classify(SPLIT_210, CycleClass(2, 1, -ratio)) is region


def chained_region(ratio, nef_t, bridge_t, pseff_t):
    """The seven-way comparison that ``classify`` made before its ordered lookup."""
    if ratio < nef_t:
        return Region.INSIDE_NEF
    if ratio == nef_t:
        return Region.NEF_BOUNDARY
    if ratio < bridge_t:
        return Region.INSIDE_BRIDGE_OUTSIDE_NEF
    if ratio == bridge_t:
        return Region.BRIDGE_BOUNDARY
    if ratio < pseff_t:
        return Region.INSIDE_PSEFF_OUTSIDE_BRIDGE
    if ratio == pseff_t:
        return Region.PSEFF_BOUNDARY
    return Region.OUTSIDE_PSEFF


@st.composite
def classified_classes(draw):
    """A bundle with a profile (half of them semistable), a codimension, its
    thresholds from the virtual slopes, and a ratio that is often one of them."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 5), st.integers(-15, 15)), min_size=1,
                           max_size=4, unique_by=lambda b: Fraction(b[1], b[0])))
    blocks.sort(key=lambda b: Fraction(b[1], b[0]), reverse=True)
    rank, degree = sum(r for r, _ in blocks), sum(d for _, d in blocks)
    assume(rank >= 2)
    E = BundleOverCurve.semistable(rank, degree) if draw(st.booleans()) else BundleOverCurve(
        rank, degree, hn=blocks)
    c = draw(st.integers(1, rank - 1))
    slopes = virtual_slopes(E)
    ts = (sum(slopes[-c:]), c * E.slope, sum(slopes[:c]))
    ratio = draw(st.sampled_from(ts) | st.fractions(-80, 80, max_denominator=12))
    return E, c, ts, ratio


class TestRegionLookup:
    @given(classified_classes(), st.fractions(Fraction(1, 9), 9))
    def test_matches_the_comparison_chain(self, drawn, p):
        E, c, ts, ratio = drawn
        assert classify(E, CycleClass(c, p, -ratio * p)) is chained_region(ratio, *ts)
