from fractions import Fraction

import pytest

from relci import (
    BundleOverCurve,
    ChowClass,
    InputError,
    RelativeCI,
    canonical_top_power,
    chow_expand,
    ci_class,
    cross_check,
    fibre_deg,
    h_top,
    hilbert_series_rank,
    koszul_degree_bruteforce,
    pushforward,
    sym_degree_bruteforce,
)
from relci.exact import binom_trunc


def closed_sym_degree(bundle, a, twist):
    r, d = bundle.rank, bundle.degree
    return Fraction(binom_trunc(a + r - 1, r - 1) * (a * d - twist * r), r)


class TestSymDegree:
    def test_two_lines(self):
        S = BundleOverCurve.split((1, 0))
        assert sym_degree_bruteforce(S, 2, 0) == 3 == closed_sym_degree(S, 2, 0)

    def test_sym_zero(self):
        S = BundleOverCurve.split((2, 1, 0))
        assert sym_degree_bruteforce(S, 0, 5) == -5

    def test_twisted(self):
        S = BundleOverCurve.split((2, 1, 0))
        assert sym_degree_bruteforce(S, 1, 1) == 0 == closed_sym_degree(S, 1, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(InputError):
            sym_degree_bruteforce(BundleOverCurve.split((1, 0)), -1, 0)

    def test_matches_closed_form(self, rng):
        for _ in range(60):
            r = rng.randint(2, 5)
            S = BundleOverCurve.split(tuple(rng.randint(-4, 4) for _ in range(r)))
            a = rng.randint(0, 9)
            twist = rng.randint(-4, 4)
            assert sym_degree_bruteforce(S, a, twist) == closed_sym_degree(S, a, twist)


class TestKoszulDegree:
    def test_single_term_below_min_degree(self):
        S = BundleOverCurve.split((2, 1, 0, -1))
        X = RelativeCI(S, (3, 4), (1, -2))
        for h in range(0, 3):
            assert koszul_degree_bruteforce(X, h) == sym_degree_bruteforce(S, h, 0)

    def test_worked_instance(self):
        X = RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))
        assert koszul_degree_bruteforce(X, 2) == 20 == pushforward(X, 2).degree

    def test_h_zero(self):
        X = RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))
        assert koszul_degree_bruteforce(X, 0) == 0

    def test_unsplit_bundle_rejected(self):
        X = RelativeCI(BundleOverCurve(4, 5), (3, 3), (1, 2))
        with pytest.raises(InputError, match="split bundle"):
            koszul_degree_bruteforce(X, 2)

    def test_matches_degree_formula(self, rng):
        for _ in range(40):
            r = rng.randint(3, 5)
            S = BundleOverCurve.split(tuple(rng.randint(-4, 4) for _ in range(r)))
            c = rng.randint(1, r - 2)
            X = RelativeCI(
                S,
                tuple(rng.randint(2, 5) for _ in range(c)),
                tuple(rng.randint(-6, 6) for _ in range(c)),
            )
            for h in range(0, 11):
                assert koszul_degree_bruteforce(X, h) == pushforward(X, h).degree


class TestHilbertSeries:
    def test_conic(self):
        assert hilbert_series_rank((2,), 3, 1) == 3

    def test_quartic_curve(self):
        assert hilbert_series_rank((2, 2), 4, 2) == 8

    def test_constant_term(self):
        assert hilbert_series_rank((3, 3), 4, 0) == 1

    def test_matches_rank_formula(self, rng):
        from tests.conftest import make_ci

        for _ in range(60):
            X = make_ci(rng)
            for h in range(0, X.k_sum + X.rank + 1):
                assert hilbert_series_rank(X.k, X.rank, h) == pushforward(X, h).rank


class TestChowExpand:
    def test_worked_instance(self):
        X = RelativeCI(BundleOverCurve(4, 4), (3, 3), (1, 2))
        s = chow_expand(X)
        assert (s.h_top, s.fibre_deg, s.kf_top) == (27, 9, 144)
        assert (s.ci_class.p, s.ci_class.q) == (9, -9)

    def test_hypersurface(self):
        X = RelativeCI(BundleOverCurve(4, 3), (5,), (2,))
        s = chow_expand(X)
        assert s.h_top == 5 * 3 - 2
        assert (s.ci_class.p, s.ci_class.q) == (5, -2)

    def test_no_twists(self):
        X = RelativeCI(BundleOverCurve(5, 7), (2, 3), (0, 0))
        s = chow_expand(X)
        assert s.h_top == 6 * 7
        assert (s.ci_class.p, s.ci_class.q) == (6, 0)

    def test_degrees_start_at_1(self):
        with pytest.raises(InputError, match="^graded pieces start in degree 1$"):
            ChowClass(0, 1, 0)
        with pytest.raises(InputError, match="^powers start at 1$"):
            ChowClass(1, 1, 0) ** 0

    def test_matches_closed_forms(self, rng):
        from tests.conftest import make_ci

        for _ in range(100):
            X = make_ci(rng)
            s = chow_expand(X)
            assert s.h_top == h_top(X)
            assert s.fibre_deg == fibre_deg(X)
            assert s.kf_top == canonical_top_power(X)
            cls = ci_class(X)
            assert (s.ci_class.p, s.ci_class.q) == (cls.p, cls.q)


class TestCrossCheck:
    def test_negative_h_max_rejected(self):
        # h_max = -1 would run the Chow suite alone and leave three suites at 0 comparisons
        X = RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))
        with pytest.raises(InputError, match="h_max must be >= 0, got -1"):
            cross_check(X, -1)
        checks, mismatches = cross_check(X, 0)
        assert mismatches == []
        assert checks == {"sym_closed_form": 7, "koszul_vs_degree": 1, "hilbert_vs_rank": 1,
                          "chow_vs_closed_forms": 5}
