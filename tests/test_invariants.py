import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from perfbench.reference import Instance, Reference
from relci import (
    BundleOverCurve,
    ConeLabel,
    CycleClass,
    HypothesisError,
    InputError,
    InternalCheckError,
    PushforwardSummary,
    RelativeCI,
    alpha_invariant,
    canonical_class,
    canonical_margin,
    canonical_top_power,
    classify,
    cone,
    effectivity_violations,
    fibre_deg,
    h_top,
    hilbert_series_rank,
    koszul_degree_bruteforce,
    mn_divisor_test,
    omega_pushforward,
    positivity_margin,
    positivity_margins,
    pushforward,
    signed_subset_tables,
    stable_margin_poly,
    surface_formula_check,
    sym_degree_bruteforce,
)
from relci import invariants
from relci.exact import binom_trunc
from tests.conftest import make_ci
from tests.oracle_poly import balanced_margin, per_level_koszul, two_list_runs, two_pass_moments

WORKED = RelativeCI(BundleOverCurve.semistable(4, 4), (3, 3), (1, 2))


def plain(r, d, k, y):
    return RelativeCI(BundleOverCurve(r, d), tuple(k), tuple(y))


class TestValidation:
    def test_codim_range(self):
        with pytest.raises(InputError):
            plain(3, 5, (2, 2), (0, 0))

    def test_degree_floor(self):
        with pytest.raises(InputError):
            plain(4, 5, (1, 2), (0, 0))

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            plain(4, 5, (2, 2), (0,))


class TestTopIntersections:
    def test_h_top_conic(self):
        assert h_top(plain(3, 5, (2,), (0,))) == 10

    def test_h_top_worked(self):
        assert h_top(WORKED) == 27

    def test_h_top_mixed(self):
        assert h_top(plain(5, 5, (2, 3), (1, 2))) == 23

    def test_fibre_deg(self):
        assert fibre_deg(plain(3, 5, (2,), (0,))) == 2
        assert fibre_deg(WORKED) == 9
        assert fibre_deg(plain(6, 1, (2, 3, 4), (0, 0, 0))) == 24


class TestPushforward:
    def test_rank_conic(self):
        assert pushforward(plain(3, 5, (2,), (0,)), 1).rank == 3

    def test_rank_quartic_curve(self):
        assert pushforward(plain(4, 0, (2, 2), (0, 0)), 2).rank == 8

    def test_rank_worked(self):
        assert pushforward(WORKED, 2).rank == 10

    def test_rank_h_zero(self):
        assert pushforward(WORKED, 0).rank == 1

    def test_deg_bundle_itself(self):
        assert pushforward(plain(3, 5, (2,), (0,)), 1).degree == 5

    def test_deg_worked(self):
        assert pushforward(WORKED, 1).degree == 4
        assert pushforward(WORKED, 2).degree == 20

    def test_deg_h_zero(self):
        assert pushforward(WORKED, 0).degree == 0

    def test_negative_h_rejected(self):
        with pytest.raises(InputError):
            pushforward(WORKED, -1)

    def test_deg_always_integral(self, rng):
        # the /r in the degree formula must cancel for arbitrary data
        for _ in range(200):
            X = make_ci(rng)
            for h in range(0, X.k_sum + 3):
                pushforward(X, h)  # raises InternalCheckError on failure


class TestMargin:
    def test_conic_margin(self):
        assert positivity_margin(plain(3, 5, (2,), (0,)), 1) == 10

    def test_worked_margins(self):
        assert positivity_margin(WORKED, 1) == 36
        assert positivity_margin(WORKED, 2) == 360

    def test_h_zero_rejected(self):
        with pytest.raises(InputError):
            positivity_margin(WORKED, 0)

    def test_small_h_band_proportional_to_alpha(self, rng):
        # inside 1 <= h < min(k) the cleared margin is exactly
        # h^(n-1) * (h/r) * binom(h+r-1, r-1) * alpha
        for _ in range(200):
            X = make_ci(rng)
            a = alpha_invariant(X)
            r, n = X.rank, X.dim
            for h in range(1, min(X.k)):
                want = h ** (n - 1) * Fraction(h, r) * binom_trunc(h + r - 1, r - 1) * a
                assert positivity_margin(X, h) == want


@st.composite
def gapped_instances(draw):
    """Hypersurfaces, repeated degrees and mixed degrees, whose tables have empty levels."""
    r = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["hypersurface", "repeated", "mixed"]))
    if kind == "hypersurface":
        k = (draw(st.integers(2, 40)),)
    elif kind == "repeated":
        k = (draw(st.integers(2, 9)),) * draw(st.integers(1, r - 2))
    else:
        k = tuple(draw(st.lists(st.integers(2, 12), min_size=1, max_size=r - 2)))
    y = tuple(draw(st.lists(st.integers(-10, 10), min_size=len(k), max_size=len(k))))
    return plain(r, draw(st.integers(-10, 10)), k, y)


class TestLoneSum:
    """A lone twist's Koszul sum steps its binomial through each run of nonzero levels."""

    @given(gapped_instances())
    @example(plain(5, 7, (30,), (4,)))  # levels 1..29 empty
    @example(plain(8, -3, (4, 4, 4), (1, -2, 5)))  # three levels in four empty
    @example(plain(12, 5, (2, 7, 7, 11), (3, 0, -1, 9)))  # runs of mixed lengths
    def test_equals_one_binomial_per_level(self, X):
        # every twist up to past the top level, those inside a run of empty levels too
        for h in range(X.k_sum + 4):
            assert pushforward(X, h) == per_level_koszul(X, h)

    # one binomial per run of nonzero levels, not per level: rungs L and M at their
    # h_max, and the rank-200 corners at twists near 10,000 (ROADMAP item 19)
    @pytest.mark.parametrize("r, k, y, h, runs", [
        (80, tuple(range(2, 42)), tuple(range(-20, 20)), 100, 2),
        (30, tuple(range(2, 22)), tuple(range(-10, 10)), 400, 3),
        (200, (10000,), (1,), 10000, 2),
        (200, (100,) * 100, tuple(range(100)), 10000, 101),
        (200, (50,) * 198, (1,) * 198, 9999, 199),
        (200, tuple(2 + i * 37 % 97 for i in range(198)), tuple(range(-99, 99)), 9999, 3),
    ], ids=["L", "M", "k10000", "k100x100", "k50x198", "mixed198"])
    def test_binomials_per_run_of_levels(self, monkeypatch, r, k, y, h, runs):
        X = plain(r, 17, k, y)
        assert X.k_sum <= 10000
        cnt, val = X.tables
        nonzero = [bool(c or v) for c, v in zip(cnt[: h + 1], val[: h + 1])]
        assert sum(a and not b for a, b in zip(nonzero, [False, *nonzero])) == runs
        calls = []
        monkeypatch.setattr(invariants, "binom_trunc", lambda n, m: calls.append(n) or binom_trunc(n, m))
        assert invariants._koszul_sum(X, h) == per_level_koszul(X, h)  # the oracle's calls go uncounted
        assert len(calls) == runs


class TestMarginRuns:
    """A run of twists equals the direct Koszul sums twist by twist."""

    @staticmethod
    def assert_run_matches_direct(r, d, k, y, h_max):
        run = positivity_margins(plain(r, d, k, y), h_max)
        assert run == tuple(positivity_margin(plain(r, d, k, y), h) for h in range(1, h_max + 1))
        # a run checks its own rank and degree at its last twist, which its
        # margins alone miss when h_top is 0; so end one run at every twist
        for h in range(1, h_max):
            assert positivity_margins(plain(r, d, k, y), h) == run[:h]

    @pytest.mark.parametrize("r, d, k, y, h_max", [
        (4, 4, (3, 3), (1, 2), 40),
        (30, 17, tuple(range(2, 22)), tuple(range(-10, 10)), 400),
        (80, 17, tuple(range(2, 42)), tuple(range(-20, 20)), 100),
    ], ids=["W", "M", "L"])
    def test_rungs(self, r, d, k, y, h_max):
        self.assert_run_matches_direct(r, d, k, y, h_max)

    def test_draws(self):
        rng = random.Random(1111)
        kinds = Counter()
        for _ in range(300):
            X = make_ci(rng, balanced=rng.random() < 0.3)
            k_sum = X.k_sum
            # past the window, the n + 1 twists from max(1, k_sum - r + 1) on, E is continued
            window_end = max(1, k_sum - X.rank + 1) + X.dim
            h_max = rng.choice([rng.randint(1, k_sum - 1), k_sum, k_sum + rng.randint(1, 10),
                                rng.randint(window_end + 1, window_end + 300)])
            kinds.update(hypersurface=X.codim == 1, balanced=X.balanced, short=k_sum < X.rank,
                         below=h_max < k_sum, at=h_max == k_sum, above=h_max > k_sum,
                         tail=h_max > window_end)
            self.assert_run_matches_direct(X.rank, X.degree, X.k, X.y, h_max)
        assert min(kinds[kind] for kind in
                   ("hypersurface", "balanced", "short", "below", "at", "above", "tail")) >= 30

    @pytest.mark.parametrize("r, d, k, y, h_max", [
        (4, 4, (3, 3), (1, 2), 5000),
        (200, 17, (2,), (3,), 10_000),
    ], ids=["W", "r200_k2"])
    def test_tail_at_sampled_twists(self, r, d, k, y, h_max):
        run = positivity_margins(plain(r, d, k, y), h_max)
        assert len(run) == h_max
        twists = random.Random(h_max).sample(range(1, h_max + 1), 40) + [h_max - 1]
        for h in twists:
            assert run[h - 1] == positivity_margin(plain(r, d, k, y), h)

    @given(st.integers(2, 200),
           st.lists(st.tuples(st.integers(2, 30), st.integers(-10**40, 10**40)), min_size=1, max_size=6),
           st.integers(-60, 60))
    @example(200, [(2, 10**40)], 60)
    @example(200, [(2, -(10**40)), (3, 10**40), (5, -(10**40))], -9)
    @example(3, [(30, 10**40)] * 6, 0)
    def test_packed_band_equals_two_lists(self, r, items, past):
        # the band's packed running sums split back exactly at the packing width,
        # for bands that end before, at and after k_sum
        k, y = zip(*items)
        cnt, val = signed_subset_tables(k, y)
        length = max(1, sum(k) + past + 1)
        assert invariants._runs(tuple(cnt), tuple(val), r, length) == two_list_runs(cnt, val, r, length)

    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-10**40, 10**40), min_size=n, max_size=n),
        st.lists(st.integers(-10**40, 10**40), min_size=n, max_size=n),
    )), st.integers(1, 200), st.integers(1, 60))
    @example(([0], [3]), 2, 3)  # |w| = 3 * C(3, 1) = 9 >= 2^(bitlen(3) + bitlen(3) - 1)
    @example(([0], [-3]), 2, 3)
    @example(([10**40] * 30, [(-1) ** s * 10**40 for s in range(30)]), 200, 60)
    def test_packed_band_at_its_width(self, tables, r, length):
        # the width bounds sum|val| * C(length + r - 2, r - 1), which a table
        # whose weight sits at t^0 reaches at the band's end
        cnt, val = tables
        assert invariants._runs(tuple(cnt), tuple(val), r, length) == two_list_runs(cnt, val, r, length)

    def test_keeps_memoised_twists(self):
        X = plain(5, 3, (2, 3), (1, -1))
        before = [pushforward(X, h) for h in (0, 4, 9)]
        positivity_margins(X, 9)
        assert all(pushforward(X, h) is pf for h, pf in zip((0, 4, 9), before))

    @staticmethod
    def count_sums(monkeypatch):
        """Twists that reach the direct Koszul sum from here on, in call order."""
        direct, seen = invariants._koszul_sum, []

        def counted(X, h):
            seen.append(h)
            return direct(X, h)

        monkeypatch.setattr(invariants, "_koszul_sum", counted)
        return seen

    # each run is built afresh and held to the direct sum at its own last twist
    @pytest.mark.parametrize("first, second, sums", [(60, 25, [60, 25]), (25, 60, [25, 60])],
                             ids=["shorter_after_longer", "longer_after_shorter"])
    def test_second_run(self, monkeypatch, first, second, sums):
        r, d, k, y = 30, 17, tuple(range(2, 22)), tuple(range(-10, 10))
        direct = invariants._koszul_sum
        X = plain(r, d, k, y)
        seen = self.count_sums(monkeypatch)
        positivity_margins(X, first)
        run = positivity_margins(X, second)
        assert seen == sums
        pushforwards = [pushforward(X, h) for h in range(max(first, second) + 1)]
        assert run == tuple(positivity_margin(plain(r, d, k, y), h) for h in range(1, second + 1))
        assert pushforwards == [direct(plain(r, d, k, y), h) for h in range(max(first, second) + 1)]

    def test_rejects_nonpositive_h_max(self):
        with pytest.raises(InputError):
            positivity_margins(WORKED, 0)

    def test_run_keeps_nothing(self):
        X = plain(4, 4, (3, 3), (1, 2))
        positivity_margins(X, 5000)
        assert list(X._memo) == [5000]

    def test_wrong_memoised_last_twist_is_caught(self):
        X = plain(4, 4, (3, 3), (1, 2))
        pf = pushforward(X, 6)
        X._memo[6] = PushforwardSummary(6, pf.rank, pf.degree + 1)
        with pytest.raises(InternalCheckError, match=r"at h=6: "):
            positivity_margins(X, 6)


class TestSharedInstance:
    # the memo of one instance is filled by whichever thread gets there
    # first; every value must still be the one a fresh instance gives
    MIXES = [
        [(positivity_margins, 60), (pushforward, 30), (pushforward, 61), (stable_margin_poly,)],
        [(positivity_margins, 25), (positivity_margins, 60), (canonical_margin,)],
        [(pushforward, 200), (positivity_margins, 200), (pushforward, 25)],
        [(stable_margin_poly,), (positivity_margins, 120), (pushforward, 60)],
        [(canonical_margin,), (pushforward, 0), (positivity_margins, 25)],
        [(positivity_margins, 200), (stable_margin_poly,), (pushforward, 120)],
        [(pushforward, 60), (canonical_margin,), (positivity_margins, 61)],
        [(positivity_margins, 120), (pushforward, 200), (pushforward, 250), (stable_margin_poly,)],
    ]

    def test_eight_threads_on_one_instance(self):
        r, d, k, y = 30, 17, tuple(range(2, 22)), tuple(range(-10, 10))
        expected = [[f(plain(r, d, k, y), *args) for f, *args in mix] for mix in self.MIXES]
        X, start = plain(r, d, k, y), threading.Barrier(len(self.MIXES))

        def calls(mix):
            start.wait()
            return [f(X, *args) for _ in range(3) for f, *args in mix]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that the calls interleave
        try:
            with ThreadPoolExecutor(max_workers=len(self.MIXES)) as pool:
                got = list(pool.map(calls, self.MIXES))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want * 3 for want in expected]


class TestStablePoly:
    def test_top_degree_survivor_is_caught(self, monkeypatch):
        # a wrong h_top breaks the cancellation between rank and degree
        h_top_real = invariants.h_top
        monkeypatch.setattr(invariants, "h_top", lambda X: h_top_real(X) + 1)
        X = RelativeCI(BundleOverCurve.semistable(4, 4), (3, 3), (1, 2))  # fresh memo
        with pytest.raises(InternalCheckError, match="stable margin polynomial"):
            stable_margin_poly(X)

    @pytest.mark.parametrize("table", [0, 1], ids=["cnt", "val"])
    def test_low_moment_survivor_is_caught(self, monkeypatch, table):
        # cnt = prod (1 - t^k_i) vanishes to order c at t = 1 and val to
        # order c - 1; one changed entry breaks that
        tables_real = invariants.signed_subset_tables

        def bumped(k, y):
            tables = tables_real(k, y)
            tables[table][2] += 1
            return tables

        monkeypatch.setattr(invariants, "signed_subset_tables", bumped)
        X = RelativeCI(BundleOverCurve.semistable(4, 4), (3, 3), (1, 2))  # fresh tables
        with pytest.raises(InternalCheckError, match="moments below order c = 2"):
            stable_margin_poly(X)

    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-10**60, 10**60), min_size=n, max_size=n),
        st.lists(st.integers(-10**60, 10**60), min_size=n, max_size=n),
    )), st.integers(1, 40))
    @example(([10**60] * 30, [10**60] * 30), 40)
    @example(([-(10**60)] * 30, [(-1) ** s * 10**60 for s in range(30)]), 31)
    @settings(phases=[phase for phase in Phase if phase is not Phase.shrink])
    def test_one_packed_pass_equals_two_passes(self, tables, count):
        # the packed moments split back exactly, whatever the entries:
        # the packing width is sized from the val table it is given.  No
        # shrinking: on 60-digit entries it takes minutes once _moments is wrong
        cnt, val = tables
        assert invariants._moments(tuple(cnt), tuple(val), count) == two_pass_moments(cnt, val, count)

    @pytest.mark.parametrize("r, d, k, y", [
        (4, 4, (3, 3), (1, 2)),
        (30, 17, tuple(range(2, 22)), tuple(range(-10, 10))),
        (80, 17, tuple(range(2, 42)), tuple(range(-20, 20))),
        (12, 6, (5, 3), (-4, 7)),
        (10, 3, (2,), (5,)),
    ], ids=["W", "M", "L", "eventual_sign", "short_table"])
    def test_closed_form_matches_sampled(self, r, d, k, y):
        # the spec's polynomial: forward differences of its own sampled margins
        assert stable_margin_poly(plain(r, d, k, y)) == tuple(Reference(Instance(r, d, k, y)).poly)

    def test_closed_form_matches_sampled_on_draws(self):
        rng = random.Random(909)
        kinds = Counter()
        for _ in range(300):
            r = rng.randint(3, 14)
            c = rng.choice([1, rng.randint(1, r - 2)])
            k = (rng.randint(2, 6),) * c if rng.random() < 0.3 else tuple(
                rng.randint(2, 6) for _ in range(c))
            y = tuple(rng.randint(-10, 10) for _ in range(c))
            X = plain(r, rng.randint(-10, 10), k, y)
            kinds.update(hypersurface=c == 1, balanced=X.balanced, short=X.k_sum < r)
            assert stable_margin_poly(X) == tuple(Reference(Instance(r, X.degree, k, y)).poly)
        assert min(kinds[kind] for kind in ("hypersurface", "balanced", "short")) >= 30


class TestAlpha:
    def test_worked(self):
        assert alpha_invariant(WORKED) == 36

    def test_no_twist(self):
        assert alpha_invariant(plain(3, 5, (2,), (0,))) == 10

    def test_balanced_factorisation(self, rng):
        for _ in range(100):
            X = make_ci(rng, balanced=True)
            k, c = X.k[0], X.codim
            assert alpha_invariant(X) == k ** (c - 1) * (
                c * X.degree * k - X.rank * X.y_sum
            )

    def test_sign_tracks_slope_comparison(self, rng):
        for _ in range(100):
            X = make_ci(rng)
            a = alpha_invariant(X)
            diff = X.codim * X.bundle.slope - X.ratio_sum
            assert (a > 0) == (diff > 0) and (a == 0) == (diff == 0)


class TestCanonical:
    def test_worked_coeffs(self):
        kc = canonical_class(WORKED)
        assert (kc.h_coeff, kc.fibre_coeff) == (2, -1)
        assert kc.general_type_fibres

    def test_vertical_canonical(self):
        kc = canonical_class(plain(5, 2, (2, 3), (1, 1)))
        assert (kc.h_coeff, kc.fibre_coeff) == (0, 0)
        assert not kc.general_type_fibres

    def test_quartic_plane(self):
        kc = canonical_class(plain(3, 0, (4,), (0,)))
        assert (kc.h_coeff, kc.fibre_coeff) == (1, 0)

    def test_top_power_worked(self):
        assert canonical_top_power(WORKED) == 144

    def test_top_power_vanishes_for_vertical(self):
        assert canonical_top_power(plain(5, 2, (2, 3), (1, 1))) == 0

    def test_balanced_closed_form(self, rng):
        for _ in range(100):
            X = make_ci(rng, balanced=True, ample_canonical=True)
            k, c, n = X.k[0], X.codim, X.dim
            assert canonical_top_power(X) == (c * k - X.rank) ** (n - 1) * (
                k - 1
            ) * alpha_invariant(X)


class TestOmegaAndSlope:
    def test_worked_omega(self):
        pf = omega_pushforward(WORKED)
        assert (pf.h, pf.rank, pf.degree) == (2, 10, 30)

    def test_worked_margin(self):
        assert canonical_margin(WORKED) == 360
        # direct recomputation of the canonical-side margin
        assert 144 * 10 - 2 * (2 * 9) * 30 == 360

    def test_refuses_non_ample(self):
        with pytest.raises(HypothesisError):
            canonical_margin(plain(5, 2, (2, 2), (0, 0)))
        with pytest.raises(HypothesisError):
            omega_pushforward(plain(6, 2, (2, 2), (0, 0)))

    def test_twist_invariance(self, rng):
        # canonical-side and plain-margin computations agree exactly
        for _ in range(150):
            X = make_ci(rng)
            if X.k_sum <= X.rank:
                continue
            h0 = X.k_sum - X.rank
            rep = canonical_margin(X)
            n = X.dim
            omega = omega_pushforward(X)
            direct = (
                canonical_top_power(X) * omega.rank
                - n * h0 ** (n - 1) * fibre_deg(X) * omega.degree
            )
            assert direct == rep == positivity_margin(X, h0)

    def test_boundary_margin_zero(self):
        # balanced with mu exactly y_sum/(c*k): margin vanishes
        X = plain(4, 2, (3, 3), (1, 2))  # mu = 1/2 = 3/6
        assert alpha_invariant(X) == 0
        assert canonical_margin(X) == 0

    def test_negative_margin(self):
        X = plain(4, 4, (3, 3), (4, 4))  # mu = 1 < 8/6
        assert canonical_margin(X) < 0


class TestBalancedMargin:
    def test_rejects_unbalanced(self):
        with pytest.raises(InputError):
            balanced_margin(plain(5, 1, (2, 3), (0, 0)), 1)

    def test_worked_value(self):
        # equals r * margin / h^(n-1) exactly: 4 * 360 / 2
        assert balanced_margin(WORKED, 2) == 720

    def test_alpha_zero_kills_every_h(self):
        X = plain(4, 3, (2, 2), (1, 2))
        assert alpha_invariant(X) == 0
        assert all(balanced_margin(X, h) == 0 for h in range(1, 10))

    def test_identity_with_general_path(self, rng):
        for _ in range(150):
            X = make_ci(rng, balanced=True)
            n = X.dim
            for h in range(1, 3 * X.k[0] + 1):
                lhs = balanced_margin(X, h)
                rhs = X.rank * Fraction(positivity_margin(X, h), h ** (n - 1))
                assert lhs == rhs


class TestSurfaceFormulas:
    def test_worked_instance(self):
        rep = surface_formula_check(WORKED)
        assert rep.kf2_formula == 144
        assert rep.deg_omega_formula == 30
        assert rep.ratio_holds and rep.matches_top_power and rep.matches_pushforward
        assert 144 * 10 == 24 * 2 * 30

    def test_hypothesis_gates(self):
        for r, k, message in [
            (5, (2, 3, 2), "balanced degrees"),
            (5, (2, 2), "codim = rank - 2, got 2"),  # c*k <= r too
            (4, (2, 2), "c*k > r, got 4 <= 4"),
            (3, (2,), "c*k > r, got 2 <= 3"),
        ]:
            with pytest.raises(HypothesisError) as exc:
                surface_formula_check(plain(r, 1, k, (0,) * len(k)))
            assert str(exc.value) == f"surface formulas need {message}"

    def test_randomized(self, rng):
        for _ in range(100):
            X = make_ci(rng, surface=True, ample_canonical=True)
            rep = surface_formula_check(X)
            assert rep.ratio_holds and rep.matches_top_power and rep.matches_pushforward


class TestEffectivity:
    def test_flags_oversized_twists(self):
        E = BundleOverCurve.split((1, 1, 1, 1))
        X = RelativeCI(E, (3, 3), (5, 1))
        assert effectivity_violations(X) == (1,)

    def test_silent_without_hn(self):
        X = plain(4, 4, (3, 3), (50, 50))
        assert effectivity_violations(X) == ()


# past the interpreter's limit for decimal text, so a message must name it by its size
BIG = 10**5000
SPLIT = RelativeCI(BundleOverCurve.split((1, 1, 1, 1)), (3, 3), (1, 2))
HUGE_RANK = BundleOverCurve(BIG, 0)


@pytest.mark.parametrize("call, error", [
    (lambda: positivity_margin(WORKED, -BIG), InputError),
    (lambda: koszul_degree_bruteforce(SPLIT, -BIG), InputError),
    (lambda: sym_degree_bruteforce(SPLIT.bundle, -BIG, 0), InputError),
    (lambda: hilbert_series_rank((3, 3), 4, -BIG), InputError),
    (lambda: mn_divisor_test(SPLIT.bundle, -BIG, 0), InputError),
    (lambda: binom_trunc(0, -BIG), InputError),
    (lambda: classify(HUGE_RANK, CycleClass(3 * BIG, 1, 0)), InputError),
    (lambda: cone(HUGE_RANK, 3 * BIG, ConeLabel.BRIDGE), InputError),
    (lambda: omega_pushforward(RelativeCI(HUGE_RANK, (2,), (0,))), HypothesisError),
    (lambda: RelativeCI(HUGE_RANK, (), ()), InputError),
], ids=["positivity_margin", "koszul_degree_bruteforce", "sym_degree_bruteforce",
        "hilbert_series_rank", "mn_divisor_test", "binom_trunc", "classify", "cone",
        "omega_pushforward", "relative_ci_codim"])
def test_long_values_are_named_by_size(call, error):
    with pytest.raises(InputError) as caught:
        call()
    assert type(caught.value) is error
    assert "an int of 500" in str(caught.value) and len(str(caught.value)) < 200
