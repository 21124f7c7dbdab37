from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from relci import BundleOverCurve, InputError, RelativeCI
from relci.exact import binom_trunc, signed_subset_tables
from relci.invariants import pushforward
from relci.oracles import hilbert_series_rank
from tests.oracle_poly import horner, interpolate


class TestBinomTrunc:
    def test_standard(self):
        assert binom_trunc(5, 2) == 10

    def test_truncates_small_upper(self):
        assert binom_trunc(1, 3) == 0

    def test_truncates_negative_upper(self):
        assert binom_trunc(-2, 4) == 0

    def test_rejects_negative_lower(self):
        with pytest.raises(InputError):
            binom_trunc(4, -1)

    @given(st.integers(-30, 30), st.integers(1, 12))
    def test_pascal(self, n, m):
        assert binom_trunc(n, m) == binom_trunc(n - 1, m - 1) + binom_trunc(n - 1, m)


class TestSignedTables:
    def test_matches_enumeration(self, rng):
        for _ in range(50):
            c = rng.randint(1, 6)
            k = [rng.randint(1, 5) for _ in range(c)]
            y = [rng.randint(-7, 7) for _ in range(c)]
            cnt, val = signed_subset_tables(k, y)
            total = sum(k)
            want_cnt = [0] * (total + 1)
            want_val = [0] * (total + 1)
            for size in range(c + 1):
                for I in combinations(range(1, c + 1), size):
                    s = sum(k[i - 1] for i in I)
                    want_cnt[s] += (-1) ** size
                    want_val[s] += (-1) ** size * sum(y[i - 1] for i in I)
            assert cnt == want_cnt and val == want_val

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(-9, 9)), min_size=1, max_size=6),
           st.data())
    def test_pair_order_does_not_matter(self, pairs, data):
        # the (k_i, y_i) pairs are a set: any order gives the same tables
        shuffled = data.draw(st.permutations(pairs))
        assert signed_subset_tables(*zip(*shuffled)) == signed_subset_tables(*zip(*pairs))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InputError):
            signed_subset_tables([2, 0], [1, 1])


class TestInterpolate:
    def test_parabola(self):
        assert interpolate([(0, 0), (1, 1), (2, 4)]) == (0, 0, 1)

    def test_constant(self):
        assert interpolate([(0, 3)]) == (3,)

    def test_trims_trailing_zeros(self):
        # four samples of a line: the degree-2 and degree-3 coefficients vanish
        assert interpolate([(0, 1), (1, 3), (2, 5), (3, 7)]) == (1, 2)
        assert interpolate([(0, 0), (1, 0)]) == ()

    def test_pushforward_rank_samples(self):
        # ranks of the twisted pushforward for the worked (3,3) instance
        # follow a degree-1 polynomial once the twist clears every subset
        # sum; its leading coefficient is the fibre degree over 1!, which
        # the Hilbert-series oracle pins down independently.
        X = RelativeCI(BundleOverCurve.semistable(4, 4), (3, 3), (1, 2))
        samples = [(h, pushforward(X, h).rank) for h in range(6, 10)]
        for h, v in samples:
            assert v == hilbert_series_rank((3, 3), 4, h)
        poly = interpolate(samples)
        assert poly == (-9, 9)

    def test_duplicate_abscissae(self):
        with pytest.raises(InputError):
            interpolate([(1, 1), (1, 2)])

    def test_empty(self):
        with pytest.raises(InputError):
            interpolate([])

    @given(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=12),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip(self, coeffs):
        xs = range(-3, -3 + len(coeffs))
        back = interpolate([(x, horner(tuple(coeffs), x)) for x in xs])
        # the coefficients come back, trailing zeros trimmed
        assert [*back, *[0] * (len(coeffs) - len(back))] == coeffs
        assert not back or back[-1] != 0

    def test_horner(self):
        p = (Fraction(1, 2), 0, 1)
        assert horner(p, 2) == Fraction(9, 2)
        assert horner(p, Fraction(1, 2)) == Fraction(3, 4)
        assert horner((), 5) == 0


class TestRationalField:
    @given(
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_always_reduced(self):
        q = Fraction(6, -4)
        assert q.denominator > 0
        assert (q.numerator, q.denominator) == (-3, 2)
