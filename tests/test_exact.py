from fractions import Fraction
from itertools import combinations
from math import comb

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


def enumerated_tables(k, y):
    """The signed subset tables of (k, y), one subset at a time."""
    c, total = len(k), sum(k)
    cnt, val = [0] * (total + 1), [0] * (total + 1)
    for size in range(c + 1):
        for I in combinations(range(c), size):
            s = sum(k[i] for i in I)
            cnt[s] += (-1) ** size
            val[s] += (-1) ** size * sum(y[i] for i in I)
    return cnt, val


def slot_words(k, y):
    """64-bit words per packed slot: ceil((c + bitlen(sum |y_i|) + 2) / 64)."""
    return -(-(len(k) + sum(map(abs, y)).bit_length() + 2) // 64)


class TestSignedTables:
    def test_matches_enumeration(self, rng):
        for _ in range(50):
            c = rng.randint(1, 6)
            k = [rng.randint(1, 5) for _ in range(c)]
            y = [rng.randint(-7, 7) for _ in range(c)]
            assert signed_subset_tables(k, y) == enumerated_tables(k, y)

    @pytest.mark.parametrize("c", [2, 7, 12, 16])
    def test_equal_weights_fill_the_count_slot(self, rng, c):
        # every subset of a size lands on one level: |cnt| peaks at C(c, c/2)
        k = [3] * c
        y = [rng.randint(-9, 9) for _ in range(c)]
        cnt, val = signed_subset_tables(k, y)
        assert (cnt, val) == enumerated_tables(k, y)
        assert max(map(abs, cnt)) == comb(c, c // 2)

    def test_huge_values_of_mixed_sign(self, rng):
        for _ in range(20):
            c = rng.randint(1, 8)
            k = [rng.randint(1, 6) for _ in range(c)]
            y = [rng.choice([-1, 1]) * rng.randint(0, 10**40) for _ in range(c)]
            assert signed_subset_tables(k, y) == enumerated_tables(k, y)
        assert slot_words(k, y) == 3

    @pytest.mark.parametrize("c", [1, 5, 12])
    def test_all_zero_values(self, c):
        k = list(range(2, 2 + c))
        cnt, val = signed_subset_tables(k, [0] * c)
        assert (cnt, val) == enumerated_tables(k, [0] * c)
        assert not any(val)

    @pytest.mark.parametrize("c, y_top", [(12, 2**51), (8, 2**55 - 1), (14, 2**120)],
                             ids=["2^51", "2^55-1", "2^120"])
    def test_multi_word_slots(self, rng, c, y_top):
        # c + bitlen(sum |y|) > 62: a slot takes two or more 64-bit words
        k = [rng.randint(1, 4) for _ in range(c)]
        y = [y_top, -y_top, *(rng.randint(-y_top, y_top) for _ in range(c - 2))]
        assert c + sum(map(abs, y)).bit_length() > 62 and slot_words(k, y) >= 2
        assert signed_subset_tables(k, y) == enumerated_tables(k, y)

    def test_codimension_past_one_word(self):
        # c = 70 unit weights: cnt[s] = (-1)^s C(70, s) and
        # val[s] = (-1)^s * y * s * C(70, s), past what 64-bit slots hold
        c, y = 70, -(10**6)
        cnt, val = signed_subset_tables([1] * c, [y] * c)
        assert slot_words([1] * c, [y] * c) == 2
        assert cnt == [(-1) ** s * comb(c, s) for s in range(c + 1)]
        assert val == [(-1) ** s * y * s * comb(c, s) for s in range(c + 1)]

    @pytest.mark.parametrize("y", [0, 7, -(10**30)])
    def test_lone_heavy_hypersurface(self, y):
        cnt, val = signed_subset_tables([10000], [y])
        assert cnt == [1, *[0] * 9999, -1]
        assert val == [*[0] * 10000, -y]

    def test_no_items(self):
        assert signed_subset_tables([], []) == ([1], [0])

    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(-9, 9)), min_size=1, max_size=6),
           st.data())
    def test_pair_order_does_not_matter(self, pairs, data):
        # the (k_i, y_i) pairs are a set: any order gives the same tables
        shuffled = data.draw(st.permutations(pairs))
        assert signed_subset_tables(*zip(*shuffled)) == signed_subset_tables(*zip(*pairs))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InputError):
            signed_subset_tables([2, 0], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InputError, match="^signed_subset_tables: weight/value length mismatch$"):
            signed_subset_tables([2, 1], [1])


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
