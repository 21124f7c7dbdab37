from fractions import Fraction

import pytest

from relci import (
    ContactInstance,
    HMStatus,
    InputError,
    WeightFiltration,
    contact_of_intersection,
    hm_test,
    intersection_semistability_check,
)

W1111 = WeightFiltration((1, 1, 1, 1))


class TestValidation:
    def test_dim_range(self):
        with pytest.raises(InputError):
            ContactInstance(3, 4, 2, 1)

    def test_degree_floor(self):
        with pytest.raises(InputError):
            ContactInstance(3, 1, 0, 1)

    def test_weights_nonnegative(self):
        with pytest.raises(InputError):
            WeightFiltration((1, -1))

    def test_weights_not_all_zero(self):
        with pytest.raises(InputError):
            WeightFiltration((0, 0, 0))

    def test_weights_are_fractions(self):
        W = WeightFiltration(("1/2", 0, "1/2"))
        assert W.weights == (Fraction(1, 2), 0, Fraction(1, 2))
        assert W.total == 1

    def test_degree_of_contact_is_a_fraction(self):
        # an int e_f would make hm_test divide in floats: 1/3 rounds below 1/3
        T = ContactInstance(2, 2, 1, 1)
        assert type(T.e_f) is Fraction
        assert hm_test(T, WeightFiltration((1, 0, 0))) is HMStatus.SEMISTABLE


class TestHMTest:
    def test_boundary(self):
        assert hm_test(ContactInstance(3, 1, 2, 4), W1111) is HMStatus.SEMISTABLE

    def test_stable(self):
        assert hm_test(ContactInstance(3, 1, 2, 3), W1111) is HMStatus.STABLE

    def test_unstable(self):
        assert hm_test(ContactInstance(3, 1, 2, 5), W1111) is HMStatus.UNSTABLE

    def test_ambient_mismatch(self):
        with pytest.raises(InputError):
            hm_test(ContactInstance(4, 1, 2, 4), W1111)


class TestIntersection:
    def test_formula(self):
        W = WeightFiltration((2, 0, 0))  # total 2 on P^2
        Y = ContactInstance(2, 1, 2, 6)
        Z = ContactInstance(2, 2, 3, 3)
        cut = contact_of_intersection(Y, Z, W)
        assert cut.e_f == 2 * 3 + 3 * 6 - 2 * 3 * 2 == 12
        assert (cut.dim, cut.deg) == (1, 6)

    def test_symmetry(self, rng):
        for _ in range(100):
            n = rng.randint(2, 6)
            W = WeightFiltration(
                tuple(Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n))
                + (Fraction(1),)
            )
            dy, dz = rng.randint(0, n), rng.randint(0, n)
            if dy + dz < n:
                continue
            Y = ContactInstance(n, dy, rng.randint(1, 6), Fraction(rng.randint(-9, 9), 2))
            Z = ContactInstance(n, dz, rng.randint(1, 6), Fraction(rng.randint(-9, 9), 2))
            a = contact_of_intersection(Y, Z, W)
            b = contact_of_intersection(Z, Y, W)
            assert (a.dim, a.deg, a.e_f) == (b.dim, b.deg, b.e_f)

    def test_dimension_precondition(self):
        Y = ContactInstance(3, 1, 2, 0)
        Z = ContactInstance(3, 1, 2, 0)
        with pytest.raises(InputError, match=r"^intersection is empty in expected dimension: 1 \+ 1 < 3$"):
            contact_of_intersection(Y, Z, W1111)

    @pytest.mark.parametrize("z_ambient, w, message", [
        (4, W1111, "instances live in different ambient spaces"),
        (3, WeightFiltration((1, 1, 1, 1, 1)), "filtration ambient does not match the instances"),
    ], ids=["instances", "filtration"])
    def test_ambient_mismatch(self, z_ambient, w, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            contact_of_intersection(ContactInstance(3, 2, 1, 0), ContactInstance(z_ambient, 2, 1, 0), w)

    def test_bezout_outputs(self):
        Y = ContactInstance(4, 3, 5, 0)
        Z = ContactInstance(4, 2, 7, 0)
        cut = contact_of_intersection(Y, Z, WeightFiltration((1,) * 5))
        assert cut.deg == 35 and cut.dim == 1


def random_bounded_instance(rng, n, W, strict):
    """Instance satisfying the semistable bound, strictly if asked."""
    dim = rng.randint(0, n)
    deg = rng.randint(1, 6)
    bound = (dim + 1) * deg * W.total / (n + 1)
    if strict:
        e = bound * Fraction(rng.randint(0, 9), 10) - Fraction(rng.randint(1, 3), 7)
    else:
        e = bound
    return ContactInstance(n, dim, deg, e)


class TestPropagation:
    def test_boundary_pairs_stay_on_boundary(self, rng):
        for _ in range(100):
            n = rng.randint(2, 6)
            W = WeightFiltration(tuple(rng.randint(0, 4) for _ in range(n)) + (1,))
            Y = random_bounded_instance(rng, n, W, strict=False)
            Z = random_bounded_instance(rng, n, W, strict=False)
            if Y.dim + Z.dim < n:
                continue
            cut = contact_of_intersection(Y, Z, W)
            assert hm_test(cut, W) is HMStatus.SEMISTABLE
            assert intersection_semistability_check(Y, Z, W)

    def test_strictness_propagates(self, rng):
        for _ in range(200):
            n = rng.randint(2, 6)
            W = WeightFiltration(tuple(rng.randint(0, 4) for _ in range(n)) + (1,))
            Y = random_bounded_instance(rng, n, W, strict=True)
            Z = random_bounded_instance(rng, n, W, strict=rng.choice((True, False)))
            if Y.dim + Z.dim < n:
                continue
            cut = contact_of_intersection(Y, Z, W)
            assert hm_test(cut, W) is HMStatus.STABLE

    def test_precondition_reported(self):
        bad = ContactInstance(3, 1, 2, 5)
        ok = ContactInstance(3, 3, 1, 0)
        with pytest.raises(InputError):
            intersection_semistability_check(bad, ok, W1111)
