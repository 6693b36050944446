import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nfmertens.errors import CompositeModulus, ZeroPolynomial
from nfmertens.polyfield import (
    IntPoly,
    _pgcd,
    _pmod,
    _pmul,
    _ppowmod,
    _psub,
    _trim,
    dedekind_index_test,
    factor_mod_p,
    is_prime,
    poly_discriminant,
)

X = sympy.symbols("x")

TEST_POLYS = [
    IntPoly.of([1, 0, 1]),          # x^2 + 1
    IntPoly.of([-1, -1, 1]),        # x^2 - x - 1
    IntPoly.of([-2, 0, 0, 1]),      # x^3 - 2
    IntPoly.of([-1, -2, 1, 1]),     # x^3 + x^2 - 2x - 1
    IntPoly.of([1, 1, 1, 1, 1]),    # 5th cyclotomic
    IntPoly.of([-8, -2, -1, 1]),    # non-monogenic cubic
    IntPoly.of([6, 11, 6, 1]),      # (x+1)(x+2)(x+3), reducible on purpose
]


def small_primes(limit):
    return [p for p in range(2, limit + 1) if is_prime(p)]


def to_sympy(poly: IntPoly):
    return sympy.Poly(list(reversed(poly.coeffs)), X)


def mod_p(coeffs, p):
    return _trim(c % p for c in coeffs)


class TestDiscriminant:
    def test_quadratic_examples(self):
        assert poly_discriminant(IntPoly.of([1, 0, 1])) == -4
        assert poly_discriminant(IntPoly.of([-1, -1, 1])) == 5

    def test_degree_one_is_trivial(self):
        assert poly_discriminant(IntPoly.of([-3, 1])) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            poly_discriminant(IntPoly.of([]))

    @pytest.mark.parametrize("poly", TEST_POLYS)
    def test_matches_sympy(self, poly):
        assert poly_discriminant(poly) == sympy.discriminant(
            to_sympy(poly).as_expr(), X)

    @given(st.lists(st.integers(min_value=-50, max_value=50),
                    min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_random_monic_matches_sympy(self, lower):
        poly = IntPoly.of(lower + [1])
        assert poly_discriminant(poly) == sympy.discriminant(
            to_sympy(poly).as_expr(), X)


def reconstruct(p, factors, lead):
    prod = (lead,)
    for g, mult in factors:
        for _ in range(mult):
            prod = _pmul(prod, g, p)
    return prod


class TestFactorModP:
    def test_split_example(self):
        assert factor_mod_p(5, (1, 0, 1)) == (((2, 1), 1), ((3, 1), 1))

    def test_inert_example(self):
        assert factor_mod_p(7, (1, 0, 1)) == (((1, 0, 1), 1),)

    def test_ramified_example(self):
        assert factor_mod_p(2, (1, 0, 1)) == (((1, 1), 2),)

    def test_composite_modulus_rejected(self):
        with pytest.raises(CompositeModulus):
            factor_mod_p(15, (1, 0, 1))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_mod_p(5, (0,))

    @pytest.mark.parametrize("poly", TEST_POLYS)
    def test_reconstruction_all_primes_to_1000(self, poly):
        for p in small_primes(1000):
            f = mod_p(poly.coeffs, p)
            if len(f) < 2:
                continue
            factors = factor_mod_p(p, f)
            assert reconstruct(p, factors, f[-1]) == f, (poly, p)

    @pytest.mark.parametrize("poly", TEST_POLYS[:5])
    def test_irreducibility_witness(self, poly):
        # each factor divides x^(p^deg) - x and shares no root with smaller
        # Frobenius fixed fields
        x = (0, 1)
        for p in small_primes(60):
            f = mod_p(poly.coeffs, p)
            if len(f) < 2:
                continue
            for g, _ in factor_mod_p(p, f):
                d = len(g) - 1
                x_mod_g = _pmod(x, g, p)
                assert _ppowmod(x, p ** d, g, p) == x_mod_g, (p, g)
                for m in range(1, d):
                    frob_m = _ppowmod(x, p ** m, g, p)
                    shared = _pgcd(_psub(frob_m, x_mod_g, p), g, p)
                    assert len(shared) == 1, (p, g, m)

    @pytest.mark.parametrize("poly", [q for q in TEST_POLYS if q.is_monic])
    def test_repeated_factor_iff_disc_divisible(self, poly):
        disc = poly_discriminant(poly)
        for p in small_primes(1000):
            repeated = any(m > 1 for _, m in factor_mod_p(p, poly.coeffs))
            assert repeated == (disc % p == 0), (poly, p)

    @given(st.integers(min_value=0, max_value=4),
           st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_random_reconstruction(self, prime_index, coeffs):
        p = (2, 3, 5, 13, 31)[prime_index]
        f = mod_p(coeffs, p)
        if not f:
            return
        if len(f) == 1:
            assert factor_mod_p(p, coeffs) == ()
            return
        factors = factor_mod_p(p, coeffs)
        assert reconstruct(p, factors, f[-1]) == f
        assert list(factors) == sorted(factors,
                                       key=lambda fm: (len(fm[0]), fm[0]))


class TestDedekind:
    def test_unramified_prime_passes(self):
        assert dedekind_index_test(IntPoly.of([1, 0, 1]), 5) is True

    def test_gaussian_at_two(self):
        assert dedekind_index_test(IntPoly.of([1, 0, 1]), 2) is True

    def test_sqrt5_wrong_order_at_two(self):
        # Z[sqrt 5] has index 2 in the maximal order
        assert dedekind_index_test(IntPoly.of([-5, 0, 1]), 2) is False

    def test_gaussian_wrong_order_at_two(self):
        # Z[2i] has index 2; the criterion hits the zero-remainder branch
        assert dedekind_index_test(IntPoly.of([4, 0, 1]), 2) is False

    def test_classical_non_monogenic_cubic(self):
        f = IntPoly.of([-8, -2, -1, 1])
        assert dedekind_index_test(f, 2) is False
        # indices at other small primes are clean: disc(f) = -2012 = -4*503
        assert dedekind_index_test(f, 503) is True
        assert dedekind_index_test(f, 3) is True

    def test_composite_rejected(self):
        with pytest.raises(CompositeModulus):
            dedekind_index_test(IntPoly.of([1, 0, 1]), 6)


def test_is_prime_against_sympy():
    for n in range(2000):
        assert is_prime(n) == sympy.isprime(n), n
    for n in (2**31 - 1, 2**61 - 1, 10**12 + 39, 10**12 + 61):
        assert is_prime(n) == sympy.isprime(n), n
