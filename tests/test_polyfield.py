import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nfmertens.errors import CompositeModulus, ZeroPolynomial
from nfmertens.polyfield import (
    IntPoly,
    _distinct_degree_parts,
    _pgcd,
    _pmod,
    _pmul,
    _ppowmod,
    _psub,
    _squarefree_parts,
    _trim,
    dedekind_index_test,
    factor,
    is_prime,
    poly_discriminant,
    real_root_count,
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


def factor_parts(p, coeffs):
    """(irreducible degree, multiplicity) of every factor of f mod p, by the
    squarefree and distinct-degree parts, with the parts' product times the
    leading coefficient."""
    f = mod_p(coeffs, p)
    pairs, prod = [], (f[-1],)
    for g, mult in _squarefree_parts(f, p):
        for part, d in _distinct_degree_parts(g, p):
            pairs += [(d, mult)] * ((len(part) - 1) // d)
            for _ in range(mult):
                prod = _pmul(prod, part, p)
    return sorted(pairs), prod


def sympy_factor_degrees(p, coeffs):
    _, factors = sympy.Poly(list(reversed(coeffs)), X, modulus=p).factor_list()
    return sorted((g.degree(), mult) for g, mult in factors)


class TestFactorModP:
    """f mod p through the two production stages, _squarefree_parts and
    _distinct_degree_parts, against sympy's factor_list mod p."""

    def test_split_example(self):
        # x^2 + 1 = (x - 2)(x - 3) mod 5: one part of degree-1 factors
        assert _squarefree_parts((1, 0, 1), 5) == [((1, 0, 1), 1)]
        assert _distinct_degree_parts((1, 0, 1), 5) == [((1, 0, 1), 1)]

    def test_inert_example(self):
        assert _distinct_degree_parts((1, 0, 1), 7) == [((1, 0, 1), 2)]

    def test_ramified_example(self):
        assert _squarefree_parts((1, 0, 1), 2) == [((1, 1), 2)]

    @pytest.mark.parametrize("poly", TEST_POLYS)
    def test_reconstruction_all_primes_to_1000(self, poly):
        for p in small_primes(1000):
            pairs, prod = factor_parts(p, poly.coeffs)
            assert prod == mod_p(poly.coeffs, p), (poly, p)
            assert pairs == sympy_factor_degrees(p, poly.coeffs), (poly, p)

    @pytest.mark.parametrize("poly", TEST_POLYS[:5])
    def test_irreducibility_witness(self, poly):
        # a part of degree d divides x^(p^d) - x and shares no root with
        # x^(p^m) - x for m < d, so each of its irreducible factors has
        # degree d
        x = (0, 1)
        for p in small_primes(60):
            for g, _ in _squarefree_parts(mod_p(poly.coeffs, p), p):
                for part, d in _distinct_degree_parts(g, p):
                    x_mod = _pmod(x, part, p)
                    assert _ppowmod(x, p ** d, part, p) == x_mod, (p, part)
                    for m in range(1, d):
                        frob_m = _ppowmod(x, p ** m, part, p)
                        shared = _pgcd(_psub(frob_m, x_mod, p), part, p)
                        assert len(shared) == 1, (p, part, m)

    @pytest.mark.parametrize("poly", [q for q in TEST_POLYS if q.is_monic])
    def test_repeated_factor_iff_disc_divisible(self, poly):
        disc = poly_discriminant(poly)
        for p in small_primes(1000):
            parts = _squarefree_parts(mod_p(poly.coeffs, p), p)
            repeated = any(m > 1 for _, m in parts)
            assert repeated == (disc % p == 0), (poly, p)

    @given(st.integers(min_value=0, max_value=4),
           st.lists(st.integers(min_value=0, max_value=100),
                    min_size=2, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_random_reconstruction(self, prime_index, coeffs):
        p = (2, 3, 5, 13, 31)[prime_index]
        f = mod_p(coeffs, p)
        if len(f) < 2:
            return
        pairs, prod = factor_parts(p, f)
        assert prod == f
        assert pairs == sympy_factor_degrees(p, f)


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


@given(st.integers(min_value=1, max_value=10 ** 12))
@settings(max_examples=100, deadline=None)
def test_factor_against_sympy(n):
    assert factor(n) == sympy.factorint(n)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_real_root_count_against_sympy(lower):
    # repeated roots count once
    coeffs = lower + [1]
    distinct = set(sympy.Poly(coeffs[::-1], sympy.Symbol("x")).real_roots())
    assert real_root_count(IntPoly.of(coeffs)) == len(distinct)


def test_real_root_count_edges():
    assert real_root_count(IntPoly.of([-3, 1])) == 1
    assert real_root_count(IntPoly.of([1, 0, 0, 0, 1])) == 0  # x^4 + 1
    assert real_root_count(IntPoly.of([0, -1, 0, 1])) == 3  # x^3 - x
    assert real_root_count(IntPoly.of([1, -2, 1])) == 1  # (x - 1)^2
    assert real_root_count(IntPoly.of([-2] + [0] * 28 + [1])) == 1


def test_factor_edges():
    assert factor(1) == {}
    assert factor(2 ** 40) == {2: 40}
    assert factor(999983 ** 2) == {999983: 2}
    with pytest.raises(ValueError):
        factor(0)
