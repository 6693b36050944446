import gc
import math
import weakref

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy import kronecker_symbol

from nfmertens.errors import CompositeModulus, IndexPrimeUnsupported
from nfmertens.field import load_field
from nfmertens.idealcount import DENSE_SIEVE_CAP, ideal_count_sieve
from nfmertens.polyfield import (
    IntPoly,
    _distinct_degree_parts,
    _squarefree_parts,
    poly_discriminant,
)
from nfmertens.splitting import (
    FROBENIUS_P_MAX,
    kronecker,
    prime_ideals_up_to,
    rational_primes,
    splitting_type,
    theta_K,
)
from nfmertens.splitting import (
    _ensure_pairs,
    _frobenius_pairs,
    _pattern_mod_p,
    _records_up_to,
    field_context,
)

BATCHED_FIELDS = ("cbrt2", "cyclic-cubic-49", "cyclotomic5")


def naive_primes(n):
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p:: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


class TestRationalPrimes:
    def test_small(self):
        assert rational_primes(10).tolist() == [2, 3, 5, 7]

    def test_below_two_is_empty(self):
        assert rational_primes(1).tolist() == []
        assert rational_primes(0).tolist() == []

    def test_count_at_1e6(self):
        assert len(rational_primes(10 ** 6)) == 78498

    @pytest.mark.parametrize("n", [2, 3, 4, 1000, (1 << 20) - 1, 1 << 20,
                                   (1 << 20) + 1, (1 << 20) + 100])
    def test_matches_naive_sieve_at_segment_edges(self, n):
        assert rational_primes(n).tolist() == naive_primes(n)

    def test_non_integer_cutoff(self):
        assert rational_primes(7.9).tolist() == [2, 3, 5, 7]


class TestKronecker:
    @given(st.integers(min_value=-300, max_value=300),
           st.integers(min_value=-300, max_value=300))
    @settings(max_examples=500, deadline=None)
    def test_matches_sympy(self, a, n):
        assert kronecker(a, n) == kronecker_symbol(a, n)

    def test_two_inert_in_golden(self):
        assert kronecker(5, 2) == -1


class TestSplittingType:
    def test_gaussian_examples(self, gauss):
        assert splitting_type(gauss, 5).pairs == ((1, 1), (1, 1))
        assert splitting_type(gauss, 7).pairs == ((1, 2),)
        assert splitting_type(gauss, 2).pairs == ((2, 1),)

    def test_composite_rejected(self, gauss):
        with pytest.raises(CompositeModulus):
            splitting_type(gauss, 9)

    def test_index_prime_is_hard_error(self, corpus):
        with pytest.raises(IndexPrimeUnsupported) as err:
            splitting_type(corpus["non-monogenic-cubic"], 2)
        assert err.value.p == 2

    def test_degree_sum_invariant(self, corpus):
        # reads the table the sieve and the prime-ideal stream use
        primes = rational_primes(10 ** 5).tolist()
        for name, field in corpus.items():
            try:
                _records_up_to(field, 10 ** 5)
            except IndexPrimeUnsupported:
                assert name == "non-monogenic-cubic"
                continue
            table = field_context(field).pairs_by_p
            for p in primes:
                pairs = table[p]
                assert sum(e * f for e, f in pairs) == field.degree, (name, p)
                for k in range(1, field.degree + 1):
                    assert sum(1 for _, f in pairs if f == k) \
                        <= field.degree // k, (name, p, k)
                assert sum(f for _, f in pairs) <= field.degree, (name, p)

    def test_non_maximal_order_poly_still_exact_at_index_prime(self):
        # x^2 + 4 defines the Gaussian field through a non-maximal order;
        # the quadratic route uses the fundamental discriminant, so the
        # splitting at 2 is still exact
        from nfmertens.field import load_field
        fd = load_field("poly = [4, 0, 1]\n")
        assert fd.discriminant == -4
        assert splitting_type(fd, 2).pairs == ((2, 1),)
        assert splitting_type(fd, 5).pairs == ((1, 1), (1, 1))

    def test_index_prime_error_same_through_records_and_sieve(self, corpus):
        field = corpus["non-monogenic-cubic"]
        raised = []
        for call in (prime_ideals_up_to, ideal_count_sieve):
            with pytest.raises(IndexPrimeUnsupported) as err:
                call(field, 1000)
            raised.append((str(err.value), err.value.p))
        assert raised[0] == raised[1]
        assert raised[0][1] == 2
        # the exact pipeline ran first: no batched prime was tabled
        ctx = field_context(field)
        assert ctx.pairs_pmax == 0
        assert 3 not in ctx.pairs_by_p


def exact_pattern(coeffs, p):
    """Pattern of a monic f squarefree mod p, from the factorization pipeline."""
    [(g, mult)] = _squarefree_parts(tuple(c % p for c in coeffs), p)
    assert mult == 1
    return tuple((1, d) for prod, d in _distinct_degree_parts(g, p)
                 for _ in range((len(prod) - 1) // d))


class TestBatchedFrobenius:
    def test_table_agrees_with_pipeline_to_1e5(self, corpus):
        primes = rational_primes(10 ** 5).tolist()
        for name in BATCHED_FIELDS:
            field = corpus[name]
            table = _ensure_pairs(field, primes)
            for p in primes:
                assert table[p] == _pattern_mod_p(field, p), (name, p)

    def test_top_prime_below_cap(self, corpus):
        p = 99_999_989
        assert p == sympy.prevprime(DENSE_SIEVE_CAP) and FROBENIUS_P_MAX == DENSE_SIEVE_CAP
        for name in BATCHED_FIELDS:
            field = corpus[name]
            coeffs = field.defining_poly.coeffs
            disc = poly_discriminant(field.defining_poly)
            assert disc % p
            assert _frobenius_pairs(coeffs, disc, np.array([p])) \
                == [_pattern_mod_p(field, p)], name

    @given(st.integers(min_value=3, max_value=4).flatmap(
               lambda n: st.lists(st.integers(-10 ** 12, 10 ** 12),
                                  min_size=n, max_size=n)),
           st.lists(st.integers(min_value=2, max_value=DENSE_SIEVE_CAP - 12)
                    .map(sympy.nextprime), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    @example([10 ** 12, 7 - 10 ** 12, 3 * 10 ** 11], [5, 7, 99_999_989])
    @example([-10 ** 12, 10 ** 12 - 11, 5, -10 ** 12], [3, 5, 99_999_989])
    def test_random_polynomials(self, low, primes):
        # coefficients up to 1e12 put disc(f) far beyond int64
        coeffs = (*low, 1)
        disc = poly_discriminant(IntPoly.of(coeffs))
        primes = sorted({p for p in primes if disc % p})
        assume(primes)
        assert _frobenius_pairs(coeffs, disc, np.array(primes, dtype=np.int64)) \
            == [exact_pattern(coeffs, p) for p in primes]


class TestPrimeIdeals:
    def test_gaussian_to_five(self, gauss):
        recs = prime_ideals_up_to(gauss, 5)
        assert [(r.p, r.f, r.norm) for r in recs] == \
            [(2, 1, 2), (5, 1, 5), (5, 1, 5)]

    def test_gaussian_inert_three_excluded(self, gauss):
        recs = prime_ideals_up_to(gauss, 3.5)
        assert [(r.p, r.f, r.norm) for r in recs] == [(2, 1, 2)]

    def test_golden_at_two_is_empty(self, golden):
        assert prime_ideals_up_to(golden, 2) == ()

    def test_sorted_by_norm_then_p(self, corpus):
        for field in corpus.values():
            try:
                recs = prime_ideals_up_to(field, 3000)
            except IndexPrimeUnsupported:
                continue
            keys = [(r.norm, r.p) for r in recs]
            assert keys == sorted(keys)
            for r in recs:
                assert r.norm == r.p ** r.f
                assert 1 <= r.f <= field.degree

    def test_split_count_matches_residue_classes(self, gauss):
        # in the Gaussian field, split primes are exactly p = 1 mod 4
        recs = prime_ideals_up_to(gauss, 10 ** 4)
        split_primes = {r.p for r in recs if r.f == 1 and r.p != 2}
        expected = {p for p in naive_primes(10 ** 4) if p % 4 == 1}
        assert split_primes == expected


class TestThetaK:
    def test_rational_theta(self, rationals):
        assert theta_K(rationals, 10) == pytest.approx(math.log(210), rel=1e-14)

    def test_gaussian_theta(self, gauss):
        assert theta_K(gauss, 5) == pytest.approx(
            math.log(2) + 2 * math.log(5), rel=1e-14)

    def test_below_two_is_zero(self, gauss):
        assert theta_K(gauss, 1.5) == 0.0

    def test_dominated_by_degree_times_rational(self, corpus, rationals):
        for x in (10, 100, 1000, 10 ** 4):
            theta_q = theta_K(rationals, x)
            for name, field in corpus.items():
                if name == "non-monogenic-cubic":
                    continue
                assert theta_K(field, x) <= field.degree * theta_q + 1e-9


class TestFieldContext:
    # no other test keeps a descriptor equal to this one alive
    TEXT = "poly = [-1, 3, 1]\n"

    def test_freed_with_descriptor(self):
        field = load_field(self.TEXT)
        prime_ideals_up_to(field, 1000)
        ideal_count_sieve(field, 1000)
        ctx = weakref.ref(field_context(field))
        assert ctx().records and ctx().row is not None
        del field
        gc.collect()
        assert ctx() is None

    def test_equal_descriptors_share_while_either_lives(self):
        first, second = load_field(self.TEXT), load_field(self.TEXT)
        assert first is not second and first == second
        ctx = weakref.ref(field_context(first))
        assert field_context(second) is ctx()
        del first  # the descriptor the context was registered under
        gc.collect()
        assert ctx() is not None
        assert field_context(second) is ctx()
        assert field_context(load_field(self.TEXT)) is ctx()
        del second
        gc.collect()
        assert ctx() is None
