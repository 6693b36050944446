import gc
import math
import weakref
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, product
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy import kronecker_symbol

from nfmertens import blockpass, mertens, splitting, verify
from nfmertens.blockpass import exact_sum, running_fsums, segment_sums, slices
from nfmertens.errors import (
    CompositeModulus,
    CutoffOutOfRange,
    DenseSieveCapExceeded,
    IndexPrimeUnsupported,
    InvariantViolation,
)
from nfmertens.field import PROVENANCE_EXACT, Residue, descriptor_text, kappa_exact, load_field
from nfmertens.idealcount import (
    ideal_count_sieve,
    kappa_estimate,
    legendre_chebyshev_mismatches,
    summatory,
    summatory_grid,
    t_K,
)
from nfmertens.mertens import (
    EULER_GAMMA,
    MertensConstant,
    mertens_constant,
    mertens_grid,
    mertens_table,
    prime_power_grid,
    prime_power_sum,
)
from nfmertens.polyfield import (
    IntPoly,
    _distinct_degree_parts,
    _pmod,
    _pmul,
    _ppowmod,
    _squarefree_parts,
    poly_discriminant,
)
from nfmertens.splitting import (
    CLASS_TABLE_MAX,
    DENSE_SIEVE_CAP,
    SIEVE_SEGMENT,
    FieldContext,
    check_grid,
    kronecker,
    prime_ideals_up_to,
    rational_primes,
    splitting_type,
    theta_K,
)
from nfmertens.splitting import (
    _FROBENIUS_TYPES,
    _euler_square,
    _fold,
    _fold_table,
    _frobenius_keys,
    _ideal_stream,
    _kummer_route,
    _pattern_mod_p,
    _product,
    _records_up_to,
    _splitting_table,
    _tabulate,
    _xpow,
    field_context,
)
from nfmertens.verify import verify_all
from fsum_oracle import mertens_series, mertens_sums
from splitting_oracle import ideal_columns, kernel_patterns, table_patterns

GAUSS_PATH = Path(__file__).resolve().parent.parent / "fields" / "gaussian.field"
# the degree >= 3 corpus fields: cbrt2 takes the Kummer route, the other two
# their class tables
BATCHED_FIELDS = ("cbrt2", "cyclic-cubic-49", "cyclotomic5")
# cyclic-cubic-49 without its certificate keys: no class route, so it takes
# the Frobenius pass, which no corpus field takes
CYCLIC_CUBIC_UNKEYED = "".join(
    line for line in (GAUSS_PATH.parent / "cyclic-cubic-49.field").read_text().splitlines(True)
    if line.partition("=")[0].strip() not in ("conductor", "cyclotomic_root"))
TOP_PRIME = 99_999_989  # the largest prime below the dense-sieve cap


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

    def test_sieve_matches_naive_to_3000(self):
        # every cutoff, so each fills its array, sized by the bound, a
        # different way; the bound holds at each
        primes = naive_primes(3000)
        for n in range(2, 3001):
            expected = primes[:bisect_right(primes, n)]
            assert splitting._sieve(n).tolist() == expected, n
            assert splitting._prime_count_bound(n) >= len(expected), n

    def test_sieve_counts_at_powers_of_ten(self):
        # pi(10^k), k = 1..8; the sieve's array is sized by the
        # Rosser-Schoenfeld bound, which must hold up to the cap
        counts = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455]
        for k, count in enumerate(counts[:7], start=1):
            assert len(splitting._sieve(10 ** k)) == count, k
        for k, count in enumerate(counts, start=1):
            assert splitting._prime_count_bound(10 ** k) > count, k
        assert DENSE_SIEVE_CAP == 10 ** 8

    # the odd sieve's segments hold SIEVE_SEGMENT flags for 3, 5, 7, ...: the
    # first ends at 1 + 2 SIEVE_SEGMENT, one past it is even, and the second
    # starts at 3 + 2 SIEVE_SEGMENT
    @pytest.mark.parametrize("n", [2, 3, 4, 1000, (1 << 20) - 1, 1 << 20,
                                   (1 << 20) + 1, (1 << 20) + 2, (1 << 20) + 100,
                                   1 + 2 * SIEVE_SEGMENT, 2 + 2 * SIEVE_SEGMENT,
                                   3 + 2 * SIEVE_SEGMENT])
    def test_matches_naive_sieve_at_segment_edges(self, n):
        expected = naive_primes(n)
        assert splitting._sieve(n).tolist() == expected
        assert rational_primes(n).tolist() == expected

    def test_matches_unsegmented_sieve_at_1e6(self):
        assert np.array_equal(splitting._sieve(10 ** 6), splitting._simple_sieve(10 ** 6))

    def test_non_integer_cutoff(self):
        assert rational_primes(7.9).tolist() == [2, 3, 5, 7]

    def test_minus_infinity_is_empty(self):
        assert rational_primes(-math.inf).tolist() == []

    @pytest.mark.parametrize("x", [math.nan, math.inf, DENSE_SIEVE_CAP + 1.0])
    def test_nan_and_past_the_cap_raise(self, x):
        with pytest.raises(CutoffOutOfRange):
            rational_primes(x)


@pytest.fixture
def sieves(monkeypatch):
    """The cutoffs sieved from here on, starting from no sieve at all."""
    calls = []
    sieve = splitting._sieve
    monkeypatch.setattr(splitting, "_sieve", lambda n: calls.append(n) or sieve(n))
    monkeypatch.setattr(splitting, "_sieved", rational_primes(0))
    monkeypatch.setattr(splitting, "_sieved_to", 1)
    return calls


class TestSharedSieve:
    def test_one_sieve_for_verify_all_on_two_fields(self, sieves, monkeypatch):
        verify._field_independent_checks()  # built once per process
        monkeypatch.setattr(splitting, "_sieved", rational_primes(0))
        monkeypatch.setattr(splitting, "_sieved_to", 1)
        sieves.clear()
        for name in ("gaussian", "cbrt2"):
            field = load_field((GAUSS_PATH.parent / f"{name}.field").read_text())
            report = verify_all(field, [10.0, 1000.0, 1e5], kappa_exact(field),
                                truncation_x=1e5)
            assert report.failures == (), name
        # theta, the splitting tables and the I(n) rows share it
        assert sieves == [10 ** 5]

    def test_larger_cutoff_sieves_once_more(self, sieves):
        rational_primes(1e4)
        rational_primes(5000.5)
        rational_primes(1e4)
        assert sieves == [10 ** 4]
        assert len(rational_primes(2e4)) == 2262
        rational_primes(1e4)
        assert sieves == [10 ** 4, 2 * 10 ** 4]

    def test_prefixes_match_naive_after_a_sieve_to_1e5(self, sieves):
        full = rational_primes(10 ** 5)
        naive = naive_primes(2000)
        for n in range(2001):
            prefix = rational_primes(n)
            assert prefix.tolist() == naive[:bisect_right(naive, n)], n
            assert prefix.base is full.base
        assert sieves == [10 ** 5]

    @pytest.mark.parametrize("x", [0, 10, 1e5])
    def test_read_only(self, sieves, x):
        primes = rational_primes(x)
        with pytest.raises(ValueError):
            primes[:1] = 4
        assert not rational_primes(1e5).flags.writeable


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

    @pytest.mark.parametrize("name", ["cyclotomic5", "cbrt2"])
    def test_table_decides_primality(self, name, monkeypatch):
        # inside the table splitting_type reads the pattern and primality
        # from it, with no is_prime call; past it is_prime decides
        field = load_field((GAUSS_PATH.parent / f"{name}.field").read_text())
        primes = naive_primes(10 ** 5)
        _, codes, patterns = _splitting_table(field, 10 ** 5)
        table = [patterns[c] for c in codes.tolist()]
        assert table[:300] == [splitting._pairs_for(field, p) for p in primes[:300]]
        with monkeypatch.context() as patched:
            patched.setattr(splitting, "is_prime", lambda n: pytest.fail("is_prime"))
            assert [splitting_type(field, p).pairs for p in primes] == table
            for n in range(-2, 1001):
                if n not in set(primes):
                    with pytest.raises(CompositeModulus):
                        splitting_type(field, n)
        calls = []
        monkeypatch.setattr(splitting, "is_prime",
                            lambda n: calls.append(n) or sympy.isprime(n))
        assert splitting_type(field, 100_003).pairs == \
            splitting._pairs_for(field, 100_003)
        with pytest.raises(CompositeModulus):
            splitting_type(field, 100_001)
        assert calls == [100_003, 100_001]

    def test_composites_raise_without_a_table(self):
        field = load_field(GAUSS_PATH.read_text())
        primes = set(naive_primes(1000))
        for n in range(-2, 1001):
            if n not in primes:
                with pytest.raises(CompositeModulus):
                    splitting_type(field, n)
        assert field_context(field).table_xmax == 0

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
            table, codes, patterns = _splitting_table(field, 10 ** 5)
            assert table.tolist() == primes, name
            for p, code in zip(primes, codes.tolist()):
                pairs = patterns[code]
                assert sum(e * f for e, f in pairs) == field.degree, (name, p)
                for k in range(1, field.degree + 1):
                    assert sum(1 for _, f in pairs if f == k) \
                        <= field.degree // k, (name, p, k)
                assert sum(f for _, f in pairs) <= field.degree, (name, p)

    def test_non_maximal_order_poly_still_exact_at_index_prime(self):
        # x^2 + 4 defines the Gaussian field through a non-maximal order;
        # the quadratic route uses the fundamental discriminant, so the
        # splitting at 2 is still exact
        from nfmertens.field import descriptor_text, load_field
        fd = load_field("poly = [4, 0, 1]\n")
        assert fd.discriminant == -4
        assert splitting_type(fd, 2).pairs == ((2, 1),)
        assert splitting_type(fd, 5).pairs == ((1, 1), (1, 1))

    def test_index_prime_error_same_through_records_and_sieve(self, corpus,
                                                              monkeypatch):
        field = corpus["non-monogenic-cubic"]
        batched = []
        ctx = field_context(field)
        e, key, codes = ctx.route_for(field)
        monkeypatch.setattr(ctx, "route", (e, lambda block: batched.append(block), codes))
        raised = []
        for call in (prime_ideals_up_to, ideal_count_sieve):
            with pytest.raises(IndexPrimeUnsupported) as err:
                call(field, 1000)
            raised.append((str(err.value), err.value.p))
        assert raised[0] == raised[1]
        assert raised[0][1] == 2
        # the exact pipeline ran first: no batched work, no prime tabled
        assert batched == []
        assert ctx.table_xmax == 0
        assert len(ctx.primes) == len(ctx.codes) == 0


def exact_pattern(coeffs, p):
    """Pattern of a monic f squarefree mod p, from the factorization pipeline."""
    [(g, mult)] = _squarefree_parts(tuple(c % p for c in coeffs), p)
    assert mult == 1
    return tuple((1, d) for prod, d in _distinct_degree_parts(g, p)
                 for _ in range((len(prod) - 1) // d))


def frobenius_patterns(coeffs, disc, primes):
    """The Frobenius type of each Frobenius key of monic f at the primes;
    a key Stickelberger's theorem rules out has none, a KeyError."""
    keys = _frobenius_keys(coeffs, disc, np.array(primes, dtype=np.int64))
    bits = list(product((False, True), repeat=3))
    return [_FROBENIUS_TYPES[len(coeffs) - 1][bits[k]] for k in keys.tolist()]


class TestBatchedFrobenius:
    def test_table_agrees_with_pipeline_to_1e5(self, corpus):
        # x^4 - 2 and the unkeyed cyclic cubic: no corpus field takes the
        # Frobenius route
        fields = {name: corpus[name] for name in BATCHED_FIELDS}
        frobenius = {"x^4-2": load_field(X4_MINUS_2),
                     "cyclic-cubic-49 unkeyed": load_field(CYCLIC_CUBIC_UNKEYED)}
        for name, field in {**fields, **frobenius}.items():
            primes, codes, patterns = _splitting_table(field, 10 ** 5)
            key = field_context(field).route[1]
            assert (getattr(key, "func", None) is _frobenius_keys) == (name in frobenius), name
            assert len(primes) == 9592
            for p, code in zip(primes.tolist(), codes.tolist()):
                assert patterns[code] == _pattern_mod_p(field, p), (name, p)

    def test_top_prime_below_cap(self, corpus):
        p = TOP_PRIME
        assert p == sympy.prevprime(DENSE_SIEVE_CAP)
        for name in BATCHED_FIELDS:
            field = corpus[name]
            coeffs = field.defining_poly.coeffs
            disc = poly_discriminant(field.defining_poly)
            assert disc % p
            assert frobenius_patterns(coeffs, disc, [p]) == [_pattern_mod_p(field, p)], name

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
        assert frobenius_patterns(coeffs, disc, primes) \
            == [exact_pattern(coeffs, p) for p in primes]


def reduced(coeffs, f, p):
    """The integer polynomial coeffs mod (f, p) in Python ints, padded to
    deg f coefficients."""
    r = _pmod(tuple(c % p for c in coeffs), f, p)
    return list(r) + [0] * (len(f) - 1 - len(r))


def columns(rows):
    """Each column of a 2-d array as a list of Python ints."""
    return [list(col) for col in zip(*np.asarray(rows).tolist())]


class TestDelayedReduction:
    """The unreduced sums of the Frobenius kernel at the top prime, every
    input at its largest value p - 1, against Python-int arithmetic."""

    P = TOP_PRIME

    def inputs(self, d, width=3):
        # neg[t] = -f_t = p - 1 for every t: f = x^d + ... + x + 1 mod p
        p = self.P
        primes = np.full(width, p, dtype=np.int64)
        neg = np.full((d, width), p - 1, dtype=np.int64)
        f = (1,) * (d + 1)
        return primes, neg, f

    @pytest.mark.parametrize("d", [3, 4])
    def test_fold_table(self, d):
        primes, neg, f = self.inputs(d)
        xk = _fold_table(neg, primes)
        for k in range(d):
            expected = reduced((0,) * (d + k) + (1,), f, self.P)
            assert columns(xk[k]) == [expected] * len(primes), k

    @pytest.mark.parametrize("d", [3, 4])
    def test_square_and_fold(self, d):
        p = self.P
        primes, neg, f = self.inputs(d)
        r = np.full((d, len(primes)), p - 1, dtype=np.int64)
        s = _product(r, r)
        # coefficient k of the square sums min(k + 1, 2d - 1 - k) products
        exact = [0] * (2 * d)
        for i in range(d):
            for j in range(d):
                exact[i + j] += (p - 1) ** 2
        assert max(exact) == d * (p - 1) ** 2 < 2 ** 63
        assert columns(s) == [exact] * len(primes)
        # the square, and the square shifted up one place (times x)
        for t in (exact, [0] + exact[:-1]):
            got = _fold(np.array([t] * len(primes), dtype=np.int64).T,
                        _fold_table(neg, primes), primes)
            assert columns(got) == [reduced(t, f, p)] * len(primes)

    @pytest.mark.parametrize("d", [3, 4])
    def test_fold_at_its_bound(self, d):
        # every unreduced coefficient at the most a square or product sums,
        # d (p - 1)^2; each low coefficient then gains d products more
        p = self.P
        primes, neg, f = self.inputs(d)
        t = [d * (p - 1) ** 2] * (2 * d)
        assert 2 * d * (p - 1) ** 2 < 8 * 10 ** 16 < 2 ** 63
        got = _fold(np.array([t] * len(primes), dtype=np.int64).T,
                    _fold_table(neg, primes), primes)
        assert columns(got) == [reduced(t, f, p)] * len(primes)

    def test_quartic_product(self):
        p = self.P
        primes, neg, f = self.inputs(4)
        a = np.full((4, len(primes)), p - 1, dtype=np.int64)
        b = a.copy()
        b[:, 1] = [p - 1, 0, p - 2, 1]
        got = columns(_fold(_product(a, b), _fold_table(neg, primes), primes))
        for col, bcol in zip(got, columns(b)):
            assert col == reduced(_pmul((p - 1,) * 4, tuple(bcol), p), f, p)

    @pytest.mark.parametrize("d", [3, 4])
    def test_xpow(self, d):
        p = self.P
        primes, neg, f = self.inputs(d, width=4)
        e = np.array([p, p - 1, (p - 1) // 2, 1], dtype=np.int64)
        got = columns(_xpow(e, _fold_table(neg, primes), primes))
        assert got == [reduced(_ppowmod((0, 1), k, f, p), f, p) for k in e.tolist()]

    def test_euler_square_at_top_prime(self):
        p = self.P
        primes = np.full(4, p, dtype=np.int64)
        a = np.array([p - 1, 1, 2, 3], dtype=np.int64)
        assert _euler_square(a, primes).tolist() == \
            [kronecker(v, p) == 1 for v in a.tolist()]

    def test_empty_block(self, corpus):
        empty = np.empty(0, dtype=np.int64)
        assert _euler_square(empty, empty).tolist() == []
        for name in BATCHED_FIELDS:
            field = corpus[name]
            keys = _frobenius_keys(field.defining_poly.coeffs,
                                   poly_discriminant(field.defining_poly), empty)
            assert keys.tolist() == [], name


def kronecker_pattern(disc, p):
    """Splitting of p in the quadratic field of discriminant disc, read from
    the scalar Kronecker symbol."""
    return {1: ((1, 1), (1, 1)), -1: ((1, 2),), 0: ((2, 1),)}[kronecker(disc, p)]


def tabulate_quadratic(disc, primes):
    """The table's patterns for primes in the quadratic field of discriminant
    disc, without a descriptor: the residue-class route for
    |disc| <= CLASS_TABLE_MAX, e = 1, and Euler's criterion past it, e = 2D."""
    field = SimpleNamespace(degree=2, discriminant=disc, abs_discriminant=abs(disc),
                            cyclotomic=None)
    ctx = FieldContext()
    assert ctx.route_for(field)[0] == (1 if abs(disc) <= CLASS_TABLE_MAX else 2 * disc)
    codes = _tabulate(field, ctx, np.array(primes, dtype=np.int64))
    return [ctx.patterns[c] for c in codes.tolist()]


class TestBatchedQuadratic:
    def test_character_matches_kronecker_to_1e5(self, corpus):
        # through the residue-class table: every prime, 2 and p | D included
        quadratics = [f for f in corpus.values() if f.degree == 2]
        assert len(quadratics) == 7
        for field in quadratics:
            assert field_context(field).route_for(field)[0] == 1
            primes, codes, patterns = _splitting_table(field, 10 ** 5)
            assert len(primes) == 9592
            for p, code in zip(primes.tolist(), codes.tolist()):
                assert patterns[code] == kronecker_pattern(field.discriminant, p), \
                    (field.discriminant, p)

    def test_top_prime_below_cap(self, corpus):
        for field in corpus.values():
            if field.degree == 2:
                assert tabulate_quadratic(field.discriminant, [TOP_PRIME]) \
                    == [kronecker_pattern(field.discriminant, TOP_PRIME)]

    @given(st.lists(st.integers(min_value=10 ** 5, max_value=10 ** 7).map(sympy.nextprime),
                    min_size=4, max_size=6, unique=True),
           st.sampled_from((1, -1)),
           st.lists(st.integers(min_value=2, max_value=DENSE_SIEVE_CAP - 12)
                    .map(sympy.nextprime), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    @example([100_003, 100_019, 100_043, 100_049], -1, [3, 99_999_989])
    def test_discriminants_beyond_int64(self, factors, sign, primes):
        # a product of distinct odd primes is squarefree, so m (m = 1 mod 4)
        # or 4m (m = 3 mod 4) is a fundamental discriminant
        m = sign * math.prod(factors)
        disc = m if m % 4 == 1 else 4 * m
        assert abs(disc) >= 2 ** 63
        # 2 and the factors of m take the scalar route
        primes = sorted({2, *factors, *primes})
        assert tabulate_quadratic(disc, primes) == [kronecker_pattern(disc, p) for p in primes]


def cyclotomic_field(m):
    """Q(zeta_m) defined by Phi_m with no certificate keys; Z[zeta_m] is its
    ring of integers, so its discriminant is that of Phi_m."""
    coeffs = [int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(m)).all_coeffs())]
    n = len(coeffs) - 1
    invariants = (f"signature = [0, {n // 2}]\n"
                  f"discriminant = {poly_discriminant(IntPoly.of(coeffs))}\n")
    return load_field(f"poly = {coeffs}\n" + (invariants if n >= 3 else ""))


def gauss_period_field(m, subgroup):
    """The real subfield of Q(zeta_m) fixed by subgroup, which holds -1,
    defined by the minimal polynomial of its Gauss period, the sum of
    zeta_m^h over h in subgroup, and certified by that root. The stated
    discriminant is the polynomial's, which is all the splitting reads."""
    units = [a for a in range(m) if math.gcd(a, m) == 1]
    cosets = {frozenset(a * h % m for h in subgroup) for a in units}
    periods = [sum(math.cos(2 * math.pi * h / m) for h in coset) for coset in cosets]
    coeffs = [round(c) for c in reversed(np.poly(periods))]
    root = [int(k in subgroup) for k in range(m)]
    field = load_field(
        f"poly = {coeffs}\nsignature = [{len(cosets)}, 0]\n"
        f"discriminant = {poly_discriminant(IntPoly.of(coeffs))}\n"
        f"conductor = {m}\ncyclotomic_root = {root}\n")
    assert field.cyclotomic.subgroup == frozenset(subgroup)
    return field


# every real subfield of degree 3 or 4 of conductor m <= 40, by the subgroup
# of (Z/m)^x fixing it
REAL_SUBFIELDS = [
    (7, {1, 6}), (9, {1, 8}), (13, {1, 5, 8, 12}), (19, {1, 7, 8, 11, 12, 18}),
    (31, {1, 2, 4, 8, 15, 16, 23, 27, 29, 30}),
    (37, {1, 6, 8, 10, 11, 14, 23, 26, 27, 29, 31, 36}),
    (15, {1, 14}), (16, {1, 15}), (17, {1, 4, 13, 16}), (20, {1, 19}),
    (24, {1, 23}), (35, {1, 11, 16, 19, 24, 34}), (39, {1, 16, 17, 22, 23, 38}),
    (40, {1, 9, 31, 39}), (40, {1, 11, 29, 39}),
]


def assert_table_matches_pipeline(field, x):
    """The residue-class table's pattern equals _pattern_mod_p at every prime
    <= x that is not an index prime."""
    expected = {}
    for p in rational_primes(x).tolist():
        try:
            expected[p] = _pattern_mod_p(field, p)
        except IndexPrimeUnsupported:
            pass
    kept = np.array(list(expected), dtype=np.int64)
    assert table_patterns(field, kept) == list(expected.values())


class TestResidueClassTable:
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 10, 12])
    def test_cyclotomic_matches_pipeline_to_1e5(self, m):
        field = cyclotomic_field(m)
        assert field.cyclotomic.conductor == m
        assert field.cyclotomic.subgroup == {1}
        assert_table_matches_pipeline(field, 10 ** 5)

    @pytest.mark.parametrize("m, subgroup", REAL_SUBFIELDS,
                             ids=[f"{m}-{sorted(h)[1]}" for m, h in REAL_SUBFIELDS])
    def test_real_subfield_matches_pipeline_to_1e5(self, m, subgroup):
        assert_table_matches_pipeline(gauss_period_field(m, subgroup), 10 ** 5)

    def test_degree_five_and_six_match_pipeline_to_1e4(self):
        # Q(zeta_11)^+ by its key and Q(zeta_7) by Phi_7: no batched kernel
        # exists, so every prime took the exact pipeline before the table
        for field in (gauss_period_field(11, {1, 10}), cyclotomic_field(7)):
            assert field.degree in (5, 6)
            assert_table_matches_pipeline(field, 10 ** 4)

    def test_abelian_corpus_matches_kernels_to_1e5(self, corpus):
        primes = rational_primes(10 ** 5)
        fields = [f for f in corpus.values() if f.degree == 2] \
            + [corpus["cyclotomic5"], corpus["cyclic-cubic-49"]]
        for field in fields:
            assert table_patterns(field, primes) == kernel_patterns(field, primes)

    def test_euler_past_the_table_cap(self, monkeypatch):
        # with the cap at 5 the quadratics of |D| <= 5 keep their table and
        # the rest take Euler's criterion; both routes read kronecker(D, p)
        monkeypatch.setattr(splitting, "CLASS_TABLE_MAX", 5)
        primes = rational_primes(10 ** 5).tolist()
        routes = set()
        for text in (path.read_text() for path in sorted(GAUSS_PATH.parent.glob("*.field"))):
            field = load_field(text)  # a fresh context under the patched cap
            if field.degree != 2:
                continue
            tabled = field_context(field).route_for(field)[0] == 1
            assert tabled == (field.abs_discriminant <= 5)
            routes.add(tabled)
            _, codes, patterns = _splitting_table(field, 10 ** 5)
            assert [patterns[c] for c in codes.tolist()] \
                == [kronecker_pattern(field.discriminant, p) for p in primes]
        assert routes == {True, False}

    def test_index_primes_keep_the_exact_pipeline(self):
        # beta = 2 (zeta_7 + zeta_7^-1) is a root of x^3 + 2x^2 - 8x - 8, of
        # discriminant 2^6 49: 2 divides the index of Z[beta], and the exact
        # pipeline raises there before any table lookup
        field = load_field("poly = [-8, -8, 2, 1]\nsignature = [3, 0]\n"
                           "discriminant = 49\nconductor = 7\n"
                           "cyclotomic_root = [0, 2, 0, 0, 0, 0, 2]\n")
        ctx = field_context(field)
        assert ctx.route_for(field)[0] == 7 * 2 ** 6 * 49  # m disc(f)
        with pytest.raises(IndexPrimeUnsupported) as err:
            _splitting_table(field, 1000)
        assert err.value.p == 2
        assert ctx.table_xmax == 0 and len(ctx.codes) == 0


# Q(zeta_8): three primes in four have two ideals of norm p^2
X4_PLUS_1 = "poly = [1, 0, 0, 0, 1]\ndiscriminant = 256\nsignature = [0, 2]\n"
# Q(2^(1/5)), of degree 5 and pure: the Kummer route; x^5 - x - 1, of degree
# 5, neither abelian nor pure: no route, so every prime takes the exact
# pipeline; Q(2^(1/4)), a quartic with the Frobenius route
X5_MINUS_2 = "poly = [-2, 0, 0, 0, 0, 1]\ndiscriminant = 50000\nsignature = [1, 2]\n"
X5_MINUS_X_MINUS_1 = "poly = [-1, -1, 0, 0, 0, 1]\ndiscriminant = 2869\nsignature = [1, 2]\n"
X4_MINUS_2 = "poly = [-2, 0, 0, 0, 1]\ndiscriminant = -2048\nsignature = [2, 1]\n"
# a quadratic field past the class-table cap, D = 4 * 100,003 = 400,012
WIDE_QUADRATIC = "poly = [-100003, 0, 1]\n"


class TestRoute:
    """The one route of each field: the primes dividing its e, and only
    those, take the exact pipeline, and a code of -1 is an error."""

    # e of each field's route; Q and the table quadratics send no prime to
    # the exact pipeline, and x^5 - x - 1 sends every one. The pure fields
    # cbrt2 and x^5 - 2 have e = l a, the cyclic cubic m disc(f) with its
    # certificate and 2 disc(f) on the Frobenius pass without it
    E = {"rationals": 1, "eisenstein": 1, "gaussian": 1, "golden": 1,
         "sqrt-163": 1, "sqrt-7": 1, "sqrt2": 1, "sqrt3": 1,
         "cbrt2": 3 * 2, "cyclic-cubic-49": 7 * 49, "cyclotomic5": 5 * 125,
         "cyclic-cubic-49 unkeyed": 2 * 49,
         "x^4+1": 8 * 256, "x^4-2": 2 * -2048, "x^5-2": 5 * 2, "x^5-x-1": None,
         "D=400012": 2 * 400_012}

    def test_exact_pipeline_takes_the_primes_dividing_e(self, monkeypatch):
        # fresh descriptors of every corpus field that loads fully, and more
        reached = []
        pairs_for = splitting._pairs_for
        monkeypatch.setattr(splitting, "_pairs_for",
                            lambda field, p: reached.append(p) or pairs_for(field, p))
        primes = rational_primes(10 ** 5).tolist()
        texts = {path.stem: path.read_text()
                 for path in sorted(GAUSS_PATH.parent.glob("*.field"))
                 if path.stem != "non-monogenic-cubic"}
        texts.update({"cyclic-cubic-49 unkeyed": CYCLIC_CUBIC_UNKEYED,
                      "x^4+1": X4_PLUS_1, "x^4-2": X4_MINUS_2, "x^5-2": X5_MINUS_2,
                      "x^5-x-1": X5_MINUS_X_MINUS_1, "D=400012": WIDE_QUADRATIC})
        fields = {name: load_field(text) for name, text in texts.items()}
        assert fields.keys() == self.E.keys()
        for name, field in fields.items():
            reached.clear()
            _splitting_table(field, 10 ** 5)
            route = field_context(field).route
            e = None if route is None else route[0]
            assert e == self.E[name], name
            assert reached == [p for p in primes if e is None or e % p == 0], name

    def test_degree_one_past_the_table(self):
        # Q's class route is p mod 1; past the table, and with no table,
        # the exact pipeline factors the linear f
        for text in ((GAUSS_PATH.parent / "rationals.field").read_text(), "poly = [-5, 1]\n"):
            field = load_field(text)
            assert splitting_type(field, 100_003).pairs == ((1, 1),)
            assert splitting_type(field, 5).pairs == ((1, 1),)
            assert field_context(field).table_xmax == 0
            _, codes, patterns = _splitting_table(field, 1000)
            assert {patterns[c] for c in codes.tolist()} == {((1, 1),)}

    @pytest.mark.parametrize("text", ["cbrt2", "cyclotomic5", X4_MINUS_2,
                                      CYCLIC_CUBIC_UNKEYED],
                             ids=["cbrt2", "cyclotomic5", "x^4-2", "cyclic-cubic-49 unkeyed"])
    def test_a_ruled_out_key_raises(self, text):
        # a key Stickelberger's theorem or the Kummer rule rules out, or a
        # class not prime to m
        if "=" not in text:
            text = (GAUSS_PATH.parent / f"{text}.field").read_text()
        field = load_field(text)
        _splitting_table(field, 1000)
        ctx = field_context(field)
        e, key, codes = ctx.route_for(field)
        out = int(np.flatnonzero(codes < 0)[0])
        table = ctx.primes.copy(), ctx.codes.copy()
        ctx.route = e, lambda block: np.full(len(block), out), codes
        with pytest.raises(InvariantViolation, match="rules out"):
            _splitting_table(field, 2000)
        assert ctx.table_xmax == 1000
        assert ctx.primes.tolist() == table[0].tolist()
        assert ctx.codes.tolist() == table[1].tolist()


def pure_field(ell, a):
    """The field of x^ell - a, ell an odd prime and a not an ell-th power, with
    one real root; the stated discriminant is the polynomial's, which is all
    the splitting reads."""
    coeffs = [-a] + [0] * (ell - 1) + [1]
    return load_field(f"poly = {coeffs}\nsignature = [1, {(ell - 1) // 2}]\n"
                      f"discriminant = {poly_discriminant(IntPoly.of(coeffs))}\n")


def kummer_patterns(field, primes):
    """The Kummer route's pattern at each prime, none dividing its e."""
    patterns = []
    _, key, codes = _kummer_route(field, patterns)
    return [patterns[c] for c in codes[key(np.array(primes, dtype=np.int64))].tolist()]


class TestKummerRoute:
    """x^l - a, l an odd prime, reads its splitting from p mod l and
    a^((p-1)/l) mod p; the exact pipeline is its oracle."""

    @pytest.mark.parametrize("ell, a", [(3, 5), (5, 2), (7, 3)])
    def test_table_matches_pipeline_to_1e4(self, ell, a):
        # Z[a^(1/l)] is maximal for these (a^l != a mod l^2, a squarefree),
        # so no prime raises; the primes dividing l a take the pipeline
        field = pure_field(ell, a)
        primes, codes, patterns = _splitting_table(field, 10 ** 4)
        assert field_context(field).route[0] == ell * a
        assert len(primes) == 1229
        assert [patterns[c] for c in codes.tolist()] == \
            [_pattern_mod_p(field, p) for p in primes.tolist()]
        # every pattern of the route's code table occurs
        table = field_context(field).route[2]
        assert set(table[table >= 0].tolist()) <= set(codes.tolist())

    @given(st.sampled_from((3, 5, 7)),
           st.integers(-10 ** 6, 10 ** 6),
           st.lists(st.integers(min_value=2, max_value=DENSE_SIEVE_CAP - 12)
                    .map(sympy.nextprime), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    @example(3, -10 ** 6 + 1, [7, 13, 99_999_989])
    @example(7, 999_999, [29, 43, 71, 99_999_989])
    def test_random_pure_fields(self, ell, a, primes):
        assume(splitting._iroot(abs(a), ell) ** ell != abs(a))
        field = pure_field(ell, a)
        primes = sorted({p for p in primes if (ell * a) % p})
        assume(primes)
        assert kummer_patterns(field, primes) == [_pattern_mod_p(field, p) for p in primes]

    def test_a_power_with_no_lth_root_of_one_raises(self, monkeypatch):
        # a power t with t^l != 1 mod p is no power residue symbol: its prime
        # gets a ruled-out key, not the inert pattern of t != 1
        field = load_field((GAUSS_PATH.parent / "cbrt2.field").read_text())
        monkeypatch.setattr(splitting, "_powmod",
                            lambda a, e, primes: np.full_like(primes, 2))
        with pytest.raises(InvariantViolation, match="p = 7 has a key"):
            _splitting_table(field, 1000)
        assert field_context(field).table_xmax == 0

    def test_index_prime_still_raises(self):
        # x^3 - 10: 10 = 1 mod 9, so 3 divides the index of Z[10^(1/3)] and
        # D_K = -300 = disc(f) / 9; 3 divides e = 30 and takes the pipeline
        field = load_field("poly = [-10, 0, 0, 1]\nsignature = [1, 1]\n"
                           "discriminant = -300\n")
        with pytest.raises(IndexPrimeUnsupported) as err:
            _splitting_table(field, 100)
        assert err.value.p == 3
        assert field_context(field).route[0] == 30


def _ideal_records(primes, codes, patterns, xi):
    """(norm, p, f) rows, one per prime ideal of norm <= xi, sorted by
    (norm, p): the construction the merged columns replaced, kept as their
    oracle. Each degree f gives a run sorted by norm, and a stable argsort
    merges the runs."""
    parts = [np.empty((0, 3), dtype=np.int64)]
    for f in sorted({f for pairs in patterns for _, f in pairs}):
        per_prime = np.array([sum(g == f for _, g in pairs) for pairs in patterns])
        k = np.searchsorted(primes, splitting._iroot(xi, f), "right")
        p = np.repeat(primes[:k], per_prime[codes[:k]])
        parts.append(np.column_stack((p ** f, p, np.full_like(p, f))))
    records = np.concatenate(parts)
    return records[np.argsort(records[:, 0], kind="stable")]


class TestRecordArray:
    def test_matches_splitting_type_at_1e5(self, corpus):
        x = 10 ** 5
        primes = rational_primes(x).tolist()
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            expected = sorted([p ** f, p, f] for p in primes
                              for _, f in splitting_type(field, p).pairs if p ** f <= x)
            records = _records_up_to(field, x)
            assert records.dtype == np.int64 and records.shape == (len(expected), 3)
            assert records.tolist() == expected, name
            # 961 = 31^2 and 997 are norms in some fields, 1000 in none
            for y in (961, 997, 1000):
                assert _records_up_to(field, y).tolist() == \
                    [r for r in expected if r[0] <= y], (name, y)

    def test_columns_match_the_record_oracle(self, corpus):
        # the one-piece merge kept as the stream's oracle and the dump's
        # three columns, joined from the stream, equal the rows of the old
        # (k, 3) construction
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            for xi in (10 ** 5, 961, 997, 1000):
                table = _splitting_table(field, xi)
                oracle = _ideal_records(*table, xi)
                [norms] = ideal_columns(*table, xi)
                assert norms.tolist() == oracle[:, 0].tolist(), (name, xi)
                assert np.column_stack(ideal_columns(*table, xi, p_and_f=True)) \
                    .tolist() == oracle.tolist(), (name, xi)
                records = _records_up_to(field, xi)
                assert records.dtype == np.int64
                assert records.tolist() == oracle.tolist(), (name, xi)

    def test_prime_powers_near_the_cap(self, monkeypatch):
        # int64 powers of primes near 1e8 wrap, 99,999,989^6 to a negative
        # number, so only p <= x^(1/f) may be raised to the power f
        assert (np.array([TOP_PRIME]) ** 6)[0] < 0
        top = [TOP_PRIME]
        while len(top) < 12:
            top.insert(0, sympy.prevprime(top[0]))
        primes = rational_primes(50).tolist() + top
        patterns = [((1, 5),), ((1, 6),), ((1, 7),), ((1, 8),), ((1, 1), (1, 5))]
        codes = [i % len(patterns) for i in range(len(primes))]
        every = sorted([p ** f, p, f] for p, c in zip(primes, codes)
                       for _, f in patterns[c])
        in_range = [n for n, _, _ in every if n <= DENSE_SIEVE_CAP]
        assert max(in_range) > 10 ** 7
        table = (np.array(primes, dtype=np.int64), np.array(codes, dtype=np.uint8),
                 patterns)
        # the stream reads this table, cut at its top, in blocks of 5 primes
        monkeypatch.setattr(splitting, "_PRIME_BLOCK", 5)
        monkeypatch.setattr(splitting, "_splitting_table", lambda field, n: (
            table[0][:np.searchsorted(table[0], n, "right")],
            table[1][:np.searchsorted(table[0], n, "right")], patterns))
        for xi in sorted({DENSE_SIEVE_CAP, *in_range, *(n - 1 for n in in_range)}):
            expected = [r for r in every if r[0] <= xi]
            assert _ideal_records(*table, xi).tolist() == expected, xi
            columns = ideal_columns(*table, xi, p_and_f=True)
            assert np.column_stack(columns).tolist() == expected, xi
            [norms] = ideal_columns(*table, xi)
            assert norms.tolist() == [n for n, _, _ in expected], xi
            assert _records_up_to(None, xi).tolist() == expected, xi


STREAM_X = 3000


def _stream_fields(corpus):
    fields = {name: field for name, field in corpus.items()
              if name != "non-monogenic-cubic"}
    return {**fields, "x^4+1": load_field(X4_PLUS_1)}


def _joined(field, top, p_and_f=False):
    blocks = _ideal_stream(field, top, p_and_f)
    return np.concatenate([np.empty((3 if p_and_f else 1, 0), dtype=np.int64),
                           *blocks], axis=1)


class TestIdealStream:
    """The prime-ideal stream against the one-piece merge it replaced
    (splitting_oracle.ideal_columns), with blocks of 1, 2, 7 and 1000 primes
    and cutoffs on, just before and just after every norm p^f, f >= 2, and
    every block edge."""

    @pytest.fixture(params=[1, 2, 7, 1000], autouse=True)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(splitting, "_PRIME_BLOCK", request.param)
        return request.param

    @staticmethod
    def edges(field, block):
        """The cutoffs next to every norm p^f, f >= 2, and every block edge,
        up to STREAM_X."""
        primes, _, _ = _splitting_table(field, STREAM_X)
        norms, _, f = ideal_columns(*_splitting_table(field, STREAM_X), STREAM_X,
                                    p_and_f=True)
        marks = {*norms[f >= 2].tolist(), *primes[::block].tolist()}
        return sorted({x + d for x in marks for d in (-1, 0, 1)} & set(range(STREAM_X + 1)))

    def test_mertens_pass_at_every_edge(self, corpus, block, monkeypatch):
        # each block is cut at its own ends of a grid on, just below and just
        # above every norm p^f and every block edge, in slices of 5 terms;
        # the truncation cutoff is one more cutoff of the same pass. Every
        # block reads every cutoff, so the smaller blocks stop at 1000
        monkeypatch.setattr(blockpass, "_SLICE", 5)
        kappa = Residue(value=1.0, provenance=PROVENANCE_EXACT)
        x = {1: 1000, 2: 1000}.get(block, STREAM_X)
        for name, field in _stream_fields(corpus).items():
            [norms] = ideal_columns(*_splitting_table(field, x), x)
            grid = [float(t) for t in self.edges(field, block) if norms[0] <= t <= x]
            sums = list(zip(*mertens_sums(field, grid)))
            for truncation_x in sorted({max(10.0, grid[i]) for i in (0, len(grid) // 2, -1)}):
                with patch.object(mertens, "EULER_GAMMA", 0.0):
                    mconst, rows = mertens_grid(field, grid, truncation_x, kappa)
                assert mconst.M_K == mertens_series(field, truncation_x), (name, truncation_x)
                for row, (lnn, rec, l1p) in zip(rows, sums):
                    assert (row.sum_logN_over_N, row.sum_recip, row.product) == \
                        (lnn, rec, math.exp(l1p)), (name, truncation_x, row.x)

    @pytest.mark.parametrize("name, least", [("eisenstein", 3), ("golden", 4),
                                             ("cyclotomic5", 5)])
    def test_empty_product_below_the_least_norm(self, corpus, name, least):
        # with one prime a block, the blocks before the least norm are empty;
        # below it every sum is empty, 0, and the product is empty, 1
        field = corpus[name]
        kappa = Residue(value=1.0, provenance=PROVENANCE_EXACT)
        mconst = mertens_constant(field, 10, kappa)
        for grid in ([least - 1.0], [least - 0.5, 100.0], [2.0, least - 0.5, least]):
            rows = mertens_table(field, grid, mconst, kappa)
            assert mertens_grid(field, grid, 10, kappa) == (mconst, rows), grid
            for row in rows:
                if row.x < least:
                    assert (row.sum_logN_over_N, row.sum_recip, row.product) == \
                        (0.0, 0.0, 1.0), (grid, row.x)
        # one ideal, of norm least, lies above each least; its term is numpy's
        for grid in ([least], [least + 0.5, 100.0]):
            [row, *_] = mertens_table(field, grid, mconst, kappa)
            assert (row.sum_recip, row.product) == \
                (1 / least, math.exp(np.log1p(-1 / least))), grid
            assert mertens_grid(field, grid, 10, kappa)[1][0] == row

    def test_blocks_hold_their_primes(self, corpus, block):
        # each block holds the ideals of norm from its first prime up to the
        # next block's first, so a pass can tell where a block starts
        for name, field in _stream_fields(corpus).items():
            primes, _, _ = _splitting_table(field, STREAM_X)
            starts = primes[::block].tolist()
            blocks = list(_ideal_stream(field, STREAM_X, p_and_f=True))
            assert len(blocks) == len(starts), name
            for norm, lo, hi in zip(blocks, starts, starts[1:] + [STREAM_X + 1]):
                assert ((lo <= norm[0]) & (norm[0] < hi)).all(), (name, lo)

    def test_joined_stream_is_the_oracle(self, corpus, block):
        # a stream ends at each cutoff, fewer of them for the smaller blocks
        x = {1: 200, 2: 200, 7: 1000}.get(block, STREAM_X)
        for name, field in _stream_fields(corpus).items():
            for top in [t for t in self.edges(field, block) if t <= x] + [x]:
                table = _splitting_table(field, top)
                assert _joined(field, top, True).tolist() == \
                    ideal_columns(*table, top, p_and_f=True).tolist(), (name, top)
            assert _joined(field, x).tolist() == ideal_columns(*table, x).tolist()

    def test_one_mertens_pass_is_the_two(self, corpus, monkeypatch):
        # slices of 5 terms end inside and at the ends of the stream's
        # blocks; the truncation cutoff falls below, on and above the grid's
        # top
        monkeypatch.setattr(blockpass, "_SLICE", 5)
        kappa = Residue(value=1.0, provenance=PROVENANCE_EXACT)
        grid = [10.0, 100.0, 1000.5]
        for name, field in _stream_fields(corpus).items():
            for truncation_x in (10, 999.5, 1000.5, 2000.0):
                mconst, rows = mertens_grid(field, grid, truncation_x, kappa)
                assert mconst == mertens_constant(field, truncation_x, kappa), name
                assert rows == mertens_table(field, grid, mconst, kappa), name
                assert mconst.M_K == EULER_GAMMA + mertens_series(field, truncation_x)
                for row, lnn, rec, l1p in zip(rows, *mertens_sums(field, grid)):
                    assert (row.sum_logN_over_N, row.sum_recip, row.product) == \
                        (lnn, rec, math.exp(l1p)), (name, truncation_x, row.x)


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


def fsum_of_prefixes(segments, term):
    """The value at the k-th point: one fsum of the terms of the first k
    segments."""
    return [math.fsum(chain.from_iterable(map(term, segments[:k + 1])))
            for k in range(len(segments))]


def index_cuts(segments):
    """The values of the segments as one float64 array, and the index in it
    where each segment ends."""
    values = np.array([v for seg in segments for v in seg], dtype=np.float64)
    return values, np.array(list(accumulate(map(len, segments))), dtype=np.int64)


def grid_values(blocks, cuts, terms, count=1):
    """Running sums of count series, one list each, by slices and
    segment_sums over the blocks, joined end to end and cut at the indices
    cuts."""
    parts = slices(blocks, lambda lo, block: np.clip(cuts - lo, 0, len(block)))
    return [running_fsums(ints) for ints in segment_sums(parts, terms, len(cuts), count)]


class TestGridFsums:
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e300, max_value=1e300)

    @given(st.lists(st.lists(finite, max_size=6), max_size=8), st.integers(1, 4),
           st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, segments, block, parts):
        # (v 1e-160)^2 is finite for |v| <= 1e300, and subnormal or 0 for
        # small v; a non-finite term raises (TestExactSum)
        def square(seg):
            return [(v * 1e-160) * (v * 1e-160) for v in seg]
        values, cuts = index_cuts(segments)
        # slices of 1 to 4 terms end inside and at the ends of segments, and
        # at the ends of 1 to 12 arrays that hold the values, some empty
        with patch.object(blockpass, "_SLICE", block):
            got = grid_values(np.array_split(values, parts), cuts, lambda k, a, v: (
                v, (v * 1e-160) ** 2), 2)
        assert got == [fsum_of_prefixes(segments, list),
                       fsum_of_prefixes(segments, square)]

    def test_empty_segments_and_repeated_cuts(self):
        # cuts [0, 0, 3, 3, 3, 5]: empty segments before, between and after
        # data, as grid points below the first term or with one floor give;
        # the cuts by index and by value (searchsorted) agree
        values = np.array([0.1, 1e16, -1e16, 0.2, 0.3])
        cuts = np.array([0, 0, 3, 3, 3, 5])
        [got] = grid_values([values], cuts, lambda k, a, v: (v,))
        segments = [values[a:b].tolist() for a, b in zip([0, *cuts], cuts)]
        assert got == fsum_of_prefixes(segments, list)
        assert got == [0.0, 0.0, 0.1, 0.1, 0.1, math.fsum(values)]
        keys = np.array([2, 3, 5, 7, 11])
        parts = slices([keys[:2], keys[2:]], lambda lo, block: np.searchsorted(
            block, [1, 2, 5, 6, 6, 11], "right"))
        assert [(k, a, part.tolist()) for k, a, part in parts] == \
            [(1, 0, [2]), (2, 1, [3]), (2, 2, [5]), (5, 3, [7, 11])]

    def test_segments_are_read_once(self, monkeypatch):
        # each part is made once, every series reads it, and it carries its
        # segment and its offset in the blocks joined end to end
        monkeypatch.setattr(blockpass, "_SLICE", 2)
        made = []

        def terms(k, a, v):
            made.append((k, a, a + len(v)))
            return v, v, v
        blocks = [np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0])]
        assert grid_values(blocks, np.array([1, 5]), terms, 3) == [[1.0, 15.0]] * 3
        assert made == [(0, 0, 1), (1, 1, 3), (1, 3, 5)]


def walk_every_segment(blocks, ends):
    """slices as it was when every block walked every segment: its oracle."""
    lo = 0
    for block in blocks:
        start = 0
        for k, end in enumerate(ends(lo, block).tolist()):
            for i in range(start, end, blockpass._SLICE):
                yield k, lo + i, block[i:min(i + blockpass._SLICE, end)]
            start = end
        lo += len(block)


class TestSlices:
    @given(st.lists(st.integers(0, 12), max_size=8),
           st.lists(st.integers(0, 80), max_size=30), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    @example([0, 5, 0, 5], [0, 0, 5, 5, 5, 10, 10], 2)
    def test_matches_walking_every_segment(self, sizes, ends, block):
        # blocks of 0 to 12 entries, some empty, cut at ascending ends that
        # repeat (empty segments), fall on block edges, and may stop short of
        # the last entry
        values = np.arange(sum(sizes), dtype=np.float64)
        blocks = np.split(values, np.cumsum(sizes)[:-1]) if sizes else []
        cuts = np.minimum(sorted(ends), len(values))

        def block_ends(lo, block):
            return np.clip(cuts - lo, 0, len(block))
        with patch.object(blockpass, "_SLICE", block):
            got = [(k, a, part.tolist()) for k, a, part in slices(blocks, block_ends)]
            want = [(k, a, part.tolist())
                    for k, a, part in walk_every_segment(blocks, block_ends)]
        assert got == want


def scaled(terms) -> int:
    """The exact sum of the float terms times 2^_SCALE, in Fractions."""
    total = sum(map(Fraction, terms), Fraction(0)) * 2 ** blockpass._SCALE
    assert total.denominator == 1
    return total.numerator


class TestExactSum:
    """exact_sum is the exact sum, and rounding it by int / 2**_SCALE gives
    math.fsum bit for bit."""

    @staticmethod
    def check(terms):
        got = exact_sum(np.array(terms, dtype=np.float64))
        assert got == scaled(terms)
        try:
            expected = math.fsum(terms)
        except OverflowError:  # fsum's partials overflowed, or the sum does
            return
        assert (got / (1 << blockpass._SCALE)).hex() == expected.hex()

    # every finite float64: both signs, subnormals, 0.0 and -0.0, and the
    # extreme exponents
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    @settings(max_examples=500, deadline=None)
    @example([])
    @example([5e-324])
    @example([-0.0])
    @example([1.7976931348623157e308, -1.7976931348623157e308, 5e-324])
    def test_any_floats(self, terms):
        self.check(terms)

    @given(st.lists(st.floats(min_value=-1e-300, max_value=1e-300), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_subnormal_range(self, terms):
        self.check(terms)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e300, max_value=1e300), max_size=20),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_cancellation_to_zero(self, terms, rnd):
        both = terms + [-t for t in terms]
        rnd.shuffle(both)
        assert exact_sum(np.array(both, dtype=np.float64)) == 0
        self.check(both)
        self.check(both + [1e-300])

    def test_empty_and_one_term(self):
        assert exact_sum(np.zeros(0)) == 0
        for t in (1.0, -3.5, 5e-324, 1.7976931348623157e308, 0.1):
            assert exact_sum(np.array([t])) / (1 << blockpass._SCALE) == t

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, bad):
        with pytest.raises(InvariantViolation):
            exact_sum(np.array([1.0, bad, -2.5]))
        with pytest.raises(InvariantViolation):
            grid_values([np.array([0.5, bad])], np.array([2]), lambda k, a, v: (v,))

    @staticmethod
    def full_part(seed, low, high):
        """_SLICE terms of random sign and mantissa, exponents low..high."""
        rng = np.random.default_rng(seed)
        mant = rng.uniform(0.5, 1.0, blockpass._SLICE) * rng.choice([-1.0, 1.0],
                                                                   blockpass._SLICE)
        return np.ldexp(mant, rng.integers(low, high + 1, blockpass._SLICE))

    # levels of 52 - 15 = 37 bits at _SLICE terms: a part with exponents
    # over the whole float64 range takes about 57 of them (most on the
    # scaled split path), one from 2^-200 to 2^200 about 13, one within
    # 2^-30 to 1 three
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("low, high", [(-1074, 1024), (-200, 200), (-30, 0)])
    def test_full_parts_over_the_exponent_range(self, seed, low, high):
        self.check(self.full_part(seed, low, high).tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_full_parts_cancel_to_zero(self, seed):
        half = self.full_part(seed, -1074, 1024)[:blockpass._SLICE // 2]
        both = np.concatenate([half, -half])
        np.random.default_rng(seed).shuffle(both)
        assert exact_sum(both) == 0
        self.check(both.tolist())
        both[0] = 5e-324  # the least subnormal, beside the largest floats
        self.check(both.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_full_parts_of_subnormals(self, seed):
        # multiples of 2^-1074 below 2^-1020: a quarter of them subnormal
        part = np.ldexp(np.random.default_rng(seed).integers(
            -2 ** 54, 2 ** 54, blockpass._SLICE).astype(np.float64), -1074)
        assert 0.2 < (np.abs(part) < 2.0 ** -1022).mean() < 0.3
        self.check(part.tolist())

    def test_the_scaled_split_path(self):
        # t + sigma overflows unless the largest term is below 2^(1022 - m),
        # with 2^m >= n + 2 (m = 15 at _SLICE): a part at or above it sums
        # its terms from 2^-900 scaled down by 2^-(m + 2), the rest as they are
        n = blockpass._SLICE
        bound = 2.0 ** (1022 - 15)
        for seed, top in enumerate((bound, math.nextafter(bound, 0.0), 2 * bound,
                                    1.7976931348623157e308)):
            part = self.full_part(seed, -1074, -800)
            part[::7] = top
            part[1::7] = -math.nextafter(top, 0.0)
            part[2::7] = 2.0 ** -900  # the first term of the scaled side
            part[3::7] = -math.nextafter(2.0 ** -900, 0.0)
            self.check(part.tolist())
        # n times the largest float is far past float range, but exact
        assert exact_sum(np.full(n, 1.7976931348623157e308)) == \
            scaled([1.7976931348623157e308]) * n

    def test_block_at_the_bound(self):
        # a level's q holds 53 - m bits of each term, 2^m >= n + 2, and its
        # partial sums are exact while they stay below 2^(e + m): at _SLICE
        # terms m = 15, and below the guard, n < 2^26, m <= 27, so every
        # level takes at least 26 bits
        assert 2 ** 15 >= blockpass._SLICE + 2 > 2 ** 14
        assert 2 ** 27 >= (blockpass._EXACT_TERMS - 1) + 2 > 2 ** 26
        # every mantissa bit set, the largest part at one exponent: each
        # first-level q rounds up to 2^e = 1, and their partial sums reach
        # n = 2^14, below sigma = 2^15
        top = math.nextafter(1.0, 0.0)
        for sign in (1.0, -1.0):
            terms = np.full(blockpass._SLICE, sign * top)
            assert exact_sum(terms) == scaled([sign * top]) * blockpass._SLICE
            assert exact_sum(terms) / (1 << blockpass._SCALE) == \
                math.fsum(terms.tolist())
        # the guard: 2^26 terms are refused before any is read (a broadcast
        # view, no memory)
        with pytest.raises(InvariantViolation):
            exact_sum(np.broadcast_to(1.0, (blockpass._EXACT_TERMS,)))


class TestFieldContext:
    TEXT = "poly = [-1, 3, 1]\n"

    def test_freed_with_descriptor(self):
        field = load_field(self.TEXT)
        theta_K(field, 1000)  # keeps no norm column
        ideal_count_sieve(field, 1000)  # keeps no row
        ctx = weakref.ref(field_context(field))
        assert len(ctx().primes)
        assert not any(hasattr(ctx(), name) for name in ("row", "norms", "norms_xmax"))
        del field
        gc.collect()
        assert ctx() is None

    def test_a_query_past_the_table_chooses_no_route(self, monkeypatch):
        # Q(sqrt 65021): its class table takes 65,021 Kronecker symbols, and
        # a single prime past an empty table takes the exact pipeline
        chosen = []
        route = splitting._route
        monkeypatch.setattr(splitting, "_route",
                            lambda field, patterns: chosen.append(1) or route(field, patterns))
        field = load_field("poly = [-16255, -1, 1]\n")
        assert field.abs_discriminant == 65_021 <= CLASS_TABLE_MAX
        assert splitting_type(field, 100_003).pairs == \
            kronecker_pattern(65_021, 100_003)
        assert chosen == [] and field_context(field).table_xmax == 0
        _splitting_table(field, 1000)
        assert chosen == [1] and field_context(field).route[0] == 1
        splitting_type(field, 100_019)
        _splitting_table(field, 2000)
        assert chosen == [1]

    def test_context_is_per_descriptor_and_not_compared(self):
        used = load_field(self.TEXT)
        ideal_count_sieve(used, 1000)
        assert used.context is not None and used.context.table_xmax == 1000
        fresh = load_field(self.TEXT)
        assert fresh.context is None
        assert used == fresh and hash(used) == hash(fresh)
        assert {used: "used"}[fresh] == "used"
        assert load_field(descriptor_text(used)) == used
        assert descriptor_text(used) == descriptor_text(fresh)
        assert "context" not in repr(used)
        assert field_context(used) is field_context(used) is used.context
        assert field_context(fresh) is not field_context(used)


class TestCheckGrid:
    def test_returns_floats_and_takes_its_endpoints(self):
        assert check_grid([2, 10]) == [2.0, 10.0]
        assert all(type(x) is float for x in check_grid((2, 10)))
        assert check_grid([0.0, 5.0], 0, 5.0) == [0.0, 5.0]
        assert check_grid([float(DENSE_SIEVE_CAP)]) == [1e8]

    @pytest.mark.parametrize("grid, match", [
        ([], "nonempty"), ([100.0, 10.0], "ascending"), ([10.0, 10.0], "ascending"),
        ([1.5, 10.0], "grid point 1.5"), ([10.0, math.nan], "grid point nan"),
        ([10.0, 200.0], "grid point 200")])
    def test_bad_grid_is_out_of_range(self, grid, match):
        with pytest.raises(CutoffOutOfRange, match=match):
            check_grid(grid, 2, 100.0)

    def test_point_past_the_cap_is_the_cap_error(self):
        with pytest.raises(DenseSieveCapExceeded):
            check_grid([10.0, DENSE_SIEVE_CAP + 1.0])
        # past a caller's own bound below the cap, it is the plain error
        with pytest.raises(CutoffOutOfRange) as info:
            check_grid([10.0, 20.0], 2, 10.0)
        assert type(info.value) is CutoffOutOfRange


# an int past float range, which float() and a :g format cannot take
HUGE = 10 ** 400
BAD_CUTOFFS = [math.nan, math.inf, -math.inf, 1e12, HUGE]
# summatory_grid once summed a descending grid up to its first point only:
# [9, 9] for gaussian at [1000, 10], though 787 ideals have norm <= 1000
BAD_GRIDS = [[], [1000.0, 10.0], [10.0, 10.0], [math.nan], [10.0, math.nan],
             [10.0, math.inf], [-math.inf, 10.0], [10.0, 1e12], [10.0, HUGE]]
MCONST = MertensConstant(M_K=0.0, tail_halfwidth=0.0, truncation_x=1e4)
SCALAR_ENTRY_POINTS = {
    "theta_K": theta_K,
    "prime_ideals_up_to": prime_ideals_up_to,
    "prime_power_sum": lambda field, x: prime_power_sum(x, 1.0),
    "ideal_count_sieve": ideal_count_sieve,
    "summatory": summatory,
    "t_K": t_K,
    "kappa_estimate": kappa_estimate,
    "legendre_mismatches": lambda field, x: legendre_chebyshev_mismatches(field, [x]),
}
GRID_ENTRY_POINTS = {
    "summatory_grid": summatory_grid,
    "mertens_table": lambda field, grid: mertens_table(
        field, grid, MCONST, kappa_exact(field)),
    "verify_all": lambda field, grid: verify_all(
        field, grid, kappa_exact(field), truncation_x=1e4),
    "prime_power_grid": lambda field, grid: prime_power_grid(grid, [1.0]),
}


def _case_id(name, arg) -> str:
    return f"{name}-{arg}".replace(str(HUGE), "10**400")


RANGE_CASES = [pytest.param(call, x, id=_case_id(name, x))
               for name, call in SCALAR_ENTRY_POINTS.items() for x in BAD_CUTOFFS] \
    + [pytest.param(call, grid, id=_case_id(name, grid))
       for name, call in GRID_ENTRY_POINTS.items() for grid in BAD_GRIDS]


@pytest.mark.parametrize("call, arg", RANGE_CASES)
def test_out_of_range_raises_before_any_sieve(monkeypatch, call, arg):
    # a descriptor of its own, with nothing cached, and every prime sieve
    # starts in _simple_sieve
    field = load_field(GAUSS_PATH.read_text())
    sieved = []
    monkeypatch.setattr(splitting, "_simple_sieve",
                        lambda limit: sieved.append(limit))
    with pytest.raises(CutoffOutOfRange) as info:
        call(field, arg)
    assert isinstance(info.value, ValueError)
    assert sieved == []
    assert field.context is None or field.context.table_xmax == 0
