import gc
import math
import weakref
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st
from sympy import kronecker_symbol

from nfmertens import splitting
from nfmertens.errors import (
    CompositeModulus,
    CutoffOutOfRange,
    DenseSieveCapExceeded,
    IndexPrimeUnsupported,
    InvariantViolation,
)
from nfmertens.field import descriptor_text, kappa_exact, load_field
from nfmertens.idealcount import (
    DENSE_SIEVE_CAP,
    ideal_count_sieve,
    kappa_estimate,
    legendre_chebyshev_rhs,
    summatory,
    summatory_grid,
    t_K,
)
from nfmertens.mertens import (
    MertensConstant,
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
    FROBENIUS_P_MAX,
    check_grid,
    exact_sum,
    grid_fsums,
    kronecker,
    prime_ideals_up_to,
    rational_primes,
    splitting_type,
    theta_K,
)
from nfmertens.splitting import (
    _INITIAL_PATTERNS,
    _class_codes,
    _euler_square,
    _fold,
    _fold_table,
    _frobenius_pairs,
    _ideal_records,
    _pattern_mod_p,
    _product,
    _records_up_to,
    _splitting_table,
    _tabulate,
    _xpow,
    field_context,
)
from nfmertens.verify import verify_all
from splitting_oracle import kernel_patterns, table_patterns

GAUSS_PATH = Path(__file__).resolve().parent.parent / "fields" / "gaussian.field"
BATCHED_FIELDS = ("cbrt2", "cyclic-cubic-49", "cyclotomic5")
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

    @pytest.mark.parametrize("n", [2, 3, 4, 1000, (1 << 20) - 1, 1 << 20,
                                   (1 << 20) + 1, (1 << 20) + 100])
    def test_matches_naive_sieve_at_segment_edges(self, n):
        assert rational_primes(n).tolist() == naive_primes(n)

    def test_non_integer_cutoff(self):
        assert rational_primes(7.9).tolist() == [2, 3, 5, 7]

    def test_minus_infinity_is_empty(self):
        assert rational_primes(-math.inf).tolist() == []

    @pytest.mark.parametrize("x", [math.nan, math.inf, DENSE_SIEVE_CAP + 1.0])
    def test_nan_and_past_the_cap_raise(self, x):
        with pytest.raises(CutoffOutOfRange):
            rational_primes(x)


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
        monkeypatch.setattr(splitting, "_frobenius_pairs",
                            lambda *args: batched.append(args))
        raised = []
        for call in (prime_ideals_up_to, ideal_count_sieve):
            with pytest.raises(IndexPrimeUnsupported) as err:
                call(field, 1000)
            raised.append((str(err.value), err.value.p))
        assert raised[0] == raised[1]
        assert raised[0][1] == 2
        # the exact pipeline ran first: no batched work, no prime tabled
        assert batched == []
        ctx = field_context(field)
        assert ctx.table_xmax == 0
        assert len(ctx.primes) == len(ctx.codes) == 0


def exact_pattern(coeffs, p):
    """Pattern of a monic f squarefree mod p, from the factorization pipeline."""
    [(g, mult)] = _squarefree_parts(tuple(c % p for c in coeffs), p)
    assert mult == 1
    return tuple((1, d) for prod, d in _distinct_degree_parts(g, p)
                 for _ in range((len(prod) - 1) // d))


class TestBatchedFrobenius:
    def test_table_agrees_with_pipeline_to_1e5(self, corpus):
        for name in BATCHED_FIELDS:
            field = corpus[name]
            primes, codes, patterns = _splitting_table(field, 10 ** 5)
            assert len(primes) == 9592
            for p, code in zip(primes.tolist(), codes.tolist()):
                assert patterns[code] == _pattern_mod_p(field, p), (name, p)

    def test_top_prime_below_cap(self, corpus):
        p = TOP_PRIME
        assert p == sympy.prevprime(DENSE_SIEVE_CAP) and FROBENIUS_P_MAX == DENSE_SIEVE_CAP
        for name in BATCHED_FIELDS:
            field = corpus[name]
            coeffs = field.defining_poly.coeffs
            disc = poly_discriminant(field.defining_poly)
            assert disc % p
            [code] = _frobenius_pairs(coeffs, disc, np.array([p]))
            assert _INITIAL_PATTERNS[field.degree][code] == _pattern_mod_p(field, p), name

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
        codes = _frobenius_pairs(coeffs, disc, np.array(primes, dtype=np.int64))
        assert [_INITIAL_PATTERNS[len(low)][c] for c in codes.tolist()] \
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
            codes = _frobenius_pairs(field.defining_poly.coeffs,
                                     poly_discriminant(field.defining_poly), empty)
            assert codes.tolist() == [], name


def kronecker_pattern(disc, p):
    """Splitting of p in the quadratic field of discriminant disc, read from
    the scalar Kronecker symbol."""
    return {1: ((1, 1), (1, 1)), -1: ((1, 2),), 0: ((2, 1),)}[kronecker(disc, p)]


def tabulate_quadratic(disc, primes):
    """The table's patterns for primes in the quadratic field of discriminant
    disc, without a descriptor or a context: the residue-class table for
    |disc| <= CLASS_TABLE_MAX, Euler's criterion past it."""
    field = SimpleNamespace(degree=2, discriminant=disc, abs_discriminant=abs(disc),
                            cyclotomic=None)
    patterns = list(_INITIAL_PATTERNS[2])
    ctx = SimpleNamespace(patterns=patterns, classes=_class_codes(field, patterns))
    assert (ctx.classes is None) == (abs(disc) > CLASS_TABLE_MAX)
    codes = _tabulate(field, ctx, np.array(primes, dtype=np.int64))
    return [ctx.patterns[c] for c in codes.tolist()]


class TestBatchedQuadratic:
    def test_character_matches_kronecker_to_1e5(self, corpus):
        # through the residue-class table: every prime, 2 and p | D included
        quadratics = [f for f in corpus.values() if f.degree == 2]
        assert len(quadratics) == 7
        for field in quadratics:
            assert field_context(field).classes is not None
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
        keyed = load_field((GAUSS_PATH.parent / "cyclic-cubic-49.field").read_text()
                           + "conductor = 7\ncyclotomic_root = [0, 1, 0, 0, 0, 0, 1]\n")
        primes = rational_primes(10 ** 5)
        fields = [f for f in corpus.values() if f.degree == 2] \
            + [corpus["cyclotomic5"], keyed]
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
            tabled = field_context(field).classes is not None
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
        assert ctx.classes is not None
        with pytest.raises(IndexPrimeUnsupported) as err:
            _splitting_table(field, 1000)
        assert err.value.p == 2
        assert ctx.table_xmax == 0 and len(ctx.codes) == 0


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

    def test_prime_powers_near_the_cap(self):
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
        for xi in sorted({DENSE_SIEVE_CAP, *in_range, *(n - 1 for n in in_range)}):
            records = _ideal_records(np.array(primes, dtype=np.int64),
                                     np.array(codes), patterns, xi)
            assert records.tolist() == [r for r in every if r[0] <= xi], xi


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


def fsum_of_segment_fsums(segments, term):
    """The value at the k-th point: fsum of the first k segment fsums."""
    seg_sums = [math.fsum(term(seg)) for seg in segments]
    return [math.fsum(seg_sums[:k + 1]) for k in range(len(seg_sums))]


def index_ranges(segments):
    """The values of the segments as one float64 array, and each segment's
    (lo, hi) range of indices in it."""
    cuts = list(accumulate(map(len, segments)))
    values = np.array([v for seg in segments for v in seg], dtype=np.float64)
    return values, list(zip([0] + cuts, cuts))


class TestGridFsums:
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       min_value=-1e300, max_value=1e300)

    @given(st.lists(st.lists(finite, max_size=6), max_size=8), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, segments, block):
        # (v 1e-160)^2 is finite for |v| <= 1e300, and subnormal or 0 for
        # small v; a non-finite term raises (TestExactSum)
        def square(seg):
            return [(v * 1e-160) * (v * 1e-160) for v in seg]
        values, ranges = index_ranges(segments)
        # blocks of 1 to 4 terms end inside and at the ends of segments
        with patch.object(splitting, "_SLICE", block):
            got = grid_fsums(iter(ranges), lambda a, b: (
                values[a:b], (values[a:b] * 1e-160) ** 2), 2)
        assert got == [fsum_of_segment_fsums(segments, list),
                       fsum_of_segment_fsums(segments, square)]

    def test_empty_segments_and_repeated_cuts(self):
        # cuts [0, 0, 3, 3, 3, 5]: empty segments before, between and after
        # data, as grid points below the first term or with one floor give
        values = np.array([0.1, 1e16, -1e16, 0.2, 0.3])
        cuts = [0, 0, 3, 3, 3, 5]
        [got] = grid_fsums(zip([0] + cuts, cuts), lambda a, b: (values[a:b],))
        segments = [values[a:b].tolist() for a, b in zip([0] + cuts, cuts)]
        assert got == fsum_of_segment_fsums(segments, list)
        assert got == [0.0, 0.0, 0.1, 0.1, 0.1, math.fsum(values)]

    def test_segments_are_read_once(self):
        # each block is made once, and every series reads it
        made = []
        values = np.array([1.0, 2.0, 3.0])

        def terms(a, b):
            made.append((a, b))
            return values[a:b], values[a:b], values[a:b]
        assert grid_fsums([(0, 1), (1, 3)], terms, 3) == [[1.0, 6.0]] * 3
        assert made == [(0, 1), (1, 3)]


def scaled(terms) -> int:
    """The exact sum of the float terms times 2^_SCALE, in Fractions."""
    total = sum(map(Fraction, terms), Fraction(0)) * 2 ** splitting._SCALE
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
        assert (got / (1 << splitting._SCALE)).hex() == expected.hex()

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
            assert exact_sum(np.array([t])) / (1 << splitting._SCALE) == t

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, bad):
        with pytest.raises(InvariantViolation):
            exact_sum(np.array([1.0, bad, -2.5]))
        with pytest.raises(InvariantViolation):
            grid_fsums([(0, 2)], lambda a, b: (np.array([0.5, bad])[a:b],))

    def test_block_at_the_bound(self):
        # a bucket sums mantissa halves below 2^26 and 2^27 units exactly
        # while terms x 2^27 < 2^53; grid_fsums' blocks hold at most _SLICE
        assert splitting._SLICE * 2 ** 27 < 2 ** 53
        assert splitting._EXACT_TERMS * 2 ** 27 == 2 ** 53
        # every mantissa bit set, both halves at their largest, one exponent
        top = math.nextafter(1.0, 0.0)
        for sign in (1.0, -1.0):
            terms = np.full(splitting._SLICE, sign * top)
            assert exact_sum(terms) == scaled([sign * top]) * splitting._SLICE
            assert exact_sum(terms) / (1 << splitting._SCALE) == \
                math.fsum(terms.tolist())
        # below the guard the worst bucket sums are integers float64 holds
        worst = (splitting._EXACT_TERMS - 1) * (2 ** 27 - 1)
        assert worst < 2 ** 53 and float(worst) == worst
        # the guard: 2^26 terms are refused before any is read (a broadcast
        # view, no memory)
        with pytest.raises(InvariantViolation):
            exact_sum(np.broadcast_to(1.0, (splitting._EXACT_TERMS,)))


class TestFieldContext:
    TEXT = "poly = [-1, 3, 1]\n"

    def test_freed_with_descriptor(self):
        field = load_field(self.TEXT)
        prime_ideals_up_to(field, 1000)
        ideal_count_sieve(field, 1000)
        ctx = weakref.ref(field_context(field))
        assert len(ctx().records) and len(ctx().primes) and ctx().row is not None
        del field
        gc.collect()
        assert ctx() is None

    def test_context_is_per_descriptor_and_not_compared(self):
        used = load_field(self.TEXT)
        ideal_count_sieve(used, 1000)
        assert used.context is not None and used.context.row is not None
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
    "legendre_chebyshev_rhs": legendre_chebyshev_rhs,
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
