import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfmertens.errors import (CutoffOutOfRange, DenseSieveCapExceeded,
                              DivisorBoundExceeded, NfMertensError)
from nfmertens.field import kappa_exact, load_field
from nfmertens.idealcount import (
    ideal_count_sieve,
    kappa_estimate,
    legendre_chebyshev_mismatches,
    row_sums,
    summatory,
    summatory_grid,
    t_K,
)
from nfmertens import blockpass, idealcount
from nfmertens.idealcount import (
    _counts_from_degrees,
    _local_factors,
    _max_divisor_count,
    _row_block,
    _row_blocks,
    _row_dtype,
)
from nfmertens.mertens import geometric_grid
from nfmertens.splitting import DENSE_SIEVE_CAP, check_cutoff
from nfmertens.splitting import (
    _splitting_table,
    kronecker,
    prime_ideals_up_to,
    rational_primes,
    splitting_type,
)


def _dense_row_python(field, n_max: int) -> list[int]:
    """The I(n) row prime power by prime power in Python ints: the oracle of
    the two passes of _row_blocks."""
    row = [1] * (n_max + 1)
    row[0] = 0
    for p, q, c in _local_factors(*_splitting_table(field, n_max), n_max):
        for t in range(1, n_max // q + 1):
            if t % p:
                row[q * t] *= c
    return row


def full_row(field, n_max: int) -> np.ndarray:
    """The row's blocks joined: r[n] = I(n) for 0 <= n <= n_max."""
    return np.concatenate([block for _, block in _row_blocks(field, n_max)])


def whole(row):
    """The full row as one block, the oracle path of row_sums."""
    return [(0, row)]


def local_counts(field, p, m):
    """Number of ideals of norm p^k for k = 0..m."""
    return _counts_from_degrees([f for _, f in splitting_type(field, p).pairs], m)


def kronecker_divisor_sum(disc: int, n_max: int) -> np.ndarray:
    """Independent oracle for quadratic fields: I(n) = sum over d | n of
    the Kronecker symbol (disc | d)."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        chi = kronecker(disc, d)
        if chi:
            out[d:: d] += chi
    return out[1:]


def brute_local_counts(fs, m):
    # expand prod (1 + t^f + t^2f + ...) directly
    coeffs = [1] + [0] * m
    for f in fs:
        series = [1 if k % f == 0 else 0 for k in range(m + 1)]
        out = [0] * (m + 1)
        for i, a in enumerate(coeffs):
            if a:
                for j in range(m + 1 - i):
                    out[i + j] += a * series[j]
        coeffs = out
    return coeffs


class TestLocalCounts:
    def test_split_quadratic(self, gauss):
        assert local_counts(gauss, 5, 2) == [1, 2, 3]

    def test_inert_quadratic(self, gauss):
        assert local_counts(gauss, 7, 3) == [1, 0, 1, 0]

    def test_ramified(self, gauss):
        assert local_counts(gauss, 2, 2) == [1, 1, 1]

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=5), st.integers(min_value=0, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_series(self, fs, m):
        assert _counts_from_degrees(fs, m) == brute_local_counts(fs, m)

    def test_prime_power_count_bound(self, corpus):
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            for p in (2, 3, 5, 7, 11, 13):
                counts = local_counts(field, p, 8)
                for k, c in enumerate(counts):
                    assert c <= (k + 1) ** field.degree, (name, p, k)


class TestSieve:
    def test_gaussian_first_ten(self, gauss):
        assert list(ideal_count_sieve(gauss, 10)) == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]

    def test_rationals_all_ones(self, rationals):
        assert list(ideal_count_sieve(rationals, 5)) == [1, 1, 1, 1, 1]

    def test_golden_first_five(self, golden):
        # oracle: divisor sums of the Kronecker character for disc 5
        assert list(ideal_count_sieve(golden, 5)) == [1, 0, 0, 1, 1]

    @pytest.mark.parametrize("name", ["gaussian", "golden", "sqrt-7"])
    def test_oracle_equivalence_small(self, corpus, name):
        field = corpus[name]
        got = ideal_count_sieve(field, 2000)
        expected = kronecker_divisor_sum(field.discriminant, 2000)
        assert np.array_equal(got, expected)

    def test_oracle_equivalence_all_fundamental_discriminants(self):
        # every fundamental discriminant up to 163 in absolute value, with a
        # synthetic defining polynomial per sign class
        from nfmertens.field import load_field

        def squarefree(n):
            f = 2
            while f * f <= n:
                if n % (f * f) == 0:
                    return False
                f += 1
            return True

        discs = []
        for d in range(-163, 164):
            if d in (0, 1):
                continue
            if d % 4 == 1 and squarefree(abs(d)):
                discs.append(d)
            elif d % 4 == 0:
                m = d // 4
                if m % 4 in (2, 3) and squarefree(abs(m)):
                    discs.append(d)
        assert len(discs) > 90
        for d in discs:
            if d % 4 == 1:
                c = (d - 1) // 4
                text = f"poly = [{-c}, -1, 1]\n"
            else:
                text = f"poly = [{-(d // 4)}, 0, 1]\n"
            field = load_field(text)
            assert field.discriminant == d
            got = ideal_count_sieve(field, 3000)
            assert np.array_equal(got, kronecker_divisor_sum(d, 3000)), d

    @pytest.mark.parametrize("name", ["gaussian", "cyclic-cubic-49", "cyclotomic5"])
    def test_python_fallback_matches_numpy(self, corpus, name):
        field = corpus[name]
        numpy_row = ideal_count_sieve(field, 1500)
        python_row = _dense_row_python(field, 1500)[1:]
        assert list(numpy_row) == python_row

    @pytest.mark.parametrize("name", ["gaussian", "cyclotomic5"])
    def test_public_dtype_is_int64(self, corpus, name):
        # the row itself is narrow; a caller's arithmetic must not wrap
        counts = ideal_count_sieve(corpus[name], 1000)
        assert next(_row_blocks(corpus[name], 1000))[1].dtype != np.int64
        assert counts.dtype == np.int64
        assert (counts - 1).min() == -1

    def test_nonnegative_and_exact_type(self, corpus):
        row = ideal_count_sieve(corpus["cyclotomic5"], 500)
        assert row.min() >= 0
        assert int(row.sum()) == sum(int(v) for v in row)


class TestCofactorPass:
    """The blocks of the two-pass row against the Python-int row, the
    oracle."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # an odd block length puts block edges inside both passes, and small
        # steps put step edges inside the runs of P of one cofactor
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", 1001)
        monkeypatch.setattr(idealcount, "_PAIRS", 7)
        monkeypatch.setattr(idealcount, "_RUN", 5)

    # 59^2 = 3481 sits on the split between the passes; 3491 is prime, so
    # the largest prime's only multiple is itself; below 4 there is no small
    # prime at all
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 3480, 3481, 3482, 3491, 10 ** 5])
    def test_matches_python_row(self, corpus, n_max):
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            assert full_row(field, n_max).tolist() == \
                _dense_row_python(field, n_max), name


_PYTHON_ROWS = {}


def python_row(field, n_max: int) -> list[int]:
    """_dense_row_python, kept per field and cutoff for the tests that read
    one row under several block lengths."""
    key = (field.defining_poly, n_max)
    if key not in _PYTHON_ROWS:
        _PYTHON_ROWS[key] = _dense_row_python(field, n_max)
    return _PYTHON_ROWS[key]


class TestRowBlocks:
    """The blocks at every edge, with the block length patched small: joined,
    they are the Python-int row; the I- and T-sums over them, on grids with
    points on, just before and just after the block edges, are the sums over
    the full row taken as one block."""

    # 4093 and 4099 start gaussian's second block at a prime P > sqrt(n_max),
    # whose c1 is stored first: 4093 splits (c1 = 2), 4099 is inert (c1 = 0)
    @pytest.fixture(params=[1000, 1001, 4093, 4099], autouse=True)
    def block(self, request, monkeypatch):
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", request.param)
        return request.param

    @staticmethod
    def check_blocks(field, n_max, block):
        blocks = list(_row_blocks(field, n_max))
        # 2 bytes times _ROW_BLOCK a block: a uint32 block holds half as many
        step = block * 2 // blocks[0][1].itemsize
        assert [lo for lo, _ in blocks] == list(range(0, n_max + 1, step))
        assert [len(b) for lo, b in blocks] == \
            [min(step, n_max + 1 - lo) for lo, _ in blocks]
        joined = np.concatenate([b for _, b in blocks])
        assert joined.tolist() == python_row(field, n_max)
        return joined.dtype

    def test_corpus_to_3e4(self, corpus, block):
        for name, field in corpus.items():
            if name != "non-monogenic-cubic":
                self.check_blocks(field, 3 * 10 ** 4, block)

    def test_uint32_blocks_past_302400(self, corpus, block):
        # d_4 first reaches 2^16 at 302,400, so cyclotomic5's blocks are uint32
        dtype = self.check_blocks(corpus["cyclotomic5"], 302_400 + block, block)
        assert dtype == np.uint32

    @pytest.mark.parametrize("name", ["rationals", "gaussian", "cbrt2", "cyclotomic5"])
    def test_sums_at_block_edges(self, corpus, block, name, monkeypatch):
        monkeypatch.setattr(blockpass, "_SLICE", 257)
        field = corpus[name]
        n_max = 5 * block + 10
        # x = k B - 1 ends a segment at the edge k B, x = k B one entry past it
        grid = [float(k * block + d) for k in range(1, 6) for d in (-1, 0, 1)]
        grid.append(float(n_max))
        row = np.array(python_row(field, n_max), dtype=np.int64)
        assert row_sums(_row_blocks(field, n_max), grid) == row_sums(whole(row), grid)


STRIDED_FIELDS = ["gaussian", "cbrt2", "cyclotomic5", "sqrt-163"]


class TestStridedPass:
    """The in-place strided pass over the small primes against the Python-int
    row: of view = row[q::q], every entry but each p-th, a multiple of p q,
    is multiplied."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", 1001)

    @staticmethod
    def check(corpus, n_max):
        for name in STRIDED_FIELDS:
            field = corpus[name]
            assert full_row(field, n_max).tolist() == \
                _dense_row_python(field, n_max), (name, n_max)

    # len(view) = n_max // q is p - 1 (no multiple of p q), p (one, the last
    # entry) and p again at n_max = q*p + 1; q = 2, 4, 9, 49 is run with c != 1
    # by cyclotomic5 (2, 4, 9, 49), sqrt-163 (2) and cbrt2 (49)
    @pytest.mark.parametrize("n_max", [q * p + d for q, p in ((2, 2), (4, 2), (9, 3), (49, 7))
                                       for d in (-1, 0, 1)])
    def test_run_and_tail_edges(self, corpus, n_max):
        self.check(corpus, n_max)

    @settings(max_examples=30, deadline=None)
    @given(n_max=st.integers(min_value=0, max_value=20000))
    def test_matches_python_row(self, corpus, n_max):
        self.check(corpus, n_max)


class TestSmallPrimePass:
    """_row_block's small-prime pass for one p, its entries (p, q, c) alone,
    against the p-part of the Python-int row, I(p^v) at v = v_p(n): blocks
    of one length start, and so end, at every residue mod p q for q = p, p^2,
    p^3, on both sides of the p < 8 cut (residue columns below it, a saved
    and restored view[h::p] above)."""

    N_MAX = 40_000  # past every block below: lo <= 11^4, hi - lo <= 16 11^3 + 1

    # 2 is inert in golden (c = 0 at q = 2), splits in sqrt-7 and ramifies
    # in gaussian, where its c is 1 at every q, so it has no pass;
    # cyclotomic5's blocks are uint32, as its row's are past 302,400, and its
    # one ideal over 2 has norm 16
    @pytest.mark.parametrize("name, two", [("golden", [(2, 0), (8, 0)]),
                                           ("sqrt-7", [(2, 2), (4, 3), (8, 4)]),
                                           ("gaussian", []),
                                           ("cyclotomic5", [(2, 0), (4, 0), (8, 0)])])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_every_phase(self, corpus, name, two, p):
        field, n_max = corpus[name], self.N_MAX
        dtype = _row_dtype(302_400 if name == "cyclotomic5" else n_max, field.degree)
        assert dtype == (np.uint32 if name == "cyclotomic5" else np.uint16)
        entries = [e for e in _local_factors(*_splitting_table(field, n_max), n_max)
                   if e[0] == p]
        if p == 2:
            assert [(q, c) for _, q, c in entries if q <= 8] == two
        part = np.ones(n_max + 1, dtype=np.int64)  # p^v_p(n)
        for k in range(1, int(math.log(n_max, p)) + 1):
            part[::p ** k] *= p
        expected = np.array(python_row(field, n_max))[part[1:]]
        none = np.empty(0, dtype=np.int64)
        for q in (p, p ** 2, p ** 3):
            length = q * (p + p // 2) + 1
            for lo in range(1, p * q + 1):
                block = _row_block(lo, lo + length, dtype, entries, none, none, None)
                assert block.dtype == dtype
                assert np.array_equal(block, expected[lo - 1:lo - 1 + length]), (q, lo)


class TestRowDtypeBoundary:
    """cyclotomic5 crosses from a uint16 to a uint32 row at 302,400, the
    first x with d_4(x) >= 2^16; the Python-int row is the oracle."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", 1001)

    def test_rows_either_side(self, corpus):
        field = corpus["cyclotomic5"]
        assert _max_divisor_count(302_399, 4) < 2 ** 16 <= _max_divisor_count(302_400, 4)
        python_row = _dense_row_python(field, 302_400)
        for n_max, dtype in ((302_399, np.uint16), (302_400, np.uint32)):
            row = full_row(field, n_max)
            assert row.dtype == dtype and len(row) == n_max + 1
            assert row.tolist() == python_row[:n_max + 1], n_max


class TestRowGuard:
    def test_degree_seven_takes_int64_row(self, monkeypatch):
        # x^7 - 2 at the cap: max d(n)^7 = 768^7 > 2^62, but max d_7(n) is
        # 1,483,241,760
        field = load_field("poly = [-2, 0, 0, 0, 0, 0, 0, 1]\n"
                           "signature = [1, 3]\ndiscriminant = -52706752\n")
        assert _max_divisor_count(DENSE_SIEVE_CAP, 2) ** 7 > 2 ** 62
        assert _max_divisor_count(DENSE_SIEVE_CAP, 7) == 1_483_241_760
        # the narrowest dtype: 1,483,241,760 < 2^32
        assert _row_dtype(DENSE_SIEVE_CAP, field.degree) is np.uint32

    @pytest.mark.parametrize("bound, dtype", [
        (0, np.uint16), (2 ** 16 - 1, np.uint16), (2 ** 16, np.uint32),
        (2 ** 32 - 1, np.uint32), (2 ** 32, np.int64), (2 ** 62 - 1, np.int64)])
    def test_dtype_at_bounds(self, bound, dtype, monkeypatch):
        monkeypatch.setattr(idealcount, "_max_divisor_count", lambda x, k: bound)
        assert _row_dtype(1000, 2) is dtype

    def test_dtype_by_degree_at_the_cap(self, corpus):
        # quadratics and cubics fit uint16, no corpus field needs int64
        for name, field in corpus.items():
            expected = np.uint16 if field.degree <= 3 else np.uint32
            assert _row_dtype(DENSE_SIEVE_CAP, field.degree) is expected, name
        for k in range(4, 8):
            assert _row_dtype(DENSE_SIEVE_CAP, k) is np.uint32
        # degree 8 is the lowest that needs int64 below the cap
        assert _row_dtype(39_916_799, 8) is np.uint32
        assert _row_dtype(39_916_800, 8) is np.int64

    def test_guard_at_degree_29_near_the_cap(self):
        # max d_28(n) over n <= 1e8 is below 2^62, max d_29(n) is not
        assert _row_dtype(DENSE_SIEVE_CAP, 28) is np.int64
        with pytest.raises(DivisorBoundExceeded, match="x 100000000 .* degree-29") as info:
            _row_dtype(DENSE_SIEVE_CAP, 29)
        assert isinstance(info.value, CutoffOutOfRange)

    def test_cap_error_is_usage_error_and_value_error(self, gauss):
        with pytest.raises(DenseSieveCapExceeded) as info:
            ideal_count_sieve(gauss, DENSE_SIEVE_CAP + 1)
        assert isinstance(info.value, NfMertensError)
        assert isinstance(info.value, ValueError)


class TestCheckCutoff:
    def test_endpoints_pass(self):
        for x in (10.0, float(DENSE_SIEVE_CAP)):
            check_cutoff("x", x, 10)
        check_cutoff("x", 7.0, 2, 7.0)

    # NaN fails every comparison, so it must fail the check too
    @pytest.mark.parametrize("x", [9.999, DENSE_SIEVE_CAP + 1.0, math.inf,
                                   -math.inf, math.nan])
    def test_outside_or_nan_is_usage_error_and_value_error(self, x):
        with pytest.raises(CutoffOutOfRange, match="^x ") as info:
            check_cutoff("x", x, 10)
        assert isinstance(info.value, NfMertensError)
        assert isinstance(info.value, ValueError)

    def test_message_names_the_cap_only_when_it_is_the_bound(self):
        with pytest.raises(CutoffOutOfRange, match="dense-sieve cap"):
            check_cutoff("x_max", 2e8, 1)
        with pytest.raises(CutoffOutOfRange) as info:
            check_cutoff("grid point", 20.0, 2, 10.0)
        assert "cap" not in str(info.value)


class TestSummatory:
    def test_gaussian_at_ten(self, gauss):
        assert summatory(gauss, 10).value == 9

    def test_rationals_floor(self, rationals):
        assert summatory(rationals, 7.9).value == 7

    def test_below_one_is_zero(self, gauss):
        assert summatory(gauss, 0.5).value == 0

    def test_monotone(self, gauss):
        values = [summatory(gauss, x).value for x in range(1, 60)]
        assert values == sorted(values)

    def test_envelope_attached_for_degree_two(self, gauss):
        point = summatory(gauss, 100)
        assert point.sunley_envelope is not None
        assert abs(point.value - kappa_exact(gauss).value * 100) \
            <= point.sunley_envelope

    def test_envelope_none_for_rationals(self, rationals):
        assert summatory(rationals, 100).sunley_envelope is None


class TestTK:
    def test_gaussian_at_five(self, gauss):
        expected = math.log(2) + math.log(4) + 2 * math.log(5)
        assert t_K(gauss, 5) == pytest.approx(expected, rel=1e-13)

    def test_rationals_log_factorial(self, rationals):
        assert t_K(rationals, 4) == pytest.approx(math.log(24), rel=1e-13)

    def test_zero_when_no_counts(self, golden):
        assert t_K(golden, 2) == 0.0

    def test_matches_direct_sum(self, corpus):
        field = corpus["cbrt2"]
        row = ideal_count_sieve(field, 3000)
        direct = math.fsum(int(c) * math.log(n)
                           for n, c in enumerate(row, start=1) if c)
        assert t_K(field, 3000) == pytest.approx(direct, rel=1e-13)

    def test_one_value_whatever_the_grid(self, corpus):
        # t_K at x is row_sums at x from a longer grid, bit for bit
        grid = geometric_grid(4, 20)
        for name in ("gaussian", "cbrt2", "cyclotomic5"):
            tsums = row_sums(_row_blocks(corpus[name], 10 ** 5), grid)[1]
            assert [t_K(corpus[name], x) for x in grid] == tsums, name


def prefix_log_sums(row, grid):
    """T at each grid point: one fsum of the float64 terms I(n) log n,
    2 <= n <= x, all taken at once."""
    n = len(row) - 1
    terms = np.asarray(row, dtype=np.float64)[2:] * np.log(np.arange(2.0, n + 1))
    return [math.fsum(terms[:max(0, math.floor(x) - 1)].tolist()) for x in grid]


class TestGridSums:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # odd block and slice lengths put block edges and the slice edges of
        # the log sums inside and between segments
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", 4099)
        monkeypatch.setattr(blockpass, "_SLICE", 1031)

    def test_corpus_at_1e5(self, corpus):
        grid = geometric_grid(4, 20)
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            csum = np.cumsum(ideal_count_sieve(field, 10 ** 5))
            row = full_row(field, 10 ** 5)
            isums, tsums = row_sums(_row_blocks(field, 10 ** 5), grid)
            assert isums == [int(csum[math.floor(x) - 1]) for x in grid], name
            assert tsums == prefix_log_sums(row, grid), name

    @pytest.mark.parametrize("name", ["gaussian", "cyclic-cubic-49", "cyclotomic5"])
    def test_python_int_row(self, corpus, name):
        field = corpus[name]
        grid = list(geometric_grid(4, 13)) + [3000.0]
        row = np.array(_dense_row_python(field, 3000), dtype=object)
        isums, tsums = row_sums(whole(row), grid)
        assert all(type(v) is int for v in isums)
        assert isums == [sum(row[:math.floor(x) + 1]) for x in grid]
        assert (isums, tsums) == row_sums(_row_blocks(field, 3000), grid)
        assert tsums == prefix_log_sums(row, grid)

    def test_python_ints_beyond_int64(self):
        # int64 entries just below the 2^62 guard: a slice's numpy sum would
        # wrap, the I-sums are Python ints past int64
        row = np.array([0] + [2 ** 62 - n for n in range(1, 10000)], dtype=np.int64)
        grid = [1.0, 4500.5, 9999.0]
        assert row_sums(whole(row), grid)[0] == \
            [sum(row[:math.floor(x) + 1].tolist()) for x in grid]

    def test_points_below_one_sum_to_zero(self, gauss):
        assert row_sums(_row_blocks(gauss, 10), [0.0, 0.5, 10.0])[0] == [0, 0, 9]


def all_terms_log_sum(row, x):
    """T(x) as the fsum of every float64 term I(n) log n, 2 <= n <= x, zero
    terms included."""
    x = math.floor(x)
    return math.fsum((row[2:x + 1].astype(np.float64)
                      * np.log(np.arange(2, x + 1.0))).tolist())


class TestNonzeroLogTerms:
    """row_sums sums the terms of the nonzero I(n) only; the zero
    terms are +0.0, so the exact sums cannot change."""

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(blockpass, "_SLICE", 1031)

    def test_corpus_at_1e5_against_all_terms(self, corpus):
        # a one-point grid is one fsum over all its terms; a longer grid
        # rounds each segment first (segment_sums), as TestGridSums checks
        points = [2.0, 3.0] + list(geometric_grid(4, 20))
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            row = full_row(field, 10 ** 5)
            for x in points:
                assert row_sums(whole(row), [x])[1] == [all_terms_log_sum(row, x)], \
                    (name, x)

    def test_gathered_logs_equal_full_logs(self, corpus):
        # np.log of the gathered n (the nonzero I(n)) against np.log of the
        # whole arange slice, for every 2 <= n <= 1e6: each mask and its
        # complement together gather every n once, in slices of _SLICE as
        # row_sums takes them
        n_max = 10 ** 6
        rng = np.random.default_rng(0)
        masks = [full_row(corpus[name], n_max) != 0
                 for name in ("gaussian", "cyclotomic5")]
        masks.append(rng.random(n_max + 1) < 0.5)
        step = blockpass._SLICE
        for a in range(2, n_max + 1, step):
            full = np.log(np.arange(a, min(a + step, n_max + 1), dtype=np.float64))
            for mask in masks:
                for keep in (mask[a:a + step], ~mask[a:a + step]):
                    nz = np.flatnonzero(keep)
                    got = np.log((nz + a).astype(np.float64))
                    assert np.array_equal(got, full[nz]), a


class TestKappaEstimate:
    def test_rationals_tight(self, rationals):
        est = kappa_estimate(rationals, 1000)
        assert abs(est.value - 1.0) <= 1e-3
        assert est.provenance == "estimated-from-ideal-count"

    def test_halfwidth_reported(self, gauss):
        est = kappa_estimate(gauss, 1000)
        assert est.halfwidth is not None and est.halfwidth > 0

    def test_requires_reasonable_x(self, gauss):
        with pytest.raises(ValueError):
            kappa_estimate(gauss, 50)


def legendre_chebyshev_sum(field, x: float) -> float:
    """T(x) by the Legendre-Chebyshev identity, in floats: one fsum over the
    prime ideals P of norm <= x of log N(P) sum_k Isum(x / N(P)^k)."""
    n = math.floor(x)
    reads = [(ideal.norm, [n // ideal.norm ** k for k in range(1, n.bit_length())
                           if ideal.norm ** k <= n])
             for ideal in prime_ideals_up_to(field, x)]
    points = sorted({t for _, ts in reads for t in ts})
    isum = {t: point.value for t, point in zip(points, summatory_grid(field, points))}
    return math.fsum(math.log(norm) * sum(map(isum.get, ts)) for norm, ts in reads)


def plant(monkeypatch, n: int) -> None:
    """Make every row block read I(n) + 1."""
    build = idealcount._row_block

    def planted(lo, hi, *args):
        block = build(lo, hi, *args)
        if lo <= n < hi:
            block[n - lo] += 1
        return block
    monkeypatch.setattr(idealcount, "_row_block", planted)


def _mismatches_python(field, x: int) -> int:
    """The primes p <= x where sum_{n<=x} I(n) v_p(n) differs from
    sum_{P|p} f_P sum_k Isum(x // N(P)^k), in Python ints from the row and
    splitting_type."""
    row = [0] + ideal_count_sieve(field, x).tolist()
    isum = list(accumulate(row))
    count = 0
    for p in rational_primes(x).tolist():
        lhs = 0
        for n in range(p, x + 1, p):
            m, v = n // p, 1
            while m % p == 0:
                m, v = m // p, v + 1
            lhs += row[n] * v
        rhs = sum(f * isum[x // p ** (f * k)] for _, f in splitting_type(field, p).pairs
                  for k in range(1, x.bit_length()) if p ** (f * k) <= x)
        count += lhs != rhs
    return count


class TestLegendreChebyshev:
    @pytest.mark.parametrize("x", [50.0, 200.0, 500.0, 1000.0, 2000.0])
    def test_identity_small(self, corpus, x):
        # exact per prime, and T(x) equals the identity's float sum
        for name, field in corpus.items():
            if name == "non-monogenic-cubic":
                continue
            assert legendre_chebyshev_mismatches(field, [x]) == [0], (name, x)
            lhs, rhs = t_K(field, x), legendre_chebyshev_sum(field, x)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0), (name, x)

    def test_grid_takes_one_pass(self, corpus, monkeypatch):
        field = corpus["cbrt2"]
        plant(monkeypatch, 9)
        grid = [10.0, 100.0, 1000.0, 2000.0]
        expected = [legendre_chebyshev_mismatches(field, [x])[0] for x in grid]
        assert all(expected)
        calls = []
        blocks = idealcount._row_blocks
        monkeypatch.setattr(idealcount, "_row_blocks",
                            lambda f, n: calls.append(n) or blocks(f, n))
        assert legendre_chebyshev_mismatches(field, grid) == expected
        assert calls == [2000]

    def test_grid_past_1e6_is_refused(self, corpus, monkeypatch):
        # about 11 int64 per n: a library caller asking for the 1e8 cap
        # would hold some 9 GB; 1e6 + 1 is refused before any row block
        built = []
        monkeypatch.setattr(idealcount, "_row_blocks",
                            lambda field, n: built.append(n))
        with pytest.raises(CutoffOutOfRange, match="1e\\+06"):
            legendre_chebyshev_mismatches(corpus["gaussian"], [10.0, 1e6 + 1])
        assert built == []

    @pytest.mark.parametrize("name, n", [("gaussian", 9), ("cyclotomic5", 25),
                                         ("cbrt2", 8), ("golden", 16)])
    def test_planted_counts_match_python(self, corpus, monkeypatch, name, n):
        # a wrong I(p^k) breaks the identity at p and at every prime whose
        # right side reads Isum past n; the counts are those of Python ints
        field = corpus[name]
        grid = [5.0, float(n), 60.0, 300.0, 1000.0]
        assert legendre_chebyshev_mismatches(field, grid) == [0] * len(grid)
        plant(monkeypatch, n)
        counts = legendre_chebyshev_mismatches(field, grid)
        assert counts == [_mismatches_python(field, int(x)) for x in grid]
        assert counts[0] == 0 and all(counts[1:])


def test_max_divisor_count_brute():
    # d_k by Dirichlet convolution with 1: d_1 = 1, d_k(n) = sum of d_{k-1}(m)
    # over m | n
    n_max = 5040
    d = [0] + [1] * n_max
    for k in range(2, 6):
        prev, d = d, [0] * (n_max + 1)
        for m in range(1, n_max + 1):
            for n in range(m, n_max + 1, m):
                d[n] += prev[m]
        best = list(accumulate(d, max))
        for x in range(1, n_max + 1):
            assert _max_divisor_count(x, k) == best[x], (k, x)
