"""Prime splitting in a number field and the rational-prime sieve.

For each rational prime p the splitting type is the multiset of
(ramification index, inertia degree) pairs of the prime ideals over p; the
pairs always satisfy sum(e_i * f_i) = degree.

An abelian field reads its splitting from p mod m, one residue-class table
per field, looked up in blocks of FROBENIUS_BLOCK primes. A quadratic field
with |D| <= CLASS_TABLE_MAX tabulates the Kronecker character (D / r) for
r < |D|, a character mod |D| for a fundamental discriminant D, so the one
table gives split, inert and ramified at every prime, 2 and p | D included.
A field of degree >= 3 with a cyclotomic certificate (field.py: f = Phi_m,
or the conductor and cyclotomic_root keys) of conductor m <= CLASS_TABLE_MAX
tabulates the order of each class in (Z/m)^x / H, the residue degree of the
primes in it; primes dividing m * disc(f) keep the exact pipeline below.

The other fields of degree 2 to 4 classify a whole range of primes in
batched numpy passes over int64 columns, one column per prime, in the same
blocks. A quadratic field past the table cap reads (D / p) at every odd
p <= 1e8 not dividing D by Euler's criterion, D^((p-1)/2) mod p, a plain
square-and-multiply per column. A cubic or quartic field without a
certificate computes x^p mod f (and for quartics x^(p^2) mod f) at every
odd p <= 1e8 not dividing disc(f), and Stickelberger's theorem,
(disc f / p) = (-1)^(n - r) for the number r of irreducible factors of f mod
p, settles what those powers leave open; no gcd is taken. The powers of x use
delayed modular reduction (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008):
each exponent bit sums the products of every coefficient of the square
unreduced, shifts the square up one place where the bit is set, and reduces
only while folding degrees d..2d-1 back through a per-block table of x^k mod
f, 2d reductions per bit; FROBENIUS_P_MAX states the int64 bound. D and
disc(f), which can exceed int64, are reduced mod p digit by digit. The
primes dividing 2D of such a quadratic field take the scalar Kronecker
symbol. The prime 2 and primes dividing disc(f) of a cubic or quartic field,
every non-abelian field of degree >= 5, and single-prime queries past the
table take the exact pipeline: the defining polynomial factored mod p,
guarded by the Dedekind index criterion, so a prime dividing the index is a
hard error, never a guess. The exact pipeline runs before any table or
batched pass. The scalar routes are also the batched passes' test oracles,
and the Euler and Frobenius passes the tables'.

What is computed for a field lives in one FieldContext, reached through
field_context(): the splitting table as numpy arrays (the primes, a small
code per prime, and the few distinct patterns the codes index), the
prime-ideal stream as a (k, 3) int64 array of (norm, p, f) rows ordered by
(norm, p), and the dense I(n) row. Each descriptor holds its own context,
grown as larger cutoffs are asked for and freed with the descriptor; equal
descriptors do not share one.
grid_fsums holds the rounding policy of the Mertens, I(n) log n and theta
grid sums: the value at a grid point is the fsum of the segment sums before
it, and each segment sum is its float64 terms summed exactly and rounded
once to nearest, ties to even, the value fsum gives
(mertens.prime_power_grid takes one fsum per prefix instead). The segments
are summed in numpy blocks of at most _SLICE terms by exact_sum, a small
superaccumulator (Neal, "Fast exact summation using small and large
superaccumulators", arXiv:1505.05571, 2015): np.frexp splits each term into
its 53-bit mantissa and exponent, the mantissa's two halves are summed per
exponent in float64 buckets that cannot round, and the buckets are joined
into one Python int at a fixed scale. So a sum does not depend on the order
of its terms or on where the blocks end.
check_cutoff and check_grid hold the one range rule of a cutoff and of a grid
of cutoffs; every sieve applies it before it starts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import product
from math import fsum

import numpy as np

from .errors import (CompositeModulus, CutoffOutOfRange, DenseSieveCapExceeded,
                     IndexPrimeUnsupported, InvariantViolation)
from .field import FieldDescriptor
from .polyfield import (
    _dedekind_from_parts,
    _distinct_degree_parts,
    _squarefree_parts,
    is_prime,
    poly_discriminant,
)

SIEVE_SEGMENT = 1 << 20
DENSE_SIEVE_CAP = 10 ** 8  # no sieve of primes, prime ideals or I(n) goes past it

# Primes per batched Frobenius block: the kernel's rows of this length are
# 64 KB each, so a squaring's working set of a few dozen rows stays in a
# core's L2 cache whatever the range.
FROBENIUS_BLOCK = 1 << 13

# Largest prime the batched kernel takes (the dense-sieve cap). Kernel inputs
# lie in [0, p). A coefficient of a square or product of two polynomials of
# degree < d sums at most d products of (p - 1)^2 before any reduction; the
# fold reduces degrees d..2d-1 and adds d more such products to each low
# coefficient, so at most 2d products of (p - 1)^2 meet in one int64. For
# d <= 4 that is 8 (1e8 - 1)^2 < 8e16 < 2^63. The one-dimensional Euler power
# and the per-block fold table take one product plus one addend below p,
# under 1e16 + 1e8.
FROBENIUS_P_MAX = 10 ** 8

# Largest modulus m of a residue-class table: a quadratic field's |D|, or a
# certified abelian field's conductor. A quadratic's table takes one
# kronecker call, about 1.6 us, per class: 0.1 s at 2^16, what the batched
# Euler pass costs (about 0.35 us a prime) over the 3e5 primes below 4.3e6.
# Past it Euler's pass stays the quadratic route.
CLASS_TABLE_MAX = 1 << 16

_DIGIT_BITS = 24


def check_cutoff(name: str, x: float, lo: float,
                 hi: float = DENSE_SIEVE_CAP) -> None:
    """Raise CutoffOutOfRange unless lo <= x <= hi, so NaN fails; past hi
    when it is the dense-sieve cap, the default, raise DenseSieveCapExceeded."""
    if not lo <= x <= hi:
        cap = hi == DENSE_SIEVE_CAP
        huge = isinstance(x, int) and abs(x) > sys.float_info.max  # no :g form
        raise (DenseSieveCapExceeded if cap and x > hi else CutoffOutOfRange)(
            f"{name} {'past float range' if huge else f'{x:g}'} must lie "
            f"within [{lo:g}, {hi:g}]"
            + (", the dense-sieve cap" if cap else ""))


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def rational_primes(x: float) -> np.ndarray:
    """Ascending array of all primes <= x, sieved in fixed-size segments."""
    if x < 2:
        return np.empty(0, dtype=np.int64)
    check_cutoff("x", x, 2)
    n = math.floor(x)
    if n < 4:
        return _simple_sieve(n)
    base = _simple_sieve(math.isqrt(n))
    chunks = [base]
    lo = int(base[-1]) + 1
    while lo <= n:
        hi = min(lo + SIEVE_SEGMENT, n + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                flags[start - lo:: p] = False
        chunks.append((np.flatnonzero(flags) + lo).astype(np.int64))
        lo = hi
    return np.concatenate(chunks)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), fully general."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol (a | n) with n odd positive
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@dataclass(frozen=True)
class SplittingType:
    """Multiset of (e, f) pairs for the prime ideals over p."""

    p: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PrimeIdealRecord:
    p: int
    f: int
    norm: int


def _pattern_mod_p(field: FieldDescriptor, p: int) -> tuple[tuple[int, int], ...]:
    """Splitting pattern from the general factorization pipeline."""
    poly = field.defining_poly
    coeffs = tuple(c % p for c in poly.coeffs)
    parts = _squarefree_parts(coeffs, p)
    if len(parts) > 1 or parts[0][1] > 1:
        if not _dedekind_from_parts(poly, p, parts):
            raise IndexPrimeUnsupported(p)
    pairs = []
    for g, mult in parts:
        for prod, d in _distinct_degree_parts(g, p):
            pairs.extend([(mult, d)] * ((len(prod) - 1) // d))
    pairs.sort(key=lambda ef: (ef[1], ef[0]))
    return tuple(pairs)


def _int_mod(a: int, primes: np.ndarray) -> np.ndarray:
    """a mod p for every p in primes, for any int a and primes below 2^39.

    |a| enters in base-2^24 digits by Horner's rule; with r < p < 2^39 each
    step r * 2^24 + digit stays below 2^63.
    """
    mag = abs(a)
    r = np.zeros_like(primes)
    for shift in range(mag.bit_length() // _DIGIT_BITS * _DIGIT_BITS, -1, -_DIGIT_BITS):
        digit = (mag >> shift) & ((1 << _DIGIT_BITS) - 1)
        r = (r * (1 << _DIGIT_BITS) + digit) % primes
    return (-r) % primes if a < 0 else r


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of a * b per column, unreduced, as 2d rows whose last is 0.

    Each coefficient is a sum of at most d products of values in [0, p).
    """
    d = len(a)
    s = np.zeros((2 * d, a.shape[1]), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            s[i + j] += a[i] * b[j]
    return s


def _fold(s: np.ndarray, xk: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """s(x) mod (f, p) per column, for the 2d unreduced coefficients s of a
    polynomial of degree < 2d: degrees d..2d-1 are reduced and folded back
    through xk[k] = x^(d + k) mod f, and each low coefficient is reduced once.
    """
    d = len(xk)
    high = s[d:] % primes
    r = s[:d].copy()
    for k in range(d):
        r += high[k] * xk[k]
    return r % primes


def _fold_table(neg: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """x^(d + k) mod (f, p) for k = 0..d-1, per column; neg[t] = -f_t mod p
    for monic f of degree d, so x^d = sum_t neg[t] x^t."""
    d = len(neg)
    xk = np.empty((d, d, neg.shape[1]), dtype=np.int64)
    xk[0] = neg
    for k in range(1, d):
        # x * x^(d+k-1): shift up one place and fold the x^d term back in
        xk[k, 0] = 0
        xk[k, 1:] = xk[k - 1, :-1]
        xk[k] = (xk[k] + xk[k - 1, -1] * neg) % primes
    return xk


def _bit_length(e: np.ndarray) -> int:
    return int(e.max()).bit_length() if len(e) else 0


def _xpow(e: np.ndarray, xk: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """x^e mod (f, p) per column, each column with its own exponent, by
    left-to-right squaring: where the exponent bit is set the unreduced
    square is shifted up one place (times x) before the one fold."""
    d = len(xk)
    r = np.zeros((d, len(primes)), dtype=np.int64)
    r[0] = 1
    for bit in range(_bit_length(e) - 1, -1, -1):
        s = _product(r, r)
        # the top row of s is 0, so rolling it one row down multiplies by x
        s = np.where((e >> bit) & 1 == 1, np.roll(s, 1, axis=0), s)
        r = _fold(s, xk, primes)
    return r


def _powmod(a: np.ndarray, e: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """a^e mod p per column by left-to-right square-and-multiply, a in [0, p)."""
    r = np.ones_like(primes)
    for bit in range(_bit_length(e) - 1, -1, -1):
        r = r * r % primes
        r = np.where((e >> bit) & 1 == 1, r * a % primes, r)
    return r


def _euler_square(a_mod: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """(a / p) == 1 per odd prime p not dividing a, given a mod p, by Euler's
    criterion a^((p-1)/2) = (a / p) mod p."""
    return _powmod(a_mod, (primes - 1) >> 1, primes) == 1


_ONE = (1, 1)

# Splitting pattern by ((disc f / p) == 1, x^p == x, x^(p^2) == x) for monic f
# of degree 3 or 4, squarefree mod p; cubics never need x^(p^2), so it reads
# False for them.
_FROBENIUS_TYPES = {
    3: {(False, False, False): (_ONE, (1, 2)),
        (True, True, False): (_ONE, _ONE, _ONE),
        (True, False, False): ((1, 3),)},
    4: {(True, True, True): (_ONE, _ONE, _ONE, _ONE),
        (True, False, True): ((1, 2), (1, 2)),
        (True, False, False): (_ONE, (1, 3)),
        (False, False, True): (_ONE, _ONE, (1, 2)),
        (False, False, False): ((1, 4),)},
}

# The patterns every context of a degree starts with, so that the batched
# passes write codes directly: split, inert and ramified for quadratics, the
# Frobenius types for cubics and quartics.
_INITIAL_PATTERNS = {
    1: ((_ONE,),),
    2: ((_ONE, _ONE), ((1, 2),), ((2, 1),)),
    **{n: tuple(types.values()) for n, types in _FROBENIUS_TYPES.items()},
}

# Code of each Frobenius type at 4 * square + 2 * (x^p == x) + (x^(p^2) == x),
# -1 where Stickelberger's theorem rules the combination out.
_FROBENIUS_CODES = {
    n: np.array([list(types).index(key) if key in types else -1
                 for key in product((False, True), repeat=3)])
    for n, types in _FROBENIUS_TYPES.items()
}


def _frobenius_pairs(coeffs: tuple[int, ...], disc: int,
                     primes: np.ndarray) -> np.ndarray:
    """Code in _INITIAL_PATTERNS[n] of the splitting pattern of monic f
    (degree n = 3 or 4) at each prime in primes.

    Every prime must be odd, at most FROBENIUS_P_MAX and prime to disc = disc(f),
    so f is squarefree mod p and Stickelberger's theorem gives the parity of
    its number of factors.
    """
    n = len(coeffs) - 1
    neg = np.stack([_int_mod(-c, primes) for c in coeffs[:n]])
    xk = _fold_table(neg, primes)
    h = _xpow(primes, xk, primes)
    x = np.zeros((n, 1), dtype=np.int64)
    x[1] = 1
    key = 4 * _euler_square(_int_mod(disc, primes), primes) + 2 * (h == x).all(axis=0)
    if n == 4:
        h2 = np.zeros_like(h)  # h(h) mod f by Horner's rule
        h2[0] = h[n - 1]
        for i in range(n - 2, -1, -1):
            h2 = _fold(_product(h2, h), xk, primes)
            h2[0] = (h2[0] + h[i]) % primes
        key += (h2 == x).all(axis=0)
    codes = _FROBENIUS_CODES[n][key]
    if (codes < 0).any():
        raise InvariantViolation("Stickelberger parity of the factor count mod p")
    return codes


def _pairs_for(field: FieldDescriptor, p: int) -> tuple[tuple[int, int], ...]:
    n = field.degree
    if n == 1:
        return ((1, 1),)
    if n == 2:
        chi = kronecker(field.discriminant, p)
        if chi == 1:
            return ((1, 1), (1, 1))
        return ((1, 2),) if chi == -1 else ((2, 1),)
    return _pattern_mod_p(field, p)


def splitting_type(field: FieldDescriptor, p: int) -> SplittingType:
    """Splitting of the rational prime p in the field."""
    if not is_prime(p):
        raise CompositeModulus(f"{p} is not prime")
    ctx = field_context(field)
    if p > ctx.table_xmax:
        return SplittingType(p=p, pairs=_pairs_for(field, p))
    code = ctx.codes[np.searchsorted(ctx.primes, p)]
    return SplittingType(p=p, pairs=ctx.patterns[code])


class FieldContext:
    """Everything computed for one field, grown on demand: the polynomial
    discriminant, the splitting table, the prime-ideal stream and the dense
    I(n) row (built by idealcount)."""

    __slots__ = ("disc_poly", "primes", "codes", "patterns", "classes",
                 "table_xmax", "records", "records_xmax", "row", "__weakref__")

    def __init__(self, field: FieldDescriptor):
        self.disc_poly = poly_discriminant(field.defining_poly)
        # the splitting table: every prime <= table_xmax, ascending, and the
        # index of its splitting pattern in patterns
        self.primes = np.empty(0, dtype=np.int64)
        self.codes = np.empty(0, dtype=np.uint8)
        self.patterns: list[tuple[tuple[int, int], ...]] = \
            list(_INITIAL_PATTERNS.get(field.degree, ()))
        # code of the primes in each residue class mod m, or None
        self.classes = _class_codes(field, self.patterns)
        self.table_xmax = 0
        self.records = np.empty((0, 3), dtype=np.int64)  # rows (norm, p, f)
        self.records_xmax = 0
        # r[n] = I(n) for n < len(r): a uint16, uint32 or int64 array, the
        # narrowest that holds the row's bound, or an object array of
        # Python ints past the int64 guard
        self.row = None


_CHARACTER_PATTERNS = {1: (_ONE, _ONE), -1: ((1, 2),), 0: ((2, 1),)}


def _class_codes(field: FieldDescriptor, patterns: list) -> np.ndarray | None:
    """Code in patterns of the splitting of the primes p = r mod m, for each
    class r < m, when the field reads its splitting from p mod m (patterns
    gains the ones it lacks); None when it does not.

    A quadratic field with |D| <= CLASS_TABLE_MAX reads the Kronecker
    character, m = |D|. A field of degree >= 3 with a cyclotomic certificate
    of conductor m <= CLASS_TABLE_MAX gives the class of each r prime to m the
    pattern of n / f ideals of residue degree f, the order of r in
    (Z/m)^x / H; the other classes hold -1, since p | m is not read here.
    """
    n, cert = field.degree, field.cyclotomic
    if n == 2 and field.abs_discriminant <= CLASS_TABLE_MAX:
        pairs = [_CHARACTER_PATTERNS[kronecker(field.discriminant, r)]
                 for r in range(field.abs_discriminant)]
    elif n >= 3 and cert is not None and cert.conductor <= CLASS_TABLE_MAX:
        m = cert.conductor
        pairs = [None] * m
        for r in range(m):
            if math.gcd(r, m) == 1:
                f, power = 1, r
                while power not in cert.subgroup:
                    f, power = f + 1, power * r % m
                pairs[r] = ((1, f),) * (n // f)
    else:
        return None
    code = {None: -1}
    for pattern in pairs:
        if pattern not in code:
            if pattern not in patterns:
                patterns.append(pattern)
            code[pattern] = patterns.index(pattern)
    return np.array([code[pattern] for pattern in pairs], dtype=np.int64)


def field_context(field: FieldDescriptor) -> FieldContext:
    """The context of this descriptor, made on first use and kept in its
    context attribute, so it is freed with the descriptor. Equal descriptors
    each have their own."""
    if field.context is None:
        object.__setattr__(field, "context", FieldContext(field))
    return field.context


def _batchable(primes: np.ndarray, disc: int) -> np.ndarray:
    """Mask of the primes the batched kernels take: odd, at most
    FROBENIUS_P_MAX and prime to disc."""
    return (primes != 2) & (primes <= FROBENIUS_P_MAX) & (_int_mod(disc, primes) != 0)


def _tabulate(field: FieldDescriptor, ctx: FieldContext,
              primes: np.ndarray) -> np.ndarray:
    """Code in ctx.patterns of the splitting pattern of each prime in primes.

    A field with a residue-class table (ctx.classes) reads table[p % m]; a
    quadratic's table covers every prime, a certified abelian field's every
    p not dividing m * disc(f). Otherwise quadratics take Euler's criterion
    and cubics and quartics the Frobenius pass. Lookups and passes run in
    blocks of FROBENIUS_BLOCK primes, so no temporary spans the whole range.
    The primes none of these cover, and every prime of a field of degree
    >= 5 without a table, take _pairs_for one prime at a time, before any
    block.
    """
    n = field.degree
    codes = np.zeros(len(primes), dtype=np.int64)
    if n == 1 or not len(primes):
        return codes
    starts = range(0, len(primes), FROBENIUS_BLOCK)
    if ctx.classes is not None:
        m = len(ctx.classes)
        # a quadratic's table covers every prime, a certified field's the
        # primes not dividing m disc(f)
        excluded = 1 if n == 2 else m * ctx.disc_poly
        sel = np.concatenate([_int_mod(excluded, primes[lo:lo + FROBENIUS_BLOCK]) != 0
                              for lo in starts])
    elif n <= 4:
        disc = field.discriminant if n == 2 else ctx.disc_poly
        sel = np.concatenate([_batchable(primes[lo:lo + FROBENIUS_BLOCK], disc)
                              for lo in starts])
    else:
        sel = np.zeros(len(primes), dtype=bool)
    # the exact pipeline runs first, so an index prime raises before any
    # batched work
    for i in np.flatnonzero(~sel).tolist():
        pairs = _pairs_for(field, int(primes[i]))
        if pairs not in ctx.patterns:
            ctx.patterns.append(pairs)
        codes[i] = ctx.patterns.index(pairs)
    for lo in starts:
        block_sel = sel[lo:lo + FROBENIUS_BLOCK]
        if not block_sel.any():
            continue
        block = primes[lo:lo + FROBENIUS_BLOCK][block_sel]
        if ctx.classes is not None:
            batch = ctx.classes[block % m]
        elif n == 2:  # code 0 split, 1 inert
            batch = ~_euler_square(_int_mod(disc, block), block)
        else:
            batch = _frobenius_pairs(field.defining_poly.coeffs, disc, block)
        codes[lo:lo + FROBENIUS_BLOCK][block_sel] = batch
    return codes


def _splitting_table(field: FieldDescriptor,
                     n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """(primes, codes, patterns): every prime p <= n ascending, the index of
    its splitting pattern in patterns, and the patterns; kept in the field's
    context, which grows the table when n passes its end."""
    ctx = field_context(field)
    if n > ctx.table_xmax:
        primes = rational_primes(n)
        codes = np.concatenate((ctx.codes, _tabulate(field, ctx, primes[len(ctx.primes):])))
        ctx.codes = codes.astype(np.min_scalar_type(len(ctx.patterns) - 1))
        ctx.primes, ctx.table_xmax = primes, n
    k = np.searchsorted(ctx.primes, n, "right")
    return ctx.primes[:k], ctx.codes[:k], ctx.patterns


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n, for n >= 0."""
    r = int(n ** (1 / k))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _ideal_records(primes: np.ndarray, codes: np.ndarray, patterns: list,
                   xi: int) -> np.ndarray:
    """(norm, p, f) rows, one per prime ideal of norm <= xi, sorted by
    (norm, p), from the splitting table of every prime <= xi."""
    parts = [np.empty((0, 3), dtype=np.int64)]
    for f in sorted({f for pairs in patterns for _, f in pairs}):
        per_prime = np.array([sum(g == f for _, g in pairs) for pairs in patterns])
        # only primes p <= xi^(1/f) are raised to the power f, so each int64
        # norm p^f <= xi, the end of a sieved prime table, far below 2^63
        k = np.searchsorted(primes, _iroot(xi, f), "right")
        p = np.repeat(primes[:k], per_prime[codes[:k]])
        parts.append(np.column_stack((p ** f, p, np.full_like(p, f))))
    records = np.concatenate(parts)
    # each part is sorted by norm, and a norm p^f fixes p and f, so a stable
    # sort merges the runs
    return records[np.argsort(records[:, 0], kind="stable")]


def _records_up_to(field: FieldDescriptor, x: float) -> np.ndarray:
    """(norm, p, f) rows, one per prime ideal of norm <= x, sorted by
    (norm, p): a (k, 3) int64 array kept in the field's context."""
    check_cutoff("x", x, 0)
    xi = math.floor(x)
    ctx = field_context(field)
    if xi > ctx.records_xmax:
        ctx.records = _ideal_records(*_splitting_table(field, xi), xi)
        ctx.records_xmax = xi
    return ctx.records[:np.searchsorted(ctx.records[:, 0], xi, "right")]


def prime_ideals_up_to(field: FieldDescriptor, x: float) -> tuple[PrimeIdealRecord, ...]:
    """All prime ideals of norm <= x, sorted by (norm, p).

    A splitting pair (e, f) contributes one record per distinct ideal, so a
    split rational prime appears as many times as it has ideals above it.
    """
    check_cutoff("x", x, 2)
    return tuple(PrimeIdealRecord(p=p, f=f, norm=norm)
                 for norm, p, f in _records_up_to(field, x).tolist())


def theta_K(field: FieldDescriptor, x: float) -> float:
    """Sum of log(norm) over prime ideals of norm <= x; 0.0 for x < 2."""
    check_cutoff("x", x, 0)  # no prime ideal has norm < 2
    return fsum(map(math.log, _records_up_to(field, x)[:, 0].tolist()))


def check_grid(grid, lo: float = 2, hi: float = DENSE_SIEVE_CAP) -> list[float]:
    """The grid as a list of floats; raises CutoffOutOfRange unless every
    point passes check_cutoff in [lo, hi] and the points, at least one, are
    strictly ascending."""
    grid = list(grid)
    for x in grid:
        check_cutoff("grid point", x, lo, hi)
    grid = [float(x) for x in grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise CutoffOutOfRange(f"grid must be nonempty and strictly ascending "
                               f"in [{lo:g}, {hi:g}]")
    return grid


# Terms summed at a time by exact_sum. Each term enters its exponent's
# bucket as two mantissa halves below 2^26 and 2^27 units in magnitude, and a
# bucket sums them in float64 exactly while terms per block x 2^27 < 2^53:
# blocks of fewer than _EXACT_TERMS = 2^26 terms. 2^14 keeps a block's
# temporaries (128 KB each) in a core's L2 cache.
_SLICE = 1 << 14
_EXACT_TERMS = 1 << 26
# exact_sum counts units of 2^-1126: the last mantissa bit at frexp's least
# exponent, -1073 (the subnormal 2^-1074 is 0.5 * 2^-1073)
_SCALE = 1126


def exact_sum(terms: np.ndarray) -> int:
    """The sum of the float64 terms times 2^_SCALE, exactly, as an int;
    int / 2**_SCALE rounds it to the float fsum(terms) gives.

    Raises InvariantViolation for a non-finite term, or for _EXACT_TERMS or
    more terms, past which the buckets could round.
    """
    if len(terms) >= _EXACT_TERMS:
        raise InvariantViolation(f"{len(terms)} terms in one exact block")
    if not len(terms):
        return 0
    mant, exp = np.frexp(terms)
    # mant 2^26 = hi + frac, hi an integer in [-2^26, 2^26) and frac a
    # multiple of 2^-27 in [0, 1): a term is (hi 2^27 + frac 2^27) 2^(exp - 53)
    hi = np.floor(np.multiply(mant, 1 << 26, out=mant))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, caught below
        frac = np.subtract(mant, hi, out=mant)
    low = int(exp.min())
    index = exp - low
    hi_sums = np.bincount(index, hi)
    frac_sums = np.bincount(index, frac) * (1 << 27)
    # an infinite or NaN term has a NaN frac (inf - inf), so its bucket's too
    if not np.isfinite(frac_sums).all():
        raise InvariantViolation("a non-finite term in an exact sum")
    total = 0
    shift = low - 53 + _SCALE  # of the bucket of exponent low
    for h, f in zip(hi_sums.tolist(), frac_sums.tolist()):
        if h or f:
            total += ((int(h) << 27) + int(f)) << shift
        shift += 1
    return total


def grid_fsums(segments, terms, count: int = 1) -> list[list[float]]:
    """Running sums of count series over an ascending grid, one list each.

    segments yields, for each grid point in turn, the index range (lo, hi)
    after the previous point's; terms(a, b) gives, for lo <= a < b <= hi and
    b - a <= _SLICE, the float64 terms at the indices a..b-1 as count arrays,
    one per series. A segment's sum is exact_sum over its blocks rounded once,
    which is fsum of its terms, and the value of a series at the k-th point is
    the fsum of its first k segment sums. Each block is made once and read by
    every series.
    """
    seg_sums = [[] for _ in range(count)]
    out = [[] for _ in range(count)]
    for lo, hi in segments:
        totals = [0] * count
        for a in range(lo, hi, _SLICE):
            for i, block in enumerate(terms(a, min(a + _SLICE, hi))):
                totals[i] += exact_sum(block)
        for total, sums, values in zip(totals, seg_sums, out):
            sums.append(total / (1 << _SCALE))
            values.append(fsum(sums))
    return out
