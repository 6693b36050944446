"""Prime splitting in a number field and the rational-prime sieve.

For each rational prime p the splitting type is the multiset of
(ramification index, inertia degree) pairs of the prime ideals over p; the
pairs always satisfy sum(e_i * f_i) = degree. Quadratic fields are resolved
exactly from the Kronecker symbol of the fundamental discriminant, bypassing
polynomial factorization.

Cubic and quartic fields classify a whole range of primes in one batched
numpy pass: for every odd p <= 1e8 not dividing disc(f), x^p mod f (and for
quartics x^(p^2) mod f) is computed in int64 columns, one column per prime,
and Stickelberger's theorem, (disc f / p) = (-1)^(n - r) for the number r of
irreducible factors of f mod p, settles what those powers leave open; no gcd
is taken. Every kernel value lies in [0, p), so each step is one product
plus one addend below 1e16 + 1e8 < 2^63; disc(f), which can exceed int64, is
reduced mod p digit by digit. The prime 2, primes dividing disc(f), every
field of degree >= 5, and single-prime queries outside the tabled range take
the exact pipeline: the defining polynomial factored mod p, guarded by the
Dedekind index criterion, so a prime dividing the index is a hard error,
never a guess. The exact pipeline is also the batched pass's test oracle.

Streams of prime ideals are ordered by (norm, p) and deterministic. What is
computed for a field (the splitting table, the prime-ideal stream and the
dense I(n) row) lives in one FieldContext, reached through field_context();
it grows as larger cutoffs are asked for and is freed with the field's
descriptor. Log-norm sums are accumulated with exact (Shewchuk)
summation, keeping 12+ significant digits over millions of terms and making
results independent of segmentation.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import fsum

import numpy as np

from .errors import CompositeModulus, IndexPrimeUnsupported
from .field import FieldDescriptor
from .polyfield import (
    _dedekind_from_parts,
    _distinct_degree_parts,
    _squarefree_parts,
    is_prime,
    poly_discriminant,
)

SIEVE_SEGMENT = 1 << 20

# Primes per batched Frobenius block: each temporary is an int64 row of this
# length (512 KB), so the pass holds a few MB whatever the range.
FROBENIUS_BLOCK = 1 << 16

# Largest prime the batched kernel takes (the dense-sieve cap). Kernel values
# lie in [0, p), so every step computes one product plus one addend, at most
# (1e8 - 1)^2 + 1e8 < 1e16 + 1e8 < 2^63, before reducing mod p.
FROBENIUS_P_MAX = 10 ** 8

_DIGIT_BITS = 24


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

    def inertia_degrees(self) -> tuple[int, ...]:
        return tuple(f for _, f in self.pairs)


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


def _mulmod(a: np.ndarray, b: np.ndarray, neg: np.ndarray,
            primes: np.ndarray) -> np.ndarray:
    """a * b mod (f, p) per column; neg[t] = -f_t mod p for monic f."""
    d = len(neg)
    s = np.zeros((2 * d - 1, len(primes)), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            s[i + j] = (s[i + j] + a[i] * b[j]) % primes
    # x^k = x^(k-d) * x^d and x^d = sum_t neg[t] x^t mod f
    for k in range(2 * d - 2, d - 1, -1):
        for t in range(d):
            s[k - d + t] = (s[k - d + t] + s[k] * neg[t]) % primes
    return s[:d]


def _xpow(e: np.ndarray, neg: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """x^e mod (f, p) per column, each column with its own exponent."""
    r = np.zeros_like(neg)
    r[0] = 1
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        r = _mulmod(r, r, neg, primes)
        # r * x: shift up one place and fold the x^d term back in
        rx = np.roll(r, 1, axis=0)
        rx[0] = 0
        rx = (rx + r[-1] * neg) % primes
        r = np.where((e >> bit) & 1 == 1, rx, r)
    return r


# Splitting pattern by (degree, (disc f / p) == 1, x^p == x, x^(p^2) == x)
# for squarefree f mod p; cubics never need x^(p^2).
_ONE = (1, 1)
_FROBENIUS_TYPES = {
    (3, False, False, None): (_ONE, (1, 2)),
    (3, True, True, None): (_ONE, _ONE, _ONE),
    (3, True, False, None): ((1, 3),),
    (4, True, True, True): (_ONE, _ONE, _ONE, _ONE),
    (4, True, False, True): ((1, 2), (1, 2)),
    (4, True, False, False): (_ONE, (1, 3)),
    (4, False, False, True): (_ONE, _ONE, (1, 2)),
    (4, False, False, False): ((1, 4),),
}


def _frobenius_pairs(coeffs: tuple[int, ...], disc: int,
                     primes: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """Splitting pattern of monic f (degree 3 or 4) at each prime in primes.

    Every prime must be odd, at most FROBENIUS_P_MAX and prime to disc = disc(f),
    so f is squarefree mod p and Stickelberger's theorem gives the parity of
    its number of factors.
    """
    n = len(coeffs) - 1
    neg = np.stack([_int_mod(-c, primes) for c in coeffs[:n]])
    h = _xpow(primes, neg, primes)
    x = np.zeros((n, 1), dtype=np.int64)
    x[1] = 1
    is_x = (h == x).all(axis=0).tolist()
    # Euler's criterion by the same loop: x^e mod (x - disc) is disc^e
    square = (_xpow((primes - 1) >> 1, _int_mod(disc, primes)[None], primes)[0] == 1).tolist()
    if n == 3:
        is_x2 = [None] * len(primes)
    else:
        h2 = np.zeros_like(h)  # h(h) mod f by Horner's rule
        h2[0] = h[n - 1]
        for i in range(n - 2, -1, -1):
            h2 = _mulmod(h2, h, neg, primes)
            h2[0] = (h2[0] + h[i]) % primes
        is_x2 = (h2 == x).all(axis=0).tolist()
    return [_FROBENIUS_TYPES[n, q, a, b] for q, a, b in zip(square, is_x, is_x2)]


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
    pairs_by_p = field_context(field).pairs_by_p
    if p not in pairs_by_p:
        pairs_by_p[p] = _pairs_for(field, p)
    return SplittingType(p=p, pairs=pairs_by_p[p])


class FieldContext:
    """Everything computed for one field, grown on demand: the polynomial
    discriminant, the splitting table, the prime-ideal stream and the dense
    I(n) row (built by idealcount)."""

    __slots__ = ("disc_poly", "pairs_by_p", "pairs_pmax", "records",
                 "records_xmax", "row", "owner", "__weakref__")

    def __init__(self, field: FieldDescriptor):
        self.disc_poly = poly_discriminant(field.defining_poly)
        self.pairs_by_p: dict[int, tuple[tuple[int, int], ...]] = {}
        self.pairs_pmax = 0  # pairs_by_p holds every prime <= pairs_pmax
        self.records: list[tuple[int, int, int]] = []  # (norm, p, f)
        self.records_xmax = 0
        self.row = None  # r[n] = I(n) for n < len(r): int64 array or list
        self.owner = weakref.ref(field)  # the descriptor it is registered under


_CONTEXTS: weakref.WeakKeyDictionary[FieldDescriptor, FieldContext] = \
    weakref.WeakKeyDictionary()


def field_context(field: FieldDescriptor) -> FieldContext:
    """The context of field, shared by every descriptor equal to it.

    The registry holds descriptors weakly. A descriptor that reaches a
    context registered under an equal one keeps that one alive, so the
    context is freed only with the last of them.
    """
    ctx = _CONTEXTS.get(field)
    if ctx is None:
        ctx = _CONTEXTS[field] = FieldContext(field)
    elif ctx.owner() is not field:
        object.__setattr__(field, "_context_owner", ctx.owner())
    return ctx


def _batchable(primes: list[int], disc: int) -> tuple[np.ndarray, np.ndarray]:
    """primes as an array, and the mask of those the batched kernel takes."""
    arr = np.array(primes, dtype=np.int64)
    return arr, (arr != 2) & (arr <= FROBENIUS_P_MAX) & (_int_mod(disc, arr) != 0)


def _ensure_pairs(field: FieldDescriptor,
                  primes: list[int]) -> dict[int, tuple[tuple[int, int], ...]]:
    """Tabulate the splitting of every prime in primes, an ascending list of
    all primes up to its last entry; returns the table.

    New keys are the int objects of primes, so a caller that keeps them (the
    record stream) does not hold a second copy.
    """
    ctx = field_context(field)
    pairs_by_p = ctx.pairs_by_p
    new = primes[bisect_right(primes, ctx.pairs_pmax):]
    if not new:
        return pairs_by_p
    if field.degree in (3, 4):
        disc = ctx.disc_poly
        starts = range(0, len(new), FROBENIUS_BLOCK)
        # the exact pipeline runs first, so an index prime raises before any
        # batched work
        for lo in starts:
            block = new[lo:lo + FROBENIUS_BLOCK]
            _, sel = _batchable(block, disc)
            for p in compress(block, (~sel).tolist()):
                pairs_by_p[p] = _pattern_mod_p(field, p)
        coeffs = field.defining_poly.coeffs
        for lo in starts:
            block = new[lo:lo + FROBENIUS_BLOCK]
            arr, sel = _batchable(block, disc)
            if sel.any():
                pairs_by_p.update(zip(compress(block, sel.tolist()),
                                      _frobenius_pairs(coeffs, disc, arr[sel])))
    else:
        pairs_by_p.update((p, _pairs_for(field, p)) for p in new)
    ctx.pairs_pmax = new[-1]
    return pairs_by_p


def _records_up_to(field: FieldDescriptor, x: float) -> list[tuple[int, int, int]]:
    """Sorted (norm, p, f) triples with norm <= x, kept in the field's context."""
    xi = math.floor(x)
    ctx = field_context(field)
    if xi > ctx.records_xmax:
        records = []
        primes = rational_primes(xi).tolist()
        pairs_by_p = _ensure_pairs(field, primes)
        for p in primes:
            for _, f in pairs_by_p[p]:
                norm = p ** f
                if norm <= xi:
                    records.append((norm, p, f))
        records.sort()
        ctx.records = records
        ctx.records_xmax = xi
    cut = bisect_right(ctx.records, (xi + 1, 0, 0))
    return ctx.records[:cut]


def prime_ideals_up_to(field: FieldDescriptor, x: float) -> tuple[PrimeIdealRecord, ...]:
    """All prime ideals of norm <= x, sorted by (norm, p).

    A splitting pair (e, f) contributes one record per distinct ideal, so a
    split rational prime appears as many times as it has ideals above it.
    """
    if x < 2:
        raise ValueError("prime_ideals_up_to requires x >= 2")
    return tuple(PrimeIdealRecord(p=p, f=f, norm=norm)
                 for norm, p, f in _records_up_to(field, x))


def theta_K(field: FieldDescriptor, x: float) -> float:
    """Sum of log(norm) over prime ideals of norm <= x."""
    if x < 0:
        raise ValueError("theta_K requires x >= 0")
    if x < 2:
        return 0.0
    return fsum(math.log(norm) for norm, _, _ in _records_up_to(field, x))
