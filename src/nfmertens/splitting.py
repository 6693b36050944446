"""Prime splitting in a number field and the rational-prime sieve.

For each rational prime p the splitting type is the multiset of
(ramification index, inertia degree) pairs of the prime ideals over p, with
sum(e_i * f_i) = degree.

A field's route, chosen once by _route when _tabulate first needs it, is a
triple (e, key, codes): every prime not dividing e reads the code of its
pattern as codes[key(p)], -1 for a key the route rules out. _route takes the
first that applies of _class_route (p mod m), _kummer_route (p mod l and one
power residue) and _kernel_route (batched int64 numpy passes with delayed
modular reduction: Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008).

The primes dividing e, every prime of a field with no route (non-abelian,
degree >= 5, not pure), and single primes past the table take the exact
pipeline (_pairs_for), guarded by the Dedekind index criterion: an index
prime, which divides the e of every route of degree >= 3, is a hard error,
never a guess. The exact pipeline is the oracle of the kernel and Kummer
routes, and the kernel routes that of the class and Kummer routes.

A field's route and splitting table live in its FieldContext, freed with
the descriptor; the uint32 prime sieve is shared, the process keeping its
largest, read-only. check_cutoff and check_grid hold the one range rule of a cutoff
and of a grid; every sieve applies it before it starts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import itemgetter

import numpy as np

from .blockpass import running_fsums, segment_sums, slices
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

# No sieve of primes, prime ideals or I(n) goes past it, so no prime of a
# splitting table does, and the batched kernels' int64 sums stay bounded.
# Kernel inputs lie in [0, p). A coefficient of a square or product of two
# polynomials of degree < d sums at most d products of (p - 1)^2 before any
# reduction; the fold reduces degrees d..2d-1 and adds d more such products
# to each low coefficient, so at most 2d products of (p - 1)^2 meet in one
# int64. For d <= 4 that is 8 (1e8 - 1)^2 < 8e16 < 2^63. The one-dimensional
# powers of _powmod (Euler's and the Kummer route's) and the per-block fold
# table take one product plus one addend below p, under 1e16 + 1e8.
DENSE_SIEVE_CAP = 10 ** 8

# Primes per batched block: the Frobenius kernel's rows of this length are
# 64 KB each, so a squaring's working set of a few dozen rows stays in a
# core's L2 cache whatever the range.
FROBENIUS_BLOCK = 1 << 13

# Largest modulus m of a residue-class table: a quadratic field's |D|, or a
# certified abelian field's conductor. A quadratic's table takes one
# kronecker call, about 1.6 us, per class: 0.1 s at 2^16, what the batched
# Euler pass costs (about 0.35 us a prime) over the 3e5 primes below 4.3e6.
# Past it Euler's pass stays the quadratic route.
CLASS_TABLE_MAX = 1 << 16

_DIGIT_BITS = 24

# Primes per block of the prime-ideal stream, which casts them to int64: a
# block's norms take at most 8 bytes a prime ideal, 512 KB for a quartic
_PRIME_BLOCK = 1 << 14


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
    return np.flatnonzero(flags)


# The largest sieve made in this process, read-only, and its cutoff
_sieved = np.empty(0, dtype=np.uint32)
_sieved.flags.writeable = False
_sieved_to = 1


def _prime_count_bound(n: int) -> int:
    """At least pi(n), the number of primes <= n, for n >= 2: Rosser and
    Schoenfeld's pi(x) < 1.25506 x / log x for x > 1 (Illinois J. Math. 6,
    1962, (3.6)), plus one for the float's rounding; 6.8e6 (27 MB) at 1e8."""
    return int(1.25506 * n / math.log(n)) + 1


def _sieve(n: int) -> np.ndarray:
    """Ascending uint32 array of all primes <= n, 2 <= n < 2^32: 2, then the
    odd numbers from 3 in segments of SIEVE_SEGMENT flags, flag i for lo + 2 i,
    each writing its primes in place into one array sized by
    _prime_count_bound, whose pages past the last prime are never written and
    so take no memory."""
    base = _simple_sieve(math.isqrt(n))[1:].tolist()
    primes = np.empty(_prime_count_bound(n), dtype=np.uint32)
    primes[0] = 2
    k, lo = 1, 3
    while lo <= n:
        hi = min(lo + 2 * SIEVE_SEGMENT, n + 1)
        flags = np.ones((hi - lo + 1) // 2, dtype=bool)
        for p in base:
            start = max(p * p, (-(-lo // p) | 1) * p)  # odd, as lo is
            if start < hi:
                flags[(start - lo) // 2:: p] = False
        found = np.flatnonzero(flags)
        found *= 2
        np.add(found, lo, out=primes[k:k + len(found)], casting="unsafe")
        k, lo = k + len(found), hi
    return primes[:k]


def rational_primes(x: float) -> np.ndarray:
    """Ascending uint32 array of all primes <= x, read-only.

    The process keeps its largest sieve and returns prefix views of it,
    sieving again only past its cutoff. The array is shared: writing to it
    raises ValueError, so a caller that needs to write takes a copy.
    """
    global _sieved, _sieved_to
    if x < 2:
        return _sieved[:0]
    check_cutoff("x", x, 2)
    n = math.floor(x)
    if n > _sieved_to:
        _sieved, _sieved_to = _sieve(n), n
        _sieved.flags.writeable = False
    return _sieved[:_searchsorted(_sieved, n, "right")]


def _searchsorted(table: np.ndarray, needles, side: str = "left"):
    """np.searchsorted with the needles cast to the table's dtype, which
    holds them: numpy would cast the whole table (5 ms at 1e8) to theirs."""
    return np.searchsorted(table, np.asarray(needles, table.dtype), side)


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
    """a mod p in int64 for every p in primes, for any int a and primes below
    2^39.

    |a| enters in base-2^24 digits by Horner's rule; with r < p < 2^39 each
    step r * 2^24 + digit stays below 2^63.
    """
    mag = abs(a)
    r = np.zeros(primes.shape, dtype=np.int64)
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
# False for them. Stickelberger's theorem, (disc f / p) = (-1)^(n - r) for the
# number r of irreducible factors of f mod p, rules the other combinations out.
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

# Splitting in a quadratic field by the Kronecker symbol (D / p)
_CHARACTER_PATTERNS = {1: (_ONE, _ONE), -1: ((1, 2),), 0: ((2, 1),)}


def _frobenius_keys(coeffs: tuple[int, ...], disc: int,
                    primes: np.ndarray) -> np.ndarray:
    """Frobenius key 4 ((disc / p) == 1) + 2 (x^p == x) + (x^(p^2) == x) of
    monic f of degree n = 3 or 4 at each prime in primes, the index of its
    combination in product((False, True), repeat=3); cubics leave the last
    bit 0.

    Every prime must be odd, at most DENSE_SIEVE_CAP and prime to
    disc = disc(f), so f is squarefree mod p.
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
    return key


def _pairs_for(field: FieldDescriptor, p: int) -> tuple[tuple[int, int], ...]:
    """The exact pipeline: the Kronecker symbol for a quadratic field, else
    the defining polynomial factored mod p."""
    if field.degree == 2:
        return _CHARACTER_PATTERNS[kronecker(field.discriminant, p)]
    return _pattern_mod_p(field, p)


def splitting_type(field: FieldDescriptor, p: int) -> SplittingType:
    """Splitting of the rational prime p in the field. Inside the splitting
    table the table decides that p is prime; past it, is_prime does."""
    ctx = field_context(field)
    if p <= ctx.table_xmax:
        i = _searchsorted(ctx.primes, max(p, 0))
        if i < len(ctx.primes) and ctx.primes[i] == p:
            return SplittingType(p=p, pairs=ctx.patterns[ctx.codes[i]])
    elif is_prime(p):
        return SplittingType(p=p, pairs=_pairs_for(field, p))
    raise CompositeModulus(f"{p} is not prime")


class FieldContext:
    """What is kept for one field, grown on demand: its route, chosen when
    _tabulate first needs it, so a query the exact pipeline answers chooses
    none, and the splitting table: every prime <= table_xmax, ascending, and
    the index of its splitting pattern in patterns, which lists only the
    patterns the route's codes and the exact pipeline have met."""

    __slots__ = ("route", "primes", "codes", "patterns", "table_xmax", "__weakref__")

    def __init__(self):
        self.patterns: list[tuple[tuple[int, int], ...]] = []
        self.route = _UNCHOSEN
        self.primes = np.empty(0, dtype=np.uint32)
        self.codes = np.empty(0, dtype=np.uint8)
        self.table_xmax = 0

    def route_for(self, field: FieldDescriptor):
        """The route of field, this context's descriptor: chosen by _route
        on the first call, then kept."""
        if self.route is _UNCHOSEN:
            self.route = _route(field, self.patterns)
        return self.route


_UNCHOSEN = object()  # the route of a context before route_for is called


def _codes(patterns: list, pairs) -> np.ndarray:
    """The index in patterns of each entry of pairs, -1 for None, as int8 up
    to 127 patterns; patterns gains the ones it lacks."""
    for pattern in pairs:
        if pattern is not None and pattern not in patterns:
            patterns.append(pattern)
    return np.array([-1 if pattern is None else patterns.index(pattern)
                     for pattern in pairs], np.min_scalar_type(-1 - len(patterns)))


def _class_route(field: FieldDescriptor, patterns: list):
    """The route of a field that reads its splitting from p mod m, key(p) =
    p % m, or None.

    Q has m = 1. A quadratic field with |D| <= CLASS_TABLE_MAX reads the
    Kronecker character, m = |D|, at every prime. A field of degree >= 3 with
    a cyclotomic certificate of conductor m <= CLASS_TABLE_MAX gives the
    class of each r prime to m the pattern of n / f ideals of residue degree
    f, the order of r in (Z/m)^x / H, and leaves the primes dividing
    m disc(f) to the exact pipeline; the other classes hold -1.
    """
    n, cert = field.degree, field.cyclotomic
    if n == 1:
        m, e, pairs = 1, 1, [(_ONE,)]
    elif n == 2 and field.abs_discriminant <= CLASS_TABLE_MAX:
        m, e = field.abs_discriminant, 1
        pairs = [_CHARACTER_PATTERNS[kronecker(field.discriminant, r)]
                 for r in range(m)]
    elif n >= 3 and cert is not None and cert.conductor <= CLASS_TABLE_MAX:
        m = cert.conductor
        e, pairs = m * poly_discriminant(field.defining_poly), [None] * m
        for r in range(m):
            if math.gcd(r, m) == 1:
                f, power = 1, r
                while power not in cert.subgroup:
                    f, power = f + 1, power * r % m
                pairs[r] = ((1, f),) * (n // f)
    else:
        return None
    return e, lambda block: block % m, _codes(patterns, pairs)


def _kummer_keys(ell: int, a: int, primes: np.ndarray) -> np.ndarray:
    """Kummer key (p % ell) + ell [a^((p-1)/ell) = 1 mod p] of x^ell - a at
    each prime in primes, none dividing ell a; the power is taken only where
    p = 1 mod ell, and there a power t with t^ell != 1 mod p gets key 0,
    which no prime prime to ell has."""
    key = primes % ell
    one = np.flatnonzero(key == 1)
    q = primes[one]
    t = _powmod(_int_mod(a, q), (q - 1) // ell, q)
    root = _powmod(t, np.full_like(q, ell), q) == 1
    key[one] = np.where(root, 1 + ell * (t == 1), 0)
    return key


def _kummer_route(field: FieldDescriptor, patterns: list):
    """The route of a pure field, f = x^ell - a with ell an odd prime, or
    None: e = ell a. For p % ell = r != 1, x -> x^ell permutes F_p^x, so f
    has one root in F_p, and Frobenius moves its multiples by the ell-th
    roots of unity in orbits of k, the order of r mod ell: one ideal of
    degree 1 and (ell - 1) / k of degree k. For r = 1, f splits completely
    when t = a^((p-1)/ell) is 1 mod p, else is irreducible (Lidl &
    Niederreiter, Finite Fields, 3.5; Ireland & Rosen, GTM 84, ch. 9); t^ell
    = 1 stands in for Stickelberger's check. Other keys hold -1. Such a field
    is never normal, so no class route competes."""
    ell = field.degree
    if ell < 3 or not is_prime(ell) or any(field.defining_poly.coeffs[1:ell]):
        return None
    a, pairs = -field.defining_poly.coeffs[0], [None] * (2 * ell)
    for r in range(2, ell):
        k, power = 1, r
        while power != 1:
            k, power = k + 1, power * r % ell
        pairs[r] = (_ONE,) + ((1, k),) * ((ell - 1) // k)
    pairs[1], pairs[ell + 1] = ((1, ell),), (_ONE,) * ell
    return ell * a, partial(_kummer_keys, ell, a), _codes(patterns, pairs)


def _kernel_route(field: FieldDescriptor, patterns: list):
    """The route of the batched kernels, or None past degree 4: Euler's bit
    (D / p) == 1 for a quadratic field, e = 2D, and the Frobenius key for a
    cubic or quartic, e = 2 disc(f)."""
    n = field.degree
    if n == 2:
        disc = field.discriminant

        def key(block):  # as uint8: a bool array would index as a mask
            return _euler_square(_int_mod(disc, block), block).view(np.uint8)
        return 2 * disc, key, _codes(patterns, [((1, 2),), (_ONE, _ONE)])
    if n in _FROBENIUS_TYPES:
        disc = poly_discriminant(field.defining_poly)
        return 2 * disc, partial(_frobenius_keys, field.defining_poly.coeffs, disc), \
            _codes(patterns, [_FROBENIUS_TYPES[n].get(bits)
                              for bits in product((False, True), repeat=3)])
    return None


def _route(field: FieldDescriptor, patterns: list):
    """The field's one batched route, (e, key, codes), or None when every
    prime takes the exact pipeline."""
    return (_class_route(field, patterns) or _kummer_route(field, patterns)
            or _kernel_route(field, patterns))


def field_context(field: FieldDescriptor) -> FieldContext:
    """The context of this descriptor, made on first use and kept in its
    context attribute, so it is freed with the descriptor. Equal descriptors
    each have their own."""
    if field.context is None:
        object.__setattr__(field, "context", FieldContext())
    return field.context


def _tabulate(field: FieldDescriptor, ctx: FieldContext,
              primes: np.ndarray) -> np.ndarray:
    """Code in ctx.patterns of the splitting pattern of each prime in primes.

    The primes ctx's route takes, those not dividing its e, read codes[key(p)]
    in int64 blocks of FROBENIUS_BLOCK primes; a code of -1 raises
    InvariantViolation. The rest, every prime when there is no route, take
    _pairs_for first, so an index prime raises before any batched work. Each
    mask and cast spans one block; the codes go in place into one array of
    the narrowest dtype that holds them.
    """
    route = ctx.route_for(field)
    e, key, table = route or (0, None, None)  # every prime divides 0
    starts = range(0, len(primes), FROBENIUS_BLOCK)
    rest = [np.flatnonzero(_int_mod(e, primes[lo:lo + FROBENIUS_BLOCK]) == 0) + lo
            for lo in starts]
    at = np.concatenate([np.empty(0, np.intp), *rest])
    exact = _codes(ctx.patterns, [_pairs_for(field, p) for p in primes[at].tolist()])
    codes = np.zeros(len(primes), np.min_scalar_type(max(len(ctx.patterns) - 1, 0)))
    codes[at] = exact
    for lo, out in zip(starts, rest) if route else ():
        sel = np.ones(min(FROBENIUS_BLOCK, len(primes) - lo), dtype=bool)
        sel[out - lo] = False
        block = primes[lo:lo + FROBENIUS_BLOCK][sel].astype(np.int64)
        batch = table[key(block)]
        if (batch < 0).any():
            raise InvariantViolation(
                f"p = {block[batch < 0][0]} has a key its splitting route rules out")
        codes[lo:lo + FROBENIUS_BLOCK][sel] = batch
    return codes


def _splitting_table(field: FieldDescriptor,
                     n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """(primes, codes, patterns): every prime p <= n ascending, the index of
    its splitting pattern in patterns, and the patterns; kept in the field's
    context, which grows the table when n passes its end."""
    ctx = field_context(field)
    if n > ctx.table_xmax:
        primes = rational_primes(n)
        codes = _tabulate(field, ctx, primes[len(ctx.primes):])
        ctx.codes = np.concatenate((ctx.codes, codes)) if len(ctx.codes) else codes
        ctx.primes, ctx.table_xmax = primes, n
    k = _searchsorted(ctx.primes, n, "right")
    return ctx.primes[:k], ctx.codes[:k], ctx.patterns


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n, for n >= 0."""
    r = int(n ** (1 / k))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _per_pattern(patterns: list, f: int, dtype) -> np.ndarray:
    """The number of ideals of residue degree f in each pattern, as dtype."""
    return np.array([sum(g == f for _, g in pairs) for pairs in patterns], dtype)


def _ideal_stream(field: FieldDescriptor, xi: int, p_and_f: bool = False):
    """For each block of _PRIME_BLOCK primes <= xi, the int64 rows norm, or
    norm, p and f, one column per prime ideal of norm <= xi from the block's
    first prime up to the next block's, sorted by (norm, p).

    The degree-1 norms are the primes repeated by their number of degree-1
    ideals, already in order. The few norms p^f, f >= 2, are listed once,
    sorted, and each goes in its block by searchsorted; a norm p^f fixes p
    and f, so no two entries tie.
    """
    primes, codes, patterns = _splitting_table(field, xi)
    # a prime has at most len(pairs) ideals of any degree
    narrow = np.min_scalar_type(max(map(len, patterns), default=1))
    c1 = _per_pattern(patterns, 1, narrow)
    high = [np.empty((4, 0), dtype=np.int64)]  # rows norm, p, f, count
    for f in sorted({f for pairs in patterns for _, f in pairs} - {1}):
        # only primes p <= xi^(1/f) are raised to the power f, so each int64
        # norm p^f <= xi, the end of a sieved prime table, far below 2^63
        k = _searchsorted(primes, _iroot(xi, f), "right")
        count = _per_pattern(patterns, f, narrow)[codes[:k]]
        p = primes[:k][count > 0].astype(np.int64)
        high.append(np.stack((p ** f, p, np.full_like(p, f), count[count > 0])))
    high = np.concatenate(high, axis=1)
    high = high[:, np.argsort(high[0])]
    pos = _searchsorted(primes, high[0])  # each p^f follows the pos-th prime

    def blocks():
        for a in range(0, len(primes), _PRIME_BLOCK):
            b = min(a + _PRIME_BLOCK, len(primes))
            p = np.repeat(primes[a:b], c1[codes[a:b]]).astype(np.int64)
            i, j = np.searchsorted(pos, [a, b], "right")
            h = np.repeat(high[:3, i:j], high[3, i:j], axis=1)  # the block's p^f
            rows = np.stack((p, p, np.ones_like(p)) if p_and_f else (p,))
            yield np.insert(rows, np.searchsorted(p, h[0]), h[:len(rows)], axis=1)
            del p, h, rows  # before the next block's are made
    return blocks()


def _records_up_to(field: FieldDescriptor, x: float) -> np.ndarray:
    """(norm, p, f) rows, one per prime ideal of norm <= x, sorted by
    (norm, p): a (k, 3) int64 array, the stream's blocks joined on each call,
    not kept."""
    check_cutoff("x", x, 0)
    blocks = _ideal_stream(field, math.floor(x), p_and_f=True)
    return np.concatenate([np.empty((3, 0), dtype=np.int64), *blocks], axis=1).T


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
    parts = slices(map(itemgetter(0), _ideal_stream(field, math.floor(x))),
                   lambda lo, norms: np.array([len(norms)]))
    [[value]] = map(running_fsums, segment_sums(
        parts, lambda k, a, norms: (np.log(norms.astype(np.float64)),), 1))
    return value


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
