"""The ideal-counting function, its summatory function, and log-weighted sums.

I(n) counts integral ideals of norm exactly n. It is multiplicative, and at a
prime p its local values are the coefficients of prod_i 1/(1 - t^{f_i}) over
the inertia degrees above p. The dense sieve multiplies those local counts
into an all-ones row in exact integers.

The numpy row takes two passes. Each prime p <= sqrt(N) multiplies in the
count of every power p^k <= N at the multiples of p^k with cofactor prime to
p, in place on their strided view cut into runs of p less the last column.
A prime P > sqrt(N) has P^2 > N, so only the number c1(P) of ideals of norm
P matters, and every multiple m*P <= N has a cofactor m < P; one vectorised
step per cofactor m scales row[m*P] by c1(P) for all such P at once.

The numpy row's dtype comes from an a-priori bound: each local count at p^k
is at most C(k + deg - 1, deg - 1), so every partial product is at most
d_deg(n), the deg-fold divisor function, whose maximum below x is computed
exactly. The row takes the narrowest of uint16, uint32 and int64 that holds
that maximum; at the 1e8 cap that is uint16 for quadratics and cubics (at
most 58,320) and uint32 up to degree 7. When the maximum reaches 2^62 the
same two passes run on an object array of arbitrary-precision Python
integers. The dense row is kept in the field's context; ideal_count_sieve
hands callers int64 for every narrow dtype and an object array past the
guard. Every cutoff and grid passes splitting.check_cutoff or check_grid
before any sieve starts.

Sums over the row take one ascending pass over a grid of cutoffs; the
single-point functions are one-point grids. row_sums adds exact integers.
row_log_sums takes the float64 terms I(n) log n of the nonzero I(n), with
np.log, in numpy blocks of at most splitting._SLICE, and splitting.grid_fsums
sums each segment exactly (splitting.exact_sum, one Python int per block)
and rounds it once, as fsum would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Sequence

import numpy as np

from .bounds import LogMagnitude, lambda_K
from .field import PROVENANCE_ESTIMATED, FieldDescriptor, Residue
from .splitting import (  # DENSE_SIEVE_CAP and check_cutoff are re-exported
    DENSE_SIEVE_CAP,
    _norms_up_to,
    _splitting_table,
    check_cutoff,
    check_grid,
    field_context,
    grid_fsums,
)

_CHUNK = 1 << 22  # row entries per step of the cofactor pass and of row_sums


@dataclass(frozen=True)
class SummatoryPoint:
    """Ideal count up to x with the explicit envelope around kappa*x."""

    x: float
    value: int
    sunley_envelope: Optional[float]


def _counts_from_degrees(fs: Sequence[int], m: int) -> list[int]:
    counts = [1] + [0] * m
    for f in fs:
        for k in range(f, m + 1):
            counts[k] += counts[k - f]
    return counts


def _max_divisor_count(x: int, k: int) -> int:
    """Exact max over n <= x of d_k(n) = prod_i C(e_i + k - 1, k - 1), the
    k-fold divisor function (d_2 = d), by descending-exponent search: d_k
    grows with each exponent, so a maximiser is a product of the first primes
    with non-increasing exponents."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    best = 1

    def rec(i: int, remaining: int, count: int, max_exp: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i == len(primes):
            return
        p = primes[i]
        power = p
        e = 1
        while power <= remaining and e <= max_exp:
            rec(i + 1, remaining // power, count * math.comb(e + k - 1, k - 1), e)
            e += 1
            power *= p
    rec(0, x, 1, 64)
    return best


def _local_factors(primes: np.ndarray, codes: np.ndarray, patterns,
                   n_max: int):
    """(p, p^k, c) for every p of primes and power p^k <= n_max whose local
    count c, the number of ideals of norm p^k, is not 1; codes index each
    prime's splitting pattern in patterns."""
    for p, code in zip(primes.tolist(), codes.tolist()):
        powers = [p]
        while powers[-1] * p <= n_max:
            powers.append(powers[-1] * p)
        counts = _counts_from_degrees([f for _, f in patterns[code]], len(powers))
        for q, c in zip(powers, counts[1:]):
            if c != 1:
                yield p, q, c


def _row_dtype(bound: int):
    """The narrowest of uint16, uint32 and int64 that holds every value in
    [0, bound], or object (Python ints) when the int64 guard (bound < 2^62)
    fails."""
    for dtype in (np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.int64 if bound < 2 ** 62 else object


def _dense_row_numpy(field: FieldDescriptor, n_max: int,
                     dtype=np.int64) -> np.ndarray:
    """The row in dtype, which must hold every partial product of I(n) for
    n <= n_max (the _max_divisor_count bound)."""
    row = np.ones(n_max + 1, dtype=dtype)
    row[0] = 0
    primes, codes, patterns = _splitting_table(field, n_max)
    split = np.searchsorted(primes, math.isqrt(n_max), "right")
    # primes p <= sqrt(n_max), each power q = p^k <= n_max: view[i] = row[q*(i+1)]
    # has the cofactors i + 1 = 0 mod p in the last column of each run of p and
    # none in the tail of < p (a strided 1-D view reshapes to a view, not a copy)
    for p, q, c in _local_factors(primes[:split], codes[:split], patterns, n_max):
        view = row[q:: q]
        full = len(view) - len(view) % p
        view[:full].reshape(-1, p)[:, :-1] *= c
        view[full:] *= c
    # primes P > sqrt(n_max): P^2 > n_max, and each multiple m*P <= n_max has
    # a cofactor m < P prime to P, so its local factor is c1[P], the number of
    # ideals of norm P; one pass per cofactor m over all P <= n_max // m
    c1_by_pattern = np.array([sum(f == 1 for _, f in pairs) for pairs in patterns],
                             dtype=dtype)
    keep = (c1_by_pattern != 1)[codes[split:]]
    big_p, big_c = primes[split:][keep], c1_by_pattern[codes[split:][keep]]
    del primes, codes, keep
    if len(big_p):
        tops = np.searchsorted(big_p, n_max // np.arange(1, n_max // int(big_p[0]) + 1),
                               "right").tolist()
        for m, j in enumerate(tops, start=1):
            for lo in range(0, j, _CHUNK):
                hi = min(lo + _CHUNK, j)
                # indices m*P <= n_max <= 1e8; the values are partial products
                # of I(n), bounded by the d_deg guard in _dense_row
                row[m * big_p[lo:hi]] *= big_c[lo:hi]
    return row


def _dense_row(field: FieldDescriptor, n_max: int) -> np.ndarray:
    """Row r with r[n] = I(n) for 0 <= n <= n_max, possibly longer; kept in
    the field's context."""
    check_cutoff("x", n_max, 0)
    ctx = field_context(field)
    if ctx.row is None or len(ctx.row) <= n_max:
        ctx.row = None  # free the shorter row before building the longer one
        ctx.row = _dense_row_numpy(
            field, n_max, _row_dtype(_max_divisor_count(n_max, field.degree)))
    return ctx.row


def _segments(grid, start: int):
    """(lo, hi) for each x of the ascending grid: the indices lo <= n < hi
    with n <= x not covered by an earlier point, from start on."""
    for x in grid:
        cut = max(start, math.floor(x) + 1)
        yield start, cut
        start = cut


def row_sums(row: np.ndarray, grid) -> list[int]:
    """Sum of row[n] over n <= x for each x of the ascending grid, in one
    pass of exact per-segment sums."""
    out = []
    total = 0
    for lo, hi in _segments(grid, 0):
        # numpy sums a narrow row in (u)int64, so each _CHUNK entries become
        # one Python int; an object row sums Python ints throughout
        total += sum(int(row[a:min(a + _CHUNK, hi)].sum())
                     for a in range(lo, hi, _CHUNK))
        out.append(total)
    return out


def row_log_sums(row: np.ndarray, grid) -> list[float]:
    """Sum of row[n] log(n) over 2 <= n <= x for each x of the ascending
    grid, in one grid_fsums pass over blocks of the row (the terms of zero
    I(n), +0.0, are left out; the exact sums cannot change)."""

    def terms(a, b):
        part = row[a:b]
        nz = np.flatnonzero(part)
        return part[nz].astype(np.float64) * np.log((nz + a).astype(np.float64)),

    [values] = grid_fsums(_segments(grid, 2), terms)
    return values


def ideal_count_sieve(field: FieldDescriptor, x: int) -> np.ndarray:
    """I(1), ..., I(x) as exact integers."""
    check_cutoff("x", x, 1)
    n = int(x)
    row = _dense_row(field, n)
    # int64 for every narrow dtype, so a caller's arithmetic cannot wrap
    return row[1:n + 1].astype(np.promote_types(row.dtype, np.int64))


def _sunley_envelope(field: FieldDescriptor, x: float) -> Optional[float]:
    """Lambda_K x^(1 - 2/(n+1)), the bound on |Isum(x) - kappa x|; None for Q."""
    if field.degree < 2:
        return None
    if x <= 0:
        return 0.0
    n = field.degree
    return LogMagnitude(lambda_K(n, field.abs_discriminant).natural_log
                        + (1 - 2 / (n + 1)) * math.log(x)).value


def summatory_grid(field: FieldDescriptor, grid) -> list[SummatoryPoint]:
    """summatory at each x of the ascending grid, from one row built at the
    top point and one pass over it."""
    grid = check_grid(grid, 0)
    values = row_sums(_dense_row(field, math.floor(grid[-1])), grid)
    return [SummatoryPoint(x=x, value=v, sunley_envelope=_sunley_envelope(field, x))
            for x, v in zip(grid, values)]


def summatory(field: FieldDescriptor, x: float) -> SummatoryPoint:
    """Sum of I(n) for n <= x, with the explicit envelope when available."""
    [point] = summatory_grid(field, [x])
    return point


def t_K(field: FieldDescriptor, x: float) -> float:
    """Sum of I(n) log(n) for n <= x, compensated."""
    check_cutoff("x", x, 2)
    return row_log_sums(_dense_row(field, math.floor(x)), [x])[0]


def kappa_estimate(field: FieldDescriptor, x: float) -> Residue:
    """Residue estimate I_sum(x)/x with its rigorous half-width."""
    check_cutoff("x", x, 100)
    point = summatory(field, x)
    if field.degree >= 2:
        n = field.degree
        halfwidth = LogMagnitude(lambda_K(n, field.abs_discriminant).natural_log
                                 - (2 / (n + 1)) * math.log(x)).value
    else:
        halfwidth = 1.0 / x
    return Residue(value=point.value / x, provenance=PROVENANCE_ESTIMATED,
                   halfwidth=halfwidth)


def legendre_chebyshev_rhs(field: FieldDescriptor, x: float) -> float:
    """log of prod over prime ideals of norm^(sum_j Isum(x / norm^j)).

    Exactly equals t_K(x); used as the identity's independent route.
    """
    check_cutoff("x", x, 2)
    n_max = math.floor(x)
    # each ideal's exponent reads Isum at the points floor(x / norm^j)
    reads = []
    for norm in _norms_up_to(field, x).tolist():
        points = []
        q = norm
        while q <= n_max:
            points.append(n_max // q)
            q *= norm
        reads.append((norm, points))
    grid = sorted({t for _, points in reads for t in points})
    isum = dict(zip(grid, row_sums(_dense_row(field, n_max), grid)))
    exponents = ((norm, sum(isum[t] for t in points)) for norm, points in reads)
    return fsum(e * math.log(norm) for norm, e in exponents if e)
