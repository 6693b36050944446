"""The ideal-counting function, its summatory function, and log-weighted sums.

I(n) counts integral ideals of norm exactly n. It is multiplicative, and at a
prime p its local values are the coefficients of prod_i 1/(1 - t^{f_i}) over
the inertia degrees above p. The sieve is segmented (Bays & Hudson, BIT 17,
1977): blocks of 2 MB (_ROW_BLOCK entries of uint16), each built when a pass
reaches it; no row is kept. A prime P > sqrt(N) counts only by c1(P), its
ideals of norm P, and no n has two such P: searchsorted finds the P with m P
in the block for every cofactor m at once, and their c1 are stored into a
block of ones. A prime p <= sqrt(N) then multiplies its count c at q = p^k
into the multiples t q of the block, t prime to p, in 1-D strides: p < 8 in
its p - 1 residue columns mod p, a larger p in every multiple of q, with the
multiples of p q (at most 1/64 of the block) copied aside and written back.

Every partial product is at most d_deg(n), the deg-fold divisor function; the
blocks take the narrowest dtype that holds its maximum (_row_dtype). Every
cutoff and grid passes splitting.check_cutoff or check_grid before any sieve
starts.

row_sums takes one ascending pass over the blocks for a grid of cutoffs (the
single-point functions are one-point grids), exact, or rounded as fsum would
(blockpass.segment_sums and running_fsums): no sum depends on the grid or
on where the blocks end. legendre_chebyshev_mismatches checks a whole row
against the splitting table, per prime in exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .blockpass import running_fsums, segment_sums, slices
from .bounds import LogMagnitude, lambda_K
from .errors import DivisorBoundExceeded
from .field import PROVENANCE_ESTIMATED, FieldDescriptor, Residue
from .splitting import _iroot, _per_pattern, _splitting_table, check_cutoff, check_grid

_ROW_BLOCK = 1 << 20  # entries per block of uint16, 2 MB; wider blocks hold fewer
_PAIRS = 1 << 15  # (m, P) pairs per step of a block's cofactor pass
_RUN = 1 << 10  # a cofactor with this many P or more takes slices of its own


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
        p = power = primes[i]
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


def _row_dtype(n_max: int, degree: int):
    """The narrowest of uint16, uint32 and int64 that holds max d_degree(n),
    n <= n_max: uint16 for quadratics and cubics at the 1e8 cap, uint32 up to
    degree 7. Past the int64 guard, 2^62, it raises DivisorBoundExceeded, a
    usage error: degree >= 29 near the cap."""
    bound = _max_divisor_count(n_max, degree)
    for dtype, top in ((np.uint16, 2 ** 16), (np.uint32, 2 ** 32), (np.int64, 2 ** 62)):
        if bound < top:
            return dtype
    raise DivisorBoundExceeded(f"x {n_max} is too large for a degree-{degree} field: "
                               "the I(n) row's bound d_deg(n) reaches 2^62")


def _row_block(lo: int, hi: int, dtype, small, big_p, big_codes,
               c1) -> np.ndarray:
    """block[i] = I(lo + i), lo <= lo + i < hi: the large primes big_p (table
    slices, with codes big_codes) store c1[code] into a block of ones, then
    each small (p, q, c) multiplies c into the multiples t q, t prime to p,
    in 1-D strided views."""
    block = np.ones(hi - lo, dtype=dtype)
    if len(big_p) and hi > big_p[0]:
        # big_p[a:a + runs] are the P with lo <= m P < hi: a long run is a
        # slice, the short ones a ragged arange, about _PAIRS pairs a step
        m = np.arange(1, (hi - 1) // int(big_p[0]) + 1)
        a = np.searchsorted(big_p, (lo + m - 1) // m)
        runs = np.searchsorted(big_p, (hi - 1) // m, "right") - a
        k = int((runs >= _RUN).sum())
        # every code indexes c1, so mode="clip" clips nothing: it only skips
        # the index checks, and the lookup runs 1.7x as fast as c1[codes]
        for j, (x, y) in enumerate(zip(a[:k].tolist(), (a + runs)[:k].tolist())):
            for s in range(x, y, _PAIRS):
                at = big_p[s:min(s + _PAIRS, y)] * (j + 1)
                at -= lo
                block[at] = c1.take(big_codes[s:s + len(at)], mode="clip")
        m, a, runs = m[k:], a[k:], runs[k:]
        if len(m):
            # the short runs reach only P below hi / m[0], each many times:
            # they read the P of that range whose c1 is not 1, and their c1,
            # from copies made for this block
            c = c1.take(big_codes[:a[0] + runs[0]], mode="clip")
            keep = np.flatnonzero(c != 1)
            big_p, c = big_p[keep], c[keep]
            a, runs = np.searchsorted(keep, a), np.searchsorted(keep, a + runs)
            runs -= a
            ends = np.cumsum(runs)
            edges = np.searchsorted(ends, range(0, int(ends[-1]) + _PAIRS, _PAIRS),
                                    "right").tolist()
            for j, i in zip(edges, edges[1:]):
                if j < i:
                    pairs = np.repeat((a - ends + runs)[j:i], runs[j:i])
                    pairs += np.arange(ends[j] - runs[j], ends[i - 1])
                    at = big_p[pairs]
                    at *= np.repeat(m[j:i], runs[j:i])
                    at -= lo
                    block[at] = c[pairs]
    if not lo:
        block[0] = 0  # I(0) = 0
    # after the stores every value is a partial product, bounded by _row_dtype
    for p, q, c in small:
        t = max(1, -(-lo // q))  # view[i] = block[(t + i) q - lo]
        if t * q < hi:
            view = block[t * q - lo:: q]
            h = -t % p  # view[h::p] are the multiples of p q
            if p < 8:  # each other residue column in place
                for j in range(1, p):
                    view[(h + j) % p:: p] *= c
            else:  # all, then view[h::p] written back: its products may wrap
                keep = view[h:: p].copy()
                view *= c
                view[h:: p] = keep
    return block


def _row_blocks(field: FieldDescriptor, n_max: int):
    """(lo, block), block[i] = I(lo + i), for 0 <= n <= n_max in ascending
    blocks, each built when asked for; checks the cutoff and dtype at once."""
    check_cutoff("x", n_max, 0)
    dtype = _row_dtype(n_max, field.degree)
    primes, codes, patterns = _splitting_table(field, n_max)
    split = np.searchsorted(primes, math.isqrt(n_max), "right")
    small = list(_local_factors(primes[:split], codes[:split], patterns, n_max))
    # P > sqrt(n_max) stores c1(P), its number of degree-1 ideals, at each
    # m P <= n_max, read from the table's slices where a block needs them
    big = primes[split:], codes[split:], _per_pattern(patterns, 1, dtype)
    step = _ROW_BLOCK * 2 // np.dtype(dtype).itemsize
    return ((lo, _row_block(lo, min(lo + step, n_max + 1), dtype, small, *big))
            for lo in range(0, n_max + 1, step))


def row_sums(blocks, grid, logs: bool = True) -> tuple[list[int], list[float]]:
    """(I-sums, T-sums) at each x of the ascending grid, the sums over n <= x
    of I(n), exact, and of I(n) log n (none without logs), in one pass over
    the blocks (lo, block) from lo = 0, cut by blockpass.slices; T leaves
    out the terms of zero I(n), +0.0."""
    cuts = np.array([math.floor(x) + 1 for x in grid])
    isums = [0] * len(cuts)

    def terms(k, a, part):
        # uint16 and uint32 sum exactly; int64 (< 2^62) in two halves
        isums[k] += int(part.sum()) if part.dtype != np.int64 else \
            (int((part >> 31).sum()) << 31) + int((part & 2 ** 31 - 1).sum())
        if not logs:
            return ()
        nz = np.flatnonzero(part != 0)
        out = part[nz].astype(np.float64)
        nz += a  # in place: two fewer temporaries per part
        out *= np.log(nz.astype(np.float64))
        return out,

    parts = slices(map(itemgetter(1), blocks),
                   lambda lo, block: np.clip(cuts - lo, 0, len(block)))
    [tsums] = segment_sums(parts, terms, len(cuts), int(logs)) or [[]]
    return list(accumulate(isums)), running_fsums(tsums)


def ideal_count_sieve(field: FieldDescriptor, x: int) -> np.ndarray:
    """I(1), ..., I(x) in int64, so a caller's arithmetic cannot wrap."""
    check_cutoff("x", x, 1)
    row = np.empty(int(x) + 1, dtype=np.int64)
    for lo, block in _row_blocks(field, int(x)):
        row[lo:lo + len(block)] = block
        del block  # else the loop holds it while the next one is made
    return row[1:]


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
    """summatory at each x of the ascending grid, from one pass over the
    row's blocks up to the top point."""
    grid = check_grid(grid, 0)
    values, _ = row_sums(_row_blocks(field, math.floor(grid[-1])), grid, logs=False)
    return [SummatoryPoint(x=x, value=v, sunley_envelope=_sunley_envelope(field, x))
            for x, v in zip(grid, values)]


def summatory(field: FieldDescriptor, x: float) -> SummatoryPoint:
    """Sum of I(n) for n <= x, with the explicit envelope when available."""
    [point] = summatory_grid(field, [x])
    return point


def t_K(field: FieldDescriptor, x: float) -> float:
    """Sum of I(n) log(n) for n <= x, compensated."""
    check_cutoff("x", x, 2)
    return row_sums(_row_blocks(field, math.floor(x)), [x])[1][0]


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


def legendre_chebyshev_mismatches(field: FieldDescriptor, grid) -> list[int]:
    """At each x of the ascending grid, the number of primes p where the
    coefficient of log p in T(x), sum_{n<=x} I(n) v_p(n), differs from
    sum_{P|p} f_P sum_{k>=1} Isum(x / N(P)^k); from the whole int64 row.

    The row, its prefix sums and the runs of I(i q) hold about 11 int64 per
    n up to the last grid point: gaussian at 1e6 peaked at 116 MB. So the
    grid must lie in [2, 1e6], or CutoffOutOfRange is raised before any
    sieve starts."""
    tops = np.array([math.floor(x) for x in check_grid(grid, 2, 10 ** 6)])
    top = int(tops[-1])
    row = np.concatenate(([0], ideal_count_sieve(field, top)))
    isum = np.cumsum(row)
    primes, codes, patterns = _splitting_table(field, top)
    diff = np.zeros((len(tops), len(primes)), dtype=np.int64)
    for k in range(1, top.bit_length()):
        q = primes[:np.searchsorted(primes, _iroot(top, k), "right")] ** k
        size = top // q + 1  # a run of I(i q), i = 0..top // q, per q
        start = np.cumsum(size) - size
        at = np.arange(size.sum()) - np.repeat(start, size)
        runs = np.cumsum(row[at * np.repeat(q, size)])
        j = tops[:, None] // q  # sum_{i<=j} I(i q) = runs[start + j] - runs[start]
        # N(P)^(k / f_P) = p^k for each f_P dividing k: w sums those f_P
        w = np.array([sum(f for _, f in pairs if k % f == 0) for pairs in patterns])
        diff[:, :len(q)] += runs[start + j] - runs[start] - w[codes[:len(q)]] * isum[j]
    return np.count_nonzero(diff, axis=1).tolist()
