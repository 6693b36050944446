"""The block-pass driver of the Mertens and theta grid sums.

A pass reads a stream of 1-d blocks (the prime ideals' norms, the rational
primes) and sums float64 terms of them over the segments between consecutive
grid cutoffs (slices, segment_sums). exact_sum sums parts of at most _SLICE terms
by error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
2008, ExtractVector), so one pass can serve two grids, and running_fsums
holds the one rounding rule: the value of a series at a grid point is the
exact sum of every term up to it rounded once, what math.fsum of those
terms gives, whatever the grid and wherever the blocks end.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import InvariantViolation

# Terms summed at a time by exact_sum: a part of n terms takes levels of
# 53 - m bits, 2^m >= n + 2, so at least 26 bits below _EXACT_TERMS = 2^26
# terms. 2^14 keeps a part's two temporaries (128 KB each) in L2 cache.
_SLICE = 1 << 14
_EXACT_TERMS = 1 << 26
_SCALE = 1074  # exact_sum counts units of the least subnormal, 2^-1074


def exact_sum(terms: np.ndarray) -> int:
    """The sum of the float64 terms times 2^_SCALE, exactly, as an int;
    int / 2**_SCALE rounds it to the float fsum(terms) gives. Rump, Ogita &
    Oishi's ExtractVector: with |t| < 2^e and sigma = 2^(e + m), a level's
    q = (t + sigma) - sigma holds t's bits down to 2^(e + m - 53), so q.sum()
    is exact in any order, and t - q, the next level's t, is exact and below
    2^(e + m - 52). Raises InvariantViolation for a non-finite term, or for
    _EXACT_TERMS or more.
    """
    n = len(terms)
    if n >= _EXACT_TERMS:
        raise InvariantViolation(f"{n} terms in one exact block")
    m = (n + 1).bit_length()
    top = float(max(terms.max(), -terms.min())) if n else 0.0  # NaN if any is
    if not math.isfinite(top):
        raise InvariantViolation("a non-finite term in an exact sum")
    e = math.frexp(top)[1]
    if e + m > 1022:  # t + sigma could overflow: scale the terms from 2^-900
        small = np.abs(terms) < 2.0 ** -900
        return (exact_sum(np.ldexp(terms[~small], -m - 2)) << m + 2) + \
            exact_sum(terms[small])
    sigma, total = math.ldexp(1.0, e + m), 0
    q, t = np.empty_like(terms), terms
    while top:  # until the remainder t is all zero
        q = np.subtract(np.add(t, sigma, out=q), sigma, out=q)
        t = np.subtract(t, q, out=None if t is terms else t)
        num, den = float(q.sum()).as_integer_ratio()
        total += num << _SCALE + 1 - den.bit_length()
        top = t.any()
        sigma *= math.ldexp(1.0, m - 52)
    return total


def slices(blocks, ends):
    """(k, a, part) for the 1-d arrays blocks yields, joined end to end, cut
    into the segments k = 0, 1, ... of a pass: ends(lo, block), for the block
    of entries lo on, gives where in the block each segment ends, ascending.
    part holds the entries from a on, at most _SLICE of them and all of one
    block and one segment. A block visits only the segments it meets, so a
    pass takes O(parts + segments + blocks) Python steps. Each block is made
    when the pass reaches it and dropped before the next is made."""
    lo = 0
    for block in blocks:
        cuts = ends(lo, block)
        first = int(np.searchsorted(cuts, 0, "right"))
        last = int(np.searchsorted(cuts, len(block)))
        start = 0
        for k, end in enumerate(cuts[first:last + 1].tolist(), first):
            for i in range(start, end, _SLICE):
                yield k, lo + i, block[i:min(i + _SLICE, end)]
            start = end
        lo += len(block)
        del block  # else the loop holds it while the next one is made


def segment_sums(parts, terms, segments: int, count: int = 1) -> list[list[int]]:
    """The exact sums, as exact_sum's ints, of count series over each of the
    segments, one list per series, from the (k, a, part) of slices:
    terms(k, a, part) gives the float64 terms of part, of segment k, as
    arrays, one per series, or fewer where the last series have none. Each
    part is read once by every series and dropped before the next is made."""
    out = [[0] * segments for _ in range(count)]
    for k, a, part in parts:
        for ints, total in zip(out, map(exact_sum, terms(k, a, part))):
            ints[k] += total
        del part  # a view of its block
    return out


def running_fsums(totals) -> list[float]:
    """The k-th value is the sum of the first k exact sums, rounded once: the
    value of a series at the k-th point of a grid, fsum of its terms up to
    there."""
    return [total / (1 << _SCALE) for total in accumulate(totals)]
