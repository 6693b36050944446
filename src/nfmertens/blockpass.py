"""The block-pass driver of the Mertens, I(n) and theta grid sums.

A pass reads a stream of 1-d blocks, each made when the pass reaches it and
dropped before the next is made (the prime ideals' norms, the rational
primes, the I(n) row), and sums float64 terms of them over the segments
between consecutive grid cutoffs. slices cuts each block, as it comes, at its
own ends of the pass's segments (by searchsorted for norms and primes, by the
block's offset for the row), walking only the segments that end in it, and
segment_sums adds each series' exact_sum of every part into its segment.
The sums stay exact, so one pass can serve two grids, and running_fsums holds
the one rounding rule: the value of a series at a grid point is the exact sum
of every term up to it, rounded once, the value math.fsum of those terms
gives, whatever the grid. The terms are float64 from numpy (np.log, np.log1p,
**). exact_sum sums parts of at most _SLICE terms in a small superaccumulator
(Neal, "Fast exact summation using small and large superaccumulators",
arXiv:1505.05571, 2015), so a sum depends neither on the order of its terms
nor on where the blocks end.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import InvariantViolation

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


def slices(blocks, ends):
    """(k, a, part) for the 1-d arrays blocks yields, joined end to end, cut
    into the segments k = 0, 1, ... of a pass: ends(lo, block), for the block
    of entries lo on, gives where in the block each segment ends, ascending.
    part holds the entries from a on, at most _SLICE of them and all of one
    block and one segment. A block visits only its segments from the first
    that ends past its start to the first that reaches its end, so a pass
    takes O(parts + segments + blocks) Python steps. Each block is made when the
    pass reaches it and dropped before the next is made."""
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
