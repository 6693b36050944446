"""The number I(n) of ideals of norm n and its sums S(x) = sum_{n<=x} I(n)
and T(x) = sum_{n<=x} I(n) log n.

I is multiplicative; I(p^k) is the coefficient of t^k in prod_P 1/(1 -
t^f_P) over the inertia degrees above p. ideal_sums gives S and T on a grid
from the splitting table alone. The dense row of I(n), sieved in 2 MB blocks
no one keeps (Bays & Hudson, BIT 17, 1977), serves the counts dump,
ideal_count_sieve and legendre_chebyshev_mismatches, and the sums' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import blockpass
from .blockpass import _SCALE, exact_sum
from .bounds import LogMagnitude, lambda_K
from .errors import DivisorBoundExceeded
from .field import PROVENANCE_ESTIMATED, FieldDescriptor, Residue
from .splitting import (_iroot, _per_pattern, _searchsorted, _splitting_table,
                        check_cutoff, check_grid)

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
    """Exact max over n <= x of the k-fold divisor function d_k(n) =
    prod_i C(e_i + k - 1, k - 1): d_k grows with each exponent, so a
    maximiser is a product of the first primes, exponents non-increasing."""
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
        a = _searchsorted(big_p, (lo + m - 1) // m)
        runs = _searchsorted(big_p, (hi - 1) // m, "right") - a
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
                    at = big_p[pairs] * np.repeat(m[j:i], runs[j:i])  # int64
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
    split = _searchsorted(primes, math.isqrt(n_max), "right")
    small = list(_local_factors(primes[:split], codes[:split], patterns, n_max))
    # P > sqrt(n_max) stores c1(P), its number of degree-1 ideals, at each
    # m P <= n_max, read from the table's slices where a block needs them
    big = primes[split:], codes[split:], _per_pattern(patterns, 1, dtype)
    step = _ROW_BLOCK * 2 // np.dtype(dtype).itemsize
    return ((lo, _row_block(lo, min(lo + step, n_max + 1), dtype, small, *big))
            for lo in range(0, n_max + 1, step))


# I(n) <= d_k(n) for degree k, so S(x) <= sum_{n<=x} d_k(n) <= x (log x +
# k - 1)^(k-1) / (k-1)! (induction on k: the sum over a <= x of the bound at
# x / a is at most its a = 1 term plus its integral); C_p(x) = sum_{n<=x}
# I(n) v_p(n) <= log2(x) S(x), and each partial sum is at most S or a C_p.
def _check_sum_bound(n_max: int, k: int) -> None:
    """Raise DivisorBoundExceeded, a usage error, unless the sums of
    ideal_sums up to n_max stay below 2^62: degree 13 fits at the cap."""
    if n_max >= 2 and math.log(n_max) + (k - 1) * math.log(math.log(n_max) + k - 1) \
            - math.lgamma(k) + math.log(n_max.bit_length()) > 62 * math.log(2) - 1e-9:
        raise DivisorBoundExceeded(f"x {n_max} is too large for a degree-{k} "
                                   "field: the ideal sums' bound reaches 2^62")


def ideal_sums(field: FieldDescriptor, grid, logs: bool = True) -> tuple[list[int], list[float]]:
    """(S, T) at each x of the ascending grid, T empty without logs, from
    the splitting table in slices of at most blockpass._SLICE primes: S
    exact, T the exact sum of its float terms rounded once, so no value
    depends on the grid."""
    # S by the "min_25" sieve (Deleglise & Rivat, Experimental Math. 5, 1996)
    # on V, every floor(x / k), which holds 0..sqrt(x_max) and is closed
    # under floor(v / m): H starts as G(v), the degree-1 ideals of norm <= v;
    # each p <= sqrt(x_max), largest first, adds to H(v), v >= p^2, the sum
    # over p^(e+1) <= v of I(p^e) (H(v / p^e) - G(p)) + I(p^(e+1)); S = 1 + H.
    # T(x) = sum_p log p C_p(x), C_p(x) = sum_k w_k S(x / p^k), w_k the sum
    # of f_P over the P | p with f_P | k (Legendre, Chebyshev).
    tops = [math.floor(x) for x in check_grid(grid, 0)]
    n_max, r, step = tops[-1], math.isqrt(tops[-1]), blockpass._SLICE
    _check_sum_bound(n_max, field.degree)
    primes, codes, patterns = _splitting_table(field, n_max)
    values = np.sort(np.concatenate([np.arange(r + 1)] + [
        t // np.arange(1, math.isqrt(t) + 1) for t in tops]))
    # V without repeats (np.unique imports numpy.ma: 12 ms); values[v] = v, v <= r
    values = values[np.diff(values, prepend=-1) != 0]
    c1 = _per_pattern(patterns, 1, np.int64)
    at = _searchsorted(primes, values, "right")  # pi(v)
    h, total = np.zeros(len(values), dtype=np.int64), 0  # G(v), then H(v), then S(v)
    for a in range(0, len(primes), step):
        run = np.cumsum(c1.take(codes[a:a + step]))
        run += total
        i, j = np.searchsorted(at, [a, a + len(run)], "right")
        h[i:j], total = run[at[i:j] - a - 1], int(run[-1])
    small = _searchsorted(primes, r, "right")
    local = [_counts_from_degrees([f for _, f in pairs], n_max.bit_length())
             for pairs in patterns]  # I(p^e) by pattern code
    for p, code in zip(primes[:small][::-1].tolist(), codes[:small][::-1].tolist()):
        count, start = local[code], np.searchsorted(values, p * p)
        v, add, q, e = values[start:], np.zeros(len(values) - start, np.int64), p, 1
        while q * p <= n_max:
            m = np.searchsorted(v, q * p)
            add[m:] += count[e] * (h[np.searchsorted(values, v[m:] // q)] - h[p]) \
                + count[e + 1]
            q, e = q * p, e + 1
        h[start:] += add
    h[1:] += 1
    isums = h[np.searchsorted(values, tops)].tolist()
    if not logs:
        return isums, []
    # (p^k, w_k, index of p) for k >= 2, p^k <= n_max, w_k != 0: the terms
    # of C_p(x) past c1(p) S(x / p), built once for the whole grid
    powers = []
    for i, (p, code) in enumerate(zip(primes[:small].tolist(), codes[:small].tolist())):
        q, k = p * p, 2
        while q <= n_max:
            w = sum(f for _, f in patterns[code] if k % f == 0)
            if w:
                powers.append((q, w, i))
            q, k = q * p, k + 1
    q, w, i = np.array(sorted(powers), dtype=np.int64).reshape(-1, 3).T
    extra = []
    for t in tops:
        j = np.searchsorted(q, t, "right")
        part = np.zeros(small, dtype=np.int64)
        np.add.at(part, i[:j], w[:j] * h[np.searchsorted(values, t // q[:j])])
        extra.append(part)
    totals = [0] * len(tops)
    for a in range(0, len(primes), step):
        p = primes[a:a + step].astype(np.float64)
        logp, c = np.log(p), c1.take(codes[a:a + step])
        for g in range(np.searchsorted(tops, p[0]), len(tops)):
            t = tops[g]
            j = np.searchsorted(p, t, "right")
            # t / p rounds by at most t / p 2^-53 < 1 / p, as t < 2^53, and is
            # an integer or 1 / p or more below one: its floor is exact
            s = (t / p[:j]).astype(np.int64)
            big = np.searchsorted(p, t // (r + 1), "right")  # where t // p > r
            s[big:] = h.take(s[big:])
            s[:big] = h[np.searchsorted(values, s[:big])]
            s *= c[:j]
            s[:max(0, small - a)] += extra[g][a:a + j]
            totals[g] += exact_sum(logp[:j] * s)
    return isums, [total / (1 << _SCALE) for total in totals]


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
    """summatory at each x of the ascending grid, from one ideal_sums pass."""
    grid = check_grid(grid, 0)
    values, _ = ideal_sums(field, grid, logs=False)
    return [SummatoryPoint(x=x, value=v, sunley_envelope=_sunley_envelope(field, x))
            for x, v in zip(grid, values)]


def summatory(field: FieldDescriptor, x: float) -> SummatoryPoint:
    """Sum of I(n) for n <= x, with the explicit envelope when available."""
    [point] = summatory_grid(field, [x])
    return point


def t_K(field: FieldDescriptor, x: float) -> float:
    """Sum of I(n) log(n) for n <= x, the exact sum of ideal_sums' terms
    rounded once."""
    check_cutoff("x", x, 2)
    return ideal_sums(field, [x])[1][0]


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
    """At each x of the ascending grid in [2, 1e6], the number of primes p
    where the coefficient of log p in T(x), sum_{n<=x} I(n) v_p(n), differs
    from sum_{P|p} f_P sum_{k>=1} Isum(x / N(P)^k), from the whole int64 row:
    about 11 int64 per n (116 MB for gaussian at 1e6), hence the range,
    checked before any sieve starts."""
    tops = np.array([math.floor(x) for x in check_grid(grid, 2, 10 ** 6)])
    top = int(tops[-1])
    row = np.concatenate(([0], ideal_count_sieve(field, top)))
    isum = np.cumsum(row)
    primes, codes, patterns = _splitting_table(field, top)
    diff = np.zeros((len(tops), len(primes)), dtype=np.int64)
    for k in range(1, top.bit_length()):
        q = primes[:_searchsorted(primes, _iroot(top, k), "right")].astype(np.int64) ** k
        size = top // q + 1  # a run of I(i q), i = 0..top // q, per q
        start = np.cumsum(size) - size
        at = np.arange(size.sum()) - np.repeat(start, size)
        runs = np.cumsum(row[at * np.repeat(q, size)])
        j = tops[:, None] // q  # sum_{i<=j} I(i q) = runs[start + j] - runs[start]
        # N(P)^(k / f_P) = p^k for each f_P dividing k: w sums those f_P
        w = np.array([sum(f for _, f in pairs if k % f == 0) for pairs in patterns])
        diff[:, :len(q)] += runs[start + j] - runs[start] - w[codes[:len(q)]] * isum[j]
    return np.count_nonzero(diff, axis=1).tolist()
