"""The ideal-counting function, its summatory function, and log-weighted sums.

I(n) counts integral ideals of norm exactly n. It is multiplicative, and at a
prime p its local values are the coefficients of prod_i 1/(1 - t^{f_i}) over
the inertia degrees above p. The dense sieve multiplies those local counts
into an all-ones row, one prime power at a time, in exact integers.

The numpy row uses int64, guarded by an a-priori bound (I(n) <= d(n)^degree,
and the maximal divisor count below x is computed exactly); when the bound
could overflow 62 bits the sieve escalates to arbitrary-precision Python
integers. The dense row is capped at x = 1e8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum
from typing import Optional, Sequence, Union

import numpy as np

from .bounds import lambda_K
from .field import PROVENANCE_ESTIMATED, FieldDescriptor, Residue
from .splitting import SplittingType, _ensure_pairs, _records_up_to, rational_primes

DENSE_SIEVE_CAP = 10 ** 8
_CHUNK = 1 << 22


@dataclass(frozen=True)
class LocalCountTable:
    """c[k] = number of ideals of norm p^k."""

    p: int
    counts: tuple[int, ...]


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


def local_counts(split: SplittingType, m: int) -> LocalCountTable:
    """Coefficients of prod_i (1 - t^{f_i})^(-1) up to degree m."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return LocalCountTable(p=split.p,
                           counts=tuple(_counts_from_degrees(split.inertia_degrees(), m)))


def _max_divisor_count(x: int) -> int:
    """Exact max of d(n) over n <= x, by descending-exponent search."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    best = 1

    def rec(i: int, remaining: int, divisors: int, max_exp: int) -> None:
        nonlocal best
        if divisors > best:
            best = divisors
        if i == len(primes):
            return
        p = primes[i]
        power = p
        e = 1
        while power <= remaining and e <= max_exp:
            rec(i + 1, remaining // power, divisors * (e + 1), e)
            e += 1
            power *= p
    rec(0, x, 1, 64)
    return best


def _prime_power_levels(p: int, n_max: int):
    """(k, p^k) pairs for every p^k <= n_max."""
    q = p
    k = 1
    while q <= n_max:
        yield k, q
        k += 1
        q *= p


def _top_exponent(p: int, n_max: int) -> int:
    k = 0
    q = 1
    while q * p <= n_max:
        q *= p
        k += 1
    return k


def _dense_row_numpy(field: FieldDescriptor, n_max: int) -> np.ndarray:
    row = np.ones(n_max + 1, dtype=np.int64)
    row[0] = 0
    primes = rational_primes(n_max).tolist()
    pairs_by_p = _ensure_pairs(field, primes)
    for p in primes:
        fs = [f for _, f in pairs_by_p[p]]
        counts = _counts_from_degrees(fs, _top_exponent(p, n_max))
        if all(c == 1 for c in counts):
            continue
        for k, q in _prime_power_levels(p, n_max):
            ck = counts[k]
            if ck == 1:
                continue
            m = n_max // q
            view = row[q:: q]
            for lo in range(0, m, _CHUNK):
                hi = min(lo + _CHUNK, m)
                t = np.arange(lo + 1, hi + 1)
                sel = t % p != 0
                if ck == 0:
                    view[lo:hi][sel] = 0
                else:
                    view[lo:hi][sel] *= ck
    return row


def _dense_row_python(field: FieldDescriptor, n_max: int) -> list[int]:
    row = [1] * (n_max + 1)
    row[0] = 0
    primes = rational_primes(n_max).tolist()
    pairs_by_p = _ensure_pairs(field, primes)
    for p in primes:
        fs = [f for _, f in pairs_by_p[p]]
        counts = _counts_from_degrees(fs, _top_exponent(p, n_max))
        if all(c == 1 for c in counts):
            continue
        for k, q in _prime_power_levels(p, n_max):
            ck = counts[k]
            if ck == 1:
                continue
            for t in range(1, n_max // q + 1):
                if t % p:
                    row[q * t] *= ck
    return row


_ROW_CACHE: dict[FieldDescriptor, tuple[int, Union[np.ndarray, list[int]]]] = {}


def _dense_row(field: FieldDescriptor, n_max: int) -> Union[np.ndarray, list[int]]:
    """Row r with r[n] = I(n) for 0 <= n <= n_max; cached per field."""
    if n_max > DENSE_SIEVE_CAP:
        raise ValueError(f"dense sieve capped at {DENSE_SIEVE_CAP}")
    cached = _ROW_CACHE.get(field)
    if cached is not None and cached[0] >= n_max:
        row = cached[1]
        return row[: n_max + 1]
    if _max_divisor_count(max(n_max, 2)) ** field.degree < 2 ** 62:
        row = _dense_row_numpy(field, n_max)
    else:
        row = _dense_row_python(field, n_max)
    _ROW_CACHE[field] = (n_max, row)
    return row


def ideal_count_sieve(field: FieldDescriptor, x: int) -> np.ndarray:
    """I(1), ..., I(x) as exact integers."""
    if x < 1:
        raise ValueError("x must be >= 1")
    row = _dense_row(field, int(x))
    if isinstance(row, list):
        return np.array(row[1:], dtype=object)
    return row[1:].copy()


def summatory(field: FieldDescriptor, x: float) -> SummatoryPoint:
    """Sum of I(n) for n <= x, with the explicit envelope when available."""
    if x < 0:
        raise ValueError("x must be >= 0")
    n_max = math.floor(x)
    if n_max < 1:
        value = 0
    else:
        row = _dense_row(field, n_max)
        value = int(np.sum(row)) if isinstance(row, np.ndarray) else sum(row)
    envelope = None
    if field.degree >= 2:
        n = field.degree
        if x > 0:
            log_env = lambda_K(n, field.abs_discriminant).natural_log \
                + (1 - 2 / (n + 1)) * math.log(x)
            envelope = math.exp(log_env) if log_env < 700 else math.inf
        else:
            envelope = 0.0
    return SummatoryPoint(x=x, value=value, sunley_envelope=envelope)


def t_K(field: FieldDescriptor, x: float) -> float:
    """Sum of I(n) log(n) for n <= x, compensated."""
    if x < 2:
        raise ValueError("t_K requires x >= 2")
    n_max = math.floor(x)
    row = _dense_row(field, n_max)
    if isinstance(row, list):
        return fsum(c * math.log(n) for n, c in enumerate(row[2:], start=2) if c)
    chunk_sums = []
    for lo in range(2, n_max + 1, _CHUNK):
        hi = min(lo + _CHUNK, n_max + 1)
        terms = row[lo:hi].astype(np.float64) * np.log(np.arange(lo, hi, dtype=np.float64))
        chunk_sums.append(fsum(terms.tolist()))
    return fsum(chunk_sums)


def kappa_estimate(field: FieldDescriptor, x: float) -> Residue:
    """Residue estimate I_sum(x)/x with its rigorous half-width."""
    if x < 100:
        raise ValueError("kappa_estimate requires x >= 100")
    point = summatory(field, x)
    if field.degree >= 2:
        n = field.degree
        log_hw = lambda_K(n, field.abs_discriminant).natural_log \
            - (2 / (n + 1)) * math.log(x)
        halfwidth = math.exp(log_hw) if log_hw < 700 else math.inf
    else:
        halfwidth = 1.0 / x
    return Residue(value=point.value / x, provenance=PROVENANCE_ESTIMATED,
                   halfwidth=halfwidth)


def legendre_chebyshev_rhs(field: FieldDescriptor, x: float) -> float:
    """log of prod over prime ideals of norm^(sum_j Isum(x / norm^j)).

    Exactly equals t_K(x); used as the identity's independent route.
    """
    if x < 2:
        raise ValueError("requires x >= 2")
    n_max = math.floor(x)
    row = _dense_row(field, n_max)
    if isinstance(row, list):
        csum = [0] * (n_max + 1)
        acc = 0
        for i in range(n_max + 1):
            acc += row[i]
            csum[i] = acc
    else:
        csum = np.cumsum(row)
    terms = []
    for norm, _, _ in _records_up_to(field, x):
        exponent = 0
        q = norm
        while q <= n_max:
            exponent += int(csum[n_max // q])
            q *= norm
        if exponent:
            terms.append(exponent * math.log(norm))
    if not terms:
        return 0.0
    return fsum(terms)
