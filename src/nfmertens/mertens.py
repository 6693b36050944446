"""The three Mertens quantities over prime ideals, with explicit error terms.

At a cutoff x the three quantities are the log-weighted sum log(N)/N, the
reciprocal sum 1/N, and the product of (1 - 1/N), each over prime ideals of
norm N <= x. Their error terms A, B, C are defined against log x,
log log x + M, and the classical product asymptotic e^(-gamma)/(kappa log x).
Below the least norm the sums are empty, 0, and the product is empty, 1.

The field Mertens constant M is computed from its absolutely convergent
series gamma + log kappa + sum over all prime ideals of [1/N + log(1 - 1/N)],
truncated at a cutoff X with the rigorous tail bound degree/(ceil(X) - 1).
Fitting the reciprocal sum would give no such tail control, so the series
route is the only one used.

The four series, the three sums and the constant's, are summed in one pass
over the prime-ideal stream (mertens_grid) by the block-pass driver
(blockpass.py): each value is the exact sum of its float64 terms log(N)/N,
1/N and log1p(-1/N), taken in numpy, up to its cutoff, rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import MissingResidue
from .field import PROVENANCE_EXACT, FieldDescriptor, Residue
from .blockpass import running_fsums, segment_sums, slices
from .splitting import _ideal_stream, check_cutoff, check_grid, rational_primes

# Euler-Mascheroni constant, 40 decimal digits
EULER_GAMMA_STR = "0.5772156649015328606065120900824024310422"
EULER_GAMMA = float(EULER_GAMMA_STR)

# Chebyshev theta bound constants: the classical explicit one and the
# sharpened record value (selectable, never mixed into other constants)
THETA_CLASSIC = 1.01624
THETA_BROADBENT = 1 + 1.93378e-8
THETA_PRINTED = 1.1  # of the printed prime-power sum bound


@dataclass(frozen=True)
class MertensRow:
    """The three Mertens quantities and error terms at one cutoff."""

    x: float
    sum_logN_over_N: float
    A_K: float
    sum_recip: float
    B_K: float
    product: float
    C_K: float
    E_K_bound: float


@dataclass(frozen=True)
class MertensConstant:
    M_K: float
    tail_halfwidth: float
    truncation_x: float
    approximate: bool = False


def geometric_grid(k_min: int = 4, k_max: int = 28) -> tuple[float, ...]:
    """Default grid x = 10^(k/4)."""
    return tuple(10 ** (k / 4) for k in range(k_min, k_max + 1))


def _mertens_pass(field: FieldDescriptor, grid: list[float], truncation_x: float,
                  kappa: Residue, name: str) -> tuple[list[list[float]], float]:
    """(sums, series): the sums of log(N)/N, 1/N and log1p(-1/N) over the
    prime ideals of norm N <= x at each x of the grid, and the sum of
    1/N + log1p(-1/N) over N <= truncation_x, from one pass over the stream
    cut at both; name is the caller's, for MissingResidue."""
    if kappa is None or kappa.value <= 0:
        raise MissingResidue(f"{name} requires a positive residue")
    tops, top_t = [math.floor(x) for x in grid], math.floor(truncation_x)
    cutoffs = sorted({*tops, top_t})
    # segment k, the norms in (cutoffs[k - 1], cutoffs[k]], lies inside or
    # past each series
    table_end = cutoffs.index(tops[-1]) if tops else -1
    series_end = cutoffs.index(top_t)
    none = np.empty(0)

    def terms(k, a, norms):
        n = norms.astype(np.float64)
        recip = 1.0 / n
        l1p = np.log1p(-recip)
        table = (np.log(n) / n, recip, l1p) if k <= table_end else (none,) * 3
        return (*table, recip + l1p if k <= series_end else none)

    def ends(lo, norms):
        return np.searchsorted(norms, cutoffs, "right")

    parts = slices(map(itemgetter(0), _ideal_stream(field, cutoffs[-1])), ends)
    *table, series = map(running_fsums, segment_sums(parts, terms, len(cutoffs), 4))
    at = [cutoffs.index(x) for x in tops]
    return [[values[i] for i in at] for values in table], series[series_end]


def _constant(field: FieldDescriptor, truncation_x: float, kappa: Residue,
              series: float) -> MertensConstant:
    return MertensConstant(M_K=EULER_GAMMA + math.log(kappa.value) + series,
                           tail_halfwidth=field.degree / (math.ceil(truncation_x) - 1),
                           truncation_x=truncation_x,
                           approximate=kappa.provenance != PROVENANCE_EXACT)


def _rows(field: FieldDescriptor, grid: list[float], sums, mconst: MertensConstant,
          kappa: Residue) -> tuple[MertensRow, ...]:
    rows = []
    e_gamma = math.exp(EULER_GAMMA)
    for x, sum_lnn, sum_rec, sum_l1p in zip(grid, *sums):
        product = math.exp(sum_l1p)
        b_term = sum_rec - math.log(math.log(x)) - mconst.M_K
        c_term = kappa.value * math.log(x) * e_gamma * product - 1.0
        rows.append(MertensRow(
            x=x,
            sum_logN_over_N=sum_lnn,
            A_K=sum_lnn - math.log(x),
            sum_recip=sum_rec,
            B_K=b_term,
            product=product,
            C_K=c_term,
            E_K_bound=field.degree / (x - 1) + abs(b_term),
        ))
    return tuple(rows)


def mertens_grid(field: FieldDescriptor, grid, truncation_x: float,
                 kappa: Residue) -> tuple[MertensConstant, tuple[MertensRow, ...]]:
    """mertens_constant(field, truncation_x, kappa) and the mertens_table rows
    on the grid against it, from one pass over the ideal stream."""
    grid = check_grid(grid)
    check_cutoff("truncation_x", truncation_x, 10)
    sums, series = _mertens_pass(field, grid, truncation_x, kappa, "mertens_grid")
    mconst = _constant(field, truncation_x, kappa, series)
    return mconst, _rows(field, grid, sums, mconst, kappa)


def mertens_constant(field: FieldDescriptor, truncation_x: float,
                     kappa: Residue) -> MertensConstant:
    """Mertens constant from the truncated series, with a rigorous tail."""
    check_cutoff("truncation_x", truncation_x, 10)
    _, series = _mertens_pass(field, [], truncation_x, kappa, "mertens_constant")
    return _constant(field, truncation_x, kappa, series)


def mertens_table(field: FieldDescriptor, grid, mconst: MertensConstant,
                  kappa: Residue) -> tuple[MertensRow, ...]:
    """All grid rows from a single ascending pass over the ideal stream."""
    grid = check_grid(grid)
    sums, _ = _mertens_pass(field, grid, 0, kappa, "mertens_table")
    return _rows(field, grid, sums, mconst, kappa)


def prime_power_grid(xs, alphas) -> list[list[float]]:
    """Brute-force sums of log(p)/p^alpha over rational primes p <= x, one
    list over the ascending xs per alpha, from one pass over the sieve up to
    xs[-1] that takes np.log(p) once for every alpha."""
    xs, alphas = check_grid(xs), list(alphas)
    if not all(a >= 0 for a in alphas):  # NaN too
        raise ValueError("prime_power_sum requires alpha >= 0")
    tops = [math.floor(x) for x in xs]

    def terms(k, a, primes):
        p = primes.astype(np.float64)
        logs = np.log(p)
        return [logs / p ** alpha for alpha in alphas]

    parts = slices([rational_primes(xs[-1])],
                   lambda lo, primes: np.searchsorted(primes, tops, "right"))
    return list(map(running_fsums, segment_sums(parts, terms, len(tops), len(alphas))))


def prime_power_sum(x: float, alpha: float) -> float:
    """Brute-force sum of log(p)/p^alpha over rational primes p <= x."""
    [[value]] = prime_power_grid([x], [alpha])
    return value


def prime_power_sum_bound(x: float, alpha: float) -> float:
    """Case-matched explicit bound for prime_power_sum.

    The THETA_PRINTED prefactor is the rounded-up Chebyshev theta constant
    used in the printed bound; it is kept verbatim whatever the theta toggle.
    """
    if alpha == 1:
        return math.log(x)
    if alpha < 1:
        return THETA_PRINTED / (1 - alpha) * x ** (1 - alpha)
    return THETA_PRINTED * alpha / ((alpha - 1) * 2 ** (alpha - 1))


def theta_Q_bound_constant(variant: str) -> float:
    """Chebyshev theta bound constant by config name."""
    if variant == "classic":
        return THETA_CLASSIC
    if variant == "broadbent":
        return THETA_BROADBENT
    raise ValueError(f"unknown theta constant variant {variant!r}")
