"""The three Mertens quantities over prime ideals, with explicit error terms.

At a cutoff x the three quantities are the log-weighted sum log(N)/N, the
reciprocal sum 1/N, and the product of (1 - 1/N), each over prime ideals of
norm N <= x. Their error terms A, B, C are defined against log x,
log log x + M, and the classical product asymptotic e^(-gamma)/(kappa log x).

The field Mertens constant M is computed from its absolutely convergent
series gamma + log kappa + sum over all prime ideals of [1/N + log(1 - 1/N)],
truncated at a cutoff X with the rigorous tail bound degree/(ceil(X) - 1).
Fitting the reciprocal sum would give no such tail control, so the series
route is the only one used.

The series are summed exactly and rounded once per grid segment, through
splitting.grid_fsums, so a sum does not depend on the order of its terms.
Each term is what Python's float arithmetic gives for it: log(N)/N, 1/N and
log1p(-1/N) with math.log and math.log1p, called once per distinct norm, and
the division, negation and addition done in numpy, which rounds them as
Python does. math.log and math.log1p are the C library's, so a report's last
digit follows that library; the I(n) log n and theta sums of idealcount and
verify take np.log, whose last bit follows the SIMD loop numpy dispatches to
on the machine (AVX512F, AVX2 or baseline).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import fsum

import numpy as np

from .errors import EmptyProduct, MissingResidue
from .field import PROVENANCE_EXACT, FieldDescriptor, Residue
from .splitting import (_norms_up_to, check_cutoff, check_grid, grid_fsums,
                         rational_primes)

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


def _distinct(norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, at): the distinct values of the ascending int64 block norms as
    float64, and the index in n of each entry of norms."""
    new = np.empty(len(norms), dtype=bool)
    new[:1] = True
    np.not_equal(norms[1:], norms[:-1], out=new[1:])
    return norms[new].astype(np.float64), np.cumsum(new) - 1


def _floats(fn, values: np.ndarray) -> np.ndarray:
    """fn, a math function, at each float64 of values."""
    return np.fromiter(map(fn, values.tolist()), np.float64, len(values))


def mertens_constant(field: FieldDescriptor, truncation_x: float,
                     kappa: Residue) -> MertensConstant:
    """Mertens constant from the truncated series, with a rigorous tail."""
    check_cutoff("truncation_x", truncation_x, 10)
    if kappa is None or kappa.value <= 0:
        raise MissingResidue("mertens_constant requires a positive residue")
    norms = _norms_up_to(field, truncation_x)

    def terms(a, b):
        n, at = _distinct(norms[a:b])
        recip = 1.0 / n
        return (recip + _floats(math.log1p, -recip))[at],

    [[series]] = grid_fsums([(0, len(norms))], terms)
    tail = field.degree / (math.ceil(truncation_x) - 1)
    return MertensConstant(
        M_K=EULER_GAMMA + math.log(kappa.value) + series,
        tail_halfwidth=tail,
        truncation_x=truncation_x,
        approximate=kappa.provenance != PROVENANCE_EXACT,
    )


def mertens_table(field: FieldDescriptor, grid, mconst: MertensConstant,
                  kappa: Residue) -> tuple[MertensRow, ...]:
    """All grid rows from a single ascending pass over the ideal stream."""
    grid = check_grid(grid)
    if kappa is None or kappa.value <= 0:
        raise MissingResidue("mertens_table requires a positive residue")
    norms = _norms_up_to(field, grid[-1])
    cuts = np.searchsorted(norms, [math.floor(x) for x in grid], "right").tolist()
    if cuts[0] == 0:
        raise EmptyProduct(f"no prime ideal has norm <= {grid[0]}")

    def terms(a, b):
        n, at = _distinct(norms[a:b])
        recip = 1.0 / n
        return ((_floats(math.log, n) / n)[at], recip[at],
                _floats(math.log1p, -recip)[at])

    sums = grid_fsums(zip([0] + cuts, cuts), terms, 3)
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


def prime_power_grid(xs, alphas) -> list[list[float]]:
    """Brute-force sums of log(p)/p^alpha over rational primes p <= x, one
    list over the ascending xs per alpha, from one sieve up to xs[-1] and one
    list of log(p) shared by every alpha."""
    xs, alphas = check_grid(xs), list(alphas)
    if any(a < 0 for a in alphas):
        raise ValueError("prime_power_sum requires alpha >= 0")
    primes = rational_primes(xs[-1]).tolist()
    logs = [math.log(p) for p in primes]
    cuts = [bisect_right(primes, x) for x in xs]
    out = []
    for alpha in alphas:
        terms = logs if alpha == 0 else \
            [lp / p ** alpha for lp, p in zip(logs, primes)]
        out.append([fsum(terms[:cut]) for cut in cuts])
    return out


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
