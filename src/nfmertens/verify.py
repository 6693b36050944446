"""Run every stated inequality against a field over an x-grid.

Each inequality becomes one named check per grid point, recording the
measured quantity, the bound, and a slack. Slack is logarithmic because the
explicit bounds are astronomically loose (the envelope constant alone is
around e^70 for a quadratic field) and raw differences carry no information:

  - ratio checks (quantity >= 0, bound > 0, else InvariantViolation):
    log_slack = log(bound/quantity), +inf when the quantity is exactly zero;
  - count checks (norm_power_case_table, legendre_chebyshev_identity): a
    number of mismatches, bound 1, log_slack +inf at 0 and -inf above;
  - interval checks (values may be negative): log_slack = log1p of the linear
    margin to the nearer endpoint, so positive slack always means a pass.

A report lists failures first. Checks that need an exact residue are skipped
when the residue is only estimated, and the degree-dependent bound constants
exist only for degree >= 2, so a degree-1 field exercises the
field-independent checks plus the third-quantity error bound.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import zip_longest

from .bounds import (
    BoundsReport,
    CheckResult,
    LogMagnitude,
    a_constant_inequality,
    field_constants,
    log_sum_exp,
    multipart_case,
    xi_K,
)
from .field import PROVENANCE_EXACT, FieldDescriptor, Residue
from .errors import InvariantViolation
from .idealcount import _row_blocks, _row_dtype, legendre_chebyshev_mismatches, row_sums
from .mertens import (
    EULER_GAMMA,
    mertens_grid,
    prime_power_grid,
    prime_power_sum_bound,
    theta_Q_bound_constant,
)
from .splitting import check_grid

PAINFUL_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.5, 2.0, 3.0)
PAINFUL_XS = (100.0, 1000.0, 10000.0, 100000.0)
LEGENDRE_LIMIT = 2000.0


def _ratio_check(name: str, x, quantity: float, bound: float) -> CheckResult:
    if not (quantity >= 0 and bound > 0):
        raise InvariantViolation(f"{name} at x = {x}: {quantity} / {bound} is no ratio")
    slack = math.log(bound) - math.log(quantity) if quantity else math.inf
    return CheckResult(name, x, quantity, bound, slack, quantity <= bound)


def _count_check(name: str, x, mismatches: int) -> CheckResult:
    return CheckResult(name, x, float(mismatches), 1.0,
                       -math.inf if mismatches else math.inf, mismatches == 0)


def _log_ratio_check(name: str, x, log_quantity: float,
                     log_bound: float) -> CheckResult:
    return CheckResult(name, x, LogMagnitude(log_quantity).value,
                       LogMagnitude(log_bound).value, log_bound - log_quantity,
                       log_quantity <= log_bound)


def _interval_check(name: str, x, quantity: float, lo: float,
                    hi: float) -> CheckResult:
    margin = min(quantity - lo, hi - quantity)
    slack = math.log1p(margin) if margin > 0 else -math.inf
    return CheckResult(name, x, quantity, hi, slack, lo <= quantity <= hi)


@cache
def _field_independent_checks() -> tuple[CheckResult, ...]:
    """The checks no field changes, built once per process: the a-constant
    inequalities, the norm-power case table and the prime-power sums."""
    checks = [a_constant_inequality(deg) for deg in range(1, 21)]

    def expected(num, den):  # alpha = num / den against 1, exactly
        return "linear" if num < den else "log" if num == den else "decay"
    checks.append(_count_check("norm_power_case_table", None, sum(
        multipart_case(deg, j)[0] != expected(j * (deg - 1), deg + 1)
        for j in range(1, 8) for deg in range(2, 15))))
    for alpha, values in zip(PAINFUL_ALPHAS,
                             prime_power_grid(PAINFUL_XS, PAINFUL_ALPHAS)):
        for x, value in zip(PAINFUL_XS, values):
            checks.append(_ratio_check(
                f"prime_power_sum_alpha_{alpha:g}", x,
                value, prime_power_sum_bound(x, alpha)))
    return tuple(checks)


def _log_abs(v: float) -> float:
    return math.log(abs(v)) if v != 0 else -math.inf


def verify_all(field: FieldDescriptor, grid, kappa: Residue, *,
               theta_variant: str = "classic",
               truncation_x: float = 1e6) -> BoundsReport:
    """Evaluate all constants for the field and run every check on the grid."""
    grid = check_grid(grid)
    n = field.degree
    absD = field.abs_discriminant
    exact = kappa is not None and kappa.provenance == PROVENANCE_EXACT
    consts = field_constants(field, kappa)
    lam, ups = consts.lambda_K, consts.upsilon_K

    if exact:  # the dtype guard of the I(n) row, before any sieve starts
        _row_dtype(math.floor(grid[-1]), n)
    checks = list(_field_independent_checks())

    # theta bound on the grid
    theta_c = theta_Q_bound_constant(theta_variant)
    [thetas] = prime_power_grid(grid, [0])
    for x, theta in zip(grid, thetas):
        checks.append(_ratio_check(f"chebyshev_theta_{theta_variant}", x,
                                   theta, theta_c * x))

    # residue bound ordering
    if n >= 2 and exact:
        checks.append(_ratio_check("residue_lower_zimmert", None,
                                   consts.zimmert_lower, kappa.value))
        checks.append(_ratio_check("residue_upper_louboutin", None,
                                   kappa.value, consts.louboutin_upper))
        if consts.stark_lower is not None:
            checks.append(_ratio_check("residue_lower_stark", None,
                                       consts.stark_lower.value, kappa.value))

    if kappa is not None and kappa.value > 0:
        mconst, rows = mertens_grid(field, grid, truncation_x, kappa)
        if exact:
            lo = EULER_GAMMA + math.log(kappa.value) - n
            hi = EULER_GAMMA + math.log(kappa.value)
            checks.append(_interval_check(
                "mertens_constant_interval", None, mconst.M_K,
                lo + mconst.tail_halfwidth, hi - mconst.tail_halfwidth))
        sums = [(None, None, None)] * len(grid)
        if exact:  # only the checks of an exact kappa read the I(n), T(x) sums
            small = [x for x in grid if x <= LEGENDRE_LIMIT]  # counts, then None
            sums = zip_longest(*row_sums(_row_blocks(field, math.floor(grid[-1])), grid),
                               small and legendre_chebyshev_mismatches(field, small))
        for row, (isum, tval, mismatches) in zip(rows, sums):
            x = row.x
            if ups is not None:
                checks.append(_log_ratio_check(
                    "first_mertens_error", x, _log_abs(row.A_K),
                    ups.natural_log))
                checks.append(_log_ratio_check(
                    "second_mertens_error", x, _log_abs(row.B_K),
                    ups.natural_log + math.log(2) - math.log(math.log(x))))
            if exact:
                # B_K is measured against the truncated M_K, which is off by
                # up to tail_halfwidth, so E_K may be that much larger
                e_bound = row.E_K_bound + mconst.tail_halfwidth
                c_bound = e_bound * math.exp(e_bound)
                checks.append(_ratio_check("third_mertens_error", x,
                                           abs(row.C_K), c_bound))
                if mismatches is not None:
                    checks.append(_count_check("legendre_chebyshev_identity",
                                               x, mismatches))
            if lam is not None and exact:
                checks.append(_log_ratio_check(
                    "ideal_count_envelope", x,
                    _log_abs(isum - kappa.value * x),
                    lam.natural_log + (1 - 2 / (n + 1)) * math.log(x)))
                # |T(x) - kappa x log x| <= ((n+1)^2/(2(n-1)) Lambda + kappa) x
                weber_log = log_sum_exp((
                    lam.natural_log + math.log((n + 1) ** 2 / (2 * (n - 1))),
                    math.log(kappa.value))) + math.log(x)
                checks.append(_log_ratio_check(
                    "ideal_log_sum_first_bound", x,
                    _log_abs(tval - kappa.value * x * math.log(x)), weber_log))
                # |T(x) - kappa x S1(x)| <= 0.55 Lambda n(n+1) x + Xi(x)
                second_log = log_sum_exp((
                    lam.natural_log + math.log(0.55 * n * (n + 1) * x),
                    xi_K(n, absD, kappa, x).natural_log))
                checks.append(_log_ratio_check(
                    "ideal_log_sum_second_bound", x,
                    _log_abs(tval - kappa.value * x * row.sum_logN_over_N),
                    second_log))

    return BoundsReport(**vars(consts),
                        checks=tuple(sorted(checks, key=lambda c: c.passed)))
