"""Explicit constants and residue bounds, evaluated in the log domain.

The envelope constant Lambda contains a factor e^(28.2 n + 5), far beyond
double range for large degree, so every Lambda-scale quantity is carried as
its natural logarithm and combined with log-sum-exp, which keeps the sign
and ratio fidelity the checks need to about 15 significant digits.

Residue bounds: an upper bound from the discriminant alone, a universal
lower bound of 0.36232/sqrt|disc|, and case-split lower bounds driven by
Galois-structure flags. The case-split bounds rest on the constant
c8 = pi/6, which is strongly supported but not fully proved, so their values
are labeled conditionally-admissible rather than presented as theorems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, MissingResidue, UnknownStructureFlags
from .field import FieldDescriptor, Residue

# universal residue lower bound: 4 * 0.09058, from the regulator-to-roots
# ratio bound and 2^r1 (2pi)^r2 >= 4 for degree >= 2
ZIMMERT_NUMERATOR = 0.36232

# case constants for the discriminant-power lower bound (c8 = pi/6 assumed)
STARK_POWER_NORMAL = 0.015744605
STARK_POWER_TOWER = 0.003936151
STARK_POWER_GENERIC = 0.015744605
# variants valid when the field has no quadratic subfield
STARK_LOG_NORMAL = 0.005792116
STARK_LOG_TOWER = 0.001448029
STARK_LOG_GENERIC = 0.005792116

STARK_CAVEAT = "conditionally-admissible (assumes c8 = pi/6)"


def log_sum_exp(logs) -> float:
    logs = [v for v in logs if v != -math.inf]
    if not logs:
        return -math.inf
    top = max(logs)
    if top == math.inf:
        return math.inf
    return top + math.log(sum(math.exp(v - top) for v in logs))


@dataclass(frozen=True)
class LogMagnitude:
    """A positive quantity stored as its natural logarithm."""

    natural_log: float

    def __add__(self, other: "LogMagnitude") -> "LogMagnitude":
        return LogMagnitude(log_sum_exp((self.natural_log, other.natural_log)))

    @property
    def value(self) -> float:
        """Linear-domain value; inf when it does not fit a double."""
        return math.exp(self.natural_log) if self.natural_log < 700 else math.inf

    def render(self) -> str:
        if (value := self.value) != math.inf:
            return format(value, ".15g")
        return f"exp({format(self.natural_log, '.15g')})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named inequality at one grid point."""

    name: str
    x: Optional[float]
    quantity: float
    bound: float
    log_slack: float
    passed: bool


@dataclass(frozen=True)
class StarkBound:
    value: float
    case_label: str


@dataclass(frozen=True)
class FieldConstants:
    """A field's explicit constants; see field_constants."""

    lambda_K: Optional[LogMagnitude]
    upsilon_K: Optional[LogMagnitude]
    louboutin_upper: Optional[float]
    zimmert_lower: Optional[float]
    stark_lower: Optional[StarkBound]
    a1: LogMagnitude
    a3: LogMagnitude
    a7: LogMagnitude


@dataclass(frozen=True)
class BoundsReport(FieldConstants):
    checks: tuple[CheckResult, ...]

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def lambda_K(n: int, absD: int) -> LogMagnitude:
    """Envelope constant for the ideal count:
    e^(28.2n+5) (n+1)^(5(n+1)/2) |disc|^(1/(n+1)) (log|disc|)^n."""
    if n < 2:
        raise DomainError("lambda_K requires degree >= 2")
    if absD < 3:
        raise DomainError("lambda_K requires |discriminant| >= 3")
    log_log_d = math.log(math.log(absD))
    return LogMagnitude(
        (28.2 * n + 5)
        + (5 * (n + 1) / 2) * math.log(n + 1)
        + math.log(absD) / (n + 1)
        + n * log_log_d)


def upsilon_K(n: int, absD: int, kappa: Residue) -> LogMagnitude:
    """Error constant for the first Mertens sum; log-sum-exp of its four
    summands, dominated by the Lambda/kappa terms."""
    if n < 2:
        raise DomainError("upsilon_K requires degree >= 2")
    if kappa is None or kappa.value <= 0:
        raise MissingResidue("upsilon_K requires a positive residue")
    lam = lambda_K(n, absD).natural_log
    log_kappa = math.log(kappa.value)
    summands = (
        lam + math.log((n + 1) ** 2 / (2 * (n - 1))) - log_kappa,
        0.0,  # the +1 attached to the first summand
        lam + math.log(0.55 * n * (n + 1)) - log_kappa,
        math.log(n),
        lam + math.log(40.31 * n) - log_kappa,
    )
    return LogMagnitude(log_sum_exp(summands))


def xi_K(n: int, absD: int, kappa: Residue, x: float) -> LogMagnitude:
    """Case-matched envelope for the higher-prime-power contribution."""
    if x < 2:
        raise DomainError("xi_K requires x >= 2")
    if kappa is None or kappa.value <= 0:
        raise MissingResidue("xi_K requires a positive residue")
    lam = lambda_K(n, absD).natural_log
    main = math.log(kappa.value * n * x)
    if n == 2:
        rest = 3.3 * x + 2 * x ** (1 / 3) * math.log(x) + 50.8 * x ** (1 / 3)
    elif n == 3:
        rest = 3 * math.sqrt(x) * math.log(x) + 96 * math.sqrt(x)
    else:
        rest = 40.31 * n * x ** (1 - 2 / (n + 1))
    return LogMagnitude(log_sum_exp((main, lam + math.log(rest))))


def sunley_constants(n: int) -> tuple[LogMagnitude, LogMagnitude, LogMagnitude]:
    """The three auxiliary constants behind the ideal-count envelope."""
    if n < 1:
        raise DomainError("degree must be >= 1")
    a1 = LogMagnitude((28.2 * n + 5) + (5 * (n + 1) / 2) * math.log(n + 1))
    a3 = LogMagnitude(2 * n * math.log(2) + 0.5 + n * math.log(math.pi)
                      + (n + 1) * math.log(1.3))
    a7 = LogMagnitude((4 * n + 2) * math.log(2) + n * math.log(5)
                      + math.lgamma(n + 1))
    return a1, a3, a7


def a_constant_inequality(n: int) -> CheckResult:
    """(a7 + a3) (2n)^(2/(n+1)) <= a1, checked in the log domain."""
    a1, a3, a7 = sunley_constants(n)
    lhs = (a7 + a3).natural_log + (2 / (n + 1)) * math.log(2 * n)
    slack = a1.natural_log - lhs
    return CheckResult(name="a_constant_inequality", x=float(n),
                       quantity=lhs, bound=a1.natural_log,
                       log_slack=slack, passed=lhs <= a1.natural_log)


def louboutin_upper(n: int, absD: int) -> float:
    """Residue upper bound (e log|disc| / (2(n-1)))^(n-1)."""
    if n < 2:
        raise DomainError("louboutin_upper requires degree >= 2")
    if absD < 3:
        raise DomainError("louboutin_upper requires |discriminant| >= 3")
    return (math.e * math.log(absD) / (2 * (n - 1))) ** (n - 1)


def zimmert_lower(absD: int) -> float:
    """Universal residue lower bound 0.36232/sqrt|disc|."""
    if absD < 3:
        raise DomainError("zimmert_lower requires |discriminant| >= 3")
    return ZIMMERT_NUMERATOR / math.sqrt(absD)


def stark_lower(field: FieldDescriptor) -> StarkBound:
    """Case-split residue lower bound from Galois-structure flags.

    Returns the largest applicable variant. The generic case carries the
    same leading constant as the normal case, with the factorial absorbed
    into the denominator factor g; this mirrors the printed case display.
    """
    flags = field.flags
    n = field.degree
    absD = field.abs_discriminant
    if n < 2:
        raise DomainError("stark_lower requires degree >= 2")
    if flags.normal_over_q:
        case, c_power, c_log, g = "normal-over-q", STARK_POWER_NORMAL, \
            STARK_LOG_NORMAL, 1
    elif flags.normal_tower:
        # a known tower suffices even if normality over Q is open
        case, c_power, c_log, g = "normal-tower", STARK_POWER_TOWER, \
            STARK_LOG_TOWER, 1
    elif flags.normal_tower is False:
        # no tower forces non-normality, so the factorial case applies
        case, c_power, c_log, g = "generic", STARK_POWER_GENERIC, \
            STARK_LOG_GENERIC, math.factorial(n)
    else:
        raise UnknownStructureFlags(
            "normal_over_q / normal_tower flags needed to select a case")
    value = c_power / (n * g * absD ** (1 / n))
    label = case
    if flags.quadratic_subfield is False:
        alt = c_log / (g * math.log(absD))
        if alt > value:
            value = alt
            label = case + "-no-quadratic-subfield"
    return StarkBound(value=value, case_label=f"{label}; {STARK_CAVEAT}")


def field_constants(field: FieldDescriptor,
                    kappa: Optional[Residue]) -> FieldConstants:
    """Lambda_K, Upsilon_K (None without a residue), the Louboutin, Zimmert
    and Stark residue bounds (Stark None when the structure flags select no
    case) and a1, a3, a7. Below degree 2 only a1, a3, a7 exist; the rest are
    None."""
    n, absD = field.degree, field.abs_discriminant
    a1, a3, a7 = sunley_constants(n)
    if n < 2:
        return FieldConstants(None, None, None, None, None, a1, a3, a7)
    try:
        stark = stark_lower(field)
    except UnknownStructureFlags:
        stark = None
    ups = upsilon_K(n, absD, kappa) if kappa is not None else None
    return FieldConstants(lambda_K(n, absD), ups, louboutin_upper(n, absD),
                          zimmert_lower(absD), stark, a1, a3, a7)


def multipart_case(n: int, j: int) -> tuple[str, float]:
    """Case selector for the weighted norm-power sum bound.

    alpha = j (1 - 2/(n+1)); the three cases partition alpha < 1, = 1, > 1.
    """
    alpha = j * (1 - 2 / (n + 1))
    if j == 1 or (j == 2 and n == 2):
        return "linear", alpha
    if (j, n) in ((2, 3), (3, 2)):
        return "log", alpha
    return "decay", alpha

