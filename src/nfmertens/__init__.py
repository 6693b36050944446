"""Number-field Mertens sums, ideal counting, and explicit residue bounds."""

__version__ = "0.5.0"

from .bounds import (
    BoundsReport,
    CheckResult,
    FieldConstants,
    LogMagnitude,
    StarkBound,
    field_constants,
    lambda_K,
    louboutin_upper,
    stark_lower,
    sunley_constants,
    upsilon_K,
    xi_K,
    zimmert_lower,
)
from .field import (
    ClassData,
    FieldDescriptor,
    Residue,
    StructureFlags,
    descriptor_text,
    kappa_exact,
    load_field,
)
from .idealcount import (
    SummatoryPoint,
    ideal_count_sieve,
    kappa_estimate,
    summatory,
    t_K,
)
from .mertens import (
    MertensConstant,
    MertensRow,
    geometric_grid,
    mertens_constant,
    mertens_table,
    prime_power_sum,
)
from .polyfield import (
    IntPoly,
    dedekind_index_test,
    poly_discriminant,
)
from .splitting import (
    PrimeIdealRecord,
    SplittingType,
    kronecker,
    prime_ideals_up_to,
    rational_primes,
    splitting_type,
    theta_K,
)
from .verify import verify_all

__all__ = [
    "BoundsReport", "CheckResult", "ClassData", "FieldConstants",
    "FieldDescriptor", "IntPoly", "LogMagnitude", "MertensConstant",
    "MertensRow", "PrimeIdealRecord", "Residue", "SplittingType",
    "StarkBound", "StructureFlags", "SummatoryPoint", "dedekind_index_test",
    "descriptor_text", "field_constants", "geometric_grid",
    "ideal_count_sieve", "kappa_estimate", "kappa_exact", "kronecker",
    "lambda_K", "load_field", "louboutin_upper", "mertens_constant",
    "mertens_table", "poly_discriminant", "prime_ideals_up_to",
    "prime_power_sum", "rational_primes", "splitting_type", "stark_lower",
    "summatory", "sunley_constants", "t_K", "theta_K", "upsilon_K",
    "verify_all", "xi_K", "zimmert_lower",
]
