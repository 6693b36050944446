"""Exception taxonomy shared by all modules.

Input/usage problems raise subclasses of NfMertensError; the CLI maps them
to exit code 2. Theorem-inequality failures are reported, not raised (exit 1).
"""


class NfMertensError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(NfMertensError):
    """An operation that requires a nonzero polynomial received zero."""


class CompositeModulus(NfMertensError):
    """A modulus that must be prime failed a primality check."""


class SchemaError(NfMertensError):
    """A field descriptor document does not conform to the schema."""


class InvariantViolation(NfMertensError):
    """A validated invariant failed; the message names the invariant."""


class ReducibleDefiningPolynomial(NfMertensError):
    """The defining polynomial is not proven irreducible: a rational factor
    was found, or no proof of irreducibility was."""


class MissingClassData(NfMertensError):
    """Exact residue requested but h, R, w are not all present."""


class MissingResidue(NfMertensError):
    """An operation requiring a positive residue value received none."""


class DomainError(NfMertensError):
    """Arguments outside the mathematical domain of an explicit constant."""


class UnknownStructureFlags(NfMertensError):
    """Structure flags are insufficient to select a residue-bound case."""


class CutoffOutOfRange(NfMertensError, ValueError):
    """A cutoff x is NaN or out of range, or a grid of cutoffs is empty or
    not strictly ascending; also a ValueError, as before it was a usage error."""


class DenseSieveCapExceeded(CutoffOutOfRange):
    """A cutoff passes the dense-sieve cap, beyond which nothing is sieved."""


class DivisorBoundExceeded(CutoffOutOfRange):
    """The I(n) row up to the cutoff could pass its int64 guard, 2^62."""


class IndexPrimeUnsupported(NfMertensError):
    """Splitting at a prime dividing the index cannot be read from the
    defining polynomial."""

    def __init__(self, p: int, message: str | None = None):
        self.p = p
        super().__init__(message or f"prime {p} divides the index; "
                         "splitting cannot be read from the defining polynomial")
