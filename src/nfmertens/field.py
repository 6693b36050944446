"""Number-field descriptors and the exact residue from class-number data.

A field is described by a monic integer polynomial plus its invariants:
degree, signature (r1, r2), field discriminant, and optionally the class
number, regulator, and number of roots of unity. Class data is user-supplied,
never computed here; the regulator arrives as a decimal string so its stated
precision is preserved in reports.

Quadratic fields need only the polynomial: the fundamental discriminant,
from the squarefree part of disc(f) (polyfield.factor), and the signature
are derived. Degree >= 3 requires explicit discriminant and signature,
cross-checked against the polynomial discriminant (the quotient must be the
square of an index no prime of which passes Dedekind's criterion) and r1
against the number of real roots of the polynomial (Sturm's theorem,
polyfield.real_root_count). The sign of D, that of disc(f), is then (-1)^r2
(Brill's theorem).

An abelian field may carry a CyclotomicCertificate (the keys conductor and
cyclotomic_root, or none for Phi_m itself), which also proves the polynomial
irreducible; without one, _check_irreducible proves it or refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Optional

from .errors import (
    InvariantViolation,
    MissingClassData,
    ReducibleDefiningPolynomial,
    SchemaError,
)
from .polyfield import (
    IntPoly,
    _distinct_degree_parts,
    dedekind_index_test,
    factor,
    is_prime,
    poly_discriminant,
    real_root_count,
)

if TYPE_CHECKING:
    from .splitting import FieldContext

PROVENANCE_EXACT = "exact-class-number-formula"
PROVENANCE_ESTIMATED = "estimated-from-ideal-count"

_KEYS = ("poly", "degree", "signature", "discriminant", "class_number",
         "regulator", "roots_of_unity", "normal_over_q", "normal_tower",
         "quadratic_subfield", "conductor", "cyclotomic_root")

# Largest conductor a descriptor may name. Certifying a root takes up to
# m phi(m) products of Python ints: about 0.2 s at 2^10.
CONDUCTOR_MAX = 1 << 10
# is_prime is exact below this bound, so the certificate's prime q stays under it
_PRIME_PROOF_MAX = 3 * 10 ** 24
# _check_irreducible reads f mod p at the primes below this bound: 168 primes
_IRREDUCIBILITY_PRIMES = 1000


@dataclass(frozen=True)
class ClassData:
    """User-supplied class number, regulator (decimal string), root count."""

    h: int
    regulator: str
    w: int

    @property
    def regulator_value(self) -> float:
        return float(self.regulator)


@dataclass(frozen=True)
class StructureFlags:
    """Galois-structure knowledge; None means unknown."""

    normal_over_q: Optional[bool] = None
    normal_tower: Optional[bool] = None
    quadratic_subfield: Optional[bool] = None


@dataclass(frozen=True)
class CyclotomicCertificate:
    """A proof that K = Q(alpha) lies in Q(zeta_m), m the conductor, with
    alpha = sum(root[k] zeta_m^k) a root of the defining polynomial.

    subgroup is H = {a in (Z/m)^x : sigma_a(alpha) = alpha}, sigma_a sending
    zeta_m to zeta_m^a, so Gal(K/Q) = (Z/m)^x / H has order the degree. A
    prime p not dividing m is unramified in K, and each prime ideal over p
    has residue degree the order of p in (Z/m)^x / H (Washington,
    Introduction to Cyclotomic Fields, GTM 83, ch. 2-3).
    """

    conductor: int
    root: tuple[int, ...]
    subgroup: frozenset[int]


@dataclass(frozen=True)
class FieldDescriptor:
    defining_poly: IntPoly
    degree: int
    signature: tuple[int, int]
    discriminant: int
    class_data: Optional[ClassData]
    flags: StructureFlags
    cyclotomic: Optional[CyclotomicCertificate] = None
    # the splitting.FieldContext of this descriptor, set on first use by
    # field_context()
    context: Optional[FieldContext] = dataclass_field(
        default=None, init=False, repr=False, compare=False)

    @property
    def abs_discriminant(self) -> int:
        return abs(self.discriminant)


@dataclass(frozen=True)
class Residue:
    """Value of the zeta residue at s = 1, with how it was obtained."""

    value: float
    provenance: str
    halfwidth: Optional[float] = None


def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    if key in ("poly", "signature", "cyclotomic_root"):
        if not (raw.startswith("[") and raw.endswith("]")):
            raise SchemaError(f"{key}: expected an integer list like [a0, a1, ...]")
        body = raw[1:-1].strip()
        try:
            return [int(t.strip()) for t in body.split(",")] if body else []
        except ValueError as exc:
            raise SchemaError(f"{key}: non-integer entry in list") from exc
    if key in ("degree", "discriminant", "class_number", "roots_of_unity",
               "conductor"):
        try:
            return int(raw)
        except ValueError as exc:
            raise SchemaError(f"{key}: expected an integer, got {raw!r}") from exc
    if key == "regulator":
        try:
            float(raw)
        except ValueError as exc:
            raise SchemaError(f"regulator: not a decimal number: {raw!r}") from exc
        return raw
    if key in ("normal_over_q", "normal_tower", "quadratic_subfield"):
        lowered = raw.lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        if lowered == "unknown":
            return None
        raise SchemaError(f"{key}: expected true/false/unknown, got {raw!r}")
    raise SchemaError(f"unknown key {key!r}")


def _parse_descriptor(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SchemaError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise SchemaError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise SchemaError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_scalar(key, raw)
    if "poly" not in values:
        raise SchemaError("missing required key 'poly'")
    return values


def fundamental_discriminant(d: int) -> int:
    """Fundamental discriminant of Q(sqrt(d))."""
    if d == 0:
        raise InvariantViolation("discriminant must be nonzero")
    if abs(d) > 10**14:
        raise SchemaError("discriminant too large to validate; supply a smaller field")
    kernel = math.prod(p for p, e in factor(abs(d)).items() if e % 2)
    s = kernel if d > 0 else -kernel  # the signed squarefree part of d
    if s == 1:
        raise InvariantViolation("discriminant of a degree-2 polynomial is a square; "
                                 "the polynomial is not irreducible")
    return s if s % 4 == 1 else 4 * s


def _check_irreducible(poly: IntPoly, disc_poly: int) -> None:
    """Prove poly irreducible over Q, or raise ReducibleDefiningPolynomial.

    A factor of degree k over Q reduces mod p to a product of irreducible
    factors, so wherever f mod p is squarefree k is a sum of some of its
    factor degrees (Cohen, GTM 138, sec. 3.5). The subset sums of those
    degrees, intersected over the primes p < _IRREDUCIBILITY_PRIMES, prove f
    irreducible once only 0 and n are left. f is monic, so f mod p keeps its
    degree and is squarefree iff p does not divide disc_poly = disc(f). The
    rule refuses what it cannot prove: every reducible f, but also an
    irreducible f with a proper sum at every p, such as a quartic with
    Galois group V4, which needs a cyclotomic certificate.
    """
    n = poly.degree
    proven = 1 | 1 << n
    common = (1 << n + 1) - 1  # bit k: a factor of degree k not ruled out
    for p in filter(is_prime, range(2, _IRREDUCIBILITY_PRIMES)):
        if disc_poly % p == 0:
            continue
        sums = 1
        for part, d in _distinct_degree_parts(tuple(c % p for c in poly.coeffs), p):
            for _ in range((len(part) - 1) // d):
                sums |= sums << d
        common &= sums
        if common == proven:
            return
    raise ReducibleDefiningPolynomial(
        "cannot prove the defining polynomial irreducible: mod each prime "
        f"p < {_IRREDUCIBILITY_PRIMES} where it is squarefree, some of its "
        f"factor degrees sum to a degree in [1, {n - 1}]; an abelian field "
        "can name its conductor and cyclotomic_root")


def _totient(m: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(m).items())


def _root_subgroup(poly: IntPoly, m: int,
                   root: tuple[int, ...]) -> Optional[frozenset[int]]:
    """H = {a in (Z/m)^x : sigma_a(alpha) = alpha} for alpha = sum(root[k]
    zeta_m^k) when poly(alpha) = 0 in Z[zeta_m], else None.

    Both tests are exact. Take a prime q = 1 mod m and w of order m mod q.
    For each a in (Z/m)^x, zeta_m -> w^a maps Z[zeta_m] onto F_q, and the
    kernels are the phi(m) distinct primes over q. A beta that every map sends
    to 0 is divisible by q, so beta = 0 or |N(beta)| >= q^phi(m). Every
    embedding of beta is at most L1(beta), the sum of |c| over its
    coefficients c in the powers of zeta_m, so |N(beta)| <= L1(beta)^phi(m).
    Thus q > L1(beta) makes "every map sends beta to 0" prove beta = 0. Here
    beta is poly(alpha), with L1 <= sum(|f_i| L^i) for L = L1(alpha), or
    sigma_a(alpha) - alpha, with L1 <= 2L.
    """
    size = sum(map(abs, root))
    bound = max(sum(abs(c) * size ** i for i, c in enumerate(poly.coeffs)), 2 * size)
    q = m * (bound // m + 1) + 1
    while not is_prime(q):
        q += m
    if q >= _PRIME_PROOF_MAX:
        raise SchemaError("cyclotomic_root is too large to certify")
    prime_factors = factor(m)
    g = 2
    while True:
        w = pow(g, (q - 1) // m, q)
        if all(pow(w, m // p, q) != 1 for p in prime_factors):
            break
        g += 1
    powers = [1] * m
    for t in range(1, m):
        powers[t] = powers[t - 1] * w % q
    units = [a for a in range(m) if math.gcd(a, m) == 1]
    terms = [(k, c) for k, c in enumerate(root) if c]
    value = {a: sum(c * powers[a * k % m] for k, c in terms) % q for a in units}
    for v in value.values():
        r = 0
        for c in reversed(poly.coeffs):
            r = (r * v + c) % q
        if r:
            return None
    return frozenset(a for a in units
                     if all(value[a * b % m] == value[b] for b in units))


def _certificate(poly: IntPoly, values: dict) -> Optional[CyclotomicCertificate]:
    """The cyclotomic certificate the descriptor's keys name, checked, or
    the one of Phi_m when poly is Phi_m; None for neither."""
    n = poly.degree
    if "conductor" in values or "cyclotomic_root" in values:
        if "conductor" not in values or "cyclotomic_root" not in values:
            raise SchemaError("conductor and cyclotomic_root must be supplied together")
        m, root = values["conductor"], tuple(values["cyclotomic_root"])
        if not 1 <= m <= CONDUCTOR_MAX:
            raise SchemaError(f"conductor {m} must lie within [1, {CONDUCTOR_MAX}]")
        if len(root) != m:
            raise SchemaError(f"cyclotomic_root has {len(root)} coefficients; "
                              f"conductor {m} needs one per power of zeta_{m}")
        subgroup = _root_subgroup(poly, m, root)
        if subgroup is None:
            raise InvariantViolation(
                f"cyclotomic_root is not a root of the defining polynomial in "
                f"Q(zeta_{m})")
        index = _totient(m) // len(subgroup)
        if index != n:
            raise ReducibleDefiningPolynomial(
                f"cyclotomic_root has {index} conjugates, not the degree {n}; "
                "it is a root of a proper factor of the polynomial")
        return CyclotomicCertificate(m, root, subgroup)
    # Phi_m (m >= 2) is palindromic with constant term 1, has degree phi(m),
    # and phi(m) >= sqrt(m / 2); a monic f of degree phi(m) with f(zeta_m) = 0
    # is Phi_m. Past CONDUCTOR_MAX no certificate is made, keyed or not.
    if n < 2 or poly.coeffs[0] != 1 or poly.coeffs != poly.coeffs[::-1]:
        return None
    for m in range(3, min(2 * n * n, CONDUCTOR_MAX) + 1):
        if _totient(m) == n:
            root = (0, 1) + (0,) * (m - 2)
            subgroup = _root_subgroup(poly, m, root)
            if subgroup is not None:
                return CyclotomicCertificate(m, root, subgroup)
    return None


def _check_certified_flags(n: int, values: dict) -> None:
    """Reject structure flags the Galois group (Z/m)^x / H contradicts: it is
    abelian, so K is normal over Q, and it has a subgroup of index 2, so K a
    quadratic subfield, iff its order n is even."""
    for key in ("normal_over_q", "normal_tower"):
        if values.get(key) is False:
            raise InvariantViolation(
                f"{key} = false contradicts the cyclotomic certificate: a "
                "subfield of Q(zeta_m) is abelian, so normal over Q")
    stated = values.get("quadratic_subfield")
    if stated is not None and stated != (n % 2 == 0):
        raise InvariantViolation(
            f"quadratic_subfield = {'true' if stated else 'false'} contradicts "
            f"the cyclotomic certificate: the Galois group has order {n}, and "
            "a quadratic subfield exists iff that order is even")


def load_field(descriptor_text: str) -> FieldDescriptor:
    """Parse and validate a field descriptor document."""
    values = _parse_descriptor(descriptor_text)
    poly = IntPoly.of(values["poly"])
    if poly.is_zero or poly.degree < 1:
        raise InvariantViolation("defining polynomial must have degree >= 1")
    if not poly.is_monic:
        raise InvariantViolation("defining polynomial must be monic")
    n = poly.degree
    if "degree" in values and values["degree"] != n:
        raise InvariantViolation(
            f"declared degree {values['degree']} != polynomial degree {n}")
    disc_poly = poly_discriminant(poly)
    # [(Z/m)^x : H] = n conjugates of a root of f prove f irreducible
    certificate = _certificate(poly, values)
    if certificate is not None:
        _check_certified_flags(n, values)
    elif n >= 2:
        _check_irreducible(poly, disc_poly)

    if n == 1:
        discriminant = 1
        signature = (1, 0)
        if values.get("discriminant", 1) != 1:
            raise InvariantViolation("a degree-1 field has discriminant 1")
        if "signature" in values and tuple(values["signature"]) != (1, 0):
            raise InvariantViolation("a degree-1 field has signature (1, 0)")
    elif n == 2:
        discriminant = fundamental_discriminant(disc_poly)
        signature = (2, 0) if discriminant > 0 else (0, 1)
        if "discriminant" in values and values["discriminant"] != discriminant:
            raise InvariantViolation(
                f"supplied discriminant {values['discriminant']} is not the "
                f"fundamental discriminant {discriminant} of the polynomial")
        if "signature" in values and tuple(values["signature"]) != signature:
            raise InvariantViolation(
                f"signature must be {signature} for discriminant {discriminant}")
    else:
        if "discriminant" not in values or "signature" not in values:
            raise SchemaError(
                "degree >= 3 requires explicit 'discriminant' and 'signature'")
        discriminant = values["discriminant"]
        sig = values["signature"]
        if len(sig) != 2 or sig[0] < 0 or sig[1] < 0:
            raise SchemaError("signature must be [r1, r2] with r1, r2 >= 0")
        signature = (sig[0], sig[1])
        if signature[0] + 2 * signature[1] != n:
            raise InvariantViolation(
                f"r1 + 2 r2 = {signature[0] + 2 * signature[1]} != degree {n}")
        # 0 divides only 0, and an irreducible f has disc(f) != 0
        if discriminant == 0 or disc_poly % discriminant != 0:
            raise InvariantViolation(
                "field discriminant does not divide the polynomial discriminant")
        quotient = disc_poly // discriminant
        if quotient <= 0 or math.isqrt(quotient) ** 2 != quotient:
            raise InvariantViolation(
                "polynomial discriminant / field discriminant is not a "
                "positive perfect square")
        index = math.isqrt(quotient)
        if index > 10**14:
            raise SchemaError("index too large to validate; supply a smaller field")
        for p in factor(index):  # Cohen, GTM 138, 6.1.4
            if dedekind_index_test(poly, p):
                raise InvariantViolation(
                    f"discriminant {discriminant} is wrong: {p} divides sqrt(disc(f) "
                    f"/ D) = {index}, but Dedekind's criterion holds at {p}")
        roots = real_root_count(poly)
        if roots != signature[0]:
            raise InvariantViolation(
                f"signature {signature} has r1 = {signature[0]}, but the defining "
                f"polynomial's real root count is {roots} (Sturm's theorem)")
    if n >= 2 and abs(discriminant) < 3:
        raise InvariantViolation("|discriminant| >= 3 required for degree >= 2")

    class_keys = [k for k in ("class_number", "regulator", "roots_of_unity")
                  if k in values]
    if class_keys and len(class_keys) != 3:
        raise SchemaError("class_number, regulator, roots_of_unity must be "
                          "supplied together")
    class_data = None
    if class_keys:
        h = values["class_number"]
        w = values["roots_of_unity"]
        if h < 1 or w < 1 or float(values["regulator"]) <= 0:
            raise InvariantViolation("class data must be positive")
        if w % 2:
            raise InvariantViolation(
                f"roots_of_unity = {w} is odd, but -1 is a root of unity")
        # a quadratic field holds the 4th roots of unity at D = -4, the 6th at
        # D = -3 and only +-1 otherwise; a real embedding leaves only +-1
        forced = {-4: 4, -3: 6}.get(discriminant, 2) if n == 2 else \
            2 if signature[0] else w
        if w != forced:
            raise InvariantViolation(
                f"roots_of_unity = {w}, but the field with signature "
                f"{signature} and discriminant {discriminant} has {forced}")
        class_data = ClassData(h=h, regulator=values["regulator"], w=w)

    normal = values.get("normal_over_q")
    tower = values.get("normal_tower")
    if normal is True:
        if tower is False:
            raise InvariantViolation("a field normal over Q has a normal tower")
        tower = True
    flags = StructureFlags(
        normal_over_q=normal,
        normal_tower=tower,
        quadratic_subfield=values.get("quadratic_subfield"),
    )
    return FieldDescriptor(
        defining_poly=poly,
        degree=n,
        signature=signature,
        discriminant=discriminant,
        class_data=class_data,
        flags=flags,
        cyclotomic=certificate,
    )


def descriptor_text(field: FieldDescriptor) -> str:
    """Serialize a descriptor; load_field() of the result reproduces it."""
    lines = [
        f"poly = [{', '.join(str(c) for c in field.defining_poly.coeffs)}]",
        f"degree = {field.degree}",
        f"signature = [{field.signature[0]}, {field.signature[1]}]",
        f"discriminant = {field.discriminant}",
    ]
    if field.class_data is not None:
        lines.append(f"class_number = {field.class_data.h}")
        lines.append(f"regulator = {field.class_data.regulator}")
        lines.append(f"roots_of_unity = {field.class_data.w}")
    for key, value in (
        ("normal_over_q", field.flags.normal_over_q),
        ("normal_tower", field.flags.normal_tower),
        ("quadratic_subfield", field.flags.quadratic_subfield),
    ):
        if value is not None:
            lines.append(f"{key} = {'true' if value else 'false'}")
    if field.cyclotomic is not None:
        lines.append(f"conductor = {field.cyclotomic.conductor}")
        lines.append(f"cyclotomic_root = "
                     f"[{', '.join(str(c) for c in field.cyclotomic.root)}]")
    return "\n".join(lines) + "\n"


def kappa_exact(field: FieldDescriptor) -> Residue:
    """Residue from the class number formula:
    kappa = 2^r1 (2 pi)^r2 h R / (w sqrt|disc|)."""
    if field.class_data is None:
        raise MissingClassData(
            "exact residue needs class_number, regulator, roots_of_unity")
    r1, r2 = field.signature
    cd = field.class_data
    value = (2 ** r1) * (2 * math.pi) ** r2 * cd.h * cd.regulator_value \
        / (cd.w * math.sqrt(field.abs_discriminant))
    return Residue(value=value, provenance=PROVENANCE_EXACT)
