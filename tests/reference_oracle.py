"""An independent reference for the exact layer: sympy's round_two builds the
maximal order Z_K of Q[x]/(f) and its discriminant D_K, and prime_decomp the
(e, f) of every prime ideal over p. Neither reads nfmertens code.

The index of Z[x]/(f) in Z_K is sqrt(disc(f) / D_K). The exact pipeline
(splitting._pattern_mod_p) must give prime_decomp's (e, f) multiset at every
prime not dividing the index and raise IndexPrimeUnsupported at every prime
that does; dedekind_index_test(f, p) must be true exactly when p does not
divide the index.

sympy 1.14's round_two is wrong for about 1 in 10 random quartics with
|coefficients| <= 20: for x^4 - 7x^3 - 19x^2 + 13x - 10 it gives
D_K = -125752, which does not divide disc(f) = -78594700, and prime_decomp
then raises ClosureFailure. So maximal_order first checks that
disc(f) / D_K is a positive square, and raises OracleFault if not.

Run as a script, it compares the pipeline with prime_decomp at every prime
below a bound for each descriptor named, and exits 1 on any difference or
oracle fault:

    PYTHONPATH=src python tests/reference_oracle.py 1e4 fields/*.field
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import sympy
from sympy.polys.numberfields.basis import round_two
from sympy.polys.numberfields.primes import prime_decomp

from nfmertens.errors import IndexPrimeUnsupported
from nfmertens.field import FieldDescriptor, load_field
from nfmertens.polyfield import IntPoly, dedekind_index_test
from nfmertens.splitting import _pattern_mod_p

X = sympy.symbols("x")


class OracleFault(Exception):
    """sympy's maximal order contradicts disc(f) = index^2 D_K."""


@dataclass(frozen=True)
class MaximalOrder:
    poly: sympy.Poly
    basis: object  # the Z-basis of Z_K, a sympy Submodule
    discriminant: int
    index: int


def maximal_order(coeffs) -> MaximalOrder:
    """Z_K, D_K and the index of Z[x]/(f) for the monic irreducible f with
    these coefficients, lowest degree first."""
    poly = sympy.Poly(list(reversed(coeffs)), X, domain=sympy.ZZ)
    basis, dk = round_two(poly)
    dk = int(dk)
    quotient, rest = divmod(int(poly.discriminant()), dk)
    if rest or quotient <= 0 or math.isqrt(quotient) ** 2 != quotient:
        raise OracleFault(f"round_two gives D_K = {dk}, but disc(f) / D_K is "
                          "not a positive square")
    return MaximalOrder(poly, basis, dk, math.isqrt(quotient))


def reference_pattern(order: MaximalOrder, p: int) -> tuple[tuple[int, int], ...]:
    """The (e, f) of the prime ideals over p, sorted as _pattern_mod_p sorts."""
    ideals = prime_decomp(p, order.poly, ZK=order.basis, dK=order.discriminant)
    return tuple(sorted(((P.e, P.f) for P in ideals), key=lambda ef: (ef[1], ef[0])))


def pipeline_pattern(field: FieldDescriptor, p: int):
    """_pattern_mod_p(field, p), or None where it raises IndexPrimeUnsupported."""
    try:
        return _pattern_mod_p(field, p)
    except IndexPrimeUnsupported:
        return None


def pattern_mismatches(field: FieldDescriptor, bound: float) -> list[int]:
    """The primes p < bound where the exact pipeline and prime_decomp differ:
    the pipeline must refuse exactly the primes dividing the index."""
    order = maximal_order(field.defining_poly.coeffs)
    return [p for p in sympy.primerange(2, math.ceil(bound))
            if pipeline_pattern(field, p) != (
                None if order.index % p == 0 else reference_pattern(order, p))]


def dedekind_mismatches(coeffs) -> list[int]:
    """The primes p | disc(f) where dedekind_index_test(f, p) is not
    "p does not divide the index"."""
    order = maximal_order(coeffs)
    f = IntPoly.of(coeffs)
    disc = order.index ** 2 * order.discriminant
    return [p for p in sympy.factorint(abs(disc))
            if dedekind_index_test(f, p) != (order.index % p != 0)]


def main(argv) -> int:
    bound, paths = float(argv[0]), argv[1:]
    worst = 0
    for path in paths:
        stem = Path(path).stem
        field = load_field(Path(path).read_text())
        try:
            found = pattern_mismatches(field, bound)
        except OracleFault as exc:
            print(f"{stem}: oracle fault: {exc}")
            worst = 1
            continue
        for p in found[:20]:
            print(f"{stem}: p = {p}: the exact pipeline and prime_decomp differ")
        print(f"{stem} below {bound:g}: "
              + (f"{len(found)} primes differ" if found
                 else "the exact pipeline agrees with prime_decomp at every prime"))
        worst = max(worst, 1 if found else 0)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
