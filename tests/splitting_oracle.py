"""The splitting of an abelian field read from its residue-class table, p mod
m, against the kernels the table replaced: Euler's criterion for a quadratic
field, the batched Frobenius pass for a cubic or quartic, and the exact
pipeline for the rest. kernel_patterns runs splitting._tabulate with no
residue-class table, so it takes the route every field took before the
tables; it is the oracle of the table route.

Run as a script, it compares the two routes at every prime up to one cutoff
for one field, which must have a table, and exits 1 on any difference:

    PYTHONPATH=src python tests/splitting_oracle.py fields/gaussian.field 1e7
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from nfmertens.field import FieldDescriptor, load_field
from nfmertens.polyfield import poly_discriminant
from nfmertens.splitting import (_INITIAL_PATTERNS, FieldContext, _tabulate,
                                 rational_primes)


def kernel_patterns(field: FieldDescriptor, primes: np.ndarray) -> list:
    """The splitting pattern at each prime from the Euler or Frobenius pass,
    or the exact pipeline, as a list of ((e, f), ...) tuples."""
    ctx = SimpleNamespace(disc_poly=poly_discriminant(field.defining_poly),
                          patterns=list(_INITIAL_PATTERNS.get(field.degree, ())),
                          classes=None)
    codes = _tabulate(field, ctx, primes)
    return [ctx.patterns[c] for c in codes.tolist()]


def table_patterns(field: FieldDescriptor, primes: np.ndarray) -> list:
    """The splitting pattern at each prime through the field's residue-class
    table; raises ValueError for a field that has none."""
    ctx = FieldContext(field)
    if ctx.classes is None:
        raise ValueError("the field has no residue-class table")
    codes = _tabulate(field, ctx, primes)
    return [ctx.patterns[c] for c in codes.tolist()]


def mismatches(field: FieldDescriptor, x: float) -> list[int]:
    """The primes <= x where the two routes differ."""
    primes = rational_primes(x)
    table, kernel = table_patterns(field, primes), kernel_patterns(field, primes)
    return [p for p, a, b in zip(primes.tolist(), table, kernel) if a != b]


def main(argv) -> int:
    path, x = argv[0], float(argv[1])
    field = load_field(Path(path).read_text())
    try:
        found = mismatches(field, x)
    except ValueError as exc:
        print(f"{Path(path).stem}: {exc}")
        return 1
    for p in found[:20]:
        print(f"p = {p}: the table and the kernels differ")
    print(f"{Path(path).stem} up to {x:g}: "
          + (f"{len(found)} primes differ" if found
             else "the table agrees with the kernels at every prime"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
