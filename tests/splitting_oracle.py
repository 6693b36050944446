"""The splitting of a field read from its own code table, p mod m for an
abelian field (splitting._class_route) or p mod l and one power residue for
a pure field x^l - a (splitting._kummer_route), against the kernels those
routes replaced: Euler's criterion for a quadratic field, the batched
Frobenius pass for a cubic or quartic, and the exact pipeline for the rest.
kernel_patterns runs splitting._tabulate on a context whose route is
splitting._kernel_route's, the route every field took before the class and
Kummer tables; it is the oracle of table_patterns, which runs it on the
field's class or Kummer route.

ideal_columns merges the prime ideals of a splitting table into whole
columns at once, as the library did before it streamed them in blocks of
primes; it is the oracle of splitting._ideal_stream and the source of the
norms of fsum_oracle.

Run as a script, it compares the two routes at every prime up to one cutoff
for one field, which must have a class or Kummer route, and exits 1 on any
difference:

    PYTHONPATH=src python tests/splitting_oracle.py fields/gaussian.field 1e7
    PYTHONPATH=src python tests/splitting_oracle.py fields/cbrt2.field 1e7
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from nfmertens.field import FieldDescriptor, load_field
from nfmertens.splitting import (FieldContext, _class_route, _iroot, _kernel_route,
                                 _kummer_route, _splitting_table, _tabulate,
                                 rational_primes)


def route_context(field: FieldDescriptor, route) -> FieldContext:
    """A fresh context of the field whose route is route(field, patterns),
    in place of the one _route would choose."""
    ctx = FieldContext()
    ctx.route = route(field, ctx.patterns)
    return ctx


def _patterns(field: FieldDescriptor, ctx: FieldContext, primes: np.ndarray) -> list:
    codes = _tabulate(field, ctx, primes)
    return [ctx.patterns[c] for c in codes.tolist()]


def kernel_patterns(field: FieldDescriptor, primes: np.ndarray) -> list:
    """The splitting pattern at each prime from the Euler or Frobenius pass,
    or the exact pipeline, as a list of ((e, f), ...) tuples."""
    return _patterns(field, route_context(field, _kernel_route), primes)


def table_patterns(field: FieldDescriptor, primes: np.ndarray) -> list:
    """The splitting pattern at each prime through the field's residue-class
    or Kummer route; raises ValueError for a field that has neither."""
    ctx = route_context(field, lambda field, patterns: (
        _class_route(field, patterns) or _kummer_route(field, patterns)))
    if ctx.route is None:
        raise ValueError("the field has no residue-class or Kummer table")
    return _patterns(field, ctx, primes)


def ideal_columns(primes: np.ndarray, codes: np.ndarray, patterns: list,
                  xi: int, p_and_f: bool = False) -> np.ndarray:
    """The int64 columns norm, or with p_and_f norm, p and f, as the rows of
    one array, one entry per prime ideal of norm <= xi sorted by (norm, p),
    from the splitting table of the primes.

    The degree-1 norms are the primes repeated by their number of degree-1
    ideals, already in order; the few norms p^f with f >= 2 go in place by
    searchsorted. A norm p^f fixes p and f, so no two merged entries tie.
    """
    # a prime has at most len(pairs) ideals of any degree
    narrow = np.min_scalar_type(max(map(len, patterns), default=1))

    def per_prime(f, k):  # number of ideals of degree f over each of k primes
        return np.array([sum(g == f for _, g in pairs) for pairs in patterns],
                        narrow)[codes[:k]]
    high = [np.empty((4, 0), dtype=np.int64)]  # rows norm, p, f, count
    for f in sorted({f for pairs in patterns for _, f in pairs} - {1}):
        # only primes p <= xi^(1/f) are raised to the power f
        k = np.searchsorted(primes, _iroot(xi, f), "right")
        count = per_prime(f, k)
        p = primes[:k][count > 0]
        high.append(np.stack((p ** f, p, np.full_like(p, f), count[count > 0])))
    high = np.concatenate(high, axis=1)
    high = high[:, np.argsort(high[0])]
    k = np.searchsorted(primes, xi, "right")
    # where the norms p^f land among the k + len(high) merged entries
    at = np.searchsorted(primes[:k], high[0]) + np.arange(high.shape[1])
    low = np.ones(k + len(at), dtype=bool)
    low[at] = False
    merged = np.empty((3 if p_and_f else 1, len(low)), dtype=np.int64)
    merged[:, at], merged[:, low] = high[:len(merged)], primes[:k]
    merged[2:, low] = 1  # f of the degree-1 entries, when asked for
    counts = np.empty(len(low), dtype=narrow)
    counts[at], counts[low] = high[3], per_prime(1, k)
    return np.repeat(merged, counts, axis=1)


def oracle_norms(field: FieldDescriptor, x: float) -> np.ndarray:
    """The norm of every prime ideal of norm <= x, ascending, by
    ideal_columns from the field's splitting table."""
    xi = math.floor(x)
    [norms] = ideal_columns(*_splitting_table(field, xi), xi)
    return norms


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
