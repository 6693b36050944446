"""The grid sums as one math.fsum per grid point of every term up to it,
each term a float64 from numpy (np.log, np.log1p and /) turned into a
Python float. It is the oracle of mertens_constant, mertens_table,
mertens_grid (the one pass of those two), the T-sums of idealcount.row_sums,
mertens.prime_power_grid at alpha 0 (theta) and splitting.theta_K, which
must give the same floats bit for bit. Its norms come from
splitting_oracle.ideal_columns, not from the stream the library sums.

Run as a script, it compares them for one field up to one cutoff and
exits 1 on any difference:

    PYTHONPATH=src python tests/fsum_oracle.py fields/gaussian.field 1e7
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from math import fsum
from pathlib import Path
from unittest.mock import patch

import numpy as np

from nfmertens import blockpass, mertens
from nfmertens.field import PROVENANCE_EXACT, FieldDescriptor, Residue, load_field
from nfmertens.idealcount import _row_blocks, row_sums
from nfmertens.mertens import (geometric_grid, mertens_constant, mertens_grid,
                               mertens_table, prime_power_grid)
from nfmertens.splitting import rational_primes, theta_K
from splitting_oracle import oracle_norms


def fsum_grid(segments, *terms) -> list[list[float]]:
    """Sums over an ascending grid, one list per term function: each term
    maps a segment of the list segments to an iterable of floats, and the
    value at the k-th point is one fsum of the floats of the first k."""
    return [[fsum(chain.from_iterable(map(term, segments[:k])))
             for k in range(1, len(segments) + 1)] for term in terms]


def norm_segments(norms: np.ndarray, grid) -> list[np.ndarray]:
    """The ascending norms as float64, cut at each grid point."""
    cuts = np.searchsorted(norms, [math.floor(x) for x in grid], "right").tolist()
    n = norms.astype(np.float64)
    return [n[a:b] for a, b in zip([0] + cuts, cuts)]


def mertens_series(field: FieldDescriptor, truncation_x: float) -> float:
    """The sum of 1/N + log1p(-1/N) over prime ideals of norm N <= truncation_x."""
    recip = 1.0 / oracle_norms(field, truncation_x).astype(np.float64)
    return fsum((recip + np.log1p(-recip)).tolist())


def mertens_sums(field: FieldDescriptor, grid) -> list[list[float]]:
    """The sums of log(N)/N, 1/N and log1p(-1/N) at each grid point."""
    return fsum_grid(norm_segments(oracle_norms(field, grid[-1]), grid),
                     lambda n: (np.log(n) / n).tolist(),
                     lambda n: (1.0 / n).tolist(),
                     lambda n: np.log1p(-1.0 / n).tolist())


def log_sums(row: np.ndarray, grid) -> list[float]:
    """T(x) at each grid point from the terms I(n) log n of the nonzero
    I(n), 2 <= n <= x, of the full row, np.log taken in slices of _SLICE."""
    step = blockpass._SLICE

    def terms(segment):
        lo, hi = segment
        for a in range(lo, hi, step):
            part = row[a:min(a + step, hi)]
            nz = np.flatnonzero(part)
            yield (part[nz].astype(np.float64)
                   * np.log((nz + a).astype(np.float64))).tolist()

    cuts = [max(2, math.floor(x) + 1) for x in grid]
    [values] = fsum_grid(list(zip([2] + cuts, cuts)),
                         lambda seg: chain.from_iterable(terms(seg)))
    return values


def theta_values(norms: np.ndarray, grid) -> list[float]:
    """The sum of log N over the norms N <= x at each grid point."""
    [values] = fsum_grid(norm_segments(norms, grid), lambda n: np.log(n).tolist())
    return values


def mismatches(field: FieldDescriptor, grid, truncation_x: float) -> list[str]:
    """Where the grid sums differ from the oracle's, one message each;
    empty when every float agrees."""
    grid = [float(x) for x in grid]
    found = []
    # with gamma = 0 and kappa = 1, M_K = 0.0 + 0.0 + series is the series
    kappa = Residue(value=1.0, provenance=PROVENANCE_EXACT)
    with patch.object(mertens, "EULER_GAMMA", 0.0):
        mconst = mertens_constant(field, truncation_x, kappa)
    expected = mertens_series(field, truncation_x)
    if mconst.M_K != expected:
        found.append(f"mertens_constant: series {mconst.M_K!r} != {expected!r}")
    rows = mertens_table(field, grid, mconst, kappa)
    for row, lnn, rec, l1p in zip(rows, *mertens_sums(field, grid)):
        got = (row.sum_logN_over_N, row.sum_recip, row.product)
        if got != (lnn, rec, math.exp(l1p)):
            found.append(f"mertens_table at {row.x:g}: {got!r} != "
                         f"{(lnn, rec, math.exp(l1p))!r}")
    # the one pass of both, cut at the union of the grid and truncation_x
    with patch.object(mertens, "EULER_GAMMA", 0.0):
        both = mertens_grid(field, grid, truncation_x, kappa)
        apart = mconst, mertens_table(field, grid, mconst, kappa)
    if both != apart:
        found.append("mertens_grid differs from mertens_constant and mertens_table")
    row = np.concatenate([b for _, b in _row_blocks(field, math.floor(grid[-1]))])
    got, want = row_sums(_row_blocks(field, math.floor(grid[-1])), grid)[1], \
        log_sums(row, grid)
    if got != want:
        found.append(f"row_sums: T {got!r} != {want!r}")
    [got] = prime_power_grid(grid, [0])
    want = theta_values(rational_primes(grid[-1]), grid)
    if got != want:
        found.append(f"prime_power_grid: theta {got!r} != {want!r}")
    got = [theta_K(field, x) for x in grid]
    want = theta_values(oracle_norms(field, grid[-1]), grid)
    if got != want:
        found.append(f"theta_K: {got!r} != {want!r}")
    return found


def main(argv) -> int:
    path, x = argv[0], float(argv[1])
    field = load_field(Path(path).read_text())
    grid = [g for g in geometric_grid(4, 32) if g <= x]
    found = mismatches(field, grid, min(x, 1e6))
    for line in found:
        print(line)
    print(f"{Path(path).stem} up to {x:g}: "
          + ("grid sums differ from the fsum oracle" if found
             else f"{len(grid)} grid points agree with the fsum oracle"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
