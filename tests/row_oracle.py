"""The I-sums and T-sums over the dense I(n) row: the oracle of
idealcount.ideal_sums, which reads the splitting table alone.

row_sums takes one ascending pass over the row's blocks for a grid of
cutoffs, cut by blockpass.slices: the I-sums exact, the T-sums rounded as
fsum would, so no sum depends on the grid or on where the blocks end.

Run as a script, it compares ideal_sums with the row for one field on the
grid 4:32 up to one cutoff, the I-sums exactly and the T-sums within
T_ALLOWANCE, and exits 1 on any difference:

    PYTHONPATH=src python tests/row_oracle.py fields/gaussian.field 1e8
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate
from operator import itemgetter
from pathlib import Path

import numpy as np

from nfmertens.blockpass import running_fsums, segment_sums, slices
from nfmertens.field import load_field
from nfmertens.idealcount import _row_blocks, ideal_sums
from nfmertens.mertens import geometric_grid

# Each T is a sum of positive terms, and each term of either path is within
# 3 units u = 2^-53 of its exact value (np.log within one ulp, the product
# and the int-to-float cast one rounding each) before the one final
# rounding: the two T differ by at most 7 u relative, under 2^-50.
T_ALLOWANCE = 2.0 ** -50


def row_sums(blocks, grid, logs: bool = True) -> tuple[list[int], list[float]]:
    """(I-sums, T-sums) at each x of the ascending grid, the sums over n <= x
    of I(n), exact, and of I(n) log n (none without logs), in one pass over
    the blocks (lo, block) from lo = 0, cut by blockpass.slices; T leaves
    out the terms of zero I(n), +0.0."""
    cuts = np.array([math.floor(x) + 1 for x in grid])
    isums = [0] * len(cuts)

    def terms(k, a, part):
        # uint16 and uint32 sum exactly; int64 (< 2^62) in two halves
        isums[k] += int(part.sum()) if part.dtype != np.int64 else \
            (int((part >> 31).sum()) << 31) + int((part & 2 ** 31 - 1).sum())
        if not logs:
            return ()
        nz = np.flatnonzero(part != 0)
        out = part[nz].astype(np.float64)
        nz += a  # in place: two fewer temporaries per part
        out *= np.log(nz.astype(np.float64))
        return out,

    parts = slices(map(itemgetter(1), blocks),
                   lambda lo, block: np.clip(cuts - lo, 0, len(block)))
    [tsums] = segment_sums(parts, terms, len(cuts), int(logs)) or [[]]
    return list(accumulate(isums)), running_fsums(tsums)


def differences(field, grid) -> list[str]:
    """Where ideal_sums differs from the row's sums, one message each."""
    got = ideal_sums(field, grid)
    want = row_sums(_row_blocks(field, math.floor(grid[-1])), grid)
    found = [f"I-sum at {x:g}: {a} != {b}"
             for x, a, b in zip(grid, got[0], want[0]) if a != b]
    return found + [f"T at {x:g}: {a!r} against {b!r}"
                    for x, a, b in zip(grid, got[1], want[1])
                    if abs(a - b) > T_ALLOWANCE * b]


def main(argv) -> int:
    path, x = argv[0], float(argv[1])
    field = load_field(Path(path).read_text())
    grid = [g for g in geometric_grid(4, 32) if g <= x]
    found = differences(field, grid)
    for line in found:
        print(line)
    print(f"{Path(path).stem} up to {x:g}: " + (
        "ideal_sums differs from the row" if found else
        f"{len(grid)} grid points agree with the row"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
