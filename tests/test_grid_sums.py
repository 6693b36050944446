"""The block sums against the per-term fsum path they replaced
(fsum_oracle), at every corpus field, with blocks small enough that their
edges fall inside grid segments and between the ideals of one norm."""

import math

import numpy as np
import pytest

from fsum_oracle import mismatches
from nfmertens import blockpass
from nfmertens.mertens import geometric_grid
from splitting_oracle import oracle_norms

BLOCK = 31
GRID = geometric_grid(4, 20)


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(blockpass, "_SLICE", BLOCK)


def test_corpus_at_1e5(corpus):
    for name, field in corpus.items():
        if name == "non-monogenic-cubic":
            continue
        assert mismatches(field, GRID, 1e5) == [], name


def test_a_norm_straddles_a_block_edge(gauss):
    # the blocks of the Mertens sums start at each segment's start and every
    # BLOCK ideals after it; at some start the ideal before has the same norm
    norms = oracle_norms(gauss, GRID[-1])
    cuts = np.searchsorted(norms, [math.floor(x) for x in GRID], "right").tolist()
    starts = [a for lo, hi in zip([0] + cuts, cuts)
              for a in range(lo + BLOCK, hi, BLOCK)]
    assert any(norms[a - 1] == norms[a] for a in starts)
    # and segments end inside blocks: not every segment is whole blocks
    assert any((hi - lo) % BLOCK for lo, hi in zip([0] + cuts, cuts))
