"""The exact layer against sympy's maximal order (reference_oracle): the
splitting of every prime below 2000, ramified and index primes included, the
Dedekind criterion at every prime dividing disc(f), and each descriptor's
field discriminant."""

import operator

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from conftest import FIELDS_DIR
from nfmertens.field import load_field
from reference_oracle import (X, OracleFault, dedekind_mismatches, maximal_order,
                              pattern_mismatches, pipeline_pattern)

EXTRA = {
    "x4+1": "poly = [1, 0, 0, 0, 1]\ndiscriminant = 256\nsignature = [0, 2]\n",
    "x3-x-1": "poly = [-1, -1, 0, 1]\ndiscriminant = -23\nsignature = [1, 1]\n",
}
DESCRIPTORS = {path.stem: path.read_text() for path in sorted(FIELDS_DIR.glob("*.field"))}
DESCRIPTORS.update(EXTRA)
LOADED = {name: load_field(text) for name, text in DESCRIPTORS.items()}
# degree >= 2: Q has no ramified primes to compare
FIELDS = {name: field for name, field in LOADED.items() if field.degree >= 2}


@pytest.mark.parametrize("name", FIELDS)
def test_pattern_matches_prime_decomp(name):
    assert pattern_mismatches(FIELDS[name], 2000) == [], name


def test_index_primes_of_the_non_monogenic_cubic():
    field = FIELDS["non-monogenic-cubic"]
    order = maximal_order(field.defining_poly.coeffs)
    assert order.index == 2
    assert [p for p in sympy.primerange(2, 2000)
            if pipeline_pattern(field, p) is None] == [2]


@pytest.mark.parametrize("name", FIELDS)
def test_dedekind_matches_the_index(name):
    assert dedekind_mismatches(FIELDS[name].defining_poly.coeffs) == [], name


# coefficients with square factors often give index primes
COEFF = st.builds(operator.mul, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 8, 9, 27)))


@given(st.lists(COEFF, min_size=3, max_size=3)
       .map(lambda lower: lower + [1])
       .filter(lambda c: sympy.Poly(c[::-1], X).is_irreducible))
@settings(max_examples=150, deadline=None)
def test_dedekind_matches_the_index_on_cubics(coeffs):
    try:
        assert dedekind_mismatches(coeffs) == [], coeffs
    except OracleFault:
        assume(False)


@pytest.mark.parametrize("name", LOADED)
def test_round_two_gives_the_discriminant(name):
    field = LOADED[name]
    assert maximal_order(field.defining_poly.coeffs).discriminant == field.discriminant
