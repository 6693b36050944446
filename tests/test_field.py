import math
from pathlib import Path

import pytest

from nfmertens import field as field_module
from nfmertens.errors import (
    InvariantViolation,
    MissingClassData,
    ReducibleDefiningPolynomial,
    SchemaError,
)
from nfmertens.field import (
    CONDUCTOR_MAX,
    descriptor_text,
    fundamental_discriminant,
    kappa_exact,
    load_field,
)
from nfmertens.polyfield import IntPoly, poly_discriminant

GAUSS = """
poly = [1, 0, 1]
class_number = 1
regulator = 1.0
roots_of_unity = 4
"""

SQRT5_BARE = "poly = [-5, 0, 1]\n"


class TestLoadField:
    def test_gaussian_auto_derivation(self):
        fd = load_field(GAUSS)
        assert fd.degree == 2
        assert fd.signature == (0, 1)
        assert fd.discriminant == -4

    def test_sqrt5_fundamental_part(self):
        # disc(x^2 - 5) = 20 = 4*5; the field discriminant is 5
        fd = load_field(SQRT5_BARE)
        assert fd.discriminant == 5
        assert fd.signature == (2, 0)

    def test_rationals_baseline(self):
        fd = load_field("poly = [-1, 1]\ndegree = 1\n"
                        "class_number = 1\nregulator = 1.0\nroots_of_unity = 2\n")
        assert fd.degree == 1
        assert fd.discriminant == 1
        assert kappa_exact(fd).value == pytest.approx(1.0, abs=1e-15)

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown key"):
            load_field("poly = [1, 0, 1]\nclass_group = 1\n")

    def test_missing_poly_rejected(self):
        with pytest.raises(SchemaError, match="poly"):
            load_field("degree = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            load_field("poly = [1, 0, 1]\npoly = [1, 0, 1]\n")

    def test_bad_list_rejected(self):
        with pytest.raises(SchemaError):
            load_field("poly = [1, a, 1]\n")

    def test_non_monic_rejected(self):
        with pytest.raises(InvariantViolation, match="monic"):
            load_field("poly = [1, 0, 2]\n")

    def test_reducible_by_integer_root(self):
        with pytest.raises(ReducibleDefiningPolynomial):
            load_field("poly = [-1, 0, 1]\n")  # x^2 - 1
        with pytest.raises(ReducibleDefiningPolynomial):
            load_field("poly = [6, 11, 6, 1]\ndiscriminant = -4\nsignature = [1, 1]\n")

    def test_wrong_signature_rejected(self):
        with pytest.raises(InvariantViolation, match="signature"):
            load_field("poly = [1, 0, 1]\nsignature = [2, 0]\n")

    def test_wrong_degree_rejected(self):
        with pytest.raises(InvariantViolation, match="degree"):
            load_field("poly = [1, 0, 1]\ndegree = 3\n")

    def test_non_fundamental_discriminant_rejected(self):
        with pytest.raises(InvariantViolation, match="fundamental"):
            load_field("poly = [-5, 0, 1]\ndiscriminant = 20\n")

    def test_cubic_requires_explicit_invariants(self):
        with pytest.raises(SchemaError, match="degree >= 3"):
            load_field("poly = [-2, 0, 0, 1]\n")

    def test_cubic_quotient_must_be_square(self):
        # disc(x^3 - 2) = -108; claiming -27 gives quotient 4 (square: ok),
        # claiming -12 gives quotient 9 (ok); claiming -54 gives quotient 2
        with pytest.raises(InvariantViolation, match="square"):
            load_field("poly = [-2, 0, 0, 1]\ndiscriminant = -54\n"
                       "signature = [1, 1]\n")

    def test_cubic_divisibility_enforced(self):
        with pytest.raises(InvariantViolation, match="divide"):
            load_field("poly = [-2, 0, 0, 1]\ndiscriminant = -100\n"
                       "signature = [1, 1]\n")

    def test_partial_class_data_rejected(self):
        with pytest.raises(SchemaError, match="together"):
            load_field("poly = [1, 0, 1]\nclass_number = 1\n")

    def test_normal_without_tower_rejected(self):
        with pytest.raises(InvariantViolation, match="tower"):
            load_field("poly = [1, 0, 1]\nnormal_over_q = true\n"
                       "normal_tower = false\n")

    def test_normal_implies_tower(self):
        fd = load_field("poly = [1, 0, 1]\nnormal_over_q = true\n")
        assert fd.flags.normal_tower is True

    def test_flags_default_unknown(self):
        fd = load_field("poly = [1, 0, 1]\n")
        assert fd.flags.normal_over_q is None
        assert fd.flags.quadratic_subfield is None

    def test_comments_and_blanks_ignored(self):
        fd = load_field("# a comment\n\npoly = [1, 0, 1]\n")
        assert fd.degree == 2


CYCLIC_CUBIC = (Path(__file__).resolve().parent.parent / "fields"
                / "cyclic-cubic-49.field").read_text()
# alpha = zeta_7 + zeta_7^-1, a root of x^3 + x^2 - 2x - 1
KEYS_7 = "conductor = 7\ncyclotomic_root = [0, 1, 0, 0, 0, 0, 1]\n"


class TestCyclotomicCertificate:
    def test_keyed_cyclic_cubic(self):
        cert = load_field(CYCLIC_CUBIC + KEYS_7).cyclotomic
        assert cert.conductor == 7 and cert.root == (0, 1, 0, 0, 0, 0, 1)
        assert cert.subgroup == {1, 6}
        assert load_field(CYCLIC_CUBIC).cyclotomic is None

    @pytest.mark.parametrize("coeffs, m", [
        ([1, 0, 1], 4), ([1, 1, 1], 3), ([1, -1, 1], 6), ([1, 1, 1, 1, 1], 5),
        ([1, 0, 0, 0, 1], 8), ([1, -1, 1, -1, 1], 10), ([1, 0, -1, 0, 1], 12)])
    def test_phi_m_is_recognised(self, coeffs, m):
        # Z[zeta_m] is the ring of integers, so D = disc(Phi_m)
        invariants = "" if len(coeffs) < 4 else (
            f"signature = [0, 2]\n"
            f"discriminant = {poly_discriminant(IntPoly.of(coeffs))}\n")
        cert = load_field(f"poly = {coeffs}\n" + invariants).cyclotomic
        assert cert.conductor == m and cert.subgroup == {1}
        assert cert.root == (0, 1) + (0,) * (m - 2)

    def test_certificate_replaces_the_witness_loop(self, monkeypatch):
        called = []
        monkeypatch.setattr(field_module, "_check_irreducible", called.append)
        load_field(CYCLIC_CUBIC + KEYS_7)
        load_field("poly = [1, 1, 1, 1, 1]\nsignature = [0, 2]\ndiscriminant = 125\n")
        assert called == []
        load_field(CYCLIC_CUBIC)
        assert len(called) == 1

    def test_root_of_a_factor_is_reducible(self):
        # (x^2 + 1)(x^2 + 2) vanishes at zeta_4, which has 2 conjugates
        with pytest.raises(ReducibleDefiningPolynomial, match="2 conjugates"):
            load_field("poly = [2, 0, 3, 0, 1]\nsignature = [0, 2]\n"
                       "discriminant = 32\nconductor = 4\n"
                       "cyclotomic_root = [0, 1, 0, 0]\n")

    @pytest.mark.parametrize("keys, match", [
        ("conductor = 7\n", "together"),
        ("cyclotomic_root = [0, 1, 0, 0, 0, 0, 1]\n", "together"),
        ("conductor = 0\ncyclotomic_root = []\n", "within"),
        (f"conductor = {CONDUCTOR_MAX + 1}\ncyclotomic_root = [0, 1]\n", "within"),
        ("conductor = 7\ncyclotomic_root = [0, 1000000000000000000000000, "
         "0, 0, 0, 0, 1]\n", "too large")])
    def test_malformed_keys(self, keys, match):
        with pytest.raises(SchemaError, match=match):
            load_field(CYCLIC_CUBIC + keys)

    @pytest.mark.parametrize("flag", ["normal_over_q", "normal_tower"])
    def test_not_normal_contradicts(self, flag):
        text = CYCLIC_CUBIC.replace(f"{flag} = true", f"{flag} = false")
        with pytest.raises(InvariantViolation, match=f"{flag} = false contradicts"):
            load_field(text + KEYS_7)

    def test_quadratic_subfield_must_match_the_order(self):
        text = CYCLIC_CUBIC.replace("quadratic_subfield = false", "quadratic_subfield = true")
        with pytest.raises(InvariantViolation, match="order 3"):
            load_field(text + KEYS_7)
        with pytest.raises(InvariantViolation, match="order 2"):
            load_field("poly = [1, 0, 1]\nquadratic_subfield = false\n")


class TestRoundTrip:
    def test_corpus_round_trip(self, corpus):
        for name, fd in corpus.items():
            assert load_field(descriptor_text(fd)) == fd, name

    def test_certificate_keys_round_trip(self):
        fd = load_field(CYCLIC_CUBIC + KEYS_7)
        text = descriptor_text(fd)
        assert text.endswith(KEYS_7)
        assert load_field(text) == fd
        assert load_field(text).cyclotomic == fd.cyclotomic


class TestKappaExact:
    def test_gaussian_is_quarter_pi(self, gauss):
        assert kappa_exact(gauss).value == pytest.approx(math.pi / 4, rel=1e-14)

    def test_golden_value(self, golden):
        expected = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
        assert kappa_exact(golden).value == pytest.approx(expected, rel=1e-14)

    def test_rationals_is_one(self, rationals):
        assert kappa_exact(rationals).value == pytest.approx(1.0, abs=1e-15)

    def test_missing_class_data(self):
        with pytest.raises(MissingClassData):
            kappa_exact(load_field("poly = [1, 0, 1]\n"))

    def test_provenance(self, gauss):
        assert kappa_exact(gauss).provenance == "exact-class-number-formula"


@pytest.mark.parametrize("d,expected", [
    (20, 5), (-4, -4), (5, 5), (8, 8), (12, 12), (-3, -3), (-7, -7),
    (45, 5), (-163, -163), (40, 40), (-8, -8),
])
def test_fundamental_discriminant(d, expected):
    assert fundamental_discriminant(d) == expected
