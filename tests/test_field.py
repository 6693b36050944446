import math
import re
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nfmertens import field as field_module
from nfmertens.errors import (
    InvariantViolation,
    MissingClassData,
    ReducibleDefiningPolynomial,
    SchemaError,
)
from nfmertens.field import (
    CONDUCTOR_MAX,
    _totient,
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
FIELDS = Path(__file__).resolve().parent.parent / "fields"
X = sympy.symbols("x")
UNPROVEN = "cannot prove the defining polynomial irreducible"


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
        with pytest.raises(ReducibleDefiningPolynomial, match=UNPROVEN):
            load_field("poly = [-1, 0, 1]\n")  # x^2 - 1
        with pytest.raises(ReducibleDefiningPolynomial, match=UNPROVEN):
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

    @pytest.mark.parametrize("name, signature", [
        ("cbrt2", "[3, 0]"), ("cyclic-cubic-49", "[1, 1]"), ("cyclotomic5", "[2, 1]")])
    def test_brill_sign_rule(self, name, signature):
        # sign(D) = (-1)^r2 fails; cbrt2's D = -108 with r2 = 0 once passed
        # every check. The real root count refutes each such r1
        text = re.sub(r"signature = \[\d+, \d+\]", f"signature = {signature}",
                      (FIELDS / f"{name}.field").read_text())
        with pytest.raises(InvariantViolation, match="real root count"):
            load_field(text)

    def test_sturm_count_of_real_roots(self):
        # x^4 + 1 has no real root: [4, 0] has the sign of D that Brill's
        # rule reads, so only the count of real roots refutes it
        text = "poly = [1, 0, 0, 0, 1]\nsignature = [{}]\ndiscriminant = 256\n"
        with pytest.raises(InvariantViolation, match="real root count is 0"):
            load_field(text.format("4, 0"))
        assert load_field(text.format("0, 2")).signature == (0, 2)
        for path in FIELDS.glob("*.field"):
            load_field(path.read_text())

    @pytest.mark.parametrize("wrong, p", [(-27, 2), (-12, 3)])
    def test_wrong_discriminant_is_refuted(self, wrong, p):
        # disc(x^3 - 2) / D is 4 and 9, squares, but Dedekind's criterion
        # holds at 2 and 3, so neither divides the index: D is -108
        text = (FIELDS / "cbrt2.field").read_text()
        wrong_text = text.replace("discriminant = -108", f"discriminant = {wrong}")
        assert wrong_text != text
        with pytest.raises(InvariantViolation, match=f"criterion holds at {p}$"):
            load_field(wrong_text)

    def test_true_index_prime_loads(self):
        # 2 divides the index of x^3 - x^2 - 2x - 8, and the criterion fails
        # there: the descriptor loads, and splitting at 2 is refused later
        field = load_field((FIELDS / "non-monogenic-cubic.field").read_text())
        assert poly_discriminant(field.defining_poly) == 4 * field.discriminant

    def test_index_past_the_factoring_bound_is_refused(self):
        # disc(x^3 - a) = -27 a^2, so D = -108 leaves the index a / 2 = 10^15
        a = 2 * 10 ** 15
        with pytest.raises(SchemaError, match="index too large"):
            load_field(f"poly = [{-a}, 0, 0, 1]\nsignature = [1, 1]\n"
                       "discriminant = -108\n")

    def test_cubic_divisibility_enforced(self):
        with pytest.raises(InvariantViolation, match="divide"):
            load_field("poly = [-2, 0, 0, 1]\ndiscriminant = -100\n"
                       "signature = [1, 1]\n")

    def test_zero_discriminant_rejected(self):
        # it once raised ZeroDivisionError: a traceback and exit 1, not 2
        with pytest.raises(InvariantViolation, match="divide"):
            load_field("poly = [-2, 0, 0, 1]\ndiscriminant = 0\n"
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


def monic_irreducibles(max_degree, constant):
    """Monic polynomials over Q of degree 1 to max_degree that sympy proves
    irreducible, with constant terms drawn from constant."""
    return st.builds(
        lambda const, middle, degree: IntPoly.of([const, *middle[:degree - 1], 1]),
        constant, st.lists(st.integers(-9, 9), min_size=2, max_size=2),
        st.integers(1, max_degree),
    ).filter(lambda f: sympy.Poly(list(reversed(f.coeffs)), X).is_irreducible)


def product_text(f, g):
    coeffs = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            coeffs[i + j] += a * b
    return f"poly = [{', '.join(map(str, coeffs))}]\n"


class TestIrreducibility:
    # each refusal reads f mod all 168 primes below 1000, about 25 ms
    @given(monic_irreducibles(3, st.integers(-50, 50)),
           monic_irreducibles(3, st.integers(-50, 50)))
    @settings(max_examples=15, deadline=None)
    def test_products_are_refused(self, f, g):
        with pytest.raises(ReducibleDefiningPolynomial, match=UNPROVEN):
            load_field(product_text(f, g))

    @given(monic_irreducibles(2, st.integers(10 ** 6 + 1, 10 ** 8)),
           monic_irreducibles(3, st.integers(10 ** 6 + 1, 10 ** 8)))
    @settings(max_examples=10, deadline=None)
    def test_products_past_a_large_constant_are_refused(self, f, g):
        assert abs(f.coeffs[0] * g.coeffs[0]) > 10 ** 12
        with pytest.raises(ReducibleDefiningPolynomial, match=UNPROVEN):
            load_field(product_text(f, g))

    def test_linear_times_quadratic_past_1e12(self):
        b = 10 ** 13 + 14  # (x - b)(x^2 + 1)
        with pytest.raises(ReducibleDefiningPolynomial, match=UNPROVEN):
            load_field(f"poly = [{-b}, 1, {-b}, 1]\nsignature = [1, 1]\n"
                       "discriminant = -4\n")

    def test_v4_quartic_is_refused(self):
        # Q(sqrt 2, sqrt 3): every reduction has a factor of degree 2
        with pytest.raises(ReducibleDefiningPolynomial, match=UNPROVEN):
            load_field("poly = [1, 0, -10, 0, 1]\nsignature = [4, 0]\n"
                       "discriminant = 2304\n")

    @pytest.mark.parametrize("text, certified", [
        ("poly = [1, 0, 0, 0, 1]\ndiscriminant = 256\nsignature = [0, 2]\n", True),
        ("poly = [-2, 0, 0, 0, 1]\ndiscriminant = -2048\nsignature = [2, 1]\n", False),
        ("poly = [-2, 0, 0, 0, 0, 1]\ndiscriminant = 50000\nsignature = [1, 2]\n", False),
        ("poly = [-1, -1, 0, 0, 0, 1]\ndiscriminant = 2869\nsignature = [1, 2]\n", False),
        ("poly = [-2" + ", 0" * 28 + ", 1]\nsignature = [1, 14]\n"
         f"discriminant = {29 ** 29 * 2 ** 28}\n", False),
    ], ids=["x4+1", "x4-2", "x5-2", "x5-x-1", "x29-2"])
    def test_proven_fields_load(self, text, certified):
        # x^4 + 1 is Phi_8; the others are proven by their factor degrees
        assert (load_field(text).cyclotomic is not None) == certified


class TestRootsOfUnity:
    @pytest.mark.parametrize("name, w, match", [
        ("gaussian", 2, "has 4"), ("eisenstein", 2, "has 6"),
        ("golden", 4, "has 2"), ("sqrt-7", 4, "has 2"),
        ("cbrt2", 3, "odd"), ("cbrt2", 6, "has 2"), ("cyclotomic5", 5, "odd")])
    def test_wrong_count_is_refuted(self, name, w, match):
        text = (FIELDS / f"{name}.field").read_text()
        wrong = re.sub(r"roots_of_unity = \d+", f"roots_of_unity = {w}", text)
        assert wrong != text
        with pytest.raises(InvariantViolation, match=match):
            load_field(wrong)


CYCLIC_CUBIC_FILE = (FIELDS / "cyclic-cubic-49.field").read_text()
# alpha = zeta_7 + zeta_7^-1, a root of x^3 + x^2 - 2x - 1
KEYS_7 = "conductor = 7\ncyclotomic_root = [0, 1, 0, 0, 0, 0, 1]\n"
# the descriptor without its two certificate lines, which KEYS_7 puts back
CYCLIC_CUBIC = "".join(line for line in CYCLIC_CUBIC_FILE.splitlines(True)
                       if line not in KEYS_7.splitlines(True))


class TestCyclotomicCertificate:
    def test_keyed_cyclic_cubic(self):
        cert = load_field(CYCLIC_CUBIC + KEYS_7).cyclotomic
        assert cert.conductor == 7 and cert.root == (0, 1, 0, 0, 0, 0, 1)
        assert cert.subgroup == {1, 6}
        assert load_field(CYCLIC_CUBIC).cyclotomic is None
        assert load_field(CYCLIC_CUBIC_FILE).cyclotomic == cert
        assert len(CYCLIC_CUBIC.splitlines()) == len(CYCLIC_CUBIC_FILE.splitlines()) - 2

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
        monkeypatch.setattr(field_module, "_check_irreducible",
                            lambda *args: called.append(args))
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


def test_totient_against_sympy():
    for m in range(1, CONDUCTOR_MAX + 1):
        assert _totient(m) == sympy.totient(m), m
