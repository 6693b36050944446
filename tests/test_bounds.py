import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from nfmertens.bounds import (
    LogMagnitude,
    a_constant_inequality,
    lambda_K,
    log_sum_exp,
    louboutin_upper,
    multipart_case,
    stark_lower,
    sunley_constants,
    upsilon_K,
    xi_K,
    zimmert_lower,
)
from nfmertens.errors import DomainError, MissingResidue, UnknownStructureFlags
from nfmertens.field import Residue, kappa_exact, load_field

mpmath.mp.dps = 50


def big_lambda(n, absD):
    n = mpmath.mpf(n)
    absD = mpmath.mpf(absD)
    return mpmath.exp(mpmath.mpf("28.2") * n + 5) \
        * (n + 1) ** (5 * (n + 1) / 2) \
        * absD ** (1 / (n + 1)) * mpmath.log(absD) ** n


class TestLogMagnitude:
    def test_render_decimal(self):
        assert LogMagnitude(math.log(2.0)).render() == "2"

    def test_render_exp_form(self):
        assert LogMagnitude(900.0).render() == "exp(900)"

    def test_value_overflow_is_inf(self):
        assert LogMagnitude(900.0).value == math.inf

    @given(st.floats(min_value=-200, max_value=300),
           st.floats(min_value=-200, max_value=300))
    @settings(max_examples=300, deadline=None)
    def test_addition_matches_linear(self, la, lb):
        got = (LogMagnitude(la) + LogMagnitude(lb)).natural_log
        expected = math.log(math.exp(la) + math.exp(lb))
        assert got == pytest.approx(expected, rel=1e-12)


class TestLambda:
    def test_value_discriminant_four(self):
        # 61.4 + 7.5 log 3 + (log 4)/3 + 2 log log 4, high-precision route
        got = lambda_K(2, 4).natural_log
        assert got == pytest.approx(70.75495880534068, rel=1e-14)
        assert got == pytest.approx(float(mpmath.log(big_lambda(2, 4))), rel=1e-13)

    def test_value_discriminant_three(self):
        got = lambda_K(2, 3).natural_log
        assert got == pytest.approx(70.19389191646692, rel=1e-14)

    def test_monotone_in_discriminant(self):
        assert lambda_K(2, 400).natural_log > lambda_K(2, 4).natural_log

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambda_K(1, 5)
        with pytest.raises(DomainError):
            lambda_K(2, 2)


class TestUpsilon:
    def test_gaussian_against_bigfloat(self, gauss):
        kappa = kappa_exact(gauss)
        got = upsilon_K(2, 4, kappa).natural_log
        lam = big_lambda(2, 4)
        kap = mpmath.pi / 4
        expected = (9 / (2 * kap) * lam + 1) \
            + mpmath.mpf("0.55") * lam * 6 / kap + 2 \
            + mpmath.mpf("40.31") * lam * 2 / kap
        assert got == pytest.approx(float(mpmath.log(expected)), rel=1e-13)
        assert got == pytest.approx(75.47862146900927, rel=1e-13)

    def test_dominates_last_summand(self, corpus):
        for name, field in corpus.items():
            if field.degree < 2 or field.class_data is None:
                continue
            kappa = kappa_exact(field)
            ups = upsilon_K(field.degree, field.abs_discriminant, kappa)
            floor = lambda_K(field.degree, field.abs_discriminant).natural_log \
                + math.log(40.31 * field.degree / kappa.value)
            assert ups.natural_log >= floor, name

    def test_increases_with_degree(self):
        kappa = Residue(value=0.5, provenance="user-supplied")
        assert upsilon_K(3, 49, kappa).natural_log \
            > upsilon_K(2, 49, kappa).natural_log

    def test_missing_residue(self):
        with pytest.raises(MissingResidue):
            upsilon_K(2, 4, None)


class TestXi:
    def test_degree_two_structure(self, gauss):
        kappa = kappa_exact(gauss)
        x = 10.0 ** 6
        got = xi_K(2, 4, kappa, x).natural_log
        lam = big_lambda(2, 4)
        expected = mpmath.pi / 4 * 2 * x \
            + lam * (mpmath.mpf("3.3") * x + 2 * x ** (mpmath.mpf(1) / 3)
                     * mpmath.log(x) + mpmath.mpf("50.8") * x ** (mpmath.mpf(1) / 3))
        assert got == pytest.approx(float(mpmath.log(expected)), rel=1e-13)

    def test_degree_three_substitution(self):
        kappa = Residue(value=0.3, provenance="user-supplied")
        got = xi_K(3, 49, kappa, 4.0).natural_log
        lam = big_lambda(3, 49)
        expected = mpmath.mpf("0.3") * 3 * 4 \
            + lam * (3 * 2 * mpmath.log(4) + 96 * 2)
        assert got == pytest.approx(float(mpmath.log(expected)), rel=1e-13)

    def test_x_below_two_rejected(self):
        kappa = Residue(value=0.3, provenance="user-supplied")
        with pytest.raises(DomainError):
            xi_K(4, 125, kappa, 1.0)


class TestSunleyConstants:
    def test_a7_degree_one(self):
        _, _, a7 = sunley_constants(1)
        assert a7.natural_log == pytest.approx(math.log(320), rel=1e-14)

    def test_a3_degree_two(self):
        _, a3, _ = sunley_constants(2)
        assert a3.value == pytest.approx(572.0013132913465, rel=1e-12)

    def test_inequality_holds_to_twenty(self):
        for n in range(1, 21):
            check = a_constant_inequality(n)
            assert check.passed, n
            assert check.log_slack > 0, n


class TestResidueBounds:
    def test_louboutin_gaussian(self):
        assert louboutin_upper(2, 4) == pytest.approx(
            math.e * math.log(4) / 2, rel=1e-14)
        assert louboutin_upper(2, 4) == pytest.approx(1.8841693853637201, rel=1e-13)

    def test_louboutin_golden(self, golden):
        bound = louboutin_upper(2, 5)
        assert bound == pytest.approx(2.1874529157013376, rel=1e-13)
        assert kappa_exact(golden).value <= bound

    def test_zimmert_values(self):
        assert zimmert_lower(4) == pytest.approx(0.18116, rel=1e-14)
        assert zimmert_lower(3) == pytest.approx(0.36232 / math.sqrt(3), rel=1e-14)

    def test_ordering_on_corpus(self, corpus):
        for name, field in corpus.items():
            if field.degree < 2 or field.class_data is None:
                continue
            kappa = kappa_exact(field).value
            assert zimmert_lower(field.abs_discriminant) < kappa, name
            assert kappa <= louboutin_upper(field.degree,
                                            field.abs_discriminant), name


class TestStark:
    def test_normal_cubic_with_unknown_subfield(self):
        # flags leave the quadratic-subfield question open, so only the
        # discriminant-power display applies
        fd = load_field("poly = [-1, -2, 1, 1]\ndegree = 3\n"
                        "signature = [3, 0]\ndiscriminant = 49\n"
                        "normal_over_q = true\n")
        bound = stark_lower(fd)
        assert bound.value == pytest.approx(0.015744605 / (3 * 49 ** (1 / 3)),
                                            rel=1e-13)
        assert bound.value == pytest.approx(0.0014342069459492415, rel=1e-12)
        assert "conditionally-admissible" in bound.case_label

    def test_no_quadratic_subfield_takes_larger_variant(self, corpus):
        field = corpus["cyclic-cubic-49"]
        bound = stark_lower(field)
        power = 0.015744605 / (3 * 49 ** (1 / 3))
        logd = 0.005792116 / math.log(49)
        assert bound.value == pytest.approx(max(power, logd), rel=1e-13)
        assert "no-quadratic-subfield" in bound.case_label

    def test_generic_case_uses_factorial(self, corpus):
        field = corpus["cbrt2"]
        bound = stark_lower(field)
        power = 0.015744605 / (3 * math.factorial(3) * 108 ** (1 / 3))
        logd = 0.005792116 / (math.factorial(3) * math.log(108))
        assert bound.value == pytest.approx(max(power, logd), rel=1e-13)

    def test_below_kappa_where_applicable(self, corpus):
        for name in ("cyclic-cubic-49", "cbrt2", "cyclotomic5"):
            field = corpus[name]
            assert stark_lower(field).value < kappa_exact(field).value, name

    def test_unknown_flags_error(self):
        fd = load_field("poly = [-2, 0, 0, 1]\ndegree = 3\n"
                        "signature = [1, 1]\ndiscriminant = -108\n")
        with pytest.raises(UnknownStructureFlags):
            stark_lower(fd)

    def test_tower_alone_selects_tower_case(self):
        fd = load_field("poly = [-1, -2, 1, 1]\ndegree = 3\n"
                        "signature = [3, 0]\ndiscriminant = 49\n"
                        "normal_tower = true\n")
        bound = stark_lower(fd)
        assert bound.value == pytest.approx(
            0.003936151 / (3 * 49 ** (1 / 3)), rel=1e-13)

    def test_no_tower_alone_selects_generic_case(self):
        fd = load_field("poly = [-2, 0, 0, 1]\ndegree = 3\n"
                        "signature = [1, 1]\ndiscriminant = -108\n"
                        "normal_tower = false\n")
        bound = stark_lower(fd)
        assert bound.value == pytest.approx(
            0.015744605 / (3 * 6 * 108 ** (1 / 3)), rel=1e-13)


class TestMultipart:
    def test_case_table_full_extent(self):
        for j in range(1, 8):
            for n in range(2, 15):
                case, alpha = multipart_case(n, j)
                num, den = j * (n - 1), n + 1
                assert alpha == pytest.approx(num / den, rel=1e-15)
                if num < den:
                    assert case == "linear", (j, n)
                elif num == den:
                    assert case == "log", (j, n)
                else:
                    assert case == "decay", (j, n)


def test_log_sum_exp_edge_cases():
    assert log_sum_exp([]) == -math.inf
    assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert log_sum_exp([800.0, 800.0]) == pytest.approx(800.0 + math.log(2),
                                                        rel=1e-15)
