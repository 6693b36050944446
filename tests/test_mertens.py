import math
from pathlib import Path

import numpy as np
import pytest

from nfmertens import mertens, splitting
from nfmertens.cli import main
from nfmertens.errors import MissingResidue
from nfmertens.field import Residue, kappa_exact
from nfmertens.mertens import (
    EULER_GAMMA,
    EULER_GAMMA_STR,
    THETA_BROADBENT,
    THETA_CLASSIC,
    geometric_grid,
    mertens_constant,
    mertens_table,
    prime_power_grid,
    prime_power_sum,
    prime_power_sum_bound,
)
from nfmertens.splitting import prime_ideals_up_to, rational_primes, theta_K
from nfmertens.verify import PAINFUL_ALPHAS, PAINFUL_XS


def one_row(field, x, mc=None):
    """The single mertens_table row at x, with the exact residue."""
    kappa = kappa_exact(field)
    mc = mc or mertens_constant(field, 10 ** 5, kappa)
    [row] = mertens_table(field, [x], mc, kappa)
    return row


class TestGamma:
    def test_forty_digits_stored(self):
        digits = EULER_GAMMA_STR.split(".")[1]
        assert len(digits) == 40

    def test_rounds_to_0_5772(self):
        assert round(EULER_GAMMA, 4) == 0.5772


class TestMertensFirst:
    def test_gaussian_at_five(self, gauss):
        row = one_row(gauss, 5)
        expected = math.log(2) / 2 + 2 * math.log(5) / 5
        assert row.sum_logN_over_N == pytest.approx(expected, rel=1e-14)
        assert row.A_K == pytest.approx(expected - math.log(5), rel=1e-12)

    def test_rationals_at_two(self, rationals):
        row = one_row(rationals, 2)
        assert row.sum_logN_over_N == pytest.approx(math.log(2) / 2, rel=1e-14)
        assert row.A_K == pytest.approx(math.log(2) / 2 - math.log(2), rel=1e-12)

    def test_golden_at_four(self, golden):
        row = one_row(golden, 4)
        assert row.sum_logN_over_N == pytest.approx(math.log(4) / 4, rel=1e-14)
        assert row.A_K == pytest.approx(math.log(4) / 4 - math.log(4), rel=1e-12)


class TestMertensConstant:
    def test_rationals_value(self, rationals):
        mc = mertens_constant(rationals, 10 ** 6, kappa_exact(rationals))
        assert 0.2614 <= mc.M_K <= 0.2616
        assert mc.tail_halfwidth <= 1.1e-6
        assert not mc.approximate

    def test_gaussian_in_interval(self, gauss):
        kappa = kappa_exact(gauss)
        mc = mertens_constant(gauss, 10 ** 6, kappa)
        hi = EULER_GAMMA + math.log(kappa.value)
        assert hi - 2 <= mc.M_K <= hi

    def test_tail_formula(self, gauss):
        mc = mertens_constant(gauss, 10, kappa_exact(gauss))
        assert mc.tail_halfwidth == pytest.approx(2 / 9, rel=1e-15)

    def test_estimated_kappa_flagged(self, gauss):
        est = Residue(value=0.785, provenance="estimated-from-ideal-count")
        assert mertens_constant(gauss, 100, est).approximate

    def test_missing_residue(self, gauss):
        with pytest.raises(MissingResidue):
            mertens_constant(gauss, 100, None)

    @pytest.mark.parametrize("truncation_x", [5, 1e8 + 1, 1e12, math.inf, math.nan])
    def test_truncation_out_of_range(self, gauss, truncation_x):
        # it sieves prime ideals up to truncation_x: 1e12 would never end
        with pytest.raises(ValueError, match="truncation_x"):
            mertens_constant(gauss, truncation_x, kappa_exact(gauss))


class TestMertensSecond:
    def test_rationals_at_ten(self, rationals):
        mc = mertens_constant(rationals, 10 ** 5, kappa_exact(rationals))
        row = one_row(rationals, 10, mc)
        assert row.sum_recip == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7, rel=1e-14)
        assert row.B_K == pytest.approx(
            row.sum_recip - math.log(math.log(10)) - mc.M_K, abs=1e-14)

    def test_gaussian_at_five(self, gauss):
        assert one_row(gauss, 5).sum_recip == pytest.approx(0.9, rel=1e-14)


class TestMertensThird:
    def test_rationals_at_three(self, rationals):
        assert one_row(rationals, 3).product == pytest.approx(1 / 3, rel=1e-14)

    def test_gaussian_at_five(self, gauss):
        row = one_row(gauss, 5)
        assert row.product == pytest.approx(0.32, rel=1e-14)
        assert abs(row.C_K) <= row.E_K_bound * math.exp(row.E_K_bound)
        assert 1 + row.C_K > 0

    def test_empty_product(self, golden):
        # golden's least norm is 4: at x = 3 the sums are empty, 0, and the
        # product is empty, 1
        row = one_row(golden, 3)
        assert (row.sum_logN_over_N, row.sum_recip, row.product) == (0.0, 0.0, 1.0)
        assert row.A_K == -math.log(3)

    def test_empty_product_reads_one_block(self, monkeypatch, tmp_path):
        # the empty product at x = 3 costs no pass of its own: with the
        # truncation cutoff at 10, golden's pass to 100 reads one block of
        # primes and prints product 1 at x = 3
        asked = []
        stream = splitting._ideal_stream

        def spied(*args, **kwargs):
            return map(lambda block: asked.append(1) or block, stream(*args, **kwargs))
        monkeypatch.setattr(mertens, "_ideal_stream", spied)
        path = Path(__file__).resolve().parent.parent / "fields" / "golden.field"
        out = tmp_path / "mertens.csv"
        code = main(["mertens", "--field", str(path), "--grid", "3,100",
                     "--truncation-x", "10", "--out", str(out)])
        assert code == 0
        header, first, _ = (line.split(",") for line in out.read_text().splitlines()
                            if not line.startswith("#"))
        at_3 = dict(zip(header, first))
        assert [at_3[k] for k in ("x", "sum_logN_over_N", "sum_recip", "product")] == \
            ["3", "0", "0", "1"]
        assert len(asked) == 1

    def test_exp_identity(self, gauss):
        # the product equals exp of the compensated log sum to 1e-12
        direct = 1.0
        for rec in prime_ideals_up_to(gauss, 1000):
            direct *= 1 - 1 / rec.norm
        assert one_row(gauss, 1000).product == pytest.approx(direct, rel=1e-12)


class TestMertensTable:
    def test_matches_single_calls(self, gauss):
        # each row against direct sums over the prime ideals up to its x
        kappa = kappa_exact(gauss)
        mc = mertens_constant(gauss, 10 ** 5, kappa)
        grid = [10.0, 100.0, 1000.0]
        rows = mertens_table(gauss, grid, mc, kappa)
        longer = mertens_table(gauss, geometric_grid(4, 20), mc, kappa)
        for row in rows:
            x = row.x
            # one row at x, bit for bit, whichever grid asks for it
            assert mertens_table(gauss, [x], mc, kappa) == (row,)
            assert row in longer
            norms = [rec.norm for rec in prime_ideals_up_to(gauss, x)]
            s1 = math.fsum(math.log(n) / n for n in norms)
            s2 = math.fsum(1 / n for n in norms)
            p3 = math.exp(math.fsum(math.log1p(-1 / n) for n in norms))
            b2 = s2 - math.log(math.log(x)) - mc.M_K
            c3 = kappa.value * math.log(x) * math.exp(EULER_GAMMA) * p3 - 1
            assert row.sum_logN_over_N == pytest.approx(s1, rel=1e-13)
            assert row.A_K == pytest.approx(s1 - math.log(x), rel=1e-12)
            assert row.sum_recip == pytest.approx(s2, rel=1e-13)
            assert row.B_K == pytest.approx(b2, abs=1e-13)
            assert row.product == pytest.approx(p3, rel=1e-13)
            assert row.C_K == pytest.approx(c3, abs=1e-13)
            assert row.E_K_bound == pytest.approx(
                gauss.degree / (x - 1) + abs(b2), abs=1e-13)

    def test_e_bound_definition(self, gauss):
        kappa = kappa_exact(gauss)
        mc = mertens_constant(gauss, 10 ** 5, kappa)
        rows = mertens_table(gauss, [100.0], mc, kappa)
        row = rows[0]
        assert row.E_K_bound == pytest.approx(
            gauss.degree / (row.x - 1) + abs(row.B_K), abs=1e-15)

    def test_running_sup_of_A_is_stable(self, gauss, rationals, golden):
        # sup |A| over the grid moves by < 10% between successive decades
        for field in (rationals, gauss, golden):
            kappa = kappa_exact(field)
            mc = mertens_constant(field, 10 ** 6, kappa)
            rows = mertens_table(field, geometric_grid(4, 24), mc, kappa)
            sup_20 = max(abs(r.A_K) for r in rows if r.x <= 10 ** 5)
            sup_24 = max(abs(r.A_K) for r in rows)
            assert math.isfinite(sup_24)
            assert (sup_24 - sup_20) / sup_20 < 0.10


class TestPrimePowerSum:
    def test_alpha_two_at_ten(self):
        expected = (math.log(2) / 4 + math.log(3) / 9 + math.log(5) / 25
                    + math.log(7) / 49)
        assert prime_power_sum(10, 2) == pytest.approx(expected, rel=1e-14)

    def test_alpha_zero_is_theta(self, rationals):
        # one value at x, bit for bit, whichever grid or pass asks for it
        grid = geometric_grid(2, 21)
        [thetas] = prime_power_grid(grid, [0])
        for x, theta in zip(grid, thetas):
            assert prime_power_sum(x, 0) == theta == theta_K(rationals, x), x

    def test_alpha_one_at_two(self):
        assert prime_power_sum(2, 1) == pytest.approx(math.log(2) / 2, rel=1e-15)

    @pytest.mark.parametrize(
        "alpha", [k / 10 for k in range(10)] + [1.0, 1.2, 1.5, 2.0, 3.0])
    def test_bound_holds(self, alpha):
        for x in (100.0, 1000.0, 10000.0, 100000.0):
            assert prime_power_sum(x, alpha) < prime_power_sum_bound(x, alpha)


    @pytest.mark.parametrize("alpha", PAINFUL_ALPHAS)
    def test_grid_is_bit_identical_to_one_sum_per_point(self, alpha):
        # the per-point sum: one fsum of the numpy terms of every prime up
        # to each x, from a fresh sieve at each x
        xs = (2.0, 2.5, 7.0, *PAINFUL_XS)

        def direct_sum(x):
            p = rational_primes(x).astype(np.float64)
            return math.fsum((np.log(p) / p ** alpha).tolist())
        direct = list(map(direct_sum, xs))
        assert prime_power_grid(xs, [alpha]) == [direct]
        assert [prime_power_sum(x, alpha) for x in xs] == direct
        # the shared path: one pass whose np.log(p) serves every alpha, as
        # verify_all takes it
        shared = prime_power_grid(xs, PAINFUL_ALPHAS)
        assert shared[PAINFUL_ALPHAS.index(alpha)] == direct
        assert prime_power_grid(xs, (alpha, 0.0, alpha))[::2] == [direct, direct]

    def test_grid_rejects_bad_input(self):
        for xs, alphas in (([], [1.0]), ([1.5, 10.0], [1.0]), ([10.0], [-0.5]),
                           ([10.0], [1.0, -0.5]), ([100.0, 10.0], [1.0]),
                           ([10.0], [math.nan])):
            with pytest.raises(ValueError):
                prime_power_grid(xs, alphas)


class TestThetaConstants:
    def test_values(self):
        assert THETA_CLASSIC == 1.01624
        assert THETA_BROADBENT == pytest.approx(1 + 1.93378e-8, rel=1e-15)

    def test_theta_below_both_bounds_on_grid(self, rationals):
        for x in geometric_grid(4, 20):
            theta = theta_K(rationals, x)
            assert theta < THETA_CLASSIC * x
            assert theta < THETA_BROADBENT * x
