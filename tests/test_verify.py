import math
import tracemalloc
import weakref
from operator import itemgetter
from pathlib import Path

import pytest

from nfmertens.errors import IndexPrimeUnsupported, InvariantViolation
from nfmertens.field import PROVENANCE_EXACT, Residue, kappa_exact, load_field
from nfmertens.idealcount import kappa_estimate
from nfmertens.mertens import geometric_grid, mertens_constant, mertens_grid, mertens_table
from nfmertens import cli, idealcount, mertens, splitting, verify
from nfmertens.splitting import FieldContext, field_context, theta_K
from nfmertens.verify import verify_all
from row_oracle import row_sums
from test_idealcount import plant

FIELDS_DIR = Path(__file__).resolve().parent.parent / "fields"


class TestVerifyAll:
    def test_gaussian_small_grid_all_pass(self, gauss):
        report = verify_all(gauss, [10.0, 100.0, 1000.0], kappa_exact(gauss),
                            truncation_x=1e4)
        assert report.failures == ()
        names = {c.name for c in report.checks}
        assert {"first_mertens_error", "second_mertens_error",
                "third_mertens_error", "ideal_count_envelope",
                "ideal_log_sum_first_bound", "ideal_log_sum_second_bound",
                "legendre_chebyshev_identity", "mertens_constant_interval",
                "residue_lower_zimmert", "residue_upper_louboutin",
                "residue_lower_stark", "a_constant_inequality",
                "norm_power_case_table", "chebyshev_theta_classic"} <= names

    def test_rationals_runs_without_degree_two_constants(self, rationals):
        report = verify_all(rationals, [10.0, 100.0], kappa_exact(rationals),
                            truncation_x=1e4)
        assert report.failures == ()
        assert report.lambda_K is None
        assert report.upsilon_K is None
        names = {c.name for c in report.checks}
        assert "third_mertens_error" in names
        assert "first_mertens_error" not in names

    def test_positive_slack_everywhere(self, gauss):
        report = verify_all(gauss, [10.0, 100.0], kappa_exact(gauss),
                            truncation_x=1e4)
        for check in report.checks:
            assert check.log_slack > 0, check

    def test_failures_listed_first(self, golden):
        # a residue 20x too large breaks the upper bound; the report must
        # surface that failure at the top
        wrong = Residue(value=kappa_exact(golden).value * 20,
                        provenance="exact-class-number-formula")
        report = verify_all(golden, [10.0, 100.0], wrong, truncation_x=1e4)
        assert report.failures
        k = len(report.failures)
        assert all(not c.passed for c in report.checks[:k])
        assert all(c.passed for c in report.checks[k:])
        assert any(c.name == "residue_upper_louboutin" for c in report.failures)

    def test_estimated_kappa_skips_exactness_checks(self, gauss):
        est = Residue(value=0.7854, provenance="estimated-from-ideal-count")
        report = verify_all(gauss, [10.0, 100.0], est, truncation_x=1e4)
        names = {c.name for c in report.checks}
        assert "mertens_constant_interval" not in names
        assert "third_mertens_error" not in names
        assert "ideal_count_envelope" not in names
        # magnitude-level checks still run
        assert "first_mertens_error" in names

    def test_broadbent_toggle(self, gauss):
        report = verify_all(gauss, [10.0, 100.0], kappa_exact(gauss),
                            theta_variant="broadbent", truncation_x=1e4)
        names = {c.name for c in report.checks}
        assert "chebyshev_theta_broadbent" in names
        assert report.failures == ()

    def test_grid_validation(self, gauss):
        with pytest.raises(ValueError):
            verify_all(gauss, [], kappa_exact(gauss))
        with pytest.raises(ValueError):
            verify_all(gauss, [100.0, 10.0], kappa_exact(gauss))
        with pytest.raises(ValueError):
            verify_all(gauss, [1.0, 10.0], kappa_exact(gauss))

    def test_third_bound_allows_for_truncation_tail(self, gauss):
        kappa = kappa_exact(gauss)
        grid = [10.0, 1000.0, 10 ** 5]
        report = verify_all(gauss, grid, kappa, truncation_x=1000)
        mconst = mertens_constant(gauss, 1000, kappa)
        third = sorted((c for c in report.checks if c.name == "third_mertens_error"),
                       key=lambda c: c.x)
        assert [c.x for c in third] == grid
        rows = mertens_table(gauss, grid, mconst, kappa)
        for check, row in zip(third, rows):
            e = row.E_K_bound + mconst.tail_halfwidth
            assert check.bound == e * math.exp(e)
            assert check.passed
        # without the tail the bound fails at the top point
        top = rows[-1]
        assert abs(top.C_K) > top.E_K_bound * math.exp(top.E_K_bound)

    def test_stark_skipped_when_flags_unknown(self, gauss):
        from nfmertens.field import load_field
        bare = load_field("poly = [1, 0, 1]\nclass_number = 1\n"
                          "regulator = 1.0\nroots_of_unity = 4\n")
        report = verify_all(bare, [10.0], kappa_exact(bare), truncation_x=1e4)
        assert report.stark_lower is None
        assert all(c.name != "residue_lower_stark" for c in report.checks)

    def test_field_independent_checks_built_once(self, gauss, golden,
                                                  monkeypatch):
        # theta's rows read prime_power_grid at alpha 0 on each field's grid;
        # the prime-power rows read it once, on PAINFUL_XS
        calls = []
        grid = verify.prime_power_grid
        monkeypatch.setattr(verify, "prime_power_grid",
                            lambda xs, alphas: calls.append(alphas) or grid(xs, alphas))
        verify._field_independent_checks.cache_clear()
        try:
            first = verify_all(gauss, [10.0, 100.0], kappa_exact(gauss),
                               truncation_x=1e4)
            second = verify_all(golden, [10.0, 100.0], kappa_exact(golden),
                                truncation_x=1e4)
        finally:
            verify._field_independent_checks.cache_clear()
        assert calls.count(verify.PAINFUL_ALPHAS) == 1

        def shared(report):
            return [c for c in report.checks if c.name.startswith(
                ("a_constant", "norm_power_case", "prime_power_sum_alpha_"))]
        assert len(shared(first)) == 20 + 1 + 36
        assert shared(first) == shared(second)

    def test_theta_rows_equal_across_fields(self, gauss, golden):
        # no field changes theta over Q
        reports = [verify_all(field, [10.0, 100.0, 1000.0], kappa_exact(field),
                              truncation_x=1e4) for field in (gauss, golden)]

        def theta(report):
            return [c for c in report.checks if c.name == "chebyshev_theta_classic"]
        assert len(theta(reports[0])) == 3
        assert theta(reports[0]) == theta(reports[1])

    def test_estimated_kappa_sums_no_row(self, monkeypatch):
        # only the checks of an exact kappa read the I(n) and T(x) sums
        from nfmertens.field import load_field
        from nfmertens.idealcount import kappa_estimate
        calls = []
        for name in ("ideal_sums", "legendre_chebyshev_mismatches"):
            monkeypatch.setattr(verify, name,
                                lambda *args, name=name: calls.append(name))
        bare = load_field("poly = [1, 0, 1]\n")
        report = verify_all(bare, [10.0, 100.0], kappa_estimate(bare, 100.0),
                            truncation_x=1e4)
        assert calls == []
        names = {c.name for c in report.checks}
        assert "first_mertens_error" in names
        assert "ideal_count_envelope" not in names

    def test_no_row_block_past_the_identity(self, corpus, monkeypatch):
        # the I- and T-sums come from the splitting table: only the
        # identity's row, up to LEGENDRE_LIMIT, is built in blocks
        ends = []
        build = idealcount._row_block
        monkeypatch.setattr(idealcount, "_row_block",
                            lambda lo, hi, *args: ends.append(hi) or build(lo, hi, *args))
        for name in ("gaussian", "cbrt2", "cyclotomic5"):
            field = corpus[name]
            idealcount.summatory_grid(field, [10.0, 1e5])
            idealcount.t_K(field, 1e5)
            kappa_estimate(field, 1e5)
            assert ends == [], name
            report = verify_all(field, geometric_grid(4, 20), kappa_exact(field),
                                truncation_x=1e4)
            assert report.failures == ()
            assert ends and max(ends) <= verify.LEGENDRE_LIMIT + 1, name
            ends.clear()

    def test_planted_ideal_count_fails_the_identity(self, gauss, monkeypatch):
        # the identity reads the row against the splitting table: I(9) + 1,
        # a wrong count at 3^2, must fail it from x = 9 on
        grid = [5.0, 10.0, 100.0, 1000.0, 1e4]

        def identity(report):
            return {c.x: c for c in report.checks
                    if c.name == "legendre_chebyshev_identity"}
        rows = identity(verify_all(gauss, grid, kappa_exact(gauss), truncation_x=1e4))
        assert [(c.quantity, c.bound, c.log_slack, c.passed) for c in rows.values()] \
            == [(0.0, 1.0, math.inf, True)] * 4
        plant(monkeypatch, 9)
        rows = identity(verify_all(gauss, grid, kappa_exact(gauss), truncation_x=1e4))
        assert sorted(rows) == [5.0, 10.0, 100.0, 1000.0]
        assert rows[5.0].passed
        for x in (10.0, 100.0, 1000.0):
            assert not rows[x].passed and rows[x].quantity > 0
            assert rows[x].log_slack == -math.inf

    @pytest.mark.parametrize("quantity, bound", [(-1e-300, 1.0), (1.0, 0.0),
                                                 (1.0, -1.0), (math.nan, 1.0),
                                                 (1.0, math.nan)])
    def test_ratio_check_needs_a_ratio(self, quantity, bound):
        with pytest.raises(InvariantViolation):
            verify._ratio_check("ratio", 10.0, quantity, bound)

    def test_ratio_check_slack(self):
        assert verify._ratio_check("ratio", 10.0, 0.0, 1.0).log_slack == math.inf
        assert verify._ratio_check("ratio", 10.0, 2.0, math.inf).log_slack == math.inf
        check = verify._ratio_check("ratio", 10.0, 2.0, 1.0)
        assert check.log_slack == -math.log(2.0) and not check.passed


class TestMemory:
    @staticmethod
    def peak(monkeypatch, name: str) -> int:
        """The tracemalloc peak of verify_all on the field at 1e6, with the
        prime sieve and theta made inside the measurement."""
        field = load_field((FIELDS_DIR / f"{name}.field").read_text())
        kappa = kappa_exact(field)
        verify._field_independent_checks()  # built once per process
        monkeypatch.setattr(splitting, "_sieved", splitting.rational_primes(0))
        monkeypatch.setattr(splitting, "_sieved_to", 1)
        tracemalloc.start()
        try:
            report = verify_all(field, geometric_grid(4, 24), kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.failures == ()
        assert "row" not in FieldContext.__slots__
        return peak

    def test_verify_all_peak_at_1e6(self, monkeypatch):
        # the prime ideals and the I(n) row both in blocks kept by no one: at
        # 1e6 one 2 MB uint16 block holds the whole row, and the peak is
        # 3.5 MB, against 4.6 MB with a kept norm column, 4.7 MB with the row
        # kept as well and 6.7 MB with (norm, p, f) rows
        assert self.peak(monkeypatch, "gaussian") < 4.0 * 2 ** 20

    def test_blocks_bound_the_peak(self, monkeypatch):
        # cyclotomic5's uint32 row up to 1e6 takes 3.8 MB in one piece (its
        # peak was 6.9 MB when the row was kept); in blocks of 128 KB the
        # peak of the whole run is 2.2 MB, set by the prime sieve
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", 1 << 16)
        assert self.peak(monkeypatch, "cyclotomic5") < 3.0 * 2 ** 20

    def test_no_record_rows_for_any_corpus_field(self, monkeypatch):
        # verify reads the stream's norm rows alone: no (norm, p, f) rows,
        # no p and f columns, and no column kept in the field's context
        calls = []
        stream = splitting._ideal_stream

        def norms_only(field, x, p_and_f=False):
            calls.append(p_and_f)
            return stream(field, x, p_and_f)
        for module in (splitting, mertens):
            monkeypatch.setattr(module, "_ideal_stream", norms_only)
        monkeypatch.setattr(splitting, "_records_up_to",
                            lambda *args: calls.append(args))
        for path in sorted(FIELDS_DIR.glob("*.field")):
            field = load_field(path.read_text())
            try:
                kappa = kappa_exact(field) if field.class_data is not None \
                    else kappa_estimate(field, 1e4)
                report = verify_all(field, [10.0, 100.0, 1000.0], kappa,
                                    truncation_x=1e4)
            except IndexPrimeUnsupported:
                assert path.stem == "non-monogenic-cubic"
                continue
            assert report.failures == (), path.stem
        assert calls and not any(calls)
        assert not {"norms", "norms_xmax"} & set(FieldContext.__slots__)


def tracked(make, block_of, held):
    """make, whose iterator's blocks are watched: each time the next block
    is asked for, held gets whether the block before it is still alive."""
    def wrapped(*args, **kwargs):
        blocks, ref = iter(make(*args, **kwargs)), None
        while True:
            if ref is not None:
                held.append(ref() is not None)
            try:
                item = next(blocks)
            except StopIteration:
                return
            ref = weakref.ref(block_of(item))
            yield item
            del item
    return wrapped


class TestBlockLifetime:
    """Each pass drops a block, and the last part it read of it, before it
    asks for the next block; the tracemalloc bounds of TestMemory do not
    see a pass that keeps one block too many."""

    @pytest.fixture
    def held(self, monkeypatch):
        held = []
        monkeypatch.setattr(splitting, "_PRIME_BLOCK", 7)
        monkeypatch.setattr(idealcount, "_ROW_BLOCK", 1000)
        stream = tracked(splitting._ideal_stream, lambda block: block, held)
        for module in (splitting, mertens, cli):
            monkeypatch.setattr(module, "_ideal_stream", stream)
        rows = tracked(idealcount._row_blocks, itemgetter(1), held)
        for module in (idealcount, cli):
            monkeypatch.setattr(module, "_row_blocks", rows)
        return held

    def test_row_sums(self, gauss, held):
        row_sums(idealcount._row_blocks(gauss, 10 ** 4), [10.0, 5000.5, 1e4])
        assert held and not any(held)

    def test_mertens_grid(self, corpus, held):
        kappa = Residue(value=1.0, provenance=PROVENANCE_EXACT)
        mertens_grid(corpus["cbrt2"], [10.0, 100.0, 1000.0], 2000.0, kappa)
        assert held and not any(held)

    def test_theta_K(self, corpus, held):
        theta_K(corpus["cbrt2"], 1000)
        assert len(held) > 10 and not any(held)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("what", ["ideals", "counts"])
    def test_sieve_dump(self, tmp_path, held, what, fmt):
        out = tmp_path / f"{what}.{fmt}"
        assert cli.main(["sieve", "--what", what, "--field",
                         str(FIELDS_DIR / "cbrt2.field"), "--xmax", "1e4",
                         "--format", fmt, "--out", str(out)]) == 0
        assert out.exists() and len(held) > 8 and not any(held)

    @pytest.mark.parametrize("name", ["gaussian", "cbrt2", "cyclotomic5"])
    def test_verify_all(self, corpus, held, name):
        field = corpus[name]
        report = verify_all(field, geometric_grid(4, 16), kappa_exact(field),
                            truncation_x=1e4)
        assert report.failures == ()
        assert len(held) > 10 and not any(held)
