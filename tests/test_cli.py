import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nfmertens import cli, idealcount, splitting
from nfmertens.cli import RunConfig, _f15, _meta, main, parse_grid
from nfmertens.errors import CutoffOutOfRange, NfMertensError
from nfmertens.field import kappa_exact, load_field
from nfmertens.idealcount import ideal_count_sieve, summatory
from nfmertens.introws import int_rows
from nfmertens.mertens import geometric_grid
from nfmertens.splitting import prime_ideals_up_to

FIELDS = Path(__file__).resolve().parent.parent / "fields"
GAUSS = str(FIELDS / "gaussian.field")
GOLDEN = str(FIELDS / "golden.field")
CYCLO5 = str(FIELDS / "cyclotomic5.field")
CBRT2 = str(FIELDS / "cbrt2.field")
NONMONO = str(FIELDS / "non-monogenic-cubic.field")
# Q(sqrt 13) without class data, so kappa is estimated by sieving to x_max;
# the tests that use it write it to their tmp_path
NO_CLASS = "no-class-data.field"
NO_CLASS_TEXT = "poly = [-1, 3, 1]\n"
# gaussian with a Latin-1 byte in a comment
NOT_UTF8 = "not-utf8.field"
NOT_UTF8_BYTES = b"poly = [1, 0, 1]\n# Gau\xdf\n"
FLAG_KEYS = ("normal_over_q", "normal_tower", "quadratic_subfield")
CLASS_KEYS = ("class_number", "regulator", "roots_of_unity")
WITH_CLASS_DATA = [p.stem for p in sorted(FIELDS.glob("*.field"))
                   if "class_number" in p.read_text()]


def without_keys(path, keys) -> str:
    """The descriptor at path with the lines of the given keys left out."""
    return "".join(line for line in Path(path).read_text().splitlines(True)
                   if line.partition("=")[0].strip() not in keys)


def read_csv(path):
    meta = {}
    rows = []
    header = None
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
            else:
                parsed = next(csv.reader([line]))
                if header is None:
                    header = parsed
                else:
                    rows.append(parsed)
    return meta, header, rows


class TestParseGrid:
    def test_quarter_decade_spec(self):
        grid = parse_grid("4:8")
        assert grid[0] == pytest.approx(10.0)
        assert grid[-1] == pytest.approx(100.0)
        assert len(grid) == 5

    def test_explicit_list(self):
        assert parse_grid("10,50,100") == (10.0, 50.0, 100.0)

    def test_bad_spec(self):
        with pytest.raises(NfMertensError):
            parse_grid("a:b")


class TestFlags:
    """Each command takes only the flags its handler reads; a flag not given
    keeps RunConfig's default."""

    def test_each_command_takes_the_flags_it_reads(self):
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: sorted(o for a in p._actions for o in a.option_strings
                              if o not in ("-h", "--help"))
                 for name, p in sub.choices.items()}
        common = ["--field", "--format", "--out", "--xmax"]
        assert flags == {
            "sieve": sorted(common + ["--grid", "--what"]),
            "mertens": sorted(common + ["--grid", "--truncation-x"]),
            "constants": sorted(common + ["--truncation-x"]),
            "residue": sorted(common + ["--exact"]),
            "verify": sorted(common + ["--grid", "--theta-constant",
                                       "--truncation-x"]),
        }
        assert sum(map(len, flags.values())) == 29

    @pytest.mark.parametrize("args", [
        ["sieve", "--theta-constant", "broadbent"],
        ["sieve", "--truncation-x", "5"],
        ["mertens", "--theta-constant", "broadbent"],
        ["constants", "--grid", "4:8"],
        ["constants", "--theta-constant", "broadbent"],
        ["residue", "--grid", "4:8"],
        ["residue", "--theta-constant", "broadbent"],
        ["residue", "--truncation-x", "1000"],
    ], ids=lambda args: " ".join(args[:2]))
    def test_unread_flag_exits_two(self, tmp_path, capsys, args):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as info:
            main(args + ["--field", GAUSS, "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: " + " ".join(args[1:]) \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["4:24", "4:23"])
    def test_given_grid_past_xmax_exits_two(self, tmp_path, capsys, spec):
        out = tmp_path / "v.csv"
        assert main(["verify", "--field", GAUSS, "--grid", spec, "--xmax", "1e4",
                     "--out", str(out)]) == 2
        assert "grid point" in capsys.readouterr().err
        assert not out.exists()

    def test_default_grid_ends_at_xmax(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--field", GAUSS, "--xmax", "1e4",
                     "--truncation-x", "1000", "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        grid = [_f15(x) for x in geometric_grid(4, 16)]
        assert meta["config_grid"] == str(grid)
        assert max(float(r[1]) for r in rows if r[0] == "third_mertens_error") \
            == 1e4

    def test_run_config_default_grid_follows_x_max(self):
        config = RunConfig(GAUSS, "verify", x_max=1e4)
        config.validate()
        assert config.grid == geometric_grid(4, 16)
        assert config.grid[-1] == 1e4
        assert RunConfig(GAUSS, "verify").grid == geometric_grid(4, 24)
        # a given grid is kept as given, and checked as given
        given = RunConfig(GAUSS, "verify", x_max=1e4, grid=geometric_grid(4, 24))
        assert given.grid == geometric_grid(4, 24)
        with pytest.raises(CutoffOutOfRange, match="grid point"):
            given.validate()


class TestVerifyCommand:
    def test_exit_zero_and_table(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(["verify", "--field", GAUSS, "--grid", "4:12",
                     "--xmax", "1000", "--truncation-x", "10000",
                     "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["check", "x", "quantity", "bound", "log_slack", "pass"]
        assert all(r[5] == "pass" for r in rows)
        assert meta["tool"] == "nfmertens"
        assert len(meta["field_sha256"]) == 64

    def test_exit_one_on_check_failure(self, tmp_path, capsys):
        # inflate the regulator so the residue exceeds its upper bound
        bad = tmp_path / "bad.field"
        bad.write_text(Path(GOLDEN).read_text().replace(
            "regulator = 0.4812118250596034474977589134243684231352",
            "regulator = 9.62"))
        out = tmp_path / "verify.csv"
        code = main(["verify", "--field", str(bad), "--grid", "4:8",
                     "--xmax", "100", "--truncation-x", "1000",
                     "--out", str(out)])
        assert code == 1
        _, _, rows = read_csv(out)
        assert rows[0][5] == "FAIL"  # failures listed first

    def test_truncation_below_grid_top_passes(self, tmp_path):
        # B_K is measured against M_K truncated at 1000, so the third-quantity
        # bound has to allow for the truncation tail above that point
        out = tmp_path / "verify.csv"
        code = main(["verify", "--field", GAUSS, "--xmax", "1e5", "--grid", "4:20",
                     "--truncation-x", "1000", "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        third = [r for r in rows if r[0] == "third_mertens_error"]
        assert len(third) == 17 and all(r[5] == "pass" for r in third)

    def test_theta_rows_read_one_sum(self, tmp_path):
        # theta(x) is one sum: the chebyshev_theta and prime_power_sum_alpha_0
        # rows print one quantity at each x they share
        out = tmp_path / "verify.csv"
        assert main(["verify", "--field", GAUSS, "--xmax", "1e6",
                     "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        theta = {float(r[1]): r[2] for r in rows if r[0] == "chebyshev_theta_classic"}
        alpha_0 = {float(r[1]): r[2] for r in rows if r[0] == "prime_power_sum_alpha_0"}
        assert sorted(alpha_0) == [1e2, 1e3, 1e4, 1e5]
        assert {x: theta[x] for x in alpha_0} == alpha_0

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "verify.csv"
        args = ["verify", "--field", GAUSS, "--grid", "4:8", "--xmax", "100",
                "--truncation-x", "1000", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        assert not (tmp_path / "verify.csv.tmp").exists()


class TestMertensCommand:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "mertens.csv"
        code = main(["mertens", "--field", GAUSS, "--grid", "4:10",
                     "--xmax", "1000", "--truncation-x", "1000",
                     "--out", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert header == ["x", "sum_logN_over_N", "A_K", "sum_recip", "B_K",
                          "product", "C_K", "E_K_bound", "upsilon_K"]
        assert len(rows) == 7
        assert meta["config_truncation_x"] == "1000.0"

    def test_index_prime_exits_two(self, tmp_path, capsys):
        out = tmp_path / "mertens.csv"
        code = main(["mertens", "--field", NONMONO, "--grid", "4:8",
                     "--xmax", "100", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "prime 2" in err

    def test_json_format(self, tmp_path):
        out = tmp_path / "mertens.json"
        code = main(["mertens", "--field", GAUSS, "--grid", "10,100",
                     "--xmax", "100", "--truncation-x", "1000",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["version"]
        assert doc["meta"]["config"]["command"] == "mertens"
        assert [row["x"] for row in doc["data"]] == ["10", "100"]
        assert set(doc["data"][0]) == {"x", "sum_logN_over_N", "A_K",
                                       "sum_recip", "B_K", "product", "C_K",
                                       "E_K_bound", "upsilon_K"}


class TestResidueCommand:
    def test_exact_without_class_data_exits_two(self, tmp_path, capsys):
        out = tmp_path / "residue.csv"
        code = main(["residue", "--field", NONMONO, "--exact",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "regulator" in err

    def test_reports_bounds(self, tmp_path):
        out = tmp_path / "residue.csv"
        code = main(["residue", "--field", GAUSS, "--xmax", "1000",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        names = {r[0] for r in rows}
        assert {"kappa_exact", "kappa_estimate", "zimmert_lower",
                "louboutin_upper", "stark_lower"} <= names


class TestSieveCommand:
    def test_counts_table(self, tmp_path, gauss):
        out = tmp_path / "counts.csv"
        code = main(["sieve", "--field", GAUSS, "--what", "counts",
                     "--xmax", "10", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["n", "ideal_count"]
        assert [int(r[1]) for r in rows] == [1, 1, 0, 1, 2, 0, 0, 1, 1, 2]

    def test_ideals_table(self, tmp_path):
        out = tmp_path / "ideals.csv"
        code = main(["sieve", "--field", GAUSS, "--what", "ideals",
                     "--xmax", "5", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["p", "f", "norm"]
        assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == \
            [(2, 1, 2), (5, 1, 5), (5, 1, 5)]

    def test_summatory_table(self, tmp_path):
        out = tmp_path / "summatory.csv"
        code = main(["sieve", "--field", GAUSS, "--what", "summatory",
                     "--grid", "10,100", "--xmax", "100", "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert header == ["x", "ideal_count_sum", "kappa_x", "envelope"]
        assert int(rows[0][1]) == 9

    def test_summatory_builds_no_row(self, tmp_path, monkeypatch):
        # the I-sums come from the splitting table alone
        builds = []
        build = idealcount._row_block
        monkeypatch.setattr(idealcount, "_row_block",
                            lambda lo, hi, *args: builds.append(lo) or build(lo, hi, *args))
        out = tmp_path / "summatory.csv"
        code = main(["sieve", "--field", GAUSS, "--what", "summatory",
                     "--xmax", "1e4", "--out", str(out)])
        assert code == 0
        assert builds == []
        # the rows one summatory() call per grid point gives
        field = load_field(Path(GAUSS).read_text())
        kappa = kappa_exact(field).value
        points = [summatory(field, x) for x in geometric_grid(4, 16)]
        assert read_csv(out)[2] == [
            [_f15(p.x), str(p.value), _f15(kappa * p.x), _f15(p.sunley_envelope)]
            for p in points]

    @pytest.mark.parametrize("command", [["verify"], ["sieve", "--what", "counts"],
                                         ["sieve", "--what", "summatory"]])
    def test_divisor_guard_exits_2_before_any_sieve(self, tmp_path, capsys,
                                                    monkeypatch, command):
        # x^29 - 2 at the cap: max d_29(n) over n <= 1e8 reaches 2^62, past
        # the int64 guard of the I(n) row, and so does the bound of the
        # ideal sums (verify and summatory)
        path = tmp_path / "deg29.field"
        path.write_text("poly = [-2" + ", 0" * 28 + ", 1]\nsignature = [1, 14]\n"
                        f"discriminant = {29 ** 29 * 2 ** 28}\n")

        def no_sieve(n):
            raise AssertionError("a sieve started")
        monkeypatch.setattr(splitting, "_sieve", no_sieve)
        out = tmp_path / "report.csv"
        code = main([*command, "--field", str(path), "--xmax", "1e8",
                     "--out", str(out)])
        assert code == 2
        assert "degree-29" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_cap_enforced(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        code = main(["sieve", "--field", GAUSS, "--xmax", "1e9",
                     "--out", str(out)])
        assert code == 2
        assert "cap" in capsys.readouterr().err


def in_memory_report(config, header, rows):
    """The report as the all-in-memory formatter wrote it: every row built
    first, every cell formatted, the whole file in one string."""
    meta = _meta(config, Path(config.field_path).read_bytes())
    if config.fmt == "csv":
        buf = io.StringIO()
        for key in ("tool", "version", "field_sha256"):
            buf.write(f"# {key}: {meta[key]}\n")
        for key, value in sorted(meta["config"].items()):
            buf.write(f"# config_{key}: {value}\n")
        for key in sorted(meta):
            if key not in ("tool", "version", "field_sha256", "config"):
                buf.write(f"# {key}: {meta[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_f15(v) if not isinstance(v, str) else v
                             for v in row])
        return buf.getvalue()
    payload = [dict(zip(header, [v if isinstance(v, (str, int, type(None)))
                                 else _f15(v) for v in row]))
               for row in rows]
    return json.dumps({"meta": meta, "data": payload}, indent=2) + "\n"


def assert_same_report(got: str, expected: str) -> None:
    """got == expected. A difference fails with the lengths and the first
    differing line, never a diff of the whole multi-MB reports."""
    if got == expected:
        return
    got_lines, lines = got.splitlines(True), expected.splitlines(True)
    at = next((i for i, pair in enumerate(zip(got_lines, lines))
               if pair[0] != pair[1]), None)
    where = (f"line {at + 1}: {got_lines[at]!r} != {lines[at]!r}"
             if at is not None else "one report is a prefix of the other")
    pytest.fail(f"reports differ: {len(got)} != {len(expected)} characters; "
                f"{where}", pytrace=False)


class TestStreamedDumps:
    """The counts and ideals dumps are written block by block from the
    arrays; they must match the in-memory formatter byte for byte, with the
    block edges falling inside the data."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(cli, "_BLOCK", 7)

    def dump(self, tmp_path, monkeypatch, path, what, x, fmt):
        """Run the dump and return (its bytes, the in-memory report, the
        dtype of the row blocks the dump read or None)."""
        dtypes = []
        row_blocks = cli._row_blocks
        monkeypatch.setattr(cli, "_row_blocks", lambda f, n: (
            dtypes.append(block.dtype) or (lo, block) for lo, block in row_blocks(f, n)))
        out = tmp_path / f"{what}.{fmt}"
        assert main(["sieve", "--field", path, "--what", what, "--xmax", str(x),
                     "--format", fmt, "--out", str(out)]) == 0
        config = RunConfig(field_path=path, command="sieve", x_max=float(x),
                           grid=tuple(g for g in geometric_grid(4, 24) if g <= x),
                           out=str(out), fmt=fmt, sieve_what=what)
        field = load_field(Path(path).read_text())
        if what == "counts":
            header = ["n", "ideal_count"]
            rows = [[n, int(c)] for n, c in
                    enumerate(ideal_count_sieve(field, int(x)), start=1)]
        else:
            header = ["p", "f", "norm"]
            rows = [[r.p, r.f, r.norm] for r in prime_ideals_up_to(field, x)]
        expected = in_memory_report(config, header, rows)
        return out.read_text(), expected, dtypes[0] if dtypes else None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("what", ["counts", "ideals"])
    def test_gaussian_uint16_row(self, tmp_path, monkeypatch, what, fmt):
        got, expected, dtype = self.dump(tmp_path, monkeypatch, GAUSS, what, 1000, fmt)
        assert_same_report(got, expected)
        if what == "counts":
            assert dtype == np.uint16

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cyclotomic5_uint32_row(self, tmp_path, monkeypatch, fmt):
        # d_4 first reaches 2^16 at 302,400, so the row there is uint32
        got, expected, dtype = self.dump(tmp_path, monkeypatch, CYCLO5, "counts",
                                         302_400, fmt)
        assert dtype == np.uint32
        assert_same_report(got, expected)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_ideals_dump(self, tmp_path, monkeypatch, fmt):
        # 2 and 3 are inert in Q(sqrt 5): no prime ideal has norm <= 3
        got, expected, _ = self.dump(tmp_path, monkeypatch, GOLDEN, "ideals", 3, fmt)
        assert_same_report(got, expected)
        if fmt == "json":
            assert json.loads(got)["data"] == []
            assert got.endswith('"data": []\n}\n')

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cells_of_every_kind(self, tmp_path, fmt):
        # the float-bearing reports' cells, and strings the row template
        # must escape
        header = ["name", "%s", 'quote"d', "x"]
        rows = [['a "b"\n%s, c', None, 3, 1.5], ["\u00e9", True, -7, math.nan],
                ["", False, 2 ** 70, -math.inf]]
        out = tmp_path / f"r.{fmt}"
        config = RunConfig(field_path=GAUSS, command="verify", out=str(out),
                           fmt=fmt)
        meta = _meta(config, Path(GAUSS).read_bytes())
        cli._emit(config, meta, header, iter([cli._cells(config, rows[:2]), [],
                                              cli._cells(config, rows[2:])]),
                  str(out))
        assert_same_report(out.read_text(), in_memory_report(config, header, rows))

    @pytest.mark.parametrize("what, x, n_rows", [
        ("counts", 63, 63), ("counts", 64, 64), ("ideals", 41, 14),
        ("ideals", 49, 15)])
    def test_blocks_end_at_the_row_end(self, tmp_path, monkeypatch, what, x,
                                       n_rows):
        # 7k rows fill the last block; 7k + 1 leave one row for a block of
        # its own
        got, expected, _ = self.dump(tmp_path, monkeypatch, GAUSS, what, x, "json")
        assert len(json.loads(got)["data"]) == n_rows
        assert_same_report(got, expected)


def json_seps(header):
    """The separators of the row template the JSON dump had when each row
    went through item % tuple(...), with the "," that goes before a row."""
    item = "\n    {" + ",".join(f"\n      {json.dumps(key)}: %s"
                                 for key in header) + "\n    }"
    return ("," + item).split("%s")


class TestIntRows:
    """int_rows against the per-row formatting it replaced."""

    @staticmethod
    def check(cols):
        rows = list(zip(*[c.tolist() for c in cols]))
        csv_seps = ["", *[","] * (len(cols) - 1), "\n"]
        assert int_rows(cols, csv_seps).decode() == "".join(
            ",".join(map(str, row)) + "\n" for row in rows)
        seps = json_seps(["p", "f", "norm"][:len(cols)])
        item = "%s".join(seps)
        assert int_rows(cols, seps).decode() == "".join(
            item % tuple(row) for row in rows)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda width: st.lists(
        st.tuples(*[st.one_of(st.integers(0, 2 ** 63 - 1),
                              st.integers(0, 10 ** 6),
                              st.integers(0, 18).map(lambda e: 10 ** e - 1))
                    ] * width), max_size=40)))
    def test_random_int64_columns(self, rows):
        width = len(rows[0]) if rows else 2
        cols = tuple(np.array([r[j] for r in rows], dtype=np.int64)
                     for j in range(width))
        self.check(cols)

    def test_every_digit_count(self):
        values = [0, 9, 2 ** 63 - 1]
        for e in range(1, 19):
            values += [10 ** e - 1, 10 ** e, 10 ** e + 1]
        col = np.array(values, dtype=np.int64)
        assert int_rows((col,), ["", "\n"]).decode() == "".join(
            f"{v}\n" for v in values)
        self.check((col, col[::-1].copy()))

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
    def test_narrow_dtypes(self, dtype):
        top = np.iinfo(dtype).max
        col = np.array([top, 0, 1, 10 ** (len(str(top)) - 1), top - 1], dtype=dtype)
        self.check((np.arange(1, 6), col))

    def test_empty_block(self):
        empty = np.zeros(0, dtype=np.int64)
        assert int_rows((empty, empty), ["", ",", "\n"]) == b""


class TestAtomicWrite:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_row_stream_keeps_the_old_report(self, tmp_path, monkeypatch,
                                                     fmt):
        out = tmp_path / f"counts.{fmt}"
        out.write_text("the previous report\n")
        count_blocks = cli._count_blocks

        def failing(row, x):
            blocks = count_blocks(row, x)
            yield next(blocks)
            yield next(blocks)
            raise RuntimeError("row stream failed")

        monkeypatch.setattr(cli, "_BLOCK", 7)
        monkeypatch.setattr(cli, "_count_blocks", failing)
        with pytest.raises(RuntimeError, match="row stream failed"):
            main(["sieve", "--field", GAUSS, "--what", "counts", "--xmax", "100",
                  "--format", fmt, "--out", str(out)])
        assert out.read_text() == "the previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [out.name]

    def test_failing_write_leaves_no_file(self, tmp_path, monkeypatch):
        out = tmp_path / "counts.csv"

        def failing(fh, meta, header, blocks):
            fh.write("# partial\n")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_csv", failing)
        with pytest.raises(OSError, match="disk full"):
            main(["sieve", "--field", GAUSS, "--what", "counts", "--xmax", "100",
                  "--out", str(out)])
        assert list(tmp_path.iterdir()) == []


def test_counts_dump_memory(tmp_path):
    # the dump holds the narrow row and one block, not a list of rows or the
    # whole report: 1.9 MB at 2e5, against 30.9 MB when it was built in memory
    out = tmp_path / "counts.csv"
    tracemalloc.start()
    try:
        assert main(["sieve", "--what", "counts", "--xmax", "2e5", "--field", GAUSS,
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


class TestConstantsCommand:
    def test_reports_constants(self, tmp_path):
        out = tmp_path / "constants.csv"
        code = main(["constants", "--field", GAUSS, "--truncation-x", "1000",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_csv(out)
        table = {r[0]: r[1] for r in rows}
        assert float(table["lambda_log"]) == pytest.approx(70.75495880534068,
                                                           rel=1e-13)
        assert float(table["kappa"]) == pytest.approx(0.7853981633974483,
                                                      rel=1e-13)


class TestErrors:
    def test_missing_file_exits_two(self, capsys):
        assert main(["verify", "--field", "no-such-file.field"]) == 2

    def test_wrong_real_root_count_exits_two(self, tmp_path, capsys):
        # x^4 + 1 has no real root; the sign of D alone allows [4, 0]
        path = tmp_path / "x4+1.field"
        path.write_text("poly = [1, 0, 0, 0, 1]\nsignature = [4, 0]\ndiscriminant = 256\n")
        out = tmp_path / "v.csv"
        assert main(["verify", "--field", str(path), "--xmax", "1000",
                     "--out", str(out)]) == 2
        assert "Sturm" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_discriminant_exits_two(self, tmp_path, capsys):
        # -108 / -27 = 4 is a square, but Dedekind's criterion holds at 2:
        # it once passed every check at 1e5
        path = tmp_path / "cbrt2-27.field"
        path.write_text(Path(CBRT2).read_text().replace("discriminant = -108",
                                                        "discriminant = -27"))
        out = tmp_path / "v.csv"
        assert main(["verify", "--field", str(path), "--xmax", "1e5",
                     "--out", str(out)]) == 2
        assert "criterion holds at 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_exits_two(self, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code = main(["verify", "--field", GAUSS, "--grid", "100,10",
                     "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["verify", "--field", GAUSS, "--xmax", "5"],  # default grid cut to empty
        ["mertens", "--field", GAUSS, "--xmax", "5"],
        ["sieve", "--field", GAUSS, "--what", "summatory", "--xmax", "5"],
        ["residue", "--field", CBRT2, "--xmax", "2e8"],  # estimate past the cap
        ["sieve", "--field", GAUSS, "--what", "counts", "--xmax", "0.5"],
        # kappa estimated past the cap
        ["mertens", "--field", NO_CLASS, "--xmax", "2e8"],
        ["constants", "--field", NO_CLASS, "--xmax", "2e8"],
        ["sieve", "--field", NO_CLASS, "--what", "summatory", "--xmax", "2e8"],
        # NaN fails every comparison, so only a check spelled lo <= x <= hi
        # rejects it
        ["sieve", "--field", GAUSS, "--what", "counts", "--xmax", "nan"],
        ["residue", "--field", GAUSS, "--xmax", "nan"],
        ["verify", "--field", GAUSS, "--grid", "100,nan"],
        ["mertens", "--field", GAUSS, "--grid", "100,nan"],
        ["sieve", "--field", GAUSS, "--what", "summatory", "--grid", "100,nan"],
        ["constants", "--field", GAUSS, "--xmax", "nan"],
        # a descriptor that cannot be read or decoded
        ["verify", "--field", str(FIELDS)],
        ["verify", "--field", NOT_UTF8],
    ], ids=["verify-empty-grid", "mertens-empty-grid",
            "sieve-summatory-empty-grid", "residue-past-cap",
            "sieve-counts-below-one", "mertens-past-cap", "constants-past-cap",
            "sieve-summatory-past-cap", "sieve-counts-nan", "residue-nan",
            "verify-grid-nan", "mertens-grid-nan", "sieve-summatory-grid-nan",
            "constants-nan", "field-is-a-directory", "field-not-utf8"])
    def test_usage_error_exits_two(self, tmp_path, capsys, args):
        (tmp_path / NO_CLASS).write_text(NO_CLASS_TEXT)
        (tmp_path / NOT_UTF8).write_bytes(NOT_UTF8_BYTES)
        args = [str(tmp_path / a) if a in (NO_CLASS, NOT_UTF8) else a
                for a in args]
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["verify", "--truncation-x", "5"],
        ["verify", "--truncation-x", "nan"],
        ["verify", "--truncation-x", "1e12"],
        ["mertens", "--truncation-x", "1e12"],
        ["constants", "--truncation-x", "1e12"],
        ["mertens", "--truncation-x", "inf"],
        ["mertens", "--xmax", "1e9", "--grid", "4:36"],
    ], ids=["verify-5", "verify-nan", "verify-1e12", "mertens-1e12",
            "constants-1e12", "mertens-inf", "mertens-grid-past-cap"])
    def test_bad_truncation_exits_two_before_sieving(self, tmp_path, capsys,
                                                     monkeypatch, args):
        # every prime sieve starts in _simple_sieve
        sieved = []
        monkeypatch.setattr(splitting, "_simple_sieve",
                            lambda limit: sieved.append(limit))
        out = tmp_path / "r.csv"
        assert main(args + ["--field", GAUSS, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sieved == []
        assert not out.exists()

    @pytest.mark.parametrize("grid", [(100.0, math.nan), (math.nan, 100.0),
                                      (10.0, math.nan, 1000.0)])
    @pytest.mark.parametrize("command", ["sieve", "mertens", "verify"])
    def test_nan_grid_point_is_out_of_range(self, command, grid):
        # wherever the NaN sits, and whatever order a set gives it
        with pytest.raises(CutoffOutOfRange, match="grid point nan"):
            RunConfig(field_path=GAUSS, command=command, grid=grid).validate()

    @pytest.mark.parametrize("command", ["mertens", "constants", "verify"])
    def test_truncation_bounds_are_inclusive(self, command):
        for value in (10.0, float(splitting.DENSE_SIEVE_CAP)):
            RunConfig(field_path=GAUSS, command=command,
                      truncation_x=value).validate()
        for value in (9.999, splitting.DENSE_SIEVE_CAP + 1.0):
            with pytest.raises(NfMertensError, match="truncation_x"):
                RunConfig(field_path=GAUSS, command=command,
                          truncation_x=value).validate()

    @pytest.mark.parametrize("command, option, flag", [
        ("verify", {"theta_variant": "bogus"}, "--theta-constant"),
        ("sieve", {"sieve_what": "bogus"}, "--what"),
        ("residue", {"fmt": "xml"}, "--format"),
    ])
    def test_bad_choice_raises_before_reading(self, monkeypatch, command,
                                              option, flag):
        # the choices of FLAGS hold for a RunConfig built without the parser;
        # nothing is read, so nothing is sieved
        read = []
        monkeypatch.setattr(cli, "read_field", lambda path: read.append(path))
        with pytest.raises(NfMertensError, match=f"^{flag} must be one of "):
            cli.run(RunConfig(GAUSS, command, x_max=1e4, **option))
        assert read == []


class TestUnknownStructureFlags:
    """cbrt2 without its Galois flags selects no Stark case, with and without
    class data: each report says so, and no check uses the bound."""

    @pytest.fixture(params=["class-data", "no-class-data"])
    def flagless(self, request, tmp_path):
        keys = FLAG_KEYS + (CLASS_KEYS if request.param == "no-class-data" else ())
        path = tmp_path / "cbrt2-noflags.field"
        path.write_text(without_keys(CBRT2, keys))
        return str(path)

    def test_residue_writes_the_unavailable_row(self, tmp_path, flagless):
        out = tmp_path / "residue.csv"
        assert main(["residue", "--field", flagless, "--xmax", "1000",
                     "--out", str(out)]) == 0
        rows = {r[0]: r[1:] for r in read_csv(out)[2]}
        assert rows["stark_lower"] == ["", "unavailable: structure flags unknown"]
        assert rows["zimmert_lower"][0] and rows["louboutin_upper"][0]

    def test_verify_has_no_stark_row(self, tmp_path, flagless):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--field", flagless, "--xmax", "1000",
                     "--truncation-x", "1000", "--out", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert meta["stark_lower"] == ""
        assert meta["zimmert_lower"] != ""
        assert all(r[0] != "residue_lower_stark" for r in rows)

    def test_constants_table_prints_a_question_mark(self, tmp_path):
        (tmp_path / "cbrt2-noflags.field").write_text(
            without_keys(CBRT2, FLAG_KEYS))
        (tmp_path / "cbrt2-noflags-noclass.field").write_text(
            without_keys(CBRT2, FLAG_KEYS + CLASS_KEYS))
        env = dict(os.environ, PYTHONPATH=str(FIELDS.parent / "src"))
        done = subprocess.run(
            [sys.executable, str(TestConstantsTableScript.SCRIPT),
             "--truncation-x", "1000", "--fields-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        lines = {line.split()[0]: line.split()
                 for line in done.stdout.splitlines()[2:]}
        # field, deg, disc, kappa, zimmert, loubout, stark, ...
        assert lines["cbrt2-noflags"][6] == "?"
        assert lines["cbrt2-noflags"][3] != "-"
        assert lines["cbrt2-noflags-noclass"][3:] == ["-", "(no", "class", "data)"]


class TestCommandsAgree:
    """verify, constants and residue take their constants from one place:
    the values verify echoes in its meta are the cells the others report."""

    @pytest.mark.parametrize("name", WITH_CLASS_DATA)
    def test_verify_meta_matches_constants_and_residue(self, tmp_path, name):
        args = ["--field", str(FIELDS / f"{name}.field"), "--xmax", "1000"]
        # residue reads no truncation point, so it takes no --truncation-x
        extra = {"verify": ["--truncation-x", "1000"],
                 "constants": ["--truncation-x", "1000"], "residue": []}
        reports = {}
        for command in ("verify", "constants", "residue"):
            out = tmp_path / f"{command}.csv"
            assert main([command, *args, *extra[command], "--out", str(out)]) == 0
            reports[command] = read_csv(out)
        meta = reports["verify"][0]
        constants = {r[0]: r[1] for r in reports["constants"][2]}
        residue = {r[0]: r[1] for r in reports["residue"][2]}
        for key in ("lambda_log", "upsilon_log", "a1_log", "a3_log", "a7_log"):
            assert meta[key] == constants.get(key, ""), key
        for key in ("zimmert_lower", "louboutin_upper", "stark_lower"):
            assert meta[key] == residue.get(key, ""), key
        # every corpus field past degree 1 has flags that select a case
        degree = int(constants["degree"])
        assert (meta["stark_lower"] != "") == (degree >= 2)
        assert (meta["lambda_log"] != "") == (degree >= 2)


class TestConstantsTableScript:
    SCRIPT = FIELDS.parent / "scripts" / "constants_table.py"

    @pytest.mark.parametrize("value", ["1e12", "nan", "5"])
    def test_bad_truncation_exits_two_before_loading(self, tmp_path, value):
        # a descriptor that fails to load: exit 2 shows none was read
        (tmp_path / "broken.field").write_text("poly = [\n")
        env = dict(os.environ, PYTHONPATH=str(FIELDS.parent / "src"))
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--truncation-x", value,
             "--fields-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2, done.stderr
        assert "--truncation-x" in done.stderr
        assert done.stdout == ""

    def test_unreadable_descriptors_are_reported_and_exit_two(self, tmp_path):
        # a directory, a Latin-1 descriptor and a malformed one each get an
        # error line; the fields after them are still tabulated
        (tmp_path / "odd.field").mkdir()
        (tmp_path / "latin.field").write_bytes(NOT_UTF8_BYTES)
        (tmp_path / "broken.field").write_text("poly = [\n")
        (tmp_path / "gaussian.field").write_text(Path(GAUSS).read_text())
        env = dict(os.environ, PYTHONPATH=str(FIELDS.parent / "src"))
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--truncation-x", "1000",
             "--fields-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 2, done.stderr
        assert done.stderr == ""
        lines = done.stdout.splitlines()[2:]
        assert [line.split()[0] for line in lines] == [
            "broken:", "gaussian", "latin:", "odd:"]
        assert lines[0].startswith("broken: error (poly")
        assert lines[2].startswith("latin: error (") and "not UTF-8" in lines[2]
        assert lines[3].startswith("odd: error (cannot read the descriptor: ")


class TestCorpusScript:
    SCRIPT = FIELDS.parent / "scripts" / "run_corpus_verify.py"
    SKIP_LINE = ("non-monogenic-cubic: skipped (prime 2 divides the index; "
                 "splitting cannot be read from the defining polynomial)")

    def run_script(self, tmp_path, names, *args, extra=None):
        """Run the script over copies of the named corpus descriptors (and
        extra {name: text} ones); returns the finished process and the
        output directory."""
        fields_dir, out_dir = tmp_path / "fields", tmp_path / "out"
        fields_dir.mkdir()
        for name in names:
            (fields_dir / f"{name}.field").write_text(
                (FIELDS / f"{name}.field").read_text())
        for name, text in (extra or {}).items():
            (fields_dir / f"{name}.field").write_text(text)
        env = dict(os.environ, PYTHONPATH=str(FIELDS.parent / "src"))
        done = subprocess.run(
            [sys.executable, str(self.SCRIPT), "--fields-dir", str(fields_dir),
             "--out-dir", str(out_dir), *args],
            capture_output=True, text=True, env=env, timeout=120)
        return done, out_dir

    @pytest.mark.parametrize("args", [["--xmax", "1e9"], ["--xmax", "nan"],
                                      ["--grid", "100,10"]],
                             ids=["xmax-past-cap", "xmax-nan", "grid-descending"])
    def test_usage_error_exits_two_before_any_field(self, tmp_path, args):
        done, out_dir = self.run_script(tmp_path, ["gaussian"], *args)
        assert done.returncode == 2, done.stderr
        assert "error: " in done.stderr
        assert done.stdout == ""
        assert not out_dir.exists()

    def test_field_error_is_reported_and_exits_two(self, tmp_path):
        done, out_dir = self.run_script(tmp_path, ["gaussian"], "--xmax", "1000",
                                        extra={"broken": "poly = [\n"})
        assert done.returncode == 2, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0].startswith("broken: error (")
        assert lines[1].endswith(f"checks passed; report: {out_dir}/verify_gaussian.csv")
        assert sorted(p.name for p in out_dir.iterdir()) == ["verify_gaussian.csv"]

    def test_index_prime_field_is_skipped(self, tmp_path):
        done, _ = self.run_script(tmp_path, ["gaussian", "non-monogenic-cubic"],
                                  "--xmax", "1000")
        assert done.returncode == 0, done.stderr
        assert self.SKIP_LINE in done.stdout.splitlines()


# the shipped descriptor carries the certificate; the refusals below append
# a bad one to the text without it
CYCLIC_CUBIC_TEXT = without_keys(FIELDS / "cyclic-cubic-49.field",
                                 ("conductor", "cyclotomic_root"))
PHI7_TEXT = "poly = [1, 1, 1, 1, 1, 1, 1]\nsignature = [0, 3]\ndiscriminant = -16807\n"


class TestCyclotomicCertificateRefusals:
    @pytest.mark.parametrize("text, message", [
        (CYCLIC_CUBIC_TEXT + "conductor = 7\ncyclotomic_root = [0, 1, 0, 0, 0, 0, 0]\n",
         "cyclotomic_root is not a root of the defining polynomial in Q(zeta_7)"),
        (CYCLIC_CUBIC_TEXT + "conductor = 9\ncyclotomic_root = [0, 1, 0, 0, 0, 0, 1]\n",
         "cyclotomic_root has 7 coefficients; conductor 9 needs one per power"),
        # Gal(Q(zeta_7)/Q) has order 6, so Q(zeta_7) has a quadratic subfield
        (PHI7_TEXT + "quadratic_subfield = false\n",
         "quadratic_subfield = false contradicts the cyclotomic certificate: "
         "the Galois group has order 6")],
        ids=["wrong-root", "wrong-conductor", "phi7-without-quadratic-subfield"])
    def test_exits_two_with_its_message(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.field"
        path.write_text(text)
        out = tmp_path / "report.csv"
        code = main(["verify", "--field", str(path), "--xmax", "1000",
                     "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
