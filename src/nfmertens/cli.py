"""Batch command surface: sieve dumps, Mertens tables, constants, residue
bounds, and the full verification suite.

Exit codes separate defect signals from usage problems: 0 means success with
every asserted check passing, 1 means a theorem inequality failed (a defect
worth breaking a build over), 2 means bad input or field errors. Reports are
written atomically: streamed into a temp file that is renamed over the report
only when complete, and removed if anything fails first. They embed the tool
version, a SHA-256 of the field descriptor, and the full config echo, and
contain no timestamps: reruns with identical config produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, fields as dc_fields
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .bounds import field_constants
from .errors import MissingClassData, NfMertensError, SchemaError
from .field import FieldDescriptor, kappa_exact, load_field
from .idealcount import _row_blocks, kappa_estimate, summatory_grid
from .mertens import geometric_grid, mertens_constant, mertens_grid
from .splitting import _ideal_stream, check_cutoff, check_grid
from .verify import verify_all

TOOL_NAME = "nfmertens"

# rows of a sieve dump formatted and written at a time: the counts and ideals
# dumps hand each block over as int columns, which introws.int_rows turns
# into text in a few numpy passes over the whole block, with no Python call
# per row. The writers import introws only when such a block comes, so no
# other command compiles it
_BLOCK = 1 << 16


@dataclass(frozen=True)
class RunConfig:
    """A run's options and their defaults; validate() holds their rules."""
    field_path: str
    command: str
    x_max: float = 1e6
    # None: 10^(k/4), k = 4..24, up to x_max; a given grid is kept as given
    grid: Optional[tuple[float, ...]] = None
    out: Optional[str] = None
    fmt: str = "csv"
    theta_variant: str = "classic"
    truncation_x: float = 1e6
    sieve_what: str = "counts"
    exact_residue: bool = False

    def __post_init__(self):
        if self.grid is None:
            object.__setattr__(self, "grid", tuple(
                x for x in geometric_grid(4, 24) if x <= self.x_max))

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise NfMertensError(f"unknown command {self.command!r}")
        # the choices of --format, --theta-constant and --what
        for flag, spec in FLAGS.items():
            choices = spec.get("choices")
            if choices and getattr(self, spec["dest"]) not in choices:
                raise NfMertensError(f"{flag} must be one of {', '.join(choices)}")
        # every command may sieve to x_max, where kappa is estimated for a
        # field without class data; the ideals dump starts at norm 2
        sieve = self.sieve_what if self.command == "sieve" else None
        check_cutoff("x_max", self.x_max, 2 if sieve == "ideals" else 1)
        # the Mertens constant and table sieve prime ideals up to these
        if self.command in ("mertens", "constants", "verify"):
            check_cutoff("truncation_x", self.truncation_x, 10)
        # the grid commands need a point; the rest refuse a bad grid too
        if self.grid or sieve == "summatory" or self.command in ("mertens", "verify"):
            check_grid(self.grid, 2, self.x_max)


def _f15(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return format(v, ".15g")  # also "nan", "inf" and "-inf"


def parse_grid(spec: str) -> tuple[float, ...]:
    """'a:b' means quarter-decade exponents 10^(k/4), k = a..b; otherwise a
    comma-separated list of x values."""
    spec = spec.strip()
    if ":" in spec:
        lo_s, _, hi_s = spec.partition(":")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise NfMertensError(f"bad grid spec {spec!r}") from exc
        if hi < lo:
            raise NfMertensError("grid spec must have a <= b")
        return geometric_grid(lo, hi)
    try:
        return tuple(float(t) for t in spec.split(",") if t.strip())
    except ValueError as exc:
        raise NfMertensError(f"bad grid spec {spec!r}") from exc


def _meta(config: RunConfig, descriptor_bytes: bytes) -> dict:
    echo = {}
    for f in dc_fields(RunConfig):
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = [_f15(g) for g in v]
        echo[f.name] = v
    return {
        "tool": TOOL_NAME,
        "version": __version__,
        "field_sha256": hashlib.sha256(descriptor_bytes).hexdigest(),
        "config": echo,
    }


def _write(fh, text) -> None:
    """Write text, a str or UTF-8 bytes, to the text file fh. Bytes go to
    its binary buffer once the text layer is flushed, so a block of int_rows
    text is held once, with no str copy and no re-encoding."""
    if isinstance(text, str):
        fh.write(text)
    else:
        fh.flush()
        fh.buffer.write(text)


def _write_csv(fh, meta: dict, header: list[str], blocks) -> None:
    for key in ("tool", "version", "field_sha256"):
        fh.write(f"# {key}: {meta[key]}\n")
    for key, value in sorted(meta["config"].items()):
        fh.write(f"# config_{key}: {value}\n")
    for key in sorted(meta):
        if key not in ("tool", "version", "field_sha256", "config"):
            fh.write(f"# {key}: {meta[key]}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    # ints need no quoting: the columns go out as they stand
    seps = ["", *[","] * (len(header) - 1), "\n"]
    for block in blocks:
        if isinstance(block, tuple):
            from .introws import int_rows  # see _BLOCK
            _write(fh, int_rows(block, seps))
        else:
            writer.writerows(block)
        del block  # it may view a stream or row block: drop it before the next


def _write_json(fh, meta: dict, header: list[str], blocks) -> None:
    """The bytes of json.dumps({"meta": meta, "data": rows}, indent=2), with
    each row dict laid out as that indent=2 dump lays it out."""
    # the document with empty data ends in "[]\n}"
    fh.write(json.dumps({"meta": meta, "data": []}, indent=2)[:-3])
    # the text around the values of one row, with the "," before every row;
    # the first row of the report goes out without it
    keys = [f"\n      {json.dumps(key)}: " for key in header]
    seps = [",\n    {" + keys[0], *("," + key for key in keys[1:]), "\n    }"]
    item = "%s".join(s.replace("%", "%%") for s in seps)
    first = True
    for block in blocks:
        if isinstance(block, tuple):
            from .introws import int_rows  # see _BLOCK
            text = memoryview(int_rows(block, seps))
        else:
            text = "".join(item % tuple(map(json.dumps, row)) for row in block)
        if text:
            _write(fh, text[1:] if first else text)
            first = False
        del block  # as in _write_csv
    fh.write("]\n}\n" if first else "\n  ]\n}\n")


def _emit(config: RunConfig, meta: dict, header: list[str], blocks,
          out_path: str) -> None:
    """Write the report to out_path atomically, streaming blocks into a temp
    file that is renamed over out_path only once every block is written. A
    block is a list of rows of final cells: str, int or None (see _cells);
    or a tuple of int columns, one per header name (see introws.int_rows).
    If a block or the write raises, the temp file is removed and an
    existing out_path is left as it was."""
    write = _write_csv if config.fmt == "csv" else _write_json
    tmp = out_path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh, meta, header, blocks)
        os.replace(tmp, out_path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _cells(config: RunConfig, rows) -> list[list]:
    """rows as one block of final cells: CSV formats every non-str cell with
    _f15, JSON every cell that is not a str, an int or None."""
    keep = str if config.fmt == "csv" else (str, int, type(None))
    return [[v if isinstance(v, keep) else _f15(v) for v in row] for row in rows]


def _ideal_columns(rows: np.ndarray) -> list[tuple]:
    """The columns (p, f, norm) of one block of the ideal stream, whose rows
    are norm, p and f, _BLOCK ideals at a time."""
    norm, p, f = rows
    return [(p[a:a + _BLOCK], f[a:a + _BLOCK], norm[a:a + _BLOCK])
            for a in range(0, len(norm), _BLOCK)]


def _count_blocks(field: FieldDescriptor, x: int):
    """The columns (n, I(n)) for 1 <= n <= x, _BLOCK rows at a time."""
    for lo, block in _row_blocks(field, x):
        for a in range(1 if lo == 0 else 0, len(block), _BLOCK):
            yield np.arange(lo + a, lo + min(a + _BLOCK, len(block))), block[a:a + _BLOCK]
        del block  # else the loop holds it while the next one is made


def _residue_for(field: FieldDescriptor, config: RunConfig, meta: dict):
    """Exact residue when class data exists, otherwise an estimate; its
    provenance goes into meta."""
    if field.class_data is not None:
        kappa = kappa_exact(field)
    else:
        kappa = kappa_estimate(field, max(config.x_max, 100.0))
    meta["kappa_provenance"] = kappa.provenance
    return kappa


def _cmd_sieve(field, config, meta, out_path):
    what = config.sieve_what
    # counts and ideals hold only ints: they go out as blocks of int columns
    if what == "counts":
        x = int(config.x_max)
        _emit(config, meta, ["n", "ideal_count"],
              _count_blocks(field, x), out_path)
    elif what == "ideals":
        stream = _ideal_stream(field, math.floor(config.x_max), p_and_f=True)
        _emit(config, meta, ["p", "f", "norm"],
              chain.from_iterable(map(_ideal_columns, stream)), out_path)
    else:  # summatory
        kappa = _residue_for(field, config, meta)
        rows = [[p.x, p.value, kappa.value * p.x, p.sunley_envelope]
                for p in summatory_grid(field, config.grid)]
        _emit(config, meta, ["x", "ideal_count_sum", "kappa_x", "envelope"],
              [_cells(config, rows)], out_path)
    return 0


def _cmd_mertens(field, config, meta, out_path):
    kappa = _residue_for(field, config, meta)
    mconst, table = mertens_grid(field, config.grid, config.truncation_x, kappa)
    meta["mertens_constant"] = _f15(mconst.M_K)
    meta["mertens_constant_tail"] = _f15(mconst.tail_halfwidth)
    meta["approximate"] = mconst.approximate
    ups = field_constants(field, kappa).upsilon_K
    ups = ups.value if ups is not None else None
    rows = []
    for r in table:
        rows.append([r.x, r.sum_logN_over_N, r.A_K, r.sum_recip, r.B_K,
                     r.product, r.C_K, r.E_K_bound, ups])
    _emit(config, meta,
          ["x", "sum_logN_over_N", "A_K", "sum_recip", "B_K", "product",
           "C_K", "E_K_bound", "upsilon_K"], [_cells(config, rows)], out_path)
    return 0


def _cmd_constants(field, config, meta, out_path):
    kappa = _residue_for(field, config, meta)
    mconst = mertens_constant(field, config.truncation_x, kappa)
    c = field_constants(field, kappa)
    rows = [
        ["degree", field.degree],
        ["abs_discriminant", field.abs_discriminant],
        ["kappa", kappa.value],
        ["mertens_constant", mconst.M_K],
        ["mertens_constant_tail", mconst.tail_halfwidth],
        ["truncation_x", mconst.truncation_x],
        ["a1_log", c.a1.natural_log],
        ["a3_log", c.a3.natural_log],
        ["a7_log", c.a7.natural_log],
    ]
    if c.lambda_K is not None:
        rows += [
            ["lambda_log", c.lambda_K.natural_log],
            ["lambda", c.lambda_K.render()],
            ["upsilon_log", c.upsilon_K.natural_log],
            ["upsilon", c.upsilon_K.render()],
        ]
    _emit(config, meta, ["constant", "value"], [_cells(config, rows)], out_path)
    return 0


def _cmd_residue(field, config, meta, out_path):
    rows = []
    if config.exact_residue and field.class_data is None:
        raise MissingClassData(
            "residue --exact needs class_number, regulator, roots_of_unity "
            "in the field descriptor")
    if field.class_data is not None:
        exact = kappa_exact(field)
        rows.append(["kappa_exact", exact.value, exact.provenance])
    if not config.exact_residue:
        est = kappa_estimate(field, max(config.x_max, 100.0))
        rows.append(["kappa_estimate", est.value, est.provenance])
        rows.append(["kappa_estimate_halfwidth", est.halfwidth, ""])
    c = field_constants(field, None)
    if c.zimmert_lower is not None:
        rows.append(["zimmert_lower", c.zimmert_lower, ""])
        rows.append(["louboutin_upper", c.louboutin_upper, ""])
        stark = c.stark_lower
        rows.append(["stark_lower", stark.value, stark.case_label] if stark
                    else ["stark_lower", None, "unavailable: structure flags unknown"])
    _emit(config, meta, ["quantity", "value", "note"], [_cells(config, rows)],
          out_path)
    return 0


def _cmd_verify(field, config, meta, out_path):
    kappa = _residue_for(field, config, meta)
    report = verify_all(field, config.grid, kappa,
                        theta_variant=config.theta_variant,
                        truncation_x=config.truncation_x)
    meta["lambda_log"] = _f15(report.lambda_K and report.lambda_K.natural_log)
    meta["upsilon_log"] = _f15(report.upsilon_K and report.upsilon_K.natural_log)
    meta["zimmert_lower"] = _f15(report.zimmert_lower)
    meta["louboutin_upper"] = _f15(report.louboutin_upper)
    meta["stark_lower"] = _f15(report.stark_lower and report.stark_lower.value)
    meta["a1_log"] = _f15(report.a1.natural_log)
    meta["a3_log"] = _f15(report.a3.natural_log)
    meta["a7_log"] = _f15(report.a7.natural_log)
    rows = [[c.name, c.x, c.quantity, c.bound, c.log_slack,
             "pass" if c.passed else "FAIL"] for c in report.checks]
    _emit(config, meta, ["check", "x", "quantity", "bound", "log_slack", "pass"],
          [_cells(config, rows)], out_path)
    failures = report.failures
    for c in failures:
        print(f"FAIL {c.name} x={c.x} quantity={_f15(c.quantity)} "
              f"bound={_f15(c.bound)}", file=sys.stderr)
    print(f"{len(report.checks) - len(failures)}/{len(report.checks)} "
          f"checks passed; report: {out_path}")
    return 1 if failures else 0


def read_field(path: str) -> tuple[bytes, FieldDescriptor]:
    """The descriptor's bytes and its field. An unreadable or non-UTF-8
    descriptor is bad input, as a malformed one is: NfMertensError."""
    try:
        descriptor_bytes = Path(path).read_bytes()
        return descriptor_bytes, load_field(descriptor_bytes.decode("utf-8"))
    except OSError as exc:
        raise NfMertensError(f"cannot read the descriptor: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 ({exc})") from exc


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    config.validate()
    descriptor_bytes, field = read_field(config.field_path)
    meta = _meta(config, descriptor_bytes)
    stem = Path(config.field_path).stem
    out_path = config.out or f"{config.command}_{stem}.{config.fmt}"
    return _COMMANDS[config.command][0](field, config, meta, out_path)


# command -> (handler, help line, the flags past COMMON_FLAGS it reads)
_COMMANDS = {
    "sieve": (_cmd_sieve, "dump ideal counts, prime ideals, or the summatory "
              "table", ("--what", "--grid")),
    "mertens": (_cmd_mertens, "Mertens quantities and error terms over the grid",
                ("--grid", "--truncation-x")),
    "constants": (_cmd_constants, "explicit constants", ("--truncation-x",)),
    "residue": (_cmd_residue, "residue value and bounds", ("--exact",)),
    "verify": (_cmd_verify, "run every inequality check; exit 1 on any failure",
               ("--grid", "--theta-constant", "--truncation-x")),
}

# add_argument keywords of every flag; each dest is a RunConfig field, and a
# flag not given is left out of the namespace, so RunConfig's default holds
FLAGS = {
    "--field": dict(dest="field_path", required=True, metavar="PATH",
                    help="field descriptor path"),
    "--xmax": dict(dest="x_max", type=float, metavar="X"),
    "--format": dict(dest="fmt", choices=("csv", "json")),
    "--out": dict(dest="out", metavar="PATH"),
    "--grid": dict(dest="grid", metavar="SPEC", help="'a:b' for 10^(k/4), "
                   "k=a..b, or x1,x2,...; by default 4:24 up to --xmax"),
    "--theta-constant": dict(dest="theta_variant", choices=("classic", "broadbent")),
    "--truncation-x": dict(dest="truncation_x", type=float, metavar="X"),
    "--what": dict(dest="sieve_what", choices=("counts", "ideals", "summatory")),
    "--exact": dict(dest="exact_residue", action="store_true"),
}
COMMON_FLAGS = ("--field", "--xmax", "--format", "--out")


def config_from_flags(flags: dict) -> RunConfig:
    """The RunConfig of flags parsed by FLAGS, a given --grid spec parsed."""
    if "grid" in flags:
        flags = dict(flags, grid=parse_grid(flags["grid"]))
    return RunConfig(**flags)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Mertens sums over prime ideals, ideal counts, and "
                    "explicit residue bounds for a number field.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, info, extra) in _COMMANDS.items():
        p = sub.add_parser(name, help=info, argument_default=argparse.SUPPRESS)
        for flag in COMMON_FLAGS + extra:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(config_from_flags(vars(args)))
    except (NfMertensError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
