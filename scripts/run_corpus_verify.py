#!/usr/bin/env python3
"""Run the full verification suite over every bundled field descriptor.

Writes one check-table CSV per field into the output directory and prints a
one-line summary per field. Exit status 1 if any check failed anywhere. The
options are checked before the first field: a usage error exits 2 and writes
no report. Only a field with an index prime (the bundled non-monogenic-cubic)
is reported and skipped without failing the run; any other field error is
reported and makes the run exit 2.

Usage:
    python scripts/run_corpus_verify.py [--out-dir out] [--xmax 1e6]
        [--grid 4:24] [--theta-constant classic|broadbent]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from nfmertens.cli import FLAGS, config_from_flags, run
from nfmertens.errors import IndexPrimeUnsupported, NfMertensError

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     argument_default=argparse.SUPPRESS)
    parser.add_argument("--out-dir", default="out")
    for flag in ("--xmax", "--grid", "--theta-constant"):
        parser.add_argument(flag, **FLAGS[flag])
    parser.add_argument("--fields-dir", default=str(ROOT / "fields"))
    flags = vars(parser.parse_args())
    out_dir, fields_dir = Path(flags.pop("out_dir")), Path(flags.pop("fields_dir"))
    try:
        base = config_from_flags(dict(flags, field_path="", command="verify"))
        base.validate()
    except NfMertensError as exc:
        parser.error(str(exc))

    out_dir.mkdir(parents=True, exist_ok=True)
    worst = 0
    for field_path in sorted(fields_dir.glob("*.field")):
        out_path = out_dir / f"verify_{field_path.stem}.csv"
        config = replace(base, field_path=str(field_path), out=str(out_path))
        try:
            code = run(config)
        except IndexPrimeUnsupported as exc:
            print(f"{field_path.stem}: skipped ({exc})")
            continue
        except NfMertensError as exc:
            print(f"{field_path.stem}: error ({exc})")
            code = 2
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
