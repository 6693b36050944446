#!/usr/bin/env python3
"""Print a comparison table of residues, bounds, and Mertens constants for
every bundled field: the kind of table one pins above a desk.

A descriptor that cannot be read or loaded is reported on its own line and
the table goes on; the run then exits 2.

Usage:
    python scripts/constants_table.py [--truncation-x 1e6]
"""

import argparse
import sys
from pathlib import Path

from nfmertens import field_constants, kappa_exact, mertens_constant
from nfmertens.cli import read_field
from nfmertens.errors import CutoffOutOfRange, MissingClassData, NfMertensError
from nfmertens.splitting import check_cutoff

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truncation-x", type=float, default=1e6)
    parser.add_argument("--fields-dir", default=str(ROOT / "fields"))
    args = parser.parse_args()
    # mertens_constant sieves prime ideals up to it; fail before any load
    try:
        check_cutoff("--truncation-x", args.truncation_x, 10)
    except CutoffOutOfRange as exc:
        parser.error(str(exc))

    header = (f"{'field':<22}{'deg':>4}{'disc':>7}{'kappa':>11}"
              f"{'zimmert':>10}{'loubout':>9}{'stark':>10}"
              f"{'M_K':>11}{'log Lam':>9}{'log Ups':>9}")
    print(header)
    print("-" * len(header))
    code = 0
    for path in sorted(Path(args.fields_dir).glob("*.field")):
        name = path.stem
        try:
            field = read_field(str(path))[1]
        except NfMertensError as exc:
            print(f"{name}: error ({exc})")
            code = 2
            continue
        try:
            kappa = kappa_exact(field)
        except MissingClassData:
            print(f"{name:<22}{field.degree:>4}{field.discriminant:>7}"
                  f"{'-':>11}  (no class data)")
            continue
        mc = mertens_constant(field, args.truncation_x, kappa)
        c = field_constants(field, kappa)
        if c.lambda_K is not None:
            zim = f"{c.zimmert_lower:>10.6f}"
            lou = f"{c.louboutin_upper:>9.4f}"
            lam = f"{c.lambda_K.natural_log:>9.3f}"
            ups = f"{c.upsilon_K.natural_log:>9.3f}"
            stk = f"{c.stark_lower.value:>10.2e}" if c.stark_lower else f"{'?':>10}"
        else:
            zim = lou = lam = ups = f"{'-':>9}"
            stk = f"{'-':>10}"
        print(f"{name:<22}{field.degree:>4}{field.discriminant:>7}"
              f"{kappa.value:>11.7f}{zim}{lou}{stk}{mc.M_K:>11.7f}{lam}{ups}")
    return code


if __name__ == "__main__":
    sys.exit(main())
