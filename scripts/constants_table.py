#!/usr/bin/env python3
"""Print a comparison table of residues, bounds, and Mertens constants for
every bundled field: the kind of table one pins above a desk.

Usage:
    python scripts/constants_table.py [--truncation-x 1e6]
"""

import argparse
from pathlib import Path

from nfmertens import (
    kappa_exact,
    lambda_K,
    load_field,
    louboutin_upper,
    mertens_constant,
    stark_lower,
    upsilon_K,
    zimmert_lower,
)
from nfmertens.errors import MissingClassData, UnknownStructureFlags
from nfmertens.idealcount import DENSE_SIEVE_CAP

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--truncation-x", type=float, default=1e6)
    parser.add_argument("--fields-dir", default=str(ROOT / "fields"))
    args = parser.parse_args()
    # mertens_constant sieves prime ideals up to it; NaN fails both tests
    if not 10 <= args.truncation_x <= DENSE_SIEVE_CAP:
        parser.error(f"--truncation-x {args.truncation_x:g} must lie within "
                     f"[10, {DENSE_SIEVE_CAP:g}]")

    header = (f"{'field':<22}{'deg':>4}{'disc':>7}{'kappa':>11}"
              f"{'zimmert':>10}{'loubout':>9}{'stark':>10}"
              f"{'M_K':>11}{'log Lam':>9}{'log Ups':>9}")
    print(header)
    print("-" * len(header))
    for path in sorted(Path(args.fields_dir).glob("*.field")):
        field = load_field(path.read_text())
        name = path.stem
        try:
            kappa = kappa_exact(field)
        except MissingClassData:
            print(f"{name:<22}{field.degree:>4}{field.discriminant:>7}"
                  f"{'-':>11}  (no class data)")
            continue
        mc = mertens_constant(field, args.truncation_x, kappa)
        if field.degree >= 2:
            zim = f"{zimmert_lower(field.abs_discriminant):>10.6f}"
            lou = f"{louboutin_upper(field.degree, field.abs_discriminant):>9.4f}"
            lam = f"{lambda_K(field.degree, field.abs_discriminant).natural_log:>9.3f}"
            ups = f"{upsilon_K(field.degree, field.abs_discriminant, kappa).natural_log:>9.3f}"
            try:
                stk = f"{stark_lower(field).value:>10.2e}"
            except UnknownStructureFlags:
                stk = f"{'?':>10}"
        else:
            zim = lou = lam = ups = f"{'-':>9}"
            stk = f"{'-':>10}"
        print(f"{name:<22}{field.degree:>4}{field.discriminant:>7}"
              f"{kappa.value:>11.7f}{zim}{lou}{stk}{mc.M_K:>11.7f}{lam}{ups}")


if __name__ == "__main__":
    main()
