"""The benchmark's workloads: inputs made from a seed, the processes a run
starts, and the checks on what those processes write.

Every workload drives the shipped entry points in fresh processes, one at a
time, exactly as a user would: `python -m nfmertens.cli ...` or
`scripts/run_corpus_verify.py`. The seed changes only what speed may depend
on (the order of the corpus fields, the order of the dump commands); every
check must hold for every seed.

Outputs are compared with references committed under `refs/` (written by
`make_refs.py`). The comparison skips the `#` comment header, which holds the
config echo, and any row whose status is `skip`, so reports that only change
the echo or add skipped rows still pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

CORPUS_SCRIPT = "scripts/run_corpus_verify.py"
SKIP_ERROR = "IndexPrimeUnsupported"

SUMMARY_RE = re.compile(r"(\d+)/(\d+) checks passed\b.*report: (.+)$")
# The default message of IndexPrimeUnsupported, as run_corpus_verify.py prints it.
SKIP_RE = re.compile(r"^(\S+): skipped \(prime \d+ divides the index; "
                     r"splitting cannot be read from the defining polynomial\)$")


@dataclass
class Unit:
    """One invocation's output and what it must match.

    kind is "verify" (check rows), "skip" (must fail with SKIP_ERROR),
    "digest" (data rows hashed) or "summatory" (summatory table rows).
    """

    kind: str
    label: str
    out: str
    key: str       # the reference's key in refs/<workload>.json
    ref: object


@dataclass
class Proc:
    """One child process of a workload run."""

    label: str
    args: list[str]    # arguments after the interpreter
    trace: dict        # spec for traced.py; "fields" are the descriptors it loads
    units: list[Unit]


def quarter_decades(k_min: int, k_max: int) -> list[float]:
    """10^(k/4) for k = k_min..k_max, as nfmertens.mertens.geometric_grid."""
    return [10 ** (k / 4) for k in range(k_min, k_max + 1)]


def default_grid(x_max: float) -> list[float]:
    """The CLI's default grid (4:24) cut at x_max."""
    return [x for x in quarter_decades(4, 24) if x <= x_max]


def load_refs(refs_dir: Path, workload: str):
    path = refs_dir / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def dump_refs(refs: dict) -> str:
    """JSON with one row per line, so reference diffs stay readable."""
    items = []
    for key in sorted(refs):
        value = refs[key]
        if isinstance(value, list):
            body = "[\n" + ",\n".join(json.dumps(r) for r in value) + "\n]"
        else:
            body = json.dumps(value)
        items.append(f"{json.dumps(key)}: {body}")
    return "{\n" + ",\n".join(items) + "\n}\n"


def quadratic(seed, root, tmp, refs, x=1e7):
    """verify on gaussian up to 1e7. The dense I(n) row (80 MB, larger than
    L3) is ~65% of the time; splitting takes the cheap Kronecker path."""
    # The seed changes nothing here. The candidate, the top x within a narrow
    # band, moves peak RSS by a deterministic ~6% step between neighbouring
    # tops, wider than the RSS bound, so every seed runs the same command.
    k_top = round(4 * math.log10(x))
    gauss = str(root / "fields" / "gaussian.field")
    out = str(tmp / "verify_gaussian.csv")
    args = ["-m", "nfmertens.cli", "verify", "--field", gauss,
            "--xmax", repr(x), "--grid", f"4:{k_top}", "--out", out]
    return [Proc("verify gaussian", args,
                 {"fields": [gauss], "grid": quarter_decades(4, k_top),
                  "per_point": False},
                 [Unit("verify", "gaussian", out, "gaussian",
                       refs.get("gaussian"))])]


def corpus(seed, root, tmp, refs, x=1e6, names=None):
    """run_corpus_verify.py over every descriptor at 1e6 in one process, in
    seeded order. Degree >= 3 splitting is ~70% of the time, the module
    caches grow across fields, and non-monogenic-cubic takes the index-prime
    error path."""
    paths = sorted((root / "fields").glob("*.field"))
    if names is not None:
        paths = [p for p in paths if p.stem in names]
    random.Random(seed).shuffle(paths)
    fields_dir, out_dir = tmp / "fields", tmp / "corpus"
    fields_dir.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    copies, units = [], []
    for i, path in enumerate(paths):
        label = f"{i:02d}-{path.stem}"
        copy = fields_dir / f"{label}.field"
        shutil.copyfile(path, copy)
        copies.append(str(copy))
        ref = refs.get(path.stem)
        kind = "skip" if ref == SKIP_ERROR else "verify"
        units.append(Unit(kind, label, str(out_dir / f"verify_{label}.csv"),
                          path.stem, ref))
    args = [str(root / CORPUS_SCRIPT), "--out-dir", str(out_dir),
            "--xmax", repr(x), "--fields-dir", str(fields_dir)]
    return [Proc("run_corpus_verify", args,
                 {"fields": copies, "grid": default_grid(x), "per_point": False},
                 units)]


def sieve_dump(seed, root, tmp, refs, x=1e6):
    """sieve counts, ideals and summatory on gaussian at 1e6, three processes
    in seeded order. The same layers as verify, used differently: ~10 MB of
    report writes, and one dense-row build per summatory grid point."""
    whats = ["counts", "ideals", "summatory"]
    random.Random(seed).shuffle(whats)
    gauss = str(root / "fields" / "gaussian.field")
    procs = []
    for what in whats:
        out = str(tmp / f"sieve_{what}.csv")
        args = ["-m", "nfmertens.cli", "sieve", "--field", gauss,
                "--xmax", repr(x), "--what", what, "--out", out]
        kind = "summatory" if what == "summatory" else "digest"
        procs.append(Proc(f"sieve {what}", args,
                          {"fields": [gauss], "grid": default_grid(x),
                           "per_point": what == "summatory"},
                          [Unit(kind, what, out, what, refs.get(what))]))
    return procs


WORKLOADS = {"quadratic-1e7": quadratic, "corpus-1e6": corpus,
             "sieve-dump-1e6": sieve_dump}


def build(workload, seed, root, tmp, refs, **scale):
    """The processes of one run of the workload, with their inputs in tmp."""
    return WORKLOADS[workload](seed, root, tmp, refs, **scale)


# ---- reading outputs -------------------------------------------------------

def _data_lines(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [line for line in fh if not line.startswith("#")]


def verify_rows(path):
    """(check, x, quantity, pass) rows without skipped ones, by (check, x)."""
    rows = [[r["check"], r["x"], r["quantity"], r["pass"]]
            for r in csv.DictReader(_data_lines(path)) if r["pass"] != "skip"]
    return sorted(rows, key=lambda r: (r[0], r[1]))


def summatory_rows(path):
    return [[r["x"], r["ideal_count_sum"], r["kappa_x"], r["envelope"]]
            for r in csv.DictReader(_data_lines(path))]


def data_digest(path):
    """Row count and SHA-256 of a dump's data lines."""
    digest = hashlib.sha256()
    rows = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                digest.update(line)
                rows += 1
    return {"rows": rows, "sha256": digest.hexdigest()}


def read_unit(unit: Unit):
    """What a unit's output holds, in the form its reference is stored."""
    if unit.kind == "verify":
        return verify_rows(unit.out)
    if unit.kind == "summatory":
        return summatory_rows(unit.out)
    return data_digest(unit.out)


# ---- checking outputs ------------------------------------------------------

def same_number(a: str, b: str) -> bool:
    """Equal strings, or floats equal to 1e-9 relative (1e-15 absolute)."""
    if a == b:
        return True
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(fa, fb, rel_tol=1e-9, abs_tol=1e-15)


def _rows_differ(got, ref, numeric_cols):
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    for g, r in zip(got, ref):
        for i, (a, b) in enumerate(zip(g, r)):
            if not (same_number(a, b) if i in numeric_cols else a == b):
                return f"row {g} differs from reference {r}"
    return None


def summaries(stdout: str) -> dict:
    """report path -> (passed, total) from 'P/T checks passed; report: path'."""
    found = {}
    for line in stdout.splitlines():
        m = SUMMARY_RE.search(line)
        if m:
            found[m.group(3)] = (int(m.group(1)), int(m.group(2)))
    return found


def skipped_labels(stdout: str) -> set:
    return {m.group(1) for m in map(SKIP_RE.match, stdout.splitlines()) if m}


def check_unit(unit: Unit, rc: int, stdout: str, errors: dict | None = None):
    """None if the unit's output is right, else the reason it is not.

    errors maps labels to the exception type a traced child caught; it is
    None for untraced runs, where only the printed message is seen.
    """
    if rc != 0:
        return f"exit code {rc}"
    if unit.ref is None:
        return f"no reference for {unit.label}"
    if unit.kind == "skip":
        if unit.label not in skipped_labels(stdout):
            return f"{unit.label} was not skipped with {SKIP_ERROR}"
        if errors is not None and errors.get(unit.label) != SKIP_ERROR:
            return f"{unit.label} raised {errors.get(unit.label)}, not {SKIP_ERROR}"
        return None
    if not Path(unit.out).exists():
        return f"{unit.out} was not written"
    got = read_unit(unit)
    if unit.kind == "verify":
        summary = summaries(stdout).get(unit.out)
        if summary is None:
            return f"no checks-passed summary for {unit.label}"
        if summary[0] != summary[1]:
            return f"{unit.label}: {summary[0]}/{summary[1]} checks passed"
        return _rows_differ(got, unit.ref, {2})
    if unit.kind == "summatory":
        return _rows_differ(got, unit.ref, {2, 3})
    return None if got == unit.ref else f"{unit.label}: {got} != {unit.ref}"
