#!/usr/bin/env python3
"""Self-check of the benchmark harness at a small scale (a few seconds).

Usage (from the root of a checkout):
    python3 perfbench/smoke.py

It writes references for small versions of every workload into a temporary
directory, runs each workload once untraced and once traced against them,
checks that the output checks reject broken reports and accept the changes
they are meant to ignore, checks the self-time arithmetic, and checks that
the benchmark refuses to run in a directory without the program. Exits 0
when every check holds.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from make_refs import make_refs
from run import (CHILD_DEADLINE_S, END_TO_END, PER_LAYER, ROOT, Harness,
                 measure, with_self_times)

SCALES = {
    "quadratic-1e7": {"x": 1e4},
    "corpus-1e6": {"x": 1e4, "names": {"gaussian", "rationals",
                                       "non-monogenic-cubic"}},
    "sieve-dump-1e6": {"x": 1e4},
}


def expect(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED {what}")
    print(f"smoke: ok   {what}")


def check_workloads(refs_dir):
    for name, scale in SCALES.items():
        for trace in (False, True):
            res = measure(name, 7, 0.1, trace, refs_dir, **scale)
            expect(res["correct"] and res["attempted"] > 0,
                   f"{name} trace={trace} passes its checks")
            wanted = PER_LAYER if trace else END_TO_END
            expect(set(res["metrics"]) == set(wanted),
                   f"{name} trace={trace} reports every metric")


def edited(src: Path, dst: Path, old: str, new: str) -> None:
    text = src.read_text()
    assert old in text, old
    dst.write_text(text.replace(old, new, 1))


def check_checks(refs_dir, tmp):
    """The checks pass the real report and catch each kind of damage."""
    h = Harness(tmp, time.perf_counter() + CHILD_DEADLINE_S)
    refs = wl.load_refs(refs_dir, "quadratic-1e7")
    [proc] = wl.build("quadratic-1e7", 0, ROOT, tmp, refs, x=1e4)
    child = h.run_child(proc.args)
    unit = proc.units[0]
    report = Path(unit.out)
    expect(wl.check_unit(unit, child.rc, child.stdout) is None,
           "the real verify report passes")
    rows = report.read_text().splitlines()
    echo = next(r for r in rows if r.startswith("# config_"))
    first = next(r for r in rows if r.startswith("a_constant_inequality,1,"))
    cells = first.split(",")

    def with_quantity(factor):
        return ",".join(cells[:2] + [repr(float(cells[2]) * factor)] + cells[3:])

    cases = {
        "config echo changed": (echo, echo + "-changed", True),
        "skip row added": (first, first + "\nnew_check,10,1,,,skip", True),
        "quantity off by 1e-12": (first, with_quantity(1 + 1e-12), True),
        "quantity off by 1e-6": (first, with_quantity(1 + 1e-6), False),
        "pass turned FAIL": (first, first.replace(",pass", ",FAIL"), False),
        "row dropped": (first + "\n", "", False),
    }
    for what, (old, new, ok) in cases.items():
        edited(report, tmp / "edited.csv", old, new)
        bad = wl.Unit(unit.kind, unit.label, str(tmp / "edited.csv"),
                      unit.key, unit.ref)
        stdout = child.stdout.replace(unit.out, bad.out)
        result = wl.check_unit(bad, 0, stdout)
        expect((result is None) == ok,
               f"{what} is {'accepted' if ok else 'rejected'} ({result})")
    expect(wl.check_unit(unit, 1, child.stdout) is not None,
           "exit code 1 is rejected")
    summary = wl.SUMMARY_RE.search(child.stdout).group(0)
    total = summary.split("/")[1].split()[0]
    expect(wl.check_unit(unit, 0, child.stdout.replace(
        summary, summary.replace(f"{total}/", f"{int(total) - 1}/", 1)))
        is not None, "a failed check in the summary is rejected")
    skip = wl.Unit("skip", "00-non-monogenic-cubic", "", "non-monogenic-cubic",
                   wl.SKIP_ERROR)
    line = ("00-non-monogenic-cubic: skipped (prime 2 divides the index; "
            "splitting cannot be read from the defining polynomial)\n")
    expect(wl.check_unit(skip, 0, line) is None,
           "the index-prime skip passes")
    expect(wl.check_unit(skip, 0, line, {skip.label: "SchemaError"})
           is not None, "a skip with the wrong exception type is rejected")
    expect(wl.check_unit(skip, 0, "") is not None,
           "a missing skip is rejected")


def check_self_times():
    spans = [{"name": "process", "start": 0.0, "end": 10.0, "parent": None},
             {"name": "field", "start": 1.0, "end": 7.0, "parent": 0},
             {"name": "a", "start": 1.0, "end": 3.0, "parent": 1},
             {"name": "b", "start": 4.0, "end": 6.5, "parent": 1},
             {"name": "c", "start": 8.0, "end": 9.0, "parent": 0}]
    self_s = [s["self_s"] for s in with_self_times(spans)]
    expect(self_s == [3.0, 1.5, 2.0, 2.5, 1.0], f"self times {self_s}")


def check_bare_directory(tmp):
    bare = tmp / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "quadratic-1e7", "--seed", "0", "--seconds", "1",
                          "--trace", "0"], cwd=bare, capture_output=True,
                         text=True, timeout=60)
    expect(out.returncode != 0 and '"correct"' not in out.stdout,
           "without the program the benchmark exits non-zero, no result")


def main() -> int:
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    try:
        refs_dir = tmp / "refs"
        make_refs(refs_dir, SCALES)
        check_workloads(refs_dir)
        check_checks(refs_dir, tmp)
        check_self_times()
        check_bare_directory(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
