#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks against, into refs/.

Usage (from the root of a checkout):
    python3 perfbench/make_refs.py

Runs each workload's commands once and stores what workloads.read_unit reads from each output. It refuses to
store a run that exits non-zero or reports a failed check. Regenerate only
when a change to the report is intended; the committed references were made
at the commit that added the benchmark.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import workloads as wl
from run import CHILD_DEADLINE_S, HERE, ROOT, Harness


def reference(workload, **scale) -> dict:
    refs = {}
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    try:
        h = Harness(tmp, time.perf_counter() + CHILD_DEADLINE_S)
        for proc in wl.build(workload, 0, ROOT, tmp, {}, **scale):
            child = h.run_child(proc.args)
            if child.rc != 0:
                raise SystemExit(f"{workload}: exit code {child.rc}\n"
                                 f"{child.stderr}")
            skipped = wl.skipped_labels(child.stdout)
            for unit in proc.units:
                if unit.label in skipped:
                    refs[unit.key] = wl.SKIP_ERROR
                    continue
                if unit.kind == "verify":
                    passed, total = wl.summaries(child.stdout)[unit.out]
                    if passed != total:
                        raise SystemExit(f"{unit.label}: {passed}/{total}")
                refs[unit.key] = wl.read_unit(unit)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return refs


def make_refs(refs_dir: Path, scales=None) -> None:
    """Write refs_dir/<workload>.json; scales maps workload -> build kwargs."""
    scales = scales or {}
    refs_dir.mkdir(parents=True, exist_ok=True)
    for workload in wl.WORKLOADS:
        refs = reference(workload, **scales.get(workload, {}))
        (refs_dir / f"{workload}.json").write_text(wl.dump_refs(refs))
        print(f"{workload}: {len(refs)} references")


if __name__ == "__main__":
    make_refs(HERE / "refs")
