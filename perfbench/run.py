#!/usr/bin/env python3
"""Benchmark of nfmertens as a user runs it: fresh processes, one at a time.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics: the wall time, child CPU time and
largest child peak RSS of one workload run (medians over the runs that fit in
S seconds), and setup_s, the median over SETUP_REPS of interpreter start plus
`import nfmertens` plus load_field of the workload's descriptors.

--trace 1 alternates untraced runs with traced ones (traced.py), and reports
the per-layer metrics from the spans: the self time of each layer, its
counters, the traced time outside the layer spans (trace.other_s) and the
traced minus the untraced wall time (trace.overhead_s). The traced run also
reruns the workload's command with every layer warm, so the overhead
includes that rerun.

Every output is checked against refs/ (see workloads.py); the last line of
stdout is one JSON object with correct, attempted, failed and metrics.
Children get src/ on PYTHONPATH and one BLAS/OpenMP thread, run in a
temporary directory under .bench_tmp/, and their outputs are deleted once
checked. Spans are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 11
CHILD_DEADLINE_S = 170  # a run must end within 180 s
SETUP_CODE = ("import sys, nfmertens\n"
              "for p in sys.argv[1:]:\n"
              "    with open(p, 'rb') as fh:\n"
              "        nfmertens.load_field(fh.read().decode('utf-8'))\n")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_SPANS = ("field.load", "splitting.primes", "splitting.records",
               "idealcount.row", "idealcount.t", "mertens.constant",
               "mertens.table", "verify.checks", "cli.warm_run")
PER_LAYER = {**{f"{name}_s": "s" for name in LAYER_SPANS},
             "splitting.primes_n": "count", "splitting.ideals_n": "count",
             "splitting.rss_mb": "MB", "idealcount.row_bytes": "B",
             "idealcount.rss_mb": "MB", "verify.checks_n": "count",
             "verify.pass_share": "share", "cli.report_bytes": "B",
             "trace.other_s": "s", "trace.overhead_s": "s"}


@dataclass
class Child:
    """Result of one child process: exit code, times, peak RSS, output."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


class Harness:
    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.env.update({var: "1" for var in THREAD_VARS})
        # numpy asks for transparent huge pages on large arrays; whether the
        # host grants them varies from minute to minute and moves the peak
        # RSS of quadratic-1e7 by ~30 MB, so the benchmark does not ask.
        self.env["NUMPY_MADVISE_HUGEPAGE"] = "0"
        self.env["TMPDIR"] = str(tmp)
        self.attempted = 0
        self.failures = []

    def run_child(self, args) -> Child:
        """Start one child, wait for it, and measure it with wait4."""
        out_path, err_path = self.tmp / "child.out", self.tmp / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.tmp,
                                    env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timeout = max(0.0, self.deadline - time.perf_counter())
                    if not select.select([pidfd], [], [], timeout)[0]:
                        proc.kill()
                finally:
                    os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))

    def tally(self, what: str, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")

    def setup_s(self, procs) -> list[float]:
        """Interpreter start + import + load_field per process, SETUP_REPS times."""
        runs = [["-c", SETUP_CODE, *p.trace["fields"]] for p in procs]
        for args in runs:  # untimed: compiles the bytecode caches once
            self.run_child(args)
        totals = []
        for _ in range(SETUP_REPS):
            total = 0.0
            for args in runs:
                child = self.run_child(args)
                self.tally("setup", None if child.rc == 0 else
                           f"exit code {child.rc}: {child.stderr[-300:]}")
                total += child.wall
            totals.append(total)
        return totals

    def iteration(self, procs, traced: bool, run_id: str):
        """One workload run: every process in order, each output checked."""
        wall = cpu = rss = 0.0
        spans = []
        report_bytes = 0
        for proc in procs:
            errors = None
            args = proc.args
            if traced:
                spec = self.tmp / "trace_spec.json"
                result = self.tmp / "trace_result.json"
                spec.write_text(json.dumps({**proc.trace, "args": proc.args,
                                            "out": str(result)}))
                args = [str(HERE / "traced.py"), str(spec)]
            child = self.run_child(args)
            wall += child.wall
            cpu += child.cpu
            rss = max(rss, child.rss_mb)
            if child.rc != 0:
                print(child.stderr[-2000:], file=sys.stderr)
            if traced:
                data = json.loads(result.read_text()) if result.exists() else \
                    {"spans": [], "errors": {}, "rc": child.rc}
                result.unlink(missing_ok=True)
                errors = data["errors"]
                expected = {u.label for u in proc.units if u.kind == "skip"}
                for label in set(errors) - expected:
                    self.tally(f"traced {label}", f"raised {errors[label]}")
                for s in with_self_times(data["spans"]):
                    spans.append({**s, "run_id": run_id, "process": proc.label,
                                  "process_wall_s": child.wall})
            for unit in proc.units:
                self.tally(unit.label,
                           wl.check_unit(unit, child.rc, child.stdout, errors))
                out = Path(unit.out)
                if out.exists():
                    report_bytes += out.stat().st_size
                    out.unlink()
        return {"wall": wall, "cpu": cpu, "rss": rss, "spans": spans,
                "report_bytes": report_bytes}


def with_self_times(spans):
    """Add self_s: a span's duration minus the time its children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [{**s, "self_s": s["end"] - s["start"] - c}
            for s, c in zip(spans, child_time)]


def layer_metrics(it) -> dict:
    """Per-layer metrics of one traced workload run."""
    m = {f"{name}_s": 0.0 for name in LAYER_SPANS}
    sums = {"primes_n": 0, "ideals_n": 0, "row_bytes": 0, "checks_n": 0,
            "passed_n": 0}
    rss = {"splitting.records": 0.0, "idealcount.row": 0.0}
    for s in it["spans"]:
        if s["name"] in LAYER_SPANS:
            m[f"{s['name']}_s"] += s["self_s"]
        for key in sums:
            sums[key] += s["attrs"].get(key, 0)
        if s["name"] in rss:
            rss[s["name"]] = max(rss[s["name"]], s["attrs"].get("rss_mb", 0.0))
    m.update({
        "splitting.primes_n": sums["primes_n"],
        "splitting.ideals_n": sums["ideals_n"],
        "splitting.rss_mb": rss["splitting.records"],
        "idealcount.row_bytes": sums["row_bytes"],
        "idealcount.rss_mb": rss["idealcount.row"],
        "verify.checks_n": sums["checks_n"],
        "verify.pass_share": sums["passed_n"] / max(sums["checks_n"], 1),
        "cli.report_bytes": it["report_bytes"],
        "trace.other_s": it["wall"] - sum(m[f"{n}_s"] for n in LAYER_SPANS),
    })
    return m


def largest_spans(it):
    """Per traced process, its layer spans by self time, largest first."""
    by_proc = {}
    for s in it["spans"]:
        if s["name"] in LAYER_SPANS:
            times = by_proc.setdefault(s["process"], {})
            times[s["name"]] = times.get(s["name"], 0.0) + s["self_s"]
    return {proc: sorted(t.items(), key=lambda kv: -kv[1])
            for proc, t in by_proc.items()}


def quartiles(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives the quartiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(workload, seed, seconds, trace, refs_dir=HERE / "refs", **scale):
    """One benchmark run; returns the result object and prints the detail."""
    start = time.perf_counter()
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=base))
    run_id = uuid.uuid4().hex[:12]
    try:
        h = Harness(tmp, start + CHILD_DEADLINE_S)
        procs = wl.build(workload, seed, ROOT, tmp,
                         wl.load_refs(refs_dir, workload), **scale)
        samples = {}
        if not trace:
            samples["setup_s"] = h.setup_s(procs)
        plain, traced = [], []
        loop_start = time.perf_counter()
        while True:
            it_start = time.perf_counter()
            plain.append(h.iteration(procs, False, run_id))
            if trace:
                traced.append(h.iteration(procs, True,
                                          f"{run_id}/{len(traced)}"))
            now = time.perf_counter()
            if now - loop_start + (now - it_start) > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{workload} seed {seed} trace {trace}: {len(plain)} runs "
          f"in {time.perf_counter() - start:.1f} s")
    if trace:
        per_run = [layer_metrics(it) for it in traced]
        for name in per_run[0]:
            samples[name] = [m[name] for m in per_run]
        overhead = (statistics.median(it["wall"] for it in traced)
                    - statistics.median(it["wall"] for it in plain))
        for proc, ranked in largest_spans(traced[-1]).items():
            top = ", ".join(f"{n} {t:.3f} s" for n, t in ranked[:3])
            print(f"  largest spans, traced {proc}: {top}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
        # A span's parent is its index among the spans that share its
        # run_id (one traced workload run) and process.
        trace_path.write_text(json.dumps({
            "run_id": run_id, "workload": workload, "seed": seed,
            "spans": [s for it in traced for s in it["spans"]]}))
        print(f"  spans written to {trace_path}")
        units = PER_LAYER
    else:
        samples["wall_s"] = [it["wall"] for it in plain]
        samples["cpu_s"] = [it["cpu"] for it in plain]
        samples["peak_rss_mb"] = [it["rss"] for it in plain]
        units = END_TO_END

    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            value = overhead
        else:
            value, q1, q3 = quartiles(samples[name])
            print(f"  {name:<22} {value:>14.6g} {unit:<5}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[name])}")
        metrics[name] = {"value": value, "unit": unit}
    if trace:
        print(f"  {'trace.overhead_s':<22} {overhead:>14.6g} s")
    failed = len(h.failures)
    print(f"  {'failed_share':<22} {failed / h.attempted:>14.6g} share  "
          f"({failed}/{h.attempted} invocations)")
    for reason in h.failures[:10]:
        print(f"  FAILED {reason}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": h.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/nfmertens/cli.py", "fields/gaussian.field",
                           wl.CORPUS_SCRIPT) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a nfmertens checkout, missing {missing}",
              file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
