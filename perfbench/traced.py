"""Traced child process: times each nfmertens layer in the order `verify`
uses it, then reruns the workload's own command with every layer warm.

Usage: python traced.py SPEC.json

SPEC holds "fields" (descriptor paths), "grid" (ascending x values),
"per_point" (build the dense row through one summatory() call per grid point
instead of one at the top), "args" (the untraced child's arguments: either
`-m nfmertens.cli ...` or a script path and its arguments) and "out" (where
to write the result).

Each span wraps one call into a module's public functions. The module caches
persist between spans, so a span measures only the work the earlier spans
left undone. Spans are kept in memory and written once, with the errors each
field raised, when the process ends.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

TRUNCATION_X = 1e6  # the CLI's default --truncation-x


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "start": time.perf_counter() - T0, "end": None,
               "parent": self._open[-1] if self._open else None,
               "attrs": attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter() - T0
            self._open.pop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_layers(tr, nf, path, grid, per_point):
    """Every layer for one field, in the order verify uses them."""
    top = grid[-1]
    with tr.span("field.load"):
        field = nf.load_field(Path(path).read_bytes().decode("utf-8"))
    with tr.span("splitting.primes") as attrs:
        attrs["primes_n"] = len(nf.rational_primes(top))
    rss = peak_rss_mb()
    # theta_K costs what the cached record list costs; prime_ideals_up_to
    # would add building PrimeIdealRecord objects, which verify never does.
    with tr.span("splitting.records") as attrs:
        nf.theta_K(field, max(top, TRUNCATION_X))
    attrs["rss_mb"] = peak_rss_mb() - rss
    attrs["ideals_n"] = len(nf.splitting._records_up_to(field, top))
    rss = peak_rss_mb()
    with tr.span("idealcount.row") as attrs:
        for x in grid if per_point else [top]:
            nf.summatory(field, x)
    attrs["rss_mb"] = peak_rss_mb() - rss
    attrs["row_bytes"] = 8 * (math.floor(top) + 1)
    with tr.span("idealcount.t"):
        nf.t_K(field, top)
    if field.class_data is not None:
        kappa = nf.kappa_exact(field)
    else:
        kappa = nf.kappa_estimate(field, max(top, 100.0))
    with tr.span("mertens.constant"):
        mconst = nf.mertens_constant(field, TRUNCATION_X, kappa)
    with tr.span("mertens.table"):
        nf.mertens_table(field, grid, mconst, kappa)
    with tr.span("verify.checks") as attrs:
        report = nf.verify_all(field, grid, kappa)
    attrs["checks_n"] = len(report.checks)
    attrs["passed_n"] = sum(c.passed for c in report.checks)


def run_main(args) -> int:
    """Run the untraced child's command in this process."""
    if args[0] == "-m":
        return importlib.import_module(args[1]).main(args[2:])
    sys.argv = list(args)
    try:
        runpy.run_path(args[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    tr = Tracer()
    errors = {}
    rc = 1
    try:
        with tr.span("process"):
            with tr.span("import"):
                import nfmertens as nf
            for path in spec["fields"]:
                with tr.span("field", label=Path(path).stem):
                    try:
                        run_layers(tr, nf, path, spec["grid"], spec["per_point"])
                    except nf.errors.NfMertensError as exc:
                        errors[Path(path).stem] = type(exc).__name__
            with tr.span("cli.warm_run"):
                rc = run_main(spec["args"])
    finally:
        Path(spec["out"]).write_text(json.dumps(
            {"spans": tr.spans, "errors": errors, "rc": rc}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
