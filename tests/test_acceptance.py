"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The error-path cubic (index prime at 2, no class data) is excluded
from the numeric sweeps; it exists to exercise hard-error behavior, which
the CLI tests cover.
"""

import math
import time

import numpy as np

from nfmertens.bounds import (
    a_constant_inequality,
    louboutin_upper,
    multipart_case,
    stark_lower,
    upsilon_K,
    zimmert_lower,
)
from nfmertens.errors import UnknownStructureFlags
from nfmertens.field import kappa_exact
from nfmertens.idealcount import ideal_count_sieve, kappa_estimate, summatory, t_K
from nfmertens.idealcount import legendre_chebyshev_mismatches
from nfmertens.mertens import (
    THETA_BROADBENT,
    THETA_CLASSIC,
    geometric_grid,
    mertens_constant,
    mertens_table,
    prime_power_sum,
    prime_power_sum_bound,
)
from nfmertens.splitting import kronecker, theta_K
from test_idealcount import legendre_chebyshev_sum

GRID = geometric_grid(4, 24)  # 10 .. 1e6 in quarter decades
ORACLE_DISCRIMINANTS = (-4, 5, -3, 8, -7, 12, -163)
TRUNCATION = 10 ** 6


def numeric_corpus(corpus):
    return {name: field for name, field in corpus.items()
            if name != "non-monogenic-cubic"}


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({label}): {status} {detail}".rstrip())


def kronecker_divisor_sum(disc: int, n_max: int) -> np.ndarray:
    out = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        chi = kronecker(disc, d)
        if chi:
            out[d:: d] += chi
    return out[1:]


def test_criterion_1_quadratic_oracle_equivalence(corpus):
    by_disc = {field.discriminant: field for field in corpus.values()
               if field.degree == 2}
    start = time.monotonic()
    mismatches = []
    for disc in ORACLE_DISCRIMINANTS:
        field = by_disc[disc]
        got = ideal_count_sieve(field, 10 ** 5)
        expected = kronecker_divisor_sum(disc, 10 ** 5)
        if not np.array_equal(got, expected):
            mismatches.append(disc)
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 10.0
    report(1, "quadratic oracle equivalence", ok,
           f"7 discriminants x 1e5 values, {elapsed:.1f}s")
    assert not mismatches
    assert elapsed < 10.0


def test_criterion_2_residue_recovery(corpus):
    details = []
    ok = True
    for name in ("gaussian", "golden"):
        field = corpus[name]
        target = kappa_exact(field).value
        start = time.monotonic()
        estimate = kappa_estimate(field, 10 ** 6)
        elapsed = time.monotonic() - start
        err = abs(estimate.value - target)
        details.append(f"{name}: |err|={err:.2e} in {elapsed:.1f}s")
        ok = ok and err <= 1e-2 and elapsed < 30.0
    report(2, "residue recovery at 1e6", ok, "; ".join(details))
    assert ok


def test_criterion_3_rational_mertens_constant(rationals):
    mc = mertens_constant(rationals, TRUNCATION, kappa_exact(rationals))
    ok = 0.2614 <= mc.M_K <= 0.2616 and mc.tail_halfwidth <= 1.1e-6
    report(3, "Mertens constant for the rationals", ok,
           f"M={mc.M_K:.7f} tail={mc.tail_halfwidth:.2e}")
    assert 0.2614 <= mc.M_K <= 0.2616
    assert mc.tail_halfwidth <= 1.1e-6


def test_criterion_4_constant_interval(corpus):
    failures = []
    for name, field in numeric_corpus(corpus).items():
        kappa = kappa_exact(field)
        mc = mertens_constant(field, TRUNCATION, kappa)
        hi = 0.5772156649015329 + math.log(kappa.value)
        lo = hi - field.degree
        if not (lo <= mc.M_K - mc.tail_halfwidth
                and mc.M_K + mc.tail_halfwidth <= hi):
            failures.append(name)
    report(4, "constant interval for all corpus fields", not failures,
           f"{len(numeric_corpus(corpus))} fields, failures: {failures}")
    assert not failures


def test_criterion_5_error_bound_suite(corpus):
    worst = math.inf
    failures = []
    for name, field in numeric_corpus(corpus).items():
        kappa = kappa_exact(field)
        mc = mertens_constant(field, TRUNCATION, kappa)
        rows = mertens_table(field, GRID, mc, kappa)
        ups = upsilon_K(field.degree, field.abs_discriminant, kappa) \
            if field.degree >= 2 else None
        for row in rows:
            checks = []
            if ups is not None:
                checks.append(("A2", abs(row.A_K), None, ups.natural_log))
                checks.append(("B2", abs(row.B_K), None,
                               ups.natural_log + math.log(2 / math.log(row.x))))
            c_bound = row.E_K_bound * math.exp(row.E_K_bound)
            checks.append(("C2", abs(row.C_K), c_bound, None))
            for tag, quantity, bound, log_bound in checks:
                log_q = math.log(quantity) if quantity else -math.inf
                slack = (log_bound if log_bound is not None
                         else math.log(bound)) - log_q
                worst = min(worst, slack)
                if slack <= 0:
                    failures.append((name, tag, row.x))
    report(5, "first/second/third error bounds on the grid", not failures,
           f"min log-slack {worst:.3f}")
    assert not failures
    assert worst > 0


def test_criterion_6_envelope_and_a_constants(corpus):
    failures = []
    points = (0.5, 1.0, 1.5) + GRID
    for name, field in numeric_corpus(corpus).items():
        if field.degree < 2:
            continue
        kappa = kappa_exact(field).value
        for x in points:
            point = summatory(field, x)
            if abs(point.value - kappa * x) > point.sunley_envelope:
                failures.append((name, x))
    a_fail = [n for n in range(1, 21) if not a_constant_inequality(n).passed]
    ok = not failures and not a_fail
    report(6, "ideal-count envelope incl. x<2 and a-constants", ok,
           f"grid of {len(points)} points per field")
    assert not failures
    assert not a_fail


def test_criterion_7_prime_power_bounds():
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0, 1.2, 1.5, 2.0, 3.0)
    xs = (100.0, 1000.0, 10000.0, 100000.0)
    violations = [(a, x) for a in alphas for x in xs
                  if prime_power_sum(x, a) >= prime_power_sum_bound(x, a)]
    table_bad = []
    for j in range(1, 8):
        for n in range(2, 15):
            case, _ = multipart_case(n, j)
            num, den = j * (n - 1), n + 1
            expected = "linear" if num < den else "log" if num == den else "decay"
            if case != expected:
                table_bad.append((j, n))
    ok = not violations and not table_bad
    report(7, "prime-power sum bounds and case table", ok,
           f"{len(alphas) * len(xs)} sum checks, 91 table cells")
    assert not violations
    assert not table_bad


def test_criterion_8_legendre_chebyshev_identity(corpus):
    xs = (50.0, 200.0, 500.0, 1000.0, 2000.0)
    worst, mismatched = 0.0, 0
    failures = []
    for name, field in numeric_corpus(corpus).items():
        counts = legendre_chebyshev_mismatches(field, xs)
        mismatched += sum(counts)
        for x, count in zip(xs, counts):
            lhs = t_K(field, x)
            rel = abs(lhs - legendre_chebyshev_sum(field, x)) / max(abs(lhs), 1.0)
            worst = max(worst, rel)
            if count or rel > 1e-9:
                failures.append((name, x, count))
    report(8, "product identity for the ideal log sum", not failures,
           f"{mismatched} mismatched primes; max relative deviation of T {worst:.2e}")
    assert not failures


def test_criterion_9_theta_bounds(rationals):
    classic_bad = [x for x in GRID
                   if not theta_K(rationals, x) < THETA_CLASSIC * x]
    broadbent_bad = [x for x in GRID
                     if not theta_K(rationals, x) < THETA_BROADBENT * x]
    ok = not classic_bad and not broadbent_bad
    report(9, "theta bounds, classic and sharpened", ok,
           f"{len(GRID)} grid points each")
    assert not classic_bad
    assert not broadbent_bad


def test_criterion_10_residue_bound_ordering(corpus):
    failures = []
    stark_checked = 0
    for name, field in numeric_corpus(corpus).items():
        if field.degree < 2:
            continue
        kappa = kappa_exact(field).value
        if not zimmert_lower(field.abs_discriminant) < kappa:
            failures.append((name, "zimmert"))
        if not kappa <= louboutin_upper(field.degree, field.abs_discriminant):
            failures.append((name, "louboutin"))
        try:
            bound = stark_lower(field)
        except UnknownStructureFlags:
            continue
        stark_checked += 1
        if not bound.value < kappa:
            failures.append((name, "stark"))
    report(10, "residue bound ordering", not failures,
           f"stark evaluated on {stark_checked} fields")
    assert not failures
    assert stark_checked >= 3
