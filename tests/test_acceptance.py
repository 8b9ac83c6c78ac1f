"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion prints a single PASS/FAIL line (run with ``pytest -s`` to
see them all).  Corpora are seeded with numpy's default generator and
shared across criteria, so the whole gate runs in seconds.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import make_pair
from divbound.bounds import (
    TwoClassProblem,
    averaged_zeta,
    bound_report,
    comparison_check,
    lower_bound_family,
    xi_point,
    zeta_point,
)
from divbound.generators import (
    CATALOG_KEYS,
    csiszar_sum,
    generator,
    probe_generator,
    probe_star,
    star,
    star_symmetry_defect,
)
from divbound.kernel import invert_decreasing
from divbound.measures import chain_check, measure_value, xi, zeta
from divbound.verify import random_problem

SEED = 42
LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)


def report(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def pair_corpus():
    rng = np.random.default_rng([SEED, 1001])
    pairs = []
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        pairs.append(make_pair(rng, n))
    return pairs


@pytest.fixture(scope="module")
def small_pair_corpus():
    rng = np.random.default_rng([SEED, 1002])
    pairs = []
    for _ in range(1_000):
        n = int(rng.integers(2, 65))
        pairs.append(make_pair(rng, n))
    return pairs


@pytest.fixture(scope="module")
def problem_corpus():
    rng = np.random.default_rng([SEED, 1003])
    return [random_problem(rng, int(rng.integers(2, 17))) for _ in range(1_000)]


def test_criterion_01_eq7_chain(pair_corpus):
    start = time.perf_counter()
    worst = math.inf
    violations = 0
    for P, Q in pair_corpus:
        rep = chain_check(P, Q, "eq7")
        worst = min(worst, rep.worst_slack)
        violations += len(rep.violations)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst >= -1e-9 and elapsed < 10.0
    report(
        1,
        ok,
        f"eq7 chain on 10^4 pairs: {violations} violations, "
        f"worst normalised slack {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_eq39_chain(pair_corpus):
    worst = math.inf
    violations = 0
    for P, Q in pair_corpus:
        rep = chain_check(P, Q, "eq39")
        worst = min(worst, rep.worst_slack)
        violations += len(rep.violations)
    ok = violations == 0 and worst >= -1e-9
    report(
        2,
        ok,
        f"eq39 difference chain on 10^4 pairs: {violations} violations, "
        f"worst normalised slack {worst:.3e}",
    )


def test_criterion_03_particular_cases(small_pair_corpus):
    worst = 0.0
    for P, Q in small_pair_corpus:
        psi = measure_value("Psi", P, Q)
        h = measure_value("h", P, Q)
        delta = measure_value("Delta", P, Q)
        d = measure_value("d", P, Q)
        checks = [
            (zeta(2.0, P, Q), 0.5 * psi),
            (zeta(-1.0, P, Q), 0.5 * psi),
            (zeta(0.5, P, Q), 8.0 * h),
            (xi(-1.0, P, Q), 0.25 * delta),
            (xi(0.5, P, Q), 4.0 * d),
            (xi(2.0, P, Q), psi / 16.0),
        ]
        for s in (-1.0, -0.3, 0.25, 0.75, 1.3, 2.0):
            checks.append((zeta(s, P, Q), zeta(1.0 - s, P, Q)))
        for got, want in checks:
            worst = max(worst, abs(got - want) / abs(want) if want else abs(got))
    ok = worst <= 1e-12
    report(3, ok, f"particular-case identities on 10^3 pairs: worst rel dev {worst:.3e}")


def test_criterion_04_limit_continuity(small_pair_corpus):
    worst = 0.0
    for P, Q in small_pair_corpus[:100]:
        j = measure_value("J", P, Q)
        i = measure_value("I", P, Q)
        t = measure_value("T", P, Q)
        for s in (1e-7, -1e-7, 1.0 + 1e-7, 1.0 - 1e-7):
            worst = max(worst, abs(zeta(s, P, Q) - j) / (1.0 + j))
        for s in (1e-7, -1e-7):
            worst = max(worst, abs(xi(s, P, Q) - i) / (1.0 + i))
        for s in (1.0 + 1e-7, 1.0 - 1e-7):
            worst = max(worst, abs(xi(s, P, Q) - t) / (1.0 + t))
    ok = worst <= 1e-8
    report(4, ok, f"limit continuity at |s|=1e-7 and |s-1|=1e-7: worst dev {worst:.3e}")


def test_criterion_05_csiszar_equivalence(small_pair_corpus):
    worst = 0.0
    for P, Q in small_pair_corpus:
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            summed = csiszar_sum(generator(key), P, Q)
            worst = max(worst, abs(summed - direct) / (1.0 + abs(direct)))
    ok = worst <= 1e-11
    report(
        5,
        ok,
        f"generator sums vs direct measures, {len(CATALOG_KEYS)} keys x 10^3 pairs: "
        f"worst normalised dev {worst:.3e}",
    )


def test_criterion_06_star_transform_laws():
    failures = []
    worst_sym = 0.0
    for key in CATALOG_KEYS:
        g = generator(key)
        sym = star_symmetry_defect(g)
        worst_sym = max(worst_sym, sym)
        if sym > 1e-12:
            failures.append(f"{g.key}: symmetry {sym:.3e}")
        half = abs(star(g, 0.5))
        if half > 1e-14:
            failures.append(f"{g.key}: f*(1/2) = {half:.3e}")
        if math.isfinite(g.f_infinity):
            dev = abs(star(g, 1e-8) - g.f_infinity)
            if dev > 1e-4 * (1.0 + abs(g.f_infinity)):
                failures.append(f"{g.key}: endpoint law dev {dev:.3e}")
    constants = {
        "D_dDelta": (7.0 - 4.0 * SQRT2) / 4.0,
        "D_dI": 2.0 - SQRT2 - 0.5 * LN2,
        "D_dh": (3.0 - 2.0 * SQRT2) / 2.0,
        "D_hDelta": 0.25,
        "D_hI": (1.0 - LN2) / 2.0,
        "D_IDelta": (2.0 * LN2 - 1.0) / 4.0,
        "xi:0.0": 0.5 * LN2,
    }
    for key, expected in constants.items():
        if abs(generator(key).f_infinity - expected) > 1e-15:
            failures.append(f"{key}: constant mismatch")
    ok = not failures
    report(
        6,
        ok,
        f"star-transform laws (symmetry worst {worst_sym:.3e}); "
        + ("all keys pass" if ok else "failing: " + "; ".join(failures)),
    )


def test_criterion_07_convexity_probes():
    worst = math.inf
    for key in CATALOG_KEYS:
        worst = min(worst, probe_generator(generator(key)))
        worst = min(worst, probe_star(generator(key)))
    ok = worst >= -1e-9
    report(7, ok, f"convexity probes over f and f*: min second difference {worst:.3e}")


def test_criterion_08_bound_sandwich(problem_corpus):
    start = time.perf_counter()
    worst = math.inf
    violations = 0
    for prob in problem_corpus:
        rep = bound_report(prob)
        for e in rep.entries:
            if not e.applicable:
                continue
            slack = rep.exact_pe - e.value if e.kind == "lower" else e.value - rep.exact_pe
            worst = min(worst, slack)
        violations += len(rep.sandwich_violations())
    elapsed = time.perf_counter() - start
    ok = violations == 0 and worst >= -1e-10 and elapsed < 30.0
    report(
        8,
        ok,
        f"bound sandwich on 10^3 problems: {violations} violations, "
        f"worst slack {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_09_jensen_equality():
    prob = TwoClassProblem.from_arrays((0.5, 0.5), [0.8, 0.2], [0.2, 0.8])
    worst = 0.0
    for family in ("zeta", "xi"):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            val, _ = lower_bound_family(prob, family, s)
            worst = max(worst, abs(val - 0.2))
    zbar = averaged_zeta(prob, 0.0)
    zbar_dev = abs(zbar - 0.8317766)
    ok = worst <= 1e-10 and zbar_dev <= 1e-7
    report(
        9,
        ok,
        f"Jensen equality: lower bounds off exact error by {worst:.3e}, "
        f"averaged J dev {zbar_dev:.3e}",
    )


def test_criterion_10_comparisons(problem_corpus):
    violations = 0
    worst = math.inf
    for prob in problem_corpus:
        for res in comparison_check(prob):
            worst = min(worst, res.slack)
            if not res.satisfied:
                violations += 1
    ok = violations == 0
    report(
        10,
        ok,
        f"sharpness orderings on 10^3 problems: {violations} violations, "
        f"worst slack {worst:.3e}",
    )


def test_criterion_11_inversion_round_trip():
    rng = np.random.default_rng([SEED, 1004])
    worst = 0.0
    for family, point in (("zeta", zeta_point), ("xi", xi_point)):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            g = lambda a: point(s, a)
            for a_star in rng.uniform(0.01, 0.49, size=1_000):
                v = g(a_star)
                a = invert_decreasing(g, v, 1e-12, 0.5, tol=1e-12)
                worst = max(worst, abs(g(a) - v))
    ok = worst <= 1e-10
    report(
        11,
        ok,
        f"inversion round-trip, 10^3 targets x 10 family members: worst |g(a)-v| {worst:.3e}",
    )


def test_criterion_12_cli_determinism():
    argv = [
        sys.executable, "-m", "divbound", "verify",
        "--trials", "10000", "--seed", "42", "--format", "machine",
    ]
    runs = [subprocess.run(argv, capture_output=True, timeout=300) for _ in range(2)]
    ok = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and len(runs[0].stdout) > 0
    )
    report(
        12,
        ok,
        f"cmd_verify seed 42, 10^4 trials: exits {runs[0].returncode}/{runs[1].returncode}, "
        f"byte-identical={runs[0].stdout == runs[1].stdout}",
    )
