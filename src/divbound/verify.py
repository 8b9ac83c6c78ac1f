"""Seeded randomized verification suites.

Each suite draws a reproducible corpus from numpy's default generator
seeded with (seed, suite index) and checks one family of invariants:

  eq7_chain / eq39_chain   the two measure inequality chains
  csiszar_equiv            generator sums reproduce the direct measures
  star_transform           star symmetry, f*(1/2) = 0, endpoint law
  sandwich                 every applicable bound brackets the exact error
  comparisons              sharpness orderings between difference bounds

Inequality suites report the most negative slack seen; equality suites
report the largest deviation.  Results are reduced in trial order, so a
fixed (trials, seed, n_max) triple yields byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .bounds import TwoClassProblem, bound_report, comparison_check
from .distributions import STRICT, DiscreteDistribution, validate
from .generators import CATALOG_KEYS, STAR_SYM_TOL, generator, star, star_symmetry_defect
from .kernel import ArgumentError
from .measures import ChainReport, _chain_report, chain_check, measure_value
from . import generators as _generators

SUITE_NAMES = (
    "eq7_chain",
    "eq39_chain",
    "csiszar_equiv",
    "star_transform",
    "sandwich",
    "comparisons",
)

CSISZAR_TOL = 1e-11  # normalised by (1 + |direct value|)
STAR_HALF_TOL = 1e-14

# The expensive suites run at a tenth of the chain trial count, matching
# the scales the invariants are stated at (1e4 chains vs 1e3 problems).
REDUCED_FACTOR = 10

_VERIFY_S_GRID = (-1.0, 0.0, 0.5, 2.0)


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: int
    failures: int
    worst: float
    first_failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def random_strict_pair(
    rng: np.random.Generator, n: int
) -> Tuple[DiscreteDistribution, DiscreteDistribution]:
    """Strictly positive pair: normalised exponentials of standard normals."""
    out = []
    for _ in range(2):
        w = np.exp(rng.standard_normal(n))
        out.append(validate(w / w.sum(), STRICT))
    return out[0], out[1]


def random_problem(rng: np.random.Generator, k: int) -> TwoClassProblem:
    """Priors uniform on (0.05, 0.95), conditionals softmax of standard normals."""
    p1 = float(rng.uniform(0.05, 0.95))
    conds = []
    for _ in range(2):
        w = np.exp(rng.standard_normal(k))
        conds.append(w / w.sum())
    return TwoClassProblem.from_arrays((p1, 1.0 - p1), conds[0], conds[1])


def _echo_pair(i: int, P: DiscreteDistribution, Q: DiscreteDistribution, detail: str) -> str:
    return f"trial {i}: P={P.probs.tolist()!r} Q={Q.probs.tolist()!r} {detail}"


def _chain_suite(
    name: str, which: str, trials: int, rng: np.random.Generator, n_max: int, corrupt: bool
) -> SuiteResult:
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    for i in range(trials):
        n = int(rng.integers(2, n_max + 1))
        P, Q = random_strict_pair(rng, n)
        report = chain_check(P, Q, which)
        if corrupt and i == 0:
            report = _corrupt(report)
        worst = min(worst, report.worst_slack)
        if not report.ok:
            failures += 1
            if first is None:
                first = _echo_pair(i, P, Q, f"violations={list(report.violations)!r}")
    return SuiteResult(name, trials, failures, worst, first)


def _corrupt(report: ChainReport) -> ChainReport:
    # test hook: force a detectable violation by deflating one interior value
    entries = list(report.values)
    label, value = entries[2]
    entries[2] = (label, value - 10.0 * (1.0 + abs(value)))
    return _chain_report(entries)


def _csiszar_suite(trials: int, rng: np.random.Generator, n_max: int) -> SuiteResult:
    failures = 0
    worst = 0.0
    first: Optional[str] = None
    checks = 0
    for i in range(trials):
        n = int(rng.integers(2, n_max + 1))
        P, Q = random_strict_pair(rng, n)
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            summed = _generators.csiszar_sum(generator(key), P, Q)
            dev = abs(summed - direct) / (1.0 + abs(direct))
            worst = max(worst, dev)
            checks += 1
            if dev > CSISZAR_TOL:
                failures += 1
                if first is None:
                    first = _echo_pair(
                        i, P, Q, f"key={key.label()} direct={direct!r} sum={summed!r}"
                    )
    return SuiteResult("csiszar_equiv", checks, failures, worst, first)


def _star_suite() -> SuiteResult:
    failures = 0
    worst = 0.0
    first: Optional[str] = None
    checks = 0
    for key in CATALOG_KEYS:
        g = generator(key)
        problems = []

        sym = star_symmetry_defect(g)
        worst = max(worst, sym)
        if sym > STAR_SYM_TOL:
            problems.append(f"symmetry defect {sym!r}")
        checks += 1

        at_half = abs(star(g, 0.5))
        worst = max(worst, at_half)
        if at_half > STAR_HALF_TOL:
            problems.append(f"f*(1/2) = {at_half!r}")
        checks += 1

        if problems:
            failures += 1
            if first is None:
                first = f"key={g.key}: " + "; ".join(problems)
    return SuiteResult("star_transform", checks, failures, worst, first)


def _sandwich_suite(trials: int, rng: np.random.Generator) -> SuiteResult:
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    for i in range(trials):
        k = int(rng.integers(2, 17))
        problem = random_problem(rng, k)
        report = bound_report(problem, _VERIFY_S_GRID)
        for e in report.entries:
            if not e.applicable:
                continue
            slack = (
                report.exact_pe - e.value
                if e.kind == "lower"
                else e.value - report.exact_pe
            )
            worst = min(worst, slack)
        bad = report.sandwich_violations()
        if bad:
            failures += 1
            if first is None:
                first = (
                    f"trial {i}: priors=({problem.p1!r}, {problem.p2!r}) "
                    f"cond1={problem.cond1.probs.tolist()!r} "
                    f"cond2={problem.cond2.probs.tolist()!r} violations={bad!r}"
                )
    return SuiteResult("sandwich", trials, failures, worst, first)


def _comparison_suite(trials: int, rng: np.random.Generator) -> SuiteResult:
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    checks = 0
    for i in range(trials):
        k = int(rng.integers(2, 17))
        problem = random_problem(rng, k)
        for res in comparison_check(problem):
            checks += 1
            worst = min(worst, res.slack)
            if not res.satisfied:
                failures += 1
                if first is None:
                    first = (
                        f"trial {i}: relation={res.relation} slack={res.slack!r} "
                        f"priors=({problem.p1!r}, {problem.p2!r}) "
                        f"cond1={problem.cond1.probs.tolist()!r} "
                        f"cond2={problem.cond2.probs.tolist()!r}"
                    )
    return SuiteResult("comparisons", checks, failures, worst, first)


def run_verify(
    trials: int, seed: int, n_max: int = 64, corrupt: bool = False
) -> List[SuiteResult]:
    """Run all suites; `trials` drives the chains, trials//10 the rest."""
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    if n_max < 2:
        raise ArgumentError(f"n-max must be >= 2, got {n_max}")
    reduced = max(1, trials // REDUCED_FACTOR)

    def rng(idx: int) -> np.random.Generator:
        return np.random.default_rng([seed, idx])

    return [
        _chain_suite("eq7_chain", "eq7", trials, rng(0), n_max, corrupt),
        _chain_suite("eq39_chain", "eq39", trials, rng(1), n_max, corrupt),
        _csiszar_suite(reduced, rng(2), n_max),
        _star_suite(),
        _sandwich_suite(reduced, rng(3)),
        _comparison_suite(reduced, rng(4)),
    ]
