"""Seeded randomized verification suites.

Each suite draws a reproducible corpus from numpy's default generator
seeded with (seed, suite index) and checks one family of invariants:

  eq7_chain / eq39_chain   the two measure inequality chains
  csiszar_equiv            generator sums reproduce the direct measures
  star_transform           star symmetry, f*(1/2) = 0, endpoint law
  sandwich                 every applicable bound brackets the exact error
  comparisons              sharpness orderings between difference bounds

Inequality suites report the most negative slack seen; equality suites
report the largest deviation.

Trials are drawn one after another, as random_strict_pair and
random_problem draw them, in blocks that end once their draws hold
BLOCK_CELLS cells a side or at the end of the corpus.  A block is grouped
by alphabet size n (problem size k for the bound suites), and each group
is one C-contiguous (m, n) array per side that is validated at once and
that the measure, Csiszar-sum and posterior-averaging kernels reduce row by
row.  The bound suites then assemble each problem's report on its own (its
bisections stay scalar).  Results are reduced in trial order, so the
reports equal, byte for byte, checking one trial at a time with
chain_check, measure_value, csiszar_sum, bound_report and comparison_check.

The suites share nothing, so run_verify runs them in forked worker
processes when more than one CPU is available, and in the calling process
otherwise.  A suite's arguments, its generator included, are the same
either way and the results are collected in SUITE_NAMES order, so a fixed
(trials, seed, n_max) triple yields byte-identical reports wherever the
suites ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .bounds import (
    COMPARISON_TAGS,
    TwoClassProblem,
    assemble_report,
    compare_averages,
    min_mass_sum,
    posterior_arrays,
    posterior_averages,
    report_generators,
)
from .distributions import (
    PERMISSIVE,
    STRICT,
    DiscreteDistribution,
    invalid_rows,
    validate,
)
from .generators import (
    CATALOG_KEYS,
    STAR_SYM_TOL,
    csiszar_rows,
    generator,
    star,
    star_symmetry_defect,
)
from .kernel import ArgumentError, usable_cpus
from .measures import CHAIN_LABELS, BaseSums, _chain_report, chain_slack, chain_values

SUITE_NAMES = (
    "eq7_chain",
    "eq39_chain",
    "csiszar_equiv",
    "star_transform",
    "sandwich",
    "comparisons",
)

# The order the suites are handed to worker processes: longest first, so
# that the short ones fill in behind.  At --trials 10000 on one core the
# suites take about 0.24, 0.12, 0.10, 0.045, 0.018 and 0.001 s in this order.
_LONGEST_FIRST = (
    "sandwich",
    "eq7_chain",
    "eq39_chain",
    "csiszar_equiv",
    "comparisons",
    "star_transform",
)

CSISZAR_TOL = 1e-11  # normalised by (1 + |direct value|)
STAR_HALF_TOL = 1e-14

# The expensive suites run at a tenth of the chain trial count, matching
# the scales the invariants are stated at (1e4 chains vs 1e3 problems).
REDUCED_FACTOR = 10

_VERIFY_S_GRID = (-1.0, 0.0, 0.5, 2.0)

# A block of trials ends once its draws hold this many cells a side (or at
# the end of the corpus), which bounds memory at a large --n-max.
BLOCK_CELLS = 1 << 16


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


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    w = np.exp(z)
    return w / np.sum(w, axis=-1, keepdims=True)


def random_strict_pair(
    rng: np.random.Generator, n: int
) -> Tuple[DiscreteDistribution, DiscreteDistribution]:
    """Strictly positive pair: normalised exponentials of standard normals.

    The suites draw the same pairs a block at a time (_pair_blocks).
    """
    p, q = _softmax_rows(rng.standard_normal((2, n)))
    return validate(p, STRICT), validate(q, STRICT)


def random_problem(rng: np.random.Generator, k: int) -> TwoClassProblem:
    """Priors uniform on (0.05, 0.95), conditionals softmax of standard normals.

    The bound suites draw the same problems a block at a time
    (_problem_blocks).
    """
    p1 = float(rng.uniform(0.05, 0.95))
    c1, c2 = _softmax_rows(rng.standard_normal((2, k)))
    return TwoClassProblem.from_arrays((p1, 1.0 - p1), c1, c2)


def _echo_pair(i: int, p: np.ndarray, q: np.ndarray, detail: str) -> str:
    return f"trial {i}: P={p.tolist()!r} Q={q.tolist()!r} {detail}"


# ---------------------------------------------------------------------------
# blocks of trials
# ---------------------------------------------------------------------------

# (block positions, first block, second block) of one size, positions
# ascending: P and Q rows of pairs, or cond1 and cond2 rows of problems
SizeGroup = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _blocks(
    trials: int, draw: Callable[[], Tuple[object, np.ndarray]]
) -> Iterator[Tuple[int, list, List[SizeGroup]]]:
    """(first trial index, per-trial values, size groups) per block.

    draw() makes one trial's draws and returns (a value kept per trial, its
    (2, n) standard normals).  A block ends once its trials hold
    BLOCK_CELLS cells a side, or at the end of the corpus.  Its group list
    is emptied before the next block is drawn, so one block is held at a
    time.
    """
    start = 0
    while start < trials:
        values = []
        normals = []
        cells = 0
        while start + len(normals) < trials and cells < BLOCK_CELLS:
            value, z = draw()
            values.append(value)
            normals.append(z)
            cells += z.shape[1]
        groups = _size_groups(normals)
        yield start, values, groups
        start += len(values)
        groups.clear()


def _size_groups(normals: List[np.ndarray]) -> List[SizeGroup]:
    """A block's (2, n) normal draws grouped by n, each side's rows softmaxed.

    Each group's sides are C-contiguous (m, n) arrays.  The draws list is
    emptied as it is grouped, so each draw is held once.
    """
    sizes = np.array([z.shape[1] for z in normals])
    groups = []
    for n in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        idx = np.flatnonzero(sizes == n)
        A = _softmax_rows(np.stack([normals[i][0] for i in idx]))
        B = _softmax_rows(np.stack([normals[i][1] for i in idx]))
        for i in idx:
            normals[i] = None
        groups.append((idx, A, B))
    return groups


def _earliest_rejected(
    groups: List[SizeGroup], mode: str
) -> Optional[Tuple[int, np.ndarray, np.ndarray]]:
    """(block position, first row, second row) of the earliest trial with a
    row that validate(mode) rejects, or None."""
    rejected = []
    for idx, A, B in groups:
        bad = np.flatnonzero(invalid_rows(A, mode) | invalid_rows(B, mode))
        if bad.size:
            j = bad[0]
            rejected.append((int(idx[j]), A[j], B[j]))
    return min(rejected, key=lambda r: r[0], default=None)


def _pair_blocks(
    trials: int, rng: np.random.Generator, n_max: int
) -> Iterator[Tuple[int, List[SizeGroup]]]:
    """(first trial index, size groups) per block, drawing as random_strict_pair does.

    The earliest rejected pair of a block raises validate's error.
    """

    def draw() -> Tuple[None, np.ndarray]:
        return None, rng.standard_normal((2, int(rng.integers(2, n_max + 1))))

    for start, _, groups in _blocks(trials, draw):
        rejected = _earliest_rejected(groups, STRICT)
        if rejected is not None:
            _, p, q = rejected
            validate(p, STRICT)
            validate(q, STRICT)
        yield start, groups


def _in_trial_order(groups: List[SizeGroup], evaluate: Callable) -> np.ndarray:
    """evaluate(P, Q) on each size group, its rows put back in trial order."""
    out = None
    count = sum(len(idx) for idx, _, _ in groups)
    for idx, P, Q in groups:
        rows = evaluate(P, Q)
        if out is None:
            out = np.empty((count,) + rows.shape[1:])
        out[idx] = rows
    return out


def _pair_at(groups: List[SizeGroup], i: int) -> Tuple[np.ndarray, np.ndarray]:
    for idx, P, Q in groups:
        j = int(np.searchsorted(idx, i))
        if j < len(idx) and idx[j] == i:
            return P[j], Q[j]
    raise IndexError(i)


def _chain_suite(
    name: str, which: str, trials: int, rng: np.random.Generator, n_max: int, corrupt: bool
) -> SuiteResult:
    labels = CHAIN_LABELS[which]
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    for start, groups in _pair_blocks(trials, rng, n_max):
        values = _in_trial_order(groups, lambda P, Q: np.stack(chain_values(which, P, Q), axis=-1))
        if corrupt and start == 0:
            # test hook: force a detectable violation by deflating one interior value
            values[0, 2] -= 10.0 * (1.0 + abs(values[0, 2]))
        _, normalised, violated = chain_slack(values)
        # Python's min in trial order: a nan never replaces the running
        # minimum, and of equal values the earliest (and its sign) stays
        worst = min([worst, *normalised.reshape(-1).tolist()])
        bad = np.flatnonzero(violated.any(axis=-1))
        failures += bad.size
        if first is None and bad.size:
            i = int(bad[0])
            report = _chain_report(list(zip(labels, values[i].tolist())))
            first = _echo_pair(
                start + i, *_pair_at(groups, i), f"violations={list(report.violations)!r}"
            )
    return SuiteResult(name, trials, failures, worst, first)


def _csiszar_suite(trials: int, rng: np.random.Generator, n_max: int) -> SuiteResult:
    gens = [generator(key) for key in CATALOG_KEYS]

    def evaluate(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        sums = BaseSums(P, Q)  # the 19 keys share the block's seven base sums
        direct = [sums.measure(key) for key in CATALOG_KEYS]
        summed = [csiszar_rows(g, P, Q) for g in gens]
        return np.stack([np.stack(direct, axis=-1), np.stack(summed, axis=-1)], axis=1)

    failures = 0
    worst = 0.0
    first: Optional[str] = None
    for start, groups in _pair_blocks(trials, rng, n_max):
        both = _in_trial_order(groups, evaluate)
        direct, summed = both[:, 0], both[:, 1]
        dev = np.abs(summed - direct) / (1.0 + np.abs(direct))
        worst = max([worst, *dev.reshape(-1).tolist()])
        failing = dev > CSISZAR_TOL
        failures += int(np.count_nonzero(failing))
        if first is None and failing.any():
            i, j = divmod(int(np.argmax(failing.reshape(-1))), len(CATALOG_KEYS))
            first = _echo_pair(
                start + i,
                *_pair_at(groups, i),
                f"key={CATALOG_KEYS[j].label()} direct={float(direct[i, j])!r} "
                f"sum={float(summed[i, j])!r}",
            )
    return SuiteResult("csiszar_equiv", trials * len(CATALOG_KEYS), failures, worst, first)


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


# ---------------------------------------------------------------------------
# blocks of two-class problems
# ---------------------------------------------------------------------------


def _problem_blocks(
    trials: int, rng: np.random.Generator
) -> Iterator[Tuple[int, np.ndarray, List[SizeGroup]]]:
    """(first trial index, class-1 priors, conditional size groups) per
    block, drawing as random_problem does with k from integers(2, 17).

    The conditionals of a block are checked as TwoClassProblem.from_arrays
    checks them (the drawn priors always pass its checks); the earliest
    rejected problem raises its error.
    """

    def draw() -> Tuple[float, np.ndarray]:
        k = int(rng.integers(2, 17))
        p1 = float(rng.uniform(0.05, 0.95))
        return p1, rng.standard_normal((2, k))

    for start, priors, groups in _blocks(trials, draw):
        rejected = _earliest_rejected(groups, PERMISSIVE)
        if rejected is not None:
            i, c1, c2 = rejected
            TwoClassProblem.from_arrays((priors[i], 1.0 - priors[i]), c1, c2)
        yield start, np.array(priors), groups


def _checked_problem(p1: float, c1: np.ndarray, c2: np.ndarray) -> TwoClassProblem:
    """The problem of _problem_blocks rows, which are checked already."""
    return TwoClassProblem(
        p1, 1.0 - p1, DiscreteDistribution(c1, PERMISSIVE), DiscreteDistribution(c2, PERMISSIVE)
    )


def _problem_trials(
    trials: int, rng: np.random.Generator, gens
) -> Iterator[Tuple[int, float, np.ndarray, np.ndarray, float, dict]]:
    """(trial index, p1, cond1, cond2, exact error, averages by key) per trial.

    Stage 1 of the bound report runs on each size group of a block at
    once: every outcome of a drawn problem is live, since its conditionals
    are strictly positive.
    """
    for start, priors, groups in _problem_blocks(trials, rng):
        count = len(priors)
        pe = np.empty(count)
        averages = {g.key: np.empty(count) for g in gens}
        conds = [None] * count
        for idx, C1, C2 in groups:
            prior1 = priors[idx, None]
            w1, w2, px, a2 = posterior_arrays(prior1, 1.0 - prior1, C1, C2)
            pe[idx] = min_mass_sum(w1, w2)
            for key, rows in posterior_averages(px, a2, gens).items():
                averages[key][idx] = rows
            for j, i in enumerate(idx.tolist()):
                conds[i] = (C1[j], C2[j])
        by_key = {key: rows.tolist() for key, rows in averages.items()}
        for j, (p1, (c1, c2), e) in enumerate(zip(priors.tolist(), conds, pe.tolist())):
            yield start + j, p1, c1, c2, e, {key: rows[j] for key, rows in by_key.items()}


def _problem_text(problem: TwoClassProblem) -> str:
    return (
        f"priors=({problem.p1!r}, {problem.p2!r}) "
        f"cond1={problem.cond1.probs.tolist()!r} "
        f"cond2={problem.cond2.probs.tolist()!r}"
    )


def _sandwich_suite(trials: int, rng: np.random.Generator) -> SuiteResult:
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    gens = report_generators(_VERIFY_S_GRID)
    for i, p1, c1, c2, pe, averages in _problem_trials(trials, rng, gens):
        problem = _checked_problem(p1, c1, c2)
        report = assemble_report(problem, _VERIFY_S_GRID, pe, averages)
        for _, slack in report.slacks():
            worst = min(worst, slack)
        bad = report.sandwich_violations()
        if bad:
            failures += 1
            if first is None:
                first = f"trial {i}: {_problem_text(problem)} violations={bad!r}"
    return SuiteResult("sandwich", trials, failures, worst, first)


def _comparison_suite(trials: int, rng: np.random.Generator) -> SuiteResult:
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    checks = 0
    gens = [generator(tag) for tag in COMPARISON_TAGS]
    for i, p1, c1, c2, _, averages in _problem_trials(trials, rng, gens):
        for res in compare_averages(averages):
            checks += 1
            worst = min(worst, res.slack)
            if not res.satisfied:
                failures += 1
                if first is None:
                    first = (
                        f"trial {i}: relation={res.relation} slack={res.slack!r} "
                        f"{_problem_text(_checked_problem(p1, c1, c2))}"
                    )
    return SuiteResult("comparisons", checks, failures, worst, first)


def _worker_count() -> int:
    """Processes to run the suites in; 0 runs them in this process.

    Workers are forked, so they start from this process's state (module
    globals included) without importing anything again.  No divbound
    thread is alive at the fork: row_sum joins its helpers before it
    returns.  A daemonic process may not have children.
    """
    cpus = usable_cpus()
    if cpus < 2:
        return 0
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 0
    if multiprocessing.current_process().daemon:
        return 0
    return min(cpus, len(SUITE_NAMES))


def run_verify(
    trials: int, seed: int, n_max: int = 64, corrupt: bool = False
) -> List[SuiteResult]:
    """Run all suites; `trials` drives the chains, trials//10 the rest.

    The suites are independent, so they run in forked worker processes
    when more than one CPU is available.  Each suite gets the same
    arguments, its own generator included, either way, so the results
    (and an exception, raised from the first failing suite in SUITE_NAMES
    order) do not depend on where the suites ran.
    """
    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    if n_max < 2:
        raise ArgumentError(f"n-max must be >= 2, got {n_max}")
    reduced = max(1, trials // REDUCED_FACTOR)

    def rng(idx: int) -> np.random.Generator:
        return np.random.default_rng([seed, idx])

    calls = {
        "eq7_chain": (_chain_suite, "eq7_chain", "eq7", trials, rng(0), n_max, corrupt),
        "eq39_chain": (_chain_suite, "eq39_chain", "eq39", trials, rng(1), n_max, corrupt),
        "csiszar_equiv": (_csiszar_suite, reduced, rng(2), n_max),
        "star_transform": (_star_suite,),
        "sandwich": (_sandwich_suite, reduced, rng(3)),
        "comparisons": (_comparison_suite, reduced, rng(4)),
    }
    workers = _worker_count()
    if not workers:
        return [fn(*args) for fn, *args in map(calls.get, SUITE_NAMES)]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {name: pool.submit(*calls[name]) for name in _LONGEST_FIRST}
        return [futures[name].result() for name in SUITE_NAMES]
    except BaseException:
        # a suite failed, or the caller was interrupted: stop the suites
        # still running or queued instead of waiting for them (the
        # executor has no public call for this before Python 3.14)
        for proc in pool._processes.values():
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
