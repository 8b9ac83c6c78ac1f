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
BLOCK_CELLS cells a side or at the end of the corpus.  The draws are
numpy's, word for word, but not made by a numpy call per trial (_Draws):
each size and prior is taken from the generator's raw PCG64 words by the
rules numpy's integers and uniform apply, and the normals of trials that
no such word separates are drawn in one standard_normal call, so two
pairs whose sizes share a word share a call.  The per-trial reference
draws of the tests and the golden verify files tie them to numpy's own.

A block is flat: each side's rows lie in one buffer, grouped by alphabet
size n (problem size k for the bound suites) into C-contiguous (m, n)
slabs by ascending n, in trial order within a slab (kernel.FlatRows).
Every elementwise step (softmax, the measure, Csiszar-sum and posterior
terms) runs over the whole buffer, in chunks of rows; only the row sums
run per slab.  The softmax rows are valid distributions by construction;
each block is checked once for that, and a failure is an internal error,
not a validation error.
The sandwich suite then takes each bound of the block as one array
(bounds.report_rows, which bisects a lower bound for all of the block's
problems at once) and reduces the (problem, bound) slacks; the
comparisons are evaluated on the block's arrays.  Every check fails
unless its value is within tolerance, so a nan value is a failure, and it
makes its suite's worst nan (measures.worst_of).
Results are reduced in trial order, so the reports equal, byte for byte,
checking one trial at a time with chain_check, measure_value, csiszar_sum,
bound_report and comparison_check.

The suites share nothing, so run_verify runs them in worker processes
forked with os.fork when more than one CPU is available, and in the
calling process otherwise.  A suite's arguments, its generator included,
are the same either way and the results are collected in SUITE_NAMES
order, so a fixed (trials, seed, n_max) triple yields byte-identical
reports wherever the suites ran.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .bounds import (
    COMPARISON_TAGS,
    DEFAULT_S_GRID,
    TwoClassProblem,
    _RELATIONS,
    _sandwich_violated,
    _slack,
    compare_averages,
    min_mass_sum,
    posterior_arrays,
    posterior_averages,
    report_generators,
    report_rows,
)
from .distributions import (
    PERMISSIVE,
    STRICT,
    SUM_TOL,
    DiscreteDistribution,
    validate,
)
from .generators import CATALOG_KEYS, STAR_SYM_TOL, generator, star, star_symmetry_defect
from .generators import _TABLE, _cell_rows
from .kernel import ArgumentError, FlatRows, usable_cpus
from .measures import CHAIN_LABELS, BaseSums, _chain_report, chain_slack, worst_of

SUITE_NAMES = (
    "eq7_chain",
    "eq39_chain",
    "csiszar_equiv",
    "star_transform",
    "sandwich",
    "comparisons",
)

# The order the suites are handed to worker processes: longest first, so
# that the short ones fill in behind.  At --trials 10000, seed 1, cold, on
# one core of a 2-vCPU x86 host the suites take about 0.056, 0.055, 0.043,
# 0.026, 0.015 and 0.002 s (medians of 8) in this order; with two workers
# the chains start at once and the sandwich suite follows the shorter, so
# each worker runs about 0.10 s.
_LONGEST_FIRST = (
    "eq7_chain",
    "eq39_chain",
    "sandwich",
    "csiszar_equiv",
    "comparisons",
    "star_transform",
)

CSISZAR_TOL = 1e-11  # normalised by (1 + |direct value|)
STAR_HALF_TOL = 1e-14

# The expensive suites run at a tenth of the chain trial count, matching
# the scales the invariants are stated at (1e4 chains vs 1e3 problems).
REDUCED_FACTOR = 10

# The bound suites draw problem sizes k from integers(2, K_MAX + 1).
K_MAX = 16

# A block of trials ends once its draws hold this many cells a side (or at
# the end of the corpus), which bounds memory at a large --n-max.
BLOCK_CELLS = 1 << 16

# The largest n_max run_verify takes: the largest alphabet the benchmarks
# time.  A larger one is a usage error, raised before anything is drawn.
N_MAX_LIMIT = 1 << 20

# The largest trials run_verify takes.  10^6 trials run in 6.5 s on a
# 2-vCPU x86 host, so the limit takes about a minute, and a mistyped
# count is a usage error instead of a run of hours.
TRIALS_LIMIT = 10**7


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


def _softmax_rows(z: np.ndarray, rows: Optional[FlatRows] = None) -> np.ndarray:
    """exp(z) normalised over each row, computed in z: the rows of its last
    axis, or those of a flat buffer laid out by rows."""
    w = np.exp(z, out=z)
    w /= np.sum(w, axis=-1, keepdims=True) if rows is None else rows.per_cell(rows.sum(w))
    return w


def random_strict_pair(
    rng: np.random.Generator, n: int
) -> Tuple[DiscreteDistribution, DiscreteDistribution]:
    """Strictly positive pair: normalised exponentials of standard normals.

    The suites draw the same pairs a block at a time (_blocks), each n as
    rng.integers(2, n_max + 1) draws it but from the generator's raw words;
    this validated draw, with n from integers, is the per-trial reference
    the tests hold them to.
    """
    p, q = _softmax_rows(rng.standard_normal((2, n)))
    return validate(p, STRICT), validate(q, STRICT)


def random_problem(rng: np.random.Generator, k: int) -> TwoClassProblem:
    """Priors uniform on (0.05, 0.95), conditionals softmax of standard normals.

    The bound suites draw the same problems a block at a time (_blocks with
    priors), each k and prior as integers(2, K_MAX + 1) and this uniform
    draw them but from the generator's raw words; this validated draw, with
    k from integers, is the per-trial reference the tests hold them to.
    """
    p1 = float(rng.uniform(0.05, 0.95))
    c1, c2 = _softmax_rows(rng.standard_normal((2, k)))
    return TwoClassProblem.from_arrays((p1, 1.0 - p1), c1, c2)


def _echo_pair(i: int, p: np.ndarray, q: np.ndarray, detail: str) -> str:
    return f"trial {i}: P={p.tolist()!r} Q={q.tolist()!r} {detail}"


# ---------------------------------------------------------------------------
# blocks of trials
# ---------------------------------------------------------------------------


class _Block:
    """A block of trials, flat: each side's rows in one buffer laid out by
    a FlatRows, by ascending size and, within a size, in trial order."""

    __slots__ = ("start", "rows", "rank", "first", "second", "priors")

    def __init__(self, start, rows, rank, first, second, priors):
        self.start = start  # corpus index of the block's first trial
        self.rows = rows
        self.rank = rank  # the buffer row of each trial, in trial order
        self.first = first  # P rows of pairs, cond1 rows of problems
        self.second = second  # Q rows of pairs, cond2 rows of problems
        self.priors = priors  # class-1 prior of each problem's row

    def __len__(self) -> int:
        return len(self.rank)

    def base_sums(self) -> BaseSums:
        """The base sums of the block's pairs, one per buffer row."""
        return BaseSums(self.first, self.second, reduce=self.rows.row_sum)

    def in_trial_order(self, values: np.ndarray) -> np.ndarray:
        """Per-row values (first axis in buffer order) in trial order."""
        return values[self.rank]

    def prior(self, i: int) -> float:
        """The class-1 prior of the block's i-th trial (a problem)."""
        return float(self.priors[self.rank[i]])

    def trial(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """The two rows of the block's i-th trial."""
        r = self.rank[i]
        c0 = int(self.rows.starts[r])
        c1 = c0 + int(self.rows.lengths[r])
        return self.first[c0:c1], self.second[c0:c1]


_LOW32 = (1 << 32) - 1


class _Draws:
    """numpy 2's draws from a PCG64 generator, in numpy's order, taken from
    its raw 64-bit words: sizes as integers(2, high + 1) draws them, priors
    as uniform(low, high) does, and standard normals into a buffer.

    A 32-bit draw is the low half of a fresh word, whose high half is kept
    for the next 32-bit draw (PCG64's next_uint32).  A size is 2 plus a
    32-bit draw u scaled to r = high - 1 values by Lemire's rule (ACM
    TOMACS 29(1), 2019), floor(u r / 2^32): u is rejected, and the next
    32-bit draw taken, when (u r) mod 2^32 is below 2^32 mod r.  At r = 1
    no word is taken.  A prior takes one word w, as numpy's next_double
    does: low + (high - low) (w >> 11) 2^-53.

    Normals are reserved by raising `used`, the end of the buffer's
    reserved cells.  They are drawn in one standard_normal call just before
    the next fresh word is taken, or at end_block(), so the stream is
    consumed in numpy's order.  The kept half lives here while the draws
    last; close() writes it back into the generator's state, which is then
    the state numpy's own draws leave.
    """

    __slots__ = (
        "_bitgen", "_word", "_normal", "_out", "_r", "_threshold", "_drawn", "used", "_has",
        "_kept",
    )

    def __init__(self, rng: np.random.Generator, high: int, out: np.ndarray):
        self._bitgen = rng.bit_generator
        self._r = high - 1
        self._threshold = (1 << 32) % self._r
        self._word, self._normal, self._out = self._bitgen.random_raw, rng.standard_normal, out
        self._drawn = self.used = 0
        state = self._bitgen.state
        self._has, self._kept = bool(state["has_uint32"]), state["uinteger"]

    def _normals(self) -> None:
        if self._drawn < self.used:
            self._normal(out=self._out[self._drawn : self.used])
            self._drawn = self.used

    def _fresh(self) -> int:
        """The next 64-bit word, after the normals reserved before it."""
        self._normals()
        return self._word()

    def size(self) -> int:
        r = self._r
        if r == 1:
            return 2
        while True:
            if self._has:
                u, self._has = self._kept, False
            else:
                w = self._fresh()
                u, self._kept, self._has = w & _LOW32, w >> 32, True
            m = u * r
            if m & _LOW32 >= self._threshold:
                return 2 + (m >> 32)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._fresh() >> 11) * 2.0**-53)

    def end_block(self) -> None:
        """Draw the reserved normals; the next block fills the buffer afresh."""
        self._normals()
        self._drawn = self.used = 0

    def close(self) -> None:
        """Write the kept half back into the generator's state."""
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = int(self._has), self._kept
        self._bitgen.state = state


def _blocks(
    trials: int, rng: np.random.Generator, n_max: int, priors: bool = False
) -> Iterator[_Block]:
    """The corpus in blocks, drawn as random_strict_pair draws pairs with n
    from integers(2, n_max + 1), or with priors as random_problem draws
    problems (k, then its prior, then its normals): the same stream,
    consumed in the same order, with each size and prior taken from the
    generator's raw words and each run of normals with no word between
    them in one call (_Draws).  The generator is left in the state the
    per-trial draws leave.

    A block ends once its trials hold BLOCK_CELLS cells a side, or at the
    end of the corpus.  The normals of a block are drawn into one buffer,
    which the next block reuses, and a block's rows are released before
    the next block is drawn.  Each block is checked once (_check_block).
    """
    budget = 2 * BLOCK_CELLS
    raw = np.empty(2 * min(BLOCK_CELLS + n_max, trials * n_max))
    draws = _Draws(rng, n_max, raw)
    start = 0
    try:
        while start < trials:
            sizes = []
            drawn_priors = []
            while start + len(sizes) < trials and draws.used < budget:
                n = draws.size()
                if priors:
                    drawn_priors.append(draws.uniform(0.05, 0.95))
                draws.used += 2 * n
                sizes.append(n)
            draws.end_block()
            block = _flat_block(
                start, raw, np.array(sizes), np.array(drawn_priors) if priors else None
            )
            _check_block(block)
            yield block
            block.first = block.second = None  # one block's rows are held at a time
            start += len(sizes)
    finally:
        draws.close()


def _flat_block(
    start: int, raw: np.ndarray, sizes: np.ndarray, priors: Optional[np.ndarray]
) -> _Block:
    """The block of the trials whose (2, n) normals lie one after another
    in raw, with sizes n in trial order; each side's rows softmaxed."""
    order = np.argsort(sizes, kind="stable")
    lengths = sizes[order]
    rows = FlatRows(lengths)
    offsets = 2 * (np.cumsum(sizes) - sizes)  # each trial's first normal in raw
    gather = np.arange(rows.cells)
    gather += rows.per_cell(offsets[order] - rows.starts)
    first = _softmax_rows(raw[gather], rows)
    gather += rows.per_cell(lengths)  # each trial's second row follows its first
    second = _softmax_rows(raw[gather], rows)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return _Block(start, rows, rank, first, second, None if priors is None else priors[order])


def _check_block(block: _Block) -> None:
    """Raise RuntimeError unless every cell of the block is positive and
    finite and every row sums to 1 within SUM_TOL.

    Softmax rows of standard normals pass by construction (exp(z) is finite
    and positive unless |z| > 700), so a failure is a fault in the draw,
    not a ValidationFailure of user input."""
    for side in (block.first, block.second):
        positive = ((side > 0.0) & (side < math.inf)).all()
        if not (positive and (np.abs(block.rows.sum(side) - 1.0) <= SUM_TOL).all()):
            raise RuntimeError(
                f"drawn trials {block.start} to {block.start + len(block) - 1}: a row is "
                f"not a positive distribution summing to 1 within {SUM_TOL}"
            )


def _chain_suite(
    name: str, which: str, trials: int, rng: np.random.Generator, n_max: int, corrupt: bool
) -> SuiteResult:
    labels = CHAIN_LABELS[which]
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    for block in _blocks(trials, rng, n_max):
        values = block.in_trial_order(np.stack(block.base_sums().chain(which), axis=-1))
        if corrupt and block.start == 0:
            # test hook: force a detectable violation by deflating one interior value
            values[0, 2] -= 10.0 * (1.0 + abs(values[0, 2]))
        _, normalised, violated = chain_slack(values)
        worst = worst_of(min, worst, normalised)
        bad = np.flatnonzero(violated.any(axis=-1))
        failures += bad.size
        if first is None and bad.size:
            i = int(bad[0])
            report = _chain_report(list(zip(labels, values[i].tolist())))
            first = _echo_pair(
                block.start + i, *block.trial(i), f"violations={list(report.violations)!r}"
            )
    return SuiteResult(name, trials, failures, worst, first)


def _csiszar_values(block: _Block) -> Tuple[np.ndarray, np.ndarray]:
    """(direct, summed): each pair's CATALOG_KEYS measures, directly and as
    Csiszar sums, in trial order, read as a validated pair's are: one pass
    of the seven base sums, and one table pass (csiszar_sum), whose rows
    are the keys in order."""
    direct = np.stack(block.base_sums().measures(CATALOG_KEYS), axis=-1)
    summed = block.rows.row_sum(_cell_rows, block.first, block.second, _TABLE.values()).T
    return block.in_trial_order(direct), block.in_trial_order(summed)


def _csiszar_suite(trials: int, rng: np.random.Generator, n_max: int) -> SuiteResult:
    failures = 0
    worst = 0.0
    first: Optional[str] = None
    for block in _blocks(trials, rng, n_max):
        direct, summed = _csiszar_values(block)
        dev = np.abs(summed - direct) / (1.0 + np.abs(direct))
        worst = worst_of(max, worst, dev)
        failing = ~(dev <= CSISZAR_TOL)
        failures += int(np.count_nonzero(failing))
        if first is None and failing.any():
            i, j = divmod(int(np.argmax(failing.reshape(-1))), len(CATALOG_KEYS))
            first = _echo_pair(
                block.start + i,
                *block.trial(i),
                f"key={CATALOG_KEYS[j].label()} direct={float(direct[i, j])!r} "
                f"sum={float(summed[i, j])!r}",
            )
    return SuiteResult("csiszar_equiv", trials * len(CATALOG_KEYS), failures, worst, first)


def _star_suite() -> SuiteResult:
    failures = 0
    first: Optional[str] = None
    values = []
    for key in CATALOG_KEYS:
        g = generator(key)
        problems = []

        sym = star_symmetry_defect(g)
        if not sym <= STAR_SYM_TOL:
            problems.append(f"symmetry defect {sym!r}")

        at_half = abs(star(g, 0.5))
        if not at_half <= STAR_HALF_TOL:
            problems.append(f"f*(1/2) = {at_half!r}")
        values += [sym, at_half]

        if problems:
            failures += 1
            if first is None:
                first = f"key={g.key}: " + "; ".join(problems)
    worst = worst_of(max, 0.0, np.array(values))
    return SuiteResult("star_transform", len(values), failures, worst, first)


# ---------------------------------------------------------------------------
# blocks of two-class problems
# ---------------------------------------------------------------------------


def _checked_problem(block: _Block, i: int) -> TwoClassProblem:
    """The problem of a block's i-th trial, whose rows are checked already."""
    p1 = block.prior(i)
    c1, c2 = block.trial(i)
    return TwoClassProblem(
        p1, 1.0 - p1, DiscreteDistribution(c1, PERMISSIVE), DiscreteDistribution(c2, PERMISSIVE)
    )


def _posteriors(block: _Block):
    """posterior_arrays of every problem of a block, flat.  Every outcome
    of a drawn problem is live: its conditionals are strictly positive."""
    prior1 = block.rows.per_cell(block.priors)
    return posterior_arrays(prior1, 1.0 - prior1, block.first, block.second)


def _averages(block: _Block, px: np.ndarray, a2: np.ndarray, gens) -> dict:
    """Stage 1's posterior averages of a block's problems, by key, in trial order."""
    averages = posterior_averages(px, a2, gens, block.rows.row_sum)
    return {key: block.in_trial_order(rows) for key, rows in averages.items()}


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
    gens = report_generators(DEFAULT_S_GRID)
    for block in _blocks(trials, rng, K_MAX, priors=True):
        w1, w2, px, a2 = _posteriors(block)
        pe = block.in_trial_order(min_mass_sum(w1, w2, block.rows.row_sum))
        averages = _averages(block, px, a2, gens)
        p1 = block.in_trial_order(block.priors).tolist()
        # stage 2: each bound's column for the whole block at once
        rows = report_rows(
            DEFAULT_S_GRID, p1, [1.0 - p for p in p1], averages, partial(_checked_problem, block)
        )
        # (problem, bound) in trial order, as the bounds of one problem follow one another
        slacks = np.array([_slack(kind, values, pe) for _, kind, values, _, _ in rows]).T
        applicable = np.array([applicable for _, _, _, applicable, _ in rows]).T
        worst = worst_of(min, worst, slacks[applicable])
        violated = applicable & _sandwich_violated(slacks, pe[:, None])
        failing = violated.any(axis=-1)
        failures += int(np.count_nonzero(failing))
        if first is None and failing.any():
            j = int(np.argmax(failing))
            bad = [(rows[r][0], slacks[j, r].item()) for r in np.flatnonzero(violated[j])]
            problem = _checked_problem(block, j)
            first = f"trial {block.start + j}: {_problem_text(problem)} violations={bad!r}"
    return SuiteResult("sandwich", trials, failures, worst, first)


def _comparison_suite(trials: int, rng: np.random.Generator) -> SuiteResult:
    failures = 0
    worst = math.inf
    first: Optional[str] = None
    gens = [generator(tag) for tag in COMPARISON_TAGS]
    for block in _blocks(trials, rng, K_MAX, priors=True):
        _, _, px, a2 = _posteriors(block)
        results = compare_averages(_averages(block, px, a2, gens))
        # (problem, relation) in trial order, as the relations of one problem follow one another
        slacks = np.stack([res.slack for res in results], axis=-1)
        failing = ~np.stack([res.satisfied for res in results], axis=-1)
        worst = worst_of(min, worst, slacks)
        failures += int(np.count_nonzero(failing))
        if first is None and failing.any():
            j, r = divmod(int(np.argmax(failing.reshape(-1))), len(results))
            first = (
                f"trial {block.start + j}: relation={results[r].relation} "
                f"slack={float(slacks[j, r])!r} {_problem_text(_checked_problem(block, j))}"
            )
    return SuiteResult("comparisons", trials * len(_RELATIONS), failures, worst, first)


def _worker_count() -> int:
    """Processes to run the suites in; 0 runs them in this process.

    No divbound thread is alive at a fork: row_sum joins its helpers before
    it returns.
    """
    cpus = usable_cpus()
    if cpus < 2 or not hasattr(os, "fork"):
        return 0
    return min(cpus, len(SUITE_NAMES))


class _WorkerTraceback(Exception):
    """A worker's formatted traceback, the __cause__ of its exception."""


def _serve(calls: dict, tasks: int, out: int) -> None:
    """A worker: take suite indices from the tasks pipe a byte at a time
    until it is empty.  Send (name,) as a suite starts, then (name, result
    or exception, traceback text or None), each pickled after its length."""
    import pickle
    import traceback

    def send(*frame):
        data = pickle.dumps(frame)
        pipe.write(len(data).to_bytes(4, "little") + data)
        pipe.flush()

    pipe = os.fdopen(out, "wb")
    while task := os.read(tasks, 1):
        name = SUITE_NAMES[task[0]]
        fn, *args = calls[name]
        send(name)
        try:
            send(name, fn(*args), None)
        except Exception as exc:
            send(name, exc, traceback.format_exc())


def _read(fd: int, n: int) -> bytes:
    """n bytes from a pipe, or b"" where it ends first."""
    data = b""
    while len(data) < n:
        if not (chunk := os.read(fd, n - len(data))):
            return b""
        data += chunk
    return data


def _run_forked(calls: dict, workers: int) -> List[SuiteResult]:
    """Run the suites in `workers` processes forked with os.fork, which
    start from this process's state, module globals included.

    The suite indices wait in one pipe, longest first; each worker sends
    its frames (_serve) through a pipe of its own.  A pipe that ends while
    its worker runs a suite, or all of them ending first, is a RuntimeError.
    On any error or interrupt the workers are killed; on every path they
    are reaped before this returns.
    """
    import pickle
    import select
    import signal

    tasks, queue = os.pipe()
    os.write(queue, bytes(map(SUITE_NAMES.index, _LONGEST_FIRST)))
    os.close(queue)
    pids, running, outcomes = [], {}, {}  # running: open worker pipe -> its suite
    try:
        for _ in range(workers):
            r, w = os.pipe()
            if not (pid := os.fork()):  # a worker: it never returns into the caller
                try:
                    _serve(calls, tasks, w)
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(w)
            running[r] = None
        for name in SUITE_NAMES:
            while name not in outcomes:
                if not running:
                    raise RuntimeError(f"the verify workers ended without running {name}")
                for fd in select.select(list(running), [], [])[0]:
                    head = _read(fd, 4)
                    if frame := head and _read(fd, int.from_bytes(head, "little")):
                        done, *outcome = pickle.loads(frame)
                        running[fd] = None if outcome else done
                        if outcome:
                            outcomes[done] = outcome
                    else:  # the worker ended
                        os.close(fd)
                        if ended := running.pop(fd):
                            raise RuntimeError(f"a verify worker ended while running {ended}")
            value, text = outcomes[name]
            if text is not None:
                raise value from _WorkerTraceback(text)
        return [outcomes[name][0] for name in SUITE_NAMES]
    except BaseException:
        # a suite failed, a worker ended, or the caller was interrupted:
        # stop the suites still running instead of waiting for them
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in [tasks, *running]:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def run_verify(
    trials: int, seed: int, n_max: int = 64, corrupt: bool = False
) -> List[SuiteResult]:
    """Run all suites; `trials` drives the chains, trials//10 the rest.

    The suites are independent, so they run in forked worker processes
    (_run_forked) when more than one CPU is available.  Each suite gets the
    same arguments, its own generator included, either way, so the results
    (and an exception, raised from the first failing suite in SUITE_NAMES
    order, with its type) do not depend on where the suites ran.
    """
    if not 1 <= trials <= TRIALS_LIMIT:
        raise ArgumentError(f"trials must be in [1, {TRIALS_LIMIT}], got {trials}")
    if not 2 <= n_max <= N_MAX_LIMIT:
        raise ArgumentError(f"n-max must be in [2, {N_MAX_LIMIT}], got {n_max}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
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
    return _run_forked(calls, workers)
