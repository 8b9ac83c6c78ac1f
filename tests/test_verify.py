import math
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from conftest import catalog_passes, column_entries, make_pair, set_cpus
from divbound import cli, verify
from divbound import bounds, kernel, measures
from divbound.bounds import (
    DEFAULT_S_GRID,
    TwoClassProblem,
    bayes_error,
    bound_report,
    comparison_check,
    min_mass_sum,
    problem_averages,
    report_generators,
    report_rows,
)
from divbound.distributions import STRICT, ZeroEntry
from divbound.generators import CATALOG_KEYS, csiszar_sum, generator, star, star_symmetry_defect
from divbound.kernel import ArgumentError
from divbound.measures import _chain_report, chain_check, measure_value
from divbound.verify import (
    SUITE_NAMES,
    SuiteResult,
    random_problem,
    random_strict_pair,
    run_verify,
)


def test_all_suites_pass_small_run():
    results = run_verify(trials=60, seed=7)
    assert [r.suite for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.ok, (r.suite, r.first_failure)
        assert r.checks > 0


def test_deterministic_given_seed():
    a = run_verify(trials=40, seed=11)
    b = run_verify(trials=40, seed=11)
    assert a == b


def test_different_seeds_differ():
    a = run_verify(trials=40, seed=11)
    b = run_verify(trials=40, seed=12)
    assert any(x.worst != y.worst for x, y in zip(a, b))


def test_corruption_hook_detected():
    results = run_verify(trials=5, seed=3, corrupt=True)
    by_name = {r.suite: r for r in results}
    for suite in ("eq7_chain", "eq39_chain"):
        assert by_name[suite].failures >= 1
        assert by_name[suite].first_failure is not None


def test_bad_arguments():
    with pytest.raises(ArgumentError):
        run_verify(trials=0, seed=1)
    with pytest.raises(ArgumentError):
        run_verify(trials=10, seed=1, n_max=1)


def test_negative_seed_is_an_argument_error():
    # not numpy's ValueError from seeding the suites' generators
    with pytest.raises(ArgumentError, match=r"^seed must be >= 0, got -1$"):
        run_verify(trials=10, seed=-1)


def test_random_strict_pair_is_valid():
    rng = np.random.default_rng(0)
    P, Q = random_strict_pair(rng, 8)
    assert P.n == Q.n == 8
    assert P.mode == STRICT
    assert float(P.probs.min()) > 0.0


def test_random_problem_is_valid():
    rng = np.random.default_rng(0)
    prob = random_problem(rng, 5)
    assert prob.k == 5
    assert 0.05 <= prob.p1 <= 0.95
    assert prob.p1 + prob.p2 == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# The batched suites against the per-trial definition
#
# The reference checks one trial at a time through the public scalar API
# (chain_check, measure_value, csiszar_sum, bound_report, comparison_check)
# on the same draws, and reduces with Python's min and max.
# ---------------------------------------------------------------------------


def _reference_problem(rng, k):
    p1 = float(rng.uniform(0.05, 0.95))
    conds = []
    for _ in range(2):
        w = np.exp(rng.standard_normal(k))
        conds.append(w / w.sum())
    return TwoClassProblem.from_arrays((p1, 1.0 - p1), conds[0], conds[1])


def _echo(i, P, Q, detail):
    return f"trial {i}: P={P.probs.tolist()!r} Q={Q.probs.tolist()!r} {detail}"


def _problem_text(problem):
    return (
        f"priors=({problem.p1!r}, {problem.p2!r}) "
        f"cond1={problem.cond1.probs.tolist()!r} "
        f"cond2={problem.cond2.probs.tolist()!r}"
    )


def _reference_chain(name, which, trials, rng, n_max, corrupt):
    failures, worst, first = 0, math.inf, None
    for i in range(trials):
        P, Q = make_pair(rng, int(rng.integers(2, n_max + 1)))
        report = chain_check(P, Q, which)
        if corrupt and i == 0:
            entries = list(report.values)
            label, value = entries[2]
            entries[2] = (label, value - 10.0 * (1.0 + abs(value)))
            report = _chain_report(entries)
        worst = min(worst, report.worst_slack)
        if not report.ok:
            failures += 1
            if first is None:
                first = _echo(i, P, Q, f"violations={list(report.violations)!r}")
    return SuiteResult(name, trials, failures, worst, first)


def _reference_csiszar(trials, rng, n_max):
    failures, worst, first, checks = 0, 0.0, None, 0
    for i in range(trials):
        P, Q = make_pair(rng, int(rng.integers(2, n_max + 1)))
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            summed = csiszar_sum(generator(key), P, Q)
            dev = abs(summed - direct) / (1.0 + abs(direct))
            worst = max(worst, dev)
            checks += 1
            if dev > verify.CSISZAR_TOL:
                failures += 1
                if first is None:
                    first = _echo(i, P, Q, f"key={key.label()} direct={direct!r} sum={summed!r}")
    return SuiteResult("csiszar_equiv", checks, failures, worst, first)


def _reference_sandwich(trials, rng):
    failures, worst, first = 0, math.inf, None
    for i in range(trials):
        problem = _reference_problem(rng, int(rng.integers(2, 17)))
        report = bound_report(problem, (-1.0, 0.0, 0.5, 2.0))
        for e in report.entries:
            if e.applicable:
                pe = report.exact_pe
                slack = pe - e.value if e.kind == "lower" else e.value - pe
                worst = min(worst, slack)
        bad = report.sandwich_violations()
        if bad:
            failures += 1
            if first is None:
                first = f"trial {i}: {_problem_text(problem)} violations={bad!r}"
    return SuiteResult("sandwich", trials, failures, worst, first)


def _reference_comparisons(trials, rng):
    failures, worst, first, checks = 0, math.inf, None, 0
    for i in range(trials):
        problem = _reference_problem(rng, int(rng.integers(2, 17)))
        for res in comparison_check(problem):
            checks += 1
            worst = min(worst, res.slack)
            if not res.satisfied:
                failures += 1
                if first is None:
                    first = (
                        f"trial {i}: relation={res.relation} slack={res.slack!r} "
                        f"{_problem_text(problem)}"
                    )
    return SuiteResult("comparisons", checks, failures, worst, first)


def reference_verify(trials, seed, n_max=64, corrupt=False):
    reduced = max(1, trials // 10)

    def rng(idx):
        return np.random.default_rng([seed, idx])

    return [
        _reference_chain("eq7_chain", "eq7", trials, rng(0), n_max, corrupt),
        _reference_chain("eq39_chain", "eq39", trials, rng(1), n_max, corrupt),
        _reference_csiszar(reduced, rng(2), n_max),
        verify._star_suite(),  # a fixed grid, not drawn trials
        _reference_sandwich(reduced, rng(3)),
        _reference_comparisons(reduced, rng(4)),
    ]


def test_draws_match_one_vector_at_a_time():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for n in (2, 9, 40):
        P, Q = random_strict_pair(a, n)
        P0, Q0 = make_pair(b, n)
        assert P.probs.tolist() == P0.probs.tolist()
        assert Q.probs.tolist() == Q0.probs.tolist()
    for k in (1, 3, 16):
        problem, problem0 = random_problem(a, k), _reference_problem(b, k)
        assert _problem_text(problem) == _problem_text(problem0)


def _exact(results):
    # repr keeps what == would blur: the sign of a zero, and nan
    return [(r.suite, r.checks, r.failures, repr(r.worst), r.first_failure) for r in results]


@pytest.mark.parametrize(
    "trials,seed,n_max,cells",
    [
        (1500, 7, 64, None),  # one block per suite
        (1500, 7, 64, 1 << 14),  # chains in four blocks, the last partial
        (1100, 3, 2, None),  # one alphabet size only
        (400, 9, 64, 100),  # bound suites in several blocks of several sizes
        (130, 11, 64, 16),  # many small blocks in every suite
        (200, 5, 3000, None),  # large alphabets: blocks end on the cell budget
        (25, 42, 9, 4),  # one or two trials a block
    ],
)
def test_batched_suites_equal_per_trial_definition(monkeypatch, trials, seed, n_max, cells):
    set_cpus(monkeypatch, 2)  # worker processes, which must see the budget set here
    if cells is not None:
        monkeypatch.setattr(verify, "BLOCK_CELLS", cells)
    got = run_verify(trials, seed, n_max)
    want = reference_verify(trials, seed, n_max)
    assert got == want
    assert _exact(got) == _exact(want)


@pytest.mark.parametrize("trials,seed,cells", [(40, 3, None), (1100, 9, None), (40, 3, 8)])
def test_corruption_hook_matches_per_trial_definition(monkeypatch, trials, seed, cells):
    set_cpus(monkeypatch, 2)
    if cells is not None:
        monkeypatch.setattr(verify, "BLOCK_CELLS", cells)
    got = run_verify(trials, seed, corrupt=True)
    want = reference_verify(trials, seed, corrupt=True)
    assert _exact(got) == _exact(want)
    for r in got[:2]:
        assert r.failures >= 1
        assert r.first_failure.startswith("trial 0: ")


def _sizes_ascend(block):
    lengths = block.rows.lengths
    assert lengths.tolist() == sorted(lengths.tolist())
    assert block.rows.cells == int(lengths.sum())
    for side in (block.first, block.second):
        assert side.shape == (block.rows.cells,) and side.flags.c_contiguous


def _problem_blocks(trials, rng):
    """The blocks of problems the bound suites draw."""
    return verify._blocks(trials, rng, verify.K_MAX, priors=True)


def test_large_alphabet_blocks_stay_small():
    # one block may not hold more than BLOCK_CELLS cells of either side
    rng = np.random.default_rng(1)
    for block in verify._blocks(300, rng, 5000):
        assert block.rows.cells < verify.BLOCK_CELLS + 5000
        _sizes_ascend(block)


def test_problem_blocks_end_on_the_cell_budget(monkeypatch):
    monkeypatch.setattr(verify, "BLOCK_CELLS", 50)
    drawn = 0
    cells = []
    for block in _problem_blocks(300, np.random.default_rng(2)):
        assert block.start == drawn
        assert len(block.priors) == len(block)
        drawn += len(block)
        cells.append(block.rows.cells)
        _sizes_ascend(block)
    assert drawn == 300
    # each block but the last was below the budget before its last problem (k <= 16)
    assert len(cells) > 10
    assert all(50 <= c < 50 + 16 for c in cells[:-1])


def _stage_one(block, gens):
    w1, w2, px, a2 = verify._posteriors(block)
    pe = block.in_trial_order(min_mass_sum(w1, w2, block.rows.row_sum))
    return pe, verify._averages(block, px, a2, gens)


def test_block_draws_equal_the_per_trial_draws(monkeypatch):
    # across block boundaries, each drawn pair is random_strict_pair's and
    # each problem random_problem's, bit for bit, and stage 1 of a problem's
    # report equals the problem's own exact error and averages
    monkeypatch.setattr(verify, "BLOCK_CELLS", 40)
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    blocks = 0
    for block in verify._blocks(60, a, 30):
        blocks += 1
        for i in range(len(block)):
            P, Q = random_strict_pair(b, int(b.integers(2, 31)))
            p, q = block.trial(i)
            assert (p.tolist(), q.tolist()) == (P.probs.tolist(), Q.probs.tolist())
    assert blocks > 10
    assert a.random() == b.random()

    gens = report_generators((-1.0, 0.0, 0.5, 2.0))
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    count = 0
    for block in _problem_blocks(60, a):
        assert block.start == count
        pe, averages = _stage_one(block, gens)
        for j in range(len(block)):
            count += 1
            problem = random_problem(b, int(b.integers(2, 17)))
            got = verify._checked_problem(block, j)
            assert (got.p1, got.p2) == (problem.p1, problem.p2)
            assert got.cond1.probs.tolist() == problem.cond1.probs.tolist()
            assert got.cond2.probs.tolist() == problem.cond2.probs.tolist()
            assert pe[j] == bayes_error(problem)
            assert {key: float(rows[j]) for key, rows in averages.items()} == problem_averages(
                problem, gens
            )
    assert count == 60
    assert a.random() == b.random()


def _with_bad_rows(flat_block, blocks):
    """_flat_block with entry 0 of the second side's row at each block
    position from 2 on set to -(position + 1); the blocks go to `blocks`."""

    def block(*args):
        out = flat_block(*args)
        for i in range(2, len(out)):
            _, q = out.trial(i)
            q[0] = -(i + 1.0)
        blocks.append(out)
        return out

    return block


@pytest.mark.parametrize(
    "run_suite",
    [
        lambda rng: verify._chain_suite("eq7_chain", "eq7", 20, rng, 64, False),
        lambda rng: verify._sandwich_suite(20, rng),
    ],
    ids=["eq7_chain", "sandwich"],
)
def test_earliest_rejected_row_raises_its_validation_error(monkeypatch, run_suite):
    # a drawn row that is not a distribution is a fault of the draw, not of
    # user input: an internal error naming the block's trials
    blocks = []
    monkeypatch.setattr(verify, "_flat_block", _with_bad_rows(verify._flat_block, blocks))
    with pytest.raises(RuntimeError, match=r"^drawn trials 0 to 19: a row is not a positive "):
        run_suite(np.random.default_rng(4))
    (block,) = blocks
    assert len(block) == 20


@pytest.mark.parametrize("cpus", [1, 2])
def test_rows_past_the_leaf_equal_per_trial_definition(monkeypatch, cpus):
    # rows longer than a 128-cell SUM_LEAF are summed by row_sum, the
    # others per slab, in blocks that hold both and in chunks that cut slabs
    set_cpus(monkeypatch, cpus)
    monkeypatch.setattr(kernel, "SUM_LEAF", 128)
    monkeypatch.setattr(kernel, "FLAT_CHUNK", 1000)
    got = run_verify(60, 13, 3000)
    assert _exact(got) == _exact(reference_verify(60, 13, 3000))


def test_one_size_and_one_trial_blocks_equal_per_trial_definition(monkeypatch):
    set_cpus(monkeypatch, 1)
    want = reference_verify(30, 2, 2)
    assert _exact(run_verify(30, 2, 2)) == _exact(want)  # one size, one block
    monkeypatch.setattr(verify, "BLOCK_CELLS", 1)  # one trial a block
    assert _exact(run_verify(30, 2, 2)) == _exact(want)


@pytest.mark.parametrize("cells", [None, 200])
def test_first_failure_names_a_later_trial_and_its_rows(monkeypatch, cells):
    # a negative tolerance fails the tightest trials; the first of them lies
    # in the middle of its block's buffers, and the echo names it and its rows.
    # A Csiszar tolerance of 2e-16 fails about a fifth of the sums, those a
    # few roundings off their direct value, the first of them in trial 0
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(measures, "CHAIN_TOL", -1e-5)
    monkeypatch.setattr(bounds, "COMPARISON_TOL", -1e-4)
    monkeypatch.setattr(bounds, "SANDWICH_TOL", -5e-3)
    monkeypatch.setattr(verify, "CSISZAR_TOL", 2e-16)
    if cells is not None:
        monkeypatch.setattr(verify, "BLOCK_CELLS", cells)
    got = run_verify(500, 6)
    want = reference_verify(500, 6)
    assert _exact(got) == _exact(want)
    for r in got:
        assert r.suite == "star_transform" or 0 < r.failures < r.checks
    for r in (got[0], got[1], got[4], got[5]):
        assert not r.first_failure.startswith("trial 0:")
    # the named pair and the named problem are not the first rows of their blocks
    for r, blocks in (
        (got[0], verify._blocks(500, np.random.default_rng([6, 0]), 64)),
        (got[4], _problem_blocks(50, np.random.default_rng([6, 3]))),
    ):
        i = int(r.first_failure.split(":")[0].split()[1])
        (block,) = [b for b in blocks if b.start <= i < b.start + len(b)]
        assert block.rank[i - block.start] != i - block.start


def _no_loop(*args, **kwargs):
    raise AssertionError("this bisection loop is not the one for this many averages")


@pytest.mark.parametrize("cells", [None, 40])
def test_sandwich_blocks_bisect_in_lockstep_only(monkeypatch, cells):
    # blocks of two or more problems never take the one-average float loop
    if cells is not None:
        monkeypatch.setattr(verify, "BLOCK_CELLS", cells)
    sizes = [len(b) for b in _problem_blocks(100, np.random.default_rng([9, 3]))]
    assert min(sizes) >= 2
    assert len(sizes) == 1 if cells is None else len(sizes) > 1
    want = _reference_sandwich(100, np.random.default_rng([9, 3]))
    monkeypatch.setattr(bounds, "invert_decreasing", _no_loop)
    got = verify._sandwich_suite(100, np.random.default_rng([9, 3]))
    assert _exact([got]) == _exact([want])


def test_sandwich_reports_equal_bound_report():
    # stage 2 of a block, with the lockstep lower bounds, gives each
    # problem's bound_report in its column
    grid = DEFAULT_S_GRID
    gens = report_generators(grid)
    checked = 0
    for block in _problem_blocks(300, np.random.default_rng(21)):
        pe, averages = _stage_one(block, gens)
        p1 = [block.prior(j) for j in range(len(block))]
        rows = report_rows(
            grid, p1, [1.0 - p for p in p1], averages, lambda j: verify._checked_problem(block, j)
        )
        for j in range(len(block)):
            report = bound_report(verify._checked_problem(block, j), grid)
            assert float(pe[j]) == report.exact_pe
            assert repr(column_entries(rows, j)) == repr(report.entries)
            checked += 1
    assert checked == 300


def _first_value_nan(fn):
    """fn, with the first value of its first result set to nan."""
    calls = []

    def patched(*args):
        out = np.array(fn(*args), dtype=float)
        if not calls:
            out.reshape(-1)[0] = math.nan
        calls.append(args)
        return out

    return patched


def _assert_one_nan_failure(result):
    assert result.failures == 1 and not result.ok
    assert math.isnan(result.worst)


def test_star_suite_fails_on_a_nan_symmetry_defect(monkeypatch):
    monkeypatch.setattr(verify, "star_symmetry_defect", _first_value_nan(star_symmetry_defect))
    _assert_one_nan_failure(verify._star_suite())


def test_csiszar_suite_fails_on_a_nan_row(monkeypatch):
    # the first cell of the table pass's first row, so one Csiszar sum is nan
    table_rows, made = verify._table_rows, []

    def patched(p, q):
        for row in table_rows(p, q):
            if not made:
                row.flat[0] = math.nan
            made.append(row.shape)
            yield row

    monkeypatch.setattr(verify, "_table_rows", patched)
    _assert_one_nan_failure(verify._csiszar_suite(20, np.random.default_rng(1), 8))
    assert made


def test_csiszar_suite_reads_a_block_as_a_pair_is_read(monkeypatch, passes):
    # per block one pass of the seven base sums, one of the six family sums
    # at regular orders and one table pass for the 19 Csiszar sums
    monkeypatch.setattr(verify, "BLOCK_CELLS", 2000)
    blocks = []
    draw = verify._blocks
    monkeypatch.setattr(verify, "_blocks", lambda *a: (blocks.append(b) or b for b in draw(*a)))
    verify._csiszar_suite(200, np.random.default_rng(1), 64)
    assert len(blocks) > 1
    assert passes == catalog_passes() * len(blocks)


def test_sandwich_suite_fails_on_a_nan_exact_error(monkeypatch):
    monkeypatch.setattr(verify, "min_mass_sum", _first_value_nan(verify.min_mass_sum))
    _assert_one_nan_failure(verify._sandwich_suite(20, np.random.default_rng(1)))


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _pid_suite():
    return SuiteResult("star_transform", os.getpid(), 0, 0.0)


def _star_suite_pid(monkeypatch):
    """The pid of the process that ran the star suite."""
    monkeypatch.setattr(verify, "_star_suite", _pid_suite)
    return run_verify(20, 1)[SUITE_NAMES.index("star_transform")].checks


@pytest.mark.parametrize("cpus,in_workers", [(1, False), (2, True), (8, True)])
def test_suites_run_in_workers_when_cpus_allow(monkeypatch, cpus, in_workers):
    set_cpus(monkeypatch, cpus)
    assert (_star_suite_pid(monkeypatch) != os.getpid()) == in_workers


def test_no_fork_start_method_runs_serially(monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert _star_suite_pid(monkeypatch) == os.getpid()


def _block_cells_suite():
    return SuiteResult("star_transform", verify.BLOCK_CELLS, 0, 0.0)


def test_workers_see_monkeypatched_globals(monkeypatch):
    # the workers are forked, so the cell budget a test sets is the one they use
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "BLOCK_CELLS", 5)
    monkeypatch.setattr(verify, "_star_suite", _block_cells_suite)
    assert run_verify(20, 1)[SUITE_NAMES.index("star_transform")].checks == 5


@pytest.mark.parametrize("trials,seed,n_max", [(1, 3, 200), (999, 1, 200), (2049, 42, 64)])
def test_one_cpu_runs_serially_with_the_same_results(monkeypatch, trials, seed, n_max):
    set_cpus(monkeypatch, 2)
    parallel = run_verify(trials, seed, n_max)
    set_cpus(monkeypatch, 1)
    assert _exact(run_verify(trials, seed, n_max)) == _exact(parallel)


def test_one_cpu_and_workers_agree_on_small_blocks(monkeypatch):
    # many blocks in every suite, the bound suites included
    monkeypatch.setattr(verify, "BLOCK_CELLS", 64)
    set_cpus(monkeypatch, 2)
    parallel = run_verify(300, 8)
    set_cpus(monkeypatch, 1)
    assert _exact(run_verify(300, 8)) == _exact(parallel)


def _failing_suite(*args):
    raise ZeroEntry("entry 3 is 0")


def _slow_suite(*args):
    time.sleep(60)


def _exiting_suite(*args):
    os._exit(0)


def _assert_no_child():
    # every worker is reaped: this process has no child, not even a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_parallel_run_leaves_no_worker(monkeypatch):
    set_cpus(monkeypatch, 2)
    assert all(r.ok for r in run_verify(20, 1))
    _assert_no_child()


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def test_interrupt_stops_the_workers(monkeypatch):
    # an interrupt while the sandwich suite still runs reaches the caller
    # at once, and no worker is left behind
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_sandwich_suite", _slow_suite)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            run_verify(20, 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _assert_no_child()


def test_worker_error_stops_the_other_suites(monkeypatch):
    # both chain suites fail at once; the sandwich suite, submitted first,
    # is not waited for
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_chain_suite", _failing_suite)
    monkeypatch.setattr(verify, "_sandwich_suite", _slow_suite)
    start = time.monotonic()
    with pytest.raises(ZeroEntry, match="entry 3 is 0"):
        run_verify(20, 1)
    assert time.monotonic() - start < 30
    _assert_no_child()


def test_worker_error_keeps_its_type_and_traceback(monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_csiszar_suite", _failing_suite)
    with pytest.raises(ZeroEntry, match="entry 3 is 0") as raised:
        run_verify(20, 1)
    cause = raised.value.__cause__
    assert isinstance(cause, verify._WorkerTraceback)
    assert str(cause).startswith("Traceback (most recent call last):")
    assert 'raise ZeroEntry("entry 3 is 0")' in str(cause)
    assert str(cause).endswith("ZeroEntry: entry 3 is 0\n")
    _assert_no_child()


def test_worker_that_ends_without_a_result_is_an_error(monkeypatch):
    # the worker of the comparisons suite exits while the sandwich suite
    # still runs in the other: an error at once, not a wait for either
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_comparison_suite", _exiting_suite)
    monkeypatch.setattr(verify, "_sandwich_suite", _slow_suite)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="a verify worker ended while running comparisons"):
        run_verify(20, 1)
    assert time.monotonic() - start < 30
    _assert_no_child()


def test_workers_that_end_before_any_suite_are_an_error(monkeypatch):
    # every worker exits before it takes a suite from the queue
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "_serve", lambda calls, tasks, out: None)
    with pytest.raises(RuntimeError, match="the verify workers ended without running eq7_chain"):
        run_verify(20, 1)
    _assert_no_child()


def _verify_in_daemon(conn, trials, seed):
    conn.send(_exact(run_verify(trials, seed)))
    conn.close()


def test_daemonic_caller_matches_the_serial_run(monkeypatch):
    # a daemonic multiprocessing process forks its workers with os.fork
    set_cpus(monkeypatch, 2)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_verify_in_daemon, args=(send, 300, 5), daemon=True)
    proc.start()
    send.close()
    try:
        assert recv.poll(60), "the daemonic run did not finish"
        got = recv.recv()
    finally:
        proc.join(10)
    assert not proc.is_alive()
    assert proc.exitcode == 0
    set_cpus(monkeypatch, 1)
    assert got == _exact(run_verify(300, 5))


@pytest.mark.parametrize(
    "tols", [("STAR_HALF_TOL",), ("STAR_SYM_TOL",), ("STAR_SYM_TOL", "STAR_HALF_TOL")]
)
def test_star_suite_echoes_its_first_failure(monkeypatch, capsys, tols):
    # a negative tolerance fails its check on every catalog key
    index = SUITE_NAMES.index("star_transform")
    set_cpus(monkeypatch, 1)
    clean = run_verify(20, 1)
    for tol in tols:
        monkeypatch.setattr(verify, tol, -1.0)
    g = generator(CATALOG_KEYS[0])
    problems = {  # in the suite's order
        "STAR_SYM_TOL": f"symmetry defect {star_symmetry_defect(g)!r}",
        "STAR_HALF_TOL": f"f*(1/2) = {abs(star(g, 0.5))!r}",
    }
    first = f"key={g.key}: " + "; ".join(text for tol, text in problems.items() if tol in tols)
    checks, worst = clean[index].checks, clean[index].worst
    want = SuiteResult("star_transform", checks, len(CATALOG_KEYS), worst, first)
    runs = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        runs.append(run_verify(20, 1))
    assert _exact(runs[0]) == _exact(runs[1])
    assert runs[0][index] == want
    assert runs[0][:index] + runs[0][index + 1 :] == clean[:index] + clean[index + 1 :]
    assert cli.main(["verify", "--trials", "20", "--seed", "1", "--format", "machine"]) == 1
    err = capsys.readouterr().err
    assert err == f"seed 1: 1 suite(s) failed\nstar_transform: {first}\n"
