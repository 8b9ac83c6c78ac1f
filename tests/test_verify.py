import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from conftest import make_pair, set_cpus
from divbound import verify
from divbound.bounds import TwoClassProblem, bound_report, comparison_check
from divbound.distributions import STRICT, ZeroEntry
from divbound.generators import CATALOG_KEYS, csiszar_sum, generator
from divbound.kernel import ArgumentError
from divbound.measures import _chain_report, chain_check, measure_value
from divbound.verify import (
    CSISZAR_TOL,
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
            if dev > CSISZAR_TOL:
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
    "trials,seed,n_max,block",
    [
        (1500, 7, 64, None),  # two blocks, the second partial
        (1100, 3, 2, None),  # one alphabet size only
        (130, 11, 64, 16),  # many small blocks in every suite
        (200, 5, 3000, None),  # large alphabets: blocks end on the cell budget
        (25, 42, 9, 4),
    ],
)
def test_batched_suites_equal_per_trial_definition(monkeypatch, trials, seed, n_max, block):
    set_cpus(monkeypatch, 2)  # worker processes, which must see the block size set here
    if block is not None:
        monkeypatch.setattr(verify, "BLOCK_TRIALS", block)
    got = run_verify(trials, seed, n_max)
    want = reference_verify(trials, seed, n_max)
    assert got == want
    assert _exact(got) == _exact(want)


@pytest.mark.parametrize("trials,seed,block", [(40, 3, None), (1100, 9, None), (40, 3, 8)])
def test_corruption_hook_matches_per_trial_definition(monkeypatch, trials, seed, block):
    set_cpus(monkeypatch, 2)
    if block is not None:
        monkeypatch.setattr(verify, "BLOCK_TRIALS", block)
    got = run_verify(trials, seed, corrupt=True)
    want = reference_verify(trials, seed, corrupt=True)
    assert _exact(got) == _exact(want)
    for r in got[:2]:
        assert r.failures >= 1
        assert r.first_failure.startswith("trial 0: ")


def test_large_alphabet_blocks_stay_small():
    # one block may not hold more than BLOCK_CELLS cells of either side
    rng = np.random.default_rng(1)
    for _, groups in verify._pair_blocks(300, rng, 5000):
        cells = sum(P.size for _, P, _ in groups)
        assert cells < verify.BLOCK_CELLS + 5000
        for idx, P, Q in groups:
            assert P.flags.c_contiguous and Q.flags.c_contiguous
            assert P.shape == Q.shape == (len(idx), P.shape[1])


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
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert _star_suite_pid(monkeypatch) == os.getpid()


def _block_trials_suite():
    return SuiteResult("star_transform", verify.BLOCK_TRIALS, 0, 0.0)


def test_workers_see_monkeypatched_globals(monkeypatch):
    # the workers are forked, so the block size a test sets is the one they use
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(verify, "BLOCK_TRIALS", 5)
    monkeypatch.setattr(verify, "_star_suite", _block_trials_suite)
    assert run_verify(20, 1)[SUITE_NAMES.index("star_transform")].checks == 5


@pytest.mark.parametrize("trials,seed,n_max", [(1, 3, 200), (999, 1, 200), (2049, 42, 64)])
def test_one_cpu_runs_serially_with_the_same_results(monkeypatch, trials, seed, n_max):
    set_cpus(monkeypatch, 2)
    parallel = run_verify(trials, seed, n_max)
    set_cpus(monkeypatch, 1)
    assert _exact(run_verify(trials, seed, n_max)) == _exact(parallel)


def _failing_suite(*args):
    raise ZeroEntry("entry 3 is 0")


def _slow_suite(*args):
    time.sleep(60)


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
    assert multiprocessing.active_children() == []


def _verify_in_daemon(conn, trials, seed):
    conn.send(_exact(run_verify(trials, seed)))
    conn.close()


def test_daemonic_caller_runs_serially(monkeypatch):
    # a daemonic process may not have children
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
