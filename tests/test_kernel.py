import math
import pickle
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import set_cpus
from divbound import generators, kernel
from divbound.kernel import (
    SUM_LEAF,
    SWITCH_EPS,
    ArgumentError,
    DomainError,
    ProbeFailure,
    FlatRows,
    _limit_order,
    convexity_probe,
    invert_decreasing,
    invert_decreasing_rows,
    row_sum,
    x_ln_x,
)
from divbound.generators import GENERATOR_GRID, generator


def j_of_pe(a: float) -> float:
    """(2a-1) ln(a/(1-a)): strictly decreasing on (0, 1/2]."""
    return (2.0 * a - 1.0) * math.log(a / (1.0 - a))


class TestXLnX:
    def test_continuous_extension_at_zero(self):
        assert x_ln_x(0.0) == 0.0

    def test_at_one(self):
        assert x_ln_x(1.0) == 0.0

    def test_at_e(self):
        assert x_ln_x(math.e) == pytest.approx(math.e, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            x_ln_x(-1e-9)

    def test_array_input(self):
        out = x_ln_x(np.array([0.0, 1.0, math.e]))
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(math.e, rel=1e-15)

    def test_refinement_monotone_to_zero(self):
        vals = [abs(x_ln_x(10.0**-k)) for k in range(1, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-13


class TestOrderParameter:
    """The band rule, _limit_order: the limit order whose band holds s."""

    @pytest.mark.parametrize("s", [0.0, 1e-7, -9.9e-7])
    def test_at_zero(self, s):
        assert _limit_order(s) == 0.0

    @pytest.mark.parametrize("s", [1.0, 1.0 + 1e-7, 1.0 - 9.9e-7])
    def test_at_one(self, s):
        assert _limit_order(s) == 1.0

    @pytest.mark.parametrize("s", [0.5, -1.0, 2.0, 1e-5, 1.0 + 1e-5, SWITCH_EPS])
    def test_regular(self, s):
        assert _limit_order(s) is None

    def test_non_finite_rejected(self):
        # the order is checked where it enters, by MeasureId, and so by the
        # f_inf functions that take a bare order
        for f_inf in (generators.zeta_f_inf, generators.xi_f_inf):
            for s in (math.inf, -math.inf, math.nan):
                with pytest.raises(DomainError, match="^order parameter must be finite"):
                    f_inf(s)


class TestInvertDecreasing:
    def test_example_against_grid_scan(self):
        # oracle: locate the crossing of j_of_pe on a 1e6-point grid
        target = 0.6 * math.log(4.0)  # = j_of_pe(0.2)
        grid = np.linspace(1e-12, 0.5, 1_000_000)
        vals = (2.0 * grid - 1.0) * np.log(grid / (1.0 - grid))
        idx = int(np.argmax(vals <= target))  # first grid point at/below target
        crossing = grid[idx]
        a = invert_decreasing(j_of_pe, target, 1e-12, 0.5)
        assert abs(a - crossing) < 1e-6
        assert a == pytest.approx(0.2, abs=1e-10)
        assert abs(j_of_pe(a) - target) <= 1e-12

    def test_endpoint_saturation(self):
        assert invert_decreasing(j_of_pe, j_of_pe(0.5), 1e-12, 0.5) == 0.5

    def test_clamp_at_lower_endpoint(self):
        assert invert_decreasing(j_of_pe, 1e9, 1e-12, 0.5) == 1e-12

    def test_clamp_at_upper_endpoint(self):
        assert invert_decreasing(j_of_pe, -1.0, 1e-12, 0.5) == 0.5

    def test_bad_bracket(self):
        with pytest.raises(ArgumentError):
            invert_decreasing(j_of_pe, 0.1, 0.5, 0.5)

    def test_non_finite_target(self):
        with pytest.raises(DomainError):
            invert_decreasing(j_of_pe, math.inf, 1e-12, 0.5)

    @given(st.floats(1e-3, 0.499))
    def test_round_trip(self, a_star):
        v = j_of_pe(a_star)
        a = invert_decreasing(j_of_pe, v, 1e-12, 0.5, tol=1e-12)
        assert abs(j_of_pe(a) - v) <= 1e-10

    @given(st.floats(0.05, 3.0), st.floats(1e-3, 0.499))
    def test_round_trip_exponential(self, rate, a_star):
        g = lambda a: math.exp(-rate * a)
        v = g(a_star)
        a = invert_decreasing(g, v, 1e-12, 0.5, tol=1e-12)
        assert abs(g(a) - v) <= 1e-10


def _j_np(a):
    """j_of_pe with numpy's log, which gives an array the bits it gives a
    float (math.log does not always)."""
    return (2.0 * a - 1.0) * np.log(a / (1.0 - a))


class TestInvertDecreasingRows:
    """The lockstep bisection returns invert_decreasing's result per target."""

    def _equal(self, targets, **kw):
        got = invert_decreasing_rows(_j_np, np.array(targets), 1e-12, 0.5, **kw)
        want = [invert_decreasing(_j_np, t, 1e-12, 0.5, **kw) for t in targets]
        assert got.tolist() == want

    def test_evaluator_is_bit_equal(self):
        a = np.random.default_rng(1).uniform(1e-12, 0.5, 10_000)
        assert _j_np(a).tolist() == [float(_j_np(x)) for x in a.tolist()]

    def test_seeded_targets_and_clamps(self):
        rng = np.random.default_rng(2)
        targets = [float(_j_np(a)) for a in rng.uniform(1e-12, 0.5, 500).tolist()]
        targets += [float(_j_np(1e-12)), 1e9, float(_j_np(0.5)), -1.0, 0.6 * math.log(4.0)] * 2
        self._equal(targets)

    @pytest.mark.parametrize("tol, max_iter", [(0.0, 200), (1e-12, 3), (1e-3, 0), (0.0, 20)])
    def test_stopping_rules(self, tol, max_iter):
        # tol 0: most bisections run until the bracket is exhausted
        targets = [float(_j_np(a)) for a in np.random.default_rng(3).uniform(0.01, 0.49, 50).tolist()]
        self._equal(targets, tol=tol, max_iter=max_iter)

    def test_no_targets(self):
        assert invert_decreasing_rows(_j_np, np.array([]), 1e-12, 0.5).tolist() == []

    def test_bad_bracket(self):
        with pytest.raises(ArgumentError):
            invert_decreasing_rows(_j_np, np.array([0.1]), 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_target(self, bad):
        with pytest.raises(DomainError, match=f"got {bad!r}$"):
            invert_decreasing_rows(_j_np, np.array([0.1, bad]), 1e-12, 0.5)


class TestConvexityProbe:
    def test_strictly_convex_quadratic(self):
        assert convexity_probe(lambda x: x**2, 0.1, 2.0, 101) > 0.0

    def test_concave_rejected(self):
        assert convexity_probe(lambda x: -(x**2), 0.1, 2.0, 101) < 0.0

    def test_hI_generator_nonnegative(self):
        g = generator("D_hI")
        assert convexity_probe(g.fn, 1e-3, 1e3, 301, log_spaced=True) >= 0.0

    def test_affine_shift_invariance(self):
        f = lambda x: x**2
        shifted = lambda x: x**2 + 0.7 - 1.3 * x
        lo, hi, n = GENERATOR_GRID
        a = convexity_probe(f, lo, hi, n, log_spaced=True)
        b = convexity_probe(shifted, lo, hi, n, log_spaced=True)
        assert abs(a - b) <= 1e-12

    def test_log_grid_sound_for_decreasing_convex(self):
        # piecewise-linear convex decreasing: naive unequal-triple probes
        # would reject it; the symmetric-step probe must not
        f = lambda x: np.maximum(0.0, 20.0 - x)
        assert convexity_probe(f, 1.0, 100.0, 11, log_spaced=True) >= -1e-12

    def test_non_finite_reported_with_location(self):
        def f(x):
            return np.where(x > 1.0, np.nan, x**2)

        with pytest.raises(ProbeFailure) as err:
            convexity_probe(f, 0.1, 2.0, 51)
        assert err.value.x > 1.0

    def test_bad_arguments(self):
        with pytest.raises(ArgumentError):
            convexity_probe(lambda x: x, 2.0, 1.0, 10)
        with pytest.raises(ArgumentError):
            convexity_probe(lambda x: x, 0.1, 2.0, 2)
        with pytest.raises(ArgumentError):
            convexity_probe(lambda x: x, -1.0, 2.0, 10, log_spaced=True)


def _term(p, q):
    return p * np.log(q) + q


def _cells(shape, seed):
    rng = np.random.default_rng(seed)
    # masses spread over many binades, so the summation order shows in the bits
    return np.exp(3.0 * rng.standard_normal((2,) + shape))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


_THREAD_SIZES = [SUM_LEAF + 1, 2 * SUM_LEAF, 3 * SUM_LEAF + 5, 2**20]


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class _TermError(ArithmeticError):
    pass


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    set_cpus(monkeypatch, 3)
    assert kernel.usable_cpus() == 3
    monkeypatch.delattr(kernel.os, "sched_getaffinity")  # not on every platform
    monkeypatch.setattr(kernel.os, "cpu_count", lambda: None)
    assert kernel.usable_cpus() == 1


class TestRowSum:
    """row_sum equals the whole-row np.sum bit for bit, at every size."""

    @pytest.mark.parametrize(
        "n",
        [1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 3 * 8192 + 5, 2**20, 1_000_003]
        + [SUM_LEAF - 1, SUM_LEAF, SUM_LEAF + 1, 3 * SUM_LEAF + 5],
    )
    def test_matches_single_sum(self, monkeypatch, n):
        p, q = _cells((n,), n)
        blocked = row_sum(_term, p, q)
        monkeypatch.setattr(kernel, "SUM_LEAF", n + 1)
        single = row_sum(_term, p, q)
        assert _bits(blocked) == _bits(single) == _bits(np.sum(_term(p, q)))

    # 128 cells is the smallest leaf: numpy sums a row of at most 128 cells
    # with eight accumulators instead of halving it
    @pytest.mark.parametrize("n", [129, 136, 256, 257, 1000, 4099, 12345, 100_003])
    def test_deep_trees(self, monkeypatch, n):
        p, q = _cells((n,), n)
        monkeypatch.setattr(kernel, "SUM_LEAF", 128)
        assert _bits(row_sum(_term, p, q)) == _bits(np.sum(_term(p, q)))

    @pytest.mark.parametrize("n", [129, 1000, 4099, 100_003])
    def test_threaded_deep_trees(self, monkeypatch, n):
        # more helpers than cores, switching threads as often as it can
        set_cpus(monkeypatch, 8)
        p, q = _cells((n,), n)
        monkeypatch.setattr(kernel, "SUM_LEAF", 128)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = row_sum(_term, p, q)
        finally:
            sys.setswitchinterval(interval)
        assert _bits(got) == _bits(np.sum(_term(p, q)))

    @pytest.mark.parametrize(
        "leaf, shape", [(8192, (5, 3 * 8192 + 5)), (128, (4, 1001)), (SUM_LEAF, (3, 3 * SUM_LEAF + 5))]
    )
    def test_blocks_reduce_row_by_row(self, monkeypatch, leaf, shape):
        monkeypatch.setattr(kernel, "SUM_LEAF", leaf)
        p, q = _cells(shape, shape[1])
        rows = row_sum(_term, p, q)
        assert rows.shape == (shape[0],)
        assert _bits(rows) == _bits(np.sum(_term(p, q), axis=-1))
        for i in range(shape[0]):
            assert _bits(rows[i]) == _bits(row_sum(_term, p[i], q[i]))

    @pytest.mark.parametrize("n", [8193, 3 * 8192 + 5, 2**20, SUM_LEAF + 1, 3 * SUM_LEAF + 5])
    def test_leaves_tile_the_row_in_order(self, monkeypatch, n):
        set_cpus(monkeypatch, 1)  # helper threads would visit the leaves out of order
        seen = []

        def term(p, q, extra):
            seen.append((p[0], p.shape[0], extra))
            return p + q

        p = np.arange(n, dtype=float)
        row_sum(term, p, p, "x")
        starts = [int(first) for first, _, _ in seen]
        sizes = [size for _, size, _ in seen]
        assert max(sizes) <= SUM_LEAF
        assert starts == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == n
        assert all(size % 8 == 0 for size in sizes[:-1])
        assert {extra for _, _, extra in seen} == {"x"}

    # helper threads change neither the bits nor the errors, and none
    # outlives the call
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", _THREAD_SIZES)
    def test_threads_match_single_sum(self, monkeypatch, cpus, n):
        set_cpus(monkeypatch, cpus)
        p, q = _cells((n,), n)
        assert _bits(row_sum(_term, p, q)) == _bits(np.sum(_term(p, q)))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("shape", [(2, SUM_LEAF + 1), (4, 3 * SUM_LEAF + 5)])
    def test_threaded_blocks_match_single_sum(self, monkeypatch, cpus, shape):
        set_cpus(monkeypatch, cpus)
        p, q = _cells(shape, shape[1])
        assert _bits(row_sum(_term, p, q)) == _bits(np.sum(_term(p, q), axis=-1))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", _THREAD_SIZES)
    def test_helpers_stay_within_the_cpus(self, monkeypatch, cpus, n):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(_CountedThread, "started", 0)
        monkeypatch.setattr(threading, "Thread", _CountedThread)
        leaves = []

        def term(p, q):
            leaves.append(p.shape[-1])
            return p + q

        before = threading.active_count()
        p = np.ones(n)
        assert row_sum(term, p, p) == 2.0 * n
        assert _CountedThread.started == min(cpus, len(leaves)) - 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_left_half_error_is_raised_here(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        caller = threading.get_ident()
        where = []

        def term(p, q):
            if p[0] == 0.0:  # the first leaf, in the left half
                where.append(threading.get_ident())
                raise _TermError("left half")
            return p + q

        before = threading.active_count()
        p = np.arange(3 * SUM_LEAF + 5, dtype=float)
        with pytest.raises(_TermError, match="left half"):
            row_sum(term, p, p)
        assert where and where[0] != caller  # raised on a helper
        assert threading.active_count() == before

    def test_caller_error_joins_the_helper(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        n = 3 * SUM_LEAF + 5
        left_done = []

        def term(p, q):
            if p[-1] == n - 1:  # the last leaf, computed by the caller
                raise _TermError("right half")
            left_done.append(p[0])
            return p + q

        before = threading.active_count()
        p = np.arange(n, dtype=float)
        with pytest.raises(_TermError, match="right half"):
            row_sum(term, p, p)
        assert threading.active_count() == before
        assert 0.0 in left_done  # the helper ran its half to the end

    def test_interrupt_waits_for_the_helper(self, monkeypatch):
        # Ctrl-C (here SIGALRM raising KeyboardInterrupt) while the caller
        # waits for its helper: the helper still ends before the interrupt
        # leaves row_sum
        set_cpus(monkeypatch, 2)
        left_done = []

        def term(p, q):
            if p[0] == 0.0:  # the first leaf, on the helper
                time.sleep(0.5)
                left_done.append(True)
            return p + q

        before = threading.active_count()
        p = np.arange(2 * SUM_LEAF, dtype=float)
        handler = signal.signal(signal.SIGALRM, signal.default_int_handler)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.1)
            with pytest.raises(KeyboardInterrupt):
                row_sum(term, p, p)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert left_done == [True]
        assert threading.active_count() == before

    def test_verify_forks_cleanly_after_threaded_sums(self, monkeypatch):
        from divbound.verify import run_verify

        set_cpus(monkeypatch, 2)
        p, q = _cells((2**20,), 3)
        row_sum(_term, p, q)
        parallel = repr(run_verify(300, 7))
        set_cpus(monkeypatch, 1)
        assert repr(run_verify(300, 7)) == parallel


# A process's first pair: the base, family and Csiszar table passes, with
# the minor page faults they take.  The loaded arrays stay alive, as in the
# benchmark's worker: freeing one would itself raise the thresholds.
_FIRST_PAIR_PASSES = """
import resource, sys
import numpy as np
from divbound import chain_check, csiszar_sum, generator, measure_value, validate
p, q = (np.load(path) for path in sys.argv[1:])
P, Q = validate(p), validate(q)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
chain_check(P, Q, "eq7")
measure_value("zeta:2", P, Q)
csiszar_sum(generator("J"), P, Q)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="primes glibc's malloc thresholds")
def test_a_first_long_pair_does_not_fault_its_leaves_in_afresh(tmp_path):
    """Unprimed, the first freed leaf temporary sets glibc's trim threshold
    to about 1 MiB, so every leaf's frees trim the heap and the next leaf
    faults the pages back in: about 87k faults at n = 2^20, against 2.7k
    primed."""
    rng = np.random.default_rng(7)
    paths = []
    for side in "pq":
        z = rng.standard_normal(2**20)
        e = np.exp(z - z.max())
        paths.append(str(tmp_path / f"{side}.npy"))
        np.save(paths[-1], e / e.sum())
    run = subprocess.run(
        [sys.executable, "-c", _FIRST_PAIR_PASSES, *paths], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    pair_pages = 2 * 2**20 * 8 // resource.getpagesize()
    assert int(run.stdout) < 2 * pair_pages


def _rows_term(p, q):
    """Three rows of cell terms, the first two sharing ln q."""
    lq = np.log(q)
    yield p * lq + q
    yield q * lq
    yield p - q


# each row of _rows_term as a term of its own
_ROW_TERMS = (_term, lambda p, q: q * np.log(q), lambda p, q: p - q)


def _watched_term(alive):
    """_ROW_TERMS as one multi-row term that fails if a row it yielded is
    still alive when the next is asked for."""

    def term(p, q):
        for make in _ROW_TERMS:
            assert all(ref() is None for ref in alive), "a yielded row outlived its sum"
            row = make(p, q)
            alive.append(weakref.ref(row))
            yield row
            del row

    return term


class TestMultiRowTerms:
    """A term that yields several rows gives each row's sum with the bits
    of that row summed alone, one row alive at a time."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [7, SUM_LEAF, SUM_LEAF + 1, 3 * SUM_LEAF + 5])
    def test_rows_of_a_pair(self, monkeypatch, cpus, n):
        set_cpus(monkeypatch, cpus)
        p, q = _cells((n,), n)
        got = row_sum(_rows_term, p, q)
        assert got.shape == (len(_ROW_TERMS),)
        for total, term in zip(got, _ROW_TERMS):
            assert _bits(total) == _bits(row_sum(term, p, q)) == _bits(np.sum(term(p, q)))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("shape", [(3, 1001), (2, SUM_LEAF + 1), (4, 3 * SUM_LEAF + 5)])
    def test_rows_of_a_block(self, monkeypatch, cpus, shape):
        set_cpus(monkeypatch, cpus)
        p, q = _cells(shape, shape[1])
        got = row_sum(_rows_term, p, q)
        assert got.shape == (len(_ROW_TERMS), shape[0])
        for totals, term in zip(got, _ROW_TERMS):
            assert _bits(totals) == _bits(np.sum(term(p, q), axis=-1))

    @pytest.mark.parametrize("n", [1001, 3 * SUM_LEAF + 5])
    def test_each_row_is_let_go_before_the_next_is_made(self, monkeypatch, n):
        set_cpus(monkeypatch, 1)  # one list of rows, watched by one thread
        p, q = _cells((n,), n)
        alive = []
        got = row_sum(_watched_term(alive), p, q)
        assert _bits(got) == _bits(row_sum(_rows_term, p, q))
        assert len(alive) == len(_ROW_TERMS) * -(-n // SUM_LEAF)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_flat_rows_below_and_above_the_leaf(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(kernel, "SUM_LEAF", 128)
        monkeypatch.setattr(kernel, "FLAT_CHUNK", 64)
        rows, p, q = _flat([2, 3, 8, 8, 64, 127, 128, 129, 300, 1000, 1000], 11)
        got = rows.row_sum(_rows_term, p, q)
        assert got.shape == (len(_ROW_TERMS), 11)
        for totals, term in zip(got, _ROW_TERMS):
            assert _bits(totals) == _bits(rows.row_sum(term, p, q))
            for i, cells in enumerate(_row_slices(rows)):
                assert _bits(totals[i]) == _bits(np.sum(term(p[cells], q[cells])))

    def test_flat_rows_let_each_row_go(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        monkeypatch.setattr(kernel, "FLAT_CHUNK", 64)
        rows, p, q = _flat([2, 3, 8, 8, 64, 127], 6)
        alive = []
        got = rows.row_sum(_watched_term(alive), p, q)
        assert _bits(got) == _bits(rows.row_sum(_rows_term, p, q))
        assert alive


def _flat(lengths, seed):
    """A FlatRows of ascending row lengths and two buffers of its cells."""
    rows = FlatRows(np.array(sorted(lengths)))
    p, q = _cells((rows.cells,), seed)
    return rows, p, q


def _row_slices(rows):
    return [slice(int(a), int(a + n)) for a, n in zip(rows.starts, rows.lengths)]


class TestFlatRows:
    """Every row of a flat buffer reduces with the bits of the row on its own."""

    @pytest.mark.parametrize(
        "lengths",
        [
            [5],  # one row
            [7] * 40,  # one slab
            [2, 2, 3, 9, 9, 9, 64, 127, 128, 129],
            [2, 3, 8, 8, 300, 1000, 1000, 3000],  # rows past the 128-cell leaf
        ],
    )
    @pytest.mark.parametrize("cpus, chunk", [(1, 64), (2, 64), (1, kernel.FLAT_CHUNK)])
    def test_row_sums_equal_single_row_sums(self, monkeypatch, lengths, cpus, chunk):
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(kernel, "SUM_LEAF", 128)
        monkeypatch.setattr(kernel, "FLAT_CHUNK", chunk)
        rows, p, q = _flat(lengths, len(lengths))
        got = rows.row_sum(_term, p, q)
        sums = rows.sum(p)
        for i, cells in enumerate(_row_slices(rows)):
            assert _bits(got[i]) == _bits(row_sum(_term, p[cells], q[cells]))
            assert _bits(got[i]) == _bits(np.sum(_term(p[cells], q[cells])))
            assert _bits(sums[i]) == _bits(np.sum(p[cells]))

    def test_terms_run_on_chunks_of_whole_rows(self, monkeypatch):
        # chunks of at most FLAT_CHUNK cells or one longer row, in buffer
        # order; rows past SUM_LEAF go through row_sum as (m, n) views
        monkeypatch.setattr(kernel, "SUM_LEAF", 128)
        monkeypatch.setattr(kernel, "FLAT_CHUNK", 64)
        rows = FlatRows(np.array([3, 3, 5, 20, 20, 20, 20, 100, 129, 300]))
        p = np.arange(1.0, rows.cells + 1.0)
        seen = []

        def term(p, q):
            seen.append((p.ndim, int(p.flat[0]) - 1, p.size))
            return _term(p, q)

        got = rows.row_sum(term, p, p)
        flat = [(start, size) for ndim, start, size in seen if ndim == 1]
        assert flat == [(0, 11), (11, 60), (71, 20), (91, 100)]
        assert all(ndim == 2 for ndim, _, _ in seen[len(flat) :])
        for i, cells in enumerate(_row_slices(rows)):
            assert _bits(got[i]) == _bits(row_sum(_term, p[cells], p[cells]))

    def test_per_cell_and_all(self):
        rows = FlatRows(np.array([2, 2, 3]))
        assert rows.starts.tolist() == [0, 2, 4] and rows.cells == 7
        assert rows.per_cell(np.array([1.0, 2.0, 3.0])).tolist() == [1, 1, 2, 2, 3, 3, 3]


def _error_classes(cls=kernel.DivboundError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def _all_error_classes():
    """DivboundError and its subclasses, every module of the package imported."""
    import importlib
    import pkgutil

    import divbound

    for mod in pkgutil.iter_modules(divbound.__path__):
        if not mod.name.startswith("_"):
            importlib.import_module(f"divbound.{mod.name}")
    return [kernel.DivboundError, *_error_classes()]


# Constructor arguments of the errors that take more than a message.
_ERROR_ARGS = {ProbeFailure: (0.5, math.nan)}


def test_error_classes_cover_the_package():
    names = {cls.__name__ for cls in _all_error_classes()}
    assert {"ProbeFailure", "ValidationFailure", "ParseFailure", "BoundUnavailable"} <= names


@pytest.mark.parametrize("cls", _all_error_classes(), ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    # verify's worker processes send a suite's error back to the parent by pickle
    err = cls(*_ERROR_ARGS.get(cls, ("bad input at line 3",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert repr(back.args) == repr(err.args)
    assert repr(vars(back)) == repr(vars(err))
