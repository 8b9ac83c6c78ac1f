"""Shared numeric primitives.

Everything downstream leans on six things defined here: the limit-band
classification of the family order parameter s (the closed-form limit rows
are used inside a band of half-width SWITCH_EPS around s = 0 and s = 1,
because the 1/(s(s-1)) normalisation cancels catastrophically there;
order_divisors splits that normalisation in two where s(s-1) overflows), the
continuous extension of x*ln(x) at zero, the cache-blocked cell sum that
every measure, Csiszar sum and posterior average reduces with, one row or
several per pass, the flat layout of rows of several lengths in one
buffer (FlatRows), whose row sums have the bits of each row summed on its
own, monotone bisection for turning divergence inequalities into numeric
error bounds, one target at a time or many in lockstep with the same
decisions, and a symmetric second-difference probe that certifies
convexity on a grid.

All functions are pure; concurrent use is unrestricted.  row_sum splits a
long row's summation tree across helper threads, one fewer than the usable
CPUs, and joins every helper before it returns or raises.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

# Half-width of the band around s = 0 and s = 1 inside which the
# closed-form limit expressions replace the 1/(s(s-1)) formulas.  The 0/0
# form loses roughly half the significand within ~1e-6 of the singular
# points, so the switch must happen no later than that.
SWITCH_EPS = 1e-6

# Bisection defaults: tolerance on |f(mid) - target|, hard iteration cap.
BISECT_TOL = 1e-12
BISECT_MAX_ITER = 200

# Largest row that row_sum sums in one np.sum call, and so the grain of
# its helper threads.  On kernels_large_n (three n = 2^20 pairs, streamed
# base, family and Csiszar passes, heap primed; 2-vCPU x86, ten interleaved
# rounds) the median wall time was 0.33 s at 32768, 0.29 s at 65536 and
# 0.32 s at 131072 (peak RSS +8 MB); neither beat 65536 in more than 1 of
# 10 rounds.  Leaves of 8192 cells ran slower on two threads than on one:
# every ufunc call hands the GIL over.  It must be at least 128: numpy sums
# a row of at most 128 cells with eight accumulators instead of halving it.
SUM_LEAF = 65536

# Bytes of the untouched block row_sum allocates and frees once per process,
# before its first row longer than SUM_LEAF.  On glibc, freeing an mmapped
# block raises the mmap threshold to its size and the trim threshold to
# twice that (mallopt(3)).  Unprimed, the first freed 512 KiB leaf temporary
# leaves a 1 MiB trim threshold, below a Csiszar table leaf's ten or so
# temporaries per thread, so each leaf trims the heap and the next faults
# it back in.  4 MiB was the least block that stopped that at n = 2^20 on
# two threads; 32 MiB, with its header, is past glibc's cap and moves nothing.
HEAP_PRIME_BYTES = 16 << 20

# The floating-point policy of every cell pass: a term may divide by zero,
# make 0/0 or overflow, and keeps or replaces the IEEE value without a warning.
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}

# Cells of the rows a FlatRows.row_sum term runs on at once, so that the
# term's temporaries stay small.  On the chain suites of verify --trials
# 10000 (seed 1, blocks of 2^16 cells, one core of a 2-vCPU x86 host, 8
# interleaved pairs) a whole-block pass was slower in 7 of 8 pairs: eq7
# took 170 ms against 140 ms at 16384 (medians), eq39 153 against 133 ms,
# and the traced peak was 6.9 MB against 3.8 MB for eq7.
FLAT_CHUNK = 16384


class DivboundError(Exception):
    """Base class for all library errors."""


class DomainError(DivboundError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ArgumentError(DivboundError, ValueError):
    """Arguments are structurally invalid (bad bracket, bad sizes, ...)."""


class ProbeFailure(DivboundError):
    """Convexity probe hit a non-finite function value."""

    def __init__(self, x: float, value: float):
        self.x = float(x)
        self.value = float(value)
        super().__init__(f"non-finite value {self.value!r} at x={self.x!r}")

    def __reduce__(self):
        # the default rebuilds from self.args, the message alone
        return type(self), (self.x, self.value), self.__dict__


class Regime(enum.Enum):
    AT_ZERO = "at_zero"
    AT_ONE = "at_one"
    REGULAR = "regular"


@dataclass(frozen=True)
class OrderParameter:
    """Real family index s together with its limit-point classification."""

    s: float

    @property
    def regime(self) -> Regime:
        if abs(self.s) < SWITCH_EPS:
            return Regime.AT_ZERO
        if abs(self.s - 1.0) < SWITCH_EPS:
            return Regime.AT_ONE
        return Regime.REGULAR

    @classmethod
    def of(cls, value: Union[float, "OrderParameter"]) -> "OrderParameter":
        if isinstance(value, OrderParameter):
            return value
        s = float(value)
        if not math.isfinite(s):
            raise DomainError(f"order parameter must be finite, got {s!r}")
        return cls(s)


def order_divisors(s: float) -> tuple:
    """(a, b) such that x / a / b is the family normalisation x / (s(s-1)).

    Normally (s(s-1), 1.0): dividing by 1.0 is exact, so x / a / b has the
    bits of x / (s(s-1)).  Where s(s-1) overflows (|s| above about
    1.34e154) it is (s, s - 1), so an infinite x stays inf instead of
    becoming inf/inf = nan.
    """
    a = s * (s - 1.0)
    if math.isinf(a):
        return s, s - 1.0
    return a, 1.0


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def row_sum(term: Callable, p: np.ndarray, q: np.ndarray, *args):
    """np.sum(term(p, q, *args), axis=-1), evaluated in cache-sized leaves.

    numpy sums a contiguous row pairwise: it halves the row, rounds the
    split down to a multiple of 8 and recurses.  A row of more than
    SUM_LEAF cells is cut along that same tree; each leaf's terms are
    summed with np.sum and the partial sums added as numpy adds them, so
    the result equals the whole-row sum bit for bit, while every leaf's
    temporaries stay in cache.  p and q share their shape: one vector, or
    an (m, n) block whose rows are reduced independently.  `term` is
    elementwise in the cells.  It returns one array of cell terms, or
    yields several rows of them that share the leaf's intermediates; each
    is reduced and let go before the next is asked for, and the result
    has one leading entry per row, each with the bits of that row summed
    alone.

    The term and the sums run under np.errstate(**_QUIET), on up to
    usable_cpus() - 1 helper threads besides this one, which take halves
    of the tree (numpy releases the GIL inside its loops).  Each helper
    runs in a copy of the caller's context, so np.errstate reaches it; an
    exception raised in a helper is raised here, and every helper is
    joined before row_sum returns or raises.
    """
    if p.shape[-1] > SUM_LEAF:
        _prime_heap()
    with np.errstate(**_QUIET):
        return _tree_sum(term, p, q, args, 0, p.shape[-1], usable_cpus() - 1)


@functools.cache
def _prime_heap() -> None:
    np.empty(HEAP_PRIME_BYTES, dtype=np.uint8)


def _sum_rows(made, total: Callable):
    """total of the array a term made, or of each row it yields, in turn."""
    if isinstance(made, np.ndarray):
        return total(made)
    sums = []
    for row in made:
        sums.append(total(row))
        del row  # let go before the next row is made, which may reuse its memory
    return np.array(sums)


def _last_axis_sum(cells: np.ndarray):
    return np.add.reduce(cells, axis=-1)


def _tree_sum(
    term: Callable, p: np.ndarray, q: np.ndarray, args: tuple, lo: int, n: int, helpers: int
):
    if n <= SUM_LEAF:
        hi = lo + n
        return _sum_rows(term(p[..., lo:hi], q[..., lo:hi], *args), _last_axis_sum)
    half = n // 2
    half -= half % 8
    if helpers <= 0:
        return _tree_sum(term, p, q, args, lo, half, 0) + _tree_sum(
            term, p, q, args, lo + half, n - half, 0
        )
    # a helper takes the left half and half of the helpers left over
    helpers -= 1
    left = _Helper(term, p, q, args, lo, half, helpers // 2)
    try:
        right = _tree_sum(term, p, q, args, lo + half, n - half, helpers - helpers // 2)
    finally:
        left.join()
    return left.result() + right


class _Helper:
    """_tree_sum of one subtree on a thread, in a copy of the caller's
    context: np.errstate is context-local, and a new thread starts from the
    defaults."""

    def __init__(self, *tree_args):
        self._out = None
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._run, tree_args)
        )
        self._thread.start()

    def _run(self, tree_args):
        try:
            self._out = _tree_sum(*tree_args)
        except BaseException as exc:  # raised again in the caller
            self._out = exc
        finally:
            self._done.set()

    def join(self):
        """Wait for the subtree, also through an interrupt (Ctrl-C), which
        is raised once the helper has ended.  The event, not Thread.join,
        decides: in Python 3.11 an interrupted join marks the thread
        stopped while it still runs."""
        interrupt = None
        while not self._done.is_set():
            try:
                self._done.wait()
            except BaseException as exc:
                interrupt = exc
        self._thread.join()
        if interrupt is not None:
            raise interrupt

    def result(self):
        if isinstance(self._out, BaseException):
            raise self._out
        return self._out


class FlatRows:
    """The layout of rows of several lengths packed into one flat buffer.

    Rows of one length n form a slab, a C-contiguous (m, n) run of the
    buffer, and the slabs follow one another by ascending n.  Elementwise
    steps run over many rows at once; only the row sums run per slab, on
    its (m, n) view, so each row sums exactly as it does on its own.
    """

    __slots__ = ("lengths", "starts", "cells", "_chunks")

    def __init__(self, lengths: np.ndarray):
        """lengths: the row lengths in buffer order, ascending, each >= 1."""
        ends = np.cumsum(lengths)
        self.lengths = lengths
        self.starts = ends - lengths
        self.cells = int(ends[-1])
        starts = self.starts.tolist()
        cuts = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(lengths)]
        # runs of whole rows of at most FLAT_CHUNK cells (or one longer row),
        # each a list of pieces of slabs: (first row, end row, first cell,
        # end cell, n)
        self._chunks = []
        chunk = []
        for r0, r1, n in zip(cuts, cuts[1:], lengths[cuts[:-1]].tolist()):
            step = max(1, FLAT_CHUNK // n)
            for a in range(r0, r1, step):
                b = min(a + step, r1)
                piece = (a, b, starts[a], starts[a] + (b - a) * n, n)
                if chunk and piece[3] - chunk[0][2] > FLAT_CHUNK:
                    self._chunks.append(chunk)
                    chunk = []
                chunk.append(piece)
        self._chunks.append(chunk)

    def per_cell(self, values: np.ndarray) -> np.ndarray:
        """One value per row, repeated over the row's cells."""
        return np.repeat(values, self.lengths)

    def sum(self, cells: np.ndarray) -> np.ndarray:
        """np.sum over each row of a buffer (np.add.reduce is np.sum
        without its Python wrapper)."""
        out = np.empty(len(self.lengths))
        for chunk in self._chunks:
            for r0, r1, c0, c1, n in chunk:
                out[r0:r1] = np.add.reduce(cells[c0:c1].reshape(r1 - r0, n), axis=-1)
        return out

    def row_sum(self, term: Callable, p: np.ndarray, q: np.ndarray, *args) -> np.ndarray:
        """kernel.row_sum of each row of the buffers p and q.

        The term runs once per chunk of rows, and each piece of a slab in
        each row of cell terms it makes is summed as an (m, n) array.  A
        chunk with rows longer than SUM_LEAF goes through row_sum piece by
        piece.  (np.add.reduceat would sum each row sequentially, with
        other bits.)  It runs under np.errstate(**_QUIET), as row_sum does.
        """
        parts = []  # the row sums of each chunk, in buffer order
        with np.errstate(**_QUIET):
            for chunk in self._chunks:
                if chunk[-1][4] > SUM_LEAF:  # n ascends: the last piece holds the longest rows
                    for r0, r1, c0, c1, n in chunk:
                        rows = (x[c0:c1].reshape(r1 - r0, n) for x in (p, q))
                        parts.append(row_sum(term, *rows, *args))
                    continue
                first, end = chunk[0][2], chunk[-1][3]

                def total(cells):  # the chunk's row sums, slab piece by slab piece
                    return np.concatenate([
                        np.add.reduce(cells[c0 - first : c1 - first].reshape(r1 - r0, n), axis=-1)
                        for r0, r1, c0, c1, n in chunk
                    ])

                parts.append(_sum_rows(term(p[first:end], q[first:end], *args), total))
        return np.concatenate(parts, axis=-1)


def x_ln_x(x):
    """x*ln(x) with the continuous extension x_ln_x(0) = 0.

    Accepts scalars or arrays; rejects negative inputs.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("x_ln_x requires x >= 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr == 0.0, 0.0, arr * np.log(arr))
    if np.ndim(x) == 0:
        return float(out)
    return out


def invert_decreasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tol: float = BISECT_TOL,
    max_iter: int = BISECT_MAX_ITER,
) -> float:
    """Invert a strictly decreasing function by bisection.

    Returns a in [lo, hi] with |f(a) - target| driven below tol, stopping
    early once the bracket is exhausted at double precision.  Targets above
    f(lo) clamp to lo, targets below f(hi) clamp to hi; the clamped
    endpoints signal a vacuous or saturated bound to the caller.
    """
    if not (lo < hi):
        raise ArgumentError(f"invalid bracket: lo={lo!r} >= hi={hi!r}")
    target = float(target)
    if not math.isfinite(target):
        raise DomainError(f"target must be finite, got {target!r}")

    f_lo = f(lo)
    if target >= f_lo:
        return float(lo)
    f_hi = f(hi)
    if target <= f_hi:
        return float(hi)

    a, b = float(lo), float(hi)
    mid = 0.5 * (a + b)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        if abs(f_mid - target) <= tol:
            return mid
        if mid <= a or mid >= b:
            # bracket exhausted at double precision
            return mid
        if f_mid > target:
            a = mid
        else:
            b = mid
    return mid


def invert_decreasing_rows(
    f: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    lo: float,
    hi: float,
    tol: float = BISECT_TOL,
    max_iter: int = BISECT_MAX_ITER,
) -> np.ndarray:
    """invert_decreasing of one function at many finite targets, in lockstep.

    f maps an array of points to the function's values.  Every step
    halves each live bracket with one call of f on all their midpoints and
    makes invert_decreasing's decisions element by element, so where f
    equals the scalar function bit for bit, each result equals
    invert_decreasing's for its target.
    """
    if not (lo < hi):
        raise ArgumentError(f"invalid bracket: lo={lo!r} >= hi={hi!r}")
    t = np.array(targets, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError(f"target must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    f_lo, f_hi = f(np.array([lo, hi], dtype=float)).tolist()
    at_lo = t >= f_lo
    out = np.where(at_lo, float(lo), float(hi))
    live = np.flatnonzero(~(at_lo | (t <= f_hi)))
    t = t[live]
    a = np.full(live.size, float(lo))
    b = np.full(live.size, float(hi))
    mid = 0.5 * (a + b)
    for _ in range(max_iter):
        if not live.size:
            break
        mid = 0.5 * (a + b)
        f_mid = f(mid)
        # converged, or the bracket exhausted at double precision
        stop = (np.abs(f_mid - t) <= tol) | (mid <= a) | (mid >= b)
        out[live[stop]] = mid[stop]
        up = f_mid > t
        a = np.where(up, mid, a)
        b = np.where(up, b, mid)
        keep = ~stop
        live, t, a, b, mid = live[keep], t[keep], a[keep], b[keep], mid[keep]
    out[live] = mid  # the last midpoint, as invert_decreasing returns it
    return out


def _grid(lo: float, hi: float, n: int, log_spaced: bool) -> np.ndarray:
    if log_spaced:
        if lo <= 0.0:
            raise ArgumentError("log-spaced grid requires grid_lo > 0")
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def convexity_probe(
    f: Callable,
    grid_lo: float,
    grid_hi: float,
    n_points: int,
    log_spaced: bool = False,
) -> float:
    """Minimum symmetric second difference of f over a grid.

    At each interior grid point x the probe evaluates
    f(x - d) - 2 f(x) + f(x + d) with d the smaller of the two neighbouring
    gaps; for any convex f this quantity is nonnegative, so callers assert
    the returned minimum >= -tolerance.  Log-spaced grids are used for
    generators on (0, inf), linear grids for star transforms on (0, 1).
    f is called on arrays of grid points, one value per point, quietly: a
    value that is not finite raises ProbeFailure, and no RuntimeWarning.
    """
    if not (grid_lo < grid_hi):
        raise ArgumentError(f"invalid grid: lo={grid_lo!r} >= hi={grid_hi!r}")
    if n_points < 3:
        raise ArgumentError(f"n_points must be >= 3, got {n_points}")

    xs = _grid(float(grid_lo), float(grid_hi), int(n_points), log_spaced)
    centre = xs[1:-1]
    step = np.minimum(centre - xs[:-2], xs[2:] - centre)

    values = []
    for pts in (centre, centre - step, centre + step):
        with np.errstate(**_QUIET):
            ys = np.asarray(f(pts), dtype=float)
        bad = ~np.isfinite(ys)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ProbeFailure(pts[i], ys[i])
        values.append(ys)
    y0, y_minus, y_plus = values
    return float(np.min(y_minus - 2.0 * y0 + y_plus))
