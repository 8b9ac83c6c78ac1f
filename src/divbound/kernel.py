"""Shared numeric primitives.

Everything downstream leans on five things defined here: the limit-band
classification of the family order parameter s (the closed-form limit rows
are used inside a band of half-width SWITCH_EPS around s = 0 and s = 1,
because the 1/(s(s-1)) normalisation cancels catastrophically there), the
continuous extension of x*ln(x) at zero, the cache-blocked cell sum that
every measure, Csiszar sum and posterior average reduces with, monotone
bisection for turning divergence inequalities into numeric error bounds,
and a symmetric second-difference probe that certifies convexity on a grid.

All functions are pure; concurrent use is unrestricted.
"""

from __future__ import annotations

import enum
import math
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

# Largest row that row_sum sums in one np.sum call: a leaf's float64
# temporaries (64 KiB each) stay in cache.  At n = 2^20, leaves of 8192 to
# 65536 cells ran within a few percent of each other, 4096 about 20% and
# 2048 about 60% slower; 8192 is the smallest of the fast sizes.  It must
# be at least 128: numpy sums a row of at most 128 cells with eight
# accumulators instead of halving it.
SUM_LEAF = 8192


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
        super().__init__(f"non-finite value {value!r} at x={x!r}")

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


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x*ln(y) elementwise, 0 where x == 0 (nan stays nan); no domain check."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0.0, 0.0, x * np.log(y))


def row_sum(term: Callable, p: np.ndarray, q: np.ndarray, *args):
    """np.sum(term(p, q, *args), axis=-1), evaluated in cache-sized leaves.

    numpy sums a contiguous row pairwise: it halves the row, rounds the
    split down to a multiple of 8 and recurses.  A row of more than
    SUM_LEAF cells is cut along that same tree; each leaf's terms are
    summed with np.sum and the partial sums added as numpy adds them, so
    the result equals the whole-row sum bit for bit, while every leaf's
    temporaries stay in cache.  `term` must be elementwise in the cells,
    and p, q share their shape: one vector, or an (m, n) block whose rows
    are reduced independently.
    """
    n = p.shape[-1]
    if n <= SUM_LEAF:
        return np.sum(term(p, q, *args), axis=-1)
    return _tree_sum(term, p, q, args, 0, n)


def _tree_sum(term: Callable, p: np.ndarray, q: np.ndarray, args: tuple, lo: int, n: int):
    if n <= SUM_LEAF:
        hi = lo + n
        return np.sum(term(p[..., lo:hi], q[..., lo:hi], *args), axis=-1)
    half = n // 2
    half -= half % 8
    return _tree_sum(term, p, q, args, lo, half) + _tree_sum(
        term, p, q, args, lo + half, n - half
    )


def x_ln_x(x):
    """x*ln(x) with the continuous extension x_ln_x(0) = 0.

    Accepts scalars or arrays; rejects negative inputs.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("x_ln_x requires x >= 0")
    out = _xlogy(arr, arr)
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


def _grid(lo: float, hi: float, n: int, log_spaced: bool) -> np.ndarray:
    if log_spaced:
        if lo <= 0.0:
            raise ArgumentError("log-spaced grid requires grid_lo > 0")
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def _eval_on(f: Callable, xs: np.ndarray) -> np.ndarray:
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError
        return ys
    except (TypeError, ValueError):
        return np.array([float(f(x)) for x in xs])


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
        ys = _eval_on(f, pts)
        bad = ~np.isfinite(ys)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ProbeFailure(pts[i], ys[i])
        values.append(ys)
    y0, y_minus, y_plus = values
    return float(np.min(y_minus - 2.0 * y0 + y_plus))
