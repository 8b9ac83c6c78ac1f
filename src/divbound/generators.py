"""Convex-generator catalog for the f-divergence machinery.

Every measure in scope is the discrete sum  C_f(P,Q) = sum_i q_i f(p_i/q_i)
for a convex generator f on (0, inf) with f(1) = 0, under the conventions
0*f(0/0) = 0 and 0*f(a/0) = a*f_inf where f_inf = lim f(u)/u.  The star
transform f*(x) = x*f((1-x)/x) maps generators to functions on (0, 1); it
is symmetric about 1/2 exactly when the measure is symmetric, and its
endpoint limit f*(0+) equals f_inf.  Every member is symmetric, so f*(1-),
which is f(0+), equals f_inf too: the one constant f_inf fixes both ends of
f*, and with f*(1/2) = f(1)/2 = 0 it gives every upper bound on the Bayes
error.  Finiteness of f_inf is what gates the existence of that bound.

The catalog is closed: base measures, the two families at any order s, and
the six difference measures (built as pointwise linear combinations of
their components).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .distributions import STRICT, DiscreteDistribution, require_same_alphabet
from .kernel import (
    ArgumentError,
    DivboundError,
    DomainError,
    OrderParameter,
    Regime,
    convexity_probe,
    order_divisors,
    row_sum,
)
from .measures import _DIFF_COMBOS, BASE_TAGS, DIFF_TAGS, MeasureId

LN2 = math.log(2.0)
INF = math.inf

# Standard convexity-probe grids: log-spaced on (0, inf) for generators,
# linear on (0, 1) for star transforms.
GENERATOR_GRID = (1e-3, 1e3, 301)
STAR_GRID = (1e-3, 1.0 - 1e-3, 1001)

# Grid of the star-symmetry check: 1001 interior points of (0, 1), and the
# largest defect, normalised by (1 + |f*|), that counts as symmetric.
_SYM_GRID = np.arange(1, 1002) / 1002.0
STAR_SYM_TOL = 1e-12

# Numeric cross-check points for the stored limit constants.
_U_NEAR_ZERO = (1e-6, 1e-12)
_U_NEAR_INF = (1e6, 1e12)
_CROSS_TOL = 1e-5


@dataclass(frozen=True)
class GeneratingFunction:
    """A convex generator and its limit constant, which is also f(0+)."""

    key: str
    fn: Callable  # vectorised map u in (0, inf) -> real
    f_infinity: float  # lim_{u -> inf} f(u)/u = lim_{u -> 0+} f(u)


@dataclass(frozen=True)
class LimitConstants:
    f0: float
    f1: float
    f2: float
    f_inf: float


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _f_delta(u):
    return (u - 1.0) ** 2 / (u + 1.0)


def _f_h(u):
    return 0.5 * (np.sqrt(u) - 1.0) ** 2


def _f_I(u):
    return 0.5 * u * np.log(u) + 0.5 * (u + 1.0) * np.log(2.0 / (u + 1.0))


def _f_T(u):
    return 0.5 * (u + 1.0) * np.log((u + 1.0) / (2.0 * np.sqrt(u)))


def _f_J(u):
    return (u - 1.0) * np.log(u)


def _f_psi(u):
    return (u - 1.0) ** 2 * (u + 1.0) / u


def _f_4d(u):
    return 2.0 * (u + 1.0) - (np.sqrt(u) + 1.0) * np.sqrt(2.0 * u + 2.0)


def _f_d(u):
    return 0.25 * _f_4d(u)


def _f_zeta(s: float) -> Callable:
    a, b = order_divisors(s)

    def fn(u):
        return (u**s + u ** (1.0 - s) - (u + 1.0)) / a / b

    return fn


def _f_xi(s: float) -> Callable:
    # ((u^(1-s)+1)/2 ((u+1)/2)^s - (u+1)/2) / (s(s-1)) with ((u+1)/2)^s folded
    # into both powers: the direct form is inf*0 = nan for large u and s << 0.
    a, b = order_divisors(s)

    def fn(u):
        v = u + 1.0
        w = 2.0 / v
        return 0.5 * v * (0.5 * ((u * w) ** (1.0 - s) + w ** (1.0 - s)) - 1.0) / a / b

    return fn


def zeta_f_inf(s) -> float:
    """f_inf of the first family: finite only for 0 < s < 1 (regular)."""
    op = OrderParameter.of(s)
    if op.regime is Regime.REGULAR and 0.0 < op.s < 1.0:
        return -1.0 / (op.s * (op.s - 1.0))
    return INF


def xi_f_inf(s) -> float:
    """f_inf of the second family: finite for s < 1, infinite for s >= 1."""
    op = OrderParameter.of(s)
    if op.regime is Regime.AT_ZERO:
        return 0.5 * LN2
    if op.regime is Regime.AT_ONE or op.s >= 1.0:
        return INF
    try:
        return (2.0 ** (-op.s) - 1.0) / (2.0 * op.s * (op.s - 1.0))
    except OverflowError:
        pass
    # 2^(-s) overflows below s = -1024, while the quotient is finite down to
    # s = -1045: carry the powers of two of 2^(-s), s and s - 1 as one
    # exponent (the -1 lies far below an ulp there)
    k = math.floor(-op.s)
    m_s, e_s = math.frexp(op.s)
    m_t, e_t = math.frexp(op.s - 1.0)
    try:
        return math.ldexp(2.0 ** (-op.s - k) / (2.0 * m_s * m_t), k - e_s - e_t)
    except OverflowError:
        return INF


_BASE_SPECS = {
    # tag: (fn, f_infinity)
    "Delta": (_f_delta, 1.0),
    "I": (_f_I, 0.5 * LN2),
    "h": (_f_h, 0.5),
    "d": (_f_d, 0.25 * (2.0 - math.sqrt(2.0))),
    "J": (_f_J, INF),
    "T": (_f_T, INF),
    "Psi": (_f_psi, INF),
}

def _combo_fn(combo) -> Callable:
    parts = [(c, _BASE_SPECS[tag][0]) for c, tag in combo]

    def fn(u):
        return sum(c * g(u) for c, g in parts)

    return fn


@lru_cache(maxsize=None)
def _build(tag: str, s: float | None) -> GeneratingFunction:
    if tag in BASE_TAGS:
        fn, finf = _BASE_SPECS[tag]
        return GeneratingFunction(key=tag, fn=fn, f_infinity=finf)
    if tag in DIFF_TAGS:
        # differences are the measures' linear combinations, and so are
        # their generators and limit constants
        combo = _DIFF_COMBOS[tag]
        return GeneratingFunction(
            key=tag,
            fn=_combo_fn(combo),
            f_infinity=sum(c * _BASE_SPECS[base][1] for c, base in combo),
        )
    if tag == "zeta":
        op = OrderParameter.of(s)
        fn = _f_zeta(op.s) if op.regime is Regime.REGULAR else _f_J
        return GeneratingFunction(key=f"zeta:{s!r}", fn=fn, f_infinity=zeta_f_inf(op))
    if tag == "xi":
        op = OrderParameter.of(s)
        if op.regime is Regime.AT_ZERO:
            fn = _f_I
        elif op.regime is Regime.AT_ONE:
            fn = _f_T
        else:
            fn = _f_xi(op.s)
        return GeneratingFunction(key=f"xi:{s!r}", fn=fn, f_infinity=xi_f_inf(op))
    raise ArgumentError(f"unknown generator key {tag!r}")


def generator(measure: Union[MeasureId, str]) -> GeneratingFunction:
    """Return the generator whose discrete sum reproduces the measure."""
    mid = measure if isinstance(measure, MeasureId) else MeasureId.parse(measure)
    return _build(mid.tag, mid.s)


def star(g: GeneratingFunction, x):
    """Star transform f*(x) = x*f((1-x)/x) for x strictly inside (0, 1).

    Scalars give a float, arrays an array; overflow gives +inf silently.
    """
    if isinstance(x, (int, float)):
        if not 0.0 < x < 1.0:
            raise DomainError("star transform requires 0 < x < 1")
        # Bisection calls this at every step: Python float arithmetic is
        # several times cheaper than numpy scalars under errstate.  Only a
        # float power overflow takes the array route.
        x = float(x)
        try:
            return float(x * g.fn((1.0 - x) / x))
        except OverflowError:
            pass
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("star transform requires 0 < x < 1")
    with np.errstate(over="ignore"):
        out = arr * g.fn((1.0 - arr) / arr)
    if out.ndim == 0:
        return float(out)
    return out


def star_extended(g: GeneratingFunction, x):
    """star() extended to [0, 1]: f*(0) = f*(1) = f_inf; elementwise on arrays."""
    if isinstance(x, (int, float)):
        if x == 0.0 or x == 1.0:
            return g.f_infinity
        return star(g, x)
    arr = np.asarray(x, dtype=float)
    out = np.full(arr.shape, g.f_infinity)
    inner = (arr != 0.0) & (arr != 1.0)
    out[inner] = star(g, arr[inner])
    return out


def _check_limit(g: GeneratingFunction, const: float, near_zero: bool) -> None:
    u1, u2 = _U_NEAR_ZERO if near_zero else _U_NEAR_INF

    def val(u: float) -> float:
        y = float(g.fn(u))
        return y if near_zero else y / u

    which = "f0" if near_zero else "f_inf"
    if math.isinf(const):
        if not val(u2) > val(u1) > 0.0:
            raise DivboundError(
                f"{g.key}: {which} cataloged as infinite but evaluations do not diverge"
            )
        return
    d1, d2 = abs(val(u1) - const), abs(val(u2) - const)
    tol = _CROSS_TOL * (1.0 + abs(const))
    # Family tails like u^(1-s) can still be truncating at u = 1e-12; accept
    # a deviation that is provably shrinking toward the stored constant.
    if d2 > tol and not d2 < 0.5 * d1:
        raise DivboundError(
            f"{g.key}: stored {which}={const!r} fails numeric cross-check "
            f"(deviation {d2!r} at u={u2!r})"
        )


def limit_constants(g: GeneratingFunction) -> LimitConstants:
    """f1 exactly, f0 = f_inf from the stored constant, with fn cross-checked
    against it near 0 and near infinity."""
    _check_limit(g, g.f_infinity, near_zero=True)
    _check_limit(g, g.f_infinity, near_zero=False)
    return LimitConstants(
        f0=g.f_infinity,
        f1=float(g.fn(1.0)),
        f2=g.f_infinity + g.f_infinity,
        f_inf=g.f_infinity,
    )


def _csiszar_term(p: np.ndarray, q: np.ndarray, fn: Callable):
    return q * np.asarray(fn(p / q), dtype=float)


def csiszar_rows(g: GeneratingFunction, p: np.ndarray, q: np.ndarray):
    """sum q f(p/q) over the last axis, for strictly positive masses.

    One call serves a single pair of vectors or an (m, n) block of pairs,
    row for row bit-identical to the single-pair sums.  A generator power
    that overflows gives +inf silently.
    """
    with np.errstate(over="ignore"):
        return row_sum(_csiszar_term, p, q, g.fn)


def csiszar_sum(
    g: GeneratingFunction, P: DiscreteDistribution, Q: DiscreteDistribution
) -> float:
    """sum_i q_i f(p_i/q_i) under the zero conventions; +inf is a flagged value."""
    require_same_alphabet(P, Q)
    p, q = P.probs, Q.probs
    if P.mode == STRICT and Q.mode == STRICT:
        # validate guarantees every strict entry is > 0
        return float(csiszar_rows(g, p, q))
    both = (p > 0.0) & (q > 0.0)
    if both.all():
        return float(csiszar_rows(g, p, q))
    total = float(csiszar_rows(g, p[both], q[both]))
    p_zero = (p == 0.0) & (q > 0.0)
    if np.any(p_zero):
        total += float(np.sum(q[p_zero])) * g.f_infinity
    q_zero = (q == 0.0) & (p > 0.0)
    if np.any(q_zero):
        total += float(np.sum(p[q_zero])) * g.f_infinity
    return total


def probe_generator(g: GeneratingFunction) -> float:
    """Minimum second difference of f on the standard log grid."""
    lo, hi, n = GENERATOR_GRID
    return convexity_probe(g.fn, lo, hi, n, log_spaced=True)


def probe_star(g: GeneratingFunction) -> float:
    """Minimum second difference of f* on the standard linear grid."""
    lo, hi, n = STAR_GRID
    return convexity_probe(lambda x: star(g, x), lo, hi, n, log_spaced=False)


def star_symmetry_defect(g: GeneratingFunction) -> float:
    """max over the 1001-point grid of |f*(x) - f*(1-x)| / (1 + |f*(x)|).

    nan when f* overflows on the grid (orders |s| beyond about 100).
    """
    left = star(g, _SYM_GRID)
    right = star(g, 1.0 - _SYM_GRID)
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(left - right) / (1.0 + np.abs(left))))


#: Finite key inventory covering every catalog branch; used by the grid,
#: convexity and equivalence suites.  Family orders are chosen with tails
#: fast enough for the documented limit cross-check points.
CATALOG_KEYS = tuple(
    [MeasureId(t) for t in BASE_TAGS]
    + [MeasureId("zeta", s) for s in (-1.0, 0.5, 2.0)]
    + [MeasureId("xi", s) for s in (-1.0, 0.5, 2.0)]
    + [MeasureId(t) for t in DIFF_TAGS]
)
