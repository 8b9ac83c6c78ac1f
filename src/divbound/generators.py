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

The catalog is closed: base measures, the two families at any order s (at
a limit order, the base generator that measures._limit_base names), and
the six difference measures (the pointwise combinations of _DIFF_COMBOS).

Every evaluation of f* in the package runs here, through one body per
argument kind: _star_float on a float, _star_array on an array, and the
form of float_star_array, which gives each point of a lockstep bisection
the bits _star_float gives it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

from .distributions import STRICT, DiscreteDistribution, require_same_alphabet
from .kernel import (
    DivboundError,
    DomainError,
    OrderParameter,
    convexity_probe,
    order_divisors,
    row_sum,
)
from .measures import _DIFF_COMBOS, BASE_TAGS, DIFF_TAGS, FAMILY_TAGS, MeasureId, _limit_base

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


# ---------------------------------------------------------------------------
# closed forms (a square is a product: numpy squares an array by
# multiplying, while a float's ** 2 is libm's pow, which may round otherwise)
# ---------------------------------------------------------------------------


def _f_delta(u):
    t = u - 1.0
    return t * t / (u + 1.0)


def _f_h(u):
    t = np.sqrt(u) - 1.0
    return 0.5 * (t * t)


def _f_I(u):
    return 0.5 * u * np.log(u) + 0.5 * (u + 1.0) * np.log(2.0 / (u + 1.0))


def _f_T(u):
    return 0.5 * (u + 1.0) * np.log((u + 1.0) / (2.0 * np.sqrt(u)))


def _f_J(u):
    return (u - 1.0) * np.log(u)


def _f_psi(u):
    t = u - 1.0
    return t * t * (u + 1.0) / u


def _f_4d(u):
    return 2.0 * (u + 1.0) - (np.sqrt(u) + 1.0) * np.sqrt(2.0 * u + 2.0)


def _f_d(u):
    return 0.25 * _f_4d(u)


# The family forms take their power as a parameter: float_star_array
# evaluates them on arrays with Python's float power, which numpy's array
# power does not always match bit for bit.


def _f_zeta(s: float, power: Callable = operator.pow) -> Callable:
    a, b = order_divisors(s)

    def fn(u):
        return (power(u, s) + power(u, 1.0 - s) - (u + 1.0)) / a / b

    return fn


def _f_xi(s: float, power: Callable = operator.pow) -> Callable:
    # ((u^(1-s)+1)/2 ((u+1)/2)^s - (u+1)/2) / (s(s-1)) with ((u+1)/2)^s folded
    # into both powers: the direct form is inf*0 = nan for large u and s << 0.
    a, b = order_divisors(s)
    e = 1.0 - s
    log_ab = math.log(abs(a)) + math.log(abs(b))

    def carried(u):
        # the folded form with its exponent carried, for the points where it
        # overflows (|s| large): (u w)^e + w^e - 2 = exp(L) (1 + r - 2 exp(-L))
        # with L the log of the larger power and r the smaller over the larger
        v = u + 1.0
        w = 2.0 / v
        with np.errstate(divide="ignore", over="ignore"):
            lx, ly = e * np.log(u * w), e * np.log(w)
            big = np.maximum(lx, ly)
            tail = np.log1p(np.exp(np.minimum(lx, ly) - big) - 2.0 * np.exp(-big))
            return np.exp(np.log(0.25 * v) + big + tail - log_ab)

    def fn(u):
        v = u + 1.0
        w = 2.0 / v
        out = 0.5 * v * (0.5 * (power(u * w, e) + power(w, e)) - 1.0) / a / b
        if isinstance(out, np.ndarray):
            over = np.isinf(out)
            if over.any():
                out[over] = carried(u[over])
        elif out == INF:
            out = carried(u)
        return out

    return fn


def zeta_f_inf(s) -> float:
    """f_inf of the first family: finite only for 0 < s < 1 (regular)."""
    op = OrderParameter.of(s)
    base = _limit_base("zeta", op)
    if base is None:
        return -1.0 / (op.s * (op.s - 1.0)) if 0.0 < op.s < 1.0 else INF
    return _BASE_SPECS[base][1]


def xi_f_inf(s) -> float:
    """f_inf of the second family: finite for s < 1, infinite for s >= 1."""
    op = OrderParameter.of(s)
    base = _limit_base("xi", op)
    if base is not None:
        return _BASE_SPECS[base][1]
    if op.s >= 1.0:
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

_FAMILY_FNS = {"zeta": _f_zeta, "xi": _f_xi}
_FAMILY_F_INF = {"zeta": zeta_f_inf, "xi": xi_f_inf}


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
    # a family tag: MeasureId admits no other
    op = OrderParameter.of(s)
    base = _limit_base(tag, op)
    fn = _FAMILY_FNS[tag](op.s) if base is None else _BASE_SPECS[base][0]
    return GeneratingFunction(key=f"{tag}:{s!r}", fn=fn, f_infinity=_FAMILY_F_INF[tag](op))


def generator(measure: Union[MeasureId, str]) -> GeneratingFunction:
    """Return the generator whose discrete sum reproduces the measure."""
    mid = measure if isinstance(measure, MeasureId) else MeasureId.parse(measure)
    return _build(mid.tag, mid.s)


def star(g: GeneratingFunction, x):
    """Star transform f*(x) = x*f((1-x)/x) for x strictly inside (0, 1).

    Scalars give a float, arrays an array.  Near x = 0, f can pass the
    double range while f*(x) does not (Delta at x = 1e-300, xi at strongly
    negative orders).  Every catalog member is star-symmetric, so where
    x f((1-x)/x) overflows the mirrored form (1-x) f(x/(1-x)) gives the
    value; where both overflow the result is +inf, silently.
    """
    if isinstance(x, (int, float)):
        if not 0.0 < x < 1.0:
            raise DomainError("star transform requires 0 < x < 1")
        return _star_float(g.fn, float(x))
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("star transform requires 0 < x < 1")
    out = _star_array(g.fn, arr)
    return float(out) if out.ndim == 0 else out


def _star_float(fn: Callable, x: float) -> float:
    """f* of generator fn at a float in (0, 1), unchecked, in Python float
    arithmetic: the pointwise forms and the bisections call it per point,
    and it is several times cheaper than numpy scalars under errstate.
    Only a form that overflows takes _star_array."""
    try:
        value = float(x * fn((1.0 - x) / x))
        if value != INF:
            return value
    except OverflowError:
        pass
    return float(_star_array(fn, np.asarray(x, dtype=float)))


def _star_array(fn: Callable, x: np.ndarray) -> np.ndarray:
    """f* of generator fn on an array (0-d included) of points in (0, 1),
    unchecked: the form, then the mirrored form where the form is +inf."""
    with np.errstate(over="ignore"):
        out = np.asarray(x * fn((1.0 - x) / x))  # 0-d stays an array
        over = out == INF
        if over.any():
            y = x[over]
            out[over] = (1.0 - y) * fn(y / (1.0 - y))
    return out


def float_star(g: GeneratingFunction) -> Callable[[float], float]:
    """star(g, .) on floats in (0, 1), without star's per-call type and
    domain checks: the function a bisection inside (0, 1) evaluates."""
    return partial(_star_float, g.fn)


def _float_pow(u: np.ndarray, e: float) -> np.ndarray:
    """u ** e with Python's float power (libm's pow), element by element,
    and nan where it overflows.  numpy's array power differs from it on
    some points: its square, sqrt and reciprocal fast paths and its SIMD
    pow are not libm's pow."""
    x = u.tolist()
    try:
        return np.array([v**e for v in x])
    except ArithmeticError:
        return np.array([_pow_or_nan(v, e) for v in x])


def _pow_or_nan(v: float, e: float) -> float:
    try:
        return v**e
    except ArithmeticError:
        return math.nan


def float_star_array(g: GeneratingFunction) -> Callable[[np.ndarray], np.ndarray]:
    """float_star(g) on an array of points in (0, 1), bit for bit per point.

    The form runs in numpy, a family member at a regular order taking its
    powers with _float_pow; every other generator is numpy arithmetic, log
    and sqrt, which give an array the bits they give a float.  A point
    whose value is not finite (a power or the product overflowed) takes
    _star_float.
    """
    mid = MeasureId.parse(g.key)
    fn = g.fn
    if mid.tag in FAMILY_TAGS and _limit_base(mid.tag, mid.s) is None:
        fn = _FAMILY_FNS[mid.tag](mid.s, _float_pow)

    def f(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = x * fn((1.0 - x) / x)
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = [_star_float(g.fn, v) for v in x[bad].tolist()]
        return out

    return f


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


def limit_constants(g: GeneratingFunction) -> float:
    """The stored f_inf, cross-checked against f(u) near 0 (f(0+) is f_inf
    too) and f(u)/u near infinity; raises DivboundError where it fails."""
    const = g.f_infinity
    for which, per_u, (u1, u2) in (("f(0+)", False, _U_NEAR_ZERO), ("f_inf", True, _U_NEAR_INF)):
        v1, v2 = (float(g.fn(u)) / (u if per_u else 1.0) for u in (u1, u2))
        if math.isinf(const):
            if not v2 > v1 > 0.0:
                raise DivboundError(
                    f"{g.key}: {which} cataloged as infinite but evaluations do not diverge"
                )
            continue
        d1, d2 = abs(v1 - const), abs(v2 - const)
        # Family tails like u^(1-s) can still be truncating at u = 1e-12; accept
        # a deviation that is provably shrinking toward the stored constant.
        if d2 > _CROSS_TOL * (1.0 + abs(const)) and not d2 < 0.5 * d1:
            raise DivboundError(
                f"{g.key}: stored {which}={const!r} fails numeric cross-check "
                f"(deviation {d2!r} at u={u2!r})"
            )
    return const


def _csiszar_term(p: np.ndarray, q: np.ndarray, fn: Callable):
    return q * np.asarray(fn(p / q), dtype=float)


def csiszar_rows(g: GeneratingFunction, p: np.ndarray, q: np.ndarray, reduce=None):
    """sum q f(p/q) over the last axis, for strictly positive masses.

    One call serves a single pair of vectors or an (m, n) block of pairs,
    row for row bit-identical to the single-pair sums; reduce=FlatRows.row_sum
    sums the rows of flat buffers instead.  A generator power that
    overflows gives +inf silently.
    """
    with np.errstate(over="ignore"):
        return (reduce or row_sum)(_csiszar_term, p, q, g.fn)


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

    nan where f* itself passes the double range on the grid (zeta orders
    |s| beyond about 100, xi orders s beyond about 110).  Where only f
    does, star's value is the mirrored form, which presumes this symmetry,
    so those points check little.
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
