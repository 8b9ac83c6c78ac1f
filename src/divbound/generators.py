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
_build takes the order as MeasureId checked it, a finite float.  Two
generators are one function exactly when they share fn: both zeros, a
limit order and its base, and zeta at s and at its twin (_zeta_twin).

Every evaluation of f* runs here, as the Csiszar cell term q f(p/q) at
(p, q) = (1 - x, x): _mirrored's one rule recomputes every non-finite
value of either as p f(q/p), equal by star symmetry, unless that is nan.
_csiszar_term is the cell term of one generator, and _cell_rows the pass
of several: one row per distinct fn, each value read made once per leaf,
by a _plan made once per row_sum call (_plan_sums, which maps each key to
its fn's row).  The catalog table (csiszar_sum) and _star_rows (f* on
[0, 1], f_inf at its ends: star_extended and the bounds' averages) are
that pass.  _star_float and float_star_array's lockstep form (each point
with _star_float's bits) hand _star_cells the points where their own form
is not finite or too near 0 to run quietly.  Each generator's formula is
written once, in its closure, which the float forms call as they are.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Union

import numpy as np

from .distributions import STRICT, DiscreteDistribution, require_same_alphabet
from .kernel import DivboundError, DomainError, convexity_probe, order_divisors, row_sum
from .measures import _DIFF_COMBOS, BASE_TAGS, CATALOG_ORDERS, DIFF_TAGS, FAMILY_TAGS, MeasureId
from .measures import _frozen, _limit_base, _pair_sums

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

# Below this x, u = (1-x)/x nears the double range: the float form of f*
# overflows in numpy scalars with RuntimeWarnings (J's (u-1) ln u from
# x = 3.9e-306 down), and xi's 2/(u+1) is 0.0, whose negative power raises
# ZeroDivisionError.  Such points take the array form, which gives the
# float form's bits wherever that is finite and quiet.
_FLOAT_FORM_MIN = 1e-305

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
    v = u + 1.0
    return 0.5 * u * np.log(u) + 0.5 * v * np.log(2.0 / v)


def _f_T(u):
    v = u + 1.0
    return 0.5 * v * np.log(v / (2.0 * np.sqrt(u)))


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
# evaluates them on arrays with libm's pow (_float_pow), the power a float's
# ** takes, which numpy's array power does not always match bit for bit.


def _f_zeta(s: float, power: Callable = operator.pow) -> Callable:
    a, b = order_divisors(s)
    e = 1.0 - s
    same = e == s  # s = 1/2: the two powers are one

    def fn(u):
        # two factors that each vanish at u = 1: nothing cancels near it
        us = power(u, s)
        out = (1.0 - us) * ((us if same else power(u, e)) - 1.0) / a
        return out if b == 1.0 else out / b

    return fn


def _zeta_twin(s: float):
    """1 - s when zeta at that order has zeta_s's generator bit for bit (its
    two factors swapped, each negated exactly, and s(s - 1) rounding alike
    both ways), else None."""
    t = 1.0 - s
    return t if 1.0 - t == s and order_divisors(t) == order_divisors(s) else None


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

    def fn(u, terms=None):
        # terms: _xi_terms(u), which a cell pass makes once for all its xi orders
        w, uw, hv = _xi_terms(u) if terms is None else terms
        out = hv * (0.5 * (power(uw, e) + power(w, e)) - 1.0) / a
        if isinstance(out, np.ndarray):
            if b != 1.0:  # x / 1.0 is x: the pass is skipped
                out /= b
            over = np.isinf(out)
            if over.any():
                out[over] = carried(u[over])
        else:
            out = out / b
            if out == INF:
                out = carried(u)
        return out

    return fn


def _xi_terms(u):
    """w = 2/(u+1), u w and hv = (u+1)/2, read by every regular xi order."""
    hv = 0.5 * (u + 1.0)
    w = 1.0 / hv  # 2/(u+1) bit for bit: hv is (u+1)/2 exactly
    return w, u * w, hv


def zeta_f_inf(s) -> float:
    """f_inf of the first family: finite only for 0 < s < 1 (regular)."""
    s = MeasureId("zeta", s).s
    base = _limit_base("zeta", s)
    if base is None:
        return -1.0 / (s * (s - 1.0)) if 0.0 < s < 1.0 else INF
    return _BASE_SPECS[base][1]


def xi_f_inf(s) -> float:
    """f_inf of the second family: finite for s < 1, infinite for s >= 1."""
    s = MeasureId("xi", s).s
    base = _limit_base("xi", s)
    if base is not None:
        return _BASE_SPECS[base][1]
    if s >= 1.0:
        return INF
    try:
        return (2.0 ** (-s) - 1.0) / (2.0 * s * (s - 1.0))
    except OverflowError:
        pass
    # 2^(-s) overflows below s = -1024, while the quotient is finite down to
    # s = -1045: carry the powers of two of 2^(-s), s and s - 1 as one
    # exponent (the -1 lies far below an ulp there)
    k = math.floor(-s)
    m_s, e_s = math.frexp(s)
    m_t, e_t = math.frexp(s - 1.0)
    try:
        return math.ldexp(2.0 ** (-s - k) / (2.0 * m_s * m_t), k - e_s - e_t)
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

# Marks _build makes by fn: each regular family member's libm-pow form,
# float_star_array's form of it; what _plan makes for a difference or xi order.
_LIBM_FORMS = {}
_NEEDS = {}
_U = "u"  # the value u = p/q of a cell pass


def _combo_fn(combo) -> Callable:
    bases = tuple(_BASE_SPECS[tag][0] for _, tag in combo)

    def make(*values):  # the products summed from the int 0, as sum starts
        return sum(c * v for (c, _), v in zip(combo, values))

    def fn(u):
        return make(*(g(u) for g in bases))

    _NEEDS[fn] = {**{b: (b, (_U,)) for b in bases}, fn: (make, bases)}
    return fn


@lru_cache(maxsize=None)
def _build(tag: str, s: float | None, negative: bool = False) -> GeneratingFunction:
    # negative (the sign of s) only keys the cache, as 0.0 and -0.0 are equal keys
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
    # a family tag at a finite float order: MeasureId admits no other; a
    # zeta order whose twin comes first takes the twin's fn
    base = _limit_base(tag, s)
    if base is not None:
        fn = _BASE_SPECS[base][0]
    elif tag == "zeta" and (t := _zeta_twin(s)) is not None and t < s:
        fn = _build(tag, t, t < 0.0).fn
    else:
        fn = _FAMILY_FNS[tag](s)
        _LIBM_FORMS[fn] = _FAMILY_FNS[tag](s, _float_pow)
        if tag == "xi":
            _NEEDS[fn] = {_xi_terms: (_xi_terms, (_U,)), fn: (fn, (_U, _xi_terms))}
    return GeneratingFunction(key=f"{tag}:{s!r}", fn=fn, f_infinity=_FAMILY_F_INF[tag](s))


def generator(measure: Union[MeasureId, str]) -> GeneratingFunction:
    """Return the generator whose discrete sum reproduces the measure."""
    mid = measure if isinstance(measure, MeasureId) else MeasureId.parse(measure)
    return _build(mid.tag, mid.s, mid.s is not None and math.copysign(1.0, mid.s) < 0.0)


def star(g: GeneratingFunction, x):
    """Star transform f*(x) = x*f((1-x)/x) for x strictly inside (0, 1).

    Scalars give a float, arrays an array.  f*(x) is the Csiszar cell
    term at (1 - x, x): where x f((1-x)/x) is not finite (f passes the
    double range: Delta at x = 1e-300, xi at strongly negative orders),
    the mirrored (1-x) f(x/(1-x)) gives it, unless that is nan.
    """
    if isinstance(x, (int, float)):
        if not 0.0 < x < 1.0:
            raise DomainError("star transform requires 0 < x < 1")
        return _star_float(g.fn, float(x))
    arr = np.asarray(x, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("star transform requires 0 < x < 1")
    out = _star_cells(g.fn, arr.ravel()).reshape(arr.shape)
    return float(out) if out.ndim == 0 else out


def _star_float(fn: Callable, x: float) -> float:
    """f* of generator fn at a float in (0, 1), unchecked, in Python float
    arithmetic: the pointwise forms and the bisections call it per point,
    and it is several times cheaper than numpy scalars under errstate.
    A point below _FLOAT_FORM_MIN, or a form that is not finite or
    overflows, takes _star_cells."""
    if x >= _FLOAT_FORM_MIN:
        try:
            value = float(x * fn((1.0 - x) / x))
            if -INF < value < INF:
                return value
        except OverflowError:
            pass
    return float(_star_cells(fn, np.array([x]))[0])


def _star_cells(fn: Callable, x: np.ndarray) -> np.ndarray:
    """f* of generator fn on a 1-d array of points in (0, 1), unchecked:
    the Csiszar cell terms at (1 - x, x), mirrored where not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _csiszar_term(1.0 - x, x, fn)


def float_star(g: GeneratingFunction) -> Callable[[float], float]:
    """star(g, .) on floats in (0, 1), without star's per-call type and
    domain checks: the function a bisection inside (0, 1) evaluates."""
    return partial(_star_float, g.fn)


def _float_pow(u: np.ndarray, e: float) -> np.ndarray:
    """u ** e for finite u > 0, with the bits of Python's float power, and
    nan where that raises OverflowError.  numpy's float64 float_power calls
    libm's pow per element, as a float's ** does, where numpy's ** takes
    square, sqrt and reciprocal fast paths and a SIMD pow."""
    with np.errstate(over="ignore"):
        out = np.float_power(u, e)
    out[out == INF] = math.nan
    return out


def float_star_array(g: GeneratingFunction) -> Callable[[np.ndarray], np.ndarray]:
    """float_star(g) on an array of points in (0, 1), bit for bit per point.

    The form runs in numpy, a family member at a regular order taking its
    powers from libm's pow in one C loop (its _LIBM_FORMS entry, found by
    g.fn, whatever g's key); every other generator is numpy arithmetic,
    log and sqrt, which give an array the bits they give a float.  Points
    below _FLOAT_FORM_MIN and points where the form is not finite (a power
    or the product overflowed) take _star_cells, as from _star_float.
    """
    fn = _LIBM_FORMS.get(g.fn, g.fn)

    def f(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = x * fn((1.0 - x) / x)
        bad = ~np.isfinite(out) | (x < _FLOAT_FORM_MIN)
        if bad.any():
            out[bad] = _star_cells(g.fn, x[bad])
        return out

    return f


def star_extended(g: GeneratingFunction, x):
    """star() extended to [0, 1]: f*(0) = f*(1) = f_inf; elementwise on arrays."""
    if isinstance(x, (int, float)):
        if x == 0.0 or x == 1.0:
            return g.f_infinity
        return star(g, x)
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("star transform requires 0 < x < 1")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return next(_star_rows(_plan((g,)), arr))


def _star_rows(plan: dict, a: np.ndarray):
    """Yield star_extended(g, a) for the g of each row of a _plan, unchecked
    and with no errstate of its own: f_inf (g's, and so its fn's) at the
    ends of [0, 1], and inside the cell terms at (1 - a, a) of one pass."""
    inner = (a != 0.0) & (a != 1.0)
    x = a[inner]
    for (g, _, _), cells in zip(plan.values(), _cell_rows(1.0 - x, x, plan)):
        row = np.full(a.shape, g.f_infinity)
        row[inner] = cells
        yield row


def limit_constants(g: GeneratingFunction) -> float:
    """The stored f_inf, cross-checked against f(u) near 0 (f(0+) is f_inf
    too) and f(u)/u near infinity; raises DivboundError where it fails.

    An infinite constant needs the values to diverge: the farther one is
    inf or exceeds the nearer by more than half of it, which a convex f
    rising toward a finite limit does not do.  A finite constant cannot be
    cross-checked where a value passes the double range.
    """
    const = g.f_infinity
    for which, per_u, us in (("f(0+)", False, _U_NEAR_ZERO), ("f_inf", True, _U_NEAR_INF)):
        u = np.array(us)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            v1, v2 = (g.fn(u) / (u if per_u else 1.0)).tolist()
        if math.isinf(const):
            if not (v2 == INF or v1 > 0.0 and v2 - v1 > 0.5 * v1):
                raise DivboundError(
                    f"{g.key}: {which} cataloged as infinite but evaluations do not diverge"
                )
            continue
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise DivboundError(
                f"{g.key}: {which} evaluations overflow; cannot cross-check stored "
                f"{which}={const!r} (values {v1!r}, {v2!r} at u={us!r})"
            )
        d1, d2 = abs(v1 - const), abs(v2 - const)
        # Family tails like u^(1-s) can still be truncating at u = 1e-12; accept
        # a deviation that is provably shrinking toward the stored constant.
        if d2 > _CROSS_TOL * (1.0 + abs(const)) and not d2 < 0.5 * d1:
            raise DivboundError(
                f"{g.key}: stored {which}={const!r} fails numeric cross-check "
                f"(deviation {d2!r} at u={us[1]!r})"
            )
    return const


def _mirrored(out: np.ndarray, p: np.ndarray, q: np.ndarray, fn: Callable) -> np.ndarray:
    """The cell terms out = q f(p/q), each one that is not finite (its
    ratio, or f at it, overflowed) taken mirrored as p f(q/p), which it
    equals by star symmetry, unless that is nan: the one non-finite rule."""
    finite = np.isfinite(out)
    if not finite.all():
        bad = ~finite
        mirrored = p[bad] * fn(q[bad] / p[bad])
        out[bad] = np.where(np.isnan(mirrored), out[bad], mirrored)
    return out


def _csiszar_term(p: np.ndarray, q: np.ndarray, fn: Callable):
    return _mirrored(q * np.asarray(fn(p / q), dtype=float), p, q, fn)


def _distinct(gens) -> dict:
    """A generator of each distinct fn of gens (they share f_infinity), by fn."""
    return {g.fn: g for g in gens}


def _plan(gens) -> dict:
    """The plan of one _cell_rows pass over gens: (g, steps, drops) by each
    distinct fn.  steps are the values to make before fn's row, each
    (value, make, reads) made as make(*reads' values): fn(u), or as _NEEDS
    lists for a difference and an xi order; drops, those no later row reads."""
    distinct = _distinct(gens)
    needs = [_NEEDS.get(fn, {fn: (fn, (_U,))}) for fn in distinct]
    last = {value: i for i, row in enumerate(needs) for value in row}  # its last reader
    plan, made = {}, set()
    for i, ((fn, g), row) in enumerate(zip(distinct.items(), needs)):
        steps = tuple((value, *row[value]) for value in row if value not in made)
        made.update(row)
        plan[fn] = g, steps, tuple(value for value in row if last[value] == i)
    return plan


def _cell_rows(p: np.ndarray, q: np.ndarray, plan: dict):
    """Yield the cell terms q f(p/q) of each row of a _plan, in order, each
    with _csiszar_term's bits: u = p/q is made once, and each value once,
    kept only while a later row reads it."""
    made = {_U: p / q}
    for g, steps, drops in plan.values():
        for value, make, reads in steps:
            made[value] = make(*[made[r] for r in reads])
        row = _mirrored(q * made[g.fn], p, q, g.fn)
        for value in drops:
            del made[value]
        yield row
        del row  # let go before the next row is made


def _plan_sums(reduce: Callable, term: Callable, p, q, gens) -> dict:
    """reduce(term, p, q, _plan(gens)) by key: each key reads its fn's row."""
    plan = _plan(gens)
    rows = dict(zip(plan, reduce(term, p, q, plan)))
    return {g.key: rows[g.fn] for g in gens}


def csiszar_rows(g: GeneratingFunction, p: np.ndarray, q: np.ndarray):
    """sum q f(p/q) over the last axis, for strictly positive masses, of
    one generator: the pass of a generator outside the catalog table.

    One call serves a single pair of vectors or an (m, n) block of pairs,
    row for row bit-identical to the single-pair sums.  A cell whose term
    q f(p/q) is not finite (p/q or f overflowed) is summed as p f(q/p),
    which every catalog generator equals by star symmetry.  Where that
    overflows too, the sum is +inf, silently, as row_sum runs quietly.
    """
    return row_sum(_csiszar_term, p, q, g.fn)


#: Finite key inventory covering every catalog branch; used by the grid,
#: convexity and equivalence suites.  Family orders are chosen with tails
#: fast enough for the documented limit cross-check points.
CATALOG_KEYS = tuple(
    [MeasureId(t) for t in BASE_TAGS]
    + [MeasureId(t, s) for t in FAMILY_TAGS for s in CATALOG_ORDERS]
    + [MeasureId(t) for t in DIFF_TAGS]
)

# The catalog generators the table sums in one _cell_rows pass, by key.
_TABLE = {m.label(): generator(m) for m in CATALOG_KEYS}


def _table_sums(p: np.ndarray, q: np.ndarray, reduce: Callable) -> dict:
    """The catalog table by key, in CATALOG_KEYS order: one cell pass."""
    return _plan_sums(reduce, _cell_rows, p, q, tuple(_TABLE.values()))


def csiszar_sum(
    g: GeneratingFunction, P: DiscreteDistribution, Q: DiscreteDistribution
) -> float:
    """sum_i q_i f(p_i/q_i) under the zero conventions; +inf is a flagged value.

    The live cells, where both masses are positive, are summed as
    csiszar_rows sums them, bit for bit.  On a validated pair (probs
    read-only and owning their data) the first call for any catalog
    generator (CATALOG_KEYS) sums all 19 in one pass, a row per distinct
    function, and keeps them for later calls on the same two objects.
    """
    require_same_alphabet(P, Q)
    p, q = P.probs, Q.probs
    live = None
    if P.mode != STRICT or Q.mode != STRICT:  # validate makes strict masses > 0
        live = (p > 0.0) & (q > 0.0)
        live = None if live.all() else live
    lp, lq = (p, q) if live is None else (p[live], q[live])
    if _TABLE.get(g.key) == g and _frozen(p) and _frozen(q):
        table = _pair_sums(P, Q).kept("csiszar", partial(_table_sums, lp, lq, row_sum))
        total = float(table[g.key])
    else:
        total = float(csiszar_rows(g, lp, lq))
    if live is None:
        return total
    for one_sided, mass in (((p == 0.0) & (q > 0.0), q), ((q == 0.0) & (p > 0.0), p)):
        if np.any(one_sided):
            total += float(np.sum(mass[one_sided])) * g.f_infinity
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
