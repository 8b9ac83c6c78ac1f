"""Symmetric divergence measures between finite discrete distributions.

Seven base measures (triangular discrimination, Jensen-Shannon, Hellinger,
d-divergence, J-divergence, arithmetic-geometric divergence, symmetric
chi-square), two one-parameter families interpolating them, the six
nonnegative differences among the upper-boundable four, and checkers for
the two inequality chains the measures satisfy.

Family conventions.  zeta_s uses the 1/(s(s-1)) normalisation and reduces
to the J-divergence at s in {0, 1}; it is invariant under s <-> 1-s.  xi_s
is implemented in the parametrization

    xi_s = [s(s-1)]^(-1) [ sum ((p^(1-s)+q^(1-s))/2) ((p+q)/2)^s  -  1 ],

which places the Jensen-Shannon divergence at s = 0 and the
arithmetic-geometric divergence at s = 1, so that

    xi_{-1} = Delta/4,   xi_0 = I,   xi_{1/2} = 4 d,   xi_1 = T,
    xi_2 = Psi/16.

(The mirrored s <-> 1-s indexing also appears in the literature; convert
with s_mirror = 1 - s.)

Zero entries (permissive mode): J, Psi and T blow up on cells where exactly
one mass vanishes and the value is reported as +inf; Delta, h, d and I stay
finite under the 0*ln(0) = 0 convention.  Cells where both masses vanish
contribute nothing to any measure.

Shared base and family sums.  Each base measure is a scaled row of
_base_rows, which makes any set of them in one pass.  A difference combines
two base measures (_DIFF_COMBOS), a chain lists scaled base or difference
measures (_CHAIN_LINKS), and a family at a limit order is the base measure
that _limit_base names, so a pair has seven distinct base sums.  A family
member's order is checked and made a float once, by MeasureId, and
kernel._limit_order is the one rule that puts it in a limit band.  A family
member at a regular order is a normalised row of _family_rows, which makes
any set of orders in one pass: each power of p and q once, kept for its
leaf, and (p+q)/2 once, its powers made where an order reads them.  A
BaseSums read (one measure, a list of them, or a chain) sums the bases it
needs and the table lacks in one pass, and the family orders in one more,
and keeps them.  The pair-level calls (measure_value,
base_measure, difference_measure, zeta, xi, chain_check) reuse the table of
the most recent validated pair: when P and Q are the same objects as in the
previous call and both probs arrays are read-only and own their data, as
validate makes them, its sums are not summed again.  Its first read of a
catalog family order sums all six (CATALOG_ORDERS of zeta and xi), and
generators.csiszar_sum keeps the 19 catalog Csiszar sums of its one pass
there too.  Any other pair is summed afresh, to the same bits.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .distributions import DiscreteDistribution, require_same_alphabet
from .kernel import ArgumentError, DomainError, _limit_order, order_divisors, row_sum

# Relative slack tolerance for the inequality chains, scaled by the larger
# side: absolute slacks shrink quadratically as P -> Q.
CHAIN_TOL = 1e-9

BASE_TAGS = ("Delta", "I", "h", "d", "J", "T", "Psi")
# difference = c1 * base1 + c2 * base2, as ((c1, base1), (c2, base2))
_DIFF_COMBOS = {
    "D_dDelta": ((4.0, "d"), (-0.25, "Delta")),
    "D_dh": ((4.0, "d"), (-1.0, "h")),
    "D_dI": ((4.0, "d"), (-1.0, "I")),
    "D_hI": ((1.0, "h"), (-1.0, "I")),
    "D_hDelta": ((1.0, "h"), (-0.25, "Delta")),
    "D_IDelta": ((1.0, "I"), (-0.25, "Delta")),
}
DIFF_TAGS = tuple(_DIFF_COMBOS)
FAMILY_TAGS = ("zeta", "xi")

_ALIASES = {
    "delta": "Delta",
    "triangular": "Delta",
    "i": "I",
    "jensen-shannon": "I",
    "js": "I",
    "h": "h",
    "hellinger": "h",
    "d": "d",
    "ddivergence": "d",
    "j": "J",
    "jdivergence": "J",
    "t": "T",
    "arithgeo": "T",
    "psi": "Psi",
    "symchisq": "Psi",
}
_ALIASES.update({t.lower(): t for t in DIFF_TAGS})


@dataclass(frozen=True)
class MeasureId:
    """Tag naming one measure: a base symbol, a family member, or a difference.

    A family member's order s is checked and made a float here, once: every
    later reader takes it as a finite float.
    """

    tag: str
    s: Optional[float] = None

    def __post_init__(self):
        if self.tag in FAMILY_TAGS:
            if self.s is None:
                raise ArgumentError(f"family tag {self.tag!r} requires an s value")
            s = float(self.s)
            if not math.isfinite(s):
                raise DomainError(f"order parameter must be finite, got {s!r}")
            object.__setattr__(self, "s", s)  # frozen: set once, before any reader
        elif self.tag in BASE_TAGS or self.tag in DIFF_TAGS:
            if self.s is not None:
                raise ArgumentError(f"tag {self.tag!r} carries no s value")
        else:
            raise ArgumentError(f"unknown measure tag {self.tag!r}")

    @classmethod
    def parse(cls, spec: str) -> "MeasureId":
        """Parse a measure spec string: a documented name or 'zeta:S' / 'xi:S'."""
        text = spec.strip()
        if ":" in text:
            head, _, tail = text.partition(":")
            head = head.strip().lower()
            if head not in FAMILY_TAGS:
                raise ArgumentError(f"unknown family {head!r} in measure spec {spec!r}")
            try:
                s = float(tail)
            except ValueError:
                raise ArgumentError(f"bad s value {tail!r} in measure spec {spec!r}")
            if not math.isfinite(s):
                raise ArgumentError(f"s must be finite in measure spec {spec!r}")
            return cls(head, s)
        key = _ALIASES.get(text.lower())
        if key is None:
            raise ArgumentError(f"unknown measure {spec!r}")
        return cls(key)

    def label(self) -> str:
        if self.tag in FAMILY_TAGS:
            return f"{self.tag}:{self.s!r}"
        return self.tag


# The base measure each family equals at the limit orders s = 0 and s = 1.
_LIMIT_BASES = {"zeta": {0.0: "J", 1.0: "J"}, "xi": {0.0: "I", 1.0: "T"}}


def _limit_base(family: str, s: float) -> Optional[str]:
    """The base tag that family member s reduces to inside the limit band of
    s = 0 or s = 1 (kernel._limit_order), or None at a regular order."""
    return _LIMIT_BASES[family].get(_limit_order(s))


# ---------------------------------------------------------------------------
# raw-array measure kernels (inputs are validated nonnegative vectors)
#
# Each kernel is a per-cell term summed by kernel.row_sum over the last
# axis, so one call serves a single pair of (n,) vectors and an (m, n)
# block of m same-size pairs alike.  Row i of a C-contiguous block gives
# the value of pair i bit for bit: every term is elementwise, and numpy sums
# each row exactly as it sums the row on its own.  The terms run as quietly
# as row_sum runs them.  Each row is its plain closed form, which a mass of
# zero, or an underflow, turns into 0/0 or 0*inf = nan on some cells; only
# those cells are recomputed (_mend), under the 0 ln 0 = 0 convention or in
# a form that does not underflow.  A subnormal mass overflows the Psi term
# to inf, as Psi itself does.
# ---------------------------------------------------------------------------


def _mend(row: np.ndarray, cells, fix: Callable, *args) -> np.ndarray:
    """row, each nan cell replaced by fix(*cells at the nan cells, *args)."""
    bad = np.isnan(row)
    if bad.any():
        row[bad] = fix(*(c[bad] for c in cells), *args)
    return row


def _dead() -> float:
    """The term of a dead cell, where both masses vanish: nothing."""
    return 0.0


def _times_log(x: np.ndarray, log_y: np.ndarray) -> np.ndarray:
    """x * log_y, 0 where x == 0: the 0 ln 0 = 0 convention."""
    return np.where(x == 0.0, 0.0, x * log_y)


def _delta_cells(p: np.ndarray, q: np.ndarray, s: np.ndarray, sq: np.ndarray):
    t = _mend(sq / s, (), _dead)  # 0/0 only on a dead cell
    # 0 where p != q only if (p - q)^2 underflowed (both masses subnormal);
    # only those cells are recomputed, in an order that does not underflow
    zero = t == 0.0
    if zero.any():
        bad = zero & (p != q)
        p, q = p[bad], q[bad]
        d = p - q
        t[bad] = d / (p + q) * d
    return t


def _psi_ratio(p: np.ndarray, q: np.ndarray):
    # the Psi term without underflow; a dead cell is 0
    d = p - q
    return np.where(p + q > 0.0, (d / p) * (d / q) * (p + q), 0.0)


def _psi_cells(p: np.ndarray, q: np.ndarray, s: np.ndarray, sq: np.ndarray):
    # 0/0 where both masses vanish, or where (p - q)^2 and p q underflow
    return _mend(sq * s / (p * q), (p, q), _psi_ratio)


def _i_cells(p, q, s, lp, lq, lm, times: Callable = np.multiply):
    return times(p, lp) + times(q, lq) - times(s, lm)


def _base_rows(p: np.ndarray, q: np.ndarray, tags):
    """Yield the cell terms of each base measure in tags, in _BASE_SCALES order:
    each its closed form, with the operations it has when summed alone.
    The intermediates rows share (p + q, p - q, its square, the logs of p,
    q and (p+q)/2, the roots of p and q) are made once, and each is
    dropped after the last row that reads it."""
    s = p + q
    if "h" in tags or "d" in tags:
        rp, rq = np.sqrt(p), np.sqrt(q)
        if "h" in tags:
            yield (rp - rq) ** 2
        if "d" in tags:
            yield 0.5 * (rp + rq) * np.sqrt(0.5 * s)
        del rp, rq
    diff = p - q
    if "Delta" in tags or "Psi" in tags:
        sq = diff**2
        if "Delta" in tags:
            yield _delta_cells(p, q, s, sq)
        if "Psi" in tags:
            yield _psi_cells(p, q, s, sq)
        del sq
    if "J" in tags or "I" in tags or "T" in tags:
        lp, lq = np.log(p), np.log(q)
        if "J" in tags:
            yield _mend(diff * (lp - lq), (), _dead)  # 0 * nan only on a dead cell
        del diff
        if "I" in tags or "T" in tags:
            m = 0.5 * s
            lm = np.log(m)
            if "I" in tags:
                # nan where a mass vanishes: those cells take 0 ln 0 = 0
                cells = (p, q, s, lp, lq, lm)
                yield _mend(_i_cells(*cells), cells, _i_cells, _times_log)
            if "T" in tags:
                # nan (0 * -inf) only where m == 0, on a dead cell
                yield _mend(m * lm - 0.5 * m * (lp + lq), (), _dead)


# Each base measure's scale, in the order _base_rows yields the rows: the
# measure is scale times its row sum, and d, the one negative scale, is 1 -
# its row sum.  1.0 * x and 1.0 + (-1.0 * x) have the bits of x and 1.0 - x;
# an offset of 0.0 for the other rows would turn -0.0 into +0.0.
_BASE_SCALES = {"h": 0.5, "d": -1.0, "Delta": 1.0, "Psi": 1.0, "J": 1.0, "I": 0.5, "T": 1.0}


# The direct family terms read their powers of p and q through power(base,
# e), so one leaf of _family_rows makes each power once for all its orders,
# and xi's powers of m = (p+q)/2, each read by one order, from the m the
# leaf makes once.  The direct term is inf*0 = nan where one power overflows and the
# other underflows (|s| large, small masses); only those cells are
# recomputed in the ratio form, which has no such product and gives 0 on a
# cell where both masses vanish.


def _zeta_direct(power: Callable, m: Optional[np.ndarray], s: float):
    return power("p", s) * power("q", 1.0 - s) + power("p", 1.0 - s) * power("q", s)


def _zeta_ratio(p: np.ndarray, q: np.ndarray, s: float):
    # hi * (r^s + r^(1-s)) with r = lo/hi <= 1: the direct term, symmetric in p, q
    hi = np.maximum(p, q)
    r = np.minimum(p, q) / hi
    return np.where(hi > 0.0, hi * (r**s + r ** (1.0 - s)), 0.0)


def _xi_direct(power: Callable, m: np.ndarray, s: float):
    return 0.5 * (power("p", 1.0 - s) + power("q", 1.0 - s)) * m**s


def _xi_ratio(p: np.ndarray, q: np.ndarray, s: float):
    # m ((p/m)^(1-s) + (q/m)^(1-s)) / 2 with m = (p+q)/2, so p/m, q/m <= 2
    m = 0.5 * (p + q)
    return np.where(m > 0.0, 0.5 * m * ((p / m) ** (1.0 - s) + (q / m) ** (1.0 - s)), 0.0)


# family: (direct term, ratio term, value of the sum at P = Q)
_FAMILY_FORMS = {"zeta": (_zeta_direct, _zeta_ratio, 2.0), "xi": (_xi_direct, _xi_ratio, 1.0)}

# The family orders of the catalog (generators.CATALOG_KEYS), in its order.
CATALOG_ORDERS = (-1.0, 0.5, 2.0)
_CATALOG_FAMILY = tuple((tag, s) for tag in FAMILY_TAGS for s in CATALOG_ORDERS)


def _family_rows(p: np.ndarray, q: np.ndarray, orders):
    """Yield the cell terms of each (family, s) at a regular order, in
    order: direct per cell, and ratio where that is nan.  Each power of p
    and q is made once and kept until the last order, m = (p+q)/2 once if
    an xi order reads it, and each power of m where its order reads it.  A cell
    where both masses vanish adds 0.0 (its direct term is 0 or nan, and its
    ratio term is 0), so a single pair sums the same cells as a row of a
    block."""

    @functools.cache
    def power(base: str, e: float) -> np.ndarray:
        return (p if base == "p" else q) ** e

    m = 0.5 * (p + q) if any(family == "xi" for family, _ in orders) else None
    for family, s in orders:
        direct, ratio, _ = _FAMILY_FORMS[family]
        yield _mend(direct(power, m, s), (p, q), ratio, s)


class BaseSums:
    """The base and family sums of one pair, or of an (m, n) block of pairs.

    Each base sum is the row sum of its _base_rows cell terms, scaled, and
    each family member at a regular order the row sum of its _family_rows
    terms, normalised.  A read sums every base it needs and the table does
    not hold in one pass (eq7 seven, eq39 four, a difference two, a base
    one, a list of measures the union of theirs), and every family order
    in one more, and keeps them.  A table on kept sums (`sums` given: a
    validated pair's) sums all six catalog orders it lacks when it reads
    any one, as the Csiszar table sums the whole catalog.  p and q must not
    change while the table is in use.  `reduce` is the row sum,
    kernel.row_sum by default; the row_sum of a kernel.FlatRows layout
    makes p and q flat buffers of rows in it.
    """

    __slots__ = ("p", "q", "_sums", "_whole_catalog", "_reduce")

    def __init__(self, p: np.ndarray, q: np.ndarray, sums: Optional[dict] = None, reduce=None):
        self.p, self.q = p, q
        self._whole_catalog = sums is not None
        self._sums = {} if sums is None else sums
        self._reduce = reduce or row_sum

    def kept(self, key: str, make: Callable):
        """The value kept under key, made by make() the first time."""
        value = self._sums.get(key)
        if value is None:
            value = self._sums[key] = make()
        return value

    def _bases(self, tags) -> dict:
        """The table, holding every base in tags: those it lacked are summed
        in one pass."""
        sums = self._sums
        missing = tuple(t for t in _BASE_SCALES if t in tags and t not in sums)
        if missing:
            totals = self._reduce(_base_rows, self.p, self.q, missing)
            for tag, total in zip(missing, totals):
                scale = _BASE_SCALES[tag]
                value = scale * total
                sums[tag] = 1.0 + value if scale < 0.0 else value
        return sums

    def _families(self, orders) -> dict:
        """The table, holding the sum of each (family, s) in orders, all at
        regular orders: those it lacked are summed in one pass."""
        sums = self._sums
        if self._whole_catalog and any(order in _CATALOG_FAMILY for order in orders):
            orders = (*orders, *_CATALOG_FAMILY)
        missing = tuple(dict.fromkeys(order for order in orders if order not in sums))
        if missing:
            totals = self._reduce(_family_rows, self.p, self.q, missing)
            for (family, s), total in zip(missing, totals):
                a, b = order_divisors(s)
                sums[family, s] = (total - _FAMILY_FORMS[family][2]) / a / b
        return sums

    def measure(self, mid: MeasureId):
        """Any measure, reduced over the last axis like the kernels."""
        terms = _base_terms(mid)
        if terms is None:
            order = mid.tag, mid.s
            return self._families((order,))[order]
        sums = self._bases([t for _, t in terms])
        if len(terms) == 1:
            return sums[terms[0][1]]
        (c1, t1), (c2, t2) = terms
        return c1 * sums[t1] + c2 * sums[t2]

    def measures(self, mids: Sequence[MeasureId]) -> list:
        """Each of the measures, in order; the base sums they read are made
        in one pass, and the family sums in one more."""
        self._bases({t for mid in mids for _, t in _base_terms(mid) or ()})
        self._families([(mid.tag, mid.s) for mid in mids if _base_terms(mid) is None])
        return [self.measure(mid) for mid in mids]

    def chain(self, which: str) -> list:
        """The values of one chain, in CHAIN_LABELS order."""
        links = _CHAIN_LINKS.get(which)
        if links is None:
            raise ArgumentError(f"unknown chain {which!r} (expected 'eq7' or 'eq39')")
        return [c * v for (_, c, _), v in zip(links, self.measures([m for _, _, m in links]))]


def _base_terms(mid: MeasureId):
    """mid as its (coefficient, base tag) terms, or None for a family member
    at a regular order, which reads no base sum."""
    if mid.tag in DIFF_TAGS:
        return _DIFF_COMBOS[mid.tag]
    base = _limit_base(mid.tag, mid.s) if mid.tag in FAMILY_TAGS else mid.tag
    return None if base is None else ((1.0, base),)


# The most recent pair whose probs were frozen: weak references to P and Q
# and the numbers kept in their table, so no array is kept alive.
# Threads need no lock: the slot is read and replaced as one tuple, a lost
# replacement only costs a later call its sums, and two threads that sum
# the same base of the same pair store the same number.
_last_pair = (None, None, None)


def _frozen(probs: np.ndarray) -> bool:
    """True for masses nothing can change in place: read-only and owning
    their data, as validate makes them (a read-only view of a writable
    array could still change)."""
    return not probs.flags.writeable and probs.flags.owndata


def _pair_sums(P: DiscreteDistribution, Q: DiscreteDistribution) -> BaseSums:
    """The sums table of a validated pair, shared with the previous call on
    the same two objects."""
    global _last_pair
    require_same_alphabet(P, Q)
    p, q = P.probs, Q.probs
    if not (_frozen(p) and _frozen(q)):
        return BaseSums(p, q)
    ref_p, ref_q, sums = _last_pair
    if ref_p is None or ref_p() is not P or ref_q() is not Q:
        sums = {}
        _last_pair = (weakref.ref(P), weakref.ref(Q), sums)
    return BaseSums(p, q, sums)


def _measure_id(measure: Union[MeasureId, str]) -> MeasureId:
    return measure if isinstance(measure, MeasureId) else MeasureId.parse(measure)


def _value(mid: MeasureId, P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    return float(_pair_sums(P, Q).measure(mid))


def base_measure(
    measure: Union[MeasureId, str], P: DiscreteDistribution, Q: DiscreteDistribution
) -> float:
    """Evaluate one of the seven base measures; +inf is a legal flagged value."""
    mid = _measure_id(measure)
    if mid.tag not in BASE_TAGS:
        raise ArgumentError(f"{mid.tag!r} is not a base measure tag")
    return _value(mid, P, Q)


def zeta(s, P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """First family: interpolates Psi/2 (s = -1, 2), J (s = 0, 1), 8h (s = 1/2)."""
    return _value(MeasureId("zeta", s), P, Q)


def xi(s, P: DiscreteDistribution, Q: DiscreteDistribution) -> float:
    """Second family: Delta/4 (s = -1), I (s = 0), 4d (s = 1/2), T (s = 1), Psi/16 (s = 2)."""
    return _value(MeasureId("xi", s), P, Q)


def difference_measure(
    measure: Union[MeasureId, str], P: DiscreteDistribution, Q: DiscreteDistribution
) -> float:
    """One of the six nonnegative differences among Delta/4 <= I <= h <= 4d."""
    mid = _measure_id(measure)
    if mid.tag not in DIFF_TAGS:
        raise ArgumentError(f"{mid.tag!r} is not a difference tag")
    return _value(mid, P, Q)


def measure_value(
    measure: Union[MeasureId, str], P: DiscreteDistribution, Q: DiscreteDistribution
) -> float:
    """Dispatch any measure id (base, family, or difference)."""
    return _value(_measure_id(measure), P, Q)


# ---------------------------------------------------------------------------
# inequality chains
# ---------------------------------------------------------------------------


# Each chain as its links, smallest first: (label, coefficient, measure).
# eq7 scales the base measures, eq39 the differences.
_CHAIN_LINKS = {
    "eq7": (
        ("Delta/4", 0.25, MeasureId("Delta")),
        ("I", 1.0, MeasureId("I")),
        ("h", 1.0, MeasureId("h")),
        ("4d", 4.0, MeasureId("d")),
        ("J/8", 0.125, MeasureId("J")),
        ("T", 1.0, MeasureId("T")),
        ("Psi/16", 1.0 / 16.0, MeasureId("Psi")),
    ),
    "eq39": (
        ("D_IDelta", 1.0, MeasureId("D_IDelta")),
        ("2/3*D_hDelta", 2.0 / 3.0, MeasureId("D_hDelta")),
        ("8/15*D_dDelta", 8.0 / 15.0, MeasureId("D_dDelta")),
        ("8/3*D_dh", 8.0 / 3.0, MeasureId("D_dh")),
        ("8/7*D_dI", 8.0 / 7.0, MeasureId("D_dI")),
        ("2*D_hI", 2.0, MeasureId("D_hI")),
    ),
}
CHAIN_LABELS = {which: tuple(link[0] for link in links) for which, links in _CHAIN_LINKS.items()}


def chain_slack(values: np.ndarray):
    """Adjacent-pair slacks along the last axis of chain values.

    Returns (raw, normalised, violated): right - left, that slack over
    1 + right, and whether it breaks CHAIN_TOL.  A pair whose larger side
    is infinite satisfies the inequality: its normalised slack is +inf and
    it is never violated.  A pair with a nan side is always violated.
    """
    left, right = values[..., :-1], values[..., 1:]
    closed = np.isinf(right)
    scale = 1.0 + right
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = right - left
        normalised = raw / scale
        violated = raw < -CHAIN_TOL * scale
    normalised[closed] = math.inf
    violated &= ~closed
    violated |= np.isnan(left) | np.isnan(right)
    return raw, normalised, violated


def worst_of(pick: Callable, start: float, values: np.ndarray) -> float:
    """pick (min or max) of start and the values, taken in order as Python's
    min and max take them (of equal values the first, sign of zero and all),
    or nan where a value is nan: a nan never hides behind a finite worst."""
    return math.nan if np.isnan(values).any() else pick([start, *values.reshape(-1).tolist()])


@dataclass(frozen=True)
class ChainReport:
    """Ordered chain values and any adjacent-pair violations (with raw slack)."""

    values: Tuple[Tuple[str, float], ...]
    violations: Tuple[Tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def worst_slack(self) -> float:
        """Most negative normalised slack of adjacent pairs (inf if none finite, nan if any is)."""
        _, normalised, _ = chain_slack(np.array([v for _, v in self.values]))
        return worst_of(min, math.inf, normalised)


def _chain_report(entries: Sequence[Tuple[str, float]]) -> ChainReport:
    raw, _, violated = chain_slack(np.array([v for _, v in entries]))
    violations = tuple(
        (f"{entries[i][0]} <= {entries[i + 1][0]}", float(raw[i]))
        for i in np.flatnonzero(violated)
    )
    return ChainReport(values=tuple(entries), violations=violations)


def chain_check(
    P: DiscreteDistribution, Q: DiscreteDistribution, which: str = "eq7"
) -> ChainReport:
    """Check one of the two inequality chains.

    "eq7":  Delta/4 <= I <= h <= 4d <= J/8 <= T <= Psi/16
    "eq39": D_IDelta <= (2/3) D_hDelta <= (8/15) D_dDelta
                     <= (8/3) D_dh <= (8/7) D_dI <= 2 D_hI
    """
    values = _pair_sums(P, Q).chain(which)
    return _chain_report([(label, float(v)) for label, v in zip(CHAIN_LABELS[which], values)])
