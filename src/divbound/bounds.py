"""Two-class Bayes problems over finite outcome spaces.

Exact Bayes error, posterior-averaged divergences, and the full suite of
certified lower and upper error bounds:

  * family lower bounds: the prior-weighted family divergence dominates the
    same family evaluated at the error probability, and that function of
    P_e is strictly decreasing on (0, 1/2], so bisecting it at the averaged
    value certifies a lower bound on P_e;
  * the exponential lower bound 1/4 exp(-J/2) (equal priors);
  * the square-root lower bound 1/2 - 1/2 sqrt(1 - 4 exp(-2H - J)) and the
    sharper J-inversion variant;
  * upper bounds from every generator with finite f_inf:
    P_e <= (f_inf - avg)/(2 f_inf), for both families and the six
    difference measures, with the documented sharpness comparisons between
    them.  Every catalog star transform is symmetric with f*(0) = f*(1) =
    f_inf and f*(1/2) = 0, so this one formula serves them all; an average
    too large for a double gives the vacuous bound 1/2, flagged.

Every posterior form is the star transform f*(a) = a f((1-a)/a) of the
catalog generator, evaluated by generators (_star_rows for averages,
float_star and float_star_array for bisections); this module averages,
inverts and assembles, and restates no generator or form of f*.  Stage 1,
posterior_averages, sums all the generators of a report or a sweep's grid
in one leaf pass.  Stage 2, report_rows, turns the averages of m problems
into bound columns: arrays of values and of note codes into NOTES, lower
bounds from lower_bounds (one average bisected in floats, two or more in
lockstep, with the same bits) and upper bounds from _upper_bounds.  Stage
1 evaluates, and stage 2 bisects, each distinct generator function once.
Outcomes with zero marginal mass are excluded from every expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .distributions import (
    PERMISSIVE,
    DiscreteDistribution,
    ValidationFailure,
    validate,
)
from .generators import LN2, GeneratingFunction, float_star, float_star_array, generator, star_extended
from .generators import _star_rows
from .kernel import (
    ArgumentError,
    DivboundError,
    invert_decreasing,
    invert_decreasing_rows,
    row_sum,
)
from .measures import DIFF_TAGS, FAMILY_TAGS, MeasureId, zeta as zeta_measure

PRIOR_TOL = 1e-12
SANDWICH_TOL = 1e-10  # a bound holds with slack >= -SANDWICH_TOL * 2 P_e
COMPARISON_TOL = 1e-12  # a relation holds with slack >= -COMPARISON_TOL (1 + |rhs|)

# Bracket for inverting the decreasing P_e-functions.  A target above the
# value at the lower endpoint only shows P_e < LOWER_BRACKET_LO, so the
# certified lower bound there is 0, flagged near-vacuous.
LOWER_BRACKET_LO = 1e-12


class InvalidPriors(ValidationFailure):
    kind = "invalid_priors"


class BoundUnavailable(DivboundError):
    """The requested upper bound does not exist (f_inf infinite)."""


@dataclass(frozen=True)
class TwoClassProblem:
    """Priors plus two class-conditional distributions on a shared alphabet."""

    p1: float
    p2: float
    cond1: DiscreteDistribution
    cond2: DiscreteDistribution
    label: Optional[str] = None

    @property
    def k(self) -> int:
        return self.cond1.n

    @classmethod
    def from_arrays(cls, priors, cond1, cond2, label: Optional[str] = None):
        p = np.asarray(priors, dtype=float).reshape(-1)
        if p.shape[0] != 2:
            raise InvalidPriors(f"expected 2 priors, got {p.shape[0]}")
        p1, p2 = float(p[0]), float(p[1])
        if not (math.isfinite(p1) and math.isfinite(p2)):
            raise InvalidPriors("priors must be finite")
        if p1 <= 0.0 or p2 <= 0.0:
            raise InvalidPriors(f"priors must be strictly positive, got {p1!r}, {p2!r}")
        if abs(p1 + p2 - 1.0) > PRIOR_TOL:
            raise InvalidPriors(f"priors sum to {p1 + p2!r}, not 1")
        c1 = validate(cond1, PERMISSIVE, min_size=1)
        c2 = validate(cond2, PERMISSIVE, min_size=1)
        if c1.n != c2.n:
            raise ValidationFailure(
                f"conditionals have different alphabet sizes: {c1.n} vs {c2.n}"
            )
        return cls(p1=p1, p2=p2, cond1=c1, cond2=c2, label=label)


def posterior_arrays(p1, p2, cond1: np.ndarray, cond2: np.ndarray):
    """(p1 c1, p2 c2, marginal, class-2 posterior), elementwise.

    The priors broadcast against the conditionals, so (m, 1) prior columns
    and (m, k) conditional blocks give m problems' arrays at once.  The
    posterior is 0/0 = nan on an outcome with zero marginal mass.
    """
    w1 = p1 * cond1
    w2 = p2 * cond2
    px = w1 + w2
    with np.errstate(invalid="ignore"):
        return w1, w2, px, w2 / px


def _live_posterior_arrays(problem: TwoClassProblem) -> Tuple[np.ndarray, np.ndarray]:
    _, _, px, a2 = posterior_arrays(
        problem.p1, problem.p2, problem.cond1.probs, problem.cond2.probs
    )
    live = px > 0.0
    return px[live], a2[live]


def min_mass_sum(w1: np.ndarray, w2: np.ndarray, reduce=None):
    """sum_x min(w1, w2) over the last axis: the Bayes error of p1 c1, p2 c2.

    reduce=FlatRows.row_sum sums the rows of flat buffers instead.
    """
    return (reduce or row_sum)(np.minimum, w1, w2)


def bayes_error(problem: TwoClassProblem) -> float:
    """Expected minimum posterior: sum_x min(p1 c1(x), p2 c2(x))."""
    w1, w2, _, _ = posterior_arrays(
        problem.p1, problem.p2, problem.cond1.probs, problem.cond2.probs
    )
    return float(min_mass_sum(w1, w2))


# ---------------------------------------------------------------------------
# posterior forms: the star transform of the catalog generator
# ---------------------------------------------------------------------------


def _family_generator(family: str, s) -> GeneratingFunction:
    # cached by family, s and its sign (0.0 == -0.0): the pointwise forms call it
    return _signed_family_generator(family, s, str(s).startswith("-"))


@lru_cache(maxsize=None)
def _signed_family_generator(family: str, s, negative: bool) -> GeneratingFunction:
    if family not in FAMILY_TAGS:
        raise ArgumentError(f"unknown family {family!r} (expected 'zeta' or 'xi')")
    return generator(MeasureId(family, s))


def zeta_point(s, a: float) -> float:
    """First-family pointwise value at posterior a in [0, 1]; decreasing on (0, 1/2]."""
    return star_extended(_family_generator("zeta", s), float(a))


def xi_point(s, a: float) -> float:
    """Second-family pointwise value at posterior a in [0, 1]."""
    return star_extended(_family_generator("xi", s), float(a))


def averaged_zeta(problem: TwoClassProblem, s) -> float:
    """Posterior expectation of the first-family pointwise form (may be +inf)."""
    return average_f_divergence(problem, _family_generator("zeta", s))


def averaged_xi(problem: TwoClassProblem, s) -> float:
    """Posterior expectation of the second-family pointwise form (may be +inf)."""
    return average_f_divergence(problem, _family_generator("xi", s))


def posterior_averages(
    px: np.ndarray, a2: np.ndarray, gens: Iterable[GeneratingFunction], reduce=None
) -> dict:
    """sum_x px f*(a2) for each generator, by key, over the last axis.

    Stage 1 of a bound report.  Every outcome must be live (px > 0); an
    (m, k) block gives each of m problems' averages, bit-identical to the
    problem on its own, and reduce=FlatRows.row_sum the averages of the
    rows of flat buffers.  The generators share one pass, each with the
    bits of px * star_extended(g, a2) summed on its own.
    """
    gens = {g.key: g for g in gens}
    return dict(zip(gens, (reduce or row_sum)(_average_rows, px, a2, tuple(gens.values()))))


def _average_rows(px: np.ndarray, a2: np.ndarray, gens: tuple):
    for row in _star_rows(gens, a2):
        yield px * row


def problem_averages(problem: TwoClassProblem, gens: Iterable[GeneratingFunction]) -> dict:
    """posterior_averages of one problem over its live outcomes, as floats."""
    px, a2 = _live_posterior_arrays(problem)
    return {key: float(v) for key, v in posterior_averages(px, a2, gens).items()}


def average_f_divergence(problem: TwoClassProblem, g: GeneratingFunction) -> float:
    """E_x[f*(P(C2|x))], the posterior-averaged f-divergence (may be +inf)."""
    return problem_averages(problem, (g,))[g.key]


# ---------------------------------------------------------------------------
# lower bounds
# ---------------------------------------------------------------------------

# A bound column carries each note as its index into NOTES; the string is
# looked up only where a bound is returned on its own or as a BoundEntry.
# The notes from "requires equal priors" on say why a bound does not apply.
NOTES = (
    "",
    "vacuous: averaged divergence is infinite",
    "near-vacuous: target above inversion bracket",
    "J infinite (bound saturates at 0)",
    "requires equal priors",
    "zeta upper bound requires 0 < s < 1 strictly",
    "xi upper bound requires s < 1",
    "xi upper bound needs f_inf, which exceeds the double range",
)
_NO_NOTE, _VACUOUS, _NEAR_VACUOUS, _J_INFINITE, _UNEQUAL_PRIORS = range(5)
_ZETA_NO_UPPER, _XI_NO_UPPER, _XI_F_INF_OVERFLOWS = range(5, len(NOTES))


def _single(values: np.ndarray, codes: np.ndarray) -> Tuple[float, str]:
    """The (value, note) of a column of one problem, as a float and a string."""
    return values.item(), NOTES[codes.item()]


def lower_bounds(g: GeneratingFunction, averages) -> Tuple[np.ndarray, np.ndarray]:
    """(values, note codes) of the lower bounds from posterior averages of
    g, as arrays: f* of g bisected at each average, or 0, flagged, where
    the average is infinite or the bisection ends at LOWER_BRACKET_LO.

    One average is bisected by invert_decreasing on float_star(g), two or
    more in lockstep by invert_decreasing_rows on float_star_array(g); the
    bits are the same either way.  The rule is floats for one average, the
    lockstep for a block: one average through the lockstep took 1.6-2.5 ms
    against 39-71 us in floats, 25-58 times slower (the eight family
    members of DEFAULT_S_GRID, 2-vCPU x86 host, numpy 2.4).  A nan average
    raises the bisection's DomainError.
    """
    v = np.asarray(averages, dtype=float)
    finite = ~np.isinf(v)
    values = np.zeros(v.shape)
    lo = LOWER_BRACKET_LO
    if len(v) == 1:
        values[finite] = [invert_decreasing(float_star(g), t, lo, 0.5) for t in v[finite].tolist()]
    else:
        values[finite] = invert_decreasing_rows(float_star_array(g), v[finite], lo, 0.5)
    clamped = values <= lo
    values[clamped] = 0.0
    codes = _NEAR_VACUOUS * clamped
    codes[~finite] = _VACUOUS
    return values, codes


def lower_bound_family(problem: TwoClassProblem, family: str, s) -> Tuple[float, str]:
    """Certified lower bound on the Bayes error from one family member.

    Returns (value, note); the note flags vacuous or near-vacuous results.
    """
    return family_bounds(problem, family, s)[1]


def kailath_bound(problem: TwoClassProblem) -> Tuple[Optional[float], str]:
    """1/4 exp(-J/2) with J between the conditionals; equal priors only."""
    value, code = _kailath(problem.p1, problem.p2, lambda: problem)
    return None if code == _UNEQUAL_PRIORS else value, NOTES[code]


def _kailath(p1: float, p2: float, problem: Callable) -> Tuple[float, int]:
    # (value, note code), with the value 0 where the bound does not apply;
    # problem() is asked for only for equal priors
    if abs(p1 - p2) > PRIOR_TOL:
        return 0.0, _UNEQUAL_PRIORS
    conds = problem()
    j = zeta_measure(0.0, conds.cond1, conds.cond2)
    if math.isinf(j):
        return 0.0, _J_INFINITE
    return 0.25 * math.exp(-0.5 * j), _NO_NOTE


def _toussaint_general(p1: float, p2: float, jbar: float) -> float:
    # 2H + jbar >= ln 4 (Jensen) up to rounding and the priors' sum defect,
    # so the radicand is at least about -2(1 - ln 2) PRIOR_TOL: clamped to 0
    h = -(p1 * math.log(p1) + p2 * math.log(p2))
    return 0.5 - 0.5 * math.sqrt(max(1.0 - 4.0 * math.exp(-2.0 * h - jbar), 0.0))


def toussaint_bounds(problem: TwoClassProblem) -> Tuple[float, float]:
    """(general square-root bound, sharper bound via J-inversion)."""
    g = _family_generator("zeta", 0.0)
    jbar = average_f_divergence(problem, g)
    return _toussaint_general(problem.p1, problem.p2, jbar), lower_bounds(g, [jbar])[0].item()


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------


def _family_upper_note(family: str, s) -> int:
    """_NO_NOTE where a family member has an upper bound (f_inf finite),
    else the code of the note that says why it has none."""
    if math.isfinite(_family_generator(family, s).f_infinity):
        return _NO_NOTE
    # below s = -1045 the xi constant (2^(-s) - 1)/(2s(s-1)) overflows
    if family == "xi" and float(s) < 0.0:
        return _XI_F_INF_OVERFLOWS
    return _ZETA_NO_UPPER if family == "zeta" else _XI_NO_UPPER


def _family_upper_generator(family: str, s) -> GeneratingFunction:
    code = _family_upper_note(family, s)
    if code:
        raise BoundUnavailable(NOTES[code])
    return _family_generator(family, s)


def upper_bound_zeta(problem: TwoClassProblem, s) -> float:
    """P_e <= (1/2)[1 + s(s-1) * averaged zeta_s]; exists only for 0 < s < 1."""
    return generic_upper_bound(problem, _family_upper_generator("zeta", s))


def upper_bound_xi(problem: TwoClassProblem, s) -> float:
    """P_e <= (1/2)[1 - averaged xi_s / f_inf(s)]; exists only for s < 1."""
    return generic_upper_bound(problem, _family_upper_generator("xi", s))


def upper_bound_difference(problem: TwoClassProblem, tag: str) -> float:
    """P_e <= (1/2)[1 - averaged difference / f_inf] for the six differences."""
    if tag not in DIFF_TAGS:
        raise ArgumentError(f"unknown difference tag {tag!r}")
    return generic_upper_bound(problem, generator(tag))


def generic_upper_bound(problem: TwoClassProblem, g: GeneratingFunction) -> float:
    """Upper bound (f_inf - avg)/(2 f_inf) from any catalog generator.

    Raises BoundUnavailable when f_inf is infinite.  The result is clamped
    to [0, 1/2], and is 1/2 when the average is too large for a double.
    """
    return _upper_bounds(g, [average_f_divergence(problem, g)])[0].item()


def _upper_bounds(g: GeneratingFunction, averages) -> Tuple[np.ndarray, np.ndarray]:
    """(values, note codes) of the upper bounds from posterior averages of
    g, as arrays: (f_inf - avg)/(2 f_inf) clamped to [0, 1/2], or 1/2,
    flagged, where the average is not finite.  IEEE basic operations and
    exact clamps, so each value has the bits of the formula in floats."""
    f_inf = g.f_infinity
    if math.isinf(f_inf):
        raise BoundUnavailable(f"{g.key}: f_inf is infinite")
    c = np.asarray(averages, dtype=float)
    vacuous = ~np.isfinite(c)
    # halving the quotient, not doubling f_inf, keeps f_inf near the top of
    # the double range finite
    values = np.minimum(np.maximum(0.5 * ((f_inf - c) / f_inf), 0.0), 0.5)
    values[vacuous] = 0.5
    return values, _VACUOUS * vacuous


def family_bounds(
    problem: TwoClassProblem, family: str, s
) -> Tuple[float, Tuple[float, str], Optional[Tuple[float, str]]]:
    """(averaged value, (lower bound, note), (upper bound, note) or None if
    unavailable) of one family member, all from one posterior average."""
    return family_grid_bounds(problem, family, (s,))[0]


def family_grid_bounds(
    problem: TwoClassProblem, family: str, s_grid: Sequence[float]
) -> List[Tuple[float, Tuple[float, str], Optional[Tuple[float, str]]]]:
    """family_bounds at each order of s_grid, bit for bit: stage 1 averages
    the grid's generators in one pass, each resolved (or raising) before
    stage 2 bounds any order from its own average."""
    gens = [_family_generator(family, s) for s in s_grid]
    averages = problem_averages(problem, gens)
    lowers = {}  # by fn: each distinct function is bisected once
    rows = []
    for s, g in zip(s_grid, gens):
        v = averages[g.key]
        upper = None if _family_upper_note(family, s) else _single(*_upper_bounds(g, [v]))
        if g.fn not in lowers:
            lowers[g.fn] = _single(*lower_bounds(g, [v]))
        rows.append((v, lowers[g.fn], upper))
    return rows


# ---------------------------------------------------------------------------
# aggregated report and comparisons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str  # "lower" | "upper"
    value: float
    applicable: bool
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    exact_pe: float
    entries: Tuple[BoundEntry, ...]

    def slacks(self) -> List[Tuple[str, float]]:
        """(name, slack) of each applicable entry."""
        pe = self.exact_pe
        return [(e.name, _slack(e.kind, e.value, pe)) for e in self.entries if e.applicable]

    def sandwich_violations(self) -> List[Tuple[str, float]]:
        """Applicable entries whose slack against the exact error breaks the sandwich rule."""
        pe = self.exact_pe
        return [(name, slack) for name, slack in self.slacks() if _sandwich_violated(slack, pe)]

    @property
    def sandwich_ok(self) -> bool:
        return not self.sandwich_violations()


def _slack(kind: str, value, pe):
    """P_e - value for a lower bound, value - P_e for an upper one; negative
    means violated.  Floats, or arrays element by element."""
    return pe - value if kind == "lower" else value - pe


def _sandwich_violated(slack, pe):
    """not slack >= -SANDWICH_TOL * 2 pe, so a nan slack or pe is violated.  2 pe
    is 1 at pe = 1/2 and shrinks with pe, so a bound off by all of a tiny pe is
    seen.  SANDWICH_TOL is read at call time.  Floats, or arrays element by element."""
    return np.logical_not(slack >= -SANDWICH_TOL * 2.0 * pe)


DEFAULT_S_GRID = (-1.0, 0.0, 0.5, 2.0)


@lru_cache(maxsize=None)
def _difference_generators() -> dict:
    # resolved once: generator(tag) parses its tag on every call
    return {tag: generator(tag) for tag in DIFF_TAGS}


def lower_generators(s_grid: Sequence[float] = DEFAULT_S_GRID) -> Tuple[GeneratingFunction, ...]:
    """Each lower bound's generator in row order: J, then both families at each order."""
    families = [_family_generator(family, s) for family in ("zeta", "xi") for s in s_grid]
    return (_family_generator("zeta", 0.0), *families)


def report_generators(s_grid: Sequence[float] = DEFAULT_S_GRID) -> Tuple[GeneratingFunction, ...]:
    """The generators, one per key, whose posterior averages a bound report uses."""
    gens = (*lower_generators(s_grid), *_difference_generators().values())
    return tuple({g.key: g for g in gens}.values())


def bound_report(
    problem: TwoClassProblem, s_grid: Sequence[float] = DEFAULT_S_GRID
) -> BoundReport:
    """Exact error plus every bound, in a fixed canonical order.

    Inapplicable bounds appear with applicable=False, a reason note, and
    the trivial value of their kind (0 for lower, 1/2 for upper).
    """
    px, a2 = _live_posterior_arrays(problem)
    averages = posterior_averages(px[None], a2[None], report_generators(s_grid))
    rows = report_rows(s_grid, [problem.p1], [problem.p2], averages, lambda j: problem)
    entries = tuple(
        BoundEntry(name, kind, values.item(), applicable.item(), NOTES[codes.item()])
        for name, kind, values, applicable, codes in rows
    )
    return BoundReport(exact_pe=bayes_error(problem), entries=entries)


def report_rows(
    s_grid: Sequence[float], p1: list, p2: list, averages: dict, problem: Callable
) -> List[Tuple[str, str, np.ndarray, np.ndarray, np.ndarray]]:
    """Stage 2 of a bound report: every bound of m problems, from their
    posterior averages, as (name, kind, values, applicable, notes) rows in
    canonical order, each a float, bool or int array of m entries.

    p1 and p2 list the m problems' priors, and `averages` maps each key of
    report_generators(s_grid) to an array of their averages.  Notes are
    codes into NOTES.  The Kailath and general Toussaint bounds are taken
    problem by problem in floats (numpy's exp and log bits depend on the
    SIMD dispatch); problem(j) is the j-th problem, asked for only where
    its priors are equal.  One bisection serves every key of its fn (both
    zeros, zeta twins).  Row names show the orders as the grid has them:
    -0.0 names its rows s=-0.0.
    """
    m = len(p1)
    j0, *family_gens = gens = lower_generators(s_grid)
    lowers = {}  # by fn: each distinct function is bisected once
    for g in gens:
        if g.fn not in lowers:
            lowers[g.fn] = lower_bounds(g, averages[g.key])
    kailath = [_kailath(a, b, lambda: problem(j)) for j, (a, b) in enumerate(zip(p1, p2))]
    toussaint = list(map(_toussaint_general, p1, p2, averages[j0.key].tolist()))
    rows = [
        ("kailath", "lower", *map(np.array, zip(*kailath))),
        ("toussaint_general", "lower", np.array(toussaint), np.zeros(m, dtype=int)),
        ("toussaint_inversion", "lower", lowers[j0.fn][0], np.zeros(m, dtype=int)),
    ]
    names = [f"{family}_lower(s={float(s)!r})" for family in ("zeta", "xi") for s in s_grid]
    rows += [(name, "lower", *lowers[g.fn]) for name, g in zip(names, family_gens)]
    for family in ("zeta", "xi"):
        for s in s_grid:
            g, code = _family_generator(family, s), _family_upper_note(family, s)
            if code:
                column = np.full(m, 0.5), np.full(m, code)
            else:
                column = _upper_bounds(g, averages[g.key])
            rows.append((f"{family}_upper(s={float(s)!r})", "upper", *column))
    for tag, g in _difference_generators().items():
        rows.append((f"diff_upper({tag})", "upper", *_upper_bounds(g, averages[g.key])))
    applicable = np.array([codes for _, _, _, codes in rows]) < _UNEQUAL_PRIORS
    return [(name, kind, v, ok, codes) for (name, kind, v, codes), ok in zip(rows, applicable)]


@dataclass(frozen=True)
class ComparisonResult:
    relation: str
    satisfied: bool
    slack: float


# The sharpness orderings between difference upper bounds, each a relation
# (name, lhs, rhs) asserting lhs <= rhs.  A side (c, tag) is the bound
# (1/2)(1 - c * avg(tag)): c is a factor of the printed chain, or a direct
# coefficient 1/f_inf read from a difference's generator.  direct_vs_loose
# reads one average on both sides, slack (1/2)(c_lhs - c_rhs) avg with
# 10.35 vs 4 (D_IDelta) and 4 vs 2.98 (D_hDelta): it holds for any average
# >= 0, checking two coefficients, not the problem; which bounds the paper
# means there needs its full text.
_RELATIONS = (
    ("sharper_vs_chained(D_hDelta->D_IDelta)", (8.0 / 3.0, "D_hDelta"), (4.0, "D_IDelta")),
    (
        "direct_vs_loose(D_IDelta)",
        (1.0 / generator("D_IDelta").f_infinity, "D_IDelta"),
        (4.0, "D_IDelta"),
    ),
    (
        "direct_vs_chained(D_dh->D_dDelta)",
        (1.0 / generator("D_dh").f_infinity, "D_dh"),
        (8.0 / (15.0 * (1.0 - LN2)), "D_dDelta"),
    ),
    (
        "direct_vs_loose(D_hDelta)",
        (4.0, "D_hDelta"),
        (1.0 / generator("D_dDelta").f_infinity, "D_hDelta"),
    ),
)
COMPARISON_TAGS = tuple(dict.fromkeys(tag for _, *sides in _RELATIONS for _, tag in sides))


def comparison_check(problem: TwoClassProblem) -> List[ComparisonResult]:
    """Verify the printed sharpness orderings between difference upper bounds.

    Each relation asserts lhs <= rhs between two upper-bound expressions;
    slack = rhs - lhs.
    """
    gens = _difference_generators()
    return compare_averages(problem_averages(problem, [gens[tag] for tag in COMPARISON_TAGS]))


def compare_averages(dbar) -> List[ComparisonResult]:
    """The _RELATIONS from the averages of COMPARISON_TAGS, by tag.

    The averages are floats, or arrays of one per problem; then each
    result's satisfied and slack are arrays too, element for element the
    floats' results.
    """
    out = []
    for relation, *sides in _RELATIONS:
        lhs, rhs = (0.5 * (1.0 - c * dbar[tag]) for c, tag in sides)
        slack = rhs - lhs
        out.append(
            ComparisonResult(relation, slack >= -COMPARISON_TOL * (1.0 + abs(rhs)), slack)
        )
    return out
