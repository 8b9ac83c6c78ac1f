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
catalog generator, evaluated by generators (star_extended for averages,
float_star and float_star_array for bisections); this module averages,
inverts and assembles, and restates no generator or form of f*.  Every
lower bound is inverted by lower_bounds, which report_rows calls for a
whole block of problems: it bisects one average in floats and two or more
in lockstep, with the same bits either way.
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
from .kernel import (
    ArgumentError,
    DivboundError,
    OrderParameter,
    invert_decreasing,
    invert_decreasing_rows,
    row_sum,
)
from .measures import DIFF_TAGS, FAMILY_TAGS, MeasureId, zeta as zeta_measure

PRIOR_TOL = 1e-12
SANDWICH_TOL = 1e-10
COMPARISON_TOL = 1e-12  # a relation holds with slack >= -COMPARISON_TOL (1 + |rhs|)
RADICAND_SNAP = 1e-12  # a Toussaint radicand in (-RADICAND_SNAP, 0) is 0 up to rounding

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


@lru_cache(maxsize=None)
def _family_generator(family: str, s) -> GeneratingFunction:
    # cached by (family, s): the pointwise forms resolve it on every call
    if family not in FAMILY_TAGS:
        raise ArgumentError(f"unknown family {family!r} (expected 'zeta' or 'xi')")
    return generator(MeasureId(family, OrderParameter.of(s).s))


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
    rows of flat buffers.
    """
    reduce = reduce or row_sum
    return {g.key: reduce(_average_term, px, a2, g) for g in gens}


def _average_term(px: np.ndarray, a2: np.ndarray, g: GeneratingFunction) -> np.ndarray:
    return px * star_extended(g, a2)


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

_INFINITE_AVERAGE = "vacuous: averaged divergence is infinite"


def _clamped_lower(val: float, average: float) -> Tuple[float, str]:
    """The lower bound and its note from `val`, the inversion of `average`;
    `val` is ignored where the average is infinite."""
    if math.isinf(average):
        return 0.0, _INFINITE_AVERAGE
    if val <= LOWER_BRACKET_LO:
        return 0.0, "near-vacuous: target above inversion bracket"
    return val, ""


def lower_bounds(g: GeneratingFunction, averages: Sequence[float]) -> List[Tuple[float, str]]:
    """The (lower bound, note) of each posterior average of g: f* of g
    bisected at the average, or 0 where the average is infinite.

    One average is bisected by invert_decreasing on float_star(g), two or
    more in lockstep by invert_decreasing_rows on float_star_array(g); the
    bits are the same either way, and each loop is the faster at its
    count.  A nan average raises the bisection's DomainError.
    """
    if len(averages) == 1:
        v = float(averages[0])
        val = 0.0 if math.isinf(v) else invert_decreasing(float_star(g), v, LOWER_BRACKET_LO, 0.5)
        return [_clamped_lower(val, v)]
    v = np.asarray(averages, dtype=float)
    finite = ~np.isinf(v)
    vals = np.zeros(v.shape)
    vals[finite] = invert_decreasing_rows(float_star_array(g), v[finite], LOWER_BRACKET_LO, 0.5)
    return list(map(_clamped_lower, vals.tolist(), v.tolist()))


def lower_bound_family(problem: TwoClassProblem, family: str, s) -> Tuple[float, str]:
    """Certified lower bound on the Bayes error from one family member.

    Returns (value, note); the note flags vacuous or near-vacuous results.
    """
    g = _family_generator(family, s)
    return lower_bounds(g, [average_f_divergence(problem, g)])[0]


def kailath_bound(problem: TwoClassProblem) -> Tuple[Optional[float], str]:
    """1/4 exp(-J/2) with J between the conditionals; equal priors only."""
    return _kailath(problem.p1, problem.p2, lambda: problem)


def _kailath(p1: float, p2: float, problem: Callable) -> Tuple[Optional[float], str]:
    # problem() is asked for only where the priors are equal
    if abs(p1 - p2) > PRIOR_TOL:
        return None, "requires equal priors"
    conds = problem()
    j = zeta_measure(0.0, conds.cond1, conds.cond2)
    if math.isinf(j):
        return 0.0, "J infinite (bound saturates at 0)"
    return 0.25 * math.exp(-0.5 * j), ""


def _toussaint_general(p1: float, p2: float, jbar: float) -> Tuple[Optional[float], str]:
    h = -(p1 * math.log(p1) + p2 * math.log(p2))
    radicand = 1.0 - 4.0 * math.exp(-2.0 * h - jbar)
    if -RADICAND_SNAP < radicand < 0.0:
        radicand = 0.0
    if radicand < 0.0:
        return None, "radicand negative"
    return 0.5 - 0.5 * math.sqrt(radicand), ""


def toussaint_bounds(problem: TwoClassProblem) -> Tuple[Optional[float], float]:
    """(general square-root bound or None, sharper bound via J-inversion)."""
    g = _family_generator("zeta", 0.0)
    jbar = average_f_divergence(problem, g)
    return _toussaint_general(problem.p1, problem.p2, jbar)[0], lower_bounds(g, [jbar])[0][0]


# ---------------------------------------------------------------------------
# upper bounds
# ---------------------------------------------------------------------------

_FAMILY_UPPER_REQUIRES = {
    "zeta": "zeta upper bound requires 0 < s < 1 strictly",
    "xi": "xi upper bound requires s < 1",
}


def _family_upper_generator(family: str, s) -> GeneratingFunction:
    g = _family_generator(family, s)
    if math.isinf(g.f_infinity):
        # below s = -1045 the xi constant (2^(-s) - 1)/(2s(s-1)) overflows
        if family == "xi" and OrderParameter.of(s).s < 0.0:
            raise BoundUnavailable("xi upper bound needs f_inf, which exceeds the double range")
        raise BoundUnavailable(_FAMILY_UPPER_REQUIRES[family])
    return g


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
    return _upper_from_average(g, average_f_divergence(problem, g))[0]


def _upper_from_average(g: GeneratingFunction, c: float) -> Tuple[float, str]:
    f_inf = g.f_infinity
    if math.isinf(f_inf):
        raise BoundUnavailable(f"{g.key}: f_inf is infinite")
    if not math.isfinite(c):
        return 0.5, _INFINITE_AVERAGE
    # halving the quotient, not doubling f_inf, keeps f_inf near the top of
    # the double range finite
    return min(max(0.5 * ((f_inf - c) / f_inf), 0.0), 0.5), ""


def family_bounds(
    problem: TwoClassProblem, family: str, s
) -> Tuple[float, Tuple[float, str], Optional[Tuple[float, str]]]:
    """(averaged value, (lower bound, note), (upper bound, note) or None if
    unavailable) of one family member, all from one posterior average."""
    g = _family_generator(family, s)
    v = average_f_divergence(problem, g)
    try:
        upper = _upper_from_average(_family_upper_generator(family, s), v)
    except BoundUnavailable:
        upper = None
    return v, lower_bounds(g, [v])[0], upper


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

    def sandwich_violations(self, tol: Optional[float] = None) -> List[Tuple[str, float]]:
        """Applicable entries whose slack against the exact error is < -tol
        (by default SANDWICH_TOL)."""
        return [(name, slack) for name, slack in self.slacks() if _sandwich_violated(slack, tol)]

    @property
    def sandwich_ok(self) -> bool:
        return not self.sandwich_violations()


def _slack(kind: str, value, pe):
    """P_e - value for a lower bound, value - P_e for an upper one; negative
    means violated.  Floats, or arrays element by element."""
    return pe - value if kind == "lower" else value - pe


def _sandwich_violated(slack, tol: Optional[float] = None):
    """slack < -tol, with tol the module's SANDWICH_TOL when it is called
    unless given.  Floats, or arrays element by element."""
    return slack < -(SANDWICH_TOL if tol is None else tol)


DEFAULT_S_GRID = (-1.0, 0.0, 0.5, 2.0)


@lru_cache(maxsize=None)
def _difference_generators() -> dict:
    # resolved once: generator(tag) parses its tag on every call
    return {tag: generator(tag) for tag in DIFF_TAGS}


def lower_generators(s_grid: Sequence[float] = DEFAULT_S_GRID) -> Tuple[GeneratingFunction, ...]:
    """The distinct generators whose averages a bound report bisects."""
    gens = [_family_generator("zeta", 0.0)]
    gens += [_family_generator(family, s) for family in ("zeta", "xi") for s in s_grid]
    return tuple({g.key: g for g in gens}.values())


def report_generators(s_grid: Sequence[float] = DEFAULT_S_GRID) -> Tuple[GeneratingFunction, ...]:
    """The distinct generators whose posterior averages a bound report uses."""
    gens = (*lower_generators(s_grid), *_difference_generators().values())
    return tuple({g.key: g for g in gens}.values())


def bound_report(
    problem: TwoClassProblem, s_grid: Sequence[float] = DEFAULT_S_GRID
) -> BoundReport:
    """Exact error plus every bound, in a fixed canonical order.

    Inapplicable bounds appear with applicable=False, a reason note, and
    the trivial value of their kind (0 for lower, 1/2 for upper).
    """
    averages = problem_averages(problem, report_generators(s_grid))
    columns = {key: [v] for key, v in averages.items()}
    rows = report_rows(s_grid, [problem.p1], [problem.p2], columns, lambda j: problem)
    entries = tuple(BoundEntry(name, kind, *column[0]) for name, kind, column in rows)
    return BoundReport(exact_pe=bayes_error(problem), entries=entries)


def report_rows(
    s_grid: Sequence[float], p1: list, p2: list, averages: dict, problem: Callable
) -> List[Tuple[str, str, list]]:
    """Stage 2 of a bound report: every bound of m problems, from their
    posterior averages, as (name, kind, column) rows in canonical order.

    p1 and p2 hold the m problems' priors, and `averages` maps each key of
    report_generators(s_grid) to a list of their averages.  The lower
    bounds are lower_bounds of the averages of each of
    lower_generators(s_grid), all m of them at once.  problem(j) is the
    j-th problem, asked for only where its priors are equal (the Kailath
    bound).  A column lists the m problems' (value, applicable, note)
    entries.  Row names show the orders as the grid has them: -0.0 names
    its rows s=-0.0.
    """

    def entries(pairs) -> list:
        # from (value, note) pairs; a lower bound of None does not apply
        return [(0.0, False, note) if v is None else (v, True, note) for v, note in pairs]

    def upper(g: GeneratingFunction) -> list:
        return entries(_upper_from_average(g, c) for c in averages[g.key])

    lowers = {g.key: lower_bounds(g, averages[g.key]) for g in lower_generators(s_grid)}
    j0 = _family_generator("zeta", 0.0).key
    kailath = (_kailath(a, b, lambda: problem(j)) for j, (a, b) in enumerate(zip(p1, p2)))
    rows = [
        ("kailath", "lower", entries(kailath)),
        ("toussaint_general", "lower", entries(map(_toussaint_general, p1, p2, averages[j0]))),
        ("toussaint_inversion", "lower", [(v, True, "") for v, _ in lowers[j0]]),
    ]
    for family in ("zeta", "xi"):
        for s in s_grid:
            key = _family_generator(family, s).key
            rows.append((f"{family}_lower(s={float(s)!r})", "lower", entries(lowers[key])))
    for family in ("zeta", "xi"):
        for s in s_grid:
            name = f"{family}_upper(s={float(s)!r})"
            try:
                g = _family_upper_generator(family, s)
            except BoundUnavailable as exc:
                rows.append((name, "upper", [(0.5, False, str(exc))] * len(p1)))
            else:
                rows.append((name, "upper", upper(g)))
    for tag, g in _difference_generators().items():
        rows.append((f"diff_upper({tag})", "upper", upper(g)))
    return rows


@dataclass(frozen=True)
class ComparisonResult:
    relation: str
    satisfied: bool
    slack: float


COMPARISON_TAGS = ("D_IDelta", "D_hDelta", "D_dh", "D_dDelta")


def comparison_check(problem: TwoClassProblem) -> List[ComparisonResult]:
    """Verify the printed sharpness orderings between difference upper bounds.

    Each relation asserts lhs <= rhs between two upper-bound expressions;
    slack = rhs - lhs.
    """
    gens = _difference_generators()
    return compare_averages(problem_averages(problem, [gens[tag] for tag in COMPARISON_TAGS]))


def compare_averages(dbar) -> List[ComparisonResult]:
    """The comparison relations from the averages of COMPARISON_TAGS, by tag.

    The averages are floats, or arrays of one per problem; then each
    result's satisfied and slack are arrays too, element for element the
    floats' results.
    """
    gens = _difference_generators()

    def bound(coef: float, v: float) -> float:
        return 0.5 * (1.0 - coef * v)

    def direct(tag: str) -> float:
        return 1.0 / gens[tag].f_infinity

    relations = [
        (
            "sharper_vs_chained(D_hDelta->D_IDelta)",
            bound(8.0 / 3.0, dbar["D_hDelta"]),
            bound(4.0, dbar["D_IDelta"]),
        ),
        (
            "direct_vs_loose(D_IDelta)",
            bound(direct("D_IDelta"), dbar["D_IDelta"]),
            bound(4.0, dbar["D_IDelta"]),
        ),
        (
            "direct_vs_chained(D_dh->D_dDelta)",
            bound(direct("D_dh"), dbar["D_dh"]),
            bound(8.0 / (15.0 * (1.0 - LN2)), dbar["D_dDelta"]),
        ),
        (
            "direct_vs_loose(D_hDelta)",
            bound(4.0, dbar["D_hDelta"]),
            bound(direct("D_dDelta"), dbar["D_hDelta"]),
        ),
    ]
    out = []
    for relation, lhs, rhs in relations:
        slack = rhs - lhs
        out.append(
            ComparisonResult(relation, slack >= -COMPARISON_TOL * (1.0 + abs(rhs)), slack)
        )
    return out
