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
catalog generator; nothing here restates a generator in closed form.
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
from .generators import _FAMILY_FNS, LN2, GeneratingFunction, generator, star, star_extended
from .kernel import (
    ArgumentError,
    DivboundError,
    OrderParameter,
    invert_decreasing,
    invert_decreasing_rows,
    row_sum,
)
from .measures import DIFF_TAGS, FAMILY_TAGS, MeasureId, _limit_base, zeta as zeta_measure

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


def _bisected(g: GeneratingFunction) -> Callable[[float], float]:
    """star(g, a) for a float a in the bisection bracket, without star's
    per-call type and domain checks: the bracket lies inside (0, 1).  An
    overflow goes to star, which takes the mirrored form."""
    fn = g.fn
    inf = math.inf

    def f(a: float) -> float:
        try:
            value = float(a * fn((1.0 - a) / a))
        except OverflowError:
            return star(g, a)
        return star(g, a) if value == inf else value

    return f


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


def _float_form(g: GeneratingFunction) -> Optional[Callable]:
    """g.fn for arrays with the bits g.fn has on each float, or None.

    A family member at a regular order takes its powers with _float_pow;
    at a limit order it is J, I or T, whose numpy log and sqrt give an
    array the bits they give a float.  Only family members are bisected.
    """
    mid = MeasureId.parse(g.key)
    if mid.tag not in FAMILY_TAGS:
        return None
    if _limit_base(mid.tag, mid.s) is not None:
        return g.fn
    return _FAMILY_FNS[mid.tag](mid.s, _float_pow)


def _bisected_rows(g: GeneratingFunction) -> Callable[[np.ndarray], np.ndarray]:
    """_bisected(g) on an array of bracket points, bit for bit per element:
    the float form in numpy, and _bisected(g) itself on each point whose
    value is not finite (a power or the product overflowed)."""
    scalar = _bisected(g)
    fn = _float_form(g)
    if fn is None:
        return lambda a: np.array([scalar(x) for x in a.tolist()])

    def f(a: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = a * fn((1.0 - a) / a)
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = [scalar(x) for x in a[bad].tolist()]
        return out

    return f


_INFINITE_AVERAGE = "vacuous: averaged divergence is infinite"


def _clamped_lower(val: float) -> Tuple[float, str]:
    if val <= LOWER_BRACKET_LO:
        return 0.0, "near-vacuous: target above inversion bracket"
    return val, ""


def _lower_from_average(g: GeneratingFunction, v: float) -> Tuple[float, str]:
    if math.isinf(v):
        return 0.0, _INFINITE_AVERAGE
    return _clamped_lower(invert_decreasing(_bisected(g), v, LOWER_BRACKET_LO, 0.5))


def lower_bounds(g: GeneratingFunction, averages: np.ndarray) -> List[Tuple[float, str]]:
    """_lower_from_average(g, v) for each average v, bit for bit, with the
    bisections of all of them run in lockstep (invert_decreasing_rows)."""
    v = np.asarray(averages, dtype=float)
    finite = ~np.isinf(v)  # a nan raises invert_decreasing's error
    vals = np.zeros(v.shape)
    vals[finite] = invert_decreasing_rows(_bisected_rows(g), v[finite], LOWER_BRACKET_LO, 0.5)
    return [
        _clamped_lower(val) if fin else (0.0, _INFINITE_AVERAGE)
        for val, fin in zip(vals.tolist(), finite.tolist())
    ]


def lower_bound_family(problem: TwoClassProblem, family: str, s) -> Tuple[float, str]:
    """Certified lower bound on the Bayes error from one family member.

    Returns (value, note); the note flags vacuous or near-vacuous results.
    """
    g = _family_generator(family, s)
    return _lower_from_average(g, average_f_divergence(problem, g))


def kailath_bound(problem: TwoClassProblem) -> Tuple[Optional[float], str]:
    """1/4 exp(-J/2) with J between the conditionals; equal priors only."""
    if abs(problem.p1 - problem.p2) > PRIOR_TOL:
        return None, "requires equal priors"
    j = zeta_measure(0.0, problem.cond1, problem.cond2)
    if math.isinf(j):
        return 0.0, "J infinite (bound saturates at 0)"
    return 0.25 * math.exp(-0.5 * j), ""


def _toussaint_general(problem: TwoClassProblem, jbar: float) -> Optional[float]:
    h = -(problem.p1 * math.log(problem.p1) + problem.p2 * math.log(problem.p2))
    radicand = 1.0 - 4.0 * math.exp(-2.0 * h - jbar)
    if -RADICAND_SNAP < radicand < 0.0:
        radicand = 0.0
    if radicand < 0.0:
        return None
    return 0.5 - 0.5 * math.sqrt(radicand)


def toussaint_bounds(problem: TwoClassProblem) -> Tuple[Optional[float], float]:
    """(general square-root bound or None, sharper bound via J-inversion)."""
    g = _family_generator("zeta", 0.0)
    jbar = average_f_divergence(problem, g)
    return _toussaint_general(problem, jbar), _lower_from_average(g, jbar)[0]


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
    return v, _lower_from_average(g, v), upper


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
        """(name, slack) of each applicable entry: P_e - value for a lower
        bound, value - P_e for an upper one; negative means violated."""
        return [
            (e.name, (self.exact_pe - e.value) if e.kind == "lower" else (e.value - self.exact_pe))
            for e in self.entries
            if e.applicable
        ]

    def sandwich_violations(self, tol: float = SANDWICH_TOL) -> List[Tuple[str, float]]:
        """Applicable entries whose slack against the exact error is < -tol."""
        return [(name, slack) for name, slack in self.slacks() if slack < -tol]

    @property
    def sandwich_ok(self) -> bool:
        return not self.sandwich_violations()


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
    return assemble_report(problem, s_grid, bayes_error(problem), averages)


_REPORT_ROWS: dict = {}


def _report_rows(s_grid: Sequence[float]) -> Tuple[tuple, tuple]:
    """The rows a report on s_grid has after the Kailath and Toussaint rows:
    (name, generator) of each family lower bound, then (name, generator,
    "") of each upper bound, or (name, None, reason) where it does not exist.

    Built once per grid, keyed by the orders' reprs: -0.0 == 0.0, but its
    rows are named for -0.0.
    """
    key = tuple(map(repr, s_grid))
    rows = _REPORT_ROWS.get(key)
    if rows is not None:
        return rows
    lower = [
        (f"{family}_lower(s={float(s)!r})", _family_generator(family, s))
        for family in ("zeta", "xi")
        for s in s_grid
    ]
    upper = []
    for family in ("zeta", "xi"):
        for s in s_grid:
            name = f"{family}_upper(s={float(s)!r})"
            try:
                upper.append((name, _family_upper_generator(family, s), ""))
            except BoundUnavailable as exc:
                upper.append((name, None, str(exc)))
    upper += [(f"diff_upper({tag})", g, "") for tag, g in _difference_generators().items()]
    rows = _REPORT_ROWS[key] = tuple(lower), tuple(upper)
    return rows


def assemble_report(
    problem: TwoClassProblem, s_grid: Sequence[float], pe: float, averages, lowers=None
) -> BoundReport:
    """Stage 2 of bound_report: every bound from the problem's posterior averages.

    `averages` maps each key of report_generators(s_grid) to the problem's
    average as a float.  `lowers` maps each key of lower_generators(s_grid)
    to its lower bound and note, as lower_bounds gives them; without it
    each lower bound bisects its generator once.
    """
    lowers = {} if lowers is None else lowers

    def lower(g: GeneratingFunction) -> Tuple[float, str]:
        if g.key not in lowers:
            lowers[g.key] = _lower_from_average(g, averages[g.key])
        return lowers[g.key]

    entries: List[BoundEntry] = []

    val, note = kailath_bound(problem)
    if val is None:
        entries.append(BoundEntry("kailath", "lower", 0.0, False, note))
    else:
        entries.append(BoundEntry("kailath", "lower", val, True, note))

    j0 = _family_generator("zeta", 0.0)
    general = _toussaint_general(problem, averages[j0.key])
    if general is None:
        entries.append(
            BoundEntry("toussaint_general", "lower", 0.0, False, "radicand negative")
        )
    else:
        entries.append(BoundEntry("toussaint_general", "lower", general, True, ""))
    entries.append(BoundEntry("toussaint_inversion", "lower", lower(j0)[0], True, ""))

    lower_rows, upper_rows = _report_rows(s_grid)
    for name, g in lower_rows:
        val, note = lower(g)
        entries.append(BoundEntry(name, "lower", val, True, note))
    for name, g, reason in upper_rows:
        if g is None:
            entries.append(BoundEntry(name, "upper", 0.5, False, reason))
        else:
            val, note = _upper_from_average(g, averages[g.key])
            entries.append(BoundEntry(name, "upper", val, True, note))

    return BoundReport(exact_pe=pe, entries=tuple(entries))


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
