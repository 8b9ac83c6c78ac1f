import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_reference as oracle
from conftest import assert_one_pass_is_each_own, column_entries, make_pair, set_cpus
from divbound.bounds import (
    DEFAULT_S_GRID,
    BoundEntry,
    BoundReport,
    BoundUnavailable,
    InvalidPriors,
    TwoClassProblem,
    average_f_divergence,
    averaged_xi,
    averaged_zeta,
    bayes_error,
    bound_report,
    comparison_check,
    generic_upper_bound,
    kailath_bound,
    family_bounds,
    family_grid_bounds,
    lower_bound_family,
    posterior_arrays,
    posterior_averages,
    problem_averages,
    report_generators,
    toussaint_bounds,
    upper_bound_difference,
    upper_bound_xi,
    upper_bound_zeta,
    xi_point,
    zeta_point,
)
from divbound import bounds as bounds_mod
from divbound import generators as generators_mod
from divbound import kernel
from divbound.distributions import ValidationFailure
from divbound.formats import parse_s_grid
from divbound.kernel import DomainError, invert_decreasing
from divbound.generators import (
    GeneratingFunction,
    float_star,
    float_star_array,
    generator,
    star,
    xi_f_inf,
)
from divbound.measures import DIFF_TAGS, MeasureId, _limit_base

LN2 = math.log(2.0)

# Frozen from the 50-digit reference oracle for the constant-posterior
# problem: priors (1/2, 1/2), cond1 = (0.8, 0.2), cond2 = (0.2, 0.8).
ZBAR0 = 0.83177661667193437  # 0.6 ln 4
IBAR = 0.096372378510878715
KAILATH = 0.10881882041201552
TOUSSAINT_GENERAL = 0.12425915900985094
UPPER_XI0 = 0.36096404744368117
UPPER_XI_HALF = 0.41239691011390318
DIFF_UPPERS = {
    "D_dDelta": 0.48118833507949854,
    "D_dI": 0.48691327523263566,
    "D_dh": 0.48465139728481688,
    "D_hDelta": 0.48,
    "D_hI": 0.48817797569616283,
    "D_IDelta": 0.46700765451297396,
}


@pytest.fixture
def flip_problem():
    return TwoClassProblem.from_arrays((0.5, 0.5), [0.8, 0.2], [0.2, 0.8])


@pytest.fixture
def degenerate_problem():
    return TwoClassProblem.from_arrays((0.5, 0.5), [0.3, 0.7], [0.3, 0.7])


@pytest.fixture
def disjoint_problem():
    return TwoClassProblem.from_arrays((0.5, 0.5), [1.0, 0.0], [0.0, 1.0])


@st.composite
def problems(draw, max_k=12):
    k = draw(st.integers(2, max_k))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p1 = draw(st.floats(0.05, 0.95))
    c1, c2 = make_pair(rng, k)
    return TwoClassProblem.from_arrays((p1, 1.0 - p1), c1.probs, c2.probs)


class TestProblemConstruction:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(InvalidPriors):
            TwoClassProblem.from_arrays((0.6, 0.5), [0.5, 0.5], [0.5, 0.5])

    def test_priors_must_be_positive(self):
        with pytest.raises(InvalidPriors):
            TwoClassProblem.from_arrays((1.0, 0.0), [0.5, 0.5], [0.5, 0.5])

    def test_conditionals_same_alphabet(self):
        with pytest.raises(ValidationFailure):
            TwoClassProblem.from_arrays((0.5, 0.5), [0.5, 0.5], [0.2, 0.3, 0.5])

    def test_single_outcome_alphabet_allowed(self):
        p = TwoClassProblem.from_arrays((0.3, 0.7), [1.0], [1.0])
        assert p.k == 1
        assert bayes_error(p) == pytest.approx(0.3, abs=1e-15)


def posteriors_of(problem):
    """(marginal, class-1 posterior, class-2 posterior) arrays of a problem."""
    w1, _, px, post2 = posterior_arrays(
        problem.p1, problem.p2, problem.cond1.probs, problem.cond2.probs
    )
    with np.errstate(invalid="ignore"):  # 0/0 = nan where px == 0
        return px, w1 / px, post2


class TestPosteriors:
    def test_hand_example(self, flip_problem):
        px, post1, post2 = posteriors_of(flip_problem)
        assert px.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)
        assert post1.tolist() == pytest.approx([0.8, 0.2], abs=1e-15)
        assert (post1 + post2).tolist() == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_identical_conditionals_give_prior(self):
        prob = TwoClassProblem.from_arrays((0.7, 0.3), [0.4, 0.6], [0.4, 0.6])
        _, post1, _ = posteriors_of(prob)
        assert post1.tolist() == pytest.approx([0.7, 0.7], abs=1e-15)

    def test_prior_domination(self):
        eps = 1e-9
        prob = TwoClassProblem.from_arrays((1 - eps, eps), [0.5, 0.5], [0.5, 0.5])
        _, post1, _ = posteriors_of(prob)
        assert np.all(post1 > 1.0 - 1e-8)

    def test_zero_marginal_flagged_and_excluded(self):
        prob = TwoClassProblem.from_arrays(
            (0.5, 0.5), [0.5, 0.5, 0.0], [0.3, 0.7, 0.0]
        )
        px, post1, post2 = posteriors_of(prob)
        assert px[2] == 0.0 and math.isnan(post1[2]) and math.isnan(post2[2])
        small = TwoClassProblem.from_arrays((0.5, 0.5), [0.5, 0.5], [0.3, 0.7])
        assert averaged_zeta(prob, 0.5) == averaged_zeta(small, 0.5)


class TestBayesError:
    def test_flip_problem(self, flip_problem):
        assert bayes_error(flip_problem) == pytest.approx(0.2, abs=1e-15)

    def test_identical_conditionals(self):
        prob = TwoClassProblem.from_arrays((0.7, 0.3), [0.4, 0.6], [0.4, 0.6])
        assert bayes_error(prob) == pytest.approx(0.3, abs=1e-15)

    def test_disjoint_supports(self, disjoint_problem):
        assert bayes_error(disjoint_problem) == 0.0

    @given(problems())
    def test_never_exceeds_smaller_prior(self, prob):
        assert bayes_error(prob) <= min(prob.p1, prob.p2) + 1e-15


class TestAveragedDivergences:
    def test_zbar_at_zero_frozen(self, flip_problem):
        assert averaged_zeta(flip_problem, 0.0) == pytest.approx(ZBAR0, rel=1e-13)

    def test_ibar_frozen(self, flip_problem):
        assert averaged_xi(flip_problem, 0.0) == pytest.approx(IBAR, rel=1e-13)

    def test_xi_at_minus_one_is_quarter_delta_bar(self, flip_problem):
        assert averaged_xi(flip_problem, -1.0) == pytest.approx(0.09, rel=1e-13)

    def test_degenerate_is_zero(self, degenerate_problem):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert abs(averaged_zeta(degenerate_problem, s)) <= 1e-14
            assert abs(averaged_xi(degenerate_problem, s)) <= 1e-14

    @given(problems())
    def test_halving_identity(self, prob):
        if abs(prob.p1 - 0.5) > 1e-12:
            prob = TwoClassProblem.from_arrays(
                (0.5, 0.5), prob.cond1.probs, prob.cond2.probs
            )
        from divbound.measures import xi as xi_m, zeta as zeta_m

        for s in (-1.0, 0.0, 0.5, 2.0):
            zv = zeta_m(s, prob.cond1, prob.cond2)
            assert averaged_zeta(prob, s) == pytest.approx(0.5 * zv, rel=1e-12, abs=1e-15)
            xv = xi_m(s, prob.cond1, prob.cond2)
            assert averaged_xi(prob, s) == pytest.approx(0.5 * xv, rel=1e-12, abs=1e-15)

    def test_halving_identity_near_the_diagonal(self):
        # 4,000 seeded problems at equal priors whose conditionals differ by
        # a factor exp(eps z) per cell, eps from 1e-3 to 1e-1: the family
        # cells in product form cancel nothing near P = Q, so both sides
        # keep test_halving_identity's tolerance there (a zeta sum of
        # powers less 2 misses it on 77 of them)
        from divbound.measures import xi as xi_m, zeta as zeta_m

        families = (("zeta", averaged_zeta, zeta_m), ("xi", averaged_xi, xi_m))

        misses = []
        for i in range(4000):
            rng = np.random.default_rng([i, 52])
            k = int(rng.integers(2, 13))
            p = np.exp(rng.standard_normal(k))
            p /= p.sum()
            q = p * np.exp(10.0 ** rng.uniform(-3.0, -1.0) * rng.standard_normal(k))
            q /= q.sum()
            prob = TwoClassProblem.from_arrays((0.5, 0.5), p, q)
            for s in (-1.0, 0.5, 2.0):
                for family, averaged, measure in families:
                    want = 0.5 * measure(s, prob.cond1, prob.cond2)
                    if averaged(prob, s) != pytest.approx(want, rel=1e-12, abs=1e-15):
                        misses.append((i, family, s))
        assert misses == []

    def test_average_f_divergence_routes(self, flip_problem):
        assert average_f_divergence(
            flip_problem, generator(MeasureId("xi", 0.0))
        ) == pytest.approx(averaged_xi(flip_problem, 0.0), rel=1e-12)
        assert average_f_divergence(flip_problem, generator("Delta")) == pytest.approx(
            0.36, rel=1e-13
        )

    @given(problems())
    def test_generic_vs_pointwise_route(self, prob):
        for s in (-1.0, 0.5, 2.0):
            zg = average_f_divergence(prob, generator(MeasureId("zeta", s)))
            assert zg == pytest.approx(averaged_zeta(prob, s), rel=1e-12, abs=1e-14)
            xg = average_f_divergence(prob, generator(MeasureId("xi", s)))
            assert xg == pytest.approx(averaged_xi(prob, s), rel=1e-12, abs=1e-14)

    def test_degenerate_posteriors_flag_infinity(self, disjoint_problem):
        assert math.isinf(averaged_zeta(disjoint_problem, 0.0))
        assert math.isinf(averaged_zeta(disjoint_problem, 2.0))
        assert math.isfinite(averaged_zeta(disjoint_problem, 0.5))
        assert math.isinf(averaged_xi(disjoint_problem, 2.0))
        assert math.isfinite(averaged_xi(disjoint_problem, 0.0))


class TestPointwiseForms:
    def test_zeta_point_is_star_of_generator(self):
        for s in (-1.0, 0.0, 0.5, 2.0):
            g = generator(MeasureId("zeta", s))
            for a in (0.05, 0.2, 0.5, 0.9):
                assert zeta_point(s, a) == pytest.approx(star(g, a), rel=1e-12)

    def test_xi_point_is_star_of_generator(self):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            g = generator(MeasureId("xi", s))
            for a in (0.05, 0.2, 0.5, 0.9):
                assert xi_point(s, a) == pytest.approx(star(g, a), rel=1e-12)

    def test_family_generator_resolved_once(self):
        for family in ("zeta", "xi"):
            g = bounds_mod._family_generator(family, 0.5)
            assert bounds_mod._family_generator(family, 0.5) is g
            assert g is generator(MeasureId(family, 0.5))

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_order_rejected(self, s):
        for point in (zeta_point, xi_point):
            with pytest.raises(DomainError):
                point(s, 0.3)

    def test_endpoint_conventions(self):
        assert zeta_point(0.5, 0.0) == 4.0
        assert math.isinf(zeta_point(0.0, 0.0))
        assert math.isinf(zeta_point(2.0, 1.0))
        assert xi_point(0.0, 0.0) == pytest.approx(LN2 / 2.0, abs=1e-16)
        assert math.isinf(xi_point(1.0, 0.0))
        assert math.isinf(xi_point(2.0, 0.0))


class TestLowerBounds:
    def test_jensen_equality_case(self, flip_problem):
        for family in ("zeta", "xi"):
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                val, note = lower_bound_family(flip_problem, family, s)
                assert val == pytest.approx(0.2, abs=1e-10), (family, s)
                assert note == ""

    def test_degenerate_saturates_at_half(self, degenerate_problem):
        for family in ("zeta", "xi"):
            val, _ = lower_bound_family(degenerate_problem, family, 0.5)
            assert val == 0.5

    def test_vacuous_when_averaged_infinite(self, disjoint_problem):
        val, note = lower_bound_family(disjoint_problem, "zeta", 0.0)
        assert val == 0.0 and "vacuous" in note

    def test_near_vacuous_when_target_above_bracket(self):
        eps = 1e-13
        prob = TwoClassProblem.from_arrays(
            (0.5, 0.5), [eps, 1.0 - eps], [1.0 - eps, eps]
        )
        val, note = lower_bound_family(prob, "zeta", 2.0)
        assert val <= 1e-12 and "near-vacuous" in note

    def test_clamped_bounds_stay_below_tiny_error(self):
        # P_e = 1e-20 lies below the bracket, so a clamped bound must be 0
        prob = TwoClassProblem.from_arrays((0.99999999999999999999, 1e-20), [0.3, 0.7], [0.3, 0.7])
        report = bound_report(prob)
        assert report.exact_pe == 1e-20
        lowers = [e for e in report.entries if e.kind == "lower" and e.applicable]
        assert len(lowers) == 10
        for entry in lowers:
            assert entry.value <= report.exact_pe, entry
        for family in ("zeta", "xi"):
            for s in DEFAULT_S_GRID:
                val, note = lower_bound_family(prob, family, s)
                assert val == 0.0 and "near-vacuous" in note

    def test_unknown_family(self, flip_problem):
        with pytest.raises(Exception):
            lower_bound_family(flip_problem, "theta", 0.5)

    @pytest.mark.parametrize(
        "family, s", [("zeta", 0.0), ("zeta", 2.0), ("zeta", 60.0), ("xi", -1.0), ("xi", -60.0)]
    )
    def test_bisected_function_is_star(self, family, s):
        g = bounds_mod._family_generator(family, s)
        f = float_star(g)
        lo = bounds_mod.LOWER_BRACKET_LO
        for a in (lo, 1e-9, 0.01, 0.2, 0.3, 0.4999, 0.5):
            assert repr(f(a)) == repr(star(g, a)), a  # inf where a power overflows
        for a in (0.01, 0.2, 0.4, 0.49):
            target = star(g, a)
            assert invert_decreasing(f, target, lo, 0.5) == invert_decreasing(
                lambda x: star(g, x), target, lo, 0.5
            )


# Orders whose lower bounds are checked in lockstep: the verify grid, the
# limit bands (J, I and T), and orders where a power overflows, so that
# the evaluator hands points to its fallback.
LOCKSTEP_ORDERS = [("zeta", s) for s in (-1.0, 0.0, 0.5, 2.0, 1e-7, -1e-7, 60.0, -60.0)] + [
    ("xi", s) for s in (-1.0, 0.0, 0.5, 2.0, 1e-7, -1e-7, 1.0 + 1e-7, 60.0, -60.0, -1040.0)
]
OVERFLOW_ORDERS = [("zeta", 60.0), ("zeta", -60.0), ("xi", 60.0), ("xi", -1040.0)]
LO = bounds_mod.LOWER_BRACKET_LO


def _bracket_points(seed, count=10_000):
    rng = np.random.default_rng(seed)
    half = count // 2
    return np.concatenate(
        [rng.uniform(LO, 0.5, half), 10.0 ** rng.uniform(-12.0, math.log10(0.5), count - half)]
    )


def _report_from_rows(problem, grid, averages):
    """The report that stage 2 gives for one problem from its averages."""
    columns = {key: np.array([v]) for key, v in averages.items()}
    rows = bounds_mod.report_rows(grid, [problem.p1], [problem.p2], columns, lambda j: problem)
    return BoundReport(bayes_error(problem), column_entries(rows, 0))


def _lockstep_equals_scalar(g, targets):
    values, codes = bounds_mod.lower_bounds(g, np.array(targets, dtype=float))
    got = list(zip(values.tolist(), codes.tolist()))
    want = [bounds_mod.lower_bounds(g, [v]) for v in targets]
    assert repr(got) == repr([(v.item(), c.item()) for v, c in want])


def _scalar_lower(g, average):
    """The lower bound and note of one average, in floats."""
    if math.isinf(average):
        return 0.0, "vacuous: averaged divergence is infinite"
    val = invert_decreasing(float_star(g), average, LO, 0.5)
    if val <= LO:
        return 0.0, "near-vacuous: target above inversion bracket"
    return val, ""


def _no_loop(*args, **kwargs):
    raise AssertionError("this bisection loop is not the one for this many averages")


class TestLockstepLowerBounds:
    """lower_bounds bisects many averages at once, with the bits of the
    float loop it runs on one average."""

    @pytest.mark.parametrize("family,s", LOCKSTEP_ORDERS + [("D_IDelta", None)])
    def test_evaluator_is_the_float_path(self, family, s):
        # a difference is not bisected, but its generator has the float
        # bits on arrays too: its square is a product, its log numpy's
        g = generator(family) if s is None else bounds_mod._family_generator(family, s)
        points = _bracket_points(int(abs(s or 0.0) * 1000) + len(family))
        f = float_star(g)
        got = float_star_array(g)(points)
        assert [repr(v) for v in got.tolist()] == [repr(f(a)) for a in points.tolist()]

    def test_lockstep_power_is_the_float_power(self):
        # the premise of the evaluator: numpy's float_power is libm's pow per
        # element, the function a float's ** calls, and nan exactly where **
        # raises OverflowError; a SIMD float_power would break it here first
        exponents = {0.3, -0.7, 1.5, 3.7}
        for family, s in LOCKSTEP_ORDERS:
            if _limit_base(family, s) is None:
                exponents.update((s, 1.0 - s) if family == "zeta" else (1.0 - s,))
        u = 10.0 ** np.random.default_rng(3).uniform(-300.0, 300.0, 100_000)
        points = u.tolist()
        for e in sorted(exponents):
            want = []
            for v in points:
                try:
                    want.append(v**e)
                except OverflowError:
                    want.append(math.nan)
            got = generators_mod._float_pow(u, e)
            assert got.tobytes() == np.array(want).tobytes(), e

    @pytest.mark.parametrize("family,s", OVERFLOW_ORDERS)
    def test_overflowed_points_take_the_scalar_path(self, monkeypatch, family, s):
        # the points the lockstep form overflows at take the fallback that
        # _star_float shares, the Csiszar cell terms at (1 - x, x)
        g = bounds_mod._family_generator(family, s)
        calls = []
        star_cells = generators_mod._star_cells

        def counting(fn, a):
            calls.append(a)
            return star_cells(fn, a)

        monkeypatch.setattr(generators_mod, "_star_cells", counting)
        float_star_array(g)(_bracket_points(1, 1000))
        assert calls

    @pytest.mark.parametrize("family,s", LOCKSTEP_ORDERS)
    def test_equals_scalar_inversion(self, family, s):
        g = bounds_mod._family_generator(family, s)
        f = float_star(g)
        f_lo, f_half = f(LO), f(0.5)
        rng = np.random.default_rng(7)
        targets = [math.inf, f_half, math.nextafter(f_half, -math.inf), f_half - 1.0, -1e300]
        if math.isfinite(f_lo):
            # at and above f*(LOWER_BRACKET_LO): clamped, flagged near-vacuous
            targets += [f_lo, math.nextafter(f_lo, math.inf), 2.0 * f_lo + 1.0]
        targets += [f(a) for a in rng.uniform(LO, 0.5, 200).tolist()]
        targets += [f(a) for a in (10.0 ** rng.uniform(-12.0, -1.0, 200)).tolist()]
        targets = [v for v in targets if not math.isnan(v)]
        _lockstep_equals_scalar(g, targets + targets[::-1])

    def test_near_half_problem(self):
        # averages just above f*(1/2) = 0: bisections that end deep in the bracket
        problem = TwoClassProblem.from_arrays((0.50001, 0.49999), [0.5, 0.5], [0.5, 0.5])
        averages = problem_averages(problem, report_generators(DEFAULT_S_GRID))
        gens = bounds_mod.lower_generators(DEFAULT_S_GRID)
        for g in gens:
            _lockstep_equals_scalar(g, [averages[g.key]] * 3)
        got = _report_from_rows(problem, DEFAULT_S_GRID, averages)
        assert repr(got) == repr(bound_report(problem))

    @pytest.mark.parametrize("family,s", LOCKSTEP_ORDERS)
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_edge_averages_equal_the_float_formula(self, family, s, count):
        # an infinite average, and targets at and above f*(LOWER_BRACKET_LO)
        g = bounds_mod._family_generator(family, s)
        f_lo = float_star(g)(LO)
        edges = [math.inf, f_lo, math.nextafter(f_lo, math.inf), 2.0 * f_lo + 1.0, float_star(g)(0.25)]
        for average in [v for v in edges if not math.isnan(v)]:
            values, codes = bounds_mod.lower_bounds(g, [average] * count)
            got = [(v, bounds_mod.NOTES[c]) for v, c in zip(values.tolist(), codes.tolist())]
            assert repr(got) == repr([_scalar_lower(g, average)] * count)

    @pytest.mark.parametrize("key", ["h", "zeta:0.3"])
    def test_a_renamed_generator_keeps_the_lockstep(self, key):
        # the lockstep finds its form by the generator's fn, not by its key:
        # a key outside the catalog bisects as the catalog member does
        g = generator(key)
        renamed = GeneratingFunction(f"my-{key}", g.fn, g.f_infinity)
        f = float_star(renamed)
        _lockstep_equals_scalar(renamed, [f(0.05), f(0.3)])

    def test_no_targets(self):
        values, codes = bounds_mod.lower_bounds(bounds_mod._family_generator("xi", 0.5), [])
        assert values.size == codes.size == 0

    def test_one_average_takes_the_float_loop(self, monkeypatch, flip_problem):
        def one_problem_bounds():
            return [
                bound_report(flip_problem),
                family_bounds(flip_problem, "xi", 0.5),
                lower_bound_family(flip_problem, "zeta", 2.0),
                toussaint_bounds(flip_problem),
            ]

        want = one_problem_bounds()
        monkeypatch.setattr(bounds_mod, "invert_decreasing_rows", _no_loop)
        assert repr(one_problem_bounds()) == repr(want)

    def test_nan_average_raises_as_the_scalar_path(self):
        g = bounds_mod._family_generator("zeta", 0.5)
        with pytest.raises(DomainError, match=r"^target must be finite, got nan$"):
            bounds_mod.lower_bounds(g, [math.nan])
        with pytest.raises(DomainError, match=r"^target must be finite, got nan$"):
            bounds_mod.lower_bounds(g, [0.1, math.inf, math.nan])


class TestKailath:
    def test_frozen_value(self, flip_problem):
        val, note = kailath_bound(flip_problem)
        assert val == pytest.approx(KAILATH, rel=1e-13)
        assert val <= bayes_error(flip_problem)

    def test_degenerate(self, degenerate_problem):
        val, _ = kailath_bound(degenerate_problem)
        assert val == 0.25

    def test_unequal_priors_not_applicable(self):
        prob = TwoClassProblem.from_arrays((0.6, 0.4), [0.8, 0.2], [0.2, 0.8])
        val, note = kailath_bound(prob)
        assert val is None and "equal priors" in note

    def test_disjoint_supports_saturate(self, disjoint_problem):
        val, _ = kailath_bound(disjoint_problem)
        assert val == 0.0


class TestToussaint:
    def test_frozen_values(self, flip_problem):
        general, via_inv = toussaint_bounds(flip_problem)
        assert general == pytest.approx(TOUSSAINT_GENERAL, rel=1e-12)
        assert via_inv == pytest.approx(0.2, abs=1e-10)

    def test_degenerate_equal_priors(self, degenerate_problem):
        general, via_inv = toussaint_bounds(degenerate_problem)
        assert general == 0.5
        assert via_inv == 0.5

    def test_skewed_priors_identical_conditionals(self):
        # 2H + Jbar >= ln 4 holds on every problem, so the radicand is
        # nonnegative; here it is 0.64 and the bound is tight at P_e = 0.1
        prob = TwoClassProblem.from_arrays((0.9, 0.1), [0.3, 0.7], [0.3, 0.7])
        general, via_inv = toussaint_bounds(prob)
        assert general == pytest.approx(0.1, abs=1e-12)
        assert via_inv == pytest.approx(0.1, abs=1e-10)

    @given(problems())
    @example(
        # 1 - 4 exp(-2H - Jbar) rounds to -2.2e-16 here and is clamped to 0
        TwoClassProblem.from_arrays(
            (0.49999999639919884, 0.50000000360080116),
            [0.1930486701828467, 0.8069513298171533],
            [0.19304867032342818, 0.8069513296765718],
        )
    )
    @example(
        # priors summing to 1 + 9.99e-13 and equal conditionals: the radicand
        # is -6.13e-13, about -2(1 - ln 2) times the sum defect
        TwoClassProblem.from_arrays(
            (0.5000000000004994, 0.5000000000004994), [0.5, 0.5], [0.5, 0.5]
        )
    )
    @example(TwoClassProblem.from_arrays((1e-300, 1.0), [0.3, 0.7], [0.6, 0.4]))
    def test_radicand_stays_above_minus_prior_tol(self, prob):
        # the radicand as _toussaint_general takes it, which clamps it at 0
        jbar = average_f_divergence(prob, generators_mod.generator("zeta:0.0"))
        h = -(prob.p1 * math.log(prob.p1) + prob.p2 * math.log(prob.p2))
        assert 1.0 - 4.0 * math.exp(-2.0 * h - jbar) >= -bounds_mod.PRIOR_TOL
        general, _ = toussaint_bounds(prob)
        assert general <= 0.5


class TestUpperBounds:
    def test_zeta_half_frozen(self, flip_problem):
        assert upper_bound_zeta(flip_problem, 0.5) == pytest.approx(0.4, rel=1e-13)

    def test_zeta_outside_window_unavailable(self, flip_problem):
        for s in (0.0, 1.0, -1.0, 2.0, 1e-8):
            with pytest.raises(BoundUnavailable):
                upper_bound_zeta(flip_problem, s)

    def test_xi_frozen(self, flip_problem):
        assert upper_bound_xi(flip_problem, 0.0) == pytest.approx(UPPER_XI0, rel=1e-13)
        assert upper_bound_xi(flip_problem, -1.0) == pytest.approx(0.32, rel=1e-13)
        assert upper_bound_xi(flip_problem, 0.5) == pytest.approx(
            UPPER_XI_HALF, rel=1e-13
        )

    def test_xi_at_or_above_one_unavailable(self, flip_problem):
        for s in (1.0, 2.0, 1.0 + 1e-8):
            with pytest.raises(BoundUnavailable):
                upper_bound_xi(flip_problem, s)

    def test_degenerate_all_half(self, degenerate_problem):
        assert upper_bound_zeta(degenerate_problem, 0.5) == 0.5
        assert upper_bound_xi(degenerate_problem, 0.0) == 0.5
        for tag in DIFF_TAGS:
            assert upper_bound_difference(degenerate_problem, tag) == 0.5

    @pytest.mark.parametrize("tag,expected", sorted(DIFF_UPPERS.items()))
    def test_diff_bounds_frozen(self, flip_problem, tag, expected):
        assert upper_bound_difference(flip_problem, tag) == pytest.approx(
            expected, rel=1e-12
        )

    def test_coefficient_reproduction(self):
        assert 4.0 / (2.0 * LN2 - 1.0) == pytest.approx(10.354797798248359, rel=1e-15)
        g = generator("D_IDelta")
        assert 1.0 / g.f_infinity == pytest.approx(4.0 / (2.0 * LN2 - 1.0), rel=1e-14)


class TestGenericUpperBound:
    def test_route_equivalence_xi(self, flip_problem):
        gen_route = generic_upper_bound(flip_problem, generator(MeasureId("xi", 0.0)))
        assert gen_route == pytest.approx(upper_bound_xi(flip_problem, 0.0), abs=1e-12)

    def test_route_equivalence_zeta(self, flip_problem):
        gen_route = generic_upper_bound(flip_problem, generator(MeasureId("zeta", 0.5)))
        assert gen_route == pytest.approx(
            upper_bound_zeta(flip_problem, 0.5), abs=1e-12
        )

    def test_route_equivalence_diffs(self, flip_problem):
        for tag in DIFF_TAGS:
            assert generic_upper_bound(flip_problem, generator(tag)) == pytest.approx(
                upper_bound_difference(flip_problem, tag), abs=1e-12
            )

    @pytest.mark.parametrize("tag", ["J", "Psi", "T"])
    def test_unbounded_generators_unavailable(self, flip_problem, tag):
        with pytest.raises(BoundUnavailable):
            generic_upper_bound(flip_problem, generator(tag))

    def test_one_formula_on_a_seeded_corpus(self):
        # every upper bound is (f_inf - avg)/(2 f_inf), bit for bit, clamped
        # to [0, 1/2]
        rng = np.random.default_rng(20111)
        gens = [g for g in report_generators() if math.isfinite(g.f_infinity)]
        for _ in range(1000):
            p1 = float(rng.uniform(0.05, 0.95))
            c1, c2 = make_pair(rng, int(rng.integers(2, 13)))
            problem = TwoClassProblem.from_arrays((p1, 1.0 - p1), c1.probs, c2.probs)
            averages = problem_averages(problem, report_generators())
            by_name = {e.name: e.value for e in bound_report(problem).entries}
            for g in gens:
                f_inf, c = g.f_infinity, averages[g.key]
                want = min(max((f_inf - c) / (2.0 * f_inf), 0.0), 0.5)
                tag, _, s = g.key.partition(":")
                name = f"{tag}_upper(s={float(s)!r})" if s else f"diff_upper({tag})"
                assert by_name[name] == want, (g.key, by_name[name], want)
                assert generic_upper_bound(problem, g) == want


# Two problems whose xi upper bounds overflowed: the xi generator overflowed
# at the posterior 0.998 of the first, which made its average inf from
# s = -1040 down, and 2 f_inf is inf at s = -1045 in both.
OVERFLOW_REPROS = [
    ((0.5, 0.5), [0.001, 0.999], [0.5, 0.5]),
    ((0.5, 0.5), [0.3, 0.7], [0.6, 0.4]),
]
NEAR_RANGE_ORDERS = (-1046.0, -1045.5, -1045.0, -1044.9, -1044.0, -1040.0, -1030.0, -1016.0, -1000.0)


@pytest.mark.filterwarnings("error")
class TestUpperBoundsNearTheDoubleRange:
    @pytest.mark.parametrize("priors,cond1,cond2", OVERFLOW_REPROS)
    def test_certified_flagged_and_never_nan(self, priors, cond1, cond2):
        problem = TwoClassProblem.from_arrays(priors, cond1, cond2)
        report = bound_report(problem, NEAR_RANGE_ORDERS)
        pe = report.exact_pe
        by_name = {e.name: e for e in report.entries}
        for e in report.entries:
            assert not math.isnan(e.value), e
            if e.kind == "upper" and e.applicable:
                assert e.value >= pe, e
        assert report.sandwich_ok, report.sandwich_violations()
        for family in ("zeta", "xi"):
            for s in NEAR_RANGE_ORDERS:
                finite = math.isfinite(generator(MeasureId(family, s)).f_infinity)
                entry = by_name[f"{family}_upper(s={s!r})"]
                assert entry.applicable == finite, entry
                averaged, (lower, _), upper = family_bounds(problem, family, s)
                assert not math.isnan(averaged) and not math.isnan(lower)
                if finite:
                    assert upper == (entry.value, entry.note)
                else:
                    assert upper is None and entry.value == 0.5

    def test_infinite_average_gives_flagged_half(self):
        # the averages of these problems are finite at s = -1040, so the
        # report is assembled from one whose xi average overflowed
        problem = TwoClassProblem.from_arrays(*OVERFLOW_REPROS[0])
        grid = (-1040.0,)
        averages = bounds_mod.problem_averages(problem, bounds_mod.report_generators(grid))
        averages["xi:-1040.0"] = math.inf
        report = _report_from_rows(problem, grid, averages)
        entry = {e.name: e for e in report.entries}["xi_upper(s=-1040.0)"]
        assert (entry.value, entry.applicable, entry.note) == (
            0.5, True, "vacuous: averaged divergence is infinite"
        )

    @pytest.mark.parametrize("s", [-1044.0, -1040.0, -1035.5, -1030.0, -1026.0])
    def test_xi_average_where_the_generator_powers_overflow(self, s):
        priors, cond1, cond2 = OVERFLOW_REPROS[0]
        problem = TwoClassProblem.from_arrays(priors, cond1, cond2)
        pe = bayes_error(problem)
        averaged, lower, upper = bounds_mod.family_bounds(problem, "xi", s)
        want = float(oracle.averaged_family("xi", s, priors, cond1, cond2))
        assert averaged == pytest.approx(want, rel=1e-10)
        assert 0.0 < lower[0] <= pe and lower[1] == ""
        assert pe <= upper[0] <= 0.5 and upper[1] == ""

    @pytest.mark.parametrize("key", ["xi:-1045.0", "xi:-1040.0", "xi:0.5", "zeta:0.5", *DIFF_TAGS])
    def test_edge_averages_equal_the_float_formula(self, key):
        g = generator(key)
        f_inf = g.f_infinity
        edges = [0.0, f_inf, math.nextafter(f_inf, math.inf), math.nextafter(f_inf, -math.inf)]
        edges += [2.0 * f_inf, math.inf, math.nan]
        for count in (1, 3):
            values, codes = bounds_mod._upper_bounds(g, np.repeat(edges, count))
            got = [(v, bounds_mod.NOTES[c]) for v, c in zip(values.tolist(), codes.tolist())]
            want = [
                (min(max(0.5 * ((f_inf - c) / f_inf), 0.0), 0.5), "")
                if math.isfinite(c)
                else (0.5, "vacuous: averaged divergence is infinite")
                for c in np.repeat(edges, count).tolist()
            ]
            assert repr(got) == repr(want)

    def test_twice_f_inf_overflows(self):
        # f_inf(-1045) is finite, 2 f_inf is not: the bound is just below 1/2
        assert math.isfinite(xi_f_inf(-1045.0))
        assert math.isinf(2.0 * xi_f_inf(-1045.0))
        problem = TwoClassProblem.from_arrays(*OVERFLOW_REPROS[1])
        entry = {e.name: e for e in bound_report(problem, (-1045.0,)).entries}["xi_upper(s=-1045.0)"]
        assert (entry.applicable, entry.note) == (True, "")
        assert 0.35 < entry.value <= 0.5
        assert upper_bound_xi(problem, -1045.0) == entry.value

    def test_overflowed_posterior_ratio_keeps_every_bound(self):
        # at a2 ~ 2e-310, (1 - a)/a overflows and f(inf) is inf - inf: f* is
        # the mirrored cell, so no average is nan and no bisection fails
        problem = TwoClassProblem.from_arrays((0.5, 0.5), [0.5, 0.5], [1.0, 1e-310])
        report = bound_report(problem, DEFAULT_S_GRID)
        assert not any(math.isnan(e.value) for e in report.entries)
        assert report.sandwich_ok, report.sandwich_violations()

    def test_overflowed_generator_is_mirrored_in_the_average(self):
        # at a2 ~ 2e-300, Delta's (u - 1)^2 overflows to -inf in I - Delta/4;
        # the mirrored cell is finite, as on the same problem at 1e-100
        by_mass = {}
        for mass in (1e-300, 1e-100):
            problem = TwoClassProblem.from_arrays((0.5, 0.5), [0.5, 0.5], [1.0, mass])
            entry = {e.name: e for e in bound_report(problem).entries}["diff_upper(D_IDelta)"]
            assert (entry.applicable, entry.note) == (True, "")
            by_mass[mass] = entry.value
            for res in comparison_check(problem):
                assert res.satisfied, res
        assert by_mass[1e-300] == pytest.approx(by_mass[1e-100], abs=1e-12)

    def test_f_inf_past_the_double_range_note(self):
        problem = TwoClassProblem.from_arrays(*OVERFLOW_REPROS[1])
        with pytest.raises(BoundUnavailable, match="exceeds the double range"):
            upper_bound_xi(problem, -1100.0)
        with pytest.raises(BoundUnavailable, match="requires s < 1"):
            upper_bound_xi(problem, 2.0)


class TestBoundReport:
    def test_flip_problem_summary(self, flip_problem):
        report = bound_report(flip_problem, (-1.0, 0.0, 0.5))
        assert report.exact_pe == pytest.approx(0.2, abs=1e-15)
        lowers = [e.value for e in report.entries if e.kind == "lower" and e.applicable]
        uppers = [e.value for e in report.entries if e.kind == "upper" and e.applicable]
        assert max(lowers) == pytest.approx(0.2, abs=1e-9)
        assert min(uppers) == pytest.approx(0.32, rel=1e-12)
        assert report.sandwich_ok

    def test_inapplicable_rows_have_notes(self, flip_problem):
        report = bound_report(flip_problem, (-1.0, 0.0, 0.5))
        by_name = {e.name: e for e in report.entries}
        assert not by_name["zeta_upper(s=0.0)"].applicable
        assert by_name["zeta_upper(s=0.0)"].note
        assert by_name["zeta_upper(s=0.5)"].applicable

    def test_entry_order_is_canonical(self, flip_problem):
        names = [e.name for e in bound_report(flip_problem, (0.5,)).entries]
        assert names == [
            "kailath",
            "toussaint_general",
            "toussaint_inversion",
            "zeta_lower(s=0.5)",
            "xi_lower(s=0.5)",
            "zeta_upper(s=0.5)",
            "xi_upper(s=0.5)",
            "diff_upper(D_dDelta)",
            "diff_upper(D_dh)",
            "diff_upper(D_dI)",
            "diff_upper(D_hI)",
            "diff_upper(D_hDelta)",
            "diff_upper(D_IDelta)",
        ]

    def test_negative_zero_names_its_rows(self, flip_problem):
        # -0.0 == 0.0, so each grid must name its rows afresh, not after
        # whichever of the two came first
        reports = [bound_report(flip_problem, (s, 0.5)) for s in (0.0, -0.0, 0.0)]
        for report, label in zip(reports, ("0.0", "-0.0", "0.0")):
            family_rows = [e.name for e in report.entries if e.name.startswith(("zeta_", "xi_"))]
            assert family_rows == [
                f"{family}_{kind}(s={s})"
                for kind in ("lower", "upper")
                for family in ("zeta", "xi")
                for s in (label, "0.5")
            ]
        values = [[(e.value, e.applicable, e.note) for e in r.entries] for r in reports]
        assert values[0] == values[1] == values[2]

    def test_degenerate_report(self, degenerate_problem):
        report = bound_report(degenerate_problem)
        assert report.exact_pe == 0.5
        for e in report.entries:
            if e.applicable and e.kind == "upper":
                assert e.value == 0.5
            if e.applicable and e.kind == "lower":
                assert e.value <= 0.5
        assert report.sandwich_ok

    def test_disjoint_report(self, disjoint_problem):
        report = bound_report(disjoint_problem)
        assert report.exact_pe == 0.0
        for e in report.entries:
            if e.applicable and e.kind == "upper":
                assert abs(e.value) <= 1e-12
        assert report.sandwich_ok

    @pytest.mark.parametrize(
        "priors,cond1,cond2",
        [
            ((0.3, 0.7), [0.2, 0.5, 0.3], [0.6, 0.1, 0.3]),
            ((0.5, 0.5), [0.5, 0.5, 0.0], [0.25, 0.75, 0.0]),  # a dead outcome
            ((0.4, 0.6), [1.0, 0.0], [0.0, 1.0]),  # disjoint: infinite averages
        ],
    )
    def test_report_equals_the_single_bounds(self, priors, cond1, cond2):
        problem = TwoClassProblem.from_arrays(priors, cond1, cond2)
        grid = (-1.0, 0.0, 0.5, 2.0)
        by_name = {e.name: e for e in bound_report(problem, grid).entries}
        general, via_inversion = toussaint_bounds(problem)
        assert by_name["toussaint_inversion"].value == via_inversion
        assert by_name["toussaint_general"].value == general
        for family, upper in (("zeta", upper_bound_zeta), ("xi", upper_bound_xi)):
            for s in grid:
                low = by_name[f"{family}_lower(s={s!r})"]
                assert (low.value, low.note) == lower_bound_family(problem, family, s)
                up = by_name[f"{family}_upper(s={s!r})"]
                try:
                    assert (up.value, up.applicable) == (upper(problem, s), True)
                except BoundUnavailable as exc:
                    assert (up.value, up.applicable, up.note) == (0.5, False, str(exc))
        for tag in DIFF_TAGS:
            assert by_name[f"diff_upper({tag})"].value == upper_bound_difference(problem, tag)

    def test_large_k_report_matches_single_sums(self, monkeypatch):
        # k past kernel.SUM_LEAF: the averages and P_e are summed leaf by leaf
        k = 3 * kernel.SUM_LEAF + 5
        rng = np.random.default_rng(k)
        c1, c2 = np.exp(2.0 * rng.standard_normal((2, k)))
        c1[:40] = 0.0
        c2[20:60] = 0.0  # outcomes 20-39 are dead
        problem = TwoClassProblem.from_arrays((0.3, 0.7), c1 / c1.sum(), c2 / c2.sum())
        blocked = repr(bound_report(problem))
        monkeypatch.setattr(kernel, "SUM_LEAF", k + 1)
        assert blocked == repr(bound_report(problem))

    def test_report_averages_each_generator_once(self):
        keys = [g.key for g in report_generators((-1.0, 0.0, 0.5, 2.0))]
        assert len(keys) == len(set(keys)) == 14

    @pytest.mark.parametrize(
        "grid, rows, keys, bisections",
        [
            (DEFAULT_S_GRID, 13, 14, 7),
            (parse_s_grid("-1:2:7"), 17, 20, 11),
            ((0.0, -0.0, 0.5, 0.5), 10, 12, 4),
        ],
        ids=["default", "-1:2:7", "both-zeros-and-a-duplicate"],
    )
    def test_stage_1_sums_one_row_per_function(
        self, monkeypatch, passes, plans, grid, rows, keys, bisections
    ):
        # zeta's twins and zeros, and a limit order and its base, share one
        # row of stage 1 and one bisection of stage 2
        problem = TwoClassProblem.from_arrays((0.3, 0.7), [0.2, 0.5, 0.3], [0.6, 0.1, 0.3])
        own, made = bounds_mod.lower_bounds, []
        monkeypatch.setattr(bounds_mod, "lower_bounds", lambda g, v: made.append(g.fn) or own(g, v))
        report = bound_report(problem, grid)
        assert len(report_generators(grid)) == keys and len(made) == len(set(made)) == bisections
        assert ("bounds", rows) in passes and len(plans) == 1
        alone = {g.key: average_f_divergence(problem, g) for g in report_generators(grid)}
        assert problem_averages(problem, report_generators(grid)) == alone
        assert repr(report) == repr(bound_report(problem, grid))

    @pytest.mark.parametrize(
        "grid, bisections",
        [(DEFAULT_S_GRID, 7), (parse_s_grid("-1:2:7"), 11), ((0.0, -0.0, -1.0, 2.0), 5)],
        ids=["default", "-1:2:7", "both-zeros-and-twins"],
    )
    @pytest.mark.parametrize("m", [1, 5])
    def test_each_distinct_function_is_bisected_once(self, monkeypatch, grid, bisections, m):
        # both zeros are one function (J, or I), and so are zeta at 2 and -1
        # and at 1.5 and -0.5: one bisection each, and every lower bound
        # column is that of its own key's average bisected on its own
        rng = np.random.default_rng(m)
        c1, c2 = np.exp(rng.standard_normal((2, m, 6)))
        priors = rng.uniform(0.1, 0.4, (m, 1))
        _, _, px, a2 = posterior_arrays(priors, 1.0 - priors, c1 / c1.sum(-1, keepdims=True),
                                        c2 / c2.sum(-1, keepdims=True))
        averages = posterior_averages(px, a2, report_generators(grid))
        own, made = bounds_mod.lower_bounds, []
        monkeypatch.setattr(bounds_mod, "lower_bounds", lambda g, v: made.append(g.fn) or own(g, v))
        p1 = priors[:, 0].tolist()
        rows = bounds_mod.report_rows(grid, p1, [1.0 - p for p in p1], averages, None)
        assert len(made) == len(set(made)) == bisections
        named = [("toussaint_inversion", bounds_mod._family_generator("zeta", 0.0))] + [
            (f"{family}_lower(s={float(s)!r})", bounds_mod._family_generator(family, s))
            for family in ("zeta", "xi")
            for s in grid
        ]
        columns = {name: (values, codes) for name, _, values, _, codes in rows}
        for name, g in named:
            values, codes = own(g, averages[g.key])
            assert columns[name][0].tobytes() == values.tobytes(), name
            if name != "toussaint_inversion":  # its notes are all 0
                assert columns[name][1].tolist() == codes.tolist(), name

    @given(problems())
    @settings(max_examples=40)
    def test_sandwich_on_random_problems(self, prob):
        report = bound_report(prob)
        assert report.sandwich_ok, report.sandwich_violations()

    def test_an_applicable_nan_entry_is_a_violation(self):
        entries = (
            BoundEntry("a", "lower", math.nan, True),
            BoundEntry("b", "upper", 0.3, True),
            BoundEntry("c", "upper", math.nan, False),
        )
        report = BoundReport(0.25, entries)
        assert [name for name, _ in report.sandwich_violations()] == ["a"]
        assert not report.sandwich_ok


# Orders of one averaging pass: duplicates, both zeros (one generator, J,
# under two keys), and xi at -1030, whose f overflows near a = 1e-9 and 1,
# where the mirrored cell term is finite.
SHARED_PASS_GRID = (-1030.0, -1.0, 0.0, -0.0, 0.5, 0.5, 2.0)


def _edge_posteriors(rng, k):
    """(px, a2) of k live outcomes: uniform posteriors, with exact 0s and
    1s (a zero mass in one conditional) and points 1e-9 from either end."""
    a2 = rng.random(k)
    a2[rng.random(k) < 0.2] = 0.0
    a2[rng.random(k) < 0.2] = 1.0
    a2[rng.random(k) < 0.1] = 1e-9
    a2[rng.random(k) < 0.1] = 1.0 - 1e-9
    px = rng.random(k) / k + 1e-3 / k
    return px, a2


class TestOneAveragingPass:
    """posterior_averages sums all its generators in one leaf pass, which
    makes the posteriors' shared terms once and each distinct function's
    values once; each generator keeps the bits of its own pass."""

    # with two pairs of zeta twins, whose generators share one fn
    gens = report_generators(SHARED_PASS_GRID + (1.5, -0.5))

    def test_the_grid_has_both_zeros_and_an_overflowing_order(self):
        keys = [g.key for g in self.gens]
        assert {"zeta:0.0", "zeta:-0.0", "xi:0.0", "xi:-0.0", "xi:-1030.0"} <= set(keys)
        assert {"zeta:2.0", "zeta:-1.0", "zeta:1.5", "zeta:-0.5", "D_IDelta"} <= set(keys)
        g = generator(MeasureId("xi", -1030.0))
        x = np.array([1e-9, 1.0 - 1e-9])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isinf(x * g.fn((1.0 - x) / x)).any()
        assert np.isfinite(star(g, x)).all()

    def test_endpoint_and_near_endpoint_posteriors(self):
        px = np.array([0.1, 0.2, 0.05, 0.15, 0.3, 0.2])
        a2 = np.array([0.0, 1.0, 1e-9, 1.0 - 1e-9, 0.3, 0.5])
        assert_one_pass_is_each_own(px, a2, self.gens, kernel.row_sum)
        assert_one_pass_is_each_own(px[None], a2[None], self.gens, kernel.row_sum)
        averages = posterior_averages(px, a2, self.gens)
        assert math.isinf(averages["zeta:0.0"])  # J's f_inf at the endpoints
        assert math.isfinite(averages["xi:-1030.0"])

    def test_a_problem_with_zero_masses(self):
        # outcome 0 has class-2 posterior 0, outcome 1 posterior 1
        problem = TwoClassProblem.from_arrays(
            (0.4, 0.6), [0.5, 0.0, 0.3, 0.2], [0.0, 0.25, 0.25, 0.5]
        )
        averages = problem_averages(problem, self.gens)
        for g in self.gens:
            assert averages[g.key] == average_f_divergence(problem, g)
        _, _, px, a2 = posterior_arrays(
            problem.p1, problem.p2, problem.cond1.probs, problem.cond2.probs
        )
        assert a2.tolist()[:2] == [0.0, 1.0]
        assert_one_pass_is_each_own(px, a2, self.gens, kernel.row_sum)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_rows_longer_than_a_leaf(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(kernel.SUM_LEAF)
        px, a2 = _edge_posteriors(rng, 2 * kernel.SUM_LEAF + 13)
        assert_one_pass_is_each_own(px, a2, self.gens, kernel.row_sum)
        block = np.vstack([px, px[::-1]]), np.vstack([a2, a2[::-1]])
        assert_one_pass_is_each_own(*block, self.gens, kernel.row_sum)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_plan_for_a_pass_of_2_20_cells(self, monkeypatch, plans, cpus):
        set_cpus(monkeypatch, cpus)
        px, a2 = _edge_posteriors(np.random.default_rng(cpus), 2**20)
        posterior_averages(px, a2, self.gens)
        assert plans == [self.gens]

    def test_flat_rows(self, monkeypatch):
        # slabs of short rows, and a slab past SUM_LEAF summed through row_sum
        set_cpus(monkeypatch, 2)
        lengths = np.array([1, 2, 2, 5, 5, 5, kernel.SUM_LEAF + 3])
        layout = kernel.FlatRows(lengths)
        px, a2 = _edge_posteriors(np.random.default_rng(3), layout.cells)
        assert_one_pass_is_each_own(px, a2, self.gens, layout.row_sum)

    def test_one_pass_for_all_the_generators(self, passes, flip_problem):
        # one row per distinct function: each zero and each twin pair is one
        problem_averages(flip_problem, self.gens)
        assert passes == [("bounds", len(self.gens) - 4)]


class TestFamilyGridBounds:
    """family_grid_bounds: stage 1 once for a grid, stage 2 per order;
    family_bounds is its one-order case."""

    @pytest.mark.parametrize(
        "grid",
        [parse_s_grid("-1060:2:25"), parse_s_grid("-1:0.9:20"), (0.0, -0.0, 0.5, 0.5)],
        ids=["-1060:2:25", "-1:0.9:20", "both-zeros-and-a-duplicate"],
    )
    @pytest.mark.parametrize("family", ["zeta", "xi"])
    def test_each_row_is_family_bounds(self, family, grid):
        rng = np.random.default_rng(256)
        c1, c2 = make_pair(rng, 256)
        problems = [
            TwoClassProblem.from_arrays((0.3, 0.7), c1.probs, c2.probs),
            *(TwoClassProblem.from_arrays(*repro) for repro in OVERFLOW_REPROS),
        ]
        for problem in problems:
            rows = family_grid_bounds(problem, family, grid)
            assert len(rows) == len(grid)
            for s, row in zip(grid, rows):
                assert repr(row) == repr(family_bounds(problem, family, s)), s

    def test_one_averaging_pass_for_the_grid(self, passes, flip_problem):
        grid = parse_s_grid("-1:0.9:20")
        family_grid_bounds(flip_problem, "xi", grid)
        assert passes == [("bounds", len(grid))]

    @pytest.mark.parametrize("family, bisections", [("zeta", 3), ("xi", 4)])
    def test_each_distinct_function_is_bisected_once(self, monkeypatch, family, bisections):
        # zeta: J, zeta at -1 (and 2) and at 0.5; xi: I, xi at -1, 2 and 0.5
        grid = (0.0, -0.0, -1.0, 2.0, 0.5, 0.5)
        problem = TwoClassProblem.from_arrays((0.3, 0.7), [0.2, 0.5, 0.3], [0.6, 0.1, 0.3])
        own, made = bounds_mod.lower_bounds, []
        monkeypatch.setattr(bounds_mod, "lower_bounds", lambda g, v: made.append(g.fn) or own(g, v))
        rows = family_grid_bounds(problem, family, grid)
        assert len(made) == len(set(made)) == bisections
        for s, (v, lower, _) in zip(grid, rows):
            assert repr(lower) == repr(bounds_mod._single(*own(generator(MeasureId(family, s)), [v])))

    def test_a_generator_error_comes_before_any_bound(self, flip_problem, monkeypatch):
        def bounded(*args):
            raise AssertionError("an order was bounded before every generator was resolved")

        monkeypatch.setattr(bounds_mod, "lower_bounds", bounded)
        with pytest.raises(DomainError, match="must be finite"):
            family_grid_bounds(flip_problem, "zeta", (0.5, math.nan))


class TestComparisons:
    def test_flip_problem_all_satisfied(self, flip_problem):
        for res in comparison_check(flip_problem):
            assert res.satisfied, res

    def test_degenerate_zero_slack(self, degenerate_problem):
        for res in comparison_check(degenerate_problem):
            assert res.satisfied
            assert res.slack == pytest.approx(0.0, abs=1e-14)

    @given(problems())
    @settings(max_examples=60)
    def test_random_problems_satisfy_orderings(self, prob):
        for res in comparison_check(prob):
            assert res.satisfied, res
