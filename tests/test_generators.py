import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle_reference as oracle
from conftest import assert_cell_rows_are_each_own, make_pair
from divbound import generators
from divbound.distributions import PERMISSIVE, validate
from divbound.generators import (
    CATALOG_KEYS,
    GeneratingFunction,
    csiszar_sum,
    generator,
    limit_constants,
    probe_generator,
    probe_star,
    star,
    star_extended,
    star_symmetry_defect,
    xi_f_inf,
    zeta_f_inf,
)
from divbound.kernel import ArgumentError, DivboundError, DomainError
from divbound.measures import MeasureId, measure_value
from divbound.verify import CSISZAR_TOL

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

# f_inf closed forms, typed independently of the catalog module.
EXPECTED_F_INF = {
    "Delta": 1.0,
    "I": LN2 / 2.0,
    "h": 0.5,
    "d": (2.0 - SQRT2) / 4.0,
    "D_dDelta": (7.0 - 4.0 * SQRT2) / 4.0,
    "D_dI": 2.0 - SQRT2 - LN2 / 2.0,
    "D_dh": (3.0 - 2.0 * SQRT2) / 2.0,
    "D_hDelta": 0.25,
    "D_hI": (1.0 - LN2) / 2.0,
    "D_IDelta": (2.0 * LN2 - 1.0) / 4.0,
}

STAR_AT_08 = {
    "Delta": 0.36,
    "h": 0.1,
    "I": 0.096372378510878715,
    "T": 0.11157177565710488,
    "J": 0.83177661667193437,
    "Psi": 2.25,
    "d": 0.0256583509747431,
    "D_dDelta": 0.012633403898972401,
    "D_dI": 0.0062610253880936859,
    "D_dh": 0.0026334038989724008,
    "D_hDelta": 0.01,
    "D_hI": 0.0036276214891212851,
    "D_IDelta": 0.0063723785108787149,
}


@st.composite
def strict_pairs(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_pair(np.random.default_rng(seed), n)


class TestCatalog:
    def test_j_divergence_entry(self):
        g = generator("J")
        assert float(g.fn(1.0)) == 0.0
        assert math.isinf(g.f_infinity)

    def test_jensen_shannon_family_entry(self):
        g = generator(MeasureId("xi", 0.0))
        assert g.f_infinity == pytest.approx(0.3465735902799726, abs=1e-15)

    def test_diff_entry_constant(self):
        g = generator("D_dDelta")
        assert g.f_infinity == pytest.approx(0.3357864376269049, abs=1e-15)

    def test_all_keys_vanish_at_one(self):
        for key in CATALOG_KEYS:
            assert float(generator(key).fn(1.0)) == 0.0

    def test_all_keys_star_symmetric(self):
        for key in CATALOG_KEYS:
            assert star_symmetry_defect(generator(key)) <= 1e-12

    def test_build_evaluates_no_star(self, monkeypatch):
        # symmetry holds by construction, so a build probes nothing, also at
        # orders where f* overflows on a grid
        def fail(*args):
            raise AssertionError("a generator build evaluated f*")

        monkeypatch.setattr(generators, "star", fail)
        extreme = (MeasureId("zeta", 60.0), MeasureId("xi", -1016.0), MeasureId("xi", 60.0))
        for key in CATALOG_KEYS + extreme:
            g = generators._build.__wrapped__(key.tag, key.s)
            assert g.f_infinity == generator(key).f_infinity

    def test_family_gate_constants(self):
        assert zeta_f_inf(0.5) == 4.0
        assert math.isinf(zeta_f_inf(0.0))
        assert math.isinf(zeta_f_inf(1.0))
        assert math.isinf(zeta_f_inf(2.0))
        assert xi_f_inf(0.0) == pytest.approx(LN2 / 2.0, abs=1e-16)
        assert xi_f_inf(-1.0) == pytest.approx(0.25, abs=1e-16)
        assert math.isinf(xi_f_inf(1.0))
        assert math.isinf(xi_f_inf(2.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "s", [-1000.0, -1024.0, -1024.5, -1030.0, -1030.3, -1045.0, -1046.0, -2e154, -1e308]
    )
    def test_xi_f_inf_where_two_to_minus_s_overflows(self, s):
        # 2^(-s) leaves the double range below s = -1024; f_inf stays finite
        # down to s = -1045 and is inf beyond
        want = float(oracle.xi_f_inf(s))
        if math.isinf(want):
            assert xi_f_inf(s) == math.inf
        else:
            assert xi_f_inf(s) == pytest.approx(want, rel=1e-15)
        assert generator(MeasureId("xi", s)).f_infinity == xi_f_inf(s)

    def test_unknown_key(self):
        with pytest.raises(ArgumentError):
            generator("nope")

    @pytest.mark.parametrize(
        "orders", [("3", "3.0"), ("3.0", "3"), ("0.0", "-0.0"), ("-0.0", "0.0")]
    )
    def test_a_key_does_not_depend_on_the_orders_built_before(self, orders):
        # a fresh process, so that no earlier call has built these orders yet:
        # the int and the float order are one generator, keyed by the float,
        # and 0.0 and -0.0, equal as cache keys, each keep their own key
        run = subprocess.run(
            [sys.executable, "-c", _KEYS_IN_A_FRESH_PROCESS, *orders],
            capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        keys = [f"{family}:{float(s)!r}" for family in ("zeta", "xi") for s in orders]
        assert run.stdout.split() == keys


# The key of zeta's generator at each order in argv, built in that order
# through generator(), then xi's through the bounds' cached resolution; an
# order written "3" is the int 3.
_KEYS_IN_A_FRESH_PROCESS = """
import sys
from divbound import MeasureId, bounds, generator
orders = [int(a) if a.isdigit() else float(a) for a in sys.argv[1:]]
print(*(generator(MeasureId("zeta", s)).key for s in orders))
print(*(bounds._family_generator("xi", s).key for s in orders))
"""


def _folded_xi(s: float, u):
    """The xi generator's folded power form, as written, overflow and all."""
    v = u + 1.0
    w = 2.0 / v
    with np.errstate(over="ignore"):
        return 0.5 * v * (0.5 * ((u * w) ** (1.0 - s) + w ** (1.0 - s)) - 1.0) / (s * (s - 1.0))


class TestOneFunctionRule:
    """Two generators are one function exactly when they share fn, and one
    cell pass (_cell_rows) evaluates each distinct fn once per leaf."""

    @pytest.mark.parametrize(
        "s", [-1.0, 2.0, -0.5, 1.5, 0.25, 0.75, 0.1, 0.9, 0.3, -3.0, 1e155, -1e200]
    )
    def test_zeta_twins_share_fn_exactly_when_zeta_twin_holds(self, s):
        # 1 - 0.1 is 0.9 but 1 - 0.9 is 0.09999999999999998, so 0.1 and 0.9
        # are no twins; at 1e155 and 1e200, s(s - 1) overflows and s and
        # 1 - s divide by their own two factors, whose signs differ
        t = 1.0 - s
        g, h = generator(MeasureId("zeta", s)), generator(MeasureId("zeta", t))
        assert (g.fn is h.fn) == (generators._zeta_twin(s) is not None), (s, t)
        assert (g.key, g.f_infinity) == (f"zeta:{s!r}", zeta_f_inf(s))
        u = np.logspace(-8, 8, 161)
        with np.errstate(over="ignore", invalid="ignore"):
            assert g.fn(u).tobytes() == generators._f_zeta(s)(u).tobytes()

    def test_twins_zeros_and_limit_orders(self):
        def fn(key):
            return generator(key).fn

        assert fn("zeta:2") is fn("zeta:-1") and fn("zeta:1.5") is fn("zeta:-0.5")
        assert fn("zeta:0.1") is not fn("zeta:0.9")
        assert fn("zeta:0.0") is fn("zeta:-0.0") is fn("zeta:1.0") is fn("J")
        assert fn("xi:0.0") is fn("xi:-0.0") is fn("I") and fn("xi:1.0") is fn("T")
        assert generator("zeta:2").key == "zeta:2.0"

    @pytest.mark.parametrize(
        "keys",
        [
            [m.label() for m in CATALOG_KEYS],
            ["xi:0.0", "D_IDelta"],
            ["D_IDelta", "D_hI", "xi:-0.0", "zeta:2", "h", "zeta:-1", "xi:-1030", "xi:0.5"],
        ],
        ids=["catalog", "a-base-beside-its-difference", "differences-first"],
    )
    def test_each_row_is_its_generators_own(self, keys):
        rng = np.random.default_rng(7)
        p, q = np.exp(3.0 * rng.standard_normal((2, 300)))
        # a ratio that overflows, one whose f overflows, and both ways round
        p[:4], q[:4] = [0.5, 0.5, 1e-310, 1e-300], [1e-310, 1e-300, 0.5, 0.5]
        assert_cell_rows_are_each_own(p, q, [generator(key) for key in keys])


class TestXiGeneratorOverflow:
    """Where the folded powers of the xi generator overflow, the points are
    recomputed with the exponent carried; every other point keeps its bits."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [-1044.0, -1040.0, -1030.0, -1000.0, -10.0, 150.0])
    def test_star_matches_oracle(self, s):
        # at x = 1e-306 the powers are modest and the product with u + 1 overflows
        g = generator(MeasureId("xi", s))
        xs = np.concatenate([[1e-306, 1e-300], np.linspace(0.002, 0.998, 499)])
        got = star(g, xs)
        for x, value in zip(xs.tolist(), got):
            # where f(u) itself is past the double range, the mirrored form
            want = float(oracle.star_family("xi", s, x))
            assert value == pytest.approx(want, rel=1e-10), x
            assert star(g, x) == pytest.approx(want, rel=1e-10), x

    @pytest.mark.parametrize("s", [-1100.0, -1040.0, -60.0, -1.0, 0.5, 2.0, 60.0, 150.0])
    def test_finite_folded_points_keep_their_bits(self, s):
        u = np.logspace(-300, 300, 601)
        folded = _folded_xi(s, u)
        with np.errstate(over="ignore"):
            got = generator(MeasureId("xi", s)).fn(u)
        finite = np.isfinite(folded)
        assert np.array_equal(got[finite], folded[finite])
        assert not np.isnan(got[np.isinf(folded)]).any()


class TestStar:
    def test_triangular_at_08(self):
        assert star(generator("Delta"), 0.8) == pytest.approx(0.36, rel=1e-12)

    def test_half_is_zero_for_all_keys(self):
        for key in CATALOG_KEYS:
            assert abs(star(generator(key), 0.5)) <= 1e-14

    def test_jensen_shannon_at_08(self):
        assert star(generator("I"), 0.8) == pytest.approx(
            0.096372378510878715, rel=1e-13
        )

    @pytest.mark.parametrize("tag,expected", sorted(STAR_AT_08.items()))
    def test_frozen_values_at_08(self, tag, expected):
        assert star(generator(tag), 0.8) == pytest.approx(expected, rel=1e-12)

    def test_closed_forms_across_grid(self):
        xs = np.linspace(0.02, 0.98, 49)
        for tag in STAR_AT_08:
            g = generator(tag)
            for x in xs:
                ref = float(oracle.star_closed(tag, x))
                assert star(g, float(x)) == pytest.approx(ref, rel=1e-11, abs=1e-13)

    def test_family_closed_forms(self):
        # extreme orders and near-endpoint posteriors included: where the
        # true value exceeds the double range star must give +inf, never nan
        xs = np.concatenate([np.linspace(0.05, 0.95, 19), [1e-12, 1e-6, 1.0 - 1e-6]])
        for tag in ("zeta", "xi"):
            for s in (-60.0, -30.0, -1.0, 0.0, 0.5, 1.0, 2.0, 30.0, 60.0):
                g = generator(MeasureId(tag, s))
                on_array = star(g, xs)
                for x, from_array in zip(xs, on_array):
                    ref = float(oracle.star_family(tag, s, x))
                    for got in (star(g, float(x)), float(from_array)):
                        if math.isinf(ref):
                            assert got == math.inf, (tag, s, x)
                        else:
                            assert got == pytest.approx(ref, rel=1e-11, abs=1e-13), (tag, s, x)

    @pytest.mark.parametrize(
        "key",
        ["Delta", "h", "D_dI", "zeta:-60.0", "zeta:2.0", "xi:-1030.0", "xi:-60.0", "xi:150.0"],
    )
    def test_finite_direct_points_keep_their_bits(self, key):
        # the mirrored form serves only where x f((1-x)/x) overflows
        g = generator(key)
        xs = np.concatenate(
            [np.logspace(-300, -1, 300), np.linspace(0.1, 0.9, 81), 1.0 - np.logspace(-1, -15, 15)]
        )
        with np.errstate(over="ignore"):
            direct = xs * g.fn((1.0 - xs) / xs)
        finite = np.isfinite(direct)
        assert finite.any()
        got = star(g, xs)
        assert np.array_equal(got[finite], direct[finite])
        assert not np.isnan(got).any()
        for x in xs.tolist():
            try:
                want = float(x * g.fn((1.0 - x) / x))
            except OverflowError:
                continue
            if math.isfinite(want):
                assert star(g, x) == want, x

    def test_mirrored_form_where_f_overflows(self):
        # f(1e300) is past the double range; f*(1e-300) = 1 to double precision
        g = generator("Delta")
        assert star(g, 1e-300) == 1.0
        assert star(g, np.array([1e-300, 0.8])).tolist() == [1.0, pytest.approx(0.36)]

    @given(st.floats(0.001, 0.999))
    def test_two_point_measure_identity(self, x):
        # f*(x) equals half the measure between (x, 1-x) and (1-x, x):
        # an independent route that never touches the star transform
        P = validate([x, 1.0 - x])
        Q = validate([1.0 - x, x])
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            assert 2.0 * star(generator(key), x) == pytest.approx(
                direct, rel=1e-11, abs=1e-13
            )

    def test_domain_errors(self):
        g = generator("h")
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                star(g, bad)

    def test_extended_endpoints(self):
        g = generator("h")
        assert star_extended(g, 0.0) == g.f_infinity
        assert star_extended(g, 1.0) == g.f_infinity
        assert math.isinf(star_extended(generator("J"), 0.0))

    def test_endpoint_law(self):
        # f*(x) -> f_inf at rate O(sqrt(x)); at x = 1e-9 every finite key
        # sits within 1e-4 * (1 + |f_inf|)
        for key in CATALOG_KEYS:
            g = generator(key)
            if not math.isfinite(g.f_infinity):
                continue
            dev = abs(star(g, 1e-9) - g.f_infinity)
            assert dev <= 1e-4 * (1.0 + abs(g.f_infinity)), g.key


class TestLimitConstants:
    # f(1) = 0 is pinned by TestCatalog.test_all_keys_vanish_at_one
    def test_limit_constants_exact(self):
        for tag, expected in EXPECTED_F_INF.items():
            assert abs(limit_constants(generator(tag)) - expected) <= 1e-15

    def test_every_catalog_key_passes(self):
        for key in CATALOG_KEYS:
            g = generator(key)
            assert limit_constants(g) == g.f_infinity, key

    def test_every_corrupted_catalog_key_is_caught(self):
        for key in CATALOG_KEYS:
            good = generator(key)
            wrong = 1.0 if math.isinf(good.f_infinity) else 1.5 * good.f_infinity + 0.1
            bad = GeneratingFunction(key=good.key, fn=good.fn, f_infinity=wrong)
            with pytest.raises(DivboundError):
                limit_constants(bad)

    def test_zeta_half_gate(self):
        assert limit_constants(generator(MeasureId("zeta", 0.5))) == 4.0

    def test_infinite_limits_flagged(self):
        for tag in ("J", "T", "Psi"):
            assert math.isinf(limit_constants(generator(tag)))

    def test_cross_check_catches_corruption(self):
        good = generator("h")
        bad = GeneratingFunction(
            key="h-corrupt",
            fn=good.fn,
            f_infinity=0.75,  # wrong on purpose
        )
        with pytest.raises(DivboundError):
            limit_constants(bad)

    def test_slow_tail_family_still_checks(self):
        # u^(1/4) tails have not converged at u = 1e-12; the shrinking-
        # deviation fallback must accept the correct stored constant
        assert limit_constants(generator(MeasureId("xi", 0.75))) == pytest.approx(
            (2.0 ** -0.75 - 1.0) / (2.0 * 0.75 * (0.75 - 1.0)), abs=1e-15
        )


class TestCsiszarSum:
    def test_reproduces_j_divergence(self, canonical_pair):
        P, Q = canonical_pair
        direct = measure_value("J", P, Q)
        assert csiszar_sum(generator("J"), P, Q) == pytest.approx(direct, rel=1e-13)
        assert direct == pytest.approx(0.27465307216702742, rel=1e-13)

    def test_equal_distributions_give_zero(self, canonical_pair):
        P, _ = canonical_pair
        for key in CATALOG_KEYS:
            assert abs(csiszar_sum(generator(key), P, P)) <= 1e-14

    def test_xi_minus_one_is_quarter_delta(self, canonical_pair):
        P, Q = canonical_pair
        v = csiszar_sum(generator(MeasureId("xi", -1.0)), P, Q)
        assert v == pytest.approx(0.033333333333333333, rel=1e-13)

    def test_all_keys_on_canonical_pair(self, canonical_pair):
        P, Q = canonical_pair
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            summed = csiszar_sum(generator(key), P, Q)
            assert abs(summed - direct) <= 1e-11 * (1.0 + abs(direct))

    @given(strict_pairs())
    def test_all_keys_random_pairs(self, pair):
        P, Q = pair
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            summed = csiszar_sum(generator(key), P, Q)
            assert abs(summed - direct) <= 1e-11 * (1.0 + abs(direct))

    def test_zero_conventions_match_direct_measures(self):
        P = validate([0.5, 0.5, 0.0], PERMISSIVE)
        Q = validate([0.25, 0.5, 0.25], PERMISSIVE)
        for key in CATALOG_KEYS:
            direct = measure_value(key, P, Q)
            summed = csiszar_sum(generator(key), P, Q)
            if math.isinf(direct):
                assert math.isinf(summed)
            else:
                assert summed == pytest.approx(direct, rel=1e-11)

    def test_both_zero_cell_ignored(self):
        P = validate([0.5, 0.5, 0.0], PERMISSIVE)
        Q = validate([0.25, 0.75, 0.0], PERMISSIVE)
        g = generator("h")
        P2, Q2 = validate([0.5, 0.5]), validate([0.25, 0.75])
        assert csiszar_sum(g, P, Q) == csiszar_sum(g, P2, Q2)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_ratio_is_summed_mirrored(self):
        # where q f(p/q) is not finite, the term is p f(q/p)
        for p, q in (
            ([0.5, 0.5], [1.0 - 1e-310, 1e-310]),  # p/q overflows on the second cell
            ([0.5, 0.5], [1.0 - 1e-300, 1e-300]),  # p/q is finite, f(p/q) overflows
            ([1e-310, 1.0 - 1e-310], [0.5, 0.5]),  # both forms overflow: inf, not nan
        ):
            P, Q = validate(p, PERMISSIVE), validate(q, PERMISSIVE)
            for key in CATALOG_KEYS:
                direct = measure_value(key, P, Q)
                summed = csiszar_sum(generator(key), P, Q)
                assert summed == direct or abs(summed - direct) <= CSISZAR_TOL * (
                    1.0 + abs(direct)
                ), (key, p, q)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec", ["xi:60", "zeta:60", "zeta:-60"])
    def test_overflow_gives_inf_silently(self, spec):
        P = validate([0.9999999999999, 0.0000000000001])
        Q = validate([0.5, 0.5])
        assert csiszar_sum(generator(spec), P, Q) == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "spec", ["zeta:2e154", "xi:2e154", "zeta:-2e154", "zeta:1e308", "xi:-1e308"]
    )
    def test_order_product_overflow_gives_inf_not_nan(self, spec):
        # s(s-1) overflows: the generator divides by s and s - 1 in turn
        g = generator(spec)
        assert star(g, 0.3) == math.inf
        assert star(g, np.array([0.3, 0.5])).tolist() == [math.inf, 0.0]
        assert csiszar_sum(g, validate([0.3, 0.7]), validate([0.6, 0.4])) == math.inf

    def test_strict_pairs_skip_the_zero_scan_with_the_same_value(self):
        rng = np.random.default_rng(11)
        w = np.exp(2.0 * rng.standard_normal((2, 37)))
        p, q = w / w.sum(axis=-1, keepdims=True)
        for key in CATALOG_KEYS:
            g = generator(key)
            strict = csiszar_sum(g, validate(p), validate(q))
            permissive = csiszar_sum(g, validate(p, PERMISSIVE), validate(q, PERMISSIVE))
            assert strict == permissive, key


class TestConvexity:
    @pytest.mark.parametrize("key", CATALOG_KEYS, ids=lambda k: k.label())
    def test_generator_convex(self, key):
        assert probe_generator(generator(key)) >= -1e-9

    @pytest.mark.parametrize("key", CATALOG_KEYS, ids=lambda k: k.label())
    def test_star_convex(self, key):
        assert probe_star(generator(key)) >= -1e-9


class TestLinearity:
    def test_diff_generators_are_combinations(self):
        us = np.logspace(-3, 3, 61)
        combos = {
            "D_dDelta": (4.0, "d", -0.25, "Delta"),
            "D_dh": (4.0, "d", -1.0, "h"),
            "D_dI": (4.0, "d", -1.0, "I"),
            "D_hI": (1.0, "h", -1.0, "I"),
            "D_hDelta": (1.0, "h", -0.25, "Delta"),
            "D_IDelta": (1.0, "I", -0.25, "Delta"),
        }
        for tag, (c1, t1, c2, t2) in combos.items():
            g = generator(tag)
            expected = c1 * generator(t1).fn(us) + c2 * generator(t2).fn(us)
            assert np.max(np.abs(np.asarray(g.fn(us)) - expected)) <= 1e-13
