import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracle_reference as oracle
from conftest import catalog_passes, make_pair, set_cpus
from divbound import generators, kernel, measures
from divbound.distributions import (
    PERMISSIVE,
    STRICT,
    AlphabetMismatch,
    DiscreteDistribution,
    validate,
)
from divbound.generators import CATALOG_KEYS, csiszar_rows, csiszar_sum, generator
from divbound.kernel import ArgumentError, DomainError
from divbound.measures import (
    BASE_TAGS,
    DIFF_TAGS,
    BaseSums,
    MeasureId,
    CHAIN_LABELS,
    _chain_report,
    base_measure,
    chain_check,
    difference_measure,
    measure_value,
    worst_of,
    xi,
    zeta,
)

# Frozen from the 50-digit reference oracle on P=[0.5,0.5], Q=[0.25,0.75].
CANONICAL_VALUES = {
    "Delta": 0.13333333333333333,
    "I": 0.03382207556860523,
    "h": 0.034074173710931713,
    "d": 0.0085654445017391742,
    "J": 0.27465307216702742,
    "T": 0.034841192473151626,
    "Psi": 0.58333333333333333,
}
CANONICAL_DIFFS = {
    "D_dDelta": 0.00092844467362336351,
    "D_dh": 0.00018760429602498359,
    "D_dI": 0.00043970243835146684,
    "D_hI": 0.00025209814232648325,
    "D_hDelta": 0.00074084037759837992,
    "D_IDelta": 0.00048874223527189667,
}
CANONICAL_EQ7 = [
    ("Delta/4", 0.033333333333333333),
    ("I", 0.03382207556860523),
    ("h", 0.034074173710931713),
    ("4d", 0.034261778006956697),
    ("J/8", 0.034331634020878428),
    ("T", 0.034841192473151626),
    ("Psi/16", 0.036458333333333333),
]

ALL_IDS = (
    [MeasureId(t) for t in BASE_TAGS]
    + [MeasureId(t) for t in DIFF_TAGS]
    + [MeasureId("zeta", s) for s in (-1.0, 0.25, 0.5, 2.0)]
    + [MeasureId("xi", s) for s in (-1.0, 0.25, 0.5, 2.0)]
)


@st.composite
def strict_pairs(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_pair(np.random.default_rng(seed), n)


class TestMeasureId:
    def test_parse_base_aliases(self):
        assert MeasureId.parse("Delta").tag == "Delta"
        assert MeasureId.parse("triangular").tag == "Delta"
        assert MeasureId.parse("d").tag == "d"
        assert MeasureId.parse("hellinger").tag == "h"
        assert MeasureId.parse("PSI").tag == "Psi"

    def test_parse_family(self):
        m = MeasureId.parse("xi:0.5")
        assert m.tag == "xi" and m.s == 0.5
        assert MeasureId.parse("ZETA:-1").s == -1.0

    def test_parse_diff(self):
        assert MeasureId.parse("D_dDelta").tag == "D_dDelta"
        assert MeasureId.parse("d_hdelta").tag == "D_hDelta"

    @pytest.mark.parametrize("bad", ["zeta", "xi:", "xi:abc", "zeta:inf", "nope"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ArgumentError):
            MeasureId.parse(bad)

    def test_family_requires_s(self):
        with pytest.raises(ArgumentError):
            MeasureId("zeta")
        with pytest.raises(ArgumentError):
            MeasureId("h", 0.5)

    def test_family_order_is_a_float(self):
        for s in (np.float64(0.5), 3, 0.5):
            mid = MeasureId("xi", s)
            assert type(mid.s) is float and mid.s == s

    def test_family_order_must_be_finite(self):
        # a bare order is a domain error; an order in a spec string is an
        # argument error, as every other bad spec is
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=r"^order parameter must be finite, got "):
                MeasureId("zeta", s)
        with pytest.raises(ArgumentError):
            MeasureId.parse("zeta:inf")


class TestBaseMeasures:
    @pytest.mark.parametrize("tag,expected", sorted(CANONICAL_VALUES.items()))
    def test_canonical_pair_frozen(self, canonical_pair, tag, expected):
        P, Q = canonical_pair
        assert base_measure(tag, P, Q) == pytest.approx(expected, rel=1e-13)

    def test_against_reference_oracle(self, canonical_pair):
        P, Q = canonical_pair
        for tag, fn in oracle.BASE.items():
            ref = float(fn(P.probs, Q.probs))
            assert base_measure(tag, P, Q) == pytest.approx(ref, rel=1e-13)

    def test_identity_on_equal(self, canonical_pair):
        P, _ = canonical_pair
        for tag in BASE_TAGS:
            assert abs(base_measure(tag, P, P)) <= 1e-14

    @given(strict_pairs())
    def test_symmetry_exact(self, pair):
        P, Q = pair
        for mid in ALL_IDS:
            assert measure_value(mid, P, Q) == measure_value(mid, Q, P)

    @given(strict_pairs())
    def test_nonnegative_and_positive_when_distinct(self, pair):
        P, Q = pair
        gap = float(np.max(np.abs(P.probs - Q.probs)))
        for mid in ALL_IDS:
            v = measure_value(mid, P, Q)
            assert v >= -1e-14
            if gap > 1e-4:
                assert v > 1e-14

    @pytest.mark.filterwarnings("error")
    def test_psi_past_the_double_range_is_silent_inf(self):
        # a subnormal mass: the Psi cell term 0.125 / 5e-311 overflows
        P, Q = validate([0.5, 0.5]), validate([1.0, 1e-310])
        assert measure_value("Psi", P, Q) == math.inf
        assert chain_check(P, Q, "eq7").values[-1] == ("Psi/16", math.inf)

    @pytest.mark.filterwarnings("error")
    def test_psi_of_two_tiny_masses_is_not_nan(self):
        # on the second cell (p - q)^2 and p q both underflow to 0
        P, Q = validate([1.0, 1e-200]), validate([1.0, 2e-200])
        assert measure_value("Psi", P, Q) == csiszar_sum(generator("Psi"), P, Q) == 1.5e-200
        assert chain_check(P, Q, "eq7").values[-1] == ("Psi/16", 1.5e-200 / 16)

    @pytest.mark.filterwarnings("error")
    def test_delta_of_two_subnormal_masses_is_not_zero(self):
        # on the first cell (p - q)^2 underflows to 0 before the division
        p, q = [1e-310, 1.0], [2e-310, 1.0]
        want = float(oracle.delta(p, q))
        assert want > 0.0
        P, Q = validate(p), validate(q)
        assert measure_value("Delta", P, Q) == csiszar_sum(generator("Delta"), P, Q) == want

    def test_alphabet_mismatch(self):
        P = validate([0.5, 0.5])
        Q = validate([0.2, 0.3, 0.5])
        with pytest.raises(Exception):
            base_measure("h", P, Q)


class TestFamilies:
    def test_zeta_particular_cases_frozen(self, canonical_pair):
        P, Q = canonical_pair
        assert zeta(0.5, P, Q) == pytest.approx(0.27259338968745371, rel=1e-13)
        assert zeta(2.0, P, Q) == pytest.approx(0.29166666666666667, rel=1e-13)
        assert zeta(0.0, P, Q) == pytest.approx(CANONICAL_VALUES["J"], rel=1e-13)

    def test_xi_particular_cases_frozen(self, canonical_pair):
        P, Q = canonical_pair
        assert xi(-1.0, P, Q) == pytest.approx(0.033333333333333333, rel=1e-13)
        assert xi(0.5, P, Q) == pytest.approx(0.034261778006956697, rel=1e-13)
        assert xi(2.0, P, Q) == pytest.approx(0.036458333333333333, rel=1e-13)
        assert xi(0.0, P, Q) == pytest.approx(CANONICAL_VALUES["I"], rel=1e-13)
        assert xi(1.0, P, Q) == pytest.approx(CANONICAL_VALUES["T"], rel=1e-13)

    @given(strict_pairs())
    def test_particular_case_identities(self, pair):
        P, Q = pair
        psi = base_measure("Psi", P, Q)
        assert zeta(-1.0, P, Q) == pytest.approx(0.5 * psi, rel=1e-12)
        assert zeta(2.0, P, Q) == pytest.approx(0.5 * psi, rel=1e-12)
        assert zeta(0.5, P, Q) == pytest.approx(8.0 * base_measure("h", P, Q), rel=1e-12)
        assert xi(-1.0, P, Q) == pytest.approx(0.25 * base_measure("Delta", P, Q), rel=1e-12)
        assert xi(0.5, P, Q) == pytest.approx(4.0 * base_measure("d", P, Q), rel=1e-12)
        assert xi(2.0, P, Q) == pytest.approx(psi / 16.0, rel=1e-12)

    @given(strict_pairs())
    def test_zeta_self_duality(self, pair):
        P, Q = pair
        for s in (-1.0, -0.3, 0.25, 0.75, 1.3, 2.0):
            a, b = zeta(s, P, Q), zeta(1.0 - s, P, Q)
            assert a == pytest.approx(b, rel=1e-12)

    @given(strict_pairs())
    def test_family_oracle_agreement(self, pair):
        P, Q = pair
        for s in (-1.0, 0.3, 2.0):
            assert zeta(s, P, Q) == pytest.approx(
                float(oracle.zeta(s, P.probs, Q.probs)), rel=1e-11
            )
            assert xi(s, P, Q) == pytest.approx(
                float(oracle.xi(s, P.probs, Q.probs)), rel=1e-11
            )

    def test_limit_continuity_at_switch(self, canonical_pair):
        P, Q = canonical_pair
        j = base_measure("J", P, Q)
        for s in (1e-7, -1e-7, 1.0 + 1e-7, 1.0 - 1e-7):
            assert abs(zeta(s, P, Q) - j) <= 1e-8 * (1.0 + j)
        i = base_measure("I", P, Q)
        t = base_measure("T", P, Q)
        for s in (1e-7, -1e-7):
            assert abs(xi(s, P, Q) - i) <= 1e-8 * (1.0 + i)
        for s in (1.0 + 1e-7, 1.0 - 1e-7):
            assert abs(xi(s, P, Q) - t) <= 1e-8 * (1.0 + t)

    def test_regular_formula_continuous_outside_band(self, canonical_pair):
        # just outside the band the 0/0 form is still accurate to ~1e-10
        P, Q = canonical_pair
        j = base_measure("J", P, Q)
        for s in (1e-5, 1.0 - 1e-5):
            assert abs(zeta(s, P, Q) - j) <= 1e-4 * (1.0 + j)


class TestPermissiveZeros:
    def setup_method(self):
        self.P = validate([0.5, 0.5, 0.0], PERMISSIVE)
        self.Q = validate([0.25, 0.5, 0.25], PERMISSIVE)

    def test_blowup_measures_flag_infinity(self):
        for tag in ("J", "T", "Psi"):
            assert math.isinf(base_measure(tag, self.P, self.Q))

    def test_finite_measures_stay_finite(self):
        for tag in ("Delta", "I", "h", "d"):
            assert math.isfinite(base_measure(tag, self.P, self.Q))

    def test_xi_finite_below_one_infinite_above(self):
        assert math.isfinite(xi(-1.0, self.P, self.Q))
        assert math.isfinite(xi(0.5, self.P, self.Q))
        assert math.isinf(xi(2.0, self.P, self.Q))
        assert math.isinf(xi(1.0, self.P, self.Q))

    def test_zeta_inside_unit_interval_finite(self):
        assert math.isfinite(zeta(0.5, self.P, self.Q))
        assert math.isinf(zeta(2.0, self.P, self.Q))

    def test_both_zero_cells_contribute_nothing(self):
        P = validate([0.5, 0.5, 0.0], PERMISSIVE)
        Q = validate([0.25, 0.75, 0.0], PERMISSIVE)
        P2 = validate([0.5, 0.5], PERMISSIVE)
        Q2 = validate([0.25, 0.75], PERMISSIVE)
        for tag in BASE_TAGS:
            assert base_measure(tag, P, Q) == base_measure(tag, P2, Q2)


class TestDifferences:
    @pytest.mark.parametrize("tag,expected", sorted(CANONICAL_DIFFS.items()))
    def test_canonical_pair_frozen(self, canonical_pair, tag, expected):
        P, Q = canonical_pair
        assert difference_measure(tag, P, Q) == pytest.approx(expected, rel=1e-12)

    def test_zero_on_equal(self, canonical_pair):
        P, _ = canonical_pair
        for tag in DIFF_TAGS:
            assert abs(difference_measure(tag, P, P)) <= 1e-14

    @given(strict_pairs())
    def test_nonnegative(self, pair):
        P, Q = pair
        for tag in DIFF_TAGS:
            assert difference_measure(tag, P, Q) >= -1e-15


class TestChains:
    def test_eq7_canonical_values(self, canonical_pair):
        P, Q = canonical_pair
        report = chain_check(P, Q, "eq7")
        assert report.ok
        for (label, value), (exp_label, exp_value) in zip(report.values, CANONICAL_EQ7):
            assert label == exp_label
            assert value == pytest.approx(exp_value, rel=1e-12)

    def test_eq39_canonical(self, canonical_pair):
        P, Q = canonical_pair
        report = chain_check(P, Q, "eq39")
        assert report.ok
        labels = [l for l, _ in report.values]
        assert labels == [
            "D_IDelta",
            "2/3*D_hDelta",
            "8/15*D_dDelta",
            "8/3*D_dh",
            "8/7*D_dI",
            "2*D_hI",
        ]

    def test_equal_pair_all_zero(self, canonical_pair):
        P, _ = canonical_pair
        for which in ("eq7", "eq39"):
            report = chain_check(P, P, which)
            assert report.ok
            assert all(abs(v) <= 1e-14 for _, v in report.values)

    @given(strict_pairs(max_n=64))
    def test_chains_hold_on_random_pairs(self, pair):
        P, Q = pair
        for which in ("eq7", "eq39"):
            report = chain_check(P, Q, which)
            assert report.ok, report.violations

    def test_corruption_detected(self, canonical_pair):
        P, Q = canonical_pair
        entries = list(chain_check(P, Q, "eq7").values)
        label, value = entries[3]
        entries[3] = (label, value - 1.0)
        corrupted = _chain_report(entries)
        assert not corrupted.ok
        assert corrupted.violations[0][1] < 0.0

    def test_unknown_chain(self, canonical_pair):
        P, Q = canonical_pair
        with pytest.raises(ArgumentError):
            chain_check(P, Q, "eq99")

    def test_infinity_on_larger_side_satisfied(self):
        P = validate([0.5, 0.5, 0.0], PERMISSIVE)
        Q = validate([0.25, 0.5, 0.25], PERMISSIVE)
        report = chain_check(P, Q, "eq7")  # J/8, T, Psi/16 are all +inf
        assert report.ok

    def test_nan_link_is_violated(self):
        assert not _chain_report([("a", 0.1), ("b", math.nan)]).ok
        assert not _chain_report([("a", math.nan), ("b", 0.1)]).ok
        assert not _chain_report([("a", math.nan), ("b", math.inf)]).ok
        assert _chain_report([("a", math.inf), ("b", math.inf)]).ok

    def test_nan_link_is_the_worst_slack(self):
        # a failing report's worst slack does not read as satisfied
        assert math.isnan(_chain_report([("a", 0.1), ("b", math.nan)]).worst_slack)
        assert math.isnan(_chain_report([("a", math.nan), ("b", 0.1)]).worst_slack)
        assert math.isnan(worst_of(max, 0.0, np.array([[1.0, math.nan]])))
        # otherwise Python's min and max in order: of equal values the first
        assert repr(worst_of(min, math.inf, np.array([[0.0, -0.0], [1.0, 2.0]]))) == "0.0"
        assert repr(worst_of(max, -0.0, np.array([0.0]))) == "-0.0"


class TestRowKernels:
    """One kernel serves a pair and an (m, n) block of pairs, row for row."""

    @pytest.fixture
    def block(self):
        rng = np.random.default_rng(20240811)
        w = np.exp(rng.standard_normal((2, 9, 23)))  # 23 cells: past numpy's 8-way unrolled sum
        P, Q = w / w.sum(axis=-1, keepdims=True)
        return P, Q

    def test_every_measure_bit_identical_per_row(self, block):
        P, Q = block
        for key in list(CATALOG_KEYS) + [MeasureId("zeta", 0.0), MeasureId("xi", 1.0)]:
            rows = BaseSums(P, Q).measure(key)
            assert rows.shape == (P.shape[0],)
            for i in range(P.shape[0]):
                assert rows[i] == measure_value(key, validate(P[i]), validate(Q[i])), key

    def test_chain_values_bit_identical_per_row(self, block):
        P, Q = block
        for which in ("eq7", "eq39"):
            rows = np.stack(BaseSums(P, Q).chain(which), axis=-1)
            for i in range(P.shape[0]):
                report = chain_check(validate(P[i]), validate(Q[i]), which)
                assert report.values == tuple(zip(CHAIN_LABELS[which], rows[i].tolist()))

    def test_dead_cells_in_a_block_contribute_nothing(self):
        P = np.array([[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
        Q = np.array([[0.25, 0.75, 0.0], [0.6, 0.4, 0.0]])
        # a pair past SUM_LEAF with dead cells sums them like a block row
        large = _dead_cell_pair()
        for s in (-60.0, -3.0, 0.5, 4.0, 60.0):
            for tag in ("zeta", "xi"):
                rows = BaseSums(P, Q).measure(MeasureId(tag, s))
                for i in range(2):
                    pair = (validate(P[i], PERMISSIVE), validate(Q[i], PERMISSIVE))
                    assert rows[i] == measure_value(MeasureId(tag, s), *pair)
                sums = BaseSums(large[0].probs[None], large[1].probs[None])
                row = sums.measure(MeasureId(tag, s))
                assert row[0] == measure_value(MeasureId(tag, s), *large), (tag, s)


class TestChainLinks:
    """Each chain link is its coefficient times one catalog measure."""

    @pytest.mark.parametrize("seed", range(5))
    def test_links_are_scaled_measures_on_pairs(self, seed):
        P, Q = make_pair(np.random.default_rng(seed), 5 + 7 * seed)
        for which, links in measures._CHAIN_LINKS.items():
            values = chain_check(P, Q, which).values
            assert [label for label, _ in values] == [label for label, _, _ in links]
            for (_, value), (_, c, mid) in zip(values, links):
                assert value == c * measure_value(mid, P, Q), mid

    def test_links_are_scaled_measures_on_blocks(self):
        rng = np.random.default_rng(7)
        w = np.exp(rng.standard_normal((2, 6, 150)))
        p, q = w / w.sum(axis=-1, keepdims=True)
        for which, links in measures._CHAIN_LINKS.items():
            for value, (_, c, mid) in zip(BaseSums(p, q).chain(which), links):
                assert np.array_equal(value, c * BaseSums(p, q).measure(mid)), mid

    @pytest.mark.parametrize("seed", range(5))
    def test_eq39_is_the_printed_differences(self, seed):
        # the differences of Delta/4 <= I <= h <= 4d, written out
        P, Q = make_pair(np.random.default_rng(seed), 9)
        dq, i, h, d4 = (v for _, v in chain_check(P, Q, "eq7").values[:4])
        want = [
            i - dq,
            (2.0 / 3.0) * (h - dq),
            (8.0 / 15.0) * (d4 - dq),
            (8.0 / 3.0) * (d4 - h),
            (8.0 / 7.0) * (d4 - i),
            2.0 * (h - i),
        ]
        assert [v for _, v in chain_check(P, Q, "eq39").values] == want


LIMIT_BASES = {("zeta", 0.0): "J", ("zeta", 1.0): "J", ("xi", 0.0): "I", ("xi", 1.0): "T"}


class TestLimitOrders:
    """Inside the band around s = 0 and s = 1 a family member is its base
    measure; just outside it is the regular formula, close to it."""

    @pytest.mark.parametrize("family,at", list(LIMIT_BASES))
    @pytest.mark.parametrize("offset", [0.0, 1e-7, -1e-7, 9.9e-7, -9.9e-7])
    def test_inside_the_band(self, canonical_pair, family, at, offset):
        base = LIMIT_BASES[family, at]
        s = at + offset
        mid = MeasureId(family, s)
        assert measures._limit_base(family, s) == base
        assert measure_value(mid, *canonical_pair) == measure_value(base, *canonical_pair)
        assert generator(mid).fn is generator(base).fn
        f_inf = generators.zeta_f_inf if family == "zeta" else generators.xi_f_inf
        assert f_inf(s) == generator(mid).f_infinity == generator(base).f_infinity

    @pytest.mark.parametrize("family,at", list(LIMIT_BASES))
    @pytest.mark.parametrize("offset", [1.5e-6, -1.5e-6, 1e-5, -1e-5])
    def test_just_outside_the_band(self, canonical_pair, family, at, offset):
        base = LIMIT_BASES[family, at]
        s = at + offset
        mid = MeasureId(family, s)
        assert measures._limit_base(family, s) is None
        want = measure_value(base, *canonical_pair)
        assert measure_value(mid, *canonical_pair) == pytest.approx(want, rel=1e-4)
        u = np.logspace(-6, 6, 49)
        assert np.allclose(generator(mid).fn(u), generator(base).fn(u), rtol=1e-4, atol=0.0)
        f_inf = generators.zeta_f_inf if family == "zeta" else generators.xi_f_inf
        assert f_inf(s) == generator(mid).f_infinity
        stored = generator(base).f_infinity
        if math.isinf(stored):
            assert f_inf(s) > 1e4
        else:
            assert f_inf(s) == pytest.approx(stored, rel=1e-4)


BLOCKED_KEYS = list(CATALOG_KEYS) + [
    MeasureId("xi", 60.0),
    MeasureId("xi", -60.0),
    MeasureId("zeta", 60.0),
    MeasureId("zeta", 0.0),
    MeasureId("xi", 0.0),
    MeasureId("xi", 1.0),
]


def _large_pair(mode: str, n: int = 3 * kernel.SUM_LEAF + 5):
    rng = np.random.default_rng([n, int(mode == STRICT)])
    p, q = np.exp(3.0 * rng.standard_normal((2, n)))
    if mode == PERMISSIVE:
        cells = rng.choice(n, size=300, replace=False)
        p[cells[:100]] = 0.0  # zero against a live cell, both ways
        q[cells[100:200]] = 0.0
        p[cells[200:]] = q[cells[200:]] = 0.0  # dead cells
    return validate(p / p.sum(), mode), validate(q / q.sum(), mode)


def _dead_cell_pair(n: int = 3 * kernel.SUM_LEAF + 5):
    rng = np.random.default_rng([n, 7])
    p, q = np.exp(3.0 * rng.standard_normal((2, n)))
    dead = rng.choice(n, size=300, replace=False)
    p[dead] = q[dead] = 0.0
    return validate(p / p.sum(), PERMISSIVE), validate(q / q.sum(), PERMISSIVE)


@pytest.mark.filterwarnings("error")
class TestBlockedSums:
    """Rows past kernel.SUM_LEAF are summed leaf by leaf, on two CPUs, with
    the same bits as one np.sum over the whole row (SUM_LEAF raised past n)."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        set_cpus(monkeypatch, 2)

    def _values(self, P, Q):
        out = [chain_check(P, Q, which).values for which in ("eq7", "eq39")]
        for key in BLOCKED_KEYS:
            out.append((key, measure_value(key, P, Q), csiszar_sum(generator(key), P, Q)))
        return repr(out)

    @pytest.mark.parametrize("mode", [STRICT, PERMISSIVE])
    def test_every_measure_and_chain(self, monkeypatch, mode):
        P, Q = _large_pair(mode)
        blocked = self._values(P, Q)
        monkeypatch.setattr(kernel, "SUM_LEAF", P.n + 1)
        assert blocked == self._values(P, Q)

    def test_block_rows_match_pairs(self):
        rng = np.random.default_rng(5)
        w = np.exp(rng.standard_normal((2, 3, kernel.SUM_LEAF + 77)))
        P, Q = w / w.sum(axis=-1, keepdims=True)
        for key in BLOCKED_KEYS:
            rows = BaseSums(P, Q).measure(key)
            for i in range(P.shape[0]):
                assert rows[i] == measure_value(key, validate(P[i]), validate(Q[i])), key


# Small masses at |s| = 60: the direct power form multiplies an overflowing
# by an underflowing power there, which is inf * 0 = nan.
SMALL_P = [0.0000000001, 0.9999999999]
SMALL_Q = [0.0000000002, 0.9999999998]


@pytest.mark.filterwarnings("error")
class TestExtremeOrderSmallMasses:
    @pytest.mark.parametrize("spec", ["xi:60", "xi:-60", "zeta:60", "zeta:-60"])
    def test_matches_oracle(self, spec):
        tag, s = spec.split(":")
        want = float(getattr(oracle, tag)(float(s), SMALL_P, SMALL_Q))
        got = measure_value(spec, validate(SMALL_P), validate(SMALL_Q))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "spec", ["zeta:2e154", "xi:2e154", "zeta:-2e154", "zeta:1e308", "xi:-1e308"]
    )
    def test_order_product_overflow_gives_inf_not_nan(self, spec):
        # s(s-1) overflows; the family sum is inf, divided by s and s - 1 in turn
        P, Q = validate([0.3, 0.7]), validate([0.6, 0.4])
        assert measure_value(spec, P, Q) == math.inf
        assert measure_value(spec, P, P) == 0.0

    def test_zero_mass_gives_inf_not_nan(self):
        # a vanishing mass against a tiny one: the true terms are infinite
        P = validate([0.0, 1.0], PERMISSIVE)
        Q = validate([1e-300, 1.0 - 1e-300], PERMISSIVE)
        for spec in ("zeta:60", "xi:60", "zeta:-60"):
            assert measure_value(spec, P, Q) == math.inf


def _long_pair(p, q, n: int = 3 * kernel.SUM_LEAF + 5):
    """p and q with uniform cells appended up to n, renormalised: the given
    cells land in the left half of row_sum's tree, on a helper thread."""
    fill = np.full(n - len(p), 1.0 / n)
    out = []
    for w in (p, q):
        w = np.concatenate([w, fill])
        out.append(validate(w / w.sum()))
    return out


@pytest.mark.filterwarnings("error")
class TestErrstateReachesHelpers:
    """The helper threads of row_sum keep the caller's np.errstate."""

    @pytest.mark.parametrize("spec", ["xi:60", "zeta:60", "zeta:-60"])
    def test_overflow_is_silent_inf(self, monkeypatch, spec):
        set_cpus(monkeypatch, 2)
        P, Q = _long_pair([0.9999999999999, 1e-13], [0.5, 0.5])
        assert csiszar_sum(generator(spec), P, Q) == math.inf

    @pytest.mark.parametrize("spec", ["xi:60", "xi:-60", "zeta:60", "zeta:-60"])
    def test_small_masses_match_serial(self, monkeypatch, spec):
        P, Q = _long_pair(SMALL_P, SMALL_Q)
        set_cpus(monkeypatch, 2)
        threaded = measure_value(spec, P, Q)
        set_cpus(monkeypatch, 1)
        assert repr(threaded) == repr(measure_value(spec, P, Q))
        assert math.isfinite(threaded)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_dividing_term_needs_no_errstate_from_the_caller(self, monkeypatch, cpus):
        # 1/0 in the left half, on a helper thread at 2 CPUs, and in the
        # right; the flat rows add a short row with 0/0
        set_cpus(monkeypatch, cpus)
        n = 3 * kernel.SUM_LEAF + 5
        p, q = np.ones(n), np.ones(n)
        q[[0, n - 1]] = 0.0
        assert kernel.row_sum(np.divide, p, q) == math.inf
        rows = kernel.FlatRows(np.array([2, n]))
        sums = rows.row_sum(np.divide, np.r_[0.0, 1.0, p], np.r_[0.0, 1.0, q])
        assert math.isnan(sums[0]) and sums[1] == math.inf


def _workload_values(P, Q):
    """A pair's two chains, 19 measures and 19 Csiszar sums, as reprs."""
    out = [repr(chain_check(P, Q, which).values) for which in ("eq7", "eq39")]
    out += [repr(measure_value(key, P, Q)) for key in CATALOG_KEYS]
    out += [repr(csiszar_sum(generator(key), P, Q)) for key in CATALOG_KEYS]
    return out


def _reference_values(P, Q):
    """_workload_values from the raw arrays, which share no sums with any call."""
    p, q = P.probs, Q.probs
    out = [_rows_call("chain", which, p, q) for which in ("eq7", "eq39")]
    out += [_rows_call("measure", key, p, q) for key in CATALOG_KEYS]
    out += [repr(float(csiszar_rows(generator(key), p, q))) for key in CATALOG_KEYS]
    return out


def _fresh(D):
    return validate(D.probs.copy(), D.mode)


SHARED_PAIRS = {
    "n16": lambda: make_pair(np.random.default_rng(16), 16),
    "long": lambda: _large_pair(STRICT),
    "zeros": lambda: (
        validate([0.5, 0.5, 0.0, 0.0], PERMISSIVE),
        validate([0.25, 0.5, 0.25, 0.0], PERMISSIVE),
    ),
    "long_zeros": lambda: _large_pair(PERMISSIVE),
}

# Both chains, every catalog key, and the family orders read from base sums.
SHARED_CALLS = (
    [("chain", which) for which in ("eq7", "eq39")]
    + [("measure", key) for key in CATALOG_KEYS]
    + [("measure", MeasureId(tag, s)) for tag, s in (("zeta", 0.0), ("xi", 0.0), ("xi", 1.0))]
)


def _shared_call(kind, arg, P, Q):
    if kind == "chain":
        return repr(chain_check(P, Q, arg).values)
    return repr(measure_value(arg, P, Q))


def _rows_call(kind, arg, p, q):
    if kind == "chain":
        return repr(tuple(zip(CHAIN_LABELS[arg], map(float, BaseSums(p, q).chain(arg)))))
    return repr(float(BaseSums(p, q).measure(arg)))


class TestSharedBaseSums:
    """Pair-level calls share one table of base sums per validated pair."""

    @pytest.mark.parametrize("name", sorted(SHARED_PAIRS))
    def test_repeated_shuffled_calls_are_bit_equal(self, name):
        P, Q = SHARED_PAIRS[name]()
        # each reference call is on new objects, so it sums every base afresh
        want = [_shared_call(kind, arg, _fresh(P), _fresh(Q)) for kind, arg in SHARED_CALLS]
        assert want == [_rows_call(kind, arg, P.probs, Q.probs) for kind, arg in SHARED_CALLS]
        rng = np.random.default_rng(7)
        for _ in range(2):
            for i in rng.permutation(len(SHARED_CALLS)):
                assert _shared_call(*SHARED_CALLS[i], P, Q) == want[i], SHARED_CALLS[i]

    def test_workload_sequence_makes_3_passes(self, passes):
        P, Q = make_pair(np.random.default_rng(32), 16)
        _workload_values(P, Q)
        # one pass for the seven base sums, one for the six family sums at
        # regular orders and one for the 19 Csiszar sums; summing the bases
        # per call, the chains and measures would take 36 passes, not 7,
        # the family sums 6, not 1, and the Csiszar sums 19, not 1
        assert passes == catalog_passes()
        passes.clear()
        _workload_values(P, Q)  # every sum is kept
        assert passes == []

    def test_a_catalog_family_read_sums_the_six(self, passes):
        P, Q = make_pair(np.random.default_rng(33), 16)
        _, families, _ = catalog_passes()
        keys = [key for key in CATALOG_KEYS if key.s is not None]
        first = measure_value(keys[-1], P, Q)
        assert passes == [families]
        assert [measure_value(key, P, Q) for key in keys][-1] == first
        assert passes == [families]  # the other five were kept
        # an order outside the catalog is summed alone, and kept too
        zeta(1.5, P, Q)
        zeta(1.5, P, Q)
        assert passes == [families, ("measures", 1)]

    def test_slot_keeps_no_pair_alive(self):
        P, Q = make_pair(np.random.default_rng(3), 16)
        measure_value("J", P, Q)
        csiszar_sum(generator("D_dI"), P, Q)
        refs = [weakref.ref(P), weakref.ref(Q), weakref.ref(P.probs), weakref.ref(Q.probs)]
        del P, Q
        gc.collect()
        assert [r() for r in refs] == [None] * 4

    def test_alternating_pairs_get_their_own_values(self):
        (A, Q), (B, R) = (make_pair(np.random.default_rng(seed), 16) for seed in (1, 2))
        pairs = [(A, Q), (B, Q), (B, R), (A, R)]  # a change of P alone, then of Q alone
        want = [_reference_values(*X) for X in pairs]
        for i in (0, 1, 2, 3, 0, 2):
            assert _workload_values(*pairs[i]) == want[i]
        for i in (1, 0, 3, 2):  # the Csiszar table alone changes hands
            sums = [repr(csiszar_sum(generator(key), *pairs[i])) for key in CATALOG_KEYS]
            assert sums == want[i][-len(CATALOG_KEYS) :]

    def test_writable_probs_are_read_again(self):
        Q = validate([0.25, 0.25, 0.5])
        before, after = [0.5, 0.25, 0.25], [0.2, 0.3, 0.5]
        p = np.array(before)
        view = p.view()
        view.setflags(write=False)  # read-only, but p can still change it
        for probs in (p, view):
            p[:] = before
            P = DiscreteDistribution(probs, STRICT)
            first = _workload_values(P, Q)
            p[:] = after
            second = _workload_values(P, Q)
            assert first == _reference_values(validate(before), Q)
            assert second == _reference_values(validate(after), Q)

    def test_alphabet_mismatch_raised_first(self):
        P, Q = validate([0.5, 0.5]), validate([0.25, 0.75])
        R = validate([0.2, 0.3, 0.5])
        measure_value("h", P, Q)
        for call in (
            lambda: measure_value("h", P, R),
            lambda: chain_check(P, R, "eq7"),
            lambda: chain_check(R, Q, "eq99"),
            lambda: zeta(0.5, R, Q),
        ):
            with pytest.raises(AlphabetMismatch):
                call()

    def test_threads_alternating_pairs(self):
        # more threads than CPUs, each alternating between two pairs, so the
        # slot changes hands between the lookup and the sums of a call
        pairs = [make_pair(np.random.default_rng(seed), 16) for seed in (4, 5)]
        want = [_reference_values(*X) for X in pairs]
        got = [[] for _ in range(4)]

        def work(t):
            for k in range(40):
                i = (t + k) % 2
                got[t].append((i, _workload_values(*pairs[i])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for results in got:
            assert len(results) == 40
            for i, values in results:
                assert values == want[i]


TABLE_PAIRS = {
    "n16": lambda: make_pair(np.random.default_rng(16), 16),
    # the mirror fix-up: f overflows at a finite p/q (Delta's (u - 1)^2), then p/q does
    "mirror_f": lambda: (validate([0.5, 0.5]), validate([1.0 - 1e-300, 1e-300])),
    "mirror_u": lambda: (validate([0.5, 0.5]), validate([1.0, 1e-310])),
    "zeros": lambda: (
        validate([0.5, 0.25, 0.0, 0.25, 0.0], PERMISSIVE),
        validate([0.25, 0.5, 0.25, 0.0, 0.0], PERMISSIVE),
    ),
    "long_zeros": lambda: _large_pair(PERMISSIVE),
    # (p - q)^2 underflows: the Delta fix-up
    "subnormal_delta": lambda: (validate([1e-310, 1.0]), validate([2e-310, 1.0])),
    # (p - q)^2 and p q underflow, so the Psi term is 0/0: the Psi fix-up
    "psi_nan": lambda: (validate([1.0, 1e-200]), validate([1.0, 2e-200])),
}


def _per_generator(key, P, Q):
    """csiszar_sum's value one generator at a time: csiszar_rows on the raw
    arrays, or on the live cells plus the f_inf mass of one-sided zeros."""
    g = generator(key)
    p, q = P.probs, Q.probs
    live = (p > 0.0) & (q > 0.0)
    if live.all():
        return repr(float(csiszar_rows(g, p, q)))
    total = float(csiszar_rows(g, p[live], q[live]))
    for zero, mass in (((p == 0.0) & (q > 0.0), q), ((q == 0.0) & (p > 0.0), p)):
        if zero.any():
            total += float(np.sum(mass[zero])) * g.f_infinity
    return repr(total)


@pytest.mark.filterwarnings("error")
class TestCsiszarTable:
    """The 19 catalog Csiszar sums of a validated pair come from one pass,
    each with the bits of its per-generator sum."""

    def _check(self, P, Q, seed):
        want = {key: _per_generator(key, P, Q) for key in CATALOG_KEYS}
        # every key in turn first on new objects, then the rest shuffled
        order = np.random.default_rng(seed).permutation(len(CATALOG_KEYS))
        for first in CATALOG_KEYS:
            P, Q = _fresh(P), _fresh(Q)
            assert repr(csiszar_sum(generator(first), P, Q)) == want[first], first
            for i in order:
                key = CATALOG_KEYS[i]
                assert repr(csiszar_sum(generator(key), P, Q)) == want[key], (first, key)

    @pytest.mark.parametrize("name", sorted(TABLE_PAIRS))
    def test_every_key_keeps_its_bits(self, name):
        self._check(*TABLE_PAIRS[name](), seed=len(name))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_threaded_tree_keeps_the_bits(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        P, Q = _large_pair(STRICT)
        want = [_per_generator(key, P, Q) for key in CATALOG_KEYS]
        assert [repr(csiszar_sum(generator(key), P, Q)) for key in CATALOG_KEYS] == want

    def test_an_order_outside_the_catalog_is_summed_alone(self, passes):
        P, Q = make_pair(np.random.default_rng(15), 16)
        key = MeasureId("zeta", 1.5)
        want = _per_generator(key, P, Q)
        csiszar_sum(generator("J"), P, Q)  # the table of the 19 is kept
        passes.clear()
        assert repr(csiszar_sum(generator(key), P, Q)) == want
        assert passes == [("generators", 1)]

    def test_a_lookalike_generator_is_summed_itself(self):
        P, Q = validate([0.5, 0.5]), validate([0.25, 0.75])
        lookalike = generators.GeneratingFunction("Delta", generator("h").fn, 0.5)
        csiszar_sum(generator("Delta"), P, Q)
        assert csiszar_sum(lookalike, P, Q) == csiszar_sum(generator("h"), P, Q)


# A family member at a regular order summed alone, written out here as the
# reference for the shared family pass: its direct term with plain powers,
# and its ratio term on the cells where that is nan.
def _alone_family(mid, p, q):
    s = mid.s

    def term(p, q):
        if mid.tag == "zeta":
            t = p**s * q ** (1.0 - s) + p ** (1.0 - s) * q**s
        else:
            t = 0.5 * (p ** (1.0 - s) + q ** (1.0 - s)) * (0.5 * (p + q)) ** s
        bad = np.isnan(t)
        p, q = p[bad], q[bad]
        if mid.tag == "zeta":
            hi = np.maximum(p, q)
            r = np.minimum(p, q) / hi
            t[bad] = np.where(hi > 0.0, hi * (r**s + r ** (1.0 - s)), 0.0)
        else:
            m = 0.5 * (p + q)
            t[bad] = np.where(m > 0.0, 0.5 * m * ((p / m) ** (1.0 - s) + (q / m) ** (1.0 - s)), 0.0)
        return t

    a, b = kernel.order_divisors(s)
    at_equal = 2.0 if mid.tag == "zeta" else 1.0
    return repr(float((kernel.row_sum(term, p, q) - at_equal) / a / b))


FAMILY_PAIRS = {
    **SHARED_PAIRS,
    **TABLE_PAIRS,  # n16 and long_zeros are SHARED_PAIRS' pairs again
    "shared_zeros": SHARED_PAIRS["zeros"],
    # p^-1 overflows and q^2 underflows in the first cell (on a helper
    # thread at 2 CPUs), so zeta's direct term there is inf * 0 = nan
    "inf_times_zero": lambda: _long_pair([1e-310, 1.0 - 1e-310], [1e-170, 1.0 - 1e-170]),
}
FAMILY_KEYS = [key for key in CATALOG_KEYS if key.s is not None] + [
    MeasureId("zeta", 1.5),
    MeasureId("xi", -30.0),
]


@pytest.mark.filterwarnings("error")
class TestOneFamilyPass:
    """The family orders a read lacks come from one pass, and each sum has
    the bits of its order summed alone."""

    def test_the_ratio_form_is_reached(self):
        P, Q = FAMILY_PAIRS["inf_times_zero"]()
        p, q = P.probs[0], Q.probs[0]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            assert np.isnan(p**-1.0 * q**2.0)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", sorted(FAMILY_PAIRS))
    def test_every_order_keeps_its_bits(self, monkeypatch, cpus, name):
        set_cpus(monkeypatch, cpus)
        P, Q = FAMILY_PAIRS[name]()
        p, q = P.probs, Q.probs
        want = [_alone_family(key, p, q) for key in FAMILY_KEYS]
        assert [repr(float(v)) for v in BaseSums(p, q).measures(FAMILY_KEYS)] == want
        # a validated pair's first catalog read sums the six, each key first in turn
        for first in FAMILY_KEYS:
            P, Q = _fresh(P), _fresh(Q)
            assert repr(measure_value(first, P, Q)) == _alone_family(first, p, q), first
            got = [repr(measure_value(key, P, Q)) for key in FAMILY_KEYS]
            assert got == want, first


# Each base measure's cell term as it is summed alone, written out here as
# the reference for the shared pass: (term, scale), the measure being
# scale times the term's row sum, and d 1 minus its row sum.
def _xlogy(x, y):
    return np.where(x == 0.0, 0.0, x * np.log(y))


def _alone_delta(p, q):
    t = np.where(p + q > 0.0, (p - q) ** 2 / (p + q), 0.0)
    bad = (t == 0.0) & (p != q)
    t[bad] = (p[bad] - q[bad]) / (p[bad] + q[bad]) * (p[bad] - q[bad])
    return t


def _alone_psi(p, q):
    t = (p - q) ** 2 * (p + q) / (p * q)
    bad = np.isnan(t)
    d = p[bad] - q[bad]
    s = p[bad] + q[bad]
    t[bad] = np.where(s > 0.0, (d / p[bad]) * (d / q[bad]) * s, 0.0)
    return t


def _alone_t(p, q):
    m = 0.5 * (p + q)
    return np.where(m == 0.0, 0.0, _xlogy(m, m) - 0.5 * m * (np.log(p) + np.log(q)))


ALONE_TERMS = {
    "Delta": (_alone_delta, 1.0),
    "I": (lambda p, q: _xlogy(p, p) + _xlogy(q, q) - _xlogy(p + q, 0.5 * (p + q)), 0.5),
    "h": (lambda p, q: (np.sqrt(p) - np.sqrt(q)) ** 2, 0.5),
    "d": (lambda p, q: 0.5 * (np.sqrt(p) + np.sqrt(q)) * np.sqrt(0.5 * (p + q)), -1.0),
    "J": (lambda p, q: np.where((p == 0.0) & (q == 0.0), 0.0, (p - q) * (np.log(p) - np.log(q))), 1.0),
    "T": (_alone_t, 1.0),
    "Psi": (_alone_psi, 1.0),
}


def _alone_chain(which, p, q):
    """A chain's values from each base summed alone by its ALONE_TERMS row."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bases = {}
        for tag, (term, scale) in ALONE_TERMS.items():
            value = scale * kernel.row_sum(term, p, q)
            bases[tag] = 1.0 + value if scale < 0.0 else value
    values = []
    for _, c, mid in measures._CHAIN_LINKS[which]:
        if mid.tag in DIFF_TAGS:
            (c1, t1), (c2, t2) = measures._DIFF_COMBOS[mid.tag]
            value = c1 * bases[t1] + c2 * bases[t2]
        else:
            value = bases[mid.tag]
        values.append(repr(float(c * value)))
    return values


@pytest.mark.filterwarnings("error")
class TestOneBasePass:
    """The bases a read needs come from one pass over the pair or block,
    each with the bits of its base summed alone."""

    @pytest.mark.parametrize("name", sorted(TABLE_PAIRS))
    @pytest.mark.parametrize("which", ["eq7", "eq39"])
    def test_chain_of_a_validated_pair(self, passes, name, which):
        P, Q = TABLE_PAIRS[name]()
        got = [repr(v) for _, v in chain_check(_fresh(P), _fresh(Q), which).values]
        assert got == _alone_chain(which, P.probs, Q.probs)
        # eq7 reads every base, eq39 the four its differences combine
        bases = {"eq7": BASE_TAGS, "eq39": ("Delta", "I", "h", "d")}[which]
        assert passes == [("measures", len(bases))]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("which", ["eq7", "eq39"])
    def test_chain_of_a_verify_block(self, monkeypatch, cpus, which):
        # every TABLE_PAIRS pair as a row of one flat block, as verify lays
        # out its drawn pairs; the long row goes through row_sum's tree
        set_cpus(monkeypatch, cpus)
        pairs = sorted((TABLE_PAIRS[name]() for name in sorted(TABLE_PAIRS)), key=lambda X: X[0].n)
        rows = kernel.FlatRows(np.array([P.n for P, _ in pairs]))
        first, second = (np.concatenate([X[i].probs for X in pairs]) for i in (0, 1))
        values = BaseSums(first, second, reduce=rows.row_sum).chain(which)
        for i, (P, Q) in enumerate(pairs):
            assert [repr(float(v[i])) for v in values] == _alone_chain(which, P.probs, Q.probs)

    def test_a_difference_sums_its_two_bases_in_one_pass(self, passes):
        P, Q = make_pair(np.random.default_rng(8), 16)
        difference_measure("D_dI", P, Q)  # d and I
        measure_value("h", P, Q)
        chain_check(P, Q, "eq39")  # I, d and h are kept: only Delta is summed
        assert passes == [("measures", 2), ("measures", 1), ("measures", 1)]
