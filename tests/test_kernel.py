import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from divbound import kernel
from divbound.kernel import (
    SUM_LEAF,
    SWITCH_EPS,
    ArgumentError,
    DomainError,
    OrderParameter,
    ProbeFailure,
    Regime,
    convexity_probe,
    invert_decreasing,
    row_sum,
    x_ln_x,
)
from divbound.generators import GENERATOR_GRID, generator


def j_of_pe(a: float) -> float:
    """(2a-1) ln(a/(1-a)): strictly decreasing on (0, 1/2]."""
    return (2.0 * a - 1.0) * math.log(a / (1.0 - a))


class TestXLnX:
    def test_continuous_extension_at_zero(self):
        assert x_ln_x(0.0) == 0.0

    def test_at_one(self):
        assert x_ln_x(1.0) == 0.0

    def test_at_e(self):
        assert x_ln_x(math.e) == pytest.approx(math.e, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            x_ln_x(-1e-9)

    def test_array_input(self):
        out = x_ln_x(np.array([0.0, 1.0, math.e]))
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(math.e, rel=1e-15)

    def test_refinement_monotone_to_zero(self):
        vals = [abs(x_ln_x(10.0**-k)) for k in range(1, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-13


class TestOrderParameter:
    @pytest.mark.parametrize("s", [0.0, 1e-7, -9.9e-7])
    def test_at_zero(self, s):
        assert OrderParameter.of(s).regime is Regime.AT_ZERO

    @pytest.mark.parametrize("s", [1.0, 1.0 + 1e-7, 1.0 - 9.9e-7])
    def test_at_one(self, s):
        assert OrderParameter.of(s).regime is Regime.AT_ONE

    @pytest.mark.parametrize("s", [0.5, -1.0, 2.0, 1e-5, 1.0 + 1e-5, SWITCH_EPS])
    def test_regular(self, s):
        assert OrderParameter.of(s).regime is Regime.REGULAR

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            OrderParameter.of(math.inf)

    def test_idempotent(self):
        op = OrderParameter.of(0.3)
        assert OrderParameter.of(op) is op


class TestInvertDecreasing:
    def test_example_against_grid_scan(self):
        # oracle: locate the crossing of j_of_pe on a 1e6-point grid
        target = 0.6 * math.log(4.0)  # = j_of_pe(0.2)
        grid = np.linspace(1e-12, 0.5, 1_000_000)
        vals = (2.0 * grid - 1.0) * np.log(grid / (1.0 - grid))
        idx = int(np.argmax(vals <= target))  # first grid point at/below target
        crossing = grid[idx]
        a = invert_decreasing(j_of_pe, target, 1e-12, 0.5)
        assert abs(a - crossing) < 1e-6
        assert a == pytest.approx(0.2, abs=1e-10)
        assert abs(j_of_pe(a) - target) <= 1e-12

    def test_endpoint_saturation(self):
        assert invert_decreasing(j_of_pe, j_of_pe(0.5), 1e-12, 0.5) == 0.5

    def test_clamp_at_lower_endpoint(self):
        assert invert_decreasing(j_of_pe, 1e9, 1e-12, 0.5) == 1e-12

    def test_clamp_at_upper_endpoint(self):
        assert invert_decreasing(j_of_pe, -1.0, 1e-12, 0.5) == 0.5

    def test_bad_bracket(self):
        with pytest.raises(ArgumentError):
            invert_decreasing(j_of_pe, 0.1, 0.5, 0.5)

    def test_non_finite_target(self):
        with pytest.raises(DomainError):
            invert_decreasing(j_of_pe, math.inf, 1e-12, 0.5)

    @given(st.floats(1e-3, 0.499))
    def test_round_trip(self, a_star):
        v = j_of_pe(a_star)
        a = invert_decreasing(j_of_pe, v, 1e-12, 0.5, tol=1e-12)
        assert abs(j_of_pe(a) - v) <= 1e-10

    @given(st.floats(0.05, 3.0), st.floats(1e-3, 0.499))
    def test_round_trip_exponential(self, rate, a_star):
        g = lambda a: math.exp(-rate * a)
        v = g(a_star)
        a = invert_decreasing(g, v, 1e-12, 0.5, tol=1e-12)
        assert abs(g(a) - v) <= 1e-10


class TestConvexityProbe:
    def test_strictly_convex_quadratic(self):
        assert convexity_probe(lambda x: x**2, 0.1, 2.0, 101) > 0.0

    def test_concave_rejected(self):
        assert convexity_probe(lambda x: -(x**2), 0.1, 2.0, 101) < 0.0

    def test_hI_generator_nonnegative(self):
        g = generator("D_hI")
        assert convexity_probe(g.fn, 1e-3, 1e3, 301, log_spaced=True) >= 0.0

    def test_affine_shift_invariance(self):
        f = lambda x: x**2
        shifted = lambda x: x**2 + 0.7 - 1.3 * x
        lo, hi, n = GENERATOR_GRID
        a = convexity_probe(f, lo, hi, n, log_spaced=True)
        b = convexity_probe(shifted, lo, hi, n, log_spaced=True)
        assert abs(a - b) <= 1e-12

    def test_log_grid_sound_for_decreasing_convex(self):
        # piecewise-linear convex decreasing: naive unequal-triple probes
        # would reject it; the symmetric-step probe must not
        f = lambda x: np.maximum(0.0, 20.0 - x)
        assert convexity_probe(f, 1.0, 100.0, 11, log_spaced=True) >= -1e-12

    def test_non_finite_reported_with_location(self):
        def f(x):
            return np.where(x > 1.0, np.nan, x**2)

        with pytest.raises(ProbeFailure) as err:
            convexity_probe(f, 0.1, 2.0, 51)
        assert err.value.x > 1.0

    def test_bad_arguments(self):
        with pytest.raises(ArgumentError):
            convexity_probe(lambda x: x, 2.0, 1.0, 10)
        with pytest.raises(ArgumentError):
            convexity_probe(lambda x: x, 0.1, 2.0, 2)
        with pytest.raises(ArgumentError):
            convexity_probe(lambda x: x, -1.0, 2.0, 10, log_spaced=True)


def _term(p, q):
    return p * np.log(q) + q


def _cells(shape, seed):
    rng = np.random.default_rng(seed)
    # masses spread over many binades, so the summation order shows in the bits
    return np.exp(3.0 * rng.standard_normal((2,) + shape))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestRowSum:
    """row_sum equals the whole-row np.sum bit for bit, at every size."""

    @pytest.mark.parametrize(
        "n",
        [1, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 3 * 8192 + 5, 2**20, 1_000_003],
    )
    def test_matches_single_sum(self, monkeypatch, n):
        p, q = _cells((n,), n)
        blocked = row_sum(_term, p, q)
        monkeypatch.setattr(kernel, "SUM_LEAF", n + 1)
        single = row_sum(_term, p, q)
        assert _bits(blocked) == _bits(single) == _bits(np.sum(_term(p, q)))

    # 128 cells is the smallest leaf: numpy sums a row of at most 128 cells
    # with eight accumulators instead of halving it
    @pytest.mark.parametrize("n", [129, 136, 256, 257, 1000, 4099, 12345, 100_003])
    def test_deep_trees(self, monkeypatch, n):
        p, q = _cells((n,), n)
        monkeypatch.setattr(kernel, "SUM_LEAF", 128)
        assert _bits(row_sum(_term, p, q)) == _bits(np.sum(_term(p, q)))

    @pytest.mark.parametrize("leaf, shape", [(SUM_LEAF, (5, 3 * 8192 + 5)), (128, (4, 1001))])
    def test_blocks_reduce_row_by_row(self, monkeypatch, leaf, shape):
        monkeypatch.setattr(kernel, "SUM_LEAF", leaf)
        p, q = _cells(shape, shape[1])
        rows = row_sum(_term, p, q)
        assert rows.shape == (shape[0],)
        assert _bits(rows) == _bits(np.sum(_term(p, q), axis=-1))
        for i in range(shape[0]):
            assert _bits(rows[i]) == _bits(row_sum(_term, p[i], q[i]))

    @pytest.mark.parametrize("n", [8193, 3 * 8192 + 5, 2**20])
    def test_leaves_tile_the_row_in_order(self, n):
        seen = []

        def term(p, q, extra):
            seen.append((p[0], p.shape[0], extra))
            return p + q

        p = np.arange(n, dtype=float)
        row_sum(term, p, p, "x")
        starts = [int(first) for first, _, _ in seen]
        sizes = [size for _, size, _ in seen]
        assert max(sizes) <= SUM_LEAF
        assert starts == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == n
        assert all(size % 8 == 0 for size in sizes[:-1])
        assert {extra for _, _, extra in seen} == {"x"}


def _error_classes(cls=kernel.DivboundError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def _all_error_classes():
    """DivboundError and its subclasses, every module of the package imported."""
    import importlib
    import pkgutil

    import divbound

    for mod in pkgutil.iter_modules(divbound.__path__):
        if not mod.name.startswith("_"):
            importlib.import_module(f"divbound.{mod.name}")
    return [kernel.DivboundError, *_error_classes()]


# Constructor arguments of the errors that take more than a message.
_ERROR_ARGS = {ProbeFailure: (0.5, math.nan)}


def test_error_classes_cover_the_package():
    names = {cls.__name__ for cls in _all_error_classes()}
    assert {"ProbeFailure", "ValidationFailure", "ParseFailure", "BoundUnavailable"} <= names


@pytest.mark.parametrize("cls", _all_error_classes(), ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    # verify's worker processes send a suite's error back to the parent by pickle
    err = cls(*_ERROR_ARGS.get(cls, ("bad input at line 3",)))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert repr(back.args) == repr(err.args)
    assert repr(vars(back)) == repr(vars(err))
