import numpy as np
import pytest
from hypothesis import given, strategies as st

from divbound.distributions import (
    PERMISSIVE,
    STRICT,
    AlphabetMismatch,
    AlphabetTooSmall,
    NegativeEntry,
    SumNotOne,
    ValidationFailure,
    ZeroEntry,
    require_same_alphabet,
    validate,
)


def test_uniform_strict_valid():
    d = validate([0.5, 0.5], STRICT)
    assert d.n == 2
    assert d.mode == STRICT


def test_sum_error_forced_by_tolerance():
    with pytest.raises(SumNotOne):
        validate([0.5, 0.5001], STRICT)


def test_zero_entry_strict_vs_permissive():
    with pytest.raises(ZeroEntry):
        validate([0.0, 1.0], STRICT)
    d = validate([0.0, 1.0], PERMISSIVE)
    assert d.mode == PERMISSIVE


def test_negative_entry():
    with pytest.raises(NegativeEntry):
        validate([-0.1, 1.1], PERMISSIVE)


def test_alphabet_too_small():
    with pytest.raises(AlphabetTooSmall):
        validate([1.0], STRICT)
    # two-class conditionals relax the minimum to one outcome
    assert validate([1.0], PERMISSIVE, min_size=1).n == 1


def test_non_finite_entry():
    with pytest.raises(ValidationFailure):
        validate([0.5, float("nan")], PERMISSIVE)


def test_no_silent_renormalisation():
    with pytest.raises(SumNotOne):
        validate([0.3, 0.3], STRICT)


def test_probs_are_read_only():
    d = validate([0.5, 0.5])
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_repr_shows_masses_and_mode():
    assert repr(validate([0.25, 0.75])) == "DiscreteDistribution([0.25, 0.75], mode='strict')"


def test_alphabet_mismatch():
    a = validate([0.5, 0.5])
    b = validate([0.2, 0.3, 0.5])
    with pytest.raises(AlphabetMismatch):
        require_same_alphabet(a, b)


def test_error_kinds_are_distinct():
    kinds = {
        NegativeEntry.kind,
        ZeroEntry.kind,
        SumNotOne.kind,
        AlphabetTooSmall.kind,
        AlphabetMismatch.kind,
    }
    assert len(kinds) == 5


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=32))
def test_normalised_vectors_validate(weights):
    w = np.asarray(weights)
    d = validate(w / w.sum(), STRICT)
    assert abs(float(d.probs.sum()) - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", [STRICT, PERMISSIVE])
def test_first_fault_in_scan_order_is_raised(mode):
    # non-finite before negative before zero before the sum, wherever they lie
    faults = [(np.nan, ValidationFailure), (-0.25, NegativeEntry), (0.0, ZeroEntry)]
    if mode == PERMISSIVE:
        faults[2] = (0.0, SumNotOne)  # a zero is allowed, the sum of 0.25 + 0.5 is not
    for k, (_, raised) in enumerate(faults):
        raw = [0.25, 0.5, *(value for value, _ in faults[k:])]
        with pytest.raises(raised) as info:
            validate(raw[::-1], mode)
        assert type(info.value) is raised
    with pytest.raises(SumNotOne):
        validate([1e308, 1e308], mode)  # finite entries whose sum overflows


def test_negative_zero_is_a_zero():
    with pytest.raises(ZeroEntry):
        validate([-0.0, 1.0], STRICT)
    assert validate([-0.0, 1.0], PERMISSIVE).probs[0] == 0.0
