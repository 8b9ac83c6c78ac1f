"""Laws that need no oracle, on seeded independent Dirichlet pairs.

Every catalog measure is a Csiszar f-divergence with a convex generator,
so merging two cells of a pair never raises it (the data-processing
inequality) and no value is negative.  For a two-class problem, merging the
same two cells of both conditionals can only raise the Bayes error, and so
every bound on it, and swapping the two classes changes nothing.

    pytest tests/test_invariants.py              the laws at n from 3 to 32
    python tests/test_invariants.py --large      the measure laws at n = 2^20

Pairs near the diagonal (P close to Q) are left out: there cancellation in
the measure sums breaks the merge law by far more than rounding.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from divbound import CATALOG_KEYS, TwoClassProblem, bound_report, measure_value, validate  # noqa: E402

EPS = np.finfo(float).eps
SIZES = range(3, 33)

# An entry of a bound report may move this far when only the rounding
# changes.  The bisected lower bounds move most: swapping the classes of 600
# problems (n from 3 to 32) moved toussaint_inversion by up to 1.1e-13 and
# every closed-form entry by at most 2.3e-14.
REPORT_ROUNDING = 1e-12


def rounding_allowance(n: int, value: float) -> float:
    """How far rounding may raise a measure of a pair of n cells: n ulps of
    1 + |value| for the n cell terms, times 8 for the scales applied after
    the sum (a family's 1/(s(s-1)) is at most 4, a difference's coefficients
    at most 4 on bases at most 2)."""
    return 8.0 * n * EPS * (1.0 + abs(value))


def merged(x: np.ndarray, i: int) -> np.ndarray:
    """x with cells i and i + 1 merged into one."""
    return np.concatenate([x[:i], [x[i] + x[i + 1]], x[i + 2 :]])


def dirichlet_pair(n: int):
    rng = np.random.default_rng([19, n])
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


def catalog(p: np.ndarray, q: np.ndarray) -> dict:
    P, Q = validate(p, min_size=1), validate(q, min_size=1)
    return {key.label(): measure_value(key, P, Q) for key in CATALOG_KEYS}


def measure_law_breaks(p: np.ndarray, q: np.ndarray, cuts) -> list:
    """Each (cut, measure, value before, value after) where merging cells
    cut and cut + 1 raised a catalog measure beyond its rounding allowance,
    or a value came out negative (then cut is None before any merge)."""
    before = catalog(p, q)
    breaks = [(None, label, v, v) for label, v in before.items() if not v >= 0.0]
    for i in cuts:
        after = catalog(merged(p, i), merged(q, i))
        for label, v in after.items():
            if not (0.0 <= v <= before[label] + rounding_allowance(p.size, before[label])):
                breaks.append((i, label, before[label], v))
    return breaks


@pytest.mark.parametrize("n", SIZES)
def test_merging_cells_never_raises_a_measure(n):
    p, q = dirichlet_pair(n)
    assert measure_law_breaks(p, q, range(n - 1)) == []


def test_the_allowance_is_below_a_merge_loss():
    # the law is not vacuous: a merge of two cells with different ratios
    # lowers each measure by far more than the allowance
    p, q = np.array([0.1, 0.4, 0.5]), np.array([0.4, 0.1, 0.5])
    before, after = catalog(p, q), catalog(merged(p, 0), merged(q, 0))
    for label, v in before.items():
        assert v - after[label] > 1e6 * rounding_allowance(3, v), label


def two_class(n: int):
    """A problem with independent Dirichlet conditionals and a class-1
    prior in [0.05, 0.95], as (prior, cond1, cond2, rng)."""
    rng = np.random.default_rng([5, n])
    cond1, cond2 = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    return 0.05 + 0.9 * rng.random(), cond1, cond2, rng


def report(p1: float, cond1: np.ndarray, cond2: np.ndarray):
    return bound_report(TwoClassProblem.from_arrays((p1, 1.0 - p1), cond1, cond2))


@pytest.mark.parametrize("n", SIZES)
def test_merging_cells_never_lowers_the_error_or_a_bound(n):
    p1, cond1, cond2, rng = two_class(n)
    whole = report(p1, cond1, cond2)
    for i in rng.choice(n - 1, size=min(3, n - 1), replace=False):
        coarse = report(p1, merged(cond1, i), merged(cond2, i))
        assert coarse.exact_pe >= whole.exact_pe - REPORT_ROUNDING
        for before, after in zip(whole.entries, coarse.entries):
            assert after.name == before.name
            if before.applicable and after.applicable:
                assert after.value >= before.value - REPORT_ROUNDING, (i, before.name)


@pytest.mark.parametrize("n", SIZES)
def test_swapping_the_classes_moves_no_entry(n):
    p1, cond1, cond2, _ = two_class(n)
    a, b = report(p1, cond1, cond2), report(1.0 - p1, cond2, cond1)
    assert abs(a.exact_pe - b.exact_pe) <= REPORT_ROUNDING
    for x, y in zip(a.entries, b.entries):
        assert (x.name, x.kind, x.applicable, x.note) == (y.name, y.kind, y.applicable, y.note)
        assert abs(x.value - y.value) <= REPORT_ROUNDING, x.name


def large_breaks() -> list:
    """measure_law_breaks on one pair of 2^20 cells, shaped as the kernels
    benchmark shapes its pairs (softmax of standard-normal logits), at four
    random cuts."""
    n = 1 << 20
    rng = np.random.default_rng([19, 0])

    def softmax(logits):
        w = np.exp(logits - logits.max())
        return w / w.sum()

    p, q = softmax(rng.standard_normal(n)), softmax(rng.standard_normal(n))
    return measure_law_breaks(p, q, rng.choice(n - 1, size=4, replace=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--large", action="store_true", help="the measure laws at n = 2^20")
    args = parser.parse_args(argv)
    if not args.large:
        return pytest.main([__file__, "-q"])
    breaks = large_breaks()
    for cut, label, before, after in breaks:
        print(f"cut {cut}\t{label}\t{before!r} -> {after!r}")
    print("large: ok" if not breaks else f"large: {len(breaks)} breaks")
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main())
