"""Mutation checks: each entry breaks the program in one small way, and
names the tests that must catch it.

    python tests/mutants.py              run every entry
    python tests/mutants.py NAME ...     run the named entries

An entry is (file, old text, new text, tests that must fail).  The runner
copies src/, tests/ and pyproject.toml into a temporary directory, first
runs every named test there unchanged (each must pass), then for each entry
replaces the old text, which must occur exactly once in the file, with the
new and runs only the entry's tests.  The mutant is killed when each named
test fails in at least one of its cases; otherwise it survives.  The exit
status is 1 if a mutant survives, an entry does not apply or a named test
fails unchanged, and 0 when every mutant is killed.

A change that edits mutated code or the tests that kill it runs this file.
A survivor is a gap in the tests: it is reported here, never dropped from
the list.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to the repository root
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids; each must fail in some case


KERNEL = "src/divbound/kernel.py"
MEASURES = "src/divbound/measures.py"
GENERATORS = "src/divbound/generators.py"
BOUNDS = "src/divbound/bounds.py"
VERIFY = "src/divbound/verify.py"
FAMILY_BITS = "tests/test_measures.py::TestOneFamilyPass::test_every_order_keeps_its_bits"
FAMILIES = "tests/test_measures.py::TestFamilies::"
EXTREME = "tests/test_measures.py::TestExtremeOrderSmallMasses::"
SHARED = "tests/test_measures.py::TestSharedBaseSums::"
MERGE_LAW = "tests/test_invariants.py::test_merging_cells_never_raises_a_measure"
DRAWS_EQUAL = "tests/test_verify.py::test_block_draws_equal_the_per_trial_draws"
KEPT_REJECTED = "tests/test_verify.py::test_a_rejected_kept_half_lies_between_two_trials_normals"
SIZES = "tests/test_verify.py::test_sizes_are_numpys_integers"
ABANDONED = "tests/test_verify.py::test_an_abandoned_corpus_leaves_the_per_trial_state"
ONE_PASS = "tests/test_bounds.py::TestOneAveragingPass::"
ONE_FN = "tests/test_generators.py::TestOneFunctionRule::"
ONE_PLAN = "tests/test_generators.py::TestOnePlanPerPass::"
ROW_PER_FN = "tests/test_bounds.py::TestBoundReport::"

MUTANTS = {
    # the family pass (measures._family_rows, BaseSums._families)
    "family-ratio-fallback-dropped": Mutant(
        MEASURES,
        "yield _mend(direct(power, m, s), (p, q), ratio, s)",
        "yield direct(power, m, s)",
        (FAMILY_BITS, EXTREME + "test_order_product_overflow_gives_inf_not_nan"),
    ),
    "zeta-cell-factor-sign-flipped": Mutant(
        MEASURES,
        '(power("q", s) - power("p", s)) * (power("p", 1.0 - s)',
        '(power("p", s) - power("q", s)) * (power("p", 1.0 - s)',
        (FAMILY_BITS, FAMILIES + "test_zeta_particular_cases_frozen"),
    ),
    "zeta-generator-factor-sign-flipped": Mutant(
        GENERATORS,
        "out = (1.0 - us) * ((us if same else power(u, e)) - 1.0) / a",
        "out = (us - 1.0) * ((us if same else power(u, e)) - 1.0) / a",
        ("tests/test_generators.py::TestCsiszarSum::test_all_keys_on_canonical_pair",
         "tests/test_generators.py::TestStar::test_family_closed_forms"),
    ),
    "family-m-without-its-half": Mutant(
        MEASURES,
        'm = 0.5 * (p + q) if any(family == "xi"',
        'm = (p + q) if any(family == "xi"',
        (FAMILY_BITS, FAMILIES + "test_xi_particular_cases_frozen", MERGE_LAW),
    ),
    "family-power-cached-by-exponent-alone": Mutant(
        MEASURES,
        "    @functools.cache\n"
        "    def power(base: str, e: float) -> np.ndarray:\n"
        '        return (p if base == "p" else q) ** e\n',
        "    made = {}\n\n"
        "    def power(base: str, e: float) -> np.ndarray:\n"
        "        if e not in made:\n"
        '            made[e] = (p if base == "p" else q) ** e\n'
        "        return made[e]\n",
        (FAMILY_BITS, FAMILIES + "test_zeta_particular_cases_frozen"),
    ),
    "family-pass-per-order": Mutant(
        MEASURES,
        "totals = self._reduce(_family_rows, self.p, self.q, missing)",
        "totals = [self._reduce(_family_rows, self.p, self.q, (o,))[0] for o in missing]",
        (
            SHARED + "test_a_catalog_family_read_sums_the_six",
            SHARED + "test_workload_sequence_makes_3_passes",
            "tests/test_verify.py::test_csiszar_suite_reads_a_block_as_a_pair_is_read",
        ),
    ),
    # the base pass and the differences (measures._base_rows, _BASE_SCALES, _DIFF_COMBOS)
    "difference-sign-flipped": Mutant(
        MEASURES,
        '"D_hI": ((1.0, "h"), (-1.0, "I")),',
        '"D_hI": ((-1.0, "h"), (1.0, "I")),',
        (MERGE_LAW, "tests/test_measures.py::TestDifferences::test_nonnegative"),
    ),
    "base-scales-delta-psi-swapped": Mutant(
        MEASURES,
        '"Delta": 1.0, "Psi": 1.0,',
        '"Psi": 1.0, "Delta": 1.0,',
        (
            "tests/test_measures.py::TestChains::test_eq7_canonical_values",
            "tests/test_measures.py::TestOneBasePass::test_chain_of_a_validated_pair",
        ),
    ),
    "i-mend-dropped": Mutant(
        MEASURES,
        "yield _mend(_i_cells(*cells), cells, _i_cells, _times_log)",
        "yield _i_cells(*cells)",
        (
            "tests/test_measures.py::TestPermissiveZeros::test_finite_measures_stay_finite",
            "tests/test_generators.py::TestCsiszarSum::test_zero_conventions_match_direct_measures",
        ),
    ),
    # the family order (kernel._limit_order, measures.MeasureId, _LIMIT_BASES)
    "band-edge-inside-the-band": Mutant(
        KERNEL,
        "    if abs(s) < SWITCH_EPS:\n",
        "    if abs(s) <= SWITCH_EPS:\n",
        ("tests/test_kernel.py::TestOrderParameter::test_regular",),
    ),
    "xi-limit-bases-swapped": Mutant(
        MEASURES,
        '"xi": {0.0: "I", 1.0: "T"}',
        '"xi": {0.0: "T", 1.0: "I"}',
        ("tests/test_measures.py::TestLimitOrders::test_inside_the_band",),
    ),
    "measure-id-order-unchecked": Mutant(
        MEASURES,
        "            if not math.isfinite(s):\n"
        '                raise DomainError(f"order parameter must be finite, got {s!r}")\n',
        "",
        (
            "tests/test_measures.py::TestMeasureId::test_family_order_must_be_finite",
            "tests/test_kernel.py::TestOrderParameter::test_non_finite_rejected",
        ),
    ),
    # the lockstep lower bounds (generators.float_star_array)
    "lockstep-libm-form-bypassed": Mutant(
        GENERATORS,
        "    fn = _LIBM_FORMS.get(g.fn, g.fn)\n",
        "    fn = g.fn\n",
        ("tests/test_bounds.py::TestLockstepLowerBounds::test_evaluator_is_the_float_path",),
    ),
    # the one cell pass (generators._cell_rows) and its plan (_plan, made
    # by distinct fn, and _plan_sums, which maps each key to its row), the
    # one function rule (generators._build), the averaging pass round it
    # (_star_rows) and the grid's two stages (bounds.family_grid_bounds)
    "twin-fn-without-the-zeta-twin-check": Mutant(
        GENERATORS,
        'elif tag == "zeta" and (t := _zeta_twin(s)) is not None and t < s:',
        'elif tag == "zeta" and (t := 1.0 - s) < s:',
        (ONE_FN + "test_zeta_twins_share_fn_exactly_when_zeta_twin_holds",),
    ),
    "cell-rows-difference-reads-the-wrong-base": Mutant(
        GENERATORS,
        "fn: (make, bases)}",
        "fn: (make, (bases[0],) * 2)}",
        (ONE_FN + "test_each_row_is_its_generators_own",
         ONE_PASS + "test_endpoint_and_near_endpoint_posteriors"),
    ),
    "cell-rows-xi-terms-kept-after-the-last-order": Mutant(
        GENERATORS,
        "tuple(value for value in row if last[value] == i)",
        "tuple(value for value in row if last[value] == i and value is not _xi_terms)",
        (ONE_FN + "test_each_row_is_its_generators_own",
         ONE_PASS + "test_endpoint_and_near_endpoint_posteriors"),
    ),
    "cell-rows-xi-terms-dropped-before-the-last-order": Mutant(
        GENERATORS,
        "tuple(value for value in row if last[value] == i)",
        "tuple(value for value in row if last[value] == i or value is _xi_terms)",
        (ONE_FN + "test_each_row_is_its_generators_own",
         ONE_PASS + "test_endpoint_and_near_endpoint_posteriors"),
    ),
    "xi-shared-terms-from-the-wrong-slot": Mutant(
        GENERATORS,
        "w, uw, hv = _xi_terms(u) if terms is None else terms\n",
        "w, uw, hv = _xi_terms(u) if terms is None else terms[::-1]\n",
        (ONE_FN + "test_each_row_is_its_generators_own",),
    ),
    "plan-key-reads-its-neighbours-row": Mutant(
        GENERATORS,
        "rows = dict(zip(plan, reduce(term, p, q, plan)))",
        "rows = dict(zip(plan, np.roll(reduce(term, p, q, plan), 1, axis=0)))",
        (ONE_PLAN + "test_the_table_sums_18_rows_for_19_keys",
         ROW_PER_FN + "test_stage_1_sums_one_row_per_function"),
    ),
    "plan-keyed-by-generator-key": Mutant(
        GENERATORS,
        "    return {g.fn: g for g in gens}\n",
        "    return {g.key: g for g in gens}\n",
        (ONE_PLAN + "test_the_table_sums_18_rows_for_19_keys",
         ROW_PER_FN + "test_stage_1_sums_one_row_per_function"),
    ),
    "cell-rows-unmirrored": Mutant(
        GENERATORS,
        "row = _mirrored(q * made[g.fn], p, q, g.fn)",
        "row = q * made[g.fn]",
        (ONE_PASS + "test_endpoint_and_near_endpoint_posteriors",
         ONE_PASS + "test_rows_longer_than_a_leaf", ONE_PASS + "test_flat_rows",
         ONE_FN + "test_each_row_is_its_generators_own"),
    ),
    "star-rows-endpoint-fill-zero": Mutant(
        GENERATORS,
        "row = np.full(a.shape, g.f_infinity)",
        "row = np.full(a.shape, 0.0)",
        (ONE_PASS + "test_endpoint_and_near_endpoint_posteriors",
         ONE_PASS + "test_a_problem_with_zero_masses"),
    ),
    "star-rows-mask-keeps-a-equal-1": Mutant(
        GENERATORS,
        "inner = (a != 0.0) & (a != 1.0)",
        "inner = a != 0.0",
        (ONE_PASS + "test_endpoint_and_near_endpoint_posteriors",
         ONE_PASS + "test_a_problem_with_zero_masses"),
    ),
    "grid-stage-2-reads-the-first-average": Mutant(
        BOUNDS,
        "v = averages[g.key]",
        "v = averages[gens[0].key]",
        ("tests/test_bounds.py::TestFamilyGridBounds::test_each_row_is_family_bounds",),
    ),
    # float forms, row_sum's tree and helpers, and the fork model
    # (generators._star_float, kernel.row_sum, verify._run_forked)
    "float-form-min-zero": Mutant(
        GENERATORS,
        "_FLOAT_FORM_MIN = 1e-305",
        "_FLOAT_FORM_MIN = 0",
        ("tests/test_outcomes.py::test_every_pointwise_entry_point_has_its_tabled_outcome",),
    ),
    "row-sum-heap-not-primed": Mutant(
        KERNEL,
        "        _prime_heap()\n",
        "        pass\n",
        ("tests/test_kernel.py::test_a_first_long_pair_does_not_fault_its_leaves_in_afresh",),
    ),
    "row-sum-split-not-a-multiple-of-8": Mutant(
        KERNEL,
        "    half -= half % 8\n",
        "",
        ("tests/test_kernel.py::TestRowSum::test_deep_trees",
         "tests/test_kernel.py::TestRowSum::test_leaves_tile_the_row_in_order"),
    ),
    "row-sum-helper-without-the-callers-context": Mutant(
        KERNEL,
        "target=contextvars.copy_context().run, args=(self._run, tree_args)",
        "target=self._run, args=(tree_args,)",
        ("tests/test_measures.py::TestErrstateReachesHelpers::test_overflow_is_silent_inf",),
    ),
    "fork-workers-not-killed-on-error": Mutant(
        VERIFY,
        "            os.kill(pid, signal.SIGKILL)\n",
        "            pass\n",
        ("tests/test_verify.py::test_worker_error_stops_the_other_suites",),
    ),
    # verify's draws from PCG64's raw words (verify._Draws, verify._blocks)
    "draws-kept-half-not-rejection-tested": Mutant(
        VERIFY,
        "                u, self._has = self._kept, False\n",
        "                u, self._has = self._kept, False\n"
        "                return 2 + ((u * r) >> 32)\n",
        (KEPT_REJECTED,),
    ),
    "draws-word-before-reserved-normals": Mutant(
        VERIFY,
        "        self._normals()\n        return self._word()\n",
        "        word = self._word()\n        self._normals()\n        return word\n",
        (KEPT_REJECTED, DRAWS_EQUAL),
    ),
    "draws-n-max-2-takes-a-word": Mutant(
        VERIFY,
        "        if r == 1:\n            return 2\n",
        "        if r == 0:\n            return 2\n",
        (SIZES, "tests/test_verify.py::test_a_corpus_draws_its_sizes_and_priors_with_no_numpy_call"),
    ),
    "draws-prior-from-w-shift-12": Mutant(
        VERIFY,
        "((self._fresh() >> 11) * 2.0**-53)",
        "((self._fresh() >> 12) * 2.0**-53)",
        ("tests/test_verify.py::test_priors_are_numpys_uniform", DRAWS_EQUAL),
    ),
    "draws-kept-half-not-written-back": Mutant(
        VERIFY,
        "        self._bitgen.state = state\n",
        "        del state\n",
        (SIZES, DRAWS_EQUAL, ABANDONED),
    ),
    "draws-write-back-outside-finally": Mutant(
        VERIFY,
        "            start += len(sizes)\n    finally:\n        draws.close()\n",
        "            start += len(sizes)\n        draws.close()\n    finally:\n        pass\n",
        (ABANDONED,),
    ),
}


def _copy_tree(to: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, to / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis")
        )
    shutil.copy2(ROOT / "pyproject.toml", to / "pyproject.toml")


def _run(where: Path, tests) -> Tuple[set, set]:
    """(ran, failed): the node ids among tests with a case that ran, and
    with a case that failed or raised, from one pytest run in where; a
    parametrised case counts for its test."""
    report = where / "report.xml"
    # no cached bytecode: a mutant of the original's size, written within
    # the same second, would pass the cache's mtime-and-size check
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}",
         *tests],
        cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if not report.exists():
        return set(), set(tests)  # pytest stopped before its report: nothing ran
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        of = {test for test in tests if _is_case_of(case, test)}
        ran |= of
        if case.find("failure") is not None or case.find("error") is not None:
            failed |= of
    report.unlink()
    return ran, failed


def _is_case_of(case: ET.Element, test: str) -> bool:
    """True if the junit testcase is test or one of its parametrised cases."""
    path, _, rest = test.partition("::")
    *classes, name = rest.split("::")
    module = path[: -len(".py")].replace("/", ".")
    return case.get("classname") == ".".join([module, *classes]) and (
        case.get("name", "").split("[")[0] == name
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    chosen = {name: MUTANTS[name] for name in args.names or MUTANTS}
    bad = 0
    with tempfile.TemporaryDirectory(prefix="divbound-mutants-") as tmp:
        where = Path(tmp)
        _copy_tree(where)
        tests = sorted({test for mutant in chosen.values() for test in mutant.tests})
        ran, failed = _run(where, tests)
        for test in tests:
            if test in failed or test not in ran:
                print(f"{'fails' if test in failed else 'not found'} unchanged\t{test}")
                bad += 1
        for name, mutant in chosen.items():
            path = where / mutant.file
            text = path.read_text(encoding="utf-8")
            count = text.count(mutant.old)
            if count != 1:
                print(f"does not apply\t{name}\told text found {count} times in {mutant.file}")
                bad += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                _, failed = _run(where, mutant.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            survived = [test for test in mutant.tests if test not in failed]
            if survived:
                print(f"survived\t{name}\tpassing: {' '.join(survived)}")
                bad += 1
            else:
                print(f"killed\t{name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
