"""A fast guard over the mutation list of tests/mutants.py: each entry still
applies to the code and names tests that exist.  A change that moves
mutated code or renames a killing test fails here, in seconds, instead of
in a full run of the mutants."""

import ast
from pathlib import Path

from mutants import MUTANTS, ROOT


def _tests_defined(path: Path) -> set:
    """The node-id tails ("test_x", "TestY::test_x") of a test module's
    module-level test functions and test-class methods."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.ClassDef):
            defined.update(
                f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)
            )
    return defined


def test_each_old_text_occurs_once_in_its_file():
    counts = {
        name: (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        for name, mutant in MUTANTS.items()
    }
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_each_named_test_is_defined_in_its_file():
    missing = [
        test
        for mutant in MUTANTS.values()
        for test in mutant.tests
        if test.partition("::")[2] not in _tests_defined(ROOT / test.partition("::")[0])
    ]
    assert missing == []


def test_the_guard_sees_a_missing_test(tmp_path):
    module = tmp_path / "test_x.py"
    module.write_text("def test_a():\n    pass\n\nclass TestB:\n    def test_c(self):\n        pass\n")
    assert _tests_defined(module) == {"test_a", "TestB::test_c"}
