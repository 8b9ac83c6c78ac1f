"""Dead-code guard over the package source, with the standard library's ast.

Every name a module imports is used in that module, and every module-level
private name (_x) is referenced somewhere in the package beyond its own
definition.  The package's __init__ is exempt from the import rule: its
imports are the public surface it re-exports through __all__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "divbound"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.Module) -> set:
    """Every name read in the module: bare names, the roots of attribute
    chains, and the names inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "np.ndarray" or "TwoClassProblem"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _imported(tree: ast.Module) -> dict:
    """name bound by an import -> the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _private_definitions(tree: ast.Module) -> dict:
    """module-level private name (not dunder) -> the line that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _references(tree: ast.Module) -> set:
    """Names a module refers to: read names, attributes and imported names."""
    refs = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_private_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = {
        f"{module}:{line}": name
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    }
    assert not dead, f"private names nothing references: {dead}"


def test_the_guard_sees_dead_code():
    tree = ast.parse("import os\nfrom x import y\n_dead = 1\n_live = 2\n\ndef _f():\n    return _live\n")
    used = _used_names(tree)
    assert {name for name in _imported(tree) if name not in used} == {"os", "y"}
    refs = _references(tree)
    assert {name for name in _private_definitions(tree) if name not in refs} == {"_dead", "_f"}


def test_csiszar_cell_terms_are_made_in_one_pass():
    """Cell terms are made by generators._csiszar_term for one generator and
    generators._cell_rows for several: every multi-generator Csiszar loop
    is the one pass, and the key lists and marks that once steered a loop
    of the catalog table's own or the xi orders' shared terms are gone."""
    makers = {
        node.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_mirrored"
            for call in ast.walk(node)
        )
    }
    assert makers == {"_csiszar_term", "_cell_rows"}
    defined = set().union(*(_private_definitions(_tree(path)) for path in MODULES))
    assert not defined & {"_TWINS", "_XI_KEYS", "_COMBINED", "_table_rows", "_XI_FORMS", "_PARTS"}
