"""Every name a module under src/attnmine, or tests/gradcheck.py, imports is
referenced in that module, and every function, class and method a module
under src/attnmine defines is named elsewhere in the library."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "attnmine"

# (module, name): imported for a reader outside the module, with the reason
KEPT = {
    ("cli", "run_am"): "not called in cli; benchmarks/spans.py wraps cli.run_am",
}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


# the gradient checker lives beside the tests that import it, and is held
# to the same rule
@pytest.mark.parametrize("path", [*sorted(SRC.glob("*.py")), TESTS / "gradcheck.py"], ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in KEPT]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_kept_imports_are_still_unused():
    # a kept name that the module starts using no longer needs its exemption
    for module, name in KEPT:
        assert name in unused_imports(SRC / f"{module}.py"), (module, name)


# (module, name): defined for a reader outside the library, with the reason
UNCALLED = {
    ("kp", "gap_drift"): "acceptance criterion 5 measures fine-tuning drift with it",
}


def _names(node):
    """How often each name is used, read as an attribute or imported under `node`."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return Counter(getattr(n, fields[type(n)]) for n in ast.walk(node) if type(n) in fields)


def uncalled_definitions():
    """(module, name) of each top-level function or class, and each method of a
    top-level class, that the library names nowhere outside the definition.
    Dunder methods are called by the language and are left out."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    uncalled = []
    for module, tree in trees.items():
        for top in tree.body:
            methods = top.body if isinstance(top, ast.ClassDef) else []
            for node in [top, *methods]:
                if not isinstance(node, defs) or node.name.startswith("__"):
                    continue
                if named[node.name] == _names(node)[node.name]:
                    uncalled.append((module, node.name))
    return uncalled


def test_every_definition_is_named_elsewhere():
    uncalled = [d for d in uncalled_definitions() if d not in UNCALLED]
    assert not uncalled, f"defined under src/attnmine but never named there: {uncalled}"


def test_allowed_uncalled_definitions_are_still_uncalled():
    # an allowed name that the library starts calling no longer needs its exemption
    uncalled = uncalled_definitions()
    for definition in UNCALLED:
        assert definition in uncalled, definition
