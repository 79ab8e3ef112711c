"""Every name a module under src/attnmine imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "attnmine"

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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path) if (path.stem, name) not in KEPT]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_kept_imports_are_still_unused():
    # a kept name that the module starts using no longer needs its exemption
    for module, name in KEPT:
        assert name in unused_imports(SRC / f"{module}.py"), (module, name)
