"""Every module of the package uses what it imports and exports what it lists.

An imported name counts as used when the module reads it or re-exports
it through ``__all__``; every ``__all__`` entry must resolve on the
imported module.  No module imports another module's private
(underscore-prefixed) names.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relci"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported and never used (name: line)"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    names = _all(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module("relci" if path.stem == "__init__" else f"relci.{path.stem}")
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(names) == len(set(names)), f"{path.name}: __all__ lists a name twice"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}: {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "relci")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == [], f"{path.name} imports private names"
