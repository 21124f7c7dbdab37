"""Every module of the package uses what it imports and exports what it lists.

An imported name counts as used when the module reads it or re-exports
it through ``__all__``; every ``__all__`` entry must resolve on the
imported module, once.  No module star-imports: the package ``relci``
re-exports each library module's ``__all__``, in a fixed order, by
binding the names on first access, and no thread that reads one first
sees it missing.  No module imports another module's private
(underscore-prefixed) names or reads a private attribute it does not
define itself; a named tuple's ``_asdict``, ``_replace`` and the like
are public API, underscored only to keep clear of field names.  Only
the front end ``cli`` depends on ``cli``: no other module imports it,
at any depth of its source.  ``InternalCheckError``
carries its message alone: the front end names the instance of an exit 3,
so no module passes one to the exception or reads one off it.  The
README's "Library layout" table names only types that ``relci`` exports.
The compute path stays exact: no module but the drawing code ``svg``
holds a float literal or calls ``float``, or takes from ``math`` any
but its integer functions.  The front end writes each reported value in
one place: an instance (a dict display with "rank" and "degree" keys)
only in ``instance_to_json``, and a ``contact`` subvariety (an "e_f"
key) only in ``_contact_json``.
"""

import ast
import importlib
import re
import subprocess
import sys
from collections import namedtuple
from itertools import takewhile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relci"
README = SRC.parents[1] / "README.md"
MODULES = sorted(SRC.glob("*.py"))
NAMEDTUPLE_API = {n for n in dir(namedtuple("T", "")) if n.startswith("_") and not n.endswith("__")}
INTEGER_MATH = {"comb", "factorial", "prod", "ceil", "gcd", "isqrt"}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _module(path: Path):
    return importlib.import_module("relci" if path.stem == "__init__" else f"relci.{path.stem}")


def _all(path: Path) -> list[str]:
    return list(getattr(_module(path), "__all__", []))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all(path))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{path.name}: imported and never used (name: line)"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "cli"], ids=lambda p: p.name)
def test_library_modules_declare_all(path):
    assert hasattr(_module(path), "__all__")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    names = _all(path)
    module = _module(path)
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_star_imports_only_reexport_declared_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    stars = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
    ]
    assert [node.lineno for node in stars] == [], f"{path.name} star-imports"


def test_package_reexports_every_library_name():
    import relci
    from relci import bundles, contact, errors, exact, invariants, oracles, verdicts

    modules = (bundles, contact, errors, exact, invariants, oracles, verdicts)
    assert relci.__all__ == [
        "__version__", *bundles.__all__, *contact.__all__, *errors.__all__, *exact.__all__,
        *invariants.__all__, *oracles.__all__, *verdicts.__all__,
    ]
    mismatched = [(m.__name__, n) for m in modules for n in m.__all__
                  if getattr(relci, n) is not getattr(m, n)]
    assert mismatched == []
    assert sorted(set(relci.__all__) - set(dir(relci))) == []
    with pytest.raises(AttributeError, match="'no_such_name'"):
        relci.no_such_name


def test_dir_lists_exported_names_before_first_use(child_env):
    code = "import relci; print('cone' in vars(relci), 'cone' in dir(relci))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False True\n", "")


FIRST_USE = """
import sys, threading
import relci

names = {names!r}
barrier, got = threading.Barrier(len(names)), {{}}

def read(name):
    barrier.wait()
    try:
        got[name] = getattr(relci, name)
    except BaseException as exc:
        got[name] = exc

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=read, args=(name,)) for name in names]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print([f"{{name}}: {{got[name]!r}}" for name in names if got[name] is not vars(relci).get(name)])
"""


def test_first_use_is_safe_under_threads(child_env):
    # eight threads read eight different names from a package that has bound none
    names = ["BundleOverCurve", "ContactInstance", "InputError", "binom_trunc", "pushforward",
             "cross_check", "h_sweep", "__all__"]
    code = FIRST_USE.format(names=names)
    for _ in range(4):
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=child_env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_foreign_private_attributes(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    foreign = [
        f"{node.attr}: {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and node.attr not in defined | NAMEDTUPLE_API
    ]
    assert foreign == [], f"{path.name} reads private attributes defined elsewhere"


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the modules an import statement may load, anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["relci" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "cli"], ids=lambda p: p.name)
def test_only_the_front_end_imports_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "relci.cli" not in _imported_modules(tree), f"{path.name} imports relci.cli"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_internal_check_errors_carry_only_a_message(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    extra = [
        f"InternalCheckError: {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "InternalCheckError"
        and len(node.args) + len(node.keywords) != 1
    ]
    caught = {node.name for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.name}
    read = [
        f"{node.value.id}.instance: {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "instance"
        and isinstance(node.value, ast.Name) and node.value.id in caught
    ]
    assert extra + read == [], f"{path.name} passes an instance with an internal check error or reads one"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "svg"], ids=lambda p: p.name)
def test_compute_path_stays_exact(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "math"
    }
    inexact = [
        f"{ast.unparse(node)}: {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in math_names and node.attr not in INTEGER_MATH
    ] + [
        f"math.{alias.name}: {node.lineno}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "math"
        for alias in node.names if alias.name not in INTEGER_MATH
    ]
    assert inexact == [], f"{path.name} computes with floats"


def test_readme_layout_names_exported_types():
    section = README.read_text(encoding="utf-8").split("\n## Library layout\n", 1)[1]
    table = "\n".join(takewhile(lambda line: line.startswith("|"), section.strip().splitlines()))
    heads = {span.split(".")[0] for span in re.findall(r"`([^`]+)`", table)}
    camel = {name for name in heads if re.fullmatch(r"(?:[A-Z][a-z0-9]+){2,}", name)}
    assert camel, "the table names no CamelCase type"
    assert sorted(camel - set(importlib.import_module("relci").__all__)) == []


def test_one_json_form_per_reported_value():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    homes = {"instance": set(), "contact": set()}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Dict):
                keys = {key.value for key in node.keys if isinstance(key, ast.Constant)}
                home = getattr(top, "name", f"module level: {node.lineno}")
                if {"rank", "degree"} <= keys:
                    homes["instance"].add(home)
                if "e_f" in keys:
                    homes["contact"].add(home)
    assert homes == {"instance": {"instance_to_json"}, "contact": {"_contact_json"}}
