"""The mutants of ``tests/mutants.py`` and ``tests/deletions.py`` still fit the source and the tests.

A refactor that moves a mutated line, or renames a test a mutant names,
fails here at once, without running any mutant; so does a tier-1 import
from a part of the checkout that the scripts do not copy, a statement
deletion that does not compile, and a justified survivor that is no
longer a deletion site.
"""

import ast
import json
from pathlib import Path

import pytest

from tests.deletions import JUSTIFIED, mutate, sites
from tests.mutants import COPIED, MUTANTS, SURVIVORS

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_reports.json"


def _defines(node_id: str) -> bool:
    """Whether the file of ``path::Class::test`` defines that class and test.

    Of parametrized tests, only golden cases are named, as ``test_report[case id]``.
    """
    path, *names = node_id.split("::")
    names[-1], bracket, case = names[-1].partition("[")
    if bracket:  # the case ids are the keys of the expected reports
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if (path, names) != ("tests/test_golden.py", ["test_report"]) or case[:-1] not in golden:
            return False
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_applies_once_and_names_tests(name):
    path, old, new, ids = MUTANTS[name]
    assert old != new
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    # a survivor runs all of tier-1, so that it survives every test
    assert bool(ids) == (name not in SURVIVORS)
    for node_id in ids:
        assert _defines(node_id), node_id


def test_survivors_are_mutants():
    assert set(SURVIVORS) <= set(MUTANTS)


def test_copied_holds_every_package_tier1_imports():
    # a package left out fails to collect in every mutant's copy: the unmutated
    # run fails, and every mutant, the expected survivor too, would read as caught
    roots = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    # relci from src (pythonpath in pyproject.toml), the rest from the root
    local = {"src" if (ROOT / "src" / name).is_dir() else name for name in roots
             if (ROOT / "src" / name).is_dir() or (ROOT / name).is_dir()}
    assert {"src", "tests", "perfbench", "tools"} <= local <= set(COPIED)


def test_deletion_sites_are_deterministic():
    assert sites() == sites()


def test_every_deletion_compiles():
    # each mutated module compiled as the top-level statement around its deletion: the rest
    # is unchanged text that compiles as it stands (whole modules take several seconds)
    failed, tops = [], {}
    for site in sites():
        if site.path not in tops:
            body = ast.parse(site.path.read_text(encoding="utf-8")).body
            tops[site.path] = [(min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))]),
                                node.end_lineno) for node in body]
        first, last = next((a, b) for a, b in tops[site.path] if a <= site.start <= b)
        lines = mutate(site).splitlines(keepends=True)[first - 1:last - (site.end - site.start)]
        try:
            compile("".join(lines), f"{site.path}:{first}", "exec")
        except SyntaxError as exc:
            failed.append(f"{site.name}: {exc}")
    assert failed == []


def test_justified_survivors_are_sites():
    assert set(JUSTIFIED) <= {site.name for site in sites()}
