"""The mutant list of ``tests/mutants.py`` still fits the source and the tests.

A refactor that moves a mutated line, or renames a test a mutant names,
fails here at once, without running any mutant.
"""

import ast
from pathlib import Path

import pytest

from tests.mutants import MUTANTS, SURVIVORS

ROOT = Path(__file__).resolve().parents[1]


def _defines(node_id: str) -> bool:
    """Whether the file of ``path::Class::test`` defines that class and test."""
    path, *names = node_id.split("::")
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
