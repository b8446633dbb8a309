"""The mutant list of tools/mutants.py stays applicable: each old text
occurs exactly once in its file, and each named test exists.  Running the
mutants takes minutes and is left to the script itself."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("crnregions_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.MUTANTS


MUTANTS = _mutants()


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the file defines the nested class/function path names."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next(
            (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert mutant.old != mutant.new
    assert text.count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_test_exists(mutant):
    path, *names = mutant.test.split("::")
    names[-1] = names[-1].split("[")[0]
    assert _defines(ROOT / path, names), mutant.test
