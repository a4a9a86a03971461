"""Every mutant of tests/mutants.py still applies to the code.

The mutation script is slow and pytest does not collect it, so a change
that moves a mutant's text or renames the test meant to kill it would go
unseen until the script runs.  These checks read the table only: each
mutant's old text occurs exactly once in its file and differs from its
new text, and each named test is a function its file defines.
"""

import ast
import importlib.util
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tests" / "mutants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


@cache
def _test_functions(path):
    """Names of the functions a test file defines at module level."""
    tree = ast.parse((ROOT / path).read_text())
    return {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_applies(name):
    path, old, new, tests = MUTANTS[name]
    assert (ROOT / path).read_text().count(old) == 1, "old text not unique"
    assert old != new
    assert tests
    for node in tests:
        file, _, function = node.partition("::")
        assert function.split("[")[0] in _test_functions(file), node
