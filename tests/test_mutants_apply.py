"""Every mutant of tests/mutants.py still applies to the code.

The mutation script is slow and pytest does not collect it, so a change
that moves a mutant's text or renames the test meant to kill it would go
unseen until the script runs.  These checks read the table only: each
mutant's old text occurs exactly once in its file and differs from its
new text, and each named test is a function its file defines.  The
edited file must parse, and every name the edit brings into it must be
bound by the edit, be a builtin or be read off a module the file
imports that has it: a mutant that reads a name its file neither
defines nor reads, such as a deleted attribute, is killed by the
exception it raises, not by the check it was written for.
"""

import ast
import builtins
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


def _names(text):
    """(every identifier a module names, those it binds as variables):
    names, attributes and arguments; keywords are syntax, never names."""
    named, bound = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            named.add(node.id)
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
        elif isinstance(node, ast.arg):
            named.add(node.arg)
            bound.add(node.arg)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    return named, bound


def _module_attributes(text):
    """Attributes that a module reads off the modules it imports and
    that those modules have, as Fraction in _linalg.Fraction."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    found = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
        ):
            try:
                module = importlib.import_module(imported[node.value.id])
            except ImportError:
                continue
            if hasattr(module, node.attr):
                found.add(node.attr)
    return found


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_names_only_what_its_file_knows(name):
    path, old, new, _ = MUTANTS[name]
    text = (ROOT / path).read_text()
    mutated = text.replace(old, new)
    before, _ = _names(text)
    after, bound = _names(mutated)
    stray = (
        after - before - bound - set(dir(builtins))
        - _module_attributes(mutated)
    )
    assert not stray, f"{name} names {sorted(stray)}"
