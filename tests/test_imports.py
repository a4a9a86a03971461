"""Every top-level import of a package module is used.

A name counts as used when it is read anywhere in the module or listed
in the module's __all__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fansheaf"


def unused_imports(source):
    """Names bound by the top-level imports of `source` that it never
    reads, in import order."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_detects_and_exempts():
    assert unused_imports("import os\nfrom a import b as c\nc()\n") == ["os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize(
    "path",
    sorted(SRC.rglob("*.py")),
    ids=lambda p: p.relative_to(SRC).as_posix(),
)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
