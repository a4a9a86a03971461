"""Every top-level import of a package module is used, and so is every
top-level function and class.

An import counts as used when it is read anywhere in the module or
listed in the module's __all__.  A function or class counts as used
when the package or the benchmark harness (perfbench/*.py) reads its
name outside its own definition; names inside string constants count,
since the harness names what it wraps in strings.  Tests do not count:
a helper that only tests call belongs in tests/.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fansheaf"


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


def _reads(node):
    """Identifiers a syntax tree reads: loaded names, attribute names
    and the identifiers inside string constants."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from re.findall(r"[A-Za-z_]\w*", n.value)


def unused_definitions(sources, readers=None):
    """(source key, name) of the top-level functions and classes of
    `sources` that no source and no reader reads outside their own
    definition.  Both map a key to a module's text."""
    defined = []
    read = set()
    for key, text in {**(readers or {}), **sources}.items():
        for node in ast.parse(text).body:
            own = None
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                own = node.name
                if key in sources:
                    defined.append((key, own))
            read |= {(name, key, own) for name in _reads(node)}
    return [
        (key, name)
        for key, name in defined
        if not any(
            n == name and (k, own) != (key, name) for n, k, own in read
        )
    ]


def test_unused_definitions_detects_and_exempts():
    sources = {
        "a": "def f():\n    return f()\n\nclass C:\n    pass\n",
        "c": "def g():\n    pass\n\ndef _h():\n    pass\n",
    }
    readers = {"b": "from a import C\nx = C()\nLAYERS = ('a', 'g.h')\n"}
    assert unused_definitions(sources, readers) == [("a", "f"), ("c", "_h")]
    assert unused_definitions(readers) == []
    assert unused_definitions({"a": "def f():\n    pass\nf()\n"}) == []


def test_every_definition_is_used():
    def texts(paths):
        return {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths}

    assert unused_definitions(
        texts(SRC.rglob("*.py")), texts((ROOT / "perfbench").glob("*.py"))
    ) == []
