"""Every top-level import of a package module is used, and so is every
top-level function and class and every method of a top-level class.

An import counts as used when it is read anywhere in the module or
listed in the module's __all__.  A function, class or method counts as
used when the package or the benchmark harness (perfbench/*.py) reads
its name outside its own definition; names inside string constants
count, since the harness names what it wraps in strings.  Dunder
methods are exempt: Python calls them.  Tests do not count: a helper
that only tests call belongs in tests/.
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


def _reads(*nodes):
    """Identifiers syntax trees read: loaded names, attribute names and
    the identifiers inside string constants."""
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                yield from re.findall(r"[A-Za-z_]\w*", n.value)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parts(node):
    """(owner, identifiers read) of a top-level statement.  A function
    or class owns its reads under its name, each method of a class
    under "Class.method"; other statements own theirs under None."""
    if isinstance(node, FUNCTIONS):
        yield node.name, set(_reads(node))
    elif isinstance(node, ast.ClassDef):
        methods = [item for item in node.body if isinstance(item, FUNCTIONS)]
        rest = [item for item in node.body if item not in methods]
        yield node.name, set(_reads(
            *node.bases, *node.keywords, *node.decorator_list, *rest
        ))
        for m in methods:
            yield f"{node.name}.{m.name}", set(_reads(m))
    else:
        yield None, set(_reads(node))


def unused_definitions(sources, readers=None):
    """(source key, name) of the top-level functions and classes of
    `sources`, and of their classes' methods other than dunders (named
    "Class.method"), that no source and no reader reads outside their
    own definition.  Both map a key to a module's text."""
    defined = []
    read = set()
    for key, text in {**(readers or {}), **sources}.items():
        for node in ast.parse(text).body:
            for own, names in _parts(node):
                dunder = own and own.endswith("__")
                if key in sources and own is not None and not dunder:
                    defined.append((key, own))
                read |= {(name, key, own) for name in names}

    def outside(key, name, k, own):
        inside = own is not None and (own + ".").startswith(name + ".")
        return k != key or not inside

    return [
        (key, name)
        for key, name in defined
        if not any(
            n == name.rpartition(".")[2] and outside(key, name, k, own)
            for n, k, own in read
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


def test_unused_methods_detected_and_dunders_exempt():
    """A method counts as used when read outside its own body: from
    another method, from the class's other statements or from another
    module; a class read only inside its methods is unused."""
    source = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.kept()\n"
        "    def kept(self):\n"
        "        return C\n"
        "    def alone(self):\n"
        "        return self.alone()\n"
        "    def named(self):\n"
        "        pass\n"
        "    alias = named\n"
        "    @property\n"
        "    def wrapped(self):\n"
        "        pass\n"
    )
    readers = {"b": "x.wrapped\n"}
    assert unused_definitions({"a": source}, readers) == [
        ("a", "C"), ("a", "C.alone")
    ]


def test_every_definition_is_used():
    def texts(paths):
        return {p.relative_to(ROOT).as_posix(): p.read_text() for p in paths}

    assert unused_definitions(
        texts(SRC.rglob("*.py")), texts((ROOT / "perfbench").glob("*.py"))
    ) == []
