"""The benchmark harness reaches into fansheaf by name: perfbench/spans.py
wraps the functions listed in its LAYERS, and setup_probe.py and
traced_job.py import names from the package.  A rename in src/ breaks
`perfbench/run.py --trace 1` without failing any other test, so these
tests resolve every such name against the package as it is."""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", PERFBENCH / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, qualname", [layer[:2] for layer in spans.LAYERS])
def test_traced_layers_resolve(module, qualname):
    obj = importlib.import_module(f"fansheaf.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _package_names(path):
    """Each fansheaf name a script imports, or reads off a module it
    imports, as {'module.name': object}; a name that does not resolve
    raises."""
    tree = ast.parse(path.read_text())
    names, bound = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("fansheaf"):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                try:
                    obj = importlib.import_module(name)
                except ModuleNotFoundError:
                    obj = getattr(importlib.import_module(node.module), alias.name)
                names[name] = bound[alias.asname or alias.name] = obj
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            home = bound.get(node.value.id)
            if isinstance(home, ModuleType):
                names[f"{home.__name__}.{node.attr}"] = getattr(home, node.attr)
    return names


@pytest.mark.parametrize("script", ["setup_probe.py", "traced_job.py"])
def test_harness_imports_resolve(script):
    names = _package_names(PERFBENCH / script)
    assert "fansheaf._linalg.KERNEL" in names
    if script == "setup_probe.py":
        assert {
            "fansheaf.complexes.complex_from_text",
            "fansheaf.fans.load_fan",
            "fansheaf.fans.subdivision_map",
        } <= set(names)
