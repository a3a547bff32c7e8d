"""The traced benchmark looks up hypergcn functions by name; a refactor
that renames or hides one would break it silently."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = load_tracing()
NAMES = sorted(
    {f"{layer}.{name}" for layer, names in tracing.REPORTED.items() for name in names}
    | set(tracing.MEMORY_PROBED)
)


@pytest.mark.parametrize("qualified", NAMES)
def test_traced_name_is_public_function(qualified):
    layer, name = qualified.split(".")
    assert layer in tracing.LAYERS
    mod = importlib.import_module(f"hypergcn.{layer}")
    obj = getattr(mod, name, None)
    assert inspect.isfunction(obj), f"{qualified} is not a function"
    assert obj.__module__ == mod.__name__, f"{qualified} is defined in {obj.__module__}"
    assert not name.startswith("_")


def wrapper_sites():
    """(module, attribute) pairs in `sites` of bench/selftest.py's
    check_wrappers, with module aliases resolved by its imports."""
    tree = ast.parse((BENCH / "selftest.py").read_text())
    fn = next(node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "check_wrappers")
    modules = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            modules.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    sites = next(node.value for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["sites"])
    return [(modules[mod.id], attr.value) for mod, attr in (e.elts for e in sites.elts)]


SITES = wrapper_sites()


def test_selftest_checks_wrapper_sites():
    assert len(SITES) >= 10


@pytest.mark.parametrize("module,attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_selftest_wrapper_site_exists(module, attr):
    assert inspect.isfunction(getattr(importlib.import_module(module), attr, None)), \
        f"bench/selftest.py wraps {module}.{attr}, which is not a function"
