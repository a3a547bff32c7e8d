"""The traced benchmark looks up hypergcn functions and attributes by
name; a refactor that renames or hides one would break it silently."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
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


def test_attributes_read_by_bench():
    # workloads.py reads n, m and edge_sizes(); tracing.py reads the
    # pair count of an expansion and the matrix of an adjacency
    from hypergcn import Hypergraph, expand_clique, normalize

    h = Hypergraph.from_edges(4, [(0, 1, 2), (2, 3)])
    assert (h.n, h.m) == (4, 2)
    sizes = h.edge_sizes()
    assert isinstance(sizes, np.ndarray) and sizes.dtype.kind == "i"
    assert sizes.tolist() == [3, 2]
    g = expand_clique(h)
    assert g.pair_count == 4
    matrix = normalize(g).matrix
    assert matrix.format == "csr" and matrix.nnz == 4 + 2 * g.pair_count
