"""The traced benchmark looks up hypergcn functions by name; a refactor
that renames or hides one would break it silently."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
