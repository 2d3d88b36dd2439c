"""Every name a module exports resolves, so a deleted name cannot linger in an
export list, and every name the benchmark's tracer wraps still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import svealab

# __main__ runs the command line on import.
MODULES = ["svealab"] + [f"svealab.{m.name}" for m in pkgutil.iter_modules(svealab.__path__)
                         if m.name != "__main__"]

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_traced_name_resolves():
    # perfbench/tracing.py replaces each (module, name) of its POINTS in place,
    # so a rename here breaks a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [(module, name) for module, name, *_ in tracing.POINTS
            if not callable(getattr(importlib.import_module(module), name, None))] == []
