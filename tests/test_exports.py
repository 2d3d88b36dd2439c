"""Every name a module exports resolves, so a deleted name cannot linger in an
export list."""

import importlib
import pkgutil

import pytest

import svealab

# __main__ runs the command line on import.
MODULES = ["svealab"] + [f"svealab.{m.name}" for m in pkgutil.iter_modules(svealab.__path__)
                         if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
