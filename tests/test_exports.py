"""Every name the benchmark's tracer wraps still exists.  No module states an
export list: a name is public unless it starts with an underscore."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    # perfbench/tracing.py replaces each (module, name) of its POINTS in place,
    # so a rename here breaks a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [(module, name) for module, name, *_ in tracing.POINTS
            if not callable(getattr(importlib.import_module(module), name, None))] == []
