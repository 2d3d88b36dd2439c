"""Spans around the calls into each svealab module, installed from outside.

Each wrapper replaces a public name in the namespace of the module that
calls it (for example ``svealab.analysis.propagate``, which is what the scan
calls) and is removed again by ``Tracer.remove``.  Spans hold a name, start,
end, parent and pass id and stay in memory until ``Tracer.dump``.  Calls made
once per step or per snapshot are aggregated into a count and a sum instead
of a span each; the outermost of them still counts as covered in the
enclosing span, so self time = span time - time covered by its children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


def _steps(tracer, args, result, exc, dur):
    """Steps and snapshots from the trajectory, partial on divergence."""
    traj = result if exc is None else getattr(exc, "partial", None)
    if traj is not None:
        tracer.add("solver.steps", len(traj.mass_series) - 1)
        tracer.add("solver.snapshots", len(traj.snapshots))


def _cell(tracer, args, result, exc, dur):
    _steps(tracer, args, result, exc, dur)
    tracer.add("analysis.cells", 1)
    tracer.add("analysis.cell_s", dur)
    if exc is not None:
        tracer.add("analysis.cells_diverged", 1)


def _cell_metric(tracer, args, result, exc, dur):
    tracer.add("analysis.cell_s", dur)


def _bytes(tracer, args, result, exc, dur):
    tracer.add("fieldio.bytes_written", len(args[1]))


# (calling module, public name, span name, aggregate, hook)
POINTS = (
    ("svealab.cli", "load_settings", "cli.settings", False, None),
    ("svealab.cli", "propagate", "solver.propagate", False, _steps),
    ("svealab.analysis", "propagate", "solver.propagate", False, _cell),
    ("svealab.solver", "nls_nonlinear_phase_rate", "models.phase_rate", True, None),
    ("svealab.cli", "track_structures", "analysis", False, None),
    ("svealab.cli", "count_structures", "analysis", False, None),
    ("svealab.cli", "peak_count_series", "analysis", False, None),
    ("svealab.cli", "oscillation_metric", "analysis", False, None),
    ("svealab.cli", "scan_stability", "analysis.scan", False, None),
    ("svealab.analysis", "oscillation_metric", "analysis.cell_metric", False, _cell_metric),
    ("svealab.analysis", "find_peaks", "analysis.find_peaks", True, None),
    ("svealab.cli", "write_trajectory", "fieldio.write", False, None),
    ("svealab.cli", "write_track_csv", "fieldio.write", False, None),
    ("svealab.cli", "write_scan_csv", "fieldio.write", False, None),
    ("svealab.cli", "atomic_write_text", "fieldio.write", False, None),
    ("svealab.fieldio", "write_snapshot", "fieldio.write_snapshot", True, None),
    ("svealab.fieldio", "atomic_write_bytes", "fieldio.atomic_write_bytes", True, _bytes),
    ("svealab.cli", "verify_catalog", "verify.catalog", False, None),
    ("svealab.cli", "check_all_mappings", "verify.mapping", False, None),
    ("svealab.verify", "eval_solution", "solutions.eval", True, None),
    ("svealab.solutions", "jacobi_elliptic", "specfn.elliptic", True, None),
    ("svealab.solutions", "jacobi_dc", "specfn.elliptic", True, None),
)

# span record fields
_ID, _PARENT, _PASS, _NAME, _START, _END, _COVERED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: list[dict[str, float]] = []  # one dict per pass
        self.depth = 0  # aggregated calls in progress
        self._installed: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counters[-1][key] += value

    def _close(self, start: float) -> float:
        dur = _now() - start
        if self.stack and not self.depth:
            self.spans[self.stack[-1]][_COVERED] += dur
        return dur

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [len(self.spans), parent, len(self.counters) - 1, name, _now(), None, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[_ID])
        return rec

    def close(self, rec: list) -> float:
        self.stack.pop()
        rec[_END] = _now()
        return self._close(rec[_START])

    def begin_pass(self) -> None:
        self.counters.append(defaultdict(float))

    def _wrap(self, fn, name, aggregate, hook):
        tracer = self

        def traced(*args, **kwargs):
            result = exc = None
            if aggregate:
                tracer.depth += 1
                start = _now()
            else:
                rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                if aggregate:
                    tracer.depth -= 1
                    dur = tracer._close(start)
                    tracer.add(name + "_s", dur)
                    tracer.add(name + "_calls", 1)
                else:
                    dur = tracer.close(rec)
                if hook is not None:
                    hook(tracer, args, result, exc, dur)

        return traced

    def install(self) -> None:
        for module_name, attr, name, aggregate, hook in POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, aggregate, hook))

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # --- results -------------------------------------------------------------

    def pass_totals(self, pass_id: int) -> dict[str, float]:
        """Counters of one pass plus, per span name, total and self seconds."""
        out = defaultdict(float, self.counters[pass_id])
        for rec in self.spans:
            if rec[_PASS] != pass_id:
                continue
            dur = rec[_END] - rec[_START]
            out[rec[_NAME] + ".total_s"] += dur
            out[rec[_NAME] + ".self_s"] += dur - rec[_COVERED]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        fields = ("id", "parent", "pass", "name", "start", "end")
        doc = dict(extra,
                   spans=[dict(zip(fields, rec[:_COVERED])) for rec in self.spans],
                   passes=[dict(self.pass_totals(i)) for i in range(len(self.counters))])
        path.write_text(json.dumps(doc, indent=1) + "\n")
