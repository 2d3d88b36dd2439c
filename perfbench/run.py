"""svealab benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Passes of the workload run back to back through ``svealab.cli.main(argv)``
in this process, each starting after the previous one returned, with
``--jobs 1``.  Every pass's outputs are checked (exit codes, physics, byte
digests); a pass failing any check counts in ``failed``.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.

With ``--trace 1``, untraced and traced passes alternate; the traced ones
run with wrappers from ``tracing.py`` on svealab's public functions, then the
microbenchmarks in ``micro.py`` run.  The spans go to
``perfbench/_out/trace-<workload>-seed<n>.json``.

Two maintenance modes:

    python3 perfbench/run.py --write-spec      # rewrite BENCHMARK.json
    python3 perfbench/run.py --record-digests  # rewrite digests.json (seed 0)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import Speedometer
from workloads import WORKLOADS, digests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work" / str(os.getpid())
OUT = HERE / "_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 3

# (name, unit, better, bound): what a user of svealab waits for.  Pass
# times are scaled to uncontended speed (speed.py); set-up is raw wall time.
# The bounds are wide because this shared 2-core machine stays noisy even
# after scaling; README.md gives the measured spreads.
END_TO_END = (
    ("pass_s", "s", "lower", 0.25),
    ("pass_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SIZES = (256, 1024, 2048, 4096)
# (name, unit); every per-layer metric is better when lower
PER_LAYER = (
    ("solver.propagate_s", "s"), ("solver.steps", "count"), ("solver.step_us", "us"),
    *((f"solver.step_us.n{n}", "us") for n in _SIZES),
    *((f"solver.fft_floor_us.n{n}", "us") for n in _SIZES),
    ("models.phase_rate_s", "s"), ("models.phase_rate_calls", "count"),
    *((f"models.phase_rate_us.{f}.n{n}", "us") for f in ("bessel", "cubic") for n in _SIZES),
    *((f"specfn.j1_us.n{n}", "us") for n in _SIZES),
    ("specfn.elliptic_s", "s"),
    ("analysis.s", "s"), ("analysis.find_peaks_calls", "count"),
    ("analysis.find_peaks_per_snapshot", "ratio"), ("analysis.find_peaks_us.n4096", "us"),
    ("analysis.cells", "count"), ("analysis.cell_s", "s"), ("analysis.cells_diverged", "count"),
    ("fieldio.write_s", "s"), ("fieldio.snapshots", "count"),
    ("fieldio.bytes_written", "bytes"), ("fieldio.write_snapshot_us.n4096", "us"),
    ("solutions.eval_s", "s"), ("solutions.eval_calls", "count"),
    ("verify.catalog_s", "s"), ("verify.mapping_s", "s"),
    ("cli.settings_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


# --- one pass ------------------------------------------------------------------

class Runner:
    """Runs passes of one workload and checks each pass's outputs."""

    def __init__(self, workload, seed: int):
        from svealab.cli import main

        self.cli_main = main
        self.workload = workload
        self.out = WORK / "out"
        self.commands = workload.commands(seed, WORK)
        self.expected = None
        self.first = None
        self.reported = False
        facts = machine()
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if seed == 0 and workload.name in recorded.get("workloads", {}):
            if (recorded["numpy"], recorded["scipy"]) == (facts["numpy"], facts["scipy"]):
                self.expected = recorded["workloads"][workload.name]
            else:
                print(f"digests recorded with numpy {recorded['numpy']} scipy "
                      f"{recorded['scipy']}; skipping the digest check", file=sys.stderr)

    def run(self, tracer=None) -> tuple[float, list, str]:
        """One pass: (wall seconds, exit code per command, captured output).
        self.span is set to the pass's first start and last end."""
        shutil.rmtree(self.out, ignore_errors=True)
        captured = io.StringIO()
        codes = []
        wall = 0.0
        first = None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for argv in self.commands:
                rec = tracer.open("cli.main") if tracer else None
                start = time.perf_counter()
                first = first or start
                try:
                    codes.append(self.cli_main(argv))
                except Exception:  # a traceback is a failed pass, not a crash
                    codes.append(None)
                    traceback.print_exc()
                finally:
                    wall += time.perf_counter() - start
                    if tracer:
                        tracer.close(rec)
        self.span = (first, time.perf_counter())
        return wall, codes, captured.getvalue()

    def check(self, codes: list[int], captured: str) -> list[str]:
        failures = [f"exit code {c} from {argv[0]}"
                    for c, argv in zip(codes, self.commands) if c != 0]
        if not failures:
            try:
                got = digests(self.out, self.workload.artifacts)
                failures += self.workload.physics(self.out)
            except (OSError, ValueError, KeyError, IndexError) as err:
                return [f"unreadable output: {err!r}"]
            self.first = self.first or got
            for reference, what in ((self.expected, "recorded"), (self.first, "first-pass")):
                if reference is not None:
                    failures += [f"{rel}: sha256 differs from the {what} digest"
                                 for rel in reference if got.get(rel) != reference[rel]]
        if failures and not self.reported:  # details of the first failed pass only
            self.reported = True
            print("\n".join(failures) + "\n" + captured[-2000:], file=sys.stderr)
        return failures


# --- measurement -----------------------------------------------------------------

def setup_seconds(workload, commands) -> float:
    """Median over fresh interpreters of the set-up a user pays."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
            workload.name, json.dumps(commands[0])]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times)


def measure(runner, seconds: float) -> tuple[dict, int, int]:
    setup = setup_seconds(runner.workload, runner.commands)
    spans, failed = [], 0
    with Speedometer() as speedometer:
        end = time.perf_counter() + seconds
        while not spans or time.perf_counter() < end:
            wall, codes, captured = runner.run()
            spans.append((*runner.span, wall))
            failed += bool(runner.check(codes, captured))
    walls = [w for _, _, w in spans]
    passes = [(w - speedometer.probe_seconds(s, e)) * speedometer.factor(s, e)
              for s, e, w in spans]
    p90 = (statistics.quantiles(passes, n=10, method="inclusive")[8]
           if len(passes) > 1 else passes[0])
    values = {
        "pass_s": statistics.median(passes),
        "pass_ms_p90": p90 * 1e3,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{runner.workload.name}: {len(walls)} passes, raw wall_s median "
          f"{statistics.median(walls):.4f} min {min(walls):.4f} "
          f"max {max(walls):.4f}, {len(speedometer.samples)} speed probes")
    metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    return metrics, len(walls), failed


def _layers(t: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its counters and span totals."""
    steps, snaps = t["solver.steps"], t["solver.snapshots"]
    propagate_s = t["solver.propagate.total_s"]
    return {
        "solver.propagate_s": propagate_s,
        "solver.steps": steps,
        "solver.step_us": propagate_s / steps * 1e6 if steps else 0.0,
        "models.phase_rate_s": t["models.phase_rate_s"],
        "models.phase_rate_calls": t["models.phase_rate_calls"],
        "specfn.elliptic_s": t["specfn.elliptic_s"],
        "analysis.s": t["analysis.total_s"],
        "analysis.find_peaks_calls": t["analysis.find_peaks_calls"],
        "analysis.find_peaks_per_snapshot":
            t["analysis.find_peaks_calls"] / snaps if snaps else 0.0,
        "analysis.cells": t["analysis.cells"],
        "analysis.cell_s": t["analysis.cell_s"],
        "analysis.cells_diverged": t["analysis.cells_diverged"],
        "fieldio.write_s": t["fieldio.write.total_s"],
        "fieldio.snapshots": t["fieldio.write_snapshot_calls"],
        "fieldio.bytes_written": t["fieldio.bytes_written"],
        "solutions.eval_s": t["solutions.eval_s"],
        "solutions.eval_calls": t["solutions.eval_calls"],
        "verify.catalog_s": t["verify.catalog.total_s"],
        "verify.mapping_s": t["verify.mapping.total_s"],
        "cli.settings_s": t["cli.settings.total_s"],
        "cli.self_s": t["cli.main.self_s"],
    }


def measure_traced(runner, seconds: float, seed: int) -> tuple[dict, int, int]:
    import micro
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, layers, failed = [], [], [], 0
    end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < end:
        wall, codes, captured = runner.run()
        plain.append(wall)
        failed += bool(runner.check(codes, captured))
        tracer.begin_pass()
        tracer.install()
        try:
            wall, codes, captured = runner.run(tracer)
        finally:
            tracer.remove()
        traced.append(wall)
        layers.append(_layers(tracer.pass_totals(len(tracer.counters) - 1)))
        failed += bool(runner.check(codes, captured))
    values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values.update(micro.run(WORK))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{runner.workload.name}-seed{seed}.json",
                {"workload": runner.workload.name, "seed": seed, "machine": machine(),
                 "untraced_wall_s": plain, "traced_wall_s": traced, "metrics": values})
    print(f"{runner.workload.name}: {len(plain)} untraced and {len(traced)} traced passes")
    return ({n: {"value": values[n], "unit": u} for n, u in PER_LAYER},
            len(plain) + len(traced), failed)


def record_digests() -> int:
    """Run each workload once at seed 0 and store its artifact digests."""
    recorded = dict(machine(), workloads={})
    for workload in WORKLOADS.values():
        WORK.mkdir(parents=True, exist_ok=True)
        runner = Runner(workload, 0)
        runner.expected = None
        _, codes, captured = runner.run()
        if runner.check(codes, captured):
            return 1
        recorded["workloads"][workload.name] = runner.first
        shutil.rmtree(WORK)
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0

    src = ROOT / "src"
    if not (src / "svealab" / "__init__.py").is_file():
        print(f"no svealab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import svealab

    if Path(svealab.__file__).resolve().parent != (src / "svealab").resolve():
        print(f"imported svealab from {svealab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        runner = Runner(WORKLOADS[args.workload], args.seed)
        print("machine: " + json.dumps(machine()))
        if args.trace:
            metrics, attempted, failed = measure_traced(runner, args.seconds, args.seed)
        else:
            metrics, attempted, failed = measure(runner, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
