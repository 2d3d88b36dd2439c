"""The benchmark's workloads: inputs made from a seed, the CLI commands of one
pass, the set-up a user pays before the first pass, and the output checks.

This module imports nothing from svealab at module level, so the set-up
probe can time that import itself.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"

# Relative amplitude perturbation for seeds other than 0.  Inside this band
# every physics check below still holds (case1 keeps three structures, the
# scan optimum stays near 4*alpha).
PERTURBATION = 0.01
MASS_DRIFT_LIMIT = 1e-12
SCAN_TOLERANCE = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, work dir) -> the CLI argv of each command in one pass
    commands: Callable[[int, Path], list[list[str]]]
    # byte-stable artifacts, relative to the output root; a name ending in
    # "/*.svea" stands for every snapshot in that directory
    artifacts: tuple[str, ...]
    # output root -> list of failed physics checks
    physics: Callable[[Path], list[str]]
    # CLI argv of the first command -> set-up a user pays before propagating
    setup: Callable[[list[str]], None]


def _amplitude(seed: int, base: float) -> float:
    """base at seed 0; otherwise base scaled by up to PERTURBATION either way."""
    if seed == 0:
        return base
    return base * (1.0 + PERTURBATION * random.Random(seed).uniform(-1.0, 1.0))


def _write_config(path: Path, sections: dict[str, dict[str, str]]) -> Path:
    parser = configparser.ConfigParser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    path.write_text(buf.getvalue())
    return path


def _shipped(name: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string((CONFIGS / name).read_text())
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _argv(command: str, work: Path, *rest: str) -> list[str]:
    return [command, "--output", str(work / "out"), "--jobs", "1", *rest]


# --- commands ----------------------------------------------------------------

def _bessel_commands(seed: int, work: Path) -> list[list[str]]:
    cfg = _write_config(work / "run-bessel.ini",
                        {"run": {"psi0": repr(_amplitude(seed, 15.0))}})
    return [_argv("run", work, "--preset", "case1", "--config", str(cfg))]


def _scan_commands(seed: int, work: Path) -> list[list[str]]:
    sections = _shipped("scan_short.ini")
    if seed:
        scan = sections["scan"]
        rng = random.Random(seed)
        for key in ("psi0_lo", "psi0_hi"):
            scan[key] = repr(float(scan[key]) * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0)))
    cfg = _write_config(work / "scan-short.ini", sections)
    return [_argv("scan", work, "--config", str(cfg))]


def _catalog_commands(seed: int, work: Path) -> list[list[str]]:
    # The catalog sweeps take no amplitude, so every seed runs the same input.
    return [_argv("verify", work, "--preset", "verify-all"),
            _argv("map-check", work, "--preset", "map-all")]


# --- physics checks ------------------------------------------------------------

def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _mass_drift(run_dir: Path) -> list[str]:
    masses = [float(r["mass"]) for r in _rows(run_dir / "diagnostics.csv")]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    if not drift < MASS_DRIFT_LIMIT:
        return [f"{run_dir.name}: mass drift {drift:.3e} >= {MASS_DRIFT_LIMIT:g}"]
    return []


def _analysis(run_dir: Path) -> dict[str, str]:
    text = (run_dir / "analysis.txt").read_text()
    return dict(line.split(": ", 1) for line in text.splitlines())


def _bessel_physics(out: Path) -> list[str]:
    run_dir = out / "run-case1"
    failures = _mass_drift(run_dir)
    count = _analysis(run_dir)["count_structures"]
    if count != "3":
        failures.append(f"run-case1: count_structures {count}, expected 3")
    return failures


def _scan_physics(out: Path) -> list[str]:
    failures = []
    for row in _rows(out / "scan" / "stability.csv"):
        alpha, psi0 = float(row["alpha"]), float(row["psi0_opt"])
        if not abs(psi0 - 4.0 * alpha) <= SCAN_TOLERANCE * 4.0 * alpha:
            failures.append(f"scan: alpha={alpha:g} psi0_opt={psi0!r} is not "
                            f"within {SCAN_TOLERANCE:.0%} of 4*alpha")
    return failures


def _report_failures(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    done, total = lines[-1].split()[0].split("/")
    failures = [f"{path.parent.name}: {line.split()[0]} FAIL"
                for line in lines[:-1] if not line.endswith(" PASS")]
    if done != total or int(total) != len(lines) - 1:
        failures.append(f"{path.parent.name}: summary {lines[-1]!r}")
    return failures


def _catalog_physics(out: Path) -> list[str]:
    return (_report_failures(out / "verify-verify-all" / "report.txt")
            + _report_failures(out / "map-check-map-all" / "report.txt"))


# --- set-up ----------------------------------------------------------------------

def _option(argv: list[str], flag: str):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _run_setup(argv: list[str]) -> None:
    from svealab.cli import load_settings
    from svealab.solver import Grid1D, sech_profile

    settings = load_settings(_option(argv, "--preset"), _option(argv, "--config"))
    grid = Grid1D(int(settings["grid"]["n"]), float(settings["grid"]["length"]))
    run = settings["run"]
    sech_profile(grid, float(run["psi0"]), float(run["alpha"]))


def _scan_setup(argv: list[str]) -> None:
    from svealab.analysis import ScanTemplate
    from svealab.cli import load_settings
    from svealab.models import ModelSpec
    from svealab.solver import sech_profile

    settings = load_settings(None, _option(argv, "--config"))
    scan = settings["scan"]
    template = ScanTemplate(ModelSpec.from_mapping(settings["model"]),
                            grid_n=int(scan["n"]), grid_length=float(scan["length"]))
    alpha = float(scan["alphas"].split(",")[0])
    sech_profile(template.grid_for(alpha), float(scan["psi0_lo"]), alpha)


def _catalog_setup(argv: list[str]) -> None:
    from svealab.cli import load_settings

    load_settings(_option(argv, "--preset"), None)


WORKLOADS = {w.name: w for w in (
    Workload(
        "run-bessel",
        "run --preset case1: Bessel kick at n=2048, 30000 steps; propagation is "
        "~99% of the pass, so a faster Strang step or J1 kick shows here",
        _bessel_commands,
        ("run-case1/diagnostics.csv", "run-case1/tracks.csv",
         "run-case1/analysis.txt", "run-case1/*.svea"),
        _bessel_physics, _run_setup),
    Workload(
        "scan-short",
        "short amplitude-width scan: many short propagations on a small grid, so "
        "per-step and per-propagation overhead dominate",
        _scan_commands,
        ("scan/stability.csv",),
        _scan_physics, _scan_setup),
    Workload(
        "catalog",
        "verify-all then map-all: only specfn, solutions and verify work; the "
        "solver is never called",
        _catalog_commands,
        ("verify-verify-all/report.txt", "map-check-map-all/report.txt"),
        _catalog_physics, _catalog_setup),
)}


def digests(out: Path, artifacts: tuple[str, ...]) -> dict[str, str]:
    """sha256 of each byte-stable artifact; a snapshot glob hashes every
    matching file's name and bytes, in name order, into one digest."""
    result = {}
    for rel in artifacts:
        h = hashlib.sha256()
        if rel.endswith("/*.svea"):
            files = sorted((out / rel[:-len("/*.svea")]).glob("*.svea"))
            if not files:
                raise FileNotFoundError(out / rel)
            for path in files:
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        else:
            h.update((out / rel).read_bytes())
        result[rel] = h.hexdigest()
    return result
