"""Command-line interface: verification sweeps, mapping checks, propagation
runs, and stability scans.

Subcommands: verify, map-check, run, scan.  Settings flow preset -> config
file -> command-line flags, later sources winning.  Config files are INI
sections (model, grid, run, analysis, scan, verify, map) holding flat
key=value pairs; an unknown section or key is a config error.  Exit codes:
0 all checks passed, 1 checks failed, 2 usage or config error, 3 numerical
divergence.

Outputs land under --output, else $SVEA_LAB_OUTPUT, else ./artifacts, in a
per-command directory.  Every artifact directory gets a manifest sufficient
to re-run the command; all runs are deterministic (no randomness anywhere),
so a rerun reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import (DEFAULT_MIN_SEPARATION, DEFAULT_WINDOW_FRACTION,
                       ScanTemplate, count_structures, detection_threshold,
                       oscillation_metric, peak_count_series, scan_stability,
                       splitting_alternations, track_structures)
from .errors import ConfigError, DivergenceError, DomainError, PoleError
from .models import ModelSpec
from .fieldio import (atomic_write_text, write_scan_csv, write_track_csv,
                      write_trajectory)
from .solutions import SolutionId, make_solution
from .solver import (Grid1D, RunConfig, catalog_profile, propagate,
                     sech_profile, supergaussian_profile, uniform_profile)
from .verify import (check_all_mappings, mapping_report, verification_report,
                     verify_catalog, DEFAULT_TOLERANCE, MAPPING_TOLERANCE)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3

_DETERMINISM_NOTE = "seed-free: no randomness anywhere; identical config reproduces outputs byte for byte"

PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "case1": {
        "model": {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"},
        "grid": {"n": "2048", "length": "80.0"},
        "run": {"initial": "sech", "psi0": "15.0", "alpha": "1.0",
                "dt": "1e-3", "t_final": "30.0", "snapshot_stride": "150"},
    },
    "case2": {
        "model": {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"},
        "grid": {"n": "2048", "length": "80.0"},
        "run": {"initial": "sech", "psi0": "22.0", "alpha": "1.0",
                "dt": "1e-3", "t_final": "60.0", "snapshot_stride": "100"},
        # wider merge radius: the five structures sit >= 8 apart by late
        # times, while the standing one carries sub-3-unit breathing lobes
        "analysis": {"min_separation": "3.0"},
    },
    "case3": {
        "model": {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"},
        "grid": {"n": "2048", "length": "80.0"},
        "run": {"initial": "sech", "psi0": "0.4", "alpha": "0.1",
                "dt": "2e-3", "t_final": "200.0", "snapshot_stride": "500"},
    },
    "case4": {
        "model": {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"},
        "grid": {"n": "4096", "length": "120.0"},
        "run": {"initial": "supergaussian", "psi0": "10.0", "width": "10.0",
                "order": "40", "dt": "1e-3", "t_final": "60.0",
                "snapshot_stride": "100"},
        # count only major filaments: the split/recombine cycle lives in the
        # top quarter of the intensity range at multi-unit spacing
        "analysis": {"threshold_fraction": "0.25", "min_separation": "5.0"},
    },
    "uniform3": {
        "model": {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"},
        "grid": {"n": "256", "length": "40.0"},
        "run": {"initial": "uniform", "psi0": "3.0", "dt": "1e-3",
                "t_final": "5.0", "snapshot_stride": "500"},
    },
    "scan-stable-line": {
        "model": {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"},
        "scan": {"alphas": "0.05, 0.1, 0.15", "psi0_lo": "0.1",
                 "psi0_hi": "1.1", "psi0_samples": "9", "n": "1024",
                 "length": "80.0", "dt": "2e-3", "t_final": "90.0",
                 "snapshot_stride": "500", "refine_iters": "6"},
    },
    "verify-all": {
        "verify": {"tolerance": "1e-6", "n_points": "2001"},
    },
    "map-all": {
        "map": {"tolerance": "1e-10", "t_samples": "0, 1, 10",
                "n_points": "801"},
    },
}


# The keys each config section accepts; [model] is checked by ModelSpec.from_mapping.
SECTION_KEYS: dict[str, Optional[frozenset[str]]] = {
    "model": None,
    "grid": frozenset({"n", "length"}),
    "run": frozenset({"initial", "psi0", "alpha", "width", "order", "catalog_id",
                      "dt", "t_final", "snapshot_stride"}),
    "analysis": frozenset({"threshold", "threshold_fraction", "min_separation", "window"}),
    "scan": frozenset({"alphas", "psi0_lo", "psi0_hi", "psi0_samples", "n", "length",
                       "dt", "t_final", "snapshot_stride", "refine_iters"}),
    "verify": frozenset({"tolerance", "n_points"}),
    "map": frozenset({"tolerance", "t_samples", "n_points"}),
}


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str
    output_dir: str
    jobs: int
    threshold: Optional[float]
    detune: Optional[float]
    settings: dict
    determinism: str
    version: str
    duration_s: float

    def to_text(self) -> str:
        return (
            f"command: {self.command}\n"
            f"config: {self.config_path}\n"
            f"output_dir: {self.output_dir}\n"
            f"jobs: {self.jobs}\n"
            f"threshold: {self.threshold!r}\n"
            f"detune: {self.detune!r}\n"
            f"determinism: {self.determinism}\n"
            f"version: {self.version}\n"
            f"duration_s: {self.duration_s:.3f}\n"
            "settings (preset -> config -> flags):\n"
            + "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in kv.items())
                      for section, kv in self.settings.items())
        )


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for sect, kv in extra.items():
        out.setdefault(sect, {}).update(kv)
    return out


def load_settings(preset: Optional[str], config_path: Optional[str]) -> dict:
    settings: dict[str, dict[str, str]] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        settings = _merge(settings, PRESETS[preset])
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(path.read_text())
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {config_path}: {err}") from err
        file_settings = {s: dict(parser.items(s)) for s in parser.sections()}
        settings = _merge(settings, file_settings)
    for section, values in settings.items():
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"expected one of {', '.join(SECTION_KEYS)}")
        allowed = SECTION_KEYS[section]
        unknown = sorted(set(values) - allowed) if allowed is not None else []
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)} in [{section}]; "
                              f"expected {', '.join(sorted(allowed))}")
    return settings


def _get(settings: dict, section: str, key: str, cast, default):
    raw = settings.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        if cast is bool:
            low = str(raw).strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from err


def _model_from(settings: dict) -> ModelSpec:
    section = dict(settings.get("model", {}))
    if "family" not in section:
        raise ConfigError("config needs [model] family")
    try:
        return ModelSpec.from_mapping(section)
    except (DomainError, KeyError, ValueError) as err:
        raise ConfigError(f"bad [model] section: {err}") from err


def _grid_from(settings: dict) -> Grid1D:
    n = _get(settings, "grid", "n", int, 2048)
    length = _get(settings, "grid", "length", float, 80.0)
    try:
        return Grid1D(n, length)
    except DomainError as err:
        raise ConfigError(str(err)) from err


def _initial_from(settings: dict, grid: Grid1D):
    kind = _get(settings, "run", "initial", str, None)
    if kind is None:
        raise ConfigError("config needs [run] initial = sech|supergaussian|uniform|catalog")
    kind = kind.strip().lower()
    psi0 = _get(settings, "run", "psi0", float, 1.0)
    if kind == "sech":
        return sech_profile(grid, psi0, _get(settings, "run", "alpha", float, 1.0))
    if kind == "supergaussian":
        return supergaussian_profile(grid, psi0,
                                     _get(settings, "run", "width", float, 10.0),
                                     _get(settings, "run", "order", int, 40))
    if kind == "uniform":
        return uniform_profile(grid, psi0)
    if kind == "catalog":
        name = _get(settings, "run", "catalog_id", str, None)
        if name is None:
            raise ConfigError("[run] initial = catalog needs catalog_id")
        try:
            sol = make_solution(SolutionId(name.strip().upper()))
        except (ValueError, DomainError) as err:
            raise ConfigError(f"bad catalog_id {name!r}: {err}") from err
        return catalog_profile(grid, sol)
    raise ConfigError(f"unknown initial condition kind {kind!r}")


def _output_dir(args, command: str) -> Path:
    root = args.output or os.environ.get("SVEA_LAB_OUTPUT") or "artifacts"
    name = f"{command}-{args.preset}" if args.preset else command
    out = Path(root) / name
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory not writable: {out}")
    return out


def _with_threshold(settings: dict, section: str, args) -> dict:
    """The settings with --threshold, if given, as the section's tolerance."""
    if args.threshold is None:
        return settings
    return _merge(settings, {section: {"tolerance": repr(args.threshold)}})


def _write_manifest(out: Path, command: str, args, t_start: float, settings: dict) -> None:
    manifest = RunManifest(
        command=command,
        config_path=args.config or (f"preset:{args.preset}" if args.preset else "(defaults)"),
        output_dir=str(out),
        jobs=args.jobs,
        threshold=args.threshold,
        detune=args.detune,
        settings=settings,
        determinism=_DETERMINISM_NOTE,
        version=__version__,
        duration_s=time.monotonic() - t_start,
    )
    atomic_write_text(out / "manifest.txt", manifest.to_text())


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    settings = _with_threshold(load_settings(args.preset, args.config), "verify", args)
    out = _output_dir(args, "verify")
    tolerance = _get(settings, "verify", "tolerance", float, DEFAULT_TOLERANCE)
    n_points = _get(settings, "verify", "n_points", int, 2001)
    reports = verify_catalog(tolerance=tolerance, n_points=n_points)
    text = verification_report(reports)
    atomic_write_text(out / "report.txt", text + "\n")
    print(text)
    _write_manifest(out, "verify", args, t0, settings)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECKS_FAILED


def cmd_map_check(args) -> int:
    t0 = time.monotonic()
    settings = _with_threshold(load_settings(args.preset, args.config), "map", args)
    out = _output_dir(args, "map-check")
    tolerance = _get(settings, "map", "tolerance", float, MAPPING_TOLERANCE)
    n_points = _get(settings, "map", "n_points", int, 801)
    t_samples_raw = _get(settings, "map", "t_samples", str, "0, 1, 10")
    try:
        t_samples = tuple(float(v) for v in t_samples_raw.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"bad [map] t_samples: {t_samples_raw!r}") from err
    if not t_samples:
        raise ConfigError("[map] t_samples is empty")
    detune = args.detune or 0.0
    checks = check_all_mappings(n_points=n_points, t_samples=t_samples, detune=detune)
    text = mapping_report(checks, tolerance)
    atomic_write_text(out / "report.txt", text + "\n")
    print(text)
    _write_manifest(out, "map-check", args, t0, settings)
    ok = all(c.max_abs_diff < tolerance for c in checks)
    return EXIT_OK if ok else EXIT_CHECKS_FAILED


def cmd_run(args) -> int:
    t0 = time.monotonic()
    settings = load_settings(args.preset, args.config)
    out = _output_dir(args, "run")
    model = _model_from(settings)
    grid = _grid_from(settings)
    initial = _initial_from(settings, grid)
    cfg = RunConfig(
        model=model,
        dt=_get(settings, "run", "dt", float, 1e-3),
        t_final=_get(settings, "run", "t_final", float, 30.0),
        snapshot_stride=_get(settings, "run", "snapshot_stride", int, 100),
    )
    code = EXIT_OK
    try:
        traj = propagate(initial, cfg)
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        traj = err.partial
        code = EXIT_DIVERGED
    if traj is not None and traj.snapshots:
        write_trajectory(out, traj, cfg.dt)
        threshold = _get(settings, "analysis", "threshold", float, None)
        if threshold is None:
            frac = _get(settings, "analysis", "threshold_fraction", float, None)
            if frac is not None:
                threshold = detection_threshold(traj, frac)
        min_sep = _get(settings, "analysis", "min_separation", float,
                       DEFAULT_MIN_SEPARATION)
        window = _get(settings, "analysis", "window", float,
                      DEFAULT_WINDOW_FRACTION)
        tracks = track_structures(traj, window=1.0, threshold=threshold,
                                  min_separation=min_sep)
        write_track_csv(out / "tracks.csv", tracks)
        count = count_structures(traj, window, threshold, min_sep)
        series = [c for _, c in peak_count_series(traj, threshold, min_sep)]
        alternations = splitting_alternations(series)
        summary = (
            f"count_structures: {count}\n"
            f"splitting_alternations: {alternations}\n"
            f"oscillation_metric: {oscillation_metric(traj, window, threshold, min_sep):.6g}\n"
            f"window_fraction: {window:g}\n"
            f"min_separation: {min_sep:g}\n"
            f"threshold: {'default' if threshold is None else format(threshold, 'g')}\n"
        )
        atomic_write_text(out / "analysis.txt", summary)
        print(f"{len(traj.snapshots)} snapshots, {len(tracks)} peak tracks, "
              f"count_structures {count} -> {out}")
    _write_manifest(out, "run", args, t0, settings)
    return code


def cmd_scan(args) -> int:
    t0 = time.monotonic()
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    settings = load_settings(args.preset, args.config)
    out = _output_dir(args, "scan")
    model = _model_from(settings) if "model" in settings else None
    if model is None:
        raise ConfigError("scan needs a [model] section (or a preset providing one)")
    alphas_raw = _get(settings, "scan", "alphas", str, "")
    try:
        alphas = tuple(float(v) for v in alphas_raw.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"bad [scan] alphas: {alphas_raw!r}") from err
    if not alphas:
        raise ConfigError("scan needs a non-empty [scan] alphas list")
    template = ScanTemplate(
        model=model,
        grid_n=_get(settings, "scan", "n", int, 1024),
        grid_length=_get(settings, "scan", "length", float, 80.0),
        dt=_get(settings, "scan", "dt", float, 2e-3),
        t_final=_get(settings, "scan", "t_final", float, 90.0),
        snapshot_stride=_get(settings, "scan", "snapshot_stride", int, 500),
    )
    points = scan_stability(
        alphas,
        (_get(settings, "scan", "psi0_lo", float, 0.1),
         _get(settings, "scan", "psi0_hi", float, 1.1),
         _get(settings, "scan", "psi0_samples", int, 9)),
        template,
        jobs=args.jobs,
        refine_iters=_get(settings, "scan", "refine_iters", int, 6),
    )
    write_scan_csv(out / "stability.csv", points)
    for p in points:
        note = f"  [{p.flags}]" if p.flags else ""
        print(f"alpha={p.alpha:g} psi0_opt={p.psi0_opt:.4f} metric={p.metric_value:.4f}{note}")
    _write_manifest(out, "scan", args, t0, settings)
    if any(p.psi0_opt != p.psi0_opt for p in points):  # NaN: every cell diverged
        return EXIT_DIVERGED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svealab",
        description="Envelope-reduction laboratory: catalog verification, "
                    "quench-mapping checks, split-step propagation, stability scans.")
    parser.add_argument("--version", action="version", version=f"svealab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("map-check", cmd_map_check),
                     ("run", cmd_run), ("scan", cmd_scan)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
        p.add_argument("--output", help="output root (default $SVEA_LAB_OUTPUT or ./artifacts)")
        p.add_argument("--jobs", type=int, default=1,
                       help="scans: split each batch of cells into at most this many processes")
        p.add_argument("--threshold", type=float, default=None,
                       help="pass/fail tolerance override")
        p.add_argument("--detune", type=float, default=None,
                       help="mapping diagnostic: shift the quench parameter")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, PoleError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
