"""Command-line interface: verification sweeps, mapping checks, propagation
runs, and stability scans.

Subcommands: verify, map-check, run, scan.  Settings flow preset -> config
file -> command-line flags, later sources winning.  Config files are INI
sections (model, grid, run, analysis, scan, verify, map) holding flat
key=value pairs; an unknown key (in [model], one the family's law does not
read), a section the command does not read, or a file that is not UTF-8, is
a config error.  Exit codes:
0 all checks passed, 1 checks failed, 2 usage or config error, 3 numerical
divergence.

main runs the steps every command shares, once: load the settings, merge
--threshold as the command's tolerance, make the output directory, run the
command body cmd_*(args, settings, out) -> exit code, write the manifest.
verify and map-check exit by the passed flag each check carries.

Outputs land under --output, else $SVEA_LAB_OUTPUT, else ./artifacts, in a
per-command directory.  Every artifact directory gets a manifest sufficient
to re-run the command; all runs are deterministic (no randomness anywhere),
so a rerun reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import (DEFAULT_MIN_SEPARATION, DEFAULT_WINDOW_FRACTION,
                       ScanTemplate, count_structures, detection_threshold,
                       oscillation_metric, peak_count_series, peak_table,
                       require_threshold, require_threshold_fraction, require_window,
                       scan_stability, splitting_alternations, track_structures)
from .errors import ConfigError, DivergenceError, DomainError, PoleError, require_positive
from .models import ModelSpec
from .fieldio import (atomic_write_text, write_scan_csv, write_track_csv,
                      write_trajectory)
from .solutions import SolutionId, make_solution
from .solver import (Grid1D, RunConfig, catalog_profile, propagate,
                     sech_profile, supergaussian_profile, uniform_profile)
from .verify import check_all_mappings, mapping_report, verification_report, verify_catalog

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


# The keys each config section accepts.  [model] is checked whole by
# ModelSpec.from_mapping: family, lambda and the couplings of the family's law.
SECTION_KEYS: dict[str, frozenset[str]] = {
    "grid": frozenset({"n", "length"}),
    "run": frozenset({"initial", "psi0", "alpha", "width", "order", "catalog_id",
                      "dt", "t_final", "snapshot_stride"}),
    "analysis": frozenset({"threshold", "threshold_fraction", "min_separation", "window"}),
    "scan": frozenset({"alphas", "psi0_lo", "psi0_hi", "psi0_samples", "n", "length",
                       "dt", "t_final", "snapshot_stride", "refine_iters"}),
    "verify": frozenset({"tolerance", "n_points"}),
    "map": frozenset({"tolerance", "t_samples", "n_points"}),
}

# The config sections each command reads.
COMMAND_SECTIONS: dict[str, tuple[str, ...]] = {
    "run": ("model", "grid", "run", "analysis"),
    "scan": ("model", "scan"),
    "verify": ("verify",),
    "map-check": ("map",),
}


def _merge(base: dict, extra: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for sect, kv in extra.items():
        out.setdefault(sect, {}).update(kv)
    return out


def load_settings(preset: Optional[str], config_path: Optional[str],
                  command: Optional[str] = None) -> dict:
    """The merged preset and config sections, each checked; given a command,
    a section it does not read is a ConfigError too."""
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
            parser.read_string(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError as err:
            raise ConfigError(f"cannot read {config_path}: not UTF-8 ({err})") from err
        except configparser.Error as err:
            raise ConfigError(f"cannot parse {config_path}: {err}") from err
        file_settings = {s: dict(parser.items(s)) for s in parser.sections()}
        settings = _merge(settings, file_settings)
    for section, values in settings.items():
        if command is not None and section not in COMMAND_SECTIONS[command]:
            raise ConfigError(f"{command} does not read [{section}]; it reads "
                              f"{', '.join(f'[{s}]' for s in COMMAND_SECTIONS[command])}")
        if section == "model":
            _model_from(settings)
            continue
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"expected one of model, {', '.join(SECTION_KEYS)}")
        unknown = sorted(set(values) - SECTION_KEYS[section])
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)} in [{section}]; "
                              f"expected {', '.join(sorted(SECTION_KEYS[section]))}")
    return settings


def _get(settings: dict, section: str, key: str, cast, default):
    raw = settings.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from err


def _given(**values) -> dict:
    """The keyword arguments that are not None.  Settings read with default
    None thus pass only the keys a config sets; the callee's own defaults
    cover the rest."""
    return {name: value for name, value in values.items() if value is not None}


def _floats(raw: str, name: str) -> tuple[float, ...]:
    """A comma-separated list of finite numbers, non-empty."""
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as err:
        raise ConfigError(f"bad {name}: {raw!r}") from err
    if not values:
        raise ConfigError(f"{name} is empty")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    return values


def _model_from(settings: dict) -> ModelSpec:
    try:
        return ModelSpec.from_mapping(settings.get("model", {}))
    except ValueError as err:  # DomainError is one
        raise ConfigError(f"bad [model] section: {err}") from err


def _grid_from(settings: dict) -> Grid1D:
    n = _get(settings, "grid", "n", int, 2048)
    length = _get(settings, "grid", "length", float, 80.0)
    try:
        return Grid1D(n, length)
    except DomainError as err:
        raise ConfigError(str(err)) from err


def _run_config(settings: dict) -> RunConfig:
    return RunConfig(_model_from(settings), **_given(
        dt=_get(settings, "run", "dt", float, None),
        t_final=_get(settings, "run", "t_final", float, None),
        snapshot_stride=_get(settings, "run", "snapshot_stride", int, None)))


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


def _output_dir(args) -> Path:
    root = args.output or os.environ.get("SVEA_LAB_OUTPUT") or "artifacts"
    name = f"{args.command}-{args.preset}" if args.preset else args.command
    out = Path(root) / name
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise ConfigError(f"output directory not writable: {out}")
    return out


def _write_manifest(out: Path, args, t_start: float, settings: dict) -> None:
    config = args.config or (f"preset:{args.preset}" if args.preset else "(defaults)")
    atomic_write_text(out / "manifest.txt", (
        f"command: {args.command}\n"
        f"config: {config}\n"
        f"output_dir: {out}\n"
        f"jobs: {args.jobs}\n"
        f"threshold: {args.threshold!r}\n"
        f"detune: {args.detune!r}\n"
        f"determinism: {_DETERMINISM_NOTE}\n"
        f"version: {__version__}\n"
        f"duration_s: {time.monotonic() - t_start:.3f}\n"
        "settings (preset -> config -> flags):\n"
        + "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in kv.items())
                  for section, kv in settings.items())))


def _checks_exit(out: Path, text: str, checks) -> int:
    """Write and print the report; exit by the verdict each check carries."""
    atomic_write_text(out / "report.txt", text + "\n")
    print(text)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECKS_FAILED


def cmd_verify(args, settings: dict, out: Path) -> int:
    reports = verify_catalog(**_given(
        tolerance=_get(settings, "verify", "tolerance", float, None),
        n_points=_get(settings, "verify", "n_points", int, None)))
    return _checks_exit(out, verification_report(reports), reports)


def cmd_map_check(args, settings: dict, out: Path) -> int:
    t_samples = _get(settings, "map", "t_samples", str, None)
    checks = check_all_mappings(detune=args.detune or 0.0, **_given(
        tolerance=_get(settings, "map", "tolerance", float, None),
        n_points=_get(settings, "map", "n_points", int, None),
        t_samples=None if t_samples is None else _floats(t_samples, "[map] t_samples")))
    return _checks_exit(out, mapping_report(checks), checks)


def cmd_run(args, settings: dict, out: Path) -> int:
    cfg = _run_config(settings)
    initial = _initial_from(settings, _grid_from(settings))
    threshold = _get(settings, "analysis", "threshold", float, None)
    frac = _get(settings, "analysis", "threshold_fraction", float, None)
    min_sep = _get(settings, "analysis", "min_separation", float, DEFAULT_MIN_SEPARATION)
    window = _get(settings, "analysis", "window", float, DEFAULT_WINDOW_FRACTION)
    # checked by the rules analysis applies, before the propagation they follow
    for key, value, rule in (("threshold", threshold, require_threshold),
                             ("threshold_fraction", frac, require_threshold_fraction),
                             ("min_separation", min_sep, require_positive),
                             ("window", window, require_window)):
        if value is not None:
            rule(f"[analysis] {key}", value)
    code = EXIT_OK
    try:
        traj = propagate(initial, cfg)
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        traj = err.partial
        code = EXIT_DIVERGED
    if traj is not None and traj.snapshots:
        write_trajectory(out, traj, cfg.dt)
        if threshold is None and frac is not None:
            threshold = detection_threshold(traj, frac)
        table = peak_table(traj, threshold, min_sep)
        tracks = track_structures(table, window=1.0)
        write_track_csv(out / "tracks.csv", tracks)
        count = count_structures(table, window)
        alternations = splitting_alternations([c for _, c in peak_count_series(table)])
        summary = (
            f"count_structures: {count}\n"
            f"splitting_alternations: {alternations}\n"
            f"oscillation_metric: {oscillation_metric(table, window):.6g}\n"
            f"window_fraction: {window:g}\n"
            f"min_separation: {min_sep:g}\n"
            f"threshold: {'default' if threshold is None else format(threshold, 'g')}\n"
        )
        atomic_write_text(out / "analysis.txt", summary)
        print(f"{len(traj.snapshots)} snapshots, {len(tracks)} peak tracks, "
              f"count_structures {count} -> {out}")
    return code


def _scan_template(settings: dict, model: ModelSpec) -> ScanTemplate:
    return ScanTemplate(model, **_given(
        grid_n=_get(settings, "scan", "n", int, None),
        grid_length=_get(settings, "scan", "length", float, None),
        dt=_get(settings, "scan", "dt", float, None),
        t_final=_get(settings, "scan", "t_final", float, None),
        snapshot_stride=_get(settings, "scan", "snapshot_stride", int, None)))


def cmd_scan(args, settings: dict, out: Path) -> int:
    model = _model_from(settings)
    alphas = _floats(_get(settings, "scan", "alphas", str, ""), "[scan] alphas")
    template = _scan_template(settings, model)
    points = scan_stability(
        alphas,
        (_get(settings, "scan", "psi0_lo", float, 0.1),
         _get(settings, "scan", "psi0_hi", float, 1.1),
         _get(settings, "scan", "psi0_samples", int, 9)),
        template,
        jobs=args.jobs,
        **_given(refine_iters=_get(settings, "scan", "refine_iters", int, None)),
    )
    write_scan_csv(out / "stability.csv", points)
    for p in points:
        note = f"  [{p.flags}]" if p.flags else ""
        print(f"alpha={p.alpha:g} psi0_opt={p.psi0_opt:.4f} metric={p.metric_value:.4f}{note}")
    if any(p.psi0_opt != p.psi0_opt for p in points):  # NaN: every cell diverged
        return EXIT_DIVERGED
    return EXIT_OK


def positive_int(raw: str) -> int:
    """The --jobs type: an integer >= 1."""
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svealab",
        description="Envelope-reduction laboratory: catalog verification, "
                    "quench-mapping checks, split-step propagation, stability scans.")
    parser.add_argument("--version", action="version", version=f"svealab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # (command, body, the config section --threshold sets the tolerance of)
    for name, fn, section in (("verify", cmd_verify, "verify"),
                              ("map-check", cmd_map_check, "map"),
                              ("run", cmd_run, None), ("scan", cmd_scan, None)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
        p.add_argument("--output", help="output root (default $SVEA_LAB_OUTPUT or ./artifacts)")
        # accepted by every command, so a script can pass one argv form to all four
        p.add_argument("--jobs", type=positive_int, default=1,
                       help="read by scan only: split each batch of cells into at most "
                            "this many processes")
        if section is not None:
            p.add_argument("--threshold", type=float,
                           help="pass/fail tolerance override")
        if name == "map-check":
            p.add_argument("--detune", type=float,
                           help="mapping diagnostic: shift the quench parameter")
        p.set_defaults(fn=fn, section=section, threshold=None, detune=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        settings = load_settings(args.preset, args.config, args.command)
        if args.threshold is not None:
            settings = _merge(settings, {args.section: {"tolerance": repr(args.threshold)}})
        out = _output_dir(args)
        code = args.fn(args, settings, out)
        _write_manifest(out, args, t0, settings)
        return code
    except (ConfigError, PoleError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
