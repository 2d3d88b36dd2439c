"""Command-line interface: verification sweeps, mapping checks, propagation
runs, and stability scans.

Subcommands: verify, map-check, run, scan.  Settings flow preset -> config
file, the file winning.  Config files are INI sections (model, grid, run,
analysis, scan, verify, map) holding flat key=value pairs; an unknown key (in
[model], one the family's law does not read), a section the command does not
read, a key in [DEFAULT], or a file that cannot be read as UTF-8 (a leading
byte-order mark is skipped) or parsed, is a config error; a % is a plain
character (no interpolation).  SECTION_KEYS states each key once with the
reader that types it; _section passes on only the keys set, so the library's
defaults cover the rest.

main runs the steps every command shares, once: load the settings, check
where the output directory goes, run the command body cmd_*(args, settings,
out) -> exit code, write the manifest.  verify and map-check exit by the
passed flag each check carries.

Outputs land under --output, else $SVEA_LAB_OUTPUT, else ./artifacts, in a
per-command directory that the first artifact written makes, so an error
before it leaves nothing behind.  Every artifact directory gets a manifest
sufficient to re-run the command; all runs are deterministic (no randomness
anywhere), so a rerun reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__
from .analysis import (DEFAULT_MIN_SEPARATION, WINDOW_FRACTION, ScanTemplate,
                       count_structures, detection_threshold, oscillation_metric,
                       peak_count_series, peak_table, require_threshold_fraction,
                       scan_stability, splitting_alternations, track_structures)
from .errors import (ConfigError, DivergenceError, DomainError, PoleError, require_finite,
                     require_integer, require_positive)
from .models import ModelSpec
from .fieldio import (SnapshotStream, atomic_write_text, write_scan_csv, write_track_csv,
                      write_trajectory)
from .solutions import SolutionId, eval_solution, make_solution, require_whole_periods
from .solver import (FieldState, Grid1D, RunConfig, propagate, sech_profile,
                     supergaussian_profile, uniform_profile)
from .verify import check_all_mappings, mapping_report, verification_report, verify_catalog

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

_DETERMINISM_NOTE = "seed-free: no randomness anywhere; identical config reproduces outputs byte for byte"

# The model of every run and scan preset.
_BESSEL = {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"}

PRESETS: dict[str, dict[str, dict[str, str]]] = {
    "case1": {
        "model": _BESSEL,
        "grid": {"n": "2048", "length": "80.0"},
        "run": {"initial": "sech", "psi0": "15.0", "alpha": "1.0",
                "dt": "1e-3", "t_final": "30.0", "snapshot_stride": "150"},
    },
    "case2": {
        "model": _BESSEL,
        "grid": {"n": "2048", "length": "80.0"},
        "run": {"initial": "sech", "psi0": "22.0", "alpha": "1.0",
                "dt": "1e-3", "t_final": "60.0", "snapshot_stride": "100"},
        # wider merge radius: the five structures sit >= 8 apart by late
        # times, while the standing one carries sub-3-unit breathing lobes
        "analysis": {"min_separation": "3.0"},
    },
    "case3": {
        "model": _BESSEL,
        "grid": {"n": "2048", "length": "80.0"},
        "run": {"initial": "sech", "psi0": "0.4", "alpha": "0.1",
                "dt": "2e-3", "t_final": "200.0", "snapshot_stride": "500"},
    },
    "case4": {
        "model": _BESSEL,
        "grid": {"n": "4096", "length": "120.0"},
        "run": {"initial": "supergaussian", "psi0": "10.0", "width": "10.0",
                "order": "40", "dt": "1e-3", "t_final": "60.0",
                "snapshot_stride": "100"},
        # count only major filaments: the split/recombine cycle lives in the
        # top quarter of the intensity range at multi-unit spacing
        "analysis": {"threshold_fraction": "0.25", "min_separation": "5.0"},
    },
    "uniform3": {
        "model": _BESSEL,
        "grid": {"n": "256", "length": "40.0"},
        "run": {"initial": "uniform", "psi0": "3.0", "dt": "1e-3",
                "t_final": "5.0", "snapshot_stride": "500"},
    },
    "scan-stable-line": {
        "model": _BESSEL,
        "scan": {"alphas": "0.05, 0.1, 0.15", "psi0_lo": "0.1",
                 "psi0_hi": "1.1", "psi0_samples": "9", "n": "1024",
                 "length": "80.0", "dt": "2e-3", "t_final": "90.0",
                 "snapshot_stride": "500", "refine_iters": "6"},
    },
    "verify-all": {"verify": {"tolerance": "1e-6"}},
    "map-all": {"map": {"tolerance": "1e-10"}},
}


def _floats(raw: str) -> tuple[float, ...]:
    """The comma-list reader: a non-empty list of finite numbers."""
    # an empty item fails float(); the DomainError of a non-finite one is a ValueError too
    return tuple(require_finite("item", float(v)) for v in raw.split(","))


# The keys each config section accepts and the reader of each.  [model] is
# checked whole by ModelSpec.from_mapping: family, lambda and the couplings of
# the family's law.
SECTION_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "grid": {"n": int, "length": float},
    "run": {"initial": str, "psi0": float, "alpha": float, "width": float, "order": int,
            "catalog_id": str, "dt": float, "t_final": float, "snapshot_stride": int},
    "analysis": {"threshold_fraction": float, "min_separation": float},
    "scan": {"alphas": _floats, "psi0_lo": float, "psi0_hi": float, "psi0_samples": int,
             "n": int, "length": float, "dt": float, "t_final": float,
             "snapshot_stride": int, "refine_iters": int},
    "verify": {"tolerance": float},
    "map": {"tolerance": float, "detune": float},
}


def _catalog_state(grid: Grid1D, catalog_id: str = "") -> FieldState:
    """The catalog entry catalog_id at t = 0 on a grid that holds a whole
    number of its x-periods."""
    try:
        sol = make_solution(SolutionId(catalog_id.strip().upper()))
        require_whole_periods(sol, grid.length)
        return FieldState(grid, eval_solution(sol, grid.x, 0.0))
    except ValueError as err:  # DomainError is one
        raise ConfigError(f"bad [run] catalog_id {catalog_id!r}: {err}") from err


# Each initial condition's builder and the [run] keys it reads besides
# initial, each named as the builder's parameter; a key left out takes the
# builder's default.  Every run reads the other [run] keys.
INITIALS: dict[str, tuple[Callable[..., FieldState], tuple[str, ...]]] = {
    "sech": (sech_profile, ("psi0", "alpha")),
    "supergaussian": (supergaussian_profile, ("psi0", "width", "order")),
    "uniform": (uniform_profile, ("psi0",)),
    "catalog": (_catalog_state, ("catalog_id",)),
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
    """The merged preset and config sections as raw strings, each checked;
    given a command, a section it does not read is a ConfigError too."""
    settings: dict[str, dict[str, str]] = {}
    file_settings: dict[str, dict[str, str]] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        settings = _merge(settings, PRESETS[preset])
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():  # a FIFO would block the read
            raise ConfigError(f"config path is not a regular file: {config_path}"
                              if path.exists() else f"config file not found: {config_path}")
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                           interpolation=None)
        try:
            parser.read_string(path.read_text(encoding="utf-8-sig"), source=config_path)
        except UnicodeDecodeError as err:
            raise ConfigError(f"cannot read {config_path}: not UTF-8 ({err})") from err
        except OSError as err:
            raise ConfigError(f"cannot read {config_path}: {err.strerror or err}") from err
        except configparser.Error as err:
            # configparser's message spans lines; the refusal is one
            reason = re.sub(r"\.?\s*\n\s*", "; ", str(err))
            raise ConfigError(f"cannot parse {config_path}: {reason}") from err
        if parser.defaults():  # configparser would copy them into every section
            keys = ", ".join(repr(key)[1:-1] for key in sorted(parser.defaults()))
            raise ConfigError(f"key(s) {keys} in [DEFAULT] of {config_path}; "
                              "put each in the section that reads it")
        file_settings = {s: dict(parser.items(s)) for s in parser.sections()}
        settings = _merge(settings, file_settings)
    for section, values in settings.items():
        if command is not None and section not in COMMAND_SECTIONS[command]:
            raise ConfigError(f"{command} does not read [{repr(section)[1:-1]}]; it reads "
                              f"{', '.join(f'[{s}]' for s in COMMAND_SECTIONS[command])}")
        if section == "model":
            _model_from(settings)
            continue
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown config section [{repr(section)[1:-1]}]; "
                              f"expected one of model, {', '.join(SECTION_KEYS)}")
        unknown = sorted(set(values) - set(SECTION_KEYS[section]))
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(map(repr, unknown))} in [{section}]; "
                              f"expected {', '.join(sorted(SECTION_KEYS[section]))}")
    if "run" in settings:
        _settle_initial_keys(settings["run"], file_settings.get("run", {}))
    return settings


def _settle_initial_keys(run: dict, from_file: dict) -> None:
    """Refuse the [run] keys the config file sets that the resolved initial
    does not read; drop those the preset set, which go unread because the
    config changed initial.  An unknown initial is left to _initial_from."""
    kind = run.get("initial", "").strip().lower()
    if kind not in INITIALS:
        return
    reads = INITIALS[kind][1]
    others = {key for _, keys in INITIALS.values() for key in keys} - set(reads)
    refused = sorted(others & set(from_file))
    if refused:
        raise ConfigError(f"[run] {', '.join(refused)}: not read by initial = {kind}, "
                          f"which reads {', '.join(reads)}")
    for key in others & set(run):
        del run[key]


def _section(settings: dict, section: str) -> dict:
    """The keys [section] sets, each read by its SECTION_KEYS reader.  A key
    left out is not passed on, so the callee's own default covers it."""
    values = {}
    for key, raw in settings.get(section, {}).items():
        try:
            values[key] = SECTION_KEYS[section][key](raw)
        except ValueError as err:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from err
    return values


def _pick(values: dict, *keys: str, **renamed: str) -> dict:
    """The entries of values set under keys, and under each of renamed's
    values, passed on as its name."""
    names = {**{key: key for key in keys}, **renamed}
    return {name: values[key] for name, key in names.items() if key in values}


def _model_from(settings: dict) -> ModelSpec:
    try:
        return ModelSpec.from_mapping(settings.get("model", {}))
    except ValueError as err:  # DomainError is one
        raise ConfigError(f"bad [model] section: {err}") from err


def _grid_from(settings: dict) -> Grid1D:
    grid = _section(settings, "grid")
    return Grid1D(grid.get("n", 2048), grid.get("length", 80.0))


def _run_config(settings: dict) -> RunConfig:
    return RunConfig(_model_from(settings),
                     **_pick(_section(settings, "run"), "dt", "t_final", "snapshot_stride"))


def _initial_from(settings: dict, grid: Grid1D) -> FieldState:
    run = _section(settings, "run")
    kind = run.get("initial", "").strip().lower()
    if kind not in INITIALS:
        raise ConfigError(f"config needs [run] initial = {'|'.join(INITIALS)}, got {kind!r}")
    build, keys = INITIALS[kind]
    return build(grid, **_pick(run, *keys))


def _output_dir(args) -> Path:
    """The command's output directory.  It is made by the first artifact
    written, so a command that stops before writing leaves none behind; here
    the nearest existing ancestor must be a writable directory."""
    root = args.output or os.environ.get("SVEA_LAB_OUTPUT") or "artifacts"
    name = f"{args.command}-{args.preset}" if args.preset else args.command
    out = Path(root) / name
    ancestor = next(p for p in (out, *out.parents) if p.exists())
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK)):
        raise ConfigError(f"cannot make {out}: {ancestor} is not a writable directory")
    return out


def _write_manifest(out: Path, args, t_start: float, settings: dict) -> None:
    config = args.config or (f"preset:{args.preset}" if args.preset else "(defaults)")
    atomic_write_text(out / "manifest.txt", (
        f"command: {args.command}\n"
        f"config: {config}\n"
        f"output_dir: {out}\n"
        f"jobs: {args.jobs}\n"
        f"determinism: {_DETERMINISM_NOTE}\n"
        f"version: {__version__}\n"
        f"duration_s: {time.monotonic() - t_start:.3f}\n"
        "settings (preset -> config):\n"
        + "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in kv.items())
                  for section, kv in settings.items())))


def _checks_exit(out: Path, text: str, checks) -> int:
    """Write and print the report; exit by the verdict each check carries."""
    atomic_write_text(out / "report.txt", text + "\n")
    print(text)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECKS_FAILED


def cmd_verify(args, settings: dict, out: Path) -> int:
    reports = verify_catalog(**_section(settings, "verify"))
    return _checks_exit(out, verification_report(reports), reports)


def cmd_map_check(args, settings: dict, out: Path) -> int:
    checks = check_all_mappings(**_section(settings, "map"))
    return _checks_exit(out, mapping_report(checks), checks)


def cmd_run(args, settings: dict, out: Path) -> int:
    cfg = _run_config(settings)
    initial = _initial_from(settings, _grid_from(settings))
    analysis = _section(settings, "analysis")
    # checked by the rules analysis applies, before the propagation they follow
    for key, rule in (("threshold_fraction", require_threshold_fraction),
                      ("min_separation", require_positive)):
        if key in analysis:
            rule(f"[analysis] {key}", analysis[key])
    min_sep = analysis.get("min_separation", DEFAULT_MIN_SEPARATION)
    code = EXIT_OK
    snapshots = SnapshotStream(out)
    try:
        traj = propagate(initial, cfg, snapshots)
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        traj = err.partial  # holds the initial state at least
        code = EXIT_DIVERGED
    except KeyboardInterrupt:
        snapshots.flush()  # every snapshot appended reaches disk
        raise
    write_trajectory(out, traj, cfg.dt)
    threshold = (detection_threshold(traj, analysis["threshold_fraction"])
                 if "threshold_fraction" in analysis else None)
    table = peak_table(traj, threshold, min_sep)
    tracks = track_structures(table)
    write_track_csv(out / "tracks.csv", tracks)
    count = count_structures(table)
    alternations = splitting_alternations([c for _, c in peak_count_series(table)])
    summary = (
        f"count_structures: {count}\n"
        f"splitting_alternations: {alternations}\n"
        f"oscillation_metric: {oscillation_metric(table):.6g}\n"
        f"window_fraction: {WINDOW_FRACTION:g}\n"
        f"min_separation: {min_sep:g}\n"
        f"threshold: {'default' if threshold is None else format(threshold, 'g')}\n"
    )
    atomic_write_text(out / "analysis.txt", summary)
    print(f"{len(snapshots)} snapshots, {len(tracks)} peak tracks, "
          f"count_structures {count} -> {out}")
    return code


def _scan_template(settings: dict, model: ModelSpec) -> ScanTemplate:
    return ScanTemplate(model, **_pick(_section(settings, "scan"), "dt", "t_final",
                                       "snapshot_stride", grid_n="n", grid_length="length"))


def cmd_scan(args, settings: dict, out: Path) -> int:
    scan = _section(settings, "scan")
    points = scan_stability(
        scan.get("alphas", ()),
        (scan.get("psi0_lo", 0.1), scan.get("psi0_hi", 1.1), scan.get("psi0_samples", 9)),
        _scan_template(settings, _model_from(settings)),
        jobs=args.jobs,
        **_pick(scan, "refine_iters"),
    )
    write_scan_csv(out / "stability.csv", points)
    for p in points:
        note = f"  [{p.flags}]" if p.flags else ""
        print(f"alpha={p.alpha:g} psi0_opt={p.psi0_opt:.4f} metric={p.metric_value:.4f}{note}")
    diverged = [p for p in points if p.psi0_opt != p.psi0_opt]  # NaN: every cell diverged
    for p in diverged:
        print(f"diverged: every cell at alpha={p.alpha:g} diverged", file=sys.stderr)
    return EXIT_DIVERGED if diverged else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses through main: its error is a
    ConfigError, each non-printable character escaped, so a bad flag prints
    one line.  Subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError("".join(c if c.isprintable() else repr(c)[1:-1] for c in message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    to main: building it costs more than parsing an argv with it, so a process
    that calls main more than once (a benchmark loop, a test suite, a script)
    saves a build per call.  Each subparser binds its cmd_* here, at the first
    call.  Parsing leaves the parser as it was."""
    parser = _Parser(
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
        # accepted by every command, so a script can pass one argv form to all four
        p.add_argument("--jobs", type=int, default=1,
                       help="read by scan only: split each batch of cells into at most "
                            "this many processes")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.monotonic()
        require_integer("--jobs", args.jobs, 1)
        settings = load_settings(args.preset, args.config, args.command)
        out = _output_dir(args)
        code = args.fn(args, settings, out)
        _write_manifest(out, args, t0, settings)
        return code
    except SystemExit:  # --help or --version has printed; _Parser raises every refusal
        return EXIT_OK
    except (ConfigError, PoleError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
