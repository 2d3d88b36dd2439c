"""Command-line entry points: exit codes, artifacts, determinism."""

import collections
import configparser
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy
import pytest
import scipy

from svealab import analysis, cli, solutions, specfn, verify
from svealab.analysis import (DEFAULT_MIN_SEPARATION, WINDOW_FRACTION, ScanTemplate,
                              count_structures, detection_threshold, oscillation_metric,
                              peak_count_series, peak_table, scan_stability,
                              splitting_alternations, track_structures)
from svealab.cli import (COMMAND_SECTIONS, EXIT_CHECKS_FAILED, EXIT_DIVERGED,
                         EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, PRESETS, SECTION_KEYS,
                         _model_from, load_settings, main)
from svealab.errors import ConfigError, DivergenceError
from svealab.fieldio import STREAM_BURST, write_track_csv, write_trajectory
from svealab.models import Family, ModelSpec
from svealab.solver import (Grid1D, RunConfig, propagate, sech_profile, supergaussian_profile,
                            _power_floor)


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("SVEA_LAB_OUTPUT", str(tmp_path))
    return tmp_path


DIVERGENT_INI = """\
[model]
family = cubic_nls
lambda = 1.0
omega = 1.0

[grid]
n = 64
length = 20.0

[run]
initial = uniform
psi0 = 30.0
dt = 1e-3
t_final = 1.0
snapshot_stride = 100
"""

TINY_SCAN_INI = """\
[model]
family = bessel_nls
lambda = 1.0
omega = 1.0

[scan]
alphas = 0.5
psi0_lo = 1.0
psi0_hi = 3.0
psi0_samples = 5
refine_iters = 2
n = 128
length = 48.0
dt = 5e-3
t_final = 20.0
snapshot_stride = 400
"""

# A short run with structure: the case1 pulse, shrunk to a quick grid and horizon.
STRUCTURED_INI = """\
[model]
family = bessel_nls
lambda = 1.0
omega = 1.0

[grid]
n = 256
length = 40.0

[run]
initial = sech
psi0 = 15.0
alpha = 1.0
dt = 1e-3
t_final = 0.6
snapshot_stride = 100
"""

# Every cell of the one width diverges in the first steps.
ALL_DIVERGED_SCAN_INI = """\
[model]
family = bessel_nls
lambda = 10
omega = 1.0

[scan]
alphas = 0.5
psi0_lo = 1
psi0_hi = 3
psi0_samples = 3
n = 64
length = 48
dt = 0.02
t_final = 0.2
snapshot_stride = 5
"""

ROOT = Path(__file__).resolve().parents[1]
SCAN_SHORT_INI = ROOT / "perfbench" / "configs" / "scan_short.ini"
# The command of each preset that is not a run.
_PRESET_COMMANDS = {"scan-stable-line": "scan", "verify-all": "verify", "map-all": "map-check"}


def _sections(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _ini_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for name, kv in sections.items())


class _Recording(dict):
    """A read section that records each (section, key) the CLI looks up or
    passes on with ** (a dict subclass with its own __iter__ is unpacked
    through keys() and __getitem__)."""

    def __init__(self, read, section, values):
        super().__init__(values)
        self.read, self.section = read, section

    def __iter__(self):
        return super().__iter__()

    def __contains__(self, key):
        self.read.add((self.section, key))
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add((self.section, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add((self.section, key))
        return super().get(key, default)


def _record_reads(monkeypatch):
    """The set that every (section, key) cli._section's callers read goes into."""
    read = set()
    real = cli._section
    monkeypatch.setattr(cli, "_section",
                        lambda settings, section: _Recording(read, section,
                                                             real(settings, section)))
    return read


def _write_ini(path, text, section="run", **values):
    sections = _sections(text)
    sections.setdefault(section, {}).update({k: str(v) for k, v in values.items()})
    path.write_text(_ini_text(sections))
    return path


class TestExitCodes:
    def test_verify_all_passes(self, outdir):
        assert main(["verify", "--preset", "verify-all"]) == EXIT_OK

    def test_verify_impossible_threshold_fails(self, outdir, tmp_path):
        ini = tmp_path / "strict.ini"
        ini.write_text("[verify]\ntolerance = 1e-30\n")
        assert main(["verify", "--preset", "verify-all",
                     "--config", str(ini)]) == EXIT_CHECKS_FAILED

    def test_map_check_passes(self, outdir):
        assert main(["map-check", "--preset", "map-all"]) == EXIT_OK

    def test_map_check_detuned_fails(self, outdir):
        assert main(["map-check", "--preset", "map-all",
                     "--detune", "0.05"]) == EXIT_CHECKS_FAILED

    @pytest.mark.parametrize("detune", ["-1e-3", "-.5e-2", "-2E-1", "-0.05"])
    def test_negative_detune_is_read_as_a_number(self, outdir, detune):
        assert main(["map-check", "--preset", "map-all",
                     "--detune", detune]) == EXIT_CHECKS_FAILED

    def test_missing_config_is_usage_error(self, outdir):
        assert main(["run", "--config", "/nonexistent/path.ini"]) == EXIT_USAGE

    def test_unknown_preset_is_usage_error(self, outdir):
        assert main(["run", "--preset", "no-such-case"]) == EXIT_USAGE

    def test_malformed_ini_is_usage_error(self, outdir, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model\nfamily=cubic_nls\n")
        assert main(["run", "--config", str(bad)]) == EXIT_USAGE

    def test_config_that_is_not_utf8_is_usage_error(self, outdir, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes((STRUCTURED_INI + "; r\u00e9glage\n").encode("latin-1"))
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE
        assert "error:" in (err := capsys.readouterr().err) and "UTF-8" in err
        assert not (outdir / "run").exists()

    def test_version_exits_clean(self):
        assert main(["--version"]) == 0

    def test_zero_field_run_is_usage_error(self, outdir, tmp_path):
        ini = _write_ini(tmp_path / "zero.ini", STRUCTURED_INI, psi0=0.0)
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE

    def test_horizon_off_the_step_grid_is_usage_error(self, outdir, tmp_path):
        ini = _write_ini(tmp_path / "short.ini", STRUCTURED_INI, dt=0.3, t_final=1.0)
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_scan_jobs_below_one_is_usage_error(self, outdir, tmp_path, capsys, jobs):
        ini = tmp_path / "scan.ini"
        ini.write_text(TINY_SCAN_INI)
        assert main(["scan", "--config", str(ini), "--jobs", jobs]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not (outdir / "scan").exists()

    @pytest.mark.parametrize("command", ["verify", "map-check", "run"])
    def test_jobs_below_one_is_usage_error_for_every_command(self, outdir, tmp_path, capsys,
                                                             command):
        ini = tmp_path / "cfg.ini"
        ini.write_text(STRUCTURED_INI if command == "run" else "")
        assert main([command, "--config", str(ini), "--jobs", "0"]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not (outdir / command).exists()


def _run_configs():
    for name, preset in PRESETS.items():
        if "run" in preset:
            yield name, preset
    for name, text in (("divergent", DIVERGENT_INI), ("structured", STRUCTURED_INI)):
        yield name, _sections(text)


def _scan_configs():
    for name, preset in PRESETS.items():
        if "scan" in preset:
            yield name, preset
    yield "tiny-scan", _sections(TINY_SCAN_INI)
    yield "scan-short", _sections(SCAN_SHORT_INI.read_text())


def _setting(settings, section, key, default):
    """A setting as the CLI resolved it when it stated this default itself."""
    raw = settings.get(section, {}).get(key)
    return default if raw is None else SECTION_KEYS[section][key](raw)


class TestShippedHorizons:
    """Every shipped t_final is a whole number of steps dt."""

    @pytest.mark.parametrize("name, settings", list(_run_configs()))
    def test_run_config_accepted(self, name, settings):
        cfg = cli._run_config(settings)
        # the values the CLI resolved when it stated these defaults itself
        assert cfg == RunConfig(_model_from(settings),
                                dt=_setting(settings, "run", "dt", 1e-3),
                                t_final=_setting(settings, "run", "t_final", 30.0),
                                snapshot_stride=_setting(settings, "run", "snapshot_stride",
                                                         100))
        assert cfg.n_steps * cfg.dt == pytest.approx(cfg.t_final, rel=1e-12)

    @pytest.mark.parametrize("name, settings", list(_scan_configs()))
    def test_scan_config_accepted(self, name, settings):
        model = _model_from(settings)
        template = cli._scan_template(settings, model)
        assert template == ScanTemplate(
            model, grid_n=_setting(settings, "scan", "n", 1024),
            grid_length=_setting(settings, "scan", "length", 80.0),
            dt=_setting(settings, "scan", "dt", 2e-3),
            t_final=_setting(settings, "scan", "t_final", 90.0),
            snapshot_stride=_setting(settings, "scan", "snapshot_stride", 500))
        RunConfig(model, dt=template.dt, t_final=template.t_final)

    @pytest.mark.parametrize("name, settings", list(_run_configs()) + list(_scan_configs()))
    def test_initial_states_clear_the_power_floor(self, name, settings):
        # by a margin no benchmark jitter of psi0 can close; a scan's lowest
        # cell is psi0_lo/4 (its widest widening) on its widest grid
        if "run" in settings:
            states = [cli._initial_from(settings, cli._grid_from(settings))]
        else:
            scan = cli._section(settings, "scan")
            template = cli._scan_template(settings, _model_from(settings))
            states = [sech_profile(template.grid_for(alpha), 0.25 * scan["psi0_lo"], alpha)
                      for alpha in scan["alphas"]]
        for state in states:
            power = float(numpy.vdot(state.values, state.values).real) * state.grid.n
            assert power > 1e200 * _power_floor(state.grid.n)

    def test_scan_refines_six_times_unless_configured(self):
        # every CLI scan without [scan] refine_iters has run six iterations
        assert inspect.signature(scan_stability).parameters["refine_iters"].default == 6

    def test_profiles_keep_the_defaults_the_cli_stated(self):
        # every CLI run without [run] alpha or order has used these
        assert inspect.signature(sech_profile).parameters["alpha"].default == 1.0
        assert inspect.signature(supergaussian_profile).parameters["order"].default == 40

    def test_scan_template_default_accepted(self):
        template = ScanTemplate(ModelSpec(Family.BESSEL_NLS))
        RunConfig(template.model, dt=template.dt, t_final=template.t_final)


class TestDivergentRun:
    def test_partial_artifacts_survive(self, outdir, tmp_path):
        ini = tmp_path / "blow.ini"
        ini.write_text(DIVERGENT_INI)
        assert main(["run", "--config", str(ini)]) == EXIT_DIVERGED
        out = outdir / "run"
        assert (out / "manifest.txt").exists()
        # the initial state is always on disk even when the step guard trips
        assert list(out.glob("*.svea"))
        assert (out / "diagnostics.csv").exists()

    def test_unitarity_defect_exits_3(self, outdir, tmp_path, capsys, leaky_forward):
        ini = tmp_path / "run.ini"
        ini.write_text(STRUCTURED_INI)
        assert main(["run", "--config", str(ini)]) == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith("diverged: unitarity defect")
        assert len(list((outdir / "run").glob("*.svea"))) == 1


# A focusing pulse that compresses until the rotation guard trips at t = 0.049,
# after 25 snapshots.
LATE_DIVERGENT_INI = """\
[model]
family = cubic_nls
lambda = -1.0
omega = 1.0

[grid]
n = 256
length = 20.0

[run]
initial = sech
psi0 = 10.0
dt = 1e-3
t_final = 1.0
snapshot_stride = 2
"""


def _held_run(ini, out):
    """What run wrote before it streamed its snapshots: propagate holding every
    snapshot, write_trajectory, then the analysis over the held trajectory."""
    settings = load_settings(None, str(ini), "run")
    cfg = cli._run_config(settings)
    initial = cli._initial_from(settings, cli._grid_from(settings))
    options = cli._section(settings, "analysis")
    min_sep = options.get("min_separation", DEFAULT_MIN_SEPARATION)
    code = EXIT_OK
    try:
        traj = propagate(initial, cfg)
    except DivergenceError as err:
        traj, code = err.partial, EXIT_DIVERGED
    write_trajectory(out, traj, cfg.dt)
    threshold = (detection_threshold(traj, options["threshold_fraction"])
                 if "threshold_fraction" in options else None)
    table = peak_table(traj, threshold, min_sep)
    write_track_csv(out / "tracks.csv", track_structures(table))
    alternations = splitting_alternations([c for _, c in peak_count_series(table)])
    (out / "analysis.txt").write_bytes((
        f"count_structures: {count_structures(table)}\n"
        f"splitting_alternations: {alternations}\n"
        f"oscillation_metric: {oscillation_metric(table):.6g}\n"
        f"window_fraction: {WINDOW_FRACTION:g}\n"
        f"min_separation: {min_sep:g}\n"
        f"threshold: {'default' if threshold is None else format(threshold, 'g')}\n"
    ).encode())
    return code


class TestStreamedRun:
    """run writes its snapshots as they are made; every artifact is the one
    the held trajectory gives."""

    # 37 snapshots: two full bursts of STREAM_BURST and a partial one
    _SECH = _ini_text({**_sections(STRUCTURED_INI),
                       "run": {**_sections(STRUCTURED_INI)["run"], "snapshot_stride": "17"}})

    @pytest.mark.parametrize("text, code, n_snapshots", [
        (_SECH, EXIT_OK, 37),
        (_SECH + "[analysis]\nthreshold_fraction = 0.3\nmin_separation = 2.0\n", EXIT_OK, 37),
        (LATE_DIVERGENT_INI, EXIT_DIVERGED, 25),
    ], ids=["sech", "threshold-fraction", "diverging"])
    def test_artifacts_equal_the_held_run(self, tmp_path, text, code, n_snapshots):
        assert n_snapshots > STREAM_BURST
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert main(["run", "--config", str(ini), "--output", str(tmp_path / "out")]) == code
        assert _held_run(ini, tmp_path / "held") == code
        streamed = tmp_path / "out" / "run"
        names = sorted(p.name for p in (tmp_path / "held").iterdir())
        assert names == sorted(p.name for p in streamed.iterdir() if p.name != "manifest.txt")
        assert sum(name.endswith(".svea") for name in names) == n_snapshots
        for name in names:
            assert (streamed / name).read_bytes() == (tmp_path / "held" / name).read_bytes(), name

    def test_interrupt_exits_130_with_every_snapshot_handed_over_on_disk(
            self, tmp_path, capsys, monkeypatch):
        # Ctrl-C at the 21st hand-over, with 4 of the 20 before it still pending
        class Interrupted(cli.SnapshotStream):
            def __call__(self, state):
                if self.count == 20:
                    raise KeyboardInterrupt
                super().__call__(state)

        monkeypatch.setattr(cli, "SnapshotStream", Interrupted)
        ini = tmp_path / "run.ini"
        ini.write_text(self._SECH)
        argv = ["run", "--config", str(ini), "--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"
        assert len(list((tmp_path / "out" / "run").glob("*.svea"))) == 20

    def test_peak_memory_does_not_grow_with_the_snapshot_count(self, tmp_path):
        # 2001 against 21 snapshots of a 256-point field: holding them all is
        # 7.7 MiB more.  Each snapshot's peak-table row, tracks and CSV lines
        # stay, about 0.6 KiB apiece at the peak, hence the 2 MiB.
        def peak(stride):
            ini = _write_ini(tmp_path / f"{stride}.ini", STRUCTURED_INI, t_final=2.0,
                             snapshot_stride=stride)
            argv = ["run", "--config", str(ini), "--output", str(tmp_path / str(stride))]
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # warm-up: lazy imports and caches are not the run's
        few, many = peak(100), peak(1)
        assert len(list((tmp_path / "1" / "run").glob("*.svea"))) == 2001
        assert many - few < 2 * 2**20


class TestRunArtifacts:
    def test_uniform_preset_writes_bundle(self, outdir):
        assert main(["run", "--preset", "uniform3"]) == EXIT_OK
        out = outdir / "run-uniform3"
        for name in ("manifest.txt", "diagnostics.csv", "analysis.txt", "tracks.csv"):
            assert (out / name).exists(), name
        assert not (out / "trajectory.txt").exists()
        assert list(out.glob("*.svea"))
        text = (out / "analysis.txt").read_text()
        assert "count_structures:" in text
        assert "oscillation_metric:" in text

    def test_rerun_is_byte_identical(self, outdir, tmp_path):
        assert main(["run", "--preset", "uniform3"]) == EXIT_OK
        first = (outdir / "run-uniform3" / "diagnostics.csv").read_bytes()
        assert main(["run", "--preset", "uniform3"]) == EXIT_OK
        second = (outdir / "run-uniform3" / "diagnostics.csv").read_bytes()
        assert first == second

    def test_one_find_peaks_pass_per_snapshot(self, outdir, tmp_path, monkeypatch):
        calls = []
        real = analysis.find_peaks
        monkeypatch.setattr(analysis, "find_peaks",
                            lambda *a, **kw: calls.append(a[0].time) or real(*a, **kw))
        ini = tmp_path / "structured.ini"
        ini.write_text(STRUCTURED_INI)
        assert main(["run", "--config", str(ini)]) == EXIT_OK
        snapshots = sorted((outdir / "run").glob("*.svea"))
        assert len(snapshots) == 7
        assert len(calls) == len(snapshots) == len(set(calls))

    def test_structured_rerun_is_byte_identical(self, outdir, tmp_path):
        ini = tmp_path / "structured.ini"
        ini.write_text(STRUCTURED_INI)

        def artifacts():
            assert main(["run", "--config", str(ini)]) == EXIT_OK
            out = outdir / "run"
            names = sorted(p.name for p in out.glob("*.svea"))
            names += ["diagnostics.csv", "tracks.csv", "analysis.txt"]
            return {name: (out / name).read_bytes() for name in names}

        first = artifacts()
        assert len([n for n in first if n.endswith(".svea")]) == 7
        assert first == artifacts()

    def test_scan_rerun_is_byte_identical(self, outdir, tmp_path):
        ini = tmp_path / "scan.ini"
        ini.write_text(TINY_SCAN_INI)
        tables = []
        for _ in range(2):
            assert main(["scan", "--config", str(ini), "--jobs", "1"]) == EXIT_OK
            tables.append((outdir / "scan" / "stability.csv").read_bytes())
        assert tables[0] == tables[1]


class TestScanCommand:
    def test_tiny_scan_writes_table(self, outdir, tmp_path):
        ini = tmp_path / "scan.ini"
        ini.write_text(TINY_SCAN_INI)
        assert main(["scan", "--config", str(ini), "--jobs", "1"]) == EXIT_OK
        out = outdir / "scan"
        assert (out / "stability.csv").exists()
        rows = (out / "stability.csv").read_text().splitlines()
        assert rows[0].startswith("alpha,psi0_opt")
        assert len(rows) == 2
        assert (out / "manifest.txt").exists()

    def test_width_whose_every_cell_diverges_is_reported(self, outdir, tmp_path, capsys):
        ini = tmp_path / "scan.ini"
        ini.write_text(ALL_DIVERGED_SCAN_INI)
        assert main(["scan", "--config", str(ini)]) == EXIT_DIVERGED
        captured = capsys.readouterr()
        assert captured.out == "alpha=0.5 psi0_opt=nan metric=inf  [all cells diverged]\n"
        assert captured.err == "diverged: every cell at alpha=0.5 diverged\n"
        assert (outdir / "scan" / "stability.csv").read_text().splitlines()[1] == \
            "0.5,nan,inf,2.0,all cells diverged"

    def test_interrupt_leaves_no_worker_traceback(self, tmp_path):
        # SIGINT to the whole process group, as Ctrl-C sends it, once both
        # workers have scored the first round
        ini = tmp_path / "scan.ini"
        ini.write_text(TINY_SCAN_INI)
        script = f"""
import os, signal, sys
from svealab import analysis, cli

search = analysis._search

def interrupted(*args):
    yield next(search(*args))
    os.killpg(0, signal.SIGINT)
    yield ()

analysis._search = interrupted
sys.exit(cli.main(["scan", "--config", {str(ini)!r}, "--jobs", "2",
                   "--output", {str(tmp_path / "out")!r}]))
"""
        done = _python("-c", script, start_new_session=True, timeout=120)
        assert (done.returncode, done.stderr) == (EXIT_INTERRUPTED, "interrupted\n")


class TestOutputDirectory:
    """The first artifact makes the output directory; nothing is made before it."""

    def test_output_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert main(["verify", "--preset", "verify-all", "--output", str(target)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
        assert target.read_text() == ""

    def test_nested_output_root_is_made_by_the_first_write(self, tmp_path):
        root = tmp_path / "a" / "b"
        assert main(["map-check", "--preset", "map-all", "--output", str(root)]) == EXIT_OK
        assert (root / "map-check-map-all" / "report.txt").exists()

    def test_error_after_loading_leaves_no_directory(self, outdir, tmp_path, capsys):
        ini = _write_ini(tmp_path / "cfg.ini", STRUCTURED_INI, psi0=0.0)
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE
        assert list(outdir.iterdir()) == [ini]



class TestManifest:
    """manifest.txt holds what a rerun needs: the flags and the merged settings."""

    def test_scan_manifest(self, outdir, tmp_path):
        ini = _write_ini(tmp_path / "scan.ini", TINY_SCAN_INI, "scan", refine_iters=1)
        assert main(["scan", "--config", str(ini), "--jobs", "2"]) == EXIT_OK
        text = (outdir / "scan" / "manifest.txt").read_text()
        assert f"config: {ini}\n" in text
        for line in ("jobs: 2", "detune: None", "[model]",
                     "family = bessel_nls", "[scan]", "alphas = 0.5", "refine_iters = 1"):
            assert line + "\n" in text, line
        assert "threshold" not in text

    def test_map_check_manifest(self, outdir, tmp_path):
        ini = tmp_path / "map.ini"
        ini.write_text("[map]\ntolerance = 1e-3\n")
        argv = ["map-check", "--preset", "map-all", "--config", str(ini), "--detune", "0.05"]
        assert main(argv) == EXIT_CHECKS_FAILED
        text = (outdir / "map-check-map-all" / "manifest.txt").read_text()
        # preset -> config: the file's tolerance wins
        for line in ("jobs: 1", "detune: 0.05", "[map]", "tolerance = 1e-3"):
            assert line + "\n" in text, line
        assert "tolerance = 1e-10" not in text


class TestOutOfRangeSettings:
    """An out-of-range value, or a key its section does not take, exits 2
    before any sweep or propagation runs."""

    @pytest.mark.parametrize("section, key, value", [
        ("map", "t_samples", "0, nan"), ("map", "t_samples", "inf"),
        ("verify", "tolerance", "nan"), ("verify", "tolerance", "-1"),
        ("map", "tolerance", "0"), ("map", "tolerance", "inf"),
        ("analysis", "min_separation", "nan"), ("analysis", "min_separation", "-3"),
        ("analysis", "min_separation", "0"), ("scan", "refine_iters", "-1"),
        ("analysis", "window", "2"), ("analysis", "window", "0"),
        ("analysis", "threshold", "-1"), ("analysis", "threshold_fraction", "1.5"),
        ("run", "dt", "1e-320"), ("scan", "dt", "1e-320"),
        ("run", "dt", "1e-300"), ("scan", "dt", "1e-300"),
    ])
    def test_rejected_before_any_work(self, outdir, tmp_path, capsys, monkeypatch,
                                      section, key, value):
        def work(*args, **kwargs):
            raise AssertionError("work started before the settings were checked")

        monkeypatch.setattr(cli, "propagate", work)
        monkeypatch.setattr(analysis, "propagate_batch", work)
        monkeypatch.setattr(verify, "eval_solution", work)
        command = {"verify": "verify", "map": "map-check", "analysis": "run", "run": "run",
                   "scan": "scan"}[section]
        text = {"analysis": STRUCTURED_INI, "run": STRUCTURED_INI,
                "scan": TINY_SCAN_INI}.get(section, "")
        ini = _write_ini(tmp_path / "cfg.ini", text, section, **{key: value})
        assert main([command, "--config", str(ini)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("dt", ["1e-320", "1e-300"])
    def test_scan_rejected_before_the_pool_opens(self, outdir, tmp_path, capsys, monkeypatch,
                                                 dt):
        def pool(*args, **kwargs):
            raise AssertionError("the process pool opened before the settings were checked")

        monkeypatch.setattr(analysis, "ProcessPoolExecutor", pool)
        ini = _write_ini(tmp_path / "cfg.ini", TINY_SCAN_INI, "scan", dt=dt)
        assert main(["scan", "--config", str(ini), "--jobs", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dt" in err


class TestVerifyArtifacts:
    def test_report_written(self, outdir):
        assert main(["verify", "--preset", "verify-all"]) == EXIT_OK
        out = outdir / "verify-verify-all"
        assert (out / "report.txt").exists()
        assert "PASS" in (out / "report.txt").read_text()


class TestConfigSchema:
    """Every section and key is checked; nothing is silently ignored."""

    @pytest.mark.parametrize("section, key", [("run", "psi_0"), ("run", "dealias"),
                                              ("grid", "lenght"), ("scan", "alpha"),
                                              ("model", "mass")])
    def test_unknown_key_is_usage_error(self, outdir, tmp_path, capsys, section, key):
        text = STRUCTURED_INI if section != "scan" else TINY_SCAN_INI
        ini = _write_ini(tmp_path / "typo.ini", text, section, **{key: "1"})
        command = "scan" if section == "scan" else "run"
        assert main([command, "--config", str(ini)]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (outdir / command).exists()

    def test_readme_table_lists_exactly_the_keys_accepted(self, tmp_path):
        rows = re.findall(r"^\| `\[(\w+)\]`([^|]*)\|([^|]*)\|$",
                          (ROOT / "README.md").read_text(), re.MULTILINE)
        listed = {}
        for section, families, keys in rows:
            for family in re.findall(r"`(\w+)`", families) or [None]:
                listed[section, family] = set(re.findall(r"`(\w+)`", keys))
        assert {(s, f) for s, f in listed if f is None} == {(s, None) for s in SECTION_KEYS}
        assert {f for s, f in listed if s == "model"} == {f.value for f in Family}
        for (section, family), keys in listed.items():
            if family is None:
                assert keys == set(SECTION_KEYS[section]), section
                continue
            # every listed key loads; each other coupling is refused
            model = {key: family if key == "family" else "1.0" for key in keys}
            body = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in model.items())
            ini = tmp_path / f"{family}.ini"
            ini.write_text(body)
            assert load_settings(None, str(ini)) == {"model": model}
            for key in {"mass", "sigma", "omega"} - keys:
                ini.write_text(body + f"{key} = 1.0\n")
                with pytest.raises(ConfigError, match=key):
                    load_settings(None, str(ini))

    def test_unknown_section_is_usage_error(self, outdir, tmp_path, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text(STRUCTURED_INI + "\n[analyss]\nwindow = 0.5\n")
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE
        assert "[analyss]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_accepted(self, name):
        command = _PRESET_COMMANDS.get(name, "run")
        assert load_settings(name, None) == PRESETS[name]
        assert load_settings(name, None, command) == PRESETS[name]

    @pytest.mark.parametrize("text, command", [
        (DIVERGENT_INI, "run"), (TINY_SCAN_INI, "scan"), (STRUCTURED_INI, "run"),
        (SCAN_SHORT_INI.read_text(), "scan")],
        ids=["divergent", "tiny-scan", "structured", "scan-short"])
    def test_shipped_configs_accepted(self, tmp_path, text, command):
        ini = tmp_path / "shipped.ini"
        ini.write_text(text)
        assert load_settings(None, str(ini)) == _sections(text)
        assert load_settings(None, str(ini), command) == _sections(text)

    def test_amplitude_override_on_a_preset_accepted(self, tmp_path):
        # the form the benchmark writes: a lone [run] psi0 on top of case1
        ini = tmp_path / "psi0.ini"
        ini.write_text("[run]\npsi0 = 14.25\n\n")
        assert load_settings("case1", str(ini))["run"]["psi0"] == "14.25"
        assert load_settings("case1", str(ini), "run")["run"]["psi0"] == "14.25"

    def test_every_command_declares_its_sections(self):
        assert set(COMMAND_SECTIONS) == {"verify", "map-check", "run", "scan"}
        assert {s for sections in COMMAND_SECTIONS.values() for s in sections} == \
            {"model", *SECTION_KEYS}

    @pytest.mark.parametrize("command, text, section", [
        ("run", STRUCTURED_INI, "scan"), ("scan", TINY_SCAN_INI, "grid"),
        ("verify", "[verify]\ntolerance = 1e-6\n", "map"),
        ("map-check", "[map]\ntolerance = 1e-10\n", "model")])
    def test_section_the_command_does_not_read_is_usage_error(self, outdir, tmp_path, capsys,
                                                              command, text, section):
        extra = {"scan": "alphas = 0.5\n", "grid": "n = 64\n", "map": "tolerance = 1e-10\n",
                 "model": "family = cubic_nls\n"}[section]
        ini = tmp_path / "extra.ini"
        ini.write_text(text + f"\n[{section}]\n" + extra)
        assert main([command, "--config", str(ini)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"[{section}]" in err
        assert not (outdir / command).exists()

    def test_preset_of_another_command_is_usage_error(self, outdir, capsys):
        assert main(["scan", "--preset", "case1"]) == EXIT_USAGE
        assert "scan does not read [grid]" in capsys.readouterr().err

    def test_table_lists_exactly_the_keys_read(self, outdir, tmp_path, monkeypatch):
        read = _record_reads(monkeypatch)
        tiny_run = _sections(STRUCTURED_INI)
        tiny_run["run"].update(t_final="0.1")
        runs = []
        for kind, extra in (("sech", {}), ("supergaussian", {}),
                            ("catalog", {"catalog_id": "bessel_uniform"})):
            settings = cli._merge(tiny_run, {"run": {"initial": kind, **extra}})
            for key in {"psi0", "alpha"} - set(cli.INITIAL_KEYS[kind]):
                del settings["run"][key]
            runs.append(settings)
        for command, settings in [("run", s) for s in runs] + [
                ("scan", _sections(TINY_SCAN_INI)),
                ("verify", {"verify": {"tolerance": "1e-6"}}),
                ("map-check", {"map": {"tolerance": "1e-10"}})]:
            ini = tmp_path / "cfg.ini"
            ini.write_text(_ini_text(settings))
            assert main([command, "--config", str(ini)]) in (EXIT_OK, EXIT_CHECKS_FAILED), command
        listed = {(section, key) for section, keys in SECTION_KEYS.items() for key in keys}
        assert read == listed

    @pytest.mark.parametrize("kind", sorted(cli.INITIAL_KEYS))
    def test_initial_keys_are_the_keys_each_initial_reads(self, kind, monkeypatch):
        read = _record_reads(monkeypatch)
        run = {"initial": kind, **({"catalog_id": "bessel_uniform"} if kind == "catalog" else {})}
        cli._initial_from({"run": run}, Grid1D(64, 20.0))
        assert read == {("run", key) for key in ("initial", *cli.INITIAL_KEYS[kind])}

    @pytest.mark.parametrize("initial, extra, dropped", [
        ("catalog", "catalog_id = bessel_uniform\n", {"psi0", "alpha"}),
        ("supergaussian", "", {"alpha"}),
        ("uniform", "", {"alpha"})])
    def test_preset_keys_another_initial_does_not_read_are_dropped(
            self, outdir, tmp_path, initial, extra, dropped):
        ini = tmp_path / "initial.ini"
        ini.write_text(f"[run]\ninitial = {initial}\n{extra}t_final = 0.01\n")
        run = load_settings("case1", str(ini), "run")["run"]
        assert run["initial"] == initial and not dropped & set(run)
        assert main(["run", "--preset", "case1", "--config", str(ini)]) == EXIT_OK
        manifest = (outdir / "run-case1" / "manifest.txt").read_text()
        assert not [key for key in dropped if f"\n{key} = " in manifest]

    @pytest.mark.parametrize("name, length, code", [
        ("dw_nls_tanh", 20.0, EXIT_USAGE), ("cubic_nls_dc", 20.0, EXIT_USAGE),
        ("dw_nls_dc", 20.0, EXIT_USAGE), ("cubic_nls_sn", 20.0, EXIT_USAGE),
        ("cubic_nls_sn", 8.0 * float(scipy.special.ellipk(0.6)), EXIT_OK),
        ("cubic_kg_sn", 20.0, EXIT_OK)])
    def test_catalog_initial_needs_a_whole_number_of_periods(self, outdir, tmp_path, capsys,
                                                             name, length, code):
        ini = tmp_path / "catalog.ini"
        ini.write_text("[model]\nfamily = cubic_nls\n[grid]\nn = 128\n"
                       f"length = {length!r}\n[run]\ninitial = catalog\ncatalog_id = {name}\n"
                       "dt = 0.002\nt_final = 0.1\nsnapshot_stride = 10\n")
        assert main(["run", "--config", str(ini)]) == code
        if code == EXIT_USAGE:
            assert f"bad [run] catalog_id {name!r}" in capsys.readouterr().err

    def test_config_key_the_initial_does_not_read_is_usage_error(self, outdir, tmp_path,
                                                                 capsys):
        ini = tmp_path / "initial.ini"
        ini.write_text("[run]\ninitial = catalog\ncatalog_id = bessel_uniform\npsi0 = 5\n")
        assert main(["run", "--preset", "case1", "--config", str(ini)]) == EXIT_USAGE
        assert "psi0: not read by initial = catalog" in capsys.readouterr().err
        assert not (outdir / "run-case1").exists()


class TestFlagsPerCommand:
    """Each command accepts only the flags it reads; --jobs is accepted by all."""

    @pytest.mark.parametrize("command, flag", [
        ("run", "--detune"), ("run", "--threshold"), ("scan", "--threshold"),
        ("scan", "--detune"), ("verify", "--detune"), ("verify", "--threshold"),
        ("map-check", "--threshold")])
    def test_flag_the_command_does_not_read_is_usage_error(self, outdir, tmp_path, capsys,
                                                            command, flag):
        ini = tmp_path / "cfg.ini"
        ini.write_text(TINY_SCAN_INI if command == "scan" else STRUCTURED_INI)
        argv = [command, "--config", str(ini)] if command in ("run", "scan") else [command]
        assert main(argv + [flag, "0.1"]) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (outdir / command).exists()

    @pytest.mark.parametrize("command", ["verify", "map-check", "run", "scan"])
    def test_jobs_accepted_by_every_command(self, command):
        args = cli.build_parser().parse_args([command, "--jobs", "1"])
        assert (args.jobs, args.detune) == (1, None)


def _python(*args, **options):
    """sys.executable run on args with this checkout's src first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **options)


class TestStartup:
    def test_cli_import_leaves_the_heavy_scipy_packages_out(self):
        # scipy serves fft and special only; signal would pull in stats and optimize
        probe = ("import sys, svealab.cli; print(' '.join(sorted(m for m in "
                 "('scipy.signal', 'scipy.stats', 'scipy.optimize') if m in sys.modules)))")
        done = _python("-c", probe)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""

    def test_module_entry_point(self):
        done = _python("-m", "svealab", "--version")
        assert (done.returncode, done.stdout) == (0, "svealab 0.1.0\n")
        done = _python("-m", "svealab", "run", "--threshold", "1")
        assert done.returncode == EXIT_USAGE
        assert "--threshold" in done.stderr


class TestScanAlphas:
    @pytest.mark.parametrize("alphas", ["0", "0.1, abc", "0.1, -0.2", "nan"])
    def test_bad_alphas_are_usage_errors(self, outdir, tmp_path, capsys, alphas):
        ini = _write_ini(tmp_path / "scan.ini", TINY_SCAN_INI, "scan", alphas=alphas)
        assert main(["scan", "--config", str(ini), "--jobs", "1"]) == EXIT_USAGE
        assert "alphas" in capsys.readouterr().err


_RECORDED = json.loads((ROOT / "perfbench" / "digests.json").read_text())
_SAME_STACK = (_RECORDED["numpy"], _RECORDED["scipy"]) == (numpy.__version__, scipy.__version__)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _field_digest(sols, window) -> str:
    """sha256 of each solution's field on 2001 points over window at t = 0 and 0.4."""
    x = numpy.linspace(*window, 2001)
    digest = hashlib.sha256()
    for sol in sols:
        for t in (0.0, 0.4):
            digest.update(solutions.eval_solution(sol, x, t).tobytes())
    return digest.hexdigest()


_ENTRY_FIELDS = {
    "CUBIC_KG_SN": "3f03b82d8e74e66c70e5f401bb219f6d98b5daf8fe8dfd5c5dc8fa16b2df0fd7",
    "CUBIC_KG_CN": "311bc817518f4890dfb22aea7f2e955e33ea7d4ac7006f6ea5b14a16ed180664",
    "CUBIC_KG_DC": "398504aea39c0b746da07ad82e078a3c551955f06c9a7155acaa62e0d8e8834a",
    "CUBIC_NLS_SN": "5235c35b8fbfda2bb304f42bddd901ec2bc84a7003a0fe822c64be54146f0802",
    "CUBIC_NLS_CN": "0eb6914c4003d87be7c0df81043a5f7b274656f4c97206ea5bfaa8254f354a87",
    "CUBIC_NLS_DC": "2e808fe21b584e5730b9c87e6eafe62670e5744c822cf7c4fc10d4e018cece96",
    "DW_KG_KINK": "73ec5e0c2e998a990dbfc764c167fa2c9dd6a07666a270e0a6f74fa6ba2f6703",
    "DW_KG_SN": "8b7e2e60d7724f9d14572fa91aef70b6060d99c18d670554055bf78a51fc2174",
    "DW_KG_CN": "730e5c915c4d66a3341ccd4b0e5c7c423c567fabb948b6a35e1c883b54663cd1",
    "DW_KG_DC": "7c81075132e70f0ca7c9a108e3948dfd781f174ae4913d5e1c0bf7fa92c22ee0",
    "DW_KG_CONST": "22c82e76b26f2d40188f6cb7269add8141b4d0a7c7257bedcf8760b5afac7057",
    "DW_NLS_TANH": "a26dddf271b09c19827933e8d8080acfcac692943296a70bdacecf26554d4e05",
    "DW_NLS_SN": "8eab077575f3dcd1314d748f32e3c7cd95c4f994dae709f671e4c169a7e50805",
    "DW_NLS_CN": "2be2639b8498a845a0da3c4cfbc52f9f3958a3148768e9c6cf500c81a5094c14",
    "DW_NLS_DC": "0547843a64056e09be9f6f84cbabf7806be4eeab39a74bfbae5a690dff6fdf01",
    "DW_NLS_CONST": "22c82e76b26f2d40188f6cb7269add8141b4d0a7c7257bedcf8760b5afac7057",
    "CQ_KG_SN": "893cde956d7a2bd93611983fbe362e99ccf1c8c7a97de3e67481d0a98b4c896a",
    "CQ_NLS_SN": "1e50ccc0c8592d6fb35fa03e627e84004304a435af0ef9f481936d34b0a91155",
    "SG_KINK": "0bc8ff34bc48de2183b30d9807526402f9abb2e6ac5df01d7362dd1721e01e83",
    "SG_IMAG": "92ed8c1d6184c1adcf93a0873d0fc173a40d588ad00075bb4f1cb6afdcaa8283",
    "BESSEL_UNIFORM": "f8c3f53dc5c0e4d9ae2eebcdff61f86659156e332ea0a2851d9a8a474a7fa46e",
}

# keyed by (envelope entry, detune); each digest covers the static partner, then the envelope
_PAIR_FIELDS = {
    ("CUBIC_NLS_SN", 0.0): "8b275d89ee53f8a6a5d7a7479768dc134379c1532e93f42ffca433a0a32fab22",
    ("CUBIC_NLS_SN", 0.05): "030bf1ad198d695b055f2fb3d8b31677335b8f51920547dbefe54457c2b7720d",
    ("CUBIC_NLS_CN", 0.0): "e3ae31fff268edfa2228d3cfe02345a06f38b51282c324b44c9f2844d0167add",
    ("CUBIC_NLS_CN", 0.05): "1fdbdee619e24bf0338aa0ab9b05365d6fae34bd18b18b9cf77774c39e6fc310",
    ("CUBIC_NLS_DC", 0.0): "81cb7137e7ec66d3a3c134d9def537b52a67d150f386efdf008fcc95c3560d2e",
    ("CUBIC_NLS_DC", 0.05): "dded401c84dc7c8f982a0b0a232b60509d6d378c2c0fb88cd89ab5ee22a44b5d",
    ("DW_NLS_TANH", 0.0): "7003e1888c2b7df3b88f5368d5ea0c3ef98ec8aab3697f3ce3828b722bd457c4",
    ("DW_NLS_TANH", 0.05): "b80fdd69977ca484e96a64d685a0303129b511c75a04ba9aa7eea6191d69b403",
    ("DW_NLS_SN", 0.0): "e3914a771dd03b58c43d4a97c391f85f90d91aca5b7960a8f1bc1e78e76dc9df",
    ("DW_NLS_SN", 0.05): "5d9ccd2926da6367d934f6ec7157e103b7ff47cba940a05f7d9f63c65badee63",
    ("DW_NLS_CN", 0.0): "16fd0d50a8689a53e26357c055efa4f2e047d09bcbd3b6978d94a1f2c1a8f211",
    ("DW_NLS_CN", 0.05): "2146d33d349cf2cf43863c1b679805e9be4e19300c0df117900ae00571796cf8",
    ("DW_NLS_DC", 0.0): "c8844e677a937fa04cf302ed4d0c14604d3b933b7bb9de1f37b33dfe26318eaa",
    ("DW_NLS_DC", 0.05): "fa3cee587b43170b679acecee85e4795da69a3bb0e1d02f587ac9081107dc057",
    ("DW_NLS_CONST", 0.0): "744804e47baea58ccb211491a8c4951fa649ba9404249fb32a1e9c61073b6154",
    ("DW_NLS_CONST", 0.05): "88d8182ad2beddc794a03e4d38c183022e390bb2a6d086eb9cf69a5650f11c2a",
    ("CQ_NLS_SN", 0.0): "77e13349364faf37d6df64de1621928257554b3fd302636b5688e41fb5e75757",
    ("CQ_NLS_SN", 0.05): "1501c74dd67f7893f20d861dc0799ce9f96f48bc573c79fc44a5fa864d6a49ca",
}

_FIELDS_RECORDED = pytest.mark.skipif(not _SAME_STACK, reason=(
    f"field digests were recorded with numpy {_RECORDED['numpy']}, scipy {_RECORDED['scipy']}"))


class TestCatalogBytes:
    """The catalog's reports and fields are pinned byte for byte."""

    @pytest.mark.skipif(not _SAME_STACK, reason=(
        f"report digests were recorded with numpy {_RECORDED['numpy']}, "
        f"scipy {_RECORDED['scipy']}"))
    @pytest.mark.parametrize("argv, code, digest", [
        (["verify", "--preset", "verify-all"], EXIT_OK,
         "1e66fd6e4546f7c64f75ddce37a4aebdd5580633eb1375ca3972bca903bda6e3"),
        (["map-check", "--preset", "map-all"], EXIT_OK,
         "eeb423ed7a179888fe871b696ae77dc30a8b07cca89d7d7f96b92353cd033b4e"),
        (["map-check", "--preset", "map-all", "--detune", "0.05"], EXIT_CHECKS_FAILED,
         "0347bff124cdb09842097e9ad4eaccac078f2dcf01c31e796fe79c2b79b0ec5b"),
    ], ids=["verify-all", "map-all", "map-all-detuned"])
    def test_report(self, outdir, argv, code, digest):
        assert main(argv) == code
        report = outdir / f"{argv[0]}-{argv[2]}" / "report.txt"
        assert _sha256(report.read_bytes()) == digest

    @_FIELDS_RECORDED
    @pytest.mark.parametrize("sid", solutions.catalog_ids(), ids=lambda sid: sid.value)
    def test_entry_field(self, sid):
        sol = solutions.make_solution(sid)
        assert _field_digest([sol], sol.window) == _ENTRY_FIELDS[sid.value]

    @_FIELDS_RECORDED
    @pytest.mark.parametrize("detune", [0.0, 0.05])
    @pytest.mark.parametrize("pair", solutions.mapping_table(), ids=lambda pair: pair.nls_id.value)
    def test_pair_fields(self, pair, detune):
        fields = _field_digest(solutions.instantiate_pair(pair, detune), pair.window)
        assert fields == _PAIR_FIELDS[(pair.nls_id.value, detune)]


class TestCatalogCost:
    """verify-all and map-all evaluate each profile once per entry: the 20
    entries that do not travel on their tolerance grid only, SG_KINK once per
    grid, and each mapping row once per side."""

    def test_elliptic_and_eval_calls_per_pass(self, outdir, monkeypatch):
        calls = collections.Counter()

        def counted(module, name, points=False):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                if points:
                    calls[name + " points"] += numpy.size(args[0])
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        counted(solutions, "jacobi_elliptic")
        counted(solutions, "jacobi_dc")
        counted(specfn._sp, "ellipj", points=True)
        counted(verify, "eval_profile")
        counted(verify, "eval_solution")
        assert main(["verify", "--preset", "verify-all"]) == EXIT_OK
        assert main(["map-check", "--preset", "map-all"]) == EXIT_OK
        # one evaluation per time sample: 94 elliptic calls and 132 evaluations;
        # one per grid: 59 elliptic calls of 52,509 points and 81 evaluations
        assert calls["jacobi_elliptic"] + calls["jacobi_dc"] == 29
        assert calls["ellipj"] == 29
        assert calls["ellipj points"] == 15 * 2001 + 14 * 801 == 41_229
        # 20 tolerance grids, SG_KINK's 3 grids and 9 envelope rows; 9 static rows
        assert calls["eval_profile"] == 32
        assert calls["eval_solution"] == 9


class TestScanBytes:
    """The benchmark's short scan is pinned byte for byte."""

    @pytest.mark.skipif(not _SAME_STACK, reason=(
        f"scan digest was recorded with numpy {_RECORDED['numpy']}, "
        f"scipy {_RECORDED['scipy']}"))
    def test_scan_short_stability_table(self, outdir):
        assert main(["scan", "--config", str(SCAN_SHORT_INI), "--jobs", "1"]) == EXIT_OK
        table = (outdir / "scan" / "stability.csv").read_bytes()
        assert _sha256(table) == _RECORDED["workloads"]["scan-short"]["scan/stability.csv"]
        assert _sha256(table) == \
            "4a057e20cbd6474631363930007e22fc2e48de1853213ccdf9b92564f9474af7"
