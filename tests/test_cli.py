"""Command-line entry points: exit codes, artifacts, determinism."""

import configparser
from pathlib import Path

import pytest

from svealab.analysis import ScanTemplate
from svealab.cli import (EXIT_CHECKS_FAILED, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, PRESETS,
                         _get, _model_from, main)
from svealab.models import Family, ModelSpec
from svealab.solver import RunConfig


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

SCAN_SHORT_INI = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "scan_short.ini"


def _sections(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _write_ini(path, text, **run):
    sections = _sections(text)
    sections["run"].update({k: str(v) for k, v in run.items()})
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                            for name, kv in sections.items()))
    return path


class TestExitCodes:
    def test_verify_all_passes(self, outdir):
        assert main(["verify", "--preset", "verify-all"]) == EXIT_OK

    def test_verify_impossible_threshold_fails(self, outdir):
        assert main(["verify", "--preset", "verify-all",
                     "--threshold", "1e-30"]) == EXIT_CHECKS_FAILED

    def test_map_check_passes(self, outdir):
        assert main(["map-check", "--preset", "map-all"]) == EXIT_OK

    def test_map_check_detuned_fails(self, outdir):
        assert main(["map-check", "--preset", "map-all",
                     "--detune", "0.05"]) == EXIT_CHECKS_FAILED

    def test_missing_config_is_usage_error(self, outdir):
        assert main(["run", "--config", "/nonexistent/path.ini"]) == EXIT_USAGE

    def test_unknown_preset_is_usage_error(self, outdir):
        assert main(["run", "--preset", "no-such-case"]) == EXIT_USAGE

    def test_malformed_ini_is_usage_error(self, outdir, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[model\nfamily=cubic_nls\n")
        assert main(["run", "--config", str(bad)]) == EXIT_USAGE

    def test_version_exits_clean(self):
        assert main(["--version"]) == 0

    def test_zero_field_run_is_usage_error(self, outdir, tmp_path):
        ini = _write_ini(tmp_path / "zero.ini", STRUCTURED_INI, psi0=0.0)
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE

    def test_horizon_off_the_step_grid_is_usage_error(self, outdir, tmp_path):
        ini = _write_ini(tmp_path / "short.ini", STRUCTURED_INI, dt=0.3, t_final=1.0)
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE


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


class TestShippedHorizons:
    """Every shipped t_final is a whole number of steps dt."""

    @pytest.mark.parametrize("name, settings", list(_run_configs()))
    def test_run_config_accepted(self, name, settings):
        cfg = RunConfig(_model_from(settings), dt=_get(settings, "run", "dt", float, 1e-3),
                        t_final=_get(settings, "run", "t_final", float, 30.0))
        assert cfg.n_steps * cfg.dt == pytest.approx(cfg.t_final, rel=1e-12)

    @pytest.mark.parametrize("name, settings", list(_scan_configs()))
    def test_scan_config_accepted(self, name, settings):
        RunConfig(_model_from(settings), dt=_get(settings, "scan", "dt", float, 2e-3),
                  t_final=_get(settings, "scan", "t_final", float, 90.0))

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


class TestRunArtifacts:
    def test_uniform_preset_writes_bundle(self, outdir):
        assert main(["run", "--preset", "uniform3"]) == EXIT_OK
        out = outdir / "run-uniform3"
        for name in ("manifest.txt", "diagnostics.csv", "trajectory.txt",
                     "analysis.txt", "tracks.csv"):
            assert (out / name).exists(), name
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


class TestVerifyArtifacts:
    def test_report_written(self, outdir):
        assert main(["verify", "--preset", "verify-all"]) == EXIT_OK
        out = outdir / "verify-verify-all"
        assert (out / "report.txt").exists()
        assert "PASS" in (out / "report.txt").read_text()
