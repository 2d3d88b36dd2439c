"""Command-line entry points: exit codes, artifacts, determinism."""

import configparser
import hashlib
import json
import re
from pathlib import Path

import numpy
import pytest
import scipy

from svealab import cli
from svealab.analysis import ScanTemplate
from svealab.cli import (EXIT_CHECKS_FAILED, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, PRESETS,
                         SECTION_KEYS, _get, _model_from, load_settings, main)
from svealab.models import Family, ModelSpec
from svealab.solutions import catalog_dump
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

ROOT = Path(__file__).resolve().parents[1]
SCAN_SHORT_INI = ROOT / "perfbench" / "configs" / "scan_short.ini"


def _sections(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _write_ini(path, text, section="run", **values):
    sections = _sections(text)
    sections[section].update({k: str(v) for k, v in values.items()})
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_scan_jobs_below_one_is_usage_error(self, outdir, tmp_path, capsys, jobs):
        ini = tmp_path / "scan.ini"
        ini.write_text(TINY_SCAN_INI)
        assert main(["scan", "--config", str(ini), "--jobs", jobs]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not (outdir / "scan").exists()

    @pytest.mark.parametrize("command, section, n_points, minimum", [
        ("verify", "verify", 3, 5), ("verify", "verify", -4, 5),
        ("map-check", "map", 1, 2), ("map-check", "map", 0, 2),
    ])
    def test_grid_below_the_stencil_is_usage_error(self, outdir, tmp_path, capsys,
                                                   command, section, n_points, minimum):
        ini = tmp_path / "small.ini"
        ini.write_text(f"[{section}]\nn_points = {n_points}\n")
        assert main([command, "--config", str(ini)]) == EXIT_USAGE
        assert f"at least {minimum}" in capsys.readouterr().err


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



class TestManifest:
    """manifest.txt holds what a rerun needs: the flags and the merged settings."""

    def test_scan_manifest(self, outdir, tmp_path):
        ini = _write_ini(tmp_path / "scan.ini", TINY_SCAN_INI, "scan", refine_iters=1)
        assert main(["scan", "--config", str(ini), "--jobs", "2"]) == EXIT_OK
        text = (outdir / "scan" / "manifest.txt").read_text()
        assert f"config: {ini}\n" in text
        for line in ("jobs: 2", "threshold: None", "detune: None", "[model]",
                     "family = bessel_nls", "[scan]", "alphas = 0.5", "refine_iters = 1"):
            assert line + "\n" in text, line

    def test_map_check_manifest(self, outdir, tmp_path):
        ini = tmp_path / "map.ini"
        ini.write_text("[map]\nt_samples = 0, 2\n")
        argv = ["map-check", "--preset", "map-all", "--config", str(ini),
                "--detune", "0.05", "--threshold", "1e-3"]
        assert main(argv) == EXIT_CHECKS_FAILED
        text = (outdir / "map-check-map-all" / "manifest.txt").read_text()
        # preset -> config -> flags: the file's t_samples and the flag's tolerance win
        for line in ("jobs: 1", "threshold: 0.001", "detune: 0.05", "[map]",
                     "tolerance = 0.001", "t_samples = 0, 2", "n_points = 801"):
            assert line + "\n" in text, line


class TestVerifyArtifacts:
    def test_report_written(self, outdir):
        assert main(["verify", "--preset", "verify-all"]) == EXIT_OK
        out = outdir / "verify-verify-all"
        assert (out / "report.txt").exists()
        assert "PASS" in (out / "report.txt").read_text()


class TestConfigSchema:
    """Every section and key is checked; nothing is silently ignored."""

    @pytest.mark.parametrize("section, key", [("run", "psi_0"), ("run", "dealias"),
                                              ("grid", "lenght"), ("scan", "alpha")])
    def test_unknown_key_is_usage_error(self, outdir, tmp_path, capsys, section, key):
        text = STRUCTURED_INI if section != "scan" else TINY_SCAN_INI
        ini = _write_ini(tmp_path / "typo.ini", text, section, **{key: "1"})
        command = "scan" if section == "scan" else "run"
        assert main([command, "--config", str(ini)]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not (outdir / command).exists()

    def test_unknown_section_is_usage_error(self, outdir, tmp_path, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text(STRUCTURED_INI + "\n[analyss]\nwindow = 0.5\n")
        assert main(["run", "--config", str(ini)]) == EXIT_USAGE
        assert "[analyss]" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_accepted(self, name):
        assert load_settings(name, None) == PRESETS[name]

    @pytest.mark.parametrize("text", [DIVERGENT_INI, TINY_SCAN_INI, STRUCTURED_INI,
                                      SCAN_SHORT_INI.read_text()],
                             ids=["divergent", "tiny-scan", "structured", "scan-short"])
    def test_shipped_configs_accepted(self, tmp_path, text):
        ini = tmp_path / "shipped.ini"
        ini.write_text(text)
        assert load_settings(None, str(ini)) == _sections(text)

    def test_amplitude_override_on_a_preset_accepted(self, tmp_path):
        # the form the benchmark writes: a lone [run] psi0 on top of case1
        ini = tmp_path / "psi0.ini"
        ini.write_text("[run]\npsi0 = 14.25\n\n")
        assert load_settings("case1", str(ini))["run"]["psi0"] == "14.25"

    def test_table_lists_exactly_the_keys_read(self):
        read = set(re.findall(r'_get\(settings, "(\w+)", "(\w+)"', Path(cli.__file__).read_text()))
        listed = {(section, key) for section, keys in SECTION_KEYS.items() if keys
                  for key in keys}
        assert read == listed


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


class TestCatalogBytes:
    """The catalog's reports are pinned byte for byte."""

    def test_catalog_dump(self):
        assert _sha256(catalog_dump().encode("utf-8")) == \
            "a5c49f00cb4cd4a07d9cea6b18d96e59819ae0970207702e06189584c4270c24"

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
