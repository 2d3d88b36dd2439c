"""Hostile values for every config key and flag end in an exit code, never a traceback.

Each (section, key) a command reads, [model] lambda and omega, and the
--threshold, --detune and --jobs flags are tried with every value of POOL on a
tiny base config per command, through cli.main in process.  Exit 2 must print
"error:" and leave no output directory behind; exit 3 must print "diverged:".
A RuntimeWarning escaping main fails the case too (pytest turns it into an
error).
"""

import pytest

from svealab.cli import COMMAND_SECTIONS, EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, SECTION_KEYS, main

POOL = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "", "abc", "1,,2")

_MODEL = {"family": "bessel_nls", "lambda": "1.0", "omega": "1.0"}

# About 10 steps at n=64 for a run, n=16 for the scan.
BASE = {
    "run": {"model": _MODEL, "grid": {"n": "64", "length": "20.0"},
            "run": {"initial": "sech", "psi0": "2.0", "dt": "0.01", "t_final": "0.1",
                    "snapshot_stride": "5"}},
    "scan": {"model": _MODEL,
             "scan": {"alphas": "0.5", "psi0_lo": "1.0", "psi0_hi": "3.0",
                      "psi0_samples": "3", "refine_iters": "1", "n": "16", "length": "48.0",
                      "dt": "0.02", "t_final": "0.2", "snapshot_stride": "5"}},
    "verify": {"verify": {"n_points": "101"}},
    "map-check": {"map": {"n_points": "11", "t_samples": "0, 1"}},
}

# [run] keys that only another kind of initial condition reads.
_INITIAL_FOR = {"width": "supergaussian", "order": "supergaussian", "catalog_id": "catalog"}

FLAGS = [("verify", "--threshold"), ("map-check", "--threshold"), ("map-check", "--detune")] + \
    [(command, "--jobs") for command in COMMAND_SECTIONS]


def _config_cases():
    for command, sections in COMMAND_SECTIONS.items():
        for section in sections:
            keys = ("lambda", "omega") if section == "model" else sorted(SECTION_KEYS[section])
            for key in keys:
                for value in POOL:
                    yield pytest.param(command, section, key, value,
                                       id=f"{command}-{section}-{key}-{value!r}")


def _ini_text(settings):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for name, kv in settings.items())


def _check(tmp_path, capsys, command, settings, flags=()):
    ini = tmp_path / "cfg.ini"
    ini.write_text(_ini_text(settings))
    out = tmp_path / "out"
    code = main([command, "--config", str(ini), "--output", str(out), *flags])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code == EXIT_USAGE:
        assert "error:" in err
        assert not out.exists(), sorted(p.name for p in out.rglob("*"))
    if code == EXIT_DIVERGED:
        assert "diverged:" in err


@pytest.mark.parametrize("command, section, key, value", list(_config_cases()))
def test_config_value(tmp_path, capsys, command, section, key, value):
    settings = {name: dict(kv) for name, kv in BASE[command].items()}
    settings.setdefault(section, {})[key] = value
    if section == "run" and key in _INITIAL_FOR:
        settings["run"]["initial"] = _INITIAL_FOR[key]
    _check(tmp_path, capsys, command, settings)


@pytest.mark.parametrize("command, flag", FLAGS)
@pytest.mark.parametrize("value", POOL, ids=repr)
def test_flag_value(tmp_path, capsys, command, flag, value):
    _check(tmp_path, capsys, command, BASE[command], [flag, value])


# Values that used to end in a traceback or a RuntimeWarning, and how each ends.
@pytest.mark.parametrize("command, section, key, value, code", [
    ("run", "model", "lambda", "1e308", EXIT_USAGE),
    ("scan", "model", "lambda", "1e308", EXIT_USAGE),
    ("run", "analysis", "min_separation", "1e308", EXIT_OK),
    ("run", "grid", "length", "1e308", EXIT_OK),
    ("run", "grid", "length", "1e-320", EXIT_USAGE),
    ("run", "run", "alpha", "inf", EXIT_USAGE),
    ("run", "run", "alpha", "1e308", EXIT_OK),
    ("scan", "scan", "alphas", "1e308", EXIT_OK),
    ("scan", "scan", "length", "1e308", EXIT_OK),
    ("scan", "scan", "psi0_hi", "inf", EXIT_USAGE),
    ("map-check", None, "--detune", "-1", EXIT_USAGE),
    ("map-check", None, "--detune", "1e308", EXIT_USAGE),
])
def test_found_value(tmp_path, capsys, command, section, key, value, code):
    settings = {name: dict(kv) for name, kv in BASE[command].items()}
    flags = [] if section else [key, value]
    if section:
        settings.setdefault(section, {})[key] = value
    ini = tmp_path / "cfg.ini"
    ini.write_text(_ini_text(settings))
    assert main([command, "--config", str(ini), "--output", str(tmp_path / "out"),
                 *flags]) == code
    if code == EXIT_USAGE:
        assert key.lstrip("-") in capsys.readouterr().err
