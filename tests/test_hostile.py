"""Hostile values for every config key and flag end in an exit code, never a traceback.

Each (section, key) a command reads, [model] lambda and omega, and the
--threshold, --detune and --jobs flags are tried with every value of POOL on a
tiny base config per command, through cli.main in process; a hypothesis test
then sets two or three keys of one command at once.  Exit 2 must print
"error:" and leave no output directory behind; exit 3 must print "diverged:".
A RuntimeWarning escaping main fails the case too (pytest turns it into an
error).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _keys(command):
    """The (section, key) pairs command reads, [model] lambda and omega included."""
    return [(section, key) for section in COMMAND_SECTIONS[command]
            for key in (("lambda", "omega") if section == "model"
                        else sorted(SECTION_KEYS[section]))]


def _config_cases():
    for command in COMMAND_SECTIONS:
        for section, key in _keys(command):
            for value in POOL:
                yield pytest.param(command, section, key, value,
                                   id=f"{command}-{section}-{key}-{value!r}")


def _ini_text(settings):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for name, kv in settings.items())


def _with(command, changes):
    """BASE[command] with each (section, key, value) of changes set, and the
    initial condition a [run] shape key needs unless changes set one."""
    settings = {name: dict(kv) for name, kv in BASE[command].items()}
    keys = {key for _, key, _ in changes}
    for section, key, value in changes:
        settings.setdefault(section, {})[key] = value
        if section == "run" and key in _INITIAL_FOR and "initial" not in keys:
            settings["run"]["initial"] = _INITIAL_FOR[key]
    return settings


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
    _check(tmp_path, capsys, command, _with(command, [(section, key, value)]))


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
    ("run", "model", "omega", "1e-320", EXIT_USAGE),
    ("scan", "model", "omega", "1e-320", EXIT_USAGE),
    *[(command, "model", key, value, EXIT_USAGE) for command in ("run", "scan")
      for key in ("lambda", "omega") for value in ("abc", "", "1,,2")],
    *[(command, "model", "lambda", value, EXIT_USAGE) for command in ("run", "scan")
      for value in ("nan", "inf", "-inf")],
    ("run", "run", "width", "nan", EXIT_USAGE),
    ("run", "run", "width", "inf", EXIT_USAGE),
    ("scan", "scan", "alphas", "1e-320", EXIT_USAGE),
])
def test_found_value(tmp_path, capsys, command, section, key, value, code):
    settings = _with(command, [(section, key, value)] if section else [])
    flags = [] if section else [key, value]
    ini = tmp_path / "cfg.ini"
    ini.write_text(_ini_text(settings))
    assert main([command, "--config", str(ini), "--output", str(tmp_path / "out"),
                 *flags]) == code
    if code == EXIT_USAGE:
        assert key.lstrip("-") in capsys.readouterr().err


# Key pairs that used to end in a RuntimeWarning or an error naming neither key.
@pytest.mark.parametrize("changes, named", [
    ({"run": {"psi0": "inf", "alpha": "1e308"}}, "psi0"),
    ({"run": {"psi0": "inf", "initial": "supergaussian", "width": "1e-320"}}, "psi0"),
    # D = 5e307 is finite; D*dt*k**2 is not at this grid's largest |k|
    ({"model": {"omega": "1e-308"}, "grid": {"length": "5.0"}}, "omega"),
], ids=["sech-psi0-alpha", "supergaussian-psi0-width", "omega-length"])
def test_found_pair(tmp_path, capsys, changes, named):
    settings = _with("run", [(section, key, value) for section, kv in changes.items()
                             for key, value in kv.items()])
    ini = tmp_path / "cfg.ini"
    ini.write_text(_ini_text(settings))
    out = tmp_path / "out"
    assert main(["run", "--config", str(ini), "--output", str(out)]) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()


# The in-range values drawn alongside POOL by the key-set test.
_IN_RANGE = ("0.5", "2", "16")


@st.composite
def _key_sets(draw):
    command = draw(st.sampled_from(sorted(COMMAND_SECTIONS)))
    keys = draw(st.lists(st.sampled_from(_keys(command)), min_size=2, max_size=3, unique=True))
    return command, [(section, key, draw(st.sampled_from(POOL + _IN_RANGE)))
                     for section, key in keys]


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_key_sets())
def test_config_key_set(capsys, case):
    command, changes = case
    with tempfile.TemporaryDirectory() as tmp:
        _check(Path(tmp), capsys, command, _with(command, changes))
