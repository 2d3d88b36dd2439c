"""Hostile values for every config key and flag end in an exit code, never a traceback.

Each (section, key) a command reads, [model] lambda and omega, and the
--jobs flag are tried with every value of POOL on a tiny base config per
command, through cli.main in process; so are the keys and the flags in
UNREAD, which no command reads and each of which must exit 2.  A
hypothesis test then sets two or three keys of run or scan at once, another
edits the raw bytes of a valid config file (a refusal is one stderr line),
and a third draws in-range values for every key of every command, which must
run: exit 0 or 1 for the checks, 0 or 3 for run and scan (a catalog run's
grid holds a whole number of the entry's x-periods).  Exit 2 must print one
stderr line starting "error:" and leave no output directory behind; exit 3
must print "diverged:".
A RuntimeWarning escaping main fails the case too (pytest turns it into an
error).
"""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from svealab.cli import (COMMAND_SECTIONS, EXIT_CHECKS_FAILED, EXIT_DIVERGED, EXIT_OK,
                         EXIT_USAGE, INITIALS, SECTION_KEYS, main)
from svealab.models import Family
from svealab.solutions import catalog_ids, make_solution, model_for, _x_period

POOL = ("nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", "", "abc", "1,,2")

# Sizes refused before any page is touched: 2**57 and 2**62.
OVERSIZED = (str(2 ** 57), str(2 ** 62))

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
    "verify": {"verify": {}},
    "map-check": {"map": {}},
}

# [run] keys that only another kind of initial condition reads.
_INITIAL_FOR = {"width": "supergaussian", "order": "supergaussian", "catalog_id": "catalog"}

# Keys and flags that configs and scripts written for earlier versions may
# still carry; no command reads them, so each is refused like a typo.
UNREAD = {("run", "analysis", "threshold"), ("run", "analysis", "window"),
          ("verify", "verify", "n_points"), ("map-check", "map", "n_points"),
          ("map-check", "map", "t_samples"),
          ("verify", None, "--threshold"), ("map-check", None, "--threshold"),
          *((command, None, "--detune") for command in COMMAND_SECTIONS)}

FLAGS = sorted((command, flag) for command, section, flag in UNREAD if section is None) + \
    [(command, "--jobs") for command in COMMAND_SECTIONS]


def _keys(command):
    """The (section, key) pairs command reads, [model] lambda and omega included."""
    return [(section, key) for section in COMMAND_SECTIONS[command]
            for key in (("lambda", "omega") if section == "model"
                        else sorted(SECTION_KEYS[section]))]


def _config_cases():
    for command in COMMAND_SECTIONS:
        unread = sorted((s, k) for c, s, k in UNREAD if c == command and s is not None)
        for section, key in _keys(command) + unread:
            for value in POOL:
                yield pytest.param(command, section, key, value,
                                   id=f"{command}-{section}-{key}-{value!r}")


def _ini_text(settings):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                   for name, kv in settings.items())


def _with(command, changes):
    """BASE[command] with each (section, key, value) of changes set, and the
    initial condition a [run] shape key needs unless changes set one; BASE's
    psi0 goes when the initial is a catalog entry, which does not read it."""
    settings = {name: dict(kv) for name, kv in BASE[command].items()}
    keys = {key for _, key, _ in changes}
    for section, key, value in changes:
        settings.setdefault(section, {})[key] = value
        if section == "run" and key in _INITIAL_FOR and "initial" not in keys:
            settings["run"]["initial"] = _INITIAL_FOR[key]
    if settings.get("run", {}).get("initial") == "catalog" and "psi0" not in keys:
        del settings["run"]["psi0"]
    return settings


def _check(tmp_path, capsys, command, settings, flags=()):
    """Run command on settings and flags; check how it ended and return
    (exit code, stderr)."""
    return _check_file(tmp_path, capsys, command, _ini_text(settings).encode(), flags)


def _check_file(tmp_path, capsys, command, data, flags=()):
    """_check on a config file holding the bytes data."""
    ini = tmp_path / "cfg.ini"
    ini.write_bytes(data)
    out = tmp_path / "out"
    code = main([command, "--config", str(ini), "--output", str(out), *flags])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code == EXIT_USAGE:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err
        assert not out.exists(), sorted(p.name for p in out.rglob("*"))
    if code == EXIT_DIVERGED:
        assert "diverged:" in err
    return code, err


@pytest.mark.parametrize("command, section, key, value", list(_config_cases()))
def test_config_value(tmp_path, capsys, command, section, key, value):
    code, err = _check(tmp_path, capsys, command, _with(command, [(section, key, value)]))
    if (command, section, key) in UNREAD:
        assert code == EXIT_USAGE and f"unknown key(s) {key!r} in [{section}]" in err


@pytest.mark.parametrize("command, flag", FLAGS)
@pytest.mark.parametrize("value", POOL, ids=repr)
def test_flag_value(tmp_path, capsys, command, flag, value):
    code, err = _check(tmp_path, capsys, command, BASE[command], [flag, value])
    if (command, None, flag) in UNREAD:
        assert code == EXIT_USAGE and flag in err


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
    ("scan", "scan", "length", "-1", EXIT_USAGE),
    ("scan", "scan", "length", "0", EXIT_USAGE),
    ("scan", "scan", "psi0_hi", "inf", EXIT_USAGE),
    ("map-check", "map", "detune", "-1", EXIT_USAGE),
    ("map-check", "map", "detune", "1e308", EXIT_USAGE),
    ("run", "model", "omega", "1e-320", EXIT_USAGE),
    ("scan", "model", "omega", "1e-320", EXIT_USAGE),
    *[(command, "model", key, value, EXIT_USAGE) for command in ("run", "scan")
      for key in ("lambda", "omega") for value in ("abc", "", "1,,2")],
    *[(command, "model", "lambda", value, EXIT_USAGE) for command in ("run", "scan")
      for value in ("nan", "inf", "-inf")],
    ("run", "run", "width", "nan", EXIT_USAGE),
    ("run", "run", "width", "inf", EXIT_USAGE),
    ("scan", "scan", "alphas", "1e-320", EXIT_USAGE),
    ("scan", "scan", "alphas", "1,,2", EXIT_USAGE),  # an empty item is not a number
    # a size no array can have: 2**57 float64 values are 1 EiB, past every
    # 64-bit user address space, and 2**62 is past numpy's own size limit, so
    # neither touches a page
    *[pytest.param(command, section, key, value, EXIT_USAGE,
                   id=f"oversized-{command}-{section}-{key}-{value}")
      for command, section, key in (("run", "grid", "n"), ("scan", "scan", "n"),
                                    ("scan", "scan", "psi0_samples"))
      for value in OVERSIZED],
])
def test_found_value(tmp_path, capsys, command, section, key, value, code):
    got, err = _check(tmp_path, capsys, command, _with(command, [(section, key, value)]))
    assert got == code
    if code == EXIT_USAGE:
        assert key in err
        assert len(err.splitlines()) == 1, err
    if value in OVERSIZED:
        assert f"{key}={value} is too large to allocate" in err


# The tanh row's envelope c is 1 + detune: at 1e154 its phase rate overflows
# to inf, and at 1e155 c**2 raises OverflowError, whose own text is an errno
# tuple.
@pytest.mark.parametrize("detune, reason", [("1e154", "its phase rate is not finite"),
                                            ("1e155", "a parameter overflows")])
def test_detune_out_of_domain_says_why(tmp_path, capsys, detune, reason):
    code, err = _check(tmp_path, capsys, "map-check", {"map": {"detune": detune}})
    assert code == EXIT_USAGE  # _check has found no output directory
    assert f"error: detune={float(detune)!r} takes DW_NLS_TANH out of its domain: " \
        f"{reason}\n" in err


# Config files that used to end in a configparser traceback (a % read as
# interpolation), or whose [DEFAULT] keys were dropped (exit 0 on a verify
# they should fail) or copied into every section (an error naming another).
@pytest.mark.parametrize("command, settings, named", [
    ("verify", {"verify": {"tolerance": "1%"}}, "[verify] tolerance: '1%'"),
    ("verify", {"verify": {"tolerance": "%(x)s"}}, "[verify] tolerance: '%(x)s'"),
    ("run", _with("run", [("run", "dt", "1e-3%")]), "[run] dt: '1e-3%'"),
    ("verify", {"DEFAULT": {"tolerance": "1e-30"}}, "tolerance in [DEFAULT]"),
    ("verify", {"DEFAULT": {"t": "1"}, "verify": {"tolerance": "1e-6"}}, "t in [DEFAULT]"),
    ("run", {"DEFAULT": {"psi0": "3.0"}, **BASE["run"]}, "psi0 in [DEFAULT]"),
], ids=["percent", "interpolation", "run-percent", "default-alone", "default-leaking",
        "default-run"])
def test_config_file_rules(tmp_path, capsys, command, settings, named):
    code, err = _check(tmp_path, capsys, command, settings)
    assert code == EXIT_USAGE and len(err.splitlines()) == 1, err
    # and names no section a [DEFAULT] key would have been copied into
    assert named in err and "[verify]" not in err.replace(named, "")


# File layouts configparser refuses, whose message spans lines and used to
# name '<string>'; a leading byte-order mark, which used to be refused too;
# and a key holding a NUL byte, which the terminal hides unless repr'd.
@pytest.mark.parametrize("text, code, named", [
    ("\ufeff[verify]\ntolerance = 1e-6\n", EXIT_OK, None),
    ("tolerance = 1e-6\n[verify]\n", EXIT_USAGE, "cannot parse"),
    ("[verify\ntolerance = 1e-6\n", EXIT_USAGE, "cannot parse"),
    ("[verify]\ntolerance\n", EXIT_USAGE, "cannot parse"),
    ("[verify]\n= 1e-6\n", EXIT_USAGE, "cannot parse"),
    ("[verify]\ntoler\x00ance = 1e-6\n", EXIT_USAGE, r"unknown key(s) 'toler\x00ance'"),
], ids=["byte-order-mark", "key-before-section", "unclosed-header", "key-without-equals",
        "empty-key", "nul-in-key"])
def test_config_file_layout(tmp_path, capsys, text, code, named):
    ini = tmp_path / "layout.ini"
    ini.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(ini), "--output", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_OK:
        assert err == ""
        return
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert named in err and "<string>" not in err
    if named == "cannot parse":  # configparser's own text names the file too
        assert f"cannot parse {ini}: " in err and repr(str(ini)) in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(COMMAND_SECTIONS))
def test_unreadable_config_file(tmp_path, capsys, monkeypatch, command):
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, err = _check(tmp_path, capsys, command, BASE[command])
    assert code == EXIT_USAGE and len(err.splitlines()) == 1, err
    assert "cannot read" in err and "Permission denied" in err


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs Linux /proc")
def test_config_file_whose_read_fails(tmp_path, capsys):
    # a regular file whose read(2) fails with EIO at offset 0
    out = tmp_path / "out"
    assert main(["verify", "--config", "/proc/self/mem", "--output", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "cannot read /proc/self/mem" in err, err
    assert not out.exists()


# Key pairs that used to end in a RuntimeWarning or an error naming neither key.
@pytest.mark.parametrize("changes, named", [
    pytest.param({"run": {"psi0": "inf", "alpha": "1e308"}}, "psi0", id="sech-psi0-alpha"),
    pytest.param({"run": {"psi0": "inf", "initial": "supergaussian", "width": "1e-320"}},
                 "psi0", id="supergaussian-psi0-width"),
    # D = 5e307 is finite; D*dt*k**2 is not at this grid's largest |k|
    pytest.param({"model": {"omega": "1e-308"}, "grid": {"length": "5.0"}}, "omega",
                 id="omega-length"),
    # the double-well shift mass**2/lambda divides by lambda and squares mass
    pytest.param({"model": {"family": "double_well_nls", "lambda": "0"}}, "lambda",
                 id="double-well-lambda-0"),
    pytest.param({"model": {"family": "double_well_nls", "mass": "1e200"}}, "mass",
                 id="double-well-mass-1e200"),
    # each psi0 leaves the base grid's power n*sum|psi|^2 at 0 or at infinity
    *[pytest.param({"run": {"initial": initial, "psi0": psi0}}, "psi0",
                   id=f"{initial}-psi0-{psi0}")
      for initial in ("sech", "uniform", "supergaussian")
      for psi0 in ("0", "1e-320", "1e-170", "1e154", "1e308")],
    # a power sum of subnormal squares, whose rounding alone tripped the
    # unitarity guard at t = 0.004: exit 3 where a refusal was due
    pytest.param({"grid": {"n": "256", "length": "40"},
                  "run": {"psi0": "1e-158", "alpha": "1", "dt": "1e-3", "t_final": "0.05"}},
                 "psi0", id="sech-psi0-under-the-power-floor"),
    # an envelope entry the base grid (length 20) cannot hold: one with no
    # x-period, and CUBIC_NLS_SN, whose period 4K(0.6) = 7.798 does not divide 20
    *[pytest.param({"run": {"initial": "catalog", "catalog_id": name}}, "catalog_id",
                   id=f"catalog-{name}")
      for name in ("dw_nls_tanh", "cubic_nls_dc", "dw_nls_dc", "cubic_nls_sn")],
    # a shape key the chosen initial does not read, which used to go unread
    *[pytest.param({"run": {"initial": initial, key: value, **extra}}, key,
                   id=f"{initial}-{key}")
      for initial, extra in (("catalog", {"catalog_id": "bessel_uniform"}),
                             ("sech", {}), ("supergaussian", {}), ("uniform", {}))
      for key, value in (("psi0", "5"), ("alpha", "3"), ("width", "2"), ("order", "4"),
                         ("catalog_id", "bessel_uniform"))
      if key not in INITIALS[initial][1]],
])
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
    # verify and map-check read one key each, so only run and scan have sets
    command = draw(st.sampled_from(["run", "scan"]))
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


# --- edited file text --------------------------------------------------------

# A valid config per command whose run takes milliseconds; verify and
# map-check read one key each.
_FILES = {**{command: _ini_text(BASE[command]).encode() for command in ("run", "scan")},
          "verify": b"[verify]\ntolerance = 1e-6\n", "map-check": b"[map]\ntolerance = 1e-6\n"}

# Bytes inserted anywhere: a tab, NUL, a stray bracket or equals sign, a
# percent sign, and bytes that are not UTF-8 (a stray continuation byte, a
# lead byte without its continuation, a truncated sequence).
_INSERTED = (b"\t", b"\x00", b"[", b"]", b"=", b"%", b"\xff", b"\xc3(", b"\xe2\x82")

# Edits of the whole text: a byte-order mark, CR or CRLF line ends, no text.
_WHOLE = {"bom": lambda data: b"\xef\xbb\xbf" + data,
          "cr": lambda data: data.replace(b"\n", b"\r"),
          "crlf": lambda data: data.replace(b"\n", b"\r\n"),
          "empty": lambda data: b""}


@st.composite
def _edited_files(draw):
    """A command and its valid config with one to three edits of the raw
    bytes: an insertion, leading blanks (a continuation line), a line
    duplicated (a second header or key), or an edit of the whole text."""
    command = draw(st.sampled_from(sorted(_FILES)))
    data = _FILES[command]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "indent", "duplicate", "whole"]))
        lines = data.splitlines(keepends=True)
        if kind == "insert" or not lines:
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(_INSERTED)) + data[at:]
        elif kind == "indent":
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = draw(st.sampled_from([b" ", b"    ", b"\t"])) + lines[k]
            data = b"".join(lines)
        elif kind == "duplicate":
            line = lines[draw(st.integers(0, len(lines) - 1))]
            lines.insert(draw(st.integers(0, len(lines))), line)
            data = b"".join(lines)
        else:
            data = _WHOLE[draw(st.sampled_from(sorted(_WHOLE)))](data)
    return command, data


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_edited_files())
def test_edited_config_text(capsys, case):
    # whatever the edit, the command runs or is refused on one line
    command, data = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _check_file(Path(tmp), capsys, command, data)
    if code == EXIT_USAGE:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (data, err)


# --- in-range values ---------------------------------------------------------

_NLS = [family for family in Family if family.is_nls]
_DC_ENTRIES = {sid.value for sid in catalog_ids() if sid.value.endswith("_DC")}


def _period(sid):
    """The entry's x-period, which a catalog run's grid must hold a whole
    number of; None for a static KG field, which is refused."""
    sol = make_solution(sid)
    return _x_period(sol) if model_for(sol).family.is_nls else None


# Entries with no period (found_pair cases) and KG entries are refused, so
# none is drawn here.
_PERIODS = {sid.value: period for sid in catalog_ids()
            if (period := _period(sid)) is not None and math.isfinite(period)}


def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


def _optional(strategy):
    """A key left out, so the library's default applies, or a drawn value."""
    return st.one_of(st.none(), strategy)


@st.composite
def _horizon(draw):
    """dt, a t_final of at most 20 steps of it, and a snapshot stride."""
    dt = draw(st.sampled_from([1e-3, 5e-3, 1e-2]))
    return {"dt": repr(dt), "t_final": repr(draw(st.integers(1, 20)) * dt),
            "snapshot_stride": str(draw(st.integers(1, 20)))}


def _model(family):
    couplings = {"omega": _number(0.5, 2.0), "mass": _number(0.0, 2.0),
                 "sigma": _number(0.5, 2.0)}
    return st.fixed_dictionaries(
        {"family": st.just(family.value), "lambda": st.sampled_from(["-1", "0.5", "1", "2"]),
         **{key: couplings[key] for key in family.law.couplings}})


# The [run] keys each kind of initial condition reads (any other is refused);
# catalog needs its id.
_PSI0 = _optional(_number(0.1, 5.0))
_SHAPE_KEYS = {"sech": {"psi0": _PSI0, "alpha": _optional(_number(0.2, 3.0))},
               "supergaussian": {"psi0": _PSI0, "width": _optional(_number(0.5, 10.0)),
                                 "order": _optional(st.integers(1, 40).map(str))},
               "uniform": {"psi0": _PSI0},
               "catalog": {"catalog_id": st.sampled_from(sorted(_PERIODS))}}


@st.composite
def _in_range(draw):
    """A command and settings with every value inside its documented range,
    on grids of at most 128 points; keys that size the work are always set."""
    command = draw(st.sampled_from(sorted(COMMAND_SECTIONS)))
    if command == "run":
        initial = draw(st.sampled_from(sorted(_SHAPE_KEYS)))
        run = {"initial": initial,
               **{key: draw(value) for key, value in _SHAPE_KEYS[initial].items()},
               **draw(_horizon())}
        period = _PERIODS.get(run.get("catalog_id"))
        if period:  # a whole number of the entry's periods, up to about 80
            length = repr(draw(st.integers(1, max(1, round(80.0 / period)))) * period)
        else:
            length = draw(_number(5.0, 80.0))
        settings = {
            "model": draw(_model(draw(st.sampled_from(_NLS)))),
            "grid": {"n": str(draw(st.sampled_from([16, 32, 64, 128]))), "length": length},
            "run": run,
            "analysis": {"threshold_fraction": draw(_optional(_number(0.01, 0.99))),
                         "min_separation": draw(_optional(_number(0.1, 10.0)))}}
    elif command == "scan":
        lo = draw(st.floats(0.1, 2.0))
        scan = {"alphas": ", ".join(draw(st.lists(_number(0.1, 2.0), min_size=1, max_size=2))),
                "psi0_lo": repr(lo), "psi0_hi": repr(lo + draw(st.floats(0.1, 3.0))),
                "psi0_samples": str(draw(st.integers(3, 5))),
                "refine_iters": str(draw(st.integers(0, 2))),
                "n": str(draw(st.sampled_from([16, 32, 64]))),
                "length": draw(_number(5.0, 80.0)), **draw(_horizon())}
        settings = {"model": draw(_model(Family.BESSEL_NLS)), "scan": scan}
    else:
        tolerance = draw(_optional(_number(1e-12, 1.0)))
        settings = ({"verify": {"tolerance": tolerance}} if command == "verify" else
                    {"map": {"tolerance": tolerance,
                             "detune": draw(_optional(_number(-0.1, 0.1)))}})
    settings = {name: {k: v for k, v in kv.items() if v is not None}
                for name, kv in settings.items()}
    return command, settings


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_in_range())
def test_in_range_config(capsys, case):
    command, settings = case
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _check(Path(tmp), capsys, command, settings)
    if code == EXIT_USAGE and "of a pole" in err:
        # a dc entry sampled on a grid point at its pole is refused by design
        assert settings["run"]["catalog_id"] in _DC_ENTRIES
        reject()
    if command in ("verify", "map-check"):
        assert code in (EXIT_OK, EXIT_CHECKS_FAILED), err
    else:
        assert code in (EXIT_OK, EXIT_DIVERGED), err
