"""Each input rule is stated once, in errors.py, and every site that applies
it refuses with the text the rule writes: the integer minimum
(require_integer's least), finiteness (require_finite), positivity
(require_positive) and nonnegativity (require_nonnegative)."""

import math

import pytest

from svealab import verify
from svealab.analysis import ScanTemplate, find_peaks, scan_stability
from svealab.cli import EXIT_USAGE, main
from svealab.errors import (DomainError, require_finite, require_integer, require_nonnegative,
                            require_positive)
from svealab.models import Family, ModelSpec
from svealab.solutions import SolutionId, make_solution
from svealab.solver import Grid1D, RunConfig, sech_profile, supergaussian_profile
from svealab.specfn import hyp0f1_two, jacobi_elliptic

_BESSEL = ModelSpec(Family.BESSEL_NLS)


def _scan(alphas=(0.5,), **options):
    return scan_stability(alphas, (1.0, 3.0, 3), ScanTemplate(_BESSEL, grid_n=16), **options)


@pytest.mark.parametrize("refuse, message", [
    (lambda: RunConfig(_BESSEL, snapshot_stride=0), "snapshot_stride must be >= 1, got 0"),
    (lambda: supergaussian_profile(Grid1D(64, 20.0), order=0),
     "supergaussian order must be >= 1, got 0"),
    (lambda: _scan(jobs=0), "jobs must be >= 1, got 0"),
    (lambda: _scan(refine_iters=-1), "refine_iters must be >= 0, got -1"),
    (lambda: verify._grid((-1.0, 1.0), 3), "n_points must be >= 5, got 3"),
    (lambda: jacobi_elliptic(0.5, math.nan), "m must be finite, got nan"),
    (lambda: hyp0f1_two(math.inf), "z must be finite, got inf"),
    (lambda: ModelSpec(Family.CUBIC_NLS, lam=math.nan), "lambda must be finite, got nan"),
    (lambda: make_solution(SolutionId.CUBIC_NLS_SN, c=math.inf),
     "CUBIC_NLS_SN parameter c must be finite, got inf"),
    (lambda: Grid1D(64, -5.0), "grid length must be finite and > 0, got -5.0"),
    (lambda: ModelSpec(Family.CUBIC_NLS, omega=0.0), "omega must be finite and > 0, got 0.0"),
    (lambda: _scan([0.1, -0.2]), "alphas must be finite and > 0, got -0.2"),
    (lambda: RunConfig(_BESSEL, t_final=-1.0), "t_final must be finite and >= 0, got -1.0"),
    (lambda: RunConfig(_BESSEL, t_final=math.inf), "t_final must be finite and >= 0, got inf"),
    (lambda: make_solution(SolutionId.BESSEL_UNIFORM, psi0=-1),
     "BESSEL_UNIFORM parameter psi0 must be finite and >= 0, got -1.0"),
    (lambda: make_solution(SolutionId.CUBIC_NLS_SN, omega=-1),
     "CUBIC_NLS_SN parameter omega must be finite and > 0, got -1.0"),
    (lambda: make_solution(SolutionId.CUBIC_NLS_SN, lam=0),
     "CUBIC_NLS_SN parameter lam must be finite and > 0, got 0.0"),
    (lambda: find_peaks(sech_profile(Grid1D(64, 20.0), 1.0), math.inf),
     "threshold must be finite and > 0, got inf"),
], ids=["stride", "order", "jobs", "refine_iters", "n_points", "m", "z", "lambda",
        "catalog-parameter", "grid-length", "omega", "alphas", "t_final-negative",
        "t_final-inf", "catalog-psi0", "catalog-omega", "catalog-lam", "threshold"])
def test_each_site_refuses_with_its_rule_text(refuse, message):
    with pytest.raises(DomainError) as err:
        refuse()
    assert str(err.value) == message


def test_omega_is_checked_only_where_the_law_reads_it():
    # cubic-quintic NLS reads no omega, so no omega of it is refused but a non-finite one
    assert ModelSpec(Family.CUBIC_QUINTIC_NLS, omega=-1.0).dispersion == 1.0
    with pytest.raises(DomainError, match="omega must be finite, got inf"):
        ModelSpec(Family.CUBIC_QUINTIC_NLS, omega=math.inf)


@pytest.mark.parametrize("rule, value", [
    (require_finite, -1e308), (require_positive, 5e-324), (require_integer, -(2 ** 70)),
    (require_nonnegative, 0.0), (require_nonnegative, -0.0)],
    ids=["finite", "positive", "integer", "nonnegative-zero", "nonnegative-negative-zero"])
def test_a_value_in_range_is_returned(rule, value):
    assert rule("x", value) == value


@pytest.mark.parametrize("value", [-1, math.inf, math.nan], ids=repr)
def test_nonnegative_refuses(value):
    with pytest.raises(DomainError) as err:
        require_nonnegative("x", value)
    assert str(err.value) == f"x must be finite and >= 0, got {value!r}"


def test_a_non_finite_alpha_is_a_bad_value(tmp_path, capsys):
    # the comma-list reader applies require_finite; the config error echoes the raw text
    ini = tmp_path / "scan.ini"
    ini.write_text("[model]\nfamily = bessel_nls\n[scan]\nalphas = 0.1, inf\n")
    assert main(["scan", "--config", str(ini), "--output", str(tmp_path / "out")]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad value for [scan] alphas: '0.1, inf'\n"
    assert not (tmp_path / "out").exists()


def test_integer_minimum_is_inclusive():
    assert require_integer("k", 3, 3) == 3
    with pytest.raises(DomainError, match=r"^k must be >= 3, got 2$"):
        require_integer("k", 2, 3)
    with pytest.raises(DomainError, match=r"^k must be an integer, got 3\.0$"):
        require_integer("k", 3.0, 3)
