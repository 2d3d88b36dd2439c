"""Closed-form solution catalog and the quench mapping table.

Twenty-one catalog entries: exact solutions of the four second-order field
equations and of their envelope reductions.  Each entry is one record that
states every fact about it once: formula, default parameters, constraint
check, residual window, profile (amplitude times x-profile) and, for envelope
entries, phase rate theta.  An entry evaluates as profile * exp(i*theta*t),
with theta = 0 for static fields.  Evaluation checks no domain beyond the
constraints (SG_KINK's includes |nu| < 1), since the mapping checks quench
the sn/cn entries at m outside their usual ranges.  The mapping table
records, for nine KG/envelope pairs, the parameters at which theta vanishes
and the envelope profile collapses onto the static field solution.

Conventions: sn/cn/dn/dc take the parameter m = k**2 (see specfn); sign
choices default to + and are passed as tuples of +1/-1 reading the printed
formula left to right.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import ellipk

from .errors import ConstraintError, DomainError, FamilyMismatchError
from .models import Family, ModelSpec, nls_nonlinear_phase_rate
from .specfn import jacobi_dc, jacobi_elliptic

__all__ = [
    "SolutionId",
    "AnalyticSolution",
    "MappingPair",
    "make_solution",
    "eval_solution",
    "phase_rate",
    "model_for",
    "mapping_table",
    "instantiate_pair",
    "catalog_ids",
]

ArrayLike = Union[float, np.ndarray]

_CONSTRAINT_RTOL = 1e-9


class SolutionId(Enum):
    CUBIC_KG_SN = "CUBIC_KG_SN"
    CUBIC_KG_CN = "CUBIC_KG_CN"
    CUBIC_KG_DC = "CUBIC_KG_DC"
    CUBIC_NLS_SN = "CUBIC_NLS_SN"
    CUBIC_NLS_CN = "CUBIC_NLS_CN"
    CUBIC_NLS_DC = "CUBIC_NLS_DC"
    DW_KG_KINK = "DW_KG_KINK"
    DW_KG_SN = "DW_KG_SN"
    DW_KG_CN = "DW_KG_CN"
    DW_KG_DC = "DW_KG_DC"
    DW_KG_CONST = "DW_KG_CONST"
    DW_NLS_TANH = "DW_NLS_TANH"
    DW_NLS_SN = "DW_NLS_SN"
    DW_NLS_CN = "DW_NLS_CN"
    DW_NLS_DC = "DW_NLS_DC"
    DW_NLS_CONST = "DW_NLS_CONST"
    CQ_KG_SN = "CQ_KG_SN"
    CQ_NLS_SN = "CQ_NLS_SN"
    SG_KINK = "SG_KINK"
    SG_IMAG = "SG_IMAG"
    BESSEL_UNIFORM = "BESSEL_UNIFORM"


@dataclass(frozen=True)
class AnalyticSolution:
    """A catalog entry bound to concrete parameter values and sign choices."""

    sid: SolutionId
    params: dict
    signs: tuple[int, ...]

    @property
    def window(self) -> tuple[float, float]:
        """x-window of the entry's residual check."""
        return _CATALOG[self.sid].window

    @property
    def travelling(self) -> bool:
        """Whether the profile itself moves in t (beyond the phase factor)."""
        return _CATALOG[self.sid].travelling


@dataclass(frozen=True)
class _Entry:
    family: Family
    formula: str
    defaults: dict
    n_signs: int
    profile: Callable  # (p, s, x, t) -> amplitude times x-profile
    # x-window of the residual check; narrower ones keep clear of dc poles and
    # of the log-singular edges of the imaginary sine-Gordon profile.  The
    # cubic-quintic windows span a single arch only because the report bytes
    # were recorded on them; the signed root is smooth across its zeros.
    window: tuple[float, float] = (-3.0, 3.0)
    theta: Optional[Callable[[dict], float]] = None  # phase rate; None for static fields
    # fills derived parameters and says how the stated constraint fails, or None
    check: Optional[Callable[[dict], Optional[str]]] = None
    constraints: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()  # parameters accepted beyond the defaults
    travelling: bool = False  # profile moves in t beyond the phase factor


_SQ2 = math.sqrt(2.0)


def _csqrt(z: float) -> complex:
    return cmath.sqrt(complex(z))


# --- shared profiles and checks ---------------------------------------------

def _sn_wave(p, s, x, t):
    amp = s[0] * p["c"] * _csqrt(2.0 * p["m"] / p["lam"])
    return amp * jacobi_elliptic(p["c"] * x, p["m"]).sn


def _cn_wave(p, s, x, t):
    amp = s[0] * 1j * p["c"] * _csqrt(2.0 * p["m"] / p["lam"])
    return amp * jacobi_elliptic(p["c"] * x, p["m"]).cn


def _dc_wave(p, s, x, m):
    return s[0] * p["c"] * math.sqrt(2.0 / p["lam"]) * jacobi_dc(p["c"] * x, m)


def _ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _cq_root(p, b, m, x):
    """sqrt(3*sigma/(8*lambda) + b*sn(x|m)) on its smooth branch.  The radicand
    touches zero where sn = -1, at x = -K + 4K*j, and the root changes sign
    there instead of kinking, so it is negated where sin(pi*(x + K)/(4K)) < 0.
    sn reaches -1 only for m < 1."""
    x = np.asarray(x, dtype=float)
    sn = jacobi_elliptic(x, m).sn
    root = np.sqrt(np.asarray(3.0 * p["sigma"] / (8.0 * p["lam"]) + b * sn, dtype=complex))
    if m >= 1.0:
        return root
    k = float(ellipk(m))
    return np.where(np.sin(np.pi * (x + k) / (4.0 * k)) < 0.0, -root, root)


def _sg_kink(p, s, x, t):
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    # arctan saturates; the cap avoids exp overflow
    arg = np.minimum(p["lam"] * p["gamma"] * (x - p["nu"] * t) + p["delta"], 500.0)
    return 4.0 * np.arctan(np.exp(arg))


def _sg_imag(p, s, x, t):
    sn = jacobi_elliptic(s[2] * np.asarray(x, dtype=float) / _SQ2, -1.0).sn
    with np.errstate(divide="ignore", invalid="ignore"):
        return s[0] * 2.0 * np.arctan(s[1] * 1j * np.asarray(sn, dtype=complex))


def _balance(lhs: float, rhs: float) -> Optional[str]:
    off = abs(lhs - rhs) > _CONSTRAINT_RTOL * max(abs(lhs), abs(rhs))
    return f"got {lhs} vs {rhs}" if off else None


def _sg_kink_check(p: dict) -> Optional[str]:
    if not abs(p["nu"]) < 1.0:
        raise DomainError(f"SG_KINK needs |nu| < 1, got {p['nu']}")
    p.setdefault("gamma", 1.0 / math.sqrt(1.0 - p["nu"] ** 2))
    err = abs(p["gamma"] ** 2 * (1.0 - p["nu"] ** 2) - 1.0)
    return f"off by {err:.3e}" if err > _CONSTRAINT_RTOL else None


def _bessel_check(p: dict) -> None:
    if p["psi0"] < 0.0:
        raise DomainError("BESSEL_UNIFORM requires psi0 >= 0")


_CATALOG: dict[SolutionId, _Entry] = {
    SolutionId.CUBIC_KG_SN: _Entry(
        Family.CUBIC_KG,
        "phi = +/- i*c*sqrt(2/lambda) * sn(c*x | -1)",
        {"c": 1.0, "lam": 1.0},
        1,
        profile=lambda p, s, x, t: (s[0] * 1j * p["c"] * math.sqrt(2.0 / p["lam"])
                                    * jacobi_elliptic(p["c"] * x, -1.0).sn),
    ),
    SolutionId.CUBIC_KG_CN: _Entry(
        Family.CUBIC_KG,
        "phi = +/- (i*c/sqrt(lambda)) * cn(c*x | 1/2)",
        {"c": 1.0, "lam": 1.0},
        1,
        profile=lambda p, s, x, t: (s[0] * 1j * p["c"] / math.sqrt(p["lam"])
                                    * jacobi_elliptic(p["c"] * x, 0.5).cn),
    ),
    SolutionId.CUBIC_KG_DC: _Entry(
        Family.CUBIC_KG,
        "phi = +/- c*sqrt(2/lambda) * dc(c*x | -1)",
        {"c": 1.0, "lam": 1.0},
        1,
        window=(-1.0, 1.0),
        profile=lambda p, s, x, t: _dc_wave(p, s, x, -1.0),
    ),
    SolutionId.CUBIC_NLS_SN: _Entry(
        Family.CUBIC_NLS,
        "psi = +/- c*sqrt(2*m/lambda) * sn(c*x | m) * exp(-i*(1+m)*c**2*t/omega)",
        {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": 0.6},
        1,
        profile=_sn_wave,
        theta=lambda p: -(1.0 + p["m"]) * p["c"] ** 2 / p["omega"],
    ),
    SolutionId.CUBIC_NLS_CN: _Entry(
        Family.CUBIC_NLS,
        "psi = +/- i*c*sqrt(2*m/lambda) * cn(c*x | m) * exp(-i*(1-2*m)*c**2*t/omega)",
        {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": -0.5},
        1,
        profile=_cn_wave,
        theta=lambda p: -(1.0 - 2.0 * p["m"]) * p["c"] ** 2 / p["omega"],
    ),
    SolutionId.CUBIC_NLS_DC: _Entry(
        Family.CUBIC_NLS,
        "psi = +/- c*sqrt(2/lambda) * dc(c*x | m) * exp(-i*(1+m)*c**2*t/omega)",
        {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": 0.6},
        1,
        window=(-1.5, 1.5),
        profile=lambda p, s, x, t: _dc_wave(p, s, x, p["m"]),
        theta=lambda p: -(1.0 + p["m"]) * p["c"] ** 2 / p["omega"],
    ),
    SolutionId.DW_KG_KINK: _Entry(
        Family.DOUBLE_WELL_KG,
        "phi = +/- (mass/sqrt(lambda)) * tanh(+/- (mass/sqrt(2))*(x - x0))",
        {"mass": 1.0, "lam": 1.0, "x0": 0.0},
        2,
        window=(-5.0, 5.0),
        profile=lambda p, s, x, t: (s[0] * p["mass"] / math.sqrt(p["lam"]) * np.tanh(
            s[1] * (p["mass"] / _SQ2) * (np.asarray(x, dtype=float) - p["x0"]))),
    ),
    SolutionId.DW_KG_SN: _Entry(
        Family.DOUBLE_WELL_KG,
        "phi = +/- sqrt(2*(mass**2 - c**2)/lambda) * sn(c*x | (mass**2 - c**2)/c**2)",
        {"mass": 1.2, "c": 1.0, "lam": 1.0},
        1,
        profile=lambda p, s, x, t: (
            s[0] * _csqrt(2.0 * (p["mass"] ** 2 - p["c"] ** 2) / p["lam"]) * jacobi_elliptic(
                p["c"] * x, (p["mass"] ** 2 - p["c"] ** 2) / p["c"] ** 2).sn),
    ),
    SolutionId.DW_KG_CN: _Entry(
        Family.DOUBLE_WELL_KG,
        "phi = +/- i*sqrt((c**2 - mass**2)/lambda) * cn(c*x | (c**2 - mass**2)/(2*c**2))",
        {"mass": 0.6, "c": 1.0, "lam": 1.0},
        1,
        profile=lambda p, s, x, t: (
            s[0] * 1j * _csqrt((p["c"] ** 2 - p["mass"] ** 2) / p["lam"]) * jacobi_elliptic(
                p["c"] * x, (p["c"] ** 2 - p["mass"] ** 2) / (2.0 * p["c"] ** 2)).cn),
    ),
    SolutionId.DW_KG_DC: _Entry(
        Family.DOUBLE_WELL_KG,
        "phi = +/- c*sqrt(2/lambda) * dc(c*x | (mass**2 - c**2)/c**2)",
        {"mass": 1.2, "c": 1.0, "lam": 1.0},
        1,
        window=(-1.3, 1.3),
        profile=lambda p, s, x, t: _dc_wave(p, s, x, (p["mass"] ** 2 - p["c"] ** 2) / p["c"] ** 2),
    ),
    SolutionId.DW_KG_CONST: _Entry(
        Family.DOUBLE_WELL_KG,
        "phi = +/- mass/sqrt(lambda)",
        {"mass": 1.0, "lam": 1.0},
        1,
        profile=lambda p, s, x, t: s[0] * p["mass"] / math.sqrt(p["lam"]) * _ones(x),
    ),
    SolutionId.DW_NLS_TANH: _Entry(
        Family.DOUBLE_WELL_NLS,
        "psi = +/- c*sqrt(2/lambda) * tanh(+/- c*(x - x0)) * exp(i*(mass**2 - 2*c**2)*t/omega)",
        {"c": 0.7, "mass": 1.0, "lam": 1.0, "omega": 1.0, "x0": 0.0},
        2,
        window=(-5.0, 5.0),
        profile=lambda p, s, x, t: (s[0] * p["c"] * math.sqrt(2.0 / p["lam"]) * np.tanh(
            s[1] * p["c"] * (np.asarray(x, dtype=float) - p["x0"]))),
        theta=lambda p: (p["mass"] ** 2 - 2.0 * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_SN: _Entry(
        Family.DOUBLE_WELL_NLS,
        "psi = +/- c*sqrt(2*m/lambda) * sn(c*x | m) * exp(i*(mass**2 - (1+m)*c**2)*t/omega)",
        {"m": 0.6, "mass": 1.0, "c": 1.0, "lam": 1.0, "omega": 1.0},
        1,
        profile=_sn_wave,
        theta=lambda p: (p["mass"] ** 2 - (1.0 + p["m"]) * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_CN: _Entry(
        Family.DOUBLE_WELL_NLS,
        "psi = +/- i*c*sqrt(2*m/lambda) * cn(c*x | m) * exp(i*(mass**2 - (1-2*m)*c**2)*t/omega)",
        {"m": -0.5, "mass": 1.0, "c": 1.0, "lam": 1.0, "omega": 1.0},
        1,
        profile=_cn_wave,
        theta=lambda p: (p["mass"] ** 2 - (1.0 - 2.0 * p["m"]) * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_DC: _Entry(
        Family.DOUBLE_WELL_NLS,
        "psi = +/- c*sqrt(2/lambda) * dc(c*x | m) * exp(i*(mass**2 - (1+m)*c**2)*t/omega)",
        {"m": 0.6, "mass": 1.0, "c": 1.0, "lam": 1.0, "omega": 1.0},
        1,
        window=(-1.5, 1.5),
        profile=lambda p, s, x, t: _dc_wave(p, s, x, p["m"]),
        theta=lambda p: (p["mass"] ** 2 - (1.0 + p["m"]) * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_CONST: _Entry(
        Family.DOUBLE_WELL_NLS,
        "psi = +/- a * exp(i*(mass**2 - a**2*lambda)*t/omega)",
        {"a": 1.0, "mass": 1.0, "lam": 1.0, "omega": 1.0},
        1,
        profile=lambda p, s, x, t: s[0] * p["a"] * _ones(x),
        theta=lambda p: (p["mass"] ** 2 - p["a"] ** 2 * p["lam"]) / p["omega"],
    ),
    SolutionId.CQ_KG_SN: _Entry(
        Family.CUBIC_QUINTIC_KG,
        "phi = sqrt(3*sigma/(8*lambda) + sqrt(3/(20*lambda)) * sn(x | 1/5))",
        {"sigma": 1.0, "lam": 15.0 / 16.0},
        0,
        window=(-1.5, 4.8),
        profile=lambda p, s, x, t: _cq_root(p, math.sqrt(3.0 / (20.0 * p["lam"])), 0.2, x),
        check=lambda p: _balance(15.0 * p["sigma"] ** 2, 16.0 * p["lam"]),
        constraints=("15*sigma**2 = 16*lambda",),
    ),
    SolutionId.CQ_NLS_SN: _Entry(
        Family.CUBIC_QUINTIC_NLS,
        "psi = sqrt(3*sigma/(8*lambda) + sqrt(3*m/(4*lambda)) * sn(x | m))"
        " * exp(-i*((1 + m - 9*sigma**2/(8*lambda))/4)*t)",
        {"m": 0.3, "lam": 1.0, "sigma": math.sqrt(1.6)},
        0,
        window=(-1.55, 4.95),
        profile=lambda p, s, x, t: _cq_root(p, _csqrt(3.0 * p["m"] / (4.0 * p["lam"])), p["m"], x),
        theta=lambda p: -(1.0 + p["m"] - 9.0 * p["sigma"] ** 2 / (8.0 * p["lam"])) / 4.0,
        check=lambda p: _balance(16.0 * p["m"] * p["lam"], 3.0 * p["sigma"] ** 2),
        constraints=("16*m*lambda = 3*sigma**2",),
    ),
    SolutionId.SG_KINK: _Entry(
        Family.SINE_GORDON_KG,
        "phi = 4*arctan(exp(lambda*gamma*(x - nu*t) + delta))",
        {"lam": 1.0, "nu": 0.5, "delta": 0.0},
        0,
        window=(-5.0, 5.0),
        profile=_sg_kink,
        check=_sg_kink_check,
        constraints=("gamma**2*(1 - nu**2) = 1",),
        optional=("gamma",),
        travelling=True,
    ),
    SolutionId.SG_IMAG: _Entry(
        Family.SINE_GORDON_KG,
        "phi = +/- 2*arctan(+/- i*sn(+/- x/sqrt(2) | -1))   [lambda = 1]",
        {},
        3,
        window=(-1.45, 1.45),
        profile=_sg_imag,
    ),
    SolutionId.BESSEL_UNIFORM: _Entry(
        Family.BESSEL_NLS,
        "psi = psi0 * exp(-i*lambda**2*J1(psi0)*t/(omega*psi0))",
        {"psi0": 3.0, "omega": 1.0, "lam": 1.0},
        0,
        window=(-15.0, 15.0),
        profile=lambda p, s, x, t: p["psi0"] * _ones(x),
        theta=lambda p: -float(nls_nonlinear_phase_rate(
            ModelSpec(Family.BESSEL_NLS, lam=p["lam"], omega=p["omega"]), p["psi0"])),
        check=_bessel_check,
    ),
}


def catalog_ids() -> tuple[SolutionId, ...]:
    return tuple(_CATALOG.keys())


def make_solution(sid: SolutionId, signs: Optional[tuple[int, ...]] = None, **overrides) -> AnalyticSolution:
    """Bind a catalog entry to parameters, filling defaults and checking constraints."""
    entry = _CATALOG[sid]
    params = dict(entry.defaults)
    for key, val in overrides.items():
        if key not in entry.defaults and key not in entry.optional:
            raise DomainError(f"{sid.value} has no parameter {key!r}")
        params[key] = float(val)
    for key, val in params.items():
        if not math.isfinite(val):
            raise DomainError(f"{sid.value} parameter {key} must be finite")
    if "lam" in params and params["lam"] <= 0.0:
        raise DomainError(f"{sid.value} requires lambda > 0")
    if "omega" in params and params["omega"] <= 0.0:
        raise DomainError(f"{sid.value} requires omega > 0")
    failure = entry.check(params) if entry.check is not None else None
    if failure is not None:
        raise ConstraintError(f"{sid.value} requires {entry.constraints[0]}, {failure}")
    if signs is None:
        signs = (1,) * entry.n_signs
    signs = tuple(int(s) for s in signs)
    if len(signs) != entry.n_signs or any(s not in (-1, 1) for s in signs):
        raise DomainError(
            f"{sid.value} takes {entry.n_signs} sign choices of +/-1, got {signs!r}"
        )
    return AnalyticSolution(sid=sid, params=params, signs=signs)


def eval_solution(sol: AnalyticSolution, x: ArrayLike, t: ArrayLike = 0.0):
    """Evaluate the solution at position(s) x and time(s) t; complex output.

    x and t broadcast against each other, so a (5,1) time column against an
    (n,) grid yields the (5,n) space-time slab the residual stencils need.
    """
    entry = _CATALOG[sol.sid]
    theta = 0.0 if entry.theta is None else entry.theta(sol.params)
    phase = np.exp(1j * theta * np.asarray(t, dtype=float))
    out = np.asarray(entry.profile(sol.params, sol.signs, x, t) * phase, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def phase_rate(sol: AnalyticSolution) -> float:
    """Coefficient theta of t in the solution's phase factor exp(i*theta*t)."""
    theta = _CATALOG[sol.sid].theta
    if theta is None:
        raise FamilyMismatchError(f"{sol.sid.value} is not an envelope solution; no phase rate")
    return theta(sol.params)


def model_for(sol: AnalyticSolution) -> ModelSpec:
    """The ModelSpec whose equation this solution solves: lambda and the
    couplings its family's law reads, copied from the parameters (the ModelSpec
    default where the entry has none)."""
    family = _CATALOG[sol.sid].family
    return ModelSpec(family, **{name: sol.params[name] for name in ("lam", *family.law.couplings)
                                if name in sol.params})


# --- mapping table ---------------------------------------------------------

@dataclass(frozen=True)
class MappingPair:
    """One row of the quench table: envelope entry collapsing onto a static field entry.

    nls_params(detune) gives the envelope parameters, quenched at detune = 0.
    window, the x-range of the pointwise comparison, avoids dc poles.
    """

    kg_id: SolutionId
    nls_id: SolutionId
    window: tuple[float, float]
    nls_params: Callable[[float], dict] = field(compare=False)

    @property
    def kg_params(self) -> dict:
        """The static partner takes the envelope's couplings at the quench point."""
        names = _CATALOG[self.kg_id].defaults
        return {k: v for k, v in self.nls_params(0.0).items() if k in names}


_MAPPING_TABLE: tuple[MappingPair, ...] = (
    MappingPair(SolutionId.CUBIC_KG_SN, SolutionId.CUBIC_NLS_SN, (-5.0, 5.0),
                lambda d: {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": -1.0 + d}),
    MappingPair(SolutionId.CUBIC_KG_CN, SolutionId.CUBIC_NLS_CN, (-5.0, 5.0),
                lambda d: {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": 0.5 + d}),
    MappingPair(SolutionId.CUBIC_KG_DC, SolutionId.CUBIC_NLS_DC, (-1.0, 1.0),
                lambda d: {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": -1.0 + d}),
    # mass**2 = 2*c**2
    MappingPair(SolutionId.DW_KG_KINK, SolutionId.DW_NLS_TANH, (-5.0, 5.0),
                lambda d: {"c": 1.0 + d, "mass": _SQ2, "lam": 1.0, "omega": 1.0, "x0": 0.0}),
    # m = (mass**2 - c**2)/c**2
    MappingPair(SolutionId.DW_KG_SN, SolutionId.DW_NLS_SN, (-5.0, 5.0),
                lambda d: {"m": 1.2 * 1.2 - 1.0 + d, "mass": 1.2, "c": 1.0, "lam": 1.0,
                           "omega": 1.0}),
    # m = (c**2 - mass**2)/(2*c**2)
    MappingPair(SolutionId.DW_KG_CN, SolutionId.DW_NLS_CN, (-5.0, 5.0),
                lambda d: {"m": (1.0 - 0.6 * 0.6) / 2.0 + d, "mass": 0.6, "c": 1.0, "lam": 1.0,
                           "omega": 1.0}),
    MappingPair(SolutionId.DW_KG_DC, SolutionId.DW_NLS_DC, (-1.4, 1.4),
                lambda d: {"m": 1.2 * 1.2 - 1.0 + d, "mass": 1.2, "c": 1.0, "lam": 1.0,
                           "omega": 1.0}),
    # a = mass/sqrt(lambda)
    MappingPair(SolutionId.DW_KG_CONST, SolutionId.DW_NLS_CONST, (-5.0, 5.0),
                lambda d: {"a": 1.0 + d, "mass": 1.0, "lam": 1.0, "omega": 1.0}),
    # 16*m*lambda = 3*sigma**2 meets 15*sigma**2 = 16*lambda at m* = 1/5; the
    # envelope sigma follows its own constraint, so a detuned instance stays admissible
    MappingPair(SolutionId.CQ_KG_SN, SolutionId.CQ_NLS_SN, (-1.2, 1.2),
                lambda d: {"m": 0.2 + d, "lam": 15.0 / 16.0,
                           "sigma": math.sqrt(16.0 * (0.2 + d) * (15.0 / 16.0) / 3.0)}),
)


def mapping_table() -> tuple[MappingPair, ...]:
    return _MAPPING_TABLE


def instantiate_pair(pair: MappingPair, detune: float = 0.0):
    """Canonical (kg, nls) solution instances at the quench point.

    detune shifts the quenching parameter of the envelope side only: m -> m* +
    detune for the elliptic rows (the cubic-quintic sigma is recomputed from
    its own constraint so the instance stays admissible), c -> c*(1+detune)
    for the kink row, a -> a*(1+detune) for the constant row.  Any nonzero
    detune revives the phase rotation and the pair separates linearly in t.
    A detune that takes the envelope entry out of its domain is a DomainError.
    """
    try:
        nls = make_solution(pair.nls_id, **pair.nls_params(float(detune)))
        if not math.isfinite(phase_rate(nls)):
            raise ValueError("its phase rate is not finite")
    except (ValueError, OverflowError) as err:  # e.g. a square root of a negative
        raise DomainError(f"detune={detune!r} takes {pair.nls_id.value} out of its "
                          f"domain: {err}") from err
    return make_solution(pair.kg_id, **pair.kg_params), nls
