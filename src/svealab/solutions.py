"""Closed-form solution catalog and the quench mapping table.

Twenty-one catalog entries: exact solutions of the four second-order field
equations and of their envelope reductions, as the source paper (arXiv
2105.04498) writes them in closed form.  Each entry is one record that
states every fact about it once: default parameters, constraint check,
residual window, profile (amplitude times x-profile) and, for envelope
entries, phase rate theta and x-period.  An entry evaluates as
profile * exp(i*theta*t) (eval_profile times phase_factor), with theta = 0
for static fields.  Evaluation checks no domain beyond each
entry's check (SG_KINK's is |nu| < 1), since the mapping checks quench
the sn/cn entries at m outside their usual ranges.  The mapping table
records, for nine KG/envelope pairs, the parameters at which theta vanishes
and the envelope profile collapses onto the static field solution.

Conventions: sn/cn/dn/dc take the parameter m = k**2 (see specfn).  The
source writes most solutions as +/- families.  Every equation here is
invariant under phi -> -phi, and the inner +/- of the tanh and imaginary
sine-Gordon solutions flips an odd function, so each family is held by its
+ branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import ellipk

from .errors import ConstraintError, DomainError, FamilyMismatchError, require_finite
from .models import Family, ModelSpec, nls_nonlinear_phase_rate
from .specfn import jacobi_dc, jacobi_elliptic

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
    """A catalog entry bound to concrete parameter values."""

    sid: SolutionId
    params: dict

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
    defaults: dict
    profile: Callable  # (p, x, t) -> amplitude times x-profile
    # x-window of the residual check; narrower ones keep clear of dc poles and
    # of the log-singular edges of the imaginary sine-Gordon profile.  The
    # cubic-quintic windows span a single arch only because the report bytes
    # were recorded on them; the signed root is smooth across its zeros.
    window: tuple[float, float] = (-3.0, 3.0)
    theta: Optional[Callable[[dict], float]] = None  # phase rate; None for static fields
    # raises a typed error naming the rule the parameters break
    check: Optional[Callable[[dict], None]] = None
    travelling: bool = False  # profile moves in t beyond the phase factor
    # x-period of an envelope profile: a periodic grid holds the entry when its
    # length is a whole number of periods; 0.0 for a uniform profile (any
    # length), inf when there is none (real dc poles, the antiperiodic tanh).
    period: Callable[[dict], float] = lambda p: math.inf


_SQ2 = math.sqrt(2.0)


def _csqrt(z: float) -> complex:
    return cmath.sqrt(complex(z))


# --- shared profiles and checks ---------------------------------------------

def _sn_wave(p, x, t):
    amp = p["c"] * _csqrt(2.0 * p["m"] / p["lam"])
    return amp * jacobi_elliptic(p["c"] * x, p["m"]).sn


def _cn_wave(p, x, t):
    amp = 1j * p["c"] * _csqrt(2.0 * p["m"] / p["lam"])
    return amp * jacobi_elliptic(p["c"] * x, p["m"]).cn


def _dc_wave(p, x, m):
    return p["c"] * math.sqrt(2.0 / p["lam"]) * jacobi_dc(p["c"] * x, m)


def _quarter_period(m: float) -> float:
    """K(m), the quarter period of sn(.|m) and cn(.|m) for m < 1.  For m < 0
    scipy's ellipk is K(mu)/sqrt(1 - m), mu = -m/(1 - m): the period that
    specfn's A&S 16.10 evaluation has.  inf from m = 1 on: not covered."""
    return float(ellipk(m)) if m < 1.0 else math.inf


def _wave_period(p) -> float:
    """4K(m)/c; at c = 0 the wave is the zero field, which any length holds."""
    return 4.0 * _quarter_period(p["m"]) / abs(p["c"]) if p["c"] else 0.0


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
    k = _quarter_period(m)
    return np.where(np.sin(np.pi * (x + k) / (4.0 * k)) < 0.0, -root, root)


def _sg_kink(p, x, t):
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    # arctan saturates; the cap avoids exp overflow
    gamma = 1.0 / math.sqrt(1.0 - p["nu"] ** 2)
    arg = np.minimum(p["lam"] * gamma * (x - p["nu"] * t) + p["delta"], 500.0)
    return 4.0 * np.arctan(np.exp(arg))


def _sg_imag(p, x, t):
    sn = jacobi_elliptic(np.asarray(x, dtype=float) / _SQ2, -1.0).sn
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.arctan(1j * np.asarray(sn, dtype=complex))


def _balance(sid: str, relation: str, lhs: float, rhs: float) -> None:
    """A ConstraintError unless the two sides of relation agree to _CONSTRAINT_RTOL."""
    if abs(lhs - rhs) > _CONSTRAINT_RTOL * max(abs(lhs), abs(rhs)):
        raise ConstraintError(f"{sid} requires {relation}, got {lhs} vs {rhs}")


def _sg_kink_check(p: dict) -> None:
    if not abs(p["nu"]) < 1.0:
        raise DomainError(f"SG_KINK needs |nu| < 1, got {p['nu']}")


def _bessel_check(p: dict) -> None:
    if p["psi0"] < 0.0:
        raise DomainError("BESSEL_UNIFORM requires psi0 >= 0")


_CATALOG: dict[SolutionId, _Entry] = {
    SolutionId.CUBIC_KG_SN: _Entry(
        Family.CUBIC_KG,
        {"c": 1.0, "lam": 1.0},
        profile=lambda p, x, t: (1j * p["c"] * math.sqrt(2.0 / p["lam"])
                                 * jacobi_elliptic(p["c"] * x, -1.0).sn),
    ),
    SolutionId.CUBIC_KG_CN: _Entry(
        Family.CUBIC_KG,
        {"c": 1.0, "lam": 1.0},
        profile=lambda p, x, t: (1j * p["c"] / math.sqrt(p["lam"])
                                 * jacobi_elliptic(p["c"] * x, 0.5).cn),
    ),
    SolutionId.CUBIC_KG_DC: _Entry(
        Family.CUBIC_KG,
        {"c": 1.0, "lam": 1.0},
        window=(-1.0, 1.0),
        profile=lambda p, x, t: _dc_wave(p, x, -1.0),
    ),
    SolutionId.CUBIC_NLS_SN: _Entry(
        Family.CUBIC_NLS,
        {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": 0.6},
        profile=_sn_wave,
        period=_wave_period,
        theta=lambda p: -(1.0 + p["m"]) * p["c"] ** 2 / p["omega"],
    ),
    SolutionId.CUBIC_NLS_CN: _Entry(
        Family.CUBIC_NLS,
        {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": -0.5},
        profile=_cn_wave,
        period=_wave_period,
        theta=lambda p: -(1.0 - 2.0 * p["m"]) * p["c"] ** 2 / p["omega"],
    ),
    SolutionId.CUBIC_NLS_DC: _Entry(
        Family.CUBIC_NLS,
        {"c": 1.0, "lam": 1.0, "omega": 1.0, "m": 0.6},
        window=(-1.5, 1.5),
        profile=lambda p, x, t: _dc_wave(p, x, p["m"]),
        theta=lambda p: -(1.0 + p["m"]) * p["c"] ** 2 / p["omega"],
    ),
    SolutionId.DW_KG_KINK: _Entry(
        Family.DOUBLE_WELL_KG,
        {"mass": 1.0, "lam": 1.0, "x0": 0.0},
        window=(-5.0, 5.0),
        profile=lambda p, x, t: (p["mass"] / math.sqrt(p["lam"]) * np.tanh(
            (p["mass"] / _SQ2) * (np.asarray(x, dtype=float) - p["x0"]))),
    ),
    SolutionId.DW_KG_SN: _Entry(
        Family.DOUBLE_WELL_KG,
        {"mass": 1.2, "c": 1.0, "lam": 1.0},
        profile=lambda p, x, t: (
            _csqrt(2.0 * (p["mass"] ** 2 - p["c"] ** 2) / p["lam"]) * jacobi_elliptic(
                p["c"] * x, (p["mass"] ** 2 - p["c"] ** 2) / p["c"] ** 2).sn),
    ),
    SolutionId.DW_KG_CN: _Entry(
        Family.DOUBLE_WELL_KG,
        {"mass": 0.6, "c": 1.0, "lam": 1.0},
        profile=lambda p, x, t: (
            1j * _csqrt((p["c"] ** 2 - p["mass"] ** 2) / p["lam"]) * jacobi_elliptic(
                p["c"] * x, (p["c"] ** 2 - p["mass"] ** 2) / (2.0 * p["c"] ** 2)).cn),
    ),
    SolutionId.DW_KG_DC: _Entry(
        Family.DOUBLE_WELL_KG,
        {"mass": 1.2, "c": 1.0, "lam": 1.0},
        window=(-1.3, 1.3),
        profile=lambda p, x, t: _dc_wave(p, x, (p["mass"] ** 2 - p["c"] ** 2) / p["c"] ** 2),
    ),
    SolutionId.DW_KG_CONST: _Entry(
        Family.DOUBLE_WELL_KG,
        {"mass": 1.0, "lam": 1.0},
        profile=lambda p, x, t: p["mass"] / math.sqrt(p["lam"]) * _ones(x),
    ),
    SolutionId.DW_NLS_TANH: _Entry(
        Family.DOUBLE_WELL_NLS,
        {"c": 0.7, "mass": 1.0, "lam": 1.0, "omega": 1.0, "x0": 0.0},
        window=(-5.0, 5.0),
        profile=lambda p, x, t: (p["c"] * math.sqrt(2.0 / p["lam"]) * np.tanh(
            p["c"] * (np.asarray(x, dtype=float) - p["x0"]))),
        theta=lambda p: (p["mass"] ** 2 - 2.0 * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_SN: _Entry(
        Family.DOUBLE_WELL_NLS,
        {"m": 0.6, "mass": 1.0, "c": 1.0, "lam": 1.0, "omega": 1.0},
        profile=_sn_wave,
        period=_wave_period,
        theta=lambda p: (p["mass"] ** 2 - (1.0 + p["m"]) * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_CN: _Entry(
        Family.DOUBLE_WELL_NLS,
        {"m": -0.5, "mass": 1.0, "c": 1.0, "lam": 1.0, "omega": 1.0},
        profile=_cn_wave,
        period=_wave_period,
        theta=lambda p: (p["mass"] ** 2 - (1.0 - 2.0 * p["m"]) * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_DC: _Entry(
        Family.DOUBLE_WELL_NLS,
        {"m": 0.6, "mass": 1.0, "c": 1.0, "lam": 1.0, "omega": 1.0},
        window=(-1.5, 1.5),
        profile=lambda p, x, t: _dc_wave(p, x, p["m"]),
        theta=lambda p: (p["mass"] ** 2 - (1.0 + p["m"]) * p["c"] ** 2) / p["omega"],
    ),
    SolutionId.DW_NLS_CONST: _Entry(
        Family.DOUBLE_WELL_NLS,
        {"a": 1.0, "mass": 1.0, "lam": 1.0, "omega": 1.0},
        profile=lambda p, x, t: p["a"] * _ones(x),
        period=lambda p: 0.0,
        theta=lambda p: (p["mass"] ** 2 - p["a"] ** 2 * p["lam"]) / p["omega"],
    ),
    SolutionId.CQ_KG_SN: _Entry(
        Family.CUBIC_QUINTIC_KG,
        {"sigma": 1.0, "lam": 15.0 / 16.0},
        window=(-1.5, 4.8),
        profile=lambda p, x, t: _cq_root(p, math.sqrt(3.0 / (20.0 * p["lam"])), 0.2, x),
        check=lambda p: _balance("CQ_KG_SN", "15*sigma**2 = 16*lambda",
                                 15.0 * p["sigma"] ** 2, 16.0 * p["lam"]),
    ),
    SolutionId.CQ_NLS_SN: _Entry(
        Family.CUBIC_QUINTIC_NLS,
        {"m": 0.3, "lam": 1.0, "sigma": math.sqrt(1.6)},
        window=(-1.55, 4.95),
        profile=lambda p, x, t: _cq_root(p, _csqrt(3.0 * p["m"] / (4.0 * p["lam"])), p["m"], x),
        period=lambda p: 8.0 * _quarter_period(p["m"]),  # the signed root flips each 4K
        theta=lambda p: -(1.0 + p["m"] - 9.0 * p["sigma"] ** 2 / (8.0 * p["lam"])) / 4.0,
        check=lambda p: _balance("CQ_NLS_SN", "16*m*lambda = 3*sigma**2",
                                 16.0 * p["m"] * p["lam"], 3.0 * p["sigma"] ** 2),
    ),
    SolutionId.SG_KINK: _Entry(
        Family.SINE_GORDON_KG,
        {"lam": 1.0, "nu": 0.5, "delta": 0.0},
        window=(-5.0, 5.0),
        profile=_sg_kink,
        check=_sg_kink_check,
        travelling=True,
    ),
    SolutionId.SG_IMAG: _Entry(
        Family.SINE_GORDON_KG,
        {},
        window=(-1.45, 1.45),
        profile=_sg_imag,
    ),
    SolutionId.BESSEL_UNIFORM: _Entry(
        Family.BESSEL_NLS,
        {"psi0": 3.0, "omega": 1.0, "lam": 1.0},
        window=(-15.0, 15.0),
        profile=lambda p, x, t: p["psi0"] * _ones(x),
        period=lambda p: 0.0,
        theta=lambda p: -float(nls_nonlinear_phase_rate(
            ModelSpec(Family.BESSEL_NLS, lam=p["lam"], omega=p["omega"]), p["psi0"])),
        check=_bessel_check,
    ),
}


def catalog_ids() -> tuple[SolutionId, ...]:
    return tuple(_CATALOG.keys())


def make_solution(sid: SolutionId, **overrides) -> AnalyticSolution:
    """Bind a catalog entry to parameters, filling defaults and checking its constraint."""
    entry = _CATALOG[sid]
    params = dict(entry.defaults)
    for key, val in overrides.items():
        if key not in entry.defaults:
            raise DomainError(f"{sid.value} has no parameter {key!r}")
        params[key] = float(val)
    for key, val in params.items():
        require_finite(f"{sid.value} parameter {key}", val)
    if "lam" in params and params["lam"] <= 0.0:
        raise DomainError(f"{sid.value} requires lambda > 0")
    if "omega" in params and params["omega"] <= 0.0:
        raise DomainError(f"{sid.value} requires omega > 0")
    if entry.check is not None:
        entry.check(params)
    return AnalyticSolution(sid=sid, params=params)


def eval_profile(sol: AnalyticSolution, x: ArrayLike, t: ArrayLike = 0.0):
    """The amplitude times x-profile at position(s) x, real or complex: the
    solution without its phase factor.  Only a travelling entry reads t."""
    return _CATALOG[sol.sid].profile(sol.params, x, t)


def phase_factor(sol: AnalyticSolution, t: ArrayLike):
    """exp(i*theta*t) at time(s) t, with theta = 0 for a static field."""
    theta = _CATALOG[sol.sid].theta
    return np.exp(1j * (0.0 if theta is None else theta(sol.params)) * np.asarray(t, dtype=float))


def eval_solution(sol: AnalyticSolution, x: ArrayLike, t: ArrayLike = 0.0):
    """Evaluate the solution at position(s) x and time(s) t; complex output.

    x and t broadcast against each other, so a (5,1) time column against an
    (n,) grid yields the (5,n) space-time slab the residual stencils need.
    The value is eval_profile(sol, x, t) * phase_factor(sol, t).
    """
    out = np.asarray(eval_profile(sol, x, t) * phase_factor(sol, t), dtype=complex)
    return complex(out) if out.ndim == 0 else out


def phase_rate(sol: AnalyticSolution) -> float:
    """Coefficient theta of t in the solution's phase factor exp(i*theta*t)."""
    theta = _CATALOG[sol.sid].theta
    if theta is None:
        raise FamilyMismatchError(f"{sol.sid.value} is not an envelope solution; no phase rate")
    return theta(sol.params)


def _x_period(sol: AnalyticSolution) -> float:
    """The x-period of an envelope solution's profile: 0.0 when it is uniform,
    so that every length holds a whole number of periods, and inf when it has
    none (or at an elliptic m >= 1, which the period facts do not cover)."""
    return _CATALOG[sol.sid].period(sol.params)


def require_whole_periods(sol: AnalyticSolution, length: float) -> None:
    """A DomainError unless a periodic grid of this length holds the envelope
    solution: a whole number of its x-periods, to rel _CONSTRAINT_RTOL.  A
    static KG field is refused: no envelope run keeps it."""
    if not _CATALOG[sol.sid].family.is_nls:
        raise DomainError(f"{sol.sid.value} solves a KG field equation, not an envelope one")
    period = _x_period(sol)
    if period == 0.0:
        return
    if math.isinf(period):
        raise DomainError(f"{sol.sid.value} has no x-period, so a periodic grid "
                          "cannot hold it")
    whole = max(1, round(length / period)) * period
    if abs(length - whole) > _CONSTRAINT_RTOL * length:
        raise DomainError(f"{sol.sid.value} has x-period {period!r}; length {length!r} is "
                          f"not a whole number of periods (nearest {whole!r})")


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
        reason = "a parameter overflows" if isinstance(err, OverflowError) else err
        raise DomainError(f"detune={detune!r} takes {pair.nls_id.value} out of its "
                          f"domain: {reason}") from err
    return make_solution(pair.kg_id, **pair.kg_params), nls
