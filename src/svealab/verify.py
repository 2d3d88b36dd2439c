"""Finite-difference residual checks for the catalog, plus the mapping checker.

Every closed form is exact, so plugging it into its equation leaves pure
discretization error: 4th-order central stencils give residuals scaling as
h**4, and a grid-doubling ratio near 16 certifies formula and stencil at
once.  The doubling is measured on deliberately coarse grids (251 -> 501
points) where truncation still dominates; on the 2001-point tolerance grids
several entries are already down at the rounding floor of the stencil, where
the ratio is meaningless.  Entries whose residual is identically zero
(vacuum constants, the uniform envelope) pass through the floor rule
instead.

Each profile is evaluated once per grid: a check passes its grid as a row
and every time it needs (for the stencils, t0 + tau*[-2..2] for every t0)
as a column to one eval_solution call and splits the result back into
per-time rows.  The profile is elementwise in x and the phase elementwise in
t, so each value is the product the per-time calls would form.

Each check carries its own verdict: ConvergenceReport.passed and
MappingCheck.passed are set once, where the check runs, and the reports only
print them.  Worst values are NaN-propagating maxima, so a non-finite
residual or difference fails; a non-finite coarse or fine residual is not
converged, and a tolerance must be finite and > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, FamilyMismatchError, require_positive
from .models import ModelSpec, kg_force, nls_nonlinear_phase_rate
from .solutions import (
    AnalyticSolution,
    MappingPair,
    SolutionId,
    catalog_ids,
    eval_solution,
    instantiate_pair,
    make_solution,
    mapping_table,
    model_for,
    phase_rate,
)

__all__ = [
    "ResidualReport",
    "ConvergenceReport",
    "MappingCheck",
    "kg_residual",
    "nls_residual",
    "residual_for",
    "verify_entry",
    "verify_catalog",
    "verification_report",
    "check_mapping",
    "check_all_mappings",
    "mapping_report",
    "DEFAULT_TOLERANCE",
    "MAPPING_TOLERANCE",
    "CONVERGENCE_RATIO_MIN",
    "FLOOR_RESIDUAL",
]

DEFAULT_TOLERANCE = 1e-6
MAPPING_TOLERANCE = 1e-10
CONVERGENCE_RATIO_MIN = 8.0
# Below this relative residual the check is rounding-noise, not truncation;
# two grids both under it count as converged without a ratio.
FLOOR_RESIDUAL = 1e-12

_RATIO_GRIDS = (251, 501)
_TOLERANCE_GRID = 2001

_TIMES = (0.0, 0.4)

# The grid and the times at which each quench row is compared.
_MAP_POINTS = 801
_MAP_TIMES = (0.0, 1.0, 10.0)

# The 5-point stencils leave n_points - 4 interior points.
_STENCIL_POINTS = 5


@dataclass(frozen=True)
class ResidualReport:
    solution_id: str
    grid: str
    max_abs_residual: float
    relative_residual: float


@dataclass(frozen=True)
class ConvergenceReport:
    solution_id: str
    coarse: ResidualReport
    fine: ResidualReport
    tolerance_report: ResidualReport
    ratio: float
    order: float
    tolerance: float
    passed: bool
    note: str


@dataclass(frozen=True)
class MappingCheck:
    kg_id: str
    nls_id: str
    detune: float
    per_time: tuple[tuple[float, float], ...]
    max_abs_diff: float
    tolerance: float
    passed: bool


def _second(f, h: float) -> np.ndarray:
    """The 4th-order second difference of five samples f[0..4] spaced h apart:
    the rows of a time slab, or the _shifts of an x row."""
    return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)


def _first(f, h: float) -> np.ndarray:
    return (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)


def _shifts(row: np.ndarray) -> list[np.ndarray]:
    """The five stencil neighbours of each interior point of row, as views."""
    return [row[k:row.size - 4 + k] for k in range(5)]


def _grid(x_range: tuple[float, float], n_points: int) -> tuple[np.ndarray, float]:
    if int(n_points) < _STENCIL_POINTS:
        raise DomainError(f"n_points must be at least {_STENCIL_POINTS}, got {n_points}")
    lo, hi = float(x_range[0]), float(x_range[1])
    x = np.linspace(lo, hi, int(n_points))
    return x, (hi - lo) / (int(n_points) - 1)


def _grid_text(x_range, n_points, t_range) -> str:
    ts = ",".join(f"{t:g}" for t in t_range)
    return f"x in [{x_range[0]:g},{x_range[1]:g}], n={n_points}, t in {{{ts}}}"


def _rows(sol: AnalyticSolution, x: np.ndarray,
          times: Sequence[float] | np.ndarray) -> np.ndarray:
    """The field on the grid x at every time, one evaluation: row i is time i."""
    t = np.reshape(np.asarray(times, dtype=float), (-1, 1))
    return np.asarray(eval_solution(sol, x[None, :], t), dtype=complex)


def _slabs(sol: AnalyticSolution, x: np.ndarray, times: tuple[float, ...],
           tau: float) -> np.ndarray:
    """The (5, n) space-time slab at t0 + tau*[-2..2] for every t0 in times."""
    t = np.asarray(times, dtype=float)[:, None] + tau * np.arange(-2.0, 3.0)
    return _rows(sol, x, t).reshape(len(times), 5, x.size)


def _report(sol: AnalyticSolution, grid: str,
            samples: Sequence[tuple[np.ndarray, np.ndarray]]) -> ResidualReport:
    """The worst |residual| and |field| over the (residual, field) time
    samples.  np.max keeps a NaN where Python's max would drop it."""
    worst, norm = map(float, np.max(
        [(np.max(np.abs(res)), np.max(np.abs(field))) for res, field in samples], axis=0))
    return ResidualReport(sol.sid.value, grid, worst, worst / max(norm, 1.0))


def kg_residual(model: ModelSpec, sol: AnalyticSolution,
                x_range: tuple[float, float], n_points: int) -> ResidualReport:
    """Residual of d2_t(phi) - d2_x(phi) + N(phi) at interior grid points."""
    if model.family.is_nls:
        raise FamilyMismatchError(f"kg_residual needs a KG model, got {model.family.value}")
    x, h = _grid(x_range, n_points)
    if sol.travelling:
        times = _TIMES
        fields = [(slab[2], _second(slab, h)[2:-2]) for slab in _slabs(sol, x, times, h)]
    else:  # a static field is the same at every time
        times = _TIMES[:1]
        fields = [(np.asarray(eval_solution(sol, x, times[0]), dtype=complex),
                   np.zeros(x.size - 4, dtype=complex))]
    samples = [(phi_tt - _second(_shifts(center), h) + kg_force(model, center[2:-2]), center)
               for center, phi_tt in fields]
    return _report(sol, _grid_text(x_range, n_points, times), samples)


def nls_residual(model: ModelSpec, sol: AnalyticSolution,
                 x_range: tuple[float, float], n_points: int) -> ResidualReport:
    """Residual of i*d_t(psi) + D*d2_x(psi) - V(|psi|)*psi at interior points."""
    if not model.family.is_nls:
        raise FamilyMismatchError(f"nls_residual needs an NLS model, got {model.family.value}")
    x, h = _grid(x_range, n_points)
    samples = []
    for slab in _slabs(sol, x, _TIMES, h):
        center = slab[2]
        psi_t = _first(slab, h)[2:-2]
        psi_xx = _second(_shifts(center), h)
        core = center[2:-2]
        v = nls_nonlinear_phase_rate(model, np.abs(core))
        samples.append((1j * psi_t + model.dispersion * psi_xx - v * core, center))
    return _report(sol, _grid_text(x_range, n_points, _TIMES), samples)


def residual_for(sol: AnalyticSolution, n_points: int = _TOLERANCE_GRID) -> ResidualReport:
    """Dispatch to the KG or NLS residual on the entry's curated window."""
    model = model_for(sol)
    residual = nls_residual if model.family.is_nls else kg_residual
    return residual(model, sol, sol.window, n_points)


def verify_entry(sid: SolutionId, tolerance: float = DEFAULT_TOLERANCE) -> ConvergenceReport:
    """Tolerance check on the fine grid plus the grid-doubling ratio check."""
    require_positive("tolerance", tolerance)
    sol = make_solution(sid)
    coarse = residual_for(sol, n_points=_RATIO_GRIDS[0])
    fine = residual_for(sol, n_points=_RATIO_GRIDS[1])
    tol_rep = residual_for(sol)

    at_floor = (coarse.relative_residual <= FLOOR_RESIDUAL
                and fine.relative_residual <= FLOOR_RESIDUAL)
    if not (math.isfinite(coarse.relative_residual) and math.isfinite(fine.relative_residual)):
        ratio = order = math.nan  # never converged: NaN >= anything is False
    elif fine.relative_residual > 0.0:
        ratio = coarse.relative_residual / fine.relative_residual
        order = math.log2(ratio) if ratio > 0.0 else math.inf
    else:
        ratio = math.inf
        order = math.inf

    converged = at_floor or ratio >= CONVERGENCE_RATIO_MIN
    within = tol_rep.relative_residual < tolerance
    if at_floor:
        note = "residual at rounding floor on both grids"
    else:
        note = f"doubling ratio {ratio:.1f} (order {order:.2f})"
    return ConvergenceReport(
        solution_id=sid.value,
        coarse=coarse,
        fine=fine,
        tolerance_report=tol_rep,
        ratio=ratio,
        order=order,
        tolerance=tolerance,
        passed=within and converged,
        note=note,
    )


def verify_catalog(tolerance: float = DEFAULT_TOLERANCE) -> list[ConvergenceReport]:
    return [verify_entry(sid, tolerance) for sid in catalog_ids()]


def verification_report(reports: Sequence[ConvergenceReport]) -> str:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.solution_id:<16} {r.tolerance_report.grid:<44} "
            f"rel_residual={r.tolerance_report.relative_residual:.3e} "
            f"[{r.note}] {status}"
        )
    n_pass = sum(r.passed for r in reports)
    lines.append(f"{n_pass}/{len(reports)} catalog entries verified")
    return "\n".join(lines)


def check_mapping(pair: MappingPair, detune: float = 0.0,
                  tolerance: float = MAPPING_TOLERANCE) -> MappingCheck:
    """Max pointwise |envelope - static field| on _MAP_POINTS over the window
    at the _MAP_TIMES; the row passes when that maximum is below tolerance.

    At detune = 0 the phase rate is quenched exactly and the result is
    t-independent; a nonzero detune is the diagnostic mode in which the
    difference grows like |1 - exp(i*theta*t)|.
    """
    require_positive("tolerance", tolerance)
    kg_sol, nls_sol = instantiate_pair(pair, detune=detune)
    if math.isinf(phase_rate(nls_sol) * _MAP_TIMES[-1]):
        raise DomainError(f"detune={detune!r} makes the phase of {pair.nls_id.value} "
                          f"overflow by t={_MAP_TIMES[-1]:g}")
    x, _ = _grid(pair.window, _MAP_POINTS)
    phi = np.asarray(eval_solution(kg_sol, x, 0.0), dtype=complex)
    diffs = np.max(np.abs(_rows(nls_sol, x, _MAP_TIMES) - phi), axis=1)
    per_time = tuple((float(t), float(d)) for t, d in zip(_MAP_TIMES, diffs))
    worst = float(np.max(diffs))  # keeps a NaN
    return MappingCheck(
        kg_id=pair.kg_id.value,
        nls_id=pair.nls_id.value,
        detune=float(detune),
        per_time=per_time,
        max_abs_diff=worst,
        tolerance=tolerance,
        passed=worst < tolerance,
    )


def check_all_mappings(detune: float = 0.0,
                       tolerance: float = MAPPING_TOLERANCE) -> list[MappingCheck]:
    return [check_mapping(p, detune, tolerance) for p in mapping_table()]


def mapping_report(checks: Sequence[MappingCheck]) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        times = ", ".join(f"t={t:g}: {d:.3e}" for t, d in c.per_time)
        lines.append(
            f"{c.kg_id:<14} <- {c.nls_id:<14} detune={c.detune:g} "
            f"max|psi-phi|={c.max_abs_diff:.3e} ({times}) {status}"
        )
    n_pass = sum(c.passed for c in checks)
    tolerance = checks[0].tolerance if checks else MAPPING_TOLERANCE
    lines.append(f"{n_pass}/{len(checks)} mapping rows within {tolerance:g}")
    return "\n".join(lines)
