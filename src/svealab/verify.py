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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FamilyMismatchError
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


@dataclass(frozen=True)
class ResidualReport:
    solution_id: str
    grid: str
    max_abs_residual: float
    normalizer: float
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
    window: tuple[float, float]
    n_points: int


def _interior_second(row: np.ndarray, h: float) -> np.ndarray:
    return (-row[:-4] + 16.0 * row[1:-3] - 30.0 * row[2:-2]
            + 16.0 * row[3:-1] - row[4:]) / (12.0 * h * h)


def _slab_second(slab: np.ndarray, tau: float) -> np.ndarray:
    return (-slab[0] + 16.0 * slab[1] - 30.0 * slab[2]
            + 16.0 * slab[3] - slab[4]) / (12.0 * tau * tau)


def _slab_first(slab: np.ndarray, tau: float) -> np.ndarray:
    return (slab[0] - 8.0 * slab[1] + 8.0 * slab[3] - slab[4]) / (12.0 * tau)


def _grid(x_range: tuple[float, float], n_points: int) -> tuple[np.ndarray, float]:
    lo, hi = float(x_range[0]), float(x_range[1])
    x = np.linspace(lo, hi, int(n_points))
    return x, (hi - lo) / (int(n_points) - 1)


def _grid_text(x_range, n_points, t_range) -> str:
    ts = ",".join(f"{t:g}" for t in t_range)
    return f"x in [{x_range[0]:g},{x_range[1]:g}], n={n_points}, t in {{{ts}}}"


def _slab(sol: AnalyticSolution, x: np.ndarray, t0: float, tau: float) -> np.ndarray:
    offsets = tau * np.arange(-2.0, 3.0)[:, None]
    return np.asarray(eval_solution(sol, x[None, :], t0 + offsets), dtype=complex)


def kg_residual(model: ModelSpec, sol: AnalyticSolution,
                x_range: tuple[float, float], n_points: int,
                t_range: Sequence[float] = _TIMES) -> ResidualReport:
    """Residual of d2_t(phi) - d2_x(phi) + N(phi) at interior grid points."""
    if not model.family.is_kg:
        raise FamilyMismatchError(f"kg_residual needs a KG model, got {model.family.value}")
    x, h = _grid(x_range, n_points)
    static = not sol.travelling
    times = (t_range[0],) if static else tuple(t_range)
    worst = 0.0
    norm = 0.0
    for t0 in times:
        if static:
            center = np.asarray(eval_solution(sol, x, t0), dtype=complex)
            phi_tt = np.zeros(x.size - 4, dtype=complex)
        else:
            slab = _slab(sol, x, t0, h)
            center = slab[2]
            phi_tt = _slab_second(slab, h)[2:-2]
        phi_xx = _interior_second(center, h)
        res = phi_tt - phi_xx + kg_force(model, center[2:-2])
        worst = max(worst, float(np.max(np.abs(res))))
        norm = max(norm, float(np.max(np.abs(center))))
    return ResidualReport(
        solution_id=sol.sid.value,
        grid=_grid_text(x_range, n_points, times),
        max_abs_residual=worst,
        normalizer=norm,
        relative_residual=worst / max(norm, 1.0),
    )


def nls_residual(model: ModelSpec, sol: AnalyticSolution,
                 x_range: tuple[float, float], n_points: int,
                 t_range: Sequence[float] = _TIMES) -> ResidualReport:
    """Residual of i*d_t(psi) + D*d2_x(psi) - V(|psi|)*psi at interior points."""
    if not model.family.is_nls:
        raise FamilyMismatchError(f"nls_residual needs an NLS model, got {model.family.value}")
    x, h = _grid(x_range, n_points)
    worst = 0.0
    norm = 0.0
    for t0 in t_range:
        slab = _slab(sol, x, t0, h)
        center = slab[2]
        psi_t = _slab_first(slab, h)[2:-2]
        psi_xx = _interior_second(center, h)
        core = center[2:-2]
        v = nls_nonlinear_phase_rate(model, np.abs(core))
        res = 1j * psi_t + model.dispersion * psi_xx - v * core
        worst = max(worst, float(np.max(np.abs(res))))
        norm = max(norm, float(np.max(np.abs(center))))
    return ResidualReport(
        solution_id=sol.sid.value,
        grid=_grid_text(x_range, n_points, t_range),
        max_abs_residual=worst,
        normalizer=norm,
        relative_residual=worst / max(norm, 1.0),
    )


def residual_for(sol: AnalyticSolution,
                 x_range: Optional[tuple[float, float]] = None,
                 n_points: int = _TOLERANCE_GRID,
                 t_range: Optional[Sequence[float]] = None) -> ResidualReport:
    """Dispatch to the KG or NLS residual with the entry's curated window."""
    model = model_for(sol)
    residual = kg_residual if model.family.is_kg else nls_residual
    x_range = sol.window if x_range is None else x_range
    return residual(model, sol, x_range, n_points, t_range or _TIMES)


def verify_entry(sid: SolutionId, tolerance: float = DEFAULT_TOLERANCE,
                 n_points: int = _TOLERANCE_GRID) -> ConvergenceReport:
    """Tolerance check on the fine grid plus the grid-doubling ratio check."""
    sol = make_solution(sid)
    coarse = residual_for(sol, n_points=_RATIO_GRIDS[0])
    fine = residual_for(sol, n_points=_RATIO_GRIDS[1])
    tol_rep = residual_for(sol, n_points=n_points)

    at_floor = (coarse.relative_residual <= FLOOR_RESIDUAL
                and fine.relative_residual <= FLOOR_RESIDUAL)
    if fine.relative_residual > 0.0:
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


def verify_catalog(ids: Optional[Sequence[SolutionId]] = None,
                   tolerance: float = DEFAULT_TOLERANCE,
                   n_points: int = _TOLERANCE_GRID) -> list[ConvergenceReport]:
    return [verify_entry(sid, tolerance, n_points) for sid in (ids or catalog_ids())]


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


def check_mapping(pair: MappingPair, n_points: int = 801,
                  t_samples: Sequence[float] = (0.0, 1.0, 10.0),
                  detune: float = 0.0) -> MappingCheck:
    """Max pointwise |envelope - static field| over the window and t samples.

    At detune = 0 the phase rate is quenched exactly and the result is
    t-independent; a nonzero detune is the diagnostic mode in which the
    difference grows like |1 - exp(i*theta*t)|.
    """
    kg_sol, nls_sol = instantiate_pair(pair, detune=detune)
    x, _ = _grid(pair.window, n_points)
    phi = np.asarray(eval_solution(kg_sol, x, 0.0), dtype=complex)
    per_time = []
    worst = 0.0
    for t in t_samples:
        psi = np.asarray(eval_solution(nls_sol, x, t), dtype=complex)
        diff = float(np.max(np.abs(psi - phi)))
        per_time.append((float(t), diff))
        worst = max(worst, diff)
    return MappingCheck(
        kg_id=pair.kg_id.value,
        nls_id=pair.nls_id.value,
        detune=float(detune),
        per_time=tuple(per_time),
        max_abs_diff=worst,
        window=pair.window,
        n_points=n_points,
    )


def check_all_mappings(n_points: int = 801,
                       t_samples: Sequence[float] = (0.0, 1.0, 10.0),
                       detune: float = 0.0) -> list[MappingCheck]:
    return [check_mapping(p, n_points, t_samples, detune) for p in mapping_table()]


def mapping_report(checks: Sequence[MappingCheck],
                   tolerance: float = MAPPING_TOLERANCE) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.max_abs_diff < tolerance else "FAIL"
        times = ", ".join(f"t={t:g}: {d:.3e}" for t, d in c.per_time)
        lines.append(
            f"{c.kg_id:<14} <- {c.nls_id:<14} detune={c.detune:g} "
            f"max|psi-phi|={c.max_abs_diff:.3e} ({times}) {status}"
        )
    n_pass = sum(c.max_abs_diff < tolerance for c in checks)
    lines.append(f"{n_pass}/{len(checks)} mapping rows within {tolerance:g}")
    return "\n".join(lines)
