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

One sweep (verify_catalog, check_all_mappings) evaluates each distinct
elliptic (u, m) once: DW_NLS shares CUBIC_NLS's, a quench envelope its field's.

Each check carries its own verdict: ConvergenceReport.passed and
MappingCheck.passed are set once, where the check runs, and the reports only
print them.  Worst values are NaN-propagating maxima, so a non-finite
residual or difference fails; a non-finite coarse or fine residual is not
converged, and a tolerance must be finite and > 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, require_integer, require_positive
from .models import ModelSpec, kg_force
from .solutions import (
    AnalyticSolution,
    MappingPair,
    SolutionId,
    catalog_ids,
    eval_profile,
    eval_solution,
    instantiate_pair,
    make_solution,
    mapping_table,
    model_for,
    phase_factor,
    phase_rate,
)
from .specfn import shared_elliptic

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
    the times of a (T, 5, n) slab stack with its axes 0 and 1 swapped, or the
    _shifts of its x rows."""
    return (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)


def _first(f, h: float) -> np.ndarray:
    return (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)


def _shifts(rows: np.ndarray) -> list[np.ndarray]:
    """The five x-stencil neighbours of each interior point of every row, as views."""
    n = rows.shape[-1]
    return [rows[..., k:n - 4 + k] for k in range(5)]


@functools.cache
def _grid(x_range: tuple[float, float], n_points: int) -> tuple[np.ndarray, float]:
    """The n_points of x_range and their spacing, built once per (window,
    size) and shared: one catalog pass asks for 31 distinct grids 92 times,
    and a process that runs more passes asks for none anew.  x is read-only,
    so no caller can change a grid another one holds."""
    n_points = require_integer("n_points", n_points, _STENCIL_POINTS)
    lo, hi = float(x_range[0]), float(x_range[1])
    x = np.linspace(lo, hi, n_points)
    x.flags.writeable = False
    return x, (hi - lo) / (n_points - 1)


def _grid_text(x_range, n_points, t_range) -> str:
    ts = ",".join(f"{t:g}" for t in t_range)
    return f"x in [{x_range[0]:g},{x_range[1]:g}], n={n_points}, t in {{{ts}}}"


def _rows(sol: AnalyticSolution, x: np.ndarray, times: Sequence[float] | np.ndarray,
          profile: np.ndarray | None = None) -> np.ndarray:
    """The field on the grid x at every time, one product: row i is time i.
    profile, if given, is eval_profile(sol, x[None, :]) of an entry that does
    not travel."""
    t = np.reshape(np.asarray(times, dtype=float), (-1, 1))
    if profile is None:
        profile = eval_profile(sol, x[None, :], t)
    return np.asarray(profile * phase_factor(sol, t), dtype=complex)


def _slabs(sol: AnalyticSolution, x: np.ndarray, times: tuple[float, ...], tau: float,
           profile: np.ndarray | None = None) -> np.ndarray:
    """The (T, 5, n) stack of space-time slabs at t0 + tau*[-2..2] for every t0
    in times."""
    t = np.asarray(times, dtype=float)[:, None] + tau * np.arange(-2.0, 3.0)
    return _rows(sol, x, t, profile).reshape(len(times), 5, x.size)


def _residual(model: ModelSpec, sol: AnalyticSolution, x_range: tuple[float, float],
              n_points: int, profile: np.ndarray | None = None) -> ResidualReport:
    """The residual of model's equation at the interior points of the grid,
    for every time at once: the worst |residual| over all of them, and over
    the largest |field| for the relative value.  np.max keeps a NaN."""
    x, h = _grid(x_range, n_points)
    if model.family.is_nls or sol.travelling:
        times = _TIMES
        slabs = _slabs(sol, x, times, h, profile)
        center = slabs[:, 2]
    else:  # a static field is the same at every time
        times = _TIMES[:1]
        center = _rows(sol, x, times, profile)
    core = center[:, 2:-2]
    psi_xx = _second(_shifts(center), h)
    if model.family.is_nls:
        psi_t = _first(slabs.swapaxes(0, 1), h)[:, 2:-2]
        amp = np.abs(core)  # the stepper's bound rate: a NaN field fails its row
        v = model.family.law.term(model)(amp, np.empty_like(amp))
        res = 1j * psi_t + model.dispersion * psi_xx - v * core
    else:
        phi_tt = (_second(slabs.swapaxes(0, 1), h)[:, 2:-2] if sol.travelling
                  else np.zeros_like(core))
        res = phi_tt - psi_xx + kg_force(model, core)
    worst, norm = float(np.max(np.abs(res))), float(np.max(np.abs(center)))
    return ResidualReport(sol.sid.value, _grid_text(x_range, n_points, times),
                          worst, worst / max(norm, 1.0))


def _nested_residuals(sol: AnalyticSolution) -> list[ResidualReport]:
    """The residual on each ratio grid, then on the tolerance grid.  Each
    ratio grid is every k-th point of the tolerance grid, bit for bit (its
    spacing is the finer one's times a power of two), so a profile that does
    not travel is evaluated once, on the tolerance grid, and each grid takes
    its points of it and forms its own phase factors.  The profile is
    elementwise in x and the phase in t, so each value is the product
    eval_solution forms on that grid."""
    model = model_for(sol)
    profile = None
    if not sol.travelling:
        x, _ = _grid(sol.window, _TOLERANCE_GRID)
        profile = eval_profile(sol, x[None, :])
    reports = []
    for n in (*_RATIO_GRIDS, _TOLERANCE_GRID):
        part = None if profile is None else profile[:, ::(_TOLERANCE_GRID - 1) // (n - 1)]
        reports.append(_residual(model, sol, sol.window, n, part))
    return reports


def verify_entry(sid: SolutionId, tolerance: float = DEFAULT_TOLERANCE) -> ConvergenceReport:
    """Tolerance check on the fine grid plus the grid-doubling ratio check."""
    require_positive("tolerance", tolerance)
    coarse, fine, tol_rep = _nested_residuals(make_solution(sid))

    at_floor = (coarse.relative_residual <= FLOOR_RESIDUAL
                and fine.relative_residual <= FLOOR_RESIDUAL)
    if not (math.isfinite(coarse.relative_residual) and math.isfinite(fine.relative_residual)):
        ratio = order = math.nan  # never converged: NaN >= anything is False
    elif fine.relative_residual > 0.0:
        ratio = coarse.relative_residual / fine.relative_residual
        order = math.log2(ratio) if ratio > 0.0 else -math.inf  # coarse exact, fine not
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
    with shared_elliptic():
        return [verify_entry(sid, tolerance) for sid in catalog_ids()]


def _tally(rows: Sequence[str], checks: Sequence, summary: str) -> str:
    """Each check's row with its verdict, then "n/N summary"."""
    verdicts = ["PASS" if c.passed else "FAIL" for c in checks]
    return "\n".join([*(f"{row} {v}" for row, v in zip(rows, verdicts)),
                      f"{verdicts.count('PASS')}/{len(checks)} {summary}"])


def verification_report(reports: Sequence[ConvergenceReport]) -> str:
    return _tally([f"{r.solution_id:<16} {r.tolerance_report.grid:<44} "
                   f"rel_residual={r.tolerance_report.relative_residual:.3e} [{r.note}]"
                   for r in reports], reports, "catalog entries verified")


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
    with shared_elliptic():
        return [check_mapping(p, detune, tolerance) for p in mapping_table()]


def mapping_report(checks: Sequence[MappingCheck]) -> str:
    tolerance = checks[0].tolerance if checks else MAPPING_TOLERANCE
    return _tally([f"{c.kg_id:<14} <- {c.nls_id:<14} detune={c.detune:g} "
                   f"max|psi-phi|={c.max_abs_diff:.3e} "
                   f"({', '.join(f't={t:g}: {d:.3e}' for t, d in c.per_time)})"
                   for c in checks], checks, f"mapping rows within {tolerance:g}")
