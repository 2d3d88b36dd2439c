"""Post-processing: peak detection, structure counting, breathing metrics,
and the amplitude-width stability scan.

Peak positions come from scipy's local-maximum finder refined by 3-point
parabolic interpolation.  Structure counts are modal over the trailing
snapshot window, which rides out miscounts at breathing phase extremes.
The stability scan minimizes the breathing metric of psi0*sech(alpha*x)
initial data over psi0: a coarse sweep brackets the minimum and a
golden-section pass refines it.  Everything is deterministic.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy.signal import find_peaks as _scipy_find_peaks

from .errors import DivergenceError, DomainError
from .models import Family, ModelSpec
from .solver import FieldState, Grid1D, RunConfig, Trajectory, propagate, sech_profile

__all__ = [
    "Peak",
    "StabilityPoint",
    "ScanTemplate",
    "find_peaks",
    "detection_threshold",
    "peak_count_series",
    "count_structures",
    "splitting_alternations",
    "central_peak_series",
    "oscillation_metric",
    "outer_position_blocks",
    "track_structures",
    "persistent_structure_count",
    "scan_stability",
    "stable_line_prediction",
    "DEFAULT_WINDOW_FRACTION",
    "DEFAULT_MIN_SEPARATION",
    "DEFAULT_THRESHOLD_FRACTION",
    "TRACK_GATING_DISTANCE",
    "PERSISTENCE_FRACTION",
]

DEFAULT_WINDOW_FRACTION = 0.25
DEFAULT_MIN_SEPARATION = 1.0
# Detection threshold as a fraction of the trajectory's global max |psi|^2.
DEFAULT_THRESHOLD_FRACTION = 0.02
TRACK_GATING_DISTANCE = 2.0
PERSISTENCE_FRACTION = 0.8


@dataclass(frozen=True)
class Peak:
    position: float
    height: float
    snapshot_time: float


@dataclass(frozen=True)
class StabilityPoint:
    alpha: float
    psi0_opt: float
    metric_value: float
    flags: str = ""


def find_peaks(state: FieldState, threshold: float,
               min_separation: float = DEFAULT_MIN_SEPARATION) -> list[Peak]:
    """Local maxima of |psi|^2 above threshold, separated by min_separation."""
    if not threshold > 0.0:
        raise DomainError(f"threshold must be positive, got {threshold}")
    y = np.abs(state.values) ** 2
    dx = state.grid.spacing
    distance = max(1, int(math.ceil(min_separation / dx)))
    idx, _ = _scipy_find_peaks(y, height=threshold, distance=distance)
    x = state.grid.x
    peaks = []
    for i in idx:
        ym, y0, yp = y[i - 1], y[i], y[i + 1]
        denom = ym - 2.0 * y0 + yp
        if denom < 0.0:
            delta = 0.5 * (ym - yp) / denom
            height = y0 - 0.25 * (ym - yp) * delta
        else:
            delta, height = 0.0, y0
        peaks.append(Peak(float(x[i] + delta * dx), float(height), state.time))
    return peaks


def _window_snapshots(traj: Trajectory, window: float) -> tuple[FieldState, ...]:
    if not traj.snapshots:
        raise DomainError("trajectory has no snapshots")
    if not 0.0 < window <= 1.0:
        raise DomainError(f"window fraction must be in (0, 1], got {window}")
    k = max(1, int(math.ceil(window * len(traj.snapshots))))
    return traj.snapshots[-k:]


def detection_threshold(traj: Trajectory,
                        fraction: float = DEFAULT_THRESHOLD_FRACTION) -> float:
    """Absolute detection bar: fraction of the trajectory's global max |psi|^2."""
    if not 0.0 < fraction < 1.0:
        raise DomainError(f"threshold fraction must be in (0, 1), got {fraction}")
    return fraction * float(np.max(traj.peak_series))


def _resolve_threshold(traj: Trajectory, threshold: Optional[float]) -> float:
    if threshold is not None:
        return float(threshold)
    return detection_threshold(traj)


def peak_count_series(traj: Trajectory, threshold: Optional[float] = None,
                      min_separation: float = DEFAULT_MIN_SEPARATION,
                      window: float = 1.0) -> list[tuple[float, int]]:
    """(time, peak count) per snapshot over the trailing window."""
    thr = _resolve_threshold(traj, threshold)
    return [(s.time, len(find_peaks(s, thr, min_separation)))
            for s in _window_snapshots(traj, window)]


def count_structures(traj: Trajectory, window: float = DEFAULT_WINDOW_FRACTION,
                     threshold: Optional[float] = None,
                     min_separation: float = DEFAULT_MIN_SEPARATION) -> int:
    """Modal peak count over the trailing snapshot window.

    Ties between equally frequent counts resolve to the smaller count.
    """
    counts = [c for _, c in peak_count_series(traj, threshold, min_separation, window)]
    freq = Counter(counts)
    best = max(freq.items(), key=lambda kv: (kv[1], -kv[0]))
    return int(best[0])


def splitting_alternations(counts: Sequence[int], split_at: int = 3,
                           merged_at: int = 2) -> int:
    """Transitions between the split regime (count >= split_at) and the merged
    regime (count <= merged_at) along a peak-count series.

    Counts strictly between the two bounds extend the current regime.
    """
    if not merged_at < split_at:
        raise DomainError(f"need merged_at < split_at, got {merged_at} >= {split_at}")
    flips = 0
    regime = None
    for c in counts:
        here = "split" if c >= split_at else ("merged" if c <= merged_at else None)
        if here is None:
            continue
        if regime is not None and here != regime:
            flips += 1
        regime = here
    return flips


def outer_position_blocks(traj: Trajectory, window: float = DEFAULT_WINDOW_FRACTION,
                          threshold: Optional[float] = None,
                          min_separation: float = DEFAULT_MIN_SEPARATION,
                          n_blocks: int = 4,
                          core_radius: float = 3.0) -> np.ndarray:
    """Block-averaged mean |position| of off-center peaks over the window.

    Travelling structures breathe, so their instantaneous positions wobble
    around the outward trend; averaging over n_blocks sub-windows exposes the
    drift itself.  Peaks within core_radius of the origin (the standing
    structure) are excluded.
    """
    if n_blocks < 2:
        raise DomainError(f"need at least 2 blocks, got {n_blocks}")
    thr = _resolve_threshold(traj, threshold)
    per_snap = []
    for s in _window_snapshots(traj, window):
        outer = [abs(p.position) for p in find_peaks(s, thr, min_separation)
                 if abs(p.position) > core_radius]
        if outer:
            per_snap.append(float(np.mean(outer)))
    if len(per_snap) < n_blocks:
        raise DomainError(
            f"only {len(per_snap)} usable snapshots for {n_blocks} blocks")
    return np.array([b.mean() for b in np.array_split(np.array(per_snap), n_blocks)])


def central_peak_series(traj: Trajectory, window: float = DEFAULT_WINDOW_FRACTION,
                        threshold: Optional[float] = None,
                        min_separation: float = DEFAULT_MIN_SEPARATION) -> np.ndarray:
    """Height of the peak nearest x = 0 per snapshot (global max of |psi|^2
    when nothing clears the threshold, e.g. plateau-only fields)."""
    thr = _resolve_threshold(traj, threshold)
    heights = []
    for s in _window_snapshots(traj, window):
        peaks = find_peaks(s, thr, min_separation)
        if peaks:
            central = min(peaks, key=lambda p: (abs(p.position), p.position))
            heights.append(central.height)
        else:
            heights.append(float(np.max(np.abs(s.values) ** 2)))
    return np.array(heights)


def oscillation_metric(traj: Trajectory, window: float = DEFAULT_WINDOW_FRACTION,
                       threshold: Optional[float] = None,
                       min_separation: float = DEFAULT_MIN_SEPARATION) -> float:
    """(max - min)/mean of the central-peak height over the window."""
    h = central_peak_series(traj, window, threshold, min_separation)
    mean = float(np.mean(h))
    if mean <= 0.0:
        raise DomainError("degenerate trajectory: central-peak heights average to zero")
    return float((np.max(h) - np.min(h)) / mean)


def track_structures(traj: Trajectory, window: float = 1.0,
                     threshold: Optional[float] = None,
                     min_separation: float = DEFAULT_MIN_SEPARATION,
                     gating: float = TRACK_GATING_DISTANCE) -> list[list[Peak]]:
    """Greedy nearest-neighbor matching of peaks across snapshots.

    Each track is the time-ordered list of matched peaks; a peak further than
    the gating distance from every live track opens a new one.
    """
    thr = _resolve_threshold(traj, threshold)
    tracks: list[list[Peak]] = []
    for s in _window_snapshots(traj, window):
        peaks = find_peaks(s, thr, min_separation)
        assignments = []
        for ti, tr in enumerate(tracks):
            last = tr[-1].position
            for pi, p in enumerate(peaks):
                assignments.append((abs(p.position - last), ti, pi))
        # greedy assignment: nearest pairs first, each side used once
        used_tracks: set[int] = set()
        used_peaks: set[int] = set()
        for dist, ti, pi in sorted(assignments):
            if dist > gating or ti in used_tracks or pi in used_peaks:
                continue
            tracks[ti].append(peaks[pi])
            used_tracks.add(ti)
            used_peaks.add(pi)
        for pi, p in enumerate(peaks):
            if pi not in used_peaks:
                tracks.append([p])
    return tracks


def persistent_structure_count(traj: Trajectory,
                               window: float = DEFAULT_WINDOW_FRACTION,
                               threshold: Optional[float] = None,
                               min_separation: float = DEFAULT_MIN_SEPARATION) -> int:
    """Tracks present in at least the persistence fraction of window snapshots."""
    n_snaps = len(_window_snapshots(traj, window))
    tracks = track_structures(traj, window, threshold, min_separation)
    need = PERSISTENCE_FRACTION * n_snaps
    return sum(1 for tr in tracks if len(tr) >= need)


# --- stability scan --------------------------------------------------------

@dataclass(frozen=True)
class ScanTemplate:
    """Everything a scan cell needs except the (alpha, psi0) coordinates."""

    model: ModelSpec
    grid_n: int = 1024
    grid_length: float = 80.0
    dt: float = 2e-3
    t_final: float = 90.0
    snapshot_stride: int = 500
    window: float = DEFAULT_WINDOW_FRACTION
    min_separation: float = DEFAULT_MIN_SEPARATION

    def grid_for(self, alpha: float) -> Grid1D:
        # Wide profiles need a domain several widths across.
        length = max(self.grid_length, 24.0 / alpha)
        return Grid1D(self.grid_n, length)


def _scan_cell(args: tuple) -> float:
    template, alpha, psi0 = args
    grid = template.grid_for(alpha)
    state = sech_profile(grid, psi0, alpha)
    cfg = RunConfig(template.model, dt=template.dt, t_final=template.t_final,
                    snapshot_stride=template.snapshot_stride)
    try:
        traj = propagate(state, cfg)
    except DivergenceError:
        return math.inf
    return oscillation_metric(traj, window=template.window,
                              min_separation=template.min_separation)


def _evaluate_cells(cells: list[tuple], jobs: int) -> list[float]:
    if jobs <= 1 or len(cells) <= 1:
        return [_scan_cell(c) for c in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_scan_cell, cells))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_refine(template: ScanTemplate, alpha: float,
                   lo: float, hi: float, iters: int = 8) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _scan_cell((template, alpha, c))
    fd = _scan_cell((template, alpha, d))
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _scan_cell((template, alpha, c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _scan_cell((template, alpha, d))
    return (c, fc) if fc <= fd else (d, fd)


def scan_stability(alphas: Sequence[float],
                   psi0_range: tuple[float, float, int],
                   template: ScanTemplate,
                   jobs: int = 1,
                   refine_iters: int = 8,
                   max_widenings: int = 2) -> list[StabilityPoint]:
    """Minimize the breathing metric over psi0 for each width alpha.

    Coarse grid first (all cells, optionally in parallel), then golden-section
    refinement inside the bracketing interval.  A minimum landing on the range
    boundary widens the range and reruns, up to max_widenings times; cells
    that diverge score infinity and are skipped.
    """
    if not alphas:
        raise DomainError("alpha list is empty")
    bad = [a for a in alphas if not 0.0 < a < math.inf]  # NaN fails too
    if bad:
        raise DomainError(f"alphas must be finite and > 0, got {bad!r}")
    if template.model.family is not Family.BESSEL_NLS:
        raise DomainError("stability scan is defined for the Bessel envelope model")
    lo, hi, n_samples = float(psi0_range[0]), float(psi0_range[1]), int(psi0_range[2])
    if not (0.0 < lo < hi and n_samples >= 3):
        raise DomainError(f"bad psi0 range {psi0_range!r}")

    points = []
    for alpha in alphas:
        a_lo, a_hi, a_n = lo, hi, n_samples
        flags = []
        for attempt in range(max_widenings + 1):
            samples = np.linspace(a_lo, a_hi, a_n)
            cells = [(template, float(alpha), float(p)) for p in samples]
            metrics = _evaluate_cells(cells, jobs)
            if all(math.isinf(m) for m in metrics):
                flags.append("all cells diverged")
                best_psi0, best_metric = math.nan, math.inf
                break
            if any(math.isinf(m) for m in metrics):
                flags.append(f"{sum(map(math.isinf, metrics))} divergent cells skipped")
            k = int(np.argmin(metrics))
            if 0 < k < len(samples) - 1:
                b_lo, b_hi = float(samples[k - 1]), float(samples[k + 1])
                best_psi0, best_metric = _golden_refine(
                    template, float(alpha), b_lo, b_hi, refine_iters)
                if metrics[k] < best_metric:
                    best_psi0, best_metric = float(samples[k]), float(metrics[k])
                break
            # boundary minimum: widen away from the interior and rescan
            span = a_hi - a_lo
            if k == 0:
                a_lo = max(lo * 0.25, a_lo - span)
                flags.append(f"widened low to {a_lo:g}")
            else:
                a_hi = a_hi + span
                flags.append(f"widened high to {a_hi:g}")
        else:
            best_psi0, best_metric = float(samples[k]), float(metrics[k])
            flags.append("minimum stayed on range boundary")
        points.append(StabilityPoint(float(alpha), best_psi0, best_metric,
                                     "; ".join(flags)))
    return points


def stable_line_prediction(alpha: float) -> tuple[float, float]:
    """Amplitude and phase rate of the quiet line: psi0 = 4*alpha, k = (alpha**2 - 1)/2.

    Third-order truncation of the Bessel nonlinearity turns the envelope
    equation into a focusing cubic one whose sech soliton has exactly this
    amplitude-width ratio (for omega = lambda = 1).
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    return 4.0 * alpha, (alpha * alpha - 1.0) / 2.0
