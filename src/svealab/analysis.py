"""Post-processing: peak detection, structure counting, breathing metrics,
and the amplitude-width stability scan.  Everything is deterministic.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import signal
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (DivergenceError, DomainError, range_rule, require_integer,
                     require_positive)
from .models import Family
from .solver import (FieldState, Grid1D, RunConfig, Trajectory, propagate_batch,
                     sech_profile)
# Not called here since the scan batches its cells; perfbench/tracing.py wraps
# this name on this module, so it stays importable from it.
from .solver import propagate  # noqa: F401

WINDOW_FRACTION = 0.25
DEFAULT_MIN_SEPARATION = 1.0
# Detection threshold as a fraction of the trajectory's global max |psi|^2.
DEFAULT_THRESHOLD_FRACTION = 0.02
TRACK_GATING_DISTANCE = 2.0
_CORE_RADIUS = 3.0  # peaks this close to x = 0 belong to the standing structure
_OUTER_BLOCKS = 4


@dataclass(frozen=True, slots=True)
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


# The detection bar's fraction rule; the command line applies it up front.
require_threshold_fraction = range_rule(lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _local_peaks(y: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of scipy.signal.find_peaks(y, height=height, distance=distance)[0]
    for finite float64 y.

    A peak is a strict rise into a run of equal values and a strict fall out
    of it, placed at the run's middle sample (rounded down); the ends of y are
    never peaks.  Peaks under height go.  Then, highest first in
    np.argsort order (scipy's default kind, so ties break alike), each
    surviving peak drops every neighbour closer than distance samples.
    """
    rise = y[1:] > y[:-1]
    change = np.flatnonzero(rise | (y[1:] < y[:-1]))  # the non-flat steps
    up = rise[change]
    top = up[:-1] & ~up[1:]  # a rise whose next non-flat step falls
    peaks = (change[:-1][top] + 1 + change[1:][top]) // 2
    peaks = peaks[y[peaks] >= height]
    if peaks.size < 2 or np.diff(peaks).min() >= distance:
        return peaks
    lo = np.searchsorted(peaks, peaks - distance, side="right").tolist()
    hi = np.searchsorted(peaks, peaks + distance, side="left").tolist()
    keep = [True] * peaks.size
    for j in np.argsort(y[peaks])[::-1].tolist():
        if keep[j]:
            keep[lo[j]:hi[j]] = [False] * (hi[j] - lo[j])
            keep[j] = True
    return peaks[np.array(keep)]


def find_peaks(state: FieldState, threshold: float,
               min_separation: float = DEFAULT_MIN_SEPARATION) -> list[Peak]:
    """Local maxima of |psi|^2 above threshold, separated by min_separation,
    each placed by 3-point parabolic refinement.

    A field whose |psi|^2 holds a NaN or an infinity is a DomainError.
    """
    require_positive("threshold", threshold)
    require_positive("min_separation", min_separation)
    y = np.abs(state.values) ** 2
    if not math.isfinite(np.max(y, initial=0.0)):  # NaN propagates through max
        raise DomainError(f"|psi|^2 at t={state.time:g} is not finite")
    dx = state.grid.spacing
    # n samples or more keep only the highest peak, so the clamp changes nothing
    distance = max(1, int(math.ceil(min(min_separation / dx, state.grid.n))))
    idx = _local_peaks(y, threshold, distance)
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


def detection_threshold(traj: Trajectory,
                        fraction: float = DEFAULT_THRESHOLD_FRACTION) -> float:
    """Absolute detection bar: fraction of the trajectory's global max |psi|^2."""
    require_threshold_fraction("threshold fraction", fraction)
    return fraction * float(np.max(traj.peak_series))


@dataclass(frozen=True, slots=True)
class PeakRow:
    """One snapshot: its time, its peaks and its max |psi|^2."""

    time: float
    peaks: tuple[Peak, ...]
    max_intensity: float


def window_size(n_snapshots: int) -> int:
    """Snapshots the trailing window of a trajectory of n_snapshots holds:
    max(1, ceil(WINDOW_FRACTION * n_snapshots))."""
    return max(1, int(math.ceil(WINDOW_FRACTION * n_snapshots)))


@dataclass(frozen=True)
class PeakTable:
    """The peaks of the snapshots of one trajectory, found once by peak_table;
    every metric below reads its rows.  n_snapshots is the trajectory's
    snapshot count; the rows may cover only its last snapshots."""

    rows: tuple[PeakRow, ...]
    n_snapshots: int

    def tail(self) -> tuple[PeakRow, ...]:
        """The rows of the trailing window_size(n_snapshots) snapshots."""
        k = window_size(self.n_snapshots)
        if len(self.rows) < k:
            raise DomainError(f"the window needs the last {k} of {self.n_snapshots} "
                              f"snapshots; the table holds {len(self.rows)}")
        return self.rows[-k:]


def peak_table(traj: Trajectory, threshold: Optional[float] = None,
               min_separation: float = DEFAULT_MIN_SEPARATION) -> PeakTable:
    """One find_peaks pass per snapshot the trajectory holds, at one
    threshold (default: detection_threshold(traj), over every snapshot).
    The max |psi|^2 of each row is the trajectory's peak_series entry; a
    bounded deque's snapshots pair with the trailing entries.  The snapshots
    are read in order, one at a time, so a streamed run's come back from
    disk one by one."""
    n = len(traj.times)
    if not n:
        raise DomainError("trajectory has no snapshots")
    thr = detection_threshold(traj) if threshold is None else float(threshold)
    return PeakTable(tuple(
        PeakRow(s.time, tuple(find_peaks(s, thr, min_separation)), float(top))
        for s, top in zip(traj.snapshots, traj.peak_series[n - len(traj.snapshots):])), n)


def peak_count_series(table: PeakTable) -> list[tuple[float, int]]:
    """(time, peak count) per snapshot the table holds."""
    return [(row.time, len(row.peaks)) for row in table.rows]


def count_structures(table: PeakTable) -> int:
    """Modal peak count over the trailing snapshot window, which rides out
    miscounts at breathing phase extremes.

    Ties between equally frequent counts resolve to the smaller count.
    """
    freq = Counter(len(row.peaks) for row in table.tail())
    best = max(freq.items(), key=lambda kv: (kv[1], -kv[0]))
    return int(best[0])


def splitting_alternations(counts: Sequence[int]) -> int:
    """Transitions between the split regime (three or more peaks) and the
    merged regime (two or fewer) between neighbouring counts of a series."""
    split = [c >= 3 for c in counts]
    return sum(a != b for a, b in zip(split, split[1:]))


def outer_position_blocks(table: PeakTable) -> np.ndarray:
    """Block-averaged mean |position| of off-center peaks over the window.

    Travelling structures breathe, so their instantaneous positions wobble
    around the outward trend; averaging over four sub-windows exposes the
    drift itself.  Peaks within _CORE_RADIUS of the origin (the standing
    structure) are excluded.
    """
    per_snap = []
    for row in table.tail():
        outer = [abs(p.position) for p in row.peaks if abs(p.position) > _CORE_RADIUS]
        if outer:
            per_snap.append(float(np.mean(outer)))
    if len(per_snap) < _OUTER_BLOCKS:
        raise DomainError(f"only {len(per_snap)} usable snapshots for {_OUTER_BLOCKS} blocks")
    return np.array([b.mean() for b in np.array_split(np.array(per_snap), _OUTER_BLOCKS)])


def oscillation_metric(table: PeakTable) -> float:
    """(max - min)/mean over the window of the height of the peak nearest
    x = 0 (the snapshot's max |psi|^2 when nothing clears the threshold, e.g.
    plateau-only fields)."""
    h = np.array([min(row.peaks, key=lambda p: (abs(p.position), p.position)).height
                  if row.peaks else row.max_intensity for row in table.tail()])
    mean = float(np.mean(h))
    if not mean > 0.0:  # NaN fails too; the scan's argmin would pick it
        raise DomainError(f"degenerate trajectory: central-peak heights average to {mean:g}")
    return float((np.max(h) - np.min(h)) / mean)


def track_structures(table: PeakTable) -> list[list[Peak]]:
    """Greedy nearest-neighbor matching of peaks across every snapshot the
    table holds.

    Each track is the time-ordered list of matched peaks; a peak further than
    the gating distance from every live track opens a new one.
    """
    tracks: list[list[Peak]] = []
    for row in table.rows:
        peaks = row.peaks
        assignments = []
        for ti, tr in enumerate(tracks):
            last = tr[-1].position
            for pi, p in enumerate(peaks):
                assignments.append((abs(p.position - last), ti, pi))
        # greedy assignment: nearest pairs first, each side used once
        used_tracks: set[int] = set()
        used_peaks: set[int] = set()
        for dist, ti, pi in sorted(assignments):
            if dist > TRACK_GATING_DISTANCE or ti in used_tracks or pi in used_peaks:
                continue
            tracks[ti].append(peaks[pi])
            used_tracks.add(ti)
            used_peaks.add(pi)
        for pi, p in enumerate(peaks):
            if pi not in used_peaks:
                tracks.append([p])
    return tracks


# --- stability scan --------------------------------------------------------

@dataclass(frozen=True)
class ScanTemplate(RunConfig):
    """The run every scan cell makes, and the grid each width makes it on
    (grid_for); the run, the model and the base grid are checked when the
    template is built."""

    dt: float = 2e-3
    t_final: float = 90.0
    snapshot_stride: int = 500
    grid_n: int = 1024
    grid_length: float = 80.0

    def __post_init__(self):
        super().__post_init__()
        if self.model.family is not Family.BESSEL_NLS:
            raise DomainError("stability scan is defined for the Bessel envelope model")
        Grid1D(self.grid_n, self.grid_length)  # a DomainError for a bad n or length

    def grid_for(self, alpha: float) -> Grid1D:
        # Wide profiles need a domain several widths across.
        length = max(self.grid_length, 24.0 / alpha)
        if length == math.inf:
            raise DomainError(f"alpha={alpha!r} in alphas is too small: the domain "
                              "24/alpha overflows")
        return Grid1D(self.grid_n, length)


def _evaluate(template: ScanTemplate,
              cells: Sequence[tuple[Grid1D, float, float]]) -> list[float]:
    """Breathing metric of each (grid, psi0, alpha) cell, all propagated as one
    batch under the template, at the default peak separation.  Each cell
    keeps only the trailing window of snapshots that the metric reads.

    A cell that diverges scores infinity.
    """
    initials = [sech_profile(grid, psi0, alpha) for grid, psi0, alpha in cells]
    keep = window_size(template.n_snapshots)
    return [math.inf if isinstance(traj, DivergenceError) else
            oscillation_metric(peak_table(traj))
            for traj in propagate_batch(initials, template,
                                        [deque(maxlen=keep) for _ in initials])]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# How many times a scan widens a range whose minimum lands on its boundary.
MAX_WIDENINGS = 2


def _golden(a: float, b: float, iters: int):
    """Golden-section search on [a, b] as a coroutine: yields the psi0 values
    it needs, receives their metrics, returns (psi0, metric) of the best."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = yield [c, d]
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc, = yield [c]
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd, = yield [d]
    return (c, fc) if fc <= fd else (d, fd)


def _search(alpha: float, lo: float, hi: float, n_samples: int, refine_iters: int):
    """One width's coarse sweep, widenings and refinement, as a coroutine like
    _golden; returns the StabilityPoint."""
    a_lo, a_hi, a_n = lo, hi, n_samples
    flags = []
    for attempt in range(MAX_WIDENINGS + 1):
        samples = np.linspace(a_lo, a_hi, a_n)
        metrics = yield [float(p) for p in samples]
        if all(math.isinf(m) for m in metrics):
            flags.append("all cells diverged")
            best_psi0, best_metric = math.nan, math.inf
            break
        if any(math.isinf(m) for m in metrics):
            flags.append(f"{sum(map(math.isinf, metrics))} divergent cells skipped")
        k = int(np.argmin(metrics))
        if 0 < k < len(samples) - 1:
            best_psi0, best_metric = yield from _golden(
                float(samples[k - 1]), float(samples[k + 1]), refine_iters)
            if metrics[k] < best_metric:
                best_psi0, best_metric = float(samples[k]), float(metrics[k])
            break
        # a low minimum already at the clamp lo/4 cannot widen any further
        if attempt == MAX_WIDENINGS or (k == 0 and a_lo == lo * 0.25):
            best_psi0, best_metric = float(samples[k]), float(metrics[k])
            flags.append("minimum stayed on range boundary")
            break
        # boundary minimum: widen away from the interior and rescan
        span = a_hi - a_lo
        if k == 0:
            a_lo = max(lo * 0.25, a_lo - span)
            flags.append(f"widened low to {a_lo:g}")
        else:
            a_hi = a_hi + span
            flags.append(f"widened high to {a_hi:g}")
    return StabilityPoint(alpha, best_psi0, best_metric, "; ".join(flags))


def scan_stability(alphas: Sequence[float],
                   psi0_range: tuple[float, float, int],
                   template: ScanTemplate,
                   jobs: int = 1,
                   refine_iters: int = 6) -> list[StabilityPoint]:
    """Minimize the breathing metric over psi0 for each width alpha.

    Coarse grid first, then golden-section refinement inside the bracketing
    interval.  A minimum landing on the range boundary widens the range and
    reruns, up to MAX_WIDENINGS times; cells that diverge score infinity and
    are skipped.  The widths run in lockstep: each round propagates every cell
    that any width needs next as one batch, so a width evaluates the same
    points as it would alone and the result does not depend on the batching.
    jobs > 1 splits each batch into at most that many contiguous blocks, run
    in one process pool for the whole scan.  Its workers start by the spawn
    method, so a script that calls this with jobs > 1 needs the usual
    `if __name__ == "__main__":` guard.
    """
    if not alphas:
        raise DomainError("alpha list is empty")
    alphas = [float(require_positive("alphas", a)) for a in alphas]
    lo, hi = float(psi0_range[0]), float(psi0_range[1])
    n_samples = require_integer("psi0_samples", psi0_range[2])
    if not (0.0 < lo < hi < math.inf and n_samples >= 3):
        raise DomainError(f"bad psi0 range {psi0_range!r}: need 0 < psi0_lo < psi0_hi < inf "
                          "and psi0_samples >= 3")
    try:
        np.empty(n_samples)  # the size of each coarse sweep's samples
    except (MemoryError, ValueError) as err:  # ValueError: past numpy's size limit
        raise DomainError(f"psi0_samples={n_samples} is too large to allocate") from err
    jobs = require_integer("jobs", jobs, 1)
    refine_iters = require_integer("refine_iters", refine_iters, 0)
    grids = [template.grid_for(a) for a in alphas]  # a DomainError if a domain overflows
    searches = [_search(a, lo, hi, n_samples, refine_iters) for a in alphas]
    points: list = [None] * len(searches)
    # Ctrl-C reaches the workers too; they ignore it and the caller handles it
    executor = (ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("spawn"),
                                    initializer=signal.signal,
                                    initargs=(signal.SIGINT, signal.SIG_IGN))
                if jobs > 1 else contextlib.nullcontext())
    with executor as pool:
        wanted = {i: next(s) for i, s in enumerate(searches)}
        while wanted:
            cells = [(grids[i], p, alphas[i]) for i, psi0s in wanted.items() for p in psi0s]
            n_blocks = min(jobs, len(cells))
            edges = [len(cells) * b // n_blocks for b in range(n_blocks + 1)]
            blocks = [cells[e0:e1] for e0, e1 in zip(edges, edges[1:])]
            metrics = (m for block in (pool.map if pool else map)(
                _evaluate, [template] * n_blocks, blocks) for m in block)
            for i, psi0s in list(wanted.items()):
                try:
                    wanted[i] = searches[i].send([next(metrics) for _ in psi0s])
                except StopIteration as done:
                    del wanted[i]
                    points[i] = done.value
    return points


def stable_line_prediction(alpha: float) -> tuple[float, float]:
    """Amplitude and phase rate of the quiet line: psi0 = 4*alpha, k = (alpha**2 - 1)/2.

    Third-order truncation of the Bessel nonlinearity turns the envelope
    equation into a focusing cubic one whose sech soliton has exactly this
    amplitude-width ratio (for omega = lambda = 1).
    """
    require_positive("alpha", alpha)
    return 4.0 * alpha, (alpha * alpha - 1.0) / 2.0
