"""Per-layer microbenchmarks through svealab's public functions.

Each result is the median over REPEATS timed repeats, taken after one
untimed warm-up repeat, of the mean time per call in microseconds.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np
from scipy import fft as _fft

from svealab.analysis import find_peaks
from svealab.fieldio import write_snapshot
from svealab.models import Family, ModelSpec, nls_nonlinear_phase_rate
from svealab.solver import FieldState, Grid1D, RunConfig, propagate, sech_profile
from svealab.specfn import bessel_j1

SIZES = (256, 1024, 2048, 4096)
REPEATS = 5
STEPS = 100  # per timed propagation

BESSEL = ModelSpec(Family.BESSEL_NLS)
CUBIC = ModelSpec(Family.CUBIC_NLS)


def _per_call_us(fn, calls: int) -> float:
    times = []
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(times[1:])


def _case1_state(n: int) -> FieldState:
    """The case1 pulse, 15*sech(x) on a length-80 grid, at n points."""
    return sech_profile(Grid1D(n, 80.0), 15.0, 1.0)


def _peaked_state(n: int) -> FieldState:
    """Eight separated sech bumps of unequal height on a length-120 grid."""
    grid = Grid1D(n, 120.0)
    centers = np.linspace(-50.0, 50.0, 8)
    values = sum((1.0 + 0.1 * i) / np.cosh(grid.x - c) for i, c in enumerate(centers))
    return FieldState(grid, values.astype(complex))


def run(work: Path) -> dict[str, float]:
    out = {}
    for n in SIZES:
        state = _case1_state(n)
        cfg = RunConfig(BESSEL, dt=1e-3, t_final=STEPS * 1e-3, snapshot_stride=STEPS)
        out[f"solver.step_us.n{n}"] = _per_call_us(lambda: propagate(state, cfg), 1) / STEPS
        v = state.values.copy()
        calls = max(20, 400_000 // n)
        out[f"solver.fft_floor_us.n{n}"] = _per_call_us(lambda: _fft.ifft(_fft.fft(v)), calls)
        amp = np.abs(v)
        out[f"models.phase_rate_us.bessel.n{n}"] = _per_call_us(
            lambda: nls_nonlinear_phase_rate(BESSEL, amp), calls)
        out[f"models.phase_rate_us.cubic.n{n}"] = _per_call_us(
            lambda: nls_nonlinear_phase_rate(CUBIC, amp), calls)
        out[f"specfn.j1_us.n{n}"] = _per_call_us(lambda: bessel_j1(amp), calls)

    peaked = _peaked_state(4096)
    threshold = 0.02 * float(np.max(np.abs(peaked.values) ** 2))
    out["analysis.find_peaks_us.n4096"] = _per_call_us(
        lambda: find_peaks(peaked, threshold), 200)
    path = work / "micro.svea"
    out["fieldio.write_snapshot_us.n4096"] = _per_call_us(
        lambda: write_snapshot(path, peaked), 50)
    path.unlink()
    return out
