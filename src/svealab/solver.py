"""Split-step spectral propagator for the envelope equations.

Strang splitting on a periodic grid, x_j = -L/2 + j*L/n, with wavenumbers
k_j = 2*pi*j/L in FFT order.  propagate_batch() is the one stepping routine
and propagate() its B = 1 case.  Every operation is per row and products keep
their textbook operand order (complex products are not bitwise commutative
under SIMD), so each row's output is byte for byte that of its solo run.

The rotation is built as cos(theta) + i*sin(theta), which is bitwise
exp(-1j*dt*V), the textbook form the tests keep as reference: -1j*dt is the
complex (+0, -dt), so its product with V is (+-0) + i*(+0 + (-dt)*V) exactly,
and theta = (-dt)*V + 0.0 gives a -0 angle the same +0.  tests/test_solver.py
checks the identity on the platform at hand.

_transform calls scipy's pocketfft binding with the arguments scipy.fft.fft
and ifft end in.  The public functions spend 4-5 us per call in Python before
pocketfft starts, a fifth of the call at n = 2048; tests/test_solver.py pins
the identity, so a scipy that moves or changes the binding fails there first.

Given on_snapshot, each snapshot goes to it as it is made, and the trajectory
keeps only the snapshot times, peak intensities and masses, so a run's memory
does not grow with its snapshot count.  The initial snapshot goes only once
the stepper is built, so a run the stepper refuses hands nothing over.

The stepper binds its family's rate once per run; nls_nonlinear_phase_rate is
the validated public entry point, re-exported here for the benchmark's tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import fft as _fft
from scipy.fft._pocketfft import pypocketfft as _pocketfft

from .errors import DivergenceError, DomainError, require_positive
from .models import ModelSpec
# Not called here since the stepper binds its family's rate; perfbench/tracing.py
# wraps this name on this module, so it stays importable from it.
from .models import nls_nonlinear_phase_rate  # noqa: F401
from .solutions import AnalyticSolution, eval_solution

__all__ = [
    "Grid1D",
    "FieldState",
    "RunConfig",
    "Trajectory",
    "propagate",
    "propagate_batch",
    "peak_intensity",
    "sech_profile",
    "supergaussian_profile",
    "uniform_profile",
    "catalog_profile",
    "STABILITY_GUARD",
    "MAX_STEPS",
]

# Nonlinear rotation per step must stay under this angle (radians).
STABILITY_GUARD = 0.5

# Most steps one run may take: 100 times the 1e5 of the longest preset.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Grid1D:
    """Periodic 1-D grid; n a power of two >= 16."""

    n: int
    length: float
    spacing: float = field(init=False)
    wavenumbers: np.ndarray = field(init=False, repr=False)
    x: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, length = int(self.n), float(self.length)
        if n < 16 or n & (n - 1):
            raise DomainError(f"grid size must be a power of two >= 16, got {n}")
        if not (length > 0.0 and math.isfinite(length)):
            raise DomainError(f"grid length must be positive and finite, got {length}")
        dx = length / n
        if not (dx > 0.0 and (math.pi / dx) * (math.pi / dx) < math.inf):
            raise DomainError(f"grid length {length!r} makes wavenumbers whose squares overflow")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "spacing", dx)
        object.__setattr__(self, "wavenumbers", 2.0 * np.pi * _fft.fftfreq(n, d=dx))
        object.__setattr__(self, "x", -0.5 * length + dx * np.arange(n))


@dataclass(frozen=True)
class FieldState:
    """Field values on a grid at one time.  values is a read-only copy of the
    array given, so the finite check made here keeps holding."""

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise DomainError(
                f"field length {v.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(v.view(float))):
            raise DomainError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time", float(self.time))


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    dt: float = 1e-3
    t_final: float = 30.0
    snapshot_stride: int = 100

    def __post_init__(self):
        if not (self.t_final >= 0.0 and math.isfinite(self.t_final)):
            raise DomainError(f"t_final must be >= 0, got {self.t_final}")
        if not (0.0 < self.dt < math.inf and math.isfinite(self.t_final / self.dt)):
            raise DomainError(f"dt must be positive with t_final/dt finite, got {self.dt!r}")
        if int(self.snapshot_stride) < 1:
            raise DomainError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        object.__setattr__(self, "snapshot_stride", int(self.snapshot_stride))
        if self.n_steps > MAX_STEPS:
            raise DomainError(f"dt={self.dt!r} makes {self.n_steps:.3g} steps to "
                              f"t_final={self.t_final!r}, more than {MAX_STEPS:.0e}")
        if not math.isclose(self.n_steps * self.dt, self.t_final, rel_tol=1e-9):
            raise DomainError(f"t_final={self.t_final!r} is not a whole number of dt={self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Propagation record: snapshots at stride multiples (plus the final step),
    mass at every step, and the peak intensity max |psi|^2 and time of each
    snapshot.  times defaults to the snapshots' own; a streamed run, whose
    snapshots went to a hand-off, holds none and gives its times here."""

    snapshots: tuple[FieldState, ...]
    mass_series: np.ndarray
    peak_series: np.ndarray
    times: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.times is None:
            object.__setattr__(self, "times", np.array([s.time for s in self.snapshots]))

    @property
    def final(self) -> FieldState:
        return self.snapshots[-1]


def peak_intensity(state: FieldState) -> float:
    return float(np.max(np.abs(state.values) ** 2))


def _transform(a: np.ndarray, forward: bool, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.fft.fft (forward) or ifft of complex a along its last axis, written
    into out (which may be a itself) or a new array; bitwise the public call."""
    return _pocketfft.c2c(a, (a.ndim - 1,), forward, 0 if forward else 2, out, 1)


# Per-step unitarity correction larger than this means the update is not a
# pure phase rotation plus rounding, i.e. an actual bug; refuse to absorb it.
UNITARITY_GUARD = 1e-10


def _power_floor(n: int) -> float:
    """The least power sum|v_hat|^2 = n*sum|psi|^2 a field of n points may
    start with: n roundings of a subnormal square (2**-1074 each) held to
    UNITARITY_GUARD.  Below it the sum's rounding alone trips the guard."""
    return n * 2.0**-1074 / UNITARITY_GUARD


class _Stepper:
    """Strang steps of a (B, n) spectrum stack, in place, one transform pair per step.

    Rows share n but not their grid length, so each row gets its own half-step
    multiplier.  Everything run-constant is settled once: the multipliers, the
    projection targets, the rate-bound guard decision, the family's rate bound
    to the model, and the (B, n) buffers.
    `rows` holds the input index of each row still stepping and `spectra` its
    live view.  advance(j) retires every row that trips the rotation guard, the
    non-finite check or the unitarity check, each with its own DivergenceError,
    and compacts the stack so the other rows keep stepping.
    Each row must start with a finite power of at least _power_floor(n).
    """

    def __init__(self, grids: Sequence[Grid1D], model: ModelSpec, dt: float,
                 v_hat: np.ndarray, t0: Sequence[float]):
        if not model.family.is_nls:
            raise DomainError(f"solver handles envelope families only, got {model.family.value}")
        self.targets = [float(np.vdot(row, row).real) for row in v_hat]
        floor = _power_floor(v_hat.shape[-1])
        for target in self.targets:
            if not floor <= target < math.inf:  # NaN fails too
                raise DomainError(f"initial state needs a finite mass whose power is at "
                                  f"least {floor:g} (n*2**-1074/{UNITARITY_GUARD:g}), "
                                  f"got power {target:g}")
        self.dt, self.t0 = dt, list(t0)
        self.rows = list(range(len(v_hat)))
        with np.errstate(over="ignore", invalid="ignore"):
            half = np.array([np.exp(-0.5j * model.dispersion * dt * g.wavenumbers**2)
                             for g in grids])
        if not np.all(np.isfinite(half.view(float))):  # D*dt*k**2 overflowed
            raise DomainError(f"the dispersion half step overflows: D={model.dispersion!r} "
                              f"(omega={model.omega!r}) times dt={dt!r} times k**2; "
                              "raise omega or lower dt")
        law = model.family.law
        self.guard_each_step = not abs(dt) * law.rate_bound(model) < STABILITY_GUARD
        # amp = |v| needs no check: it is >= 0, and finite because the power
        # sum check retires a row the step before it turns non-finite
        self._rate = law.term(model)
        self._full = (v_hat, half, np.empty(v_hat.shape, complex),
                      np.empty(v_hat.shape, complex), np.empty(v_hat.shape),
                      np.empty(v_hat.shape))
        self._live(len(self.rows))

    def _live(self, m: int) -> None:
        self._views = tuple(a[:m] for a in self._full)
        self.spectra = list(self._views[0])

    def advance(self, j: int) -> Sequence[tuple[int, DivergenceError]]:
        """Step j of every live row; returns the (row, error) pairs it retired."""
        v_hat, half, work, rot, amp, rate = self._views
        np.multiply(half, v_hat, out=work)
        v = _transform(work, False, work)
        self._rate(np.abs(v, out=amp), rate)
        bad = {}  # row -> message, {t} standing for its time
        if self.guard_each_step:
            peak = abs(self.dt) * np.max(np.abs(rate), axis=-1)
            for k in np.flatnonzero(peak >= STABILITY_GUARD):
                bad[int(k)] = (f"nonlinear rotation exceeded guard {STABILITY_GUARD} "
                               "at t={t:g}; reduce dt")
        # + 0.0 gives a zero angle the sign it has in exp(-1j*dt*V)'s argument
        theta = np.add(np.multiply(-self.dt, rate, out=amp), 0.0, out=amp)
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        np.multiply(v, rot, out=v)
        np.multiply(half, _transform(v, True, v), out=v_hat)
        # Both sub-steps are unit-modulus rotations, so the exact flow keeps the
        # spectral power sum fixed; rescaling onto it removes the slow systematic
        # drift (~1e-16 per step) that cos, sin and the transform pair leave behind.
        for k, (row, target) in enumerate(zip(self.spectra, self.targets)):
            if k in bad:
                continue
            total = float(np.vdot(row, row).real)
            if not math.isfinite(total):
                bad[k] = "non-finite field at t={t:g}"
                continue
            scale = math.sqrt(target / total)
            if abs(scale - 1.0) > UNITARITY_GUARD:
                bad[k] = f"unitarity defect {abs(scale - 1.0):.3e} at t={{t:g}}"
                continue
            np.multiply(row, scale, out=row)
        return self._retire(bad, j) if bad else ()

    def _retire(self, bad: dict, j: int) -> list[tuple[int, DivergenceError]]:
        retired = []
        for k in sorted(bad):
            t = self.t0[k] + j * self.dt
            retired.append((self.rows[k], DivergenceError(bad[k].format(t=t), time=t)))
        keep = [k for k in range(len(self.rows)) if k not in bad]
        for a in self._full[:2]:
            a[:len(keep)] = a[keep]
        self.rows, self.targets, self.t0 = ([seq[k] for k in keep]
                                            for seq in (self.rows, self.targets, self.t0))
        self._live(len(keep))
        return retired


def propagate(initial: FieldState, cfg: RunConfig,
              on_snapshot: Optional[Callable[[FieldState], None]] = None) -> Trajectory:
    """Repeated stepping with per-step mass recording and stride snapshots,
    kept on the trajectory or, given on_snapshot, handed to it as made.

    On divergence the partial trajectory (snapshots up to the last healthy
    step) rides on the raised error.
    """
    result, = propagate_batch([initial], cfg,
                              None if on_snapshot is None else lambda _, s: on_snapshot(s))
    if isinstance(result, DivergenceError):
        raise result
    return result


def propagate_batch(initials: Sequence[FieldState], cfg: RunConfig,
                    on_snapshot: Optional[Callable[[int, FieldState], None]] = None,
                    ) -> list[Trajectory | DivergenceError]:
    """propagate() for a stack of initial states that share n, stepped together.

    Each entry of the result is the row's Trajectory, bitwise that of its solo
    run, or the DivergenceError it raised there, partial trajectory attached;
    a diverged row leaves the stack and the others keep stepping.  Given
    on_snapshot, each snapshot goes to on_snapshot(row, state), row its index
    in initials, and the trajectories hold none.
    """
    if not initials:
        raise DomainError("propagate_batch needs at least one initial state")
    grids = [s.grid for s in initials]
    if len({g.n for g in grids}) > 1:
        raise DomainError(f"batched rows must share n, got {sorted({g.n for g in grids})}")
    stack = _Stepper(grids, cfg.model, cfg.dt,
                     np.array([_transform(s.values, True) for s in initials]),
                     [s.time for s in initials])
    n_steps = cfg.n_steps

    # Kept spectral between steps: the discrete mass is read off the spectrum
    # (Parseval), so only one transform pair per step touches the state.
    parseval = [g.spacing / g.n for g in grids]

    masses = np.empty((len(initials), n_steps + 1))
    snaps, times, peaks = ([[] for _ in initials] for _ in range(3))
    keep = on_snapshot or (lambda i, state: snaps[i].append(state))

    def record(i: int, state: FieldState) -> None:
        times[i].append(state.time)
        peaks[i].append(peak_intensity(state))
        keep(i, state)

    def trajectory(i: int, n_masses: int) -> Trajectory:
        return Trajectory(tuple(snaps[i]), masses[i, :n_masses], np.array(peaks[i]),
                          np.array(times[i]))

    for i, state in enumerate(initials):
        masses[i, 0] = stack.targets[i] * parseval[i]
        record(i, state)
    results: list = [None] * len(initials)
    for j in range(1, n_steps + 1):
        for i, err in stack.advance(j):
            err.partial = trajectory(i, j)
            results[i] = err
        if not stack.rows:
            break
        for i, row in zip(stack.rows, stack.spectra):
            masses[i, j] = np.vdot(row, row).real * parseval[i]
        if j % cfg.snapshot_stride == 0 or j == n_steps:
            for i, row in zip(stack.rows, stack.spectra):
                record(i, FieldState(grids[i], _transform(row, False),
                                     initials[i].time + j * cfg.dt))
    for i in stack.rows:
        results[i] = trajectory(i, n_steps + 1)
    return results


# --- initial conditions ----------------------------------------------------

def _amplitude_state(grid: Grid1D, psi0: float, values: np.ndarray) -> FieldState:
    """psi0 times a profile as the state at t = 0.  Its power n*sum|psi|^2 (by
    Parseval the stepper's) must be finite and at least _power_floor(n), or
    psi0 is refused."""
    power = float(np.vdot(values, values).real) * grid.n
    floor = _power_floor(grid.n)
    if not floor <= power < math.inf:  # NaN fails too
        raise DomainError(f"amplitude psi0={psi0!r} gives the initial field a power "
                          f"n*sum|psi|^2 of {power:g}; it must be finite and at least "
                          f"{floor:g} (n*2**-1074/{UNITARITY_GUARD:g})")
    return FieldState(grid, values, 0.0)


def sech_profile(grid: Grid1D, psi0: float, alpha: float = 1.0) -> FieldState:
    """psi0 * sech(alpha * x); where cosh overflows, sech is 0."""
    if not 0.0 < alpha < math.inf:  # NaN fails too
        raise DomainError(f"width parameter alpha must be finite and > 0, got {alpha}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf/inf: psi0 fails below
        return _amplitude_state(grid, psi0, psi0 / np.cosh(alpha * grid.x))


def supergaussian_profile(grid: Grid1D, psi0: float, width: float,
                          order: int = 40) -> FieldState:
    """psi0 * exp(-(x/width)**(2*order)), 0 where the power overflows:
    step-like for large order."""
    require_positive("supergaussian width", width)
    if order < 1:
        raise DomainError(f"supergaussian order must be >= 1, got {order}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf*0: psi0 fails below
        u = grid.x / width
        return _amplitude_state(grid, psi0, psi0 * np.exp(-(u ** (2 * int(order)))))


def uniform_profile(grid: Grid1D, psi0: float) -> FieldState:
    return _amplitude_state(grid, psi0, np.full(grid.n, complex(psi0)))


def catalog_profile(grid: Grid1D, sol: AnalyticSolution) -> FieldState:
    """Sample a catalog solution at t = 0 onto the grid as initial data."""
    return FieldState(grid, np.asarray(eval_solution(sol, grid.x, 0.0), dtype=complex), 0.0)
