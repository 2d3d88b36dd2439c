"""Split-step spectral propagator for the envelope equations.

Strang splitting on a periodic grid, x_j = -L/2 + j*L/n, with wavenumbers
k_j = 2*pi*j/L in FFT order.  propagate_batch() is the one stepping routine
and propagate() its B = 1 case.  Every operation is per row and products keep
their textbook operand order (complex products are not bitwise commutative
under SIMD), so each row's output is byte for byte that of its solo run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy import fft as _fft
from scipy.fft._pocketfft import pypocketfft as _pocketfft

from .errors import (DivergenceError, DomainError, require_integer, require_nonnegative,
                     require_positive)
from .models import ModelSpec
# Not called here since propagate_batch binds its family's rate once per run;
# perfbench/tracing.py wraps this name on this module, so it stays importable.
from .models import nls_nonlinear_phase_rate  # noqa: F401

# Nonlinear rotation per step must stay under this angle (radians).
STABILITY_GUARD = 0.5

# Most steps one run may take: 100 times the 1e5 of the longest preset.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class Grid1D:
    """Periodic 1-D grid; n a power of two >= 16.  (n, length) alone decide
    equality and the hash; the other fields derive from them."""

    n: int
    length: float
    spacing: float = field(init=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, length = require_integer("grid size n", self.n), float(self.length)
        if n < 16 or n & (n - 1):
            raise DomainError(f"grid size must be a power of two >= 16, got {n}")
        require_positive("grid length", length)
        dx = length / n
        if not (dx > 0.0 and (math.pi / dx) * (math.pi / dx) < math.inf):
            raise DomainError(f"grid length {length!r} makes wavenumbers whose squares overflow")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)
        try:
            wavenumbers = 2.0 * np.pi * _fft.fftfreq(n, d=dx)
            x = -0.5 * length + dx * np.arange(n)
        except (MemoryError, ValueError) as err:  # ValueError: past numpy's size limit
            raise DomainError(f"grid size n={n} is too large to allocate") from err
        object.__setattr__(self, "spacing", dx)
        object.__setattr__(self, "wavenumbers", wavenumbers)
        object.__setattr__(self, "x", x)


@dataclass(frozen=True, eq=False)
class FieldState:
    """Field values on a grid at one time.  values is a read-only copy of the
    array given, so the finite check made here keeps holding; == is identity."""

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
        require_nonnegative("t_final", self.t_final)
        if not (0.0 < self.dt < math.inf and math.isfinite(self.t_final / self.dt)):
            raise DomainError(f"dt must be positive with t_final/dt finite, got {self.dt!r}")
        object.__setattr__(self, "snapshot_stride",
                           require_integer("snapshot_stride", self.snapshot_stride, 1))
        if self.n_steps > MAX_STEPS:
            raise DomainError(f"dt={self.dt!r} makes {self.n_steps:.3g} steps to "
                              f"t_final={self.t_final!r}, more than {MAX_STEPS:.0e}")
        if not math.isclose(self.n_steps * self.dt, self.t_final, rel_tol=1e-9):
            raise DomainError(f"t_final={self.t_final!r} is not a whole number of dt={self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def n_snapshots(self) -> int:
        """Snapshots a whole run records: t = 0, each stride multiple, and the
        last step when the stride does not divide n_steps."""
        n, stride = self.n_steps, self.snapshot_stride
        return n // stride + 1 + (n % stride > 0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Propagation record: snapshots at stride multiples (plus the final step),
    and the time, mass and peak intensity max |psi|^2 of each snapshot.
    snapshots is the sequence each snapshot was appended to: a list, for a
    streamed run the fieldio.SnapshotStream that wrote them, or a
    collections.deque, which keeps only its last maxlen; times, mass_series
    and peak_series cover every snapshot all the same."""

    snapshots: Sequence[FieldState]
    mass_series: np.ndarray
    peak_series: np.ndarray
    times: np.ndarray

    @property
    def final(self) -> FieldState:
        return self.snapshots[-1]


def peak_intensity(state: FieldState) -> float:
    return float(np.max(np.abs(state.values) ** 2))


def _transform(a: np.ndarray, forward: bool, out: np.ndarray | None = None) -> np.ndarray:
    """scipy.fft.fft (forward) or ifft of complex a along its last axis, written
    into out (which may be a itself) or a new array; bitwise the public call.

    The call is the one scipy.fft.fft and ifft end in: they spend 4-5 us in
    Python before pocketfft starts, a fifth of the call at n = 2048.
    tests/test_solver.py pins the identity, so a scipy that moves or changes
    the binding fails there first."""
    return _pocketfft.c2c(a, (a.ndim - 1,), forward, 0 if forward else 2, out, 1)


# Per-step unitarity correction larger than this means the update is not a
# pure phase rotation plus rounding, i.e. an actual bug; refuse to absorb it.
UNITARITY_GUARD = 1e-10


def _power_floor(n: int) -> float:
    """The least power sum|v_hat|^2 = n*sum|psi|^2 a field of n points may
    start with: n roundings of a subnormal square (2**-1074 each) held to
    UNITARITY_GUARD.  Below it the sum's rounding alone trips the guard."""
    return n * 2.0**-1074 / UNITARITY_GUARD


def propagate(initial: FieldState, cfg: RunConfig,
              snapshots: Optional[Sequence[FieldState]] = None) -> Trajectory:
    """Repeated stepping with stride snapshots, each appended as made to
    snapshots (empty; default a new list), which becomes the trajectory's: a
    fieldio.SnapshotStream writes them to disk, so a run's memory does not
    grow with its snapshot count.

    On divergence the partial trajectory (snapshots up to the last healthy
    step) rides on the raised error.  The initial snapshot goes only once the
    run is set up, so a run refused at set-up appends nothing.
    """
    result, = propagate_batch([initial], cfg, None if snapshots is None else [snapshots])
    if isinstance(result, DivergenceError):
        raise result
    return result


def propagate_batch(initials: Sequence[FieldState], cfg: RunConfig,
                    snapshots: Optional[Sequence[Sequence[FieldState]]] = None,
                    ) -> list[Trajectory | DivergenceError]:
    """propagate() for a stack of initial states that share n, stepped together.

    Each entry of the result is the row's Trajectory, bitwise that of its solo
    run, or the DivergenceError it raised there, partial trajectory attached;
    a diverged row leaves the stack and the others keep stepping.  snapshots
    holds the empty sequence each row's snapshots are appended to, one per
    initial state (default: a new list each).  A row's mass, its spectral
    power sum times dx/n, is read once per snapshot, after the projection.

    The (B, n) spectrum stack takes one transform pair per Strang step, in
    place.  Rows share n but not their grid length, so each row gets its own
    half-step multiplier.  A row leaves the stack when it trips the rotation
    guard, the non-finite check or the unitarity check; each row must start
    with a finite power of at least _power_floor(n).
    """
    if not initials:
        raise DomainError("propagate_batch needs at least one initial state")
    snaps = [[] for _ in initials] if snapshots is None else snapshots
    if len(snaps) != len(initials) or any(map(len, snaps)):
        raise DomainError(f"{len(initials)} initial states need as many empty snapshot "
                          f"sequences, got {len(snaps)} holding {[len(q) for q in snaps]}")
    grids = [s.grid for s in initials]
    if len({g.n for g in grids}) > 1:
        raise DomainError(f"batched rows must share n, got {sorted({g.n for g in grids})}")
    model, dt, n_steps = cfg.model, cfg.dt, cfg.n_steps
    if not model.family.is_nls:
        raise DomainError(f"solver handles envelope families only, got {model.family.value}")
    v_hat = np.array([_transform(s.values, True) for s in initials])
    targets = [float(np.vdot(row, row).real) for row in v_hat]
    floor = _power_floor(v_hat.shape[-1])
    for target in targets:
        if not floor <= target < math.inf:  # NaN fails too
            raise DomainError(f"initial state needs a finite mass whose power is at "
                              f"least {floor:g} (n*2**-1074/{UNITARITY_GUARD:g}), "
                              f"got power {target:g}")
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.array([np.exp(-0.5j * model.dispersion * dt * g.wavenumbers**2)
                         for g in grids])
    if not np.all(np.isfinite(half.view(float))):  # D*dt*k**2 overflowed
        raise DomainError(f"the dispersion half step overflows: D={model.dispersion!r} "
                          f"(omega={model.omega!r}) times dt={dt!r} times k**2; "
                          "raise omega or lower dt")
    law = model.family.law
    guard_each_step = not abs(dt) * law.rate_bound(model) < STABILITY_GUARD
    # amp = |v| needs no check: it is >= 0, and finite because the power
    # sum check retires a row the step before it turns non-finite
    phase_rate = law.term(model)
    full = (v_hat, half, np.empty(v_hat.shape, complex), np.empty(v_hat.shape, complex),
            np.empty(v_hat.shape), np.empty(v_hat.shape))

    # Kept spectral between steps: the discrete mass is read off the spectrum
    # (Parseval), so only one transform pair per step touches the state.
    parseval = [g.spacing / g.n for g in grids]

    times, masses, peaks = ([[] for _ in initials] for _ in range(3))

    def record(i: int, state: FieldState, mass: float) -> None:
        times[i].append(state.time)
        masses[i].append(mass)
        peaks[i].append(peak_intensity(state))
        snaps[i].append(state)

    def trajectory(i: int) -> Trajectory:
        return Trajectory(snaps[i], np.array(masses[i]), np.array(peaks[i]),
                          np.array(times[i]))

    def clock(i: int) -> float:  # row i's time after step j
        return initials[i].time + j * dt

    for i, state in enumerate(initials):
        record(i, state, targets[i] * parseval[i])
    results: list = [None] * len(initials)
    rows = list(range(len(initials)))  # the input index of each live row
    views, spectra = full, list(v_hat)  # the live rows, and each row's view
    for j in range(1, n_steps + 1):
        v_hat, half, work, rot, amp, rate = views
        np.multiply(half, v_hat, out=work)
        v = _transform(work, False, work)
        phase_rate(np.abs(v, out=amp), rate)
        bad = {}  # live row -> reason
        if guard_each_step:
            peak = abs(dt) * np.max(np.abs(rate), axis=-1)
            for k in np.flatnonzero(peak >= STABILITY_GUARD):
                bad[int(k)] = (f"nonlinear rotation exceeded guard {STABILITY_GUARD} "
                               f"at t={clock(rows[k]):g}; reduce dt")
        # cos(theta) + i*sin(theta) is bitwise exp(-1j*dt*V): -1j*dt is the
        # complex (+0, -dt), so its product with V is (+-0) + i*(+0 + (-dt)*V)
        # exactly, and + 0.0 gives a -0 angle the same +0; tests/test_solver.py
        # checks the identity on the platform at hand
        theta = np.add(np.multiply(-dt, rate, out=amp), 0.0, out=amp)
        np.cos(theta, out=rot.real)
        np.sin(theta, out=rot.imag)
        np.multiply(v, rot, out=v)
        np.multiply(half, _transform(v, True, v), out=v_hat)
        # Both sub-steps are unit-modulus rotations, so the exact flow keeps the
        # spectral power sum fixed; rescaling onto it removes the slow systematic
        # drift (~1e-16 per step) that cos, sin and the transform pair leave behind.
        for k, (i, row, target) in enumerate(zip(rows, spectra, targets)):
            if k in bad:
                continue
            total = float(np.vdot(row, row).real)
            if not math.isfinite(total):
                bad[k] = f"non-finite field at t={clock(i):g}"
                continue
            scale = math.sqrt(target / total)
            if abs(scale - 1.0) > UNITARITY_GUARD:
                bad[k] = f"unitarity defect {abs(scale - 1.0):.3e} at t={clock(i):g}"
                continue
            np.multiply(row, scale, out=row)
        if bad:  # retire the diverged rows and compact the stack
            for k, reason in bad.items():
                results[rows[k]] = DivergenceError(reason, clock(rows[k]), trajectory(rows[k]))
            live = [k for k in range(len(rows)) if k not in bad]
            for a in full[:2]:
                a[:len(live)] = a[live]
            rows, targets = ([seq[k] for k in live] for seq in (rows, targets))
            views = tuple(a[:len(live)] for a in full)
            spectra = list(views[0])
            if not rows:
                break
        if j % cfg.snapshot_stride == 0 or j == n_steps:
            for i, row in zip(rows, spectra):
                record(i, FieldState(grids[i], _transform(row, False), clock(i)),
                       np.vdot(row, row).real * parseval[i])
    for i in rows:
        results[i] = trajectory(i)
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


def sech_profile(grid: Grid1D, psi0: float = 1.0, alpha: float = 1.0) -> FieldState:
    """psi0 * sech(alpha * x); where cosh overflows, sech is 0."""
    require_positive("alpha", alpha)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/inf: psi0 fails below
        return _amplitude_state(grid, psi0, psi0 / np.cosh(alpha * grid.x))


def supergaussian_profile(grid: Grid1D, psi0: float = 1.0, width: float = 10.0,
                          order: int = 40) -> FieldState:
    """psi0 * exp(-(x/width)**(2*order)), 0 where the power overflows:
    step-like for large order."""
    require_positive("supergaussian width", width)
    order = require_integer("supergaussian order", order, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf*0: psi0 fails below
        u = grid.x / width
        return _amplitude_state(grid, psi0, psi0 * np.exp(-(u ** (2 * order))))


def uniform_profile(grid: Grid1D, psi0: float = 1.0) -> FieldState:
    return _amplitude_state(grid, psi0, np.full(grid.n, complex(psi0)))
