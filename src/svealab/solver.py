"""Split-step spectral propagator for the envelope equations.

Strang splitting on a periodic grid: half a linear step applied as a
multiplier exp(-i*D*k^2*dt/2) on the spectrum, then the full nonlinear
rotation exp(-i*V(|psi|)*dt) pointwise, then the second linear half.  The
nonlinear sub-step is exact because it leaves |psi| untouched, so both
sub-steps preserve the discrete L2 norm to rounding and the overall scheme
is second order in dt.

step() and propagate() share one stepper built once per run: precomputed
half-step multiplier and scalars, preallocated buffers, in-place out= ufuncs
and overwrite_x transforms.  Products keep their textbook operand order
(complex products are not bitwise commutative under SIMD), so the output is
byte for byte that of the allocating form.  As |J1(z)/z| <= 1/2 (A&S 9.1.62),
a Bessel run with dt*|lambda**2/omega|/2 < STABILITY_GUARD passes the rotation
guard once per run; other runs check max|V| every step.  A non-finite field
shows in the projection's power sum.

The x grid is symmetric, x_j = -L/2 + j*L/n, and wavenumbers follow the
standard FFT ordering k_j = 2*pi*j/L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as _fft

from .errors import DivergenceError, DomainError
from .models import Family, ModelSpec, nls_nonlinear_phase_rate
from .solutions import AnalyticSolution, eval_solution

__all__ = [
    "Grid1D",
    "FieldState",
    "RunConfig",
    "Trajectory",
    "step",
    "propagate",
    "mass",
    "peak_intensity",
    "sech_profile",
    "supergaussian_profile",
    "uniform_profile",
    "catalog_profile",
    "STABILITY_GUARD",
]

# Nonlinear rotation per step must stay under this angle (radians).
STABILITY_GUARD = 0.5


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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "spacing", dx)
        object.__setattr__(self, "wavenumbers", 2.0 * np.pi * _fft.fftfreq(n, d=dx))
        object.__setattr__(self, "x", -0.5 * length + dx * np.arange(n))


@dataclass(frozen=True)
class FieldState:
    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n,):
            raise DomainError(
                f"field length {v.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(v.view(float))):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "time", float(self.time))


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    dt: float = 1e-3
    t_final: float = 30.0
    snapshot_stride: int = 100

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise DomainError(f"dt must be positive, got {self.dt}")
        if not (self.t_final >= 0.0 and math.isfinite(self.t_final)):
            raise DomainError(f"t_final must be >= 0, got {self.t_final}")
        if int(self.snapshot_stride) < 1:
            raise DomainError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")
        object.__setattr__(self, "snapshot_stride", int(self.snapshot_stride))
        if not math.isclose(self.n_steps * self.dt, self.t_final, rel_tol=1e-9):
            raise DomainError(f"t_final={self.t_final!r} is not a whole number of dt={self.dt!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass(frozen=True)
class Trajectory:
    """Propagation record: snapshots at stride multiples (plus the final step),
    mass at every step, and the peak intensity max |psi|^2 per snapshot."""

    snapshots: tuple[FieldState, ...]
    mass_series: np.ndarray
    peak_series: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def final(self) -> FieldState:
        return self.snapshots[-1]


def mass(state: FieldState) -> float:
    """Discrete L2 norm sum |psi_j|^2 * dx."""
    v = state.values
    return float(np.vdot(v, v).real * state.grid.spacing)


def peak_intensity(state: FieldState) -> float:
    return float(np.max(np.abs(state.values) ** 2))


# Per-step unitarity correction larger than this means the update is not a
# pure phase rotation plus rounding, i.e. an actual bug; refuse to absorb it.
UNITARITY_GUARD = 1e-10


def _stepper(grid: Grid1D, model: ModelSpec, dt: float, v_hat0: np.ndarray):
    """Build advance(v_hat, t): one Strang step of the spectrum, in place, to time t."""
    if not model.family.is_nls:
        raise DomainError(f"solver handles envelope families only, got {model.family.value}")
    target = float(np.vdot(v_hat0, v_hat0).real)
    if not 0.0 < target < math.inf:
        raise DomainError(f"initial state needs a positive finite mass, got power {target:g}")
    half = np.exp(-0.5j * model.dispersion * dt * grid.wavenumbers**2)
    phase = -1j * dt
    guard_each_step = not (model.family is Family.BESSEL_NLS and
                           abs(dt) * abs(model.lam**2 / model.omega) * 0.5 < STABILITY_GUARD)
    work, rot, amp = np.empty(grid.n, complex), np.empty(grid.n, complex), np.empty(grid.n)

    def advance(v_hat: np.ndarray, t: float) -> None:
        np.multiply(half, v_hat, out=work)
        v = _fft.ifft(work, overwrite_x=True)
        rate = nls_nonlinear_phase_rate(model, np.abs(v, out=amp))
        if guard_each_step and abs(dt) * float(np.max(np.abs(rate))) >= STABILITY_GUARD:
            raise DivergenceError(f"nonlinear rotation exceeded guard {STABILITY_GUARD} "
                                  f"at t={t:g}; reduce dt", time=t)
        np.multiply(v, np.exp(np.multiply(phase, rate, out=rot), out=rot), out=v)
        np.multiply(half, _fft.fft(v, overwrite_x=True), out=v_hat)
        # Both sub-steps are unit-modulus rotations, so the exact flow keeps the
        # spectral power sum fixed; rescaling onto it removes the slow systematic
        # drift (~1e-16 per step) that exp() and the transform pair leave behind.
        total = float(np.vdot(v_hat, v_hat).real)
        if not math.isfinite(total):
            raise DivergenceError(f"non-finite field at t={t:g}", time=t)
        scale = math.sqrt(target / total)
        if abs(scale - 1.0) > UNITARITY_GUARD:
            raise DivergenceError(f"unitarity defect {abs(scale - 1.0):.3e} at t={t:g}", time=t)
        np.multiply(v_hat, scale, out=v_hat)

    return advance


def step(state: FieldState, model: ModelSpec, dt: float) -> FieldState:
    """One Strang step.  dt may be negative (time reversal)."""
    v_hat = _fft.fft(state.values)
    _stepper(state.grid, model, dt, v_hat)(v_hat, state.time + dt)
    return FieldState(state.grid, _fft.ifft(v_hat), state.time + dt)


def propagate(initial: FieldState, cfg: RunConfig) -> Trajectory:
    """Repeated stepping with per-step mass recording and stride snapshots.

    On divergence the partial trajectory (snapshots up to the last healthy
    step) rides on the raised error.
    """
    grid = initial.grid
    v_hat = _fft.fft(initial.values)
    advance = _stepper(grid, cfg.model, cfg.dt, v_hat)
    n_steps = cfg.n_steps
    t0 = initial.time

    # Kept spectral between steps: the discrete mass is read off the spectrum
    # (Parseval), so only one transform pair per step touches the state.
    parseval = grid.spacing / grid.n

    snaps = [initial]
    peaks = [peak_intensity(initial)]
    masses = [float(np.vdot(v_hat, v_hat).real) * parseval]
    for j in range(1, n_steps + 1):
        t = t0 + j * cfg.dt
        try:
            advance(v_hat, t)
        except DivergenceError as err:
            err.partial = Trajectory(tuple(snaps), np.array(masses), np.array(peaks))
            raise
        masses.append(float(np.vdot(v_hat, v_hat).real * parseval))
        if j % cfg.snapshot_stride == 0 or j == n_steps:
            state = FieldState(grid, _fft.ifft(v_hat), t)
            snaps.append(state)
            peaks.append(peak_intensity(state))
    return Trajectory(tuple(snaps), np.array(masses), np.array(peaks))


# --- initial conditions ----------------------------------------------------

def sech_profile(grid: Grid1D, psi0: float, alpha: float = 1.0) -> FieldState:
    """psi0 * sech(alpha * x)."""
    if alpha <= 0.0:
        raise DomainError(f"width parameter alpha must be positive, got {alpha}")
    return FieldState(grid, psi0 / np.cosh(alpha * grid.x), 0.0)


def supergaussian_profile(grid: Grid1D, psi0: float, width: float,
                          order: int = 40) -> FieldState:
    """psi0 * exp(-(x/width)**(2*order)): step-like for large order."""
    if width <= 0.0 or order < 1:
        raise DomainError("supergaussian needs width > 0 and order >= 1")
    u = grid.x / width
    return FieldState(grid, psi0 * np.exp(-(u ** (2 * int(order)))), 0.0)


def uniform_profile(grid: Grid1D, psi0: float) -> FieldState:
    return FieldState(grid, np.full(grid.n, complex(psi0)), 0.0)


def catalog_profile(grid: Grid1D, sol: AnalyticSolution, t: float = 0.0) -> FieldState:
    """Sample a catalog solution onto the grid as initial data."""
    return FieldState(grid, np.asarray(eval_solution(sol, grid.x, t), dtype=complex), t)
