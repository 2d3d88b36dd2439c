"""Reference values computed through routes independent of the package.

The constants below were produced at 40-digit working precision (alternating
series for the Bessel values, Taylor-method ODE integration for the elliptic
values outside [0, 1], mpmath's ellipfun inside it) and then frozen.  The
sn_oracle function re-derives sn on demand by integrating its defining ODE
with a tight-tolerance Runge-Kutta method, giving the test suite a second
live route that shares no code with the implementation under test.

reference_propagate is the textbook Strang step the solver's in-place
stepper must reproduce bit for bit: every product allocates, the guard
dt*max|V| and the finite check run on every step.  reference_bessel_rate is
the masked J1(z)/z form the rate's fast path must reproduce.
"""

import math

import numpy as np
from scipy import fft
from scipy.integrate import solve_ivp
from scipy.special import j1

from svealab.errors import DivergenceError
from svealab.models import BESSEL_RATE_CUTOVER, nls_nonlinear_phase_rate
from svealab.solver import (STABILITY_GUARD, UNITARITY_GUARD, FieldState, Trajectory,
                            peak_intensity)

# J1(z), summed as sum_k (-1)^k (z/2)^(2k+1) / (k! (k+1)!) at 40 digits
J1_VALUES = {
    0.5: 0.24226845767487388638,
    1.0: 0.44005058574493351596,
    2.0: 0.5767248077568733872,
    3.0: 0.33905895852593645893,
    5.0: -0.32757913759146522204,
    10.0: 0.04347274616886143667,
}

FIRST_J1_ZERO = 3.8317059702075123156

# 0F1(; 2; w)
HYP0F1_TWO_VALUES = {
    -0.25: 0.88010117148986703192,
    -1.0: 0.5767248077568733872,
    0.5: 1.2717234563121371107,
}

# (u, m) -> (sn, cn, dn) for the in-range parameter, via mpmath ellipfun
ELLIPTIC_TRIPLES = {
    (0.8, 0.3): (0.70156689603844562582, 0.71260359975443628631, 0.92322324879462077682),
    (1.3, 0.81): (0.88576019828039891985, 0.4641431580259138005, 0.60373618876562083589),
    (0.5, 0.999): (0.46213438067085328479, 0.88680990871886792753, 0.88693031427940543654),
}

# (u, m) -> sn for parameters outside [0, 1], via high-precision ODE integration
SN_EXTENDED = {
    (1.0, -1.0): 0.90768322140494616793,
    (0.7, -0.5): 0.66395932651367945152,
    (0.45, 2.0): 0.40896862572926089697,
    (0.6, 1.5): 0.52330909480942203179,
}

# complete elliptic integral K(m)
K_VALUES = {
    0.36: 1.7507538029157525204,
    0.6: 1.9495677498060258587,
}


def sn_oracle(u: float, m: float) -> float:
    """sn(u | m) by integrating y'' = -(1+m) y + 2 m y^3, y(0)=0, y'(0)=1."""
    rhs = lambda _, y: [y[1], -(1.0 + m) * y[0] + 2.0 * m * y[0] ** 3]
    sol = solve_ivp(rhs, (0.0, u), [0.0, 1.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    return float(sol.sol(u)[0])


def reference_bessel_rate(amp):
    """J1(z)/z with z < BESSEL_RATE_CUTOVER always routed through the mask."""
    small = amp < BESSEL_RATE_CUTOVER
    safe = np.where(small, 1.0, amp)
    z2 = amp * amp
    return np.where(small, 0.5 - z2 / 16.0 + z2 * z2 / 384.0, j1(safe) / safe)


def _reference_step(v_hat, half, model, dt, t, target):
    v = fft.ifft(half * v_hat)
    rate = nls_nonlinear_phase_rate(model, np.abs(v))
    if abs(dt) * float(np.max(np.abs(rate))) >= STABILITY_GUARD:
        raise DivergenceError(f"rotation guard at t={t:g}", time=t)
    v_hat = half * fft.fft(v * np.exp(-1j * dt * rate))
    if not np.all(np.isfinite(v_hat.view(float))):
        raise DivergenceError(f"non-finite field at t={t:g}", time=t)
    scale = math.sqrt(target / float(np.vdot(v_hat, v_hat).real))
    if abs(scale - 1.0) > UNITARITY_GUARD:
        raise DivergenceError(f"unitarity defect at t={t:g}", time=t)
    return v_hat * scale


def reference_propagate(initial, cfg):
    """The solver's propagate, one allocating textbook step at a time."""
    grid, model, dt = initial.grid, cfg.model, cfg.dt
    half = np.exp(-0.5j * model.dispersion * dt * grid.wavenumbers**2)
    parseval = grid.spacing / grid.n
    n_steps = int(round(cfg.t_final / dt))
    v_hat = fft.fft(initial.values)
    target = float(np.vdot(v_hat, v_hat).real)
    snaps, peaks, masses = [initial], [peak_intensity(initial)], [target * parseval]
    for j in range(1, n_steps + 1):
        t = initial.time + j * dt
        v_hat = _reference_step(v_hat, half, model, dt, t, target)
        masses.append(float(np.vdot(v_hat, v_hat).real * parseval))
        if j % cfg.snapshot_stride == 0 or j == n_steps:
            snaps.append(FieldState(grid, fft.ifft(v_hat), t))
            peaks.append(peak_intensity(snaps[-1]))
    return Trajectory(tuple(snaps), np.array(masses), np.array(peaks))
