"""Split-step propagation: conservation, accuracy, reversibility, guards."""

import math

import numpy as np
import pytest

from svealab.errors import DivergenceError, DomainError
from svealab.models import BESSEL_RATE_CUTOVER, Family, ModelSpec, nls_nonlinear_phase_rate
from svealab.solutions import SolutionId, make_solution
from svealab.solver import (FieldState, Grid1D, RunConfig, Trajectory, catalog_profile,
                            mass, peak_intensity, propagate, sech_profile, step,
                            supergaussian_profile, uniform_profile)

from oracles import K_VALUES, reference_propagate

CUBIC = ModelSpec(Family.CUBIC_NLS, lam=1.0, omega=1.0)
BESSEL = ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            Grid1D(1000, 40.0)

    def test_rejects_tiny_or_degenerate(self):
        with pytest.raises(DomainError):
            Grid1D(8, 40.0)
        with pytest.raises(DomainError):
            Grid1D(64, 0.0)

    def test_axis_layout(self):
        g = Grid1D(64, 32.0)
        assert g.x[0] == pytest.approx(-16.0)
        assert g.spacing == pytest.approx(0.5)
        assert len(g.x) == 64
        # periodic: the right endpoint is excluded
        assert g.x[-1] == pytest.approx(16.0 - 0.5)

    def test_wavenumbers_diagonalize_second_derivative(self):
        g = Grid1D(128, 2.0 * np.pi * 4.0)
        k0 = 3.0 / 4.0  # an exactly representable on-grid mode
        v = np.exp(1j * k0 * g.x)
        import scipy.fft as fft
        d2 = fft.ifft(-(g.wavenumbers**2) * fft.fft(v))
        assert np.allclose(d2, -(k0**2) * v, atol=1e-10)


class TestFieldState:
    def test_rejects_non_finite(self):
        g = Grid1D(32, 10.0)
        vals = np.ones(32, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(DomainError):
            FieldState(g, vals, 0.0)

    def test_rejects_wrong_shape(self):
        g = Grid1D(32, 10.0)
        with pytest.raises(DomainError):
            FieldState(g, np.ones(16, dtype=complex), 0.0)


class TestRunConfig:
    def test_rejects_bad_dt_and_horizon(self):
        with pytest.raises(DomainError):
            RunConfig(CUBIC, dt=0.0)
        with pytest.raises(DomainError):
            RunConfig(CUBIC, t_final=-1.0)
        with pytest.raises(DomainError):
            RunConfig(CUBIC, snapshot_stride=0)

    @pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (1e-3, 1e-12), (0.4, 0.9)])
    def test_rejects_horizon_off_the_step_grid(self, dt, t_final):
        # rounding t_final/dt used to stop short (t=0.9 for dt=0.3) without a word
        with pytest.raises(DomainError, match="whole number"):
            RunConfig(CUBIC, dt=dt, t_final=t_final)

    def test_step_count_survives_decimal_rounding(self):
        assert RunConfig(CUBIC, dt=1e-3, t_final=30.0).n_steps == 30000
        assert RunConfig(CUBIC, dt=0.1, t_final=0.3).n_steps == 3
        assert RunConfig(CUBIC, dt=0.3, t_final=0.0).n_steps == 0


class TestProfiles:
    def test_uniform_mass(self):
        # |psi|^2 = 4 over length 10
        g = Grid1D(16, 10.0)
        assert mass(uniform_profile(g, 2.0)) == pytest.approx(40.0, rel=1e-14)

    def test_sech_peak(self):
        g = Grid1D(2048, 80.0)
        st = sech_profile(g, 15.0)
        assert peak_intensity(st) == pytest.approx(225.0, rel=1e-12)
        assert abs(g.x[int(np.argmax(np.abs(st.values)))]) < g.spacing

    def test_supergaussian_plateau_and_drop(self):
        g = Grid1D(512, 120.0)
        st = supergaussian_profile(g, 10.0, 10.0, 40)
        v = np.abs(st.values)
        assert v[np.argmin(np.abs(g.x))] == pytest.approx(10.0, rel=1e-12)
        assert np.all(v[np.abs(g.x) > 12.0] < 1e-6)

    def test_sech_rejects_bad_width(self):
        with pytest.raises(DomainError):
            sech_profile(Grid1D(32, 10.0), 1.0, alpha=0.0)

    def test_catalog_profile_matches_closed_form(self):
        from svealab.solutions import eval_solution
        sol = make_solution(SolutionId.CUBIC_NLS_CN)
        g = Grid1D(64, 8.0)
        st = catalog_profile(g, sol)
        assert np.allclose(st.values, np.asarray(eval_solution(sol, g.x, 0.0)), rtol=1e-13)


class TestPropagation:
    def test_mass_conserved_at_rounding_level(self):
        g = Grid1D(256, 40.0)
        traj = propagate(sech_profile(g, 2.0), RunConfig(CUBIC, dt=1e-3, t_final=2.0))
        drift = np.max(np.abs(traj.mass_series / traj.mass_series[0] - 1.0))
        assert drift < 1e-13

    def test_snapshot_times_and_stride(self):
        g = Grid1D(64, 20.0)
        traj = propagate(uniform_profile(g, 1.0),
                         RunConfig(BESSEL, dt=0.01, t_final=0.25, snapshot_stride=10))
        assert traj.times == pytest.approx([0.0, 0.1, 0.2, 0.25])
        assert len(traj.mass_series) == 26

    def test_uniform_field_rotates_exactly(self):
        g = Grid1D(64, 20.0)
        psi0 = 3.0
        traj = propagate(uniform_profile(g, psi0),
                         RunConfig(BESSEL, dt=1e-3, t_final=1.0, snapshot_stride=1000))
        rate = float(nls_nonlinear_phase_rate(BESSEL, np.array([psi0]))[0])
        expected = psi0 * np.exp(-1j * rate * 1.0)
        assert np.max(np.abs(traj.final.values - expected)) < 1e-12

    def test_stationary_profile_stays_put(self):
        sol = make_solution(SolutionId.CUBIC_NLS_SN)
        length = 4.0 * K_VALUES[0.6]
        g = Grid1D(256, length)
        st = catalog_profile(g, sol)
        traj = propagate(st, RunConfig(CUBIC, dt=1e-3, t_final=5.0, snapshot_stride=1000))
        drift = np.max(np.abs(np.abs(traj.final.values) - np.abs(st.values)))
        assert drift < 1e-5

    def test_second_order_in_dt(self):
        g = Grid1D(512, 40.0)
        st = sech_profile(g, 2.0)
        ref = propagate(st, RunConfig(CUBIC, dt=2.5e-4, t_final=1.0,
                                      snapshot_stride=4000)).final.values
        errs = []
        for dt in (2e-3, 1e-3):
            out = propagate(st, RunConfig(CUBIC, dt=dt, t_final=1.0,
                                          snapshot_stride=4000)).final.values
            errs.append(np.max(np.abs(out - ref)))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.8

    def test_spatially_spectral(self):
        coarse = Grid1D(256, 40.0)
        fine = Grid1D(512, 40.0)
        cfg = RunConfig(CUBIC, dt=1e-3, t_final=1.0, snapshot_stride=1000)
        a = propagate(sech_profile(coarse, 2.0), cfg).final.values
        b = propagate(sech_profile(fine, 2.0), cfg).final.values
        assert np.max(np.abs(b[::2] - a)) < 1e-8

    def test_time_reversal_returns_to_start(self):
        # conjugating the field flips the direction of time
        g = Grid1D(256, 40.0)
        st = sech_profile(g, 2.0)
        cfg = RunConfig(CUBIC, dt=1e-3, t_final=0.2, snapshot_stride=200)
        fwd = propagate(st, cfg)
        flipped = FieldState(g, np.conj(fwd.final.values), 0.0)
        back = propagate(flipped, cfg)
        assert np.max(np.abs(np.conj(back.final.values) - st.values)) < 1e-8

    def test_single_step_matches_propagate(self):
        g = Grid1D(128, 20.0)
        st = sech_profile(g, 1.5)
        for model in (CUBIC, BESSEL):
            one = step(st, model, 1e-3)
            cfg = RunConfig(model, dt=1e-3, t_final=1e-3, snapshot_stride=1)
            traj = propagate(st, cfg)
            assert one.time == traj.final.time
            assert np.array_equal(one.values, traj.final.values)
            assert np.array_equal(one.values, reference_propagate(st, cfg).final.values)

    @pytest.mark.parametrize("model", [CUBIC, BESSEL], ids=["cubic", "bessel"])
    def test_zero_field_is_rejected_before_stepping(self, model):
        st = uniform_profile(Grid1D(64, 20.0), 0.0)
        with pytest.raises(DomainError, match="mass"):
            propagate(st, RunConfig(model, dt=1e-3, t_final=0.1))
        with pytest.raises(DomainError, match="mass"):
            step(st, model, 1e-3)

    def test_kg_model_rejected(self):
        g = Grid1D(64, 20.0)
        with pytest.raises(DomainError):
            propagate(uniform_profile(g, 1.0),
                      RunConfig(ModelSpec(Family.CUBIC_KG), dt=1e-3, t_final=0.1))


class TestDivergenceGuard:
    def test_fast_rotation_raises_with_partial(self):
        g = Grid1D(64, 20.0)
        st = uniform_profile(g, 30.0)  # cubic rate 900, dt*rate = 0.9
        with pytest.raises(DivergenceError) as err:
            propagate(st, RunConfig(CUBIC, dt=1e-3, t_final=1.0))
        partial = err.value.partial
        assert isinstance(partial, Trajectory)
        assert len(partial.snapshots) >= 1
        assert partial.snapshots[0].time == 0.0

    # The once-per-run Bessel bound dt*lambda**2/omega/2 is 1.0 and 0.6: neither
    # clears the guard, and 100*J1(psi0)/psi0 turns dt*|V| into 0.88 and 0.58.
    @pytest.mark.parametrize("dt, psi0", [(0.02, 1.0), (0.012, 0.5)])
    def test_bessel_run_beyond_its_bound_keeps_the_per_step_guard(self, dt, psi0):
        model = ModelSpec(Family.BESSEL_NLS, lam=10.0, omega=1.0)
        with pytest.raises(DivergenceError, match="guard") as err:
            propagate(uniform_profile(Grid1D(64, 20.0), psi0),
                      RunConfig(model, dt=dt, t_final=50 * dt))
        assert err.value.time == pytest.approx(dt)
        assert len(err.value.partial.mass_series) == 1

    def test_non_finite_field_raises_with_partial(self, monkeypatch):
        # An infinite rate on the third step poisons the field with NaN; the
        # Bessel bound has switched the rotation guard off, so only the
        # projection's power sum can see it.
        calls = []

        def poisoned(model, amp):
            calls.append(None)
            rate = nls_nonlinear_phase_rate(model, amp)
            if len(calls) == 3:
                rate[0] = np.inf
            return rate

        monkeypatch.setattr("svealab.solver.nls_nonlinear_phase_rate", poisoned)
        with pytest.raises(DivergenceError, match="non-finite") as err, \
                np.errstate(invalid="ignore"):
            propagate(sech_profile(Grid1D(64, 20.0), 1.0),
                      RunConfig(BESSEL, dt=1e-3, t_final=0.01))
        assert err.value.time == pytest.approx(3e-3)
        assert len(err.value.partial.mass_series) == 3


def _structured(grid, base, bump):
    return FieldState(grid, (base + bump / np.cosh(grid.x)).astype(complex))


_G = Grid1D(256, 40.0)
# (model, initial state, dt): every NLS family, both Bessel rate branches
# (series below the cutover, direct above it, and a mix), and a Bessel run
# whose once-per-run bound (0.01*100/2 = 0.5) keeps the per-step guard.
_BITWISE_CASES = {
    "cubic": (CUBIC, sech_profile(_G, 2.0), 1e-3),
    "double-well": (ModelSpec(Family.DOUBLE_WELL_NLS, lam=1.0, mass=0.5),
                    sech_profile(_G, 2.0), 1e-3),
    "cubic-quintic": (ModelSpec(Family.CUBIC_QUINTIC_NLS, lam=0.1, sigma=0.5),
                      sech_profile(_G, 2.0), 1e-3),
    "bessel-mixed": (BESSEL, sech_profile(_G, 15.0), 1e-3),
    "bessel-direct": (BESSEL, _structured(_G, 0.5, 8.0), 1e-3),
    "bessel-series": (BESSEL, sech_profile(_G, 0.5 * BESSEL_RATE_CUTOVER, 0.2), 1e-3),
    "bessel-guard-per-step": (ModelSpec(Family.BESSEL_NLS, lam=10.0),
                              _structured(_G, 5.0, 0.1), 1e-2),
}


@pytest.mark.parametrize("name", list(_BITWISE_CASES))
def test_in_place_stepper_matches_textbook_step_bitwise(name):
    model, st, dt = _BITWISE_CASES[name]
    cfg = RunConfig(model, dt=dt, t_final=200 * dt, snapshot_stride=30)
    fast, ref = propagate(st, cfg), reference_propagate(st, cfg)
    assert len(fast.snapshots) == len(ref.snapshots) == 8
    for a, b in zip(fast.snapshots, ref.snapshots):
        assert a.time == b.time
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(fast.mass_series, ref.mass_series)
    assert np.array_equal(fast.peak_series, ref.peak_series)
