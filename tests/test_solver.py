"""Split-step propagation: conservation, accuracy, reversibility, guards."""

import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from svealab import models
from svealab.errors import DivergenceError, DomainError
from svealab.fieldio import SnapshotStream
from svealab.models import BESSEL_RATE_CUTOVER, Family, ModelSpec, nls_nonlinear_phase_rate
from svealab.solutions import SolutionId, _x_period, eval_solution, make_solution, model_for
from svealab.solver import (MAX_STEPS, STABILITY_GUARD, FieldState, Grid1D, RunConfig,
                            Trajectory, peak_intensity, propagate, propagate_batch,
                            sech_profile, supergaussian_profile, uniform_profile,
                            _power_floor, _transform)

from oracles import K_VALUES, breather_first_harmonic, reference_propagate, stationary_state

CUBIC = ModelSpec(Family.CUBIC_NLS, lam=1.0, omega=1.0)
BESSEL = ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0)


def _spy_on_bessel_rate(monkeypatch, poison=None):
    """Swap in a Bessel law whose term records each model it binds and each
    call of the rate it returns; poison(rate, call), if given, then edits the
    rate just written.  Returns the bound models and the calls."""
    law = Family.BESSEL_NLS.law
    binds, calls = [], []

    def term(model):
        binds.append(model)
        bound = law.term(model)

        def rate(amp, out):
            calls.append(None)
            bound(amp, out)
            if poison is not None:
                poison(out, len(calls))
            return out
        return rate

    monkeypatch.setitem(models._LAWS, Family.BESSEL_NLS, law._replace(term=term))
    return binds, calls


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            Grid1D(1000, 40.0)

    def test_rejects_tiny_or_degenerate(self):
        with pytest.raises(DomainError):
            Grid1D(8, 40.0)
        with pytest.raises(DomainError):
            Grid1D(64, 0.0)

    @pytest.mark.parametrize("length", [1e-320, 1e-160])
    def test_rejects_a_length_whose_wavenumbers_square_to_infinity(self, length):
        with pytest.raises(DomainError, match="grid length"):
            Grid1D(64, length)

    def test_huge_length_is_a_grid(self):
        g = Grid1D(64, 1e308)
        assert np.all(np.isfinite(g.x)) and np.all(np.isfinite(g.wavenumbers**2))

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

    def test_equality_and_hash_go_by_size_and_length(self):
        # the derived arrays take no part, so == and hash() do not raise
        a, b = Grid1D(16, 8.0), Grid1D(16, 8.0)
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != Grid1D(32, 8.0) and a != Grid1D(16, 4.0)
        assert {a, b, Grid1D(32, 8.0), Grid1D(16, 4.0)} == {a, Grid1D(32, 8.0),
                                                             Grid1D(16, 4.0)}
        assert len({Grid1D(n, 8.0) for n in (16, 32, 16, 64, 32)}) == 3


class TestFieldState:
    def test_equality_is_identity(self):
        # a state holds an array, so == and hash() go by the object, as for a
        # trajectory; neither raises
        g = Grid1D(16, 8.0)
        a, b = FieldState(g, np.ones(16)), FieldState(g, np.ones(16))
        assert a == a and a != b and len({a, b, a}) == 2
        traj = propagate(sech_profile(g, 1.0), RunConfig(CUBIC, dt=0.01, t_final=0.02))
        twin = Trajectory(traj.snapshots, traj.mass_series, traj.peak_series, traj.times)
        assert traj == traj and traj != twin and len({traj, twin}) == 2

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

    def test_values_are_a_read_only_copy(self):
        g = Grid1D(16, 10.0)
        given_values = np.ones(16, dtype=complex)
        state = FieldState(g, given_values)
        with pytest.raises(ValueError, match="read-only"):
            state.values[:5] = [0.0, 1.0, np.nan, 1.0, 0.0]
        assert not np.shares_memory(state.values, given_values)
        given_values[2] = np.nan  # the caller's array stays writable
        assert np.all(np.isfinite(state.values))

    def test_snapshots_share_no_memory(self):
        g = Grid1D(64, 20.0)
        initial = sech_profile(g, 2.0)
        traj = propagate(initial, RunConfig(BESSEL, dt=1e-3, t_final=0.02, snapshot_stride=5))
        for a in traj.snapshots:
            assert not a.values.flags.writeable
            assert sum(np.shares_memory(a.values, b.values) for b in traj.snapshots) == 1


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

    # 12 steps: strides that divide them, that do not, and past them; no step
    @pytest.mark.parametrize("t_final, stride", [(0.12, 1), (0.12, 4), (0.12, 5), (0.12, 11),
                                                 (0.12, 12), (0.12, 13), (0.0, 3)])
    def test_snapshot_count_is_that_of_a_run(self, t_final, stride):
        cfg = RunConfig(CUBIC, dt=0.01, t_final=t_final, snapshot_stride=stride)
        assert cfg.n_snapshots == len(propagate(sech_profile(_G, 1.0), cfg).times)

    def test_step_count_is_bounded(self):
        # t_final/dt is finite, so only the bound stops a run of ~3e301 steps
        with pytest.raises(DomainError, match="dt=1e-300"):
            RunConfig(CUBIC, dt=1e-300, t_final=30.0)
        with pytest.raises(DomainError, match="dt"):
            RunConfig(CUBIC, dt=1e-3, t_final=MAX_STEPS * 1e-3 + 1.0)
        assert RunConfig(CUBIC, dt=1e-3, t_final=MAX_STEPS * 1e-3).n_steps == MAX_STEPS


class TestProfiles:
    def test_uniform_mass(self):
        # |psi|^2 = 4 over length 10, read off the spectrum by Parseval
        g = Grid1D(16, 10.0)
        traj = propagate(uniform_profile(g, 2.0), RunConfig(BESSEL, t_final=0.0))
        assert traj.mass_series[0] == pytest.approx(40.0, rel=1e-14)

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

    @pytest.mark.parametrize("alpha", [-1.0, float("inf"), float("nan")])
    def test_sech_width_must_be_finite_and_positive(self, alpha):
        with pytest.raises(DomainError, match="alpha"):
            sech_profile(Grid1D(32, 10.0), 1.0, alpha=alpha)

    def test_profiles_go_to_zero_where_they_overflow(self):
        # 1/cosh and exp(-u**(2*order)) overflowing to 0 is the right limit;
        # only x = 0 keeps the amplitude
        g = Grid1D(32, 10.0)
        spike = np.where(g.x == 0.0, 2.0, 0.0)
        assert np.array_equal(sech_profile(g, 2.0, alpha=1e308).values, spike)
        assert np.array_equal(supergaussian_profile(g, 2.0, width=1e-320).values, spike)
        assert np.array_equal(sech_profile(Grid1D(32, 1e308), 2.0).values, spike)

    @pytest.mark.parametrize("psi0", [float("inf"), float("-inf"), float("nan")])
    def test_profiles_reject_a_non_finite_psi0(self, psi0):
        # inf/cosh(1e308 * x) used to be inf/inf: a NaN and a RuntimeWarning
        g = Grid1D(64, 20.0)
        for make in (lambda: sech_profile(g, psi0, 1e308), lambda: sech_profile(g, psi0),
                     lambda: supergaussian_profile(g, psi0, 1e-320),
                     lambda: supergaussian_profile(g, psi0, 10.0),
                     lambda: uniform_profile(g, psi0)):
            with pytest.raises(DomainError, match="psi0"):
                make()

    def test_catalog_profile_matches_closed_form(self):
        sol = make_solution(SolutionId.CUBIC_NLS_CN)
        g = Grid1D(64, 8.0)
        st = FieldState(g, eval_solution(sol, g.x, 0.0))
        assert np.allclose(st.values, np.asarray(eval_solution(sol, g.x, 0.0)), rtol=1e-13)


class TestPropagation:
    def test_mass_conserved_at_rounding_level(self):
        # a snapshot every step, so every step's mass is read; the deque holds
        # only the last of the 2001 states
        g = Grid1D(256, 40.0)
        traj = propagate(sech_profile(g, 2.0),
                         RunConfig(CUBIC, dt=1e-3, t_final=2.0, snapshot_stride=1),
                         deque(maxlen=1))
        assert len(traj.mass_series) == len(traj.times) == 2001 and len(traj.snapshots) == 1
        drift = np.max(np.abs(traj.mass_series / traj.mass_series[0] - 1.0))
        assert drift < 1e-13

    def test_snapshot_times_and_stride(self):
        g = Grid1D(64, 20.0)
        traj = propagate(uniform_profile(g, 1.0),
                         RunConfig(BESSEL, dt=0.01, t_final=0.25, snapshot_stride=10))
        assert [s.time for s in traj.snapshots] == pytest.approx([0.0, 0.1, 0.2, 0.25])
        assert len(traj.mass_series) == 4

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
        st = FieldState(g, eval_solution(sol, g.x, 0.0))
        traj = propagate(st, RunConfig(CUBIC, dt=1e-3, t_final=5.0, snapshot_stride=1000))
        drift = np.max(np.abs(np.abs(traj.final.values) - np.abs(st.values)))
        assert drift < 1e-5

    @pytest.mark.parametrize("sid", [
        SolutionId.CUBIC_NLS_SN, SolutionId.CUBIC_NLS_CN, SolutionId.DW_NLS_SN,
        SolutionId.DW_NLS_CN, SolutionId.CQ_NLS_SN, SolutionId.DW_NLS_CONST,
        SolutionId.BESSEL_UNIFORM], ids=lambda sid: sid.value)
    def test_periodic_envelope_entry_follows_its_closed_form(self, sid):
        # every envelope law, run under its own model on two x-periods, tracks
        # the closed form at second order (CQ_NLS_SN: the signed root is
        # smooth across the radicand's zeros; the principal root's kinks left
        # an O(1) error by t = 4); a uniform entry only rotates its phase
        sol = make_solution(sid)
        period = _x_period(sol)
        g = Grid1D(128, 2.0 * period if period else 20.0)  # 0.0: any length holds it
        st = FieldState(g, eval_solution(sol, g.x, 0.0))
        exact = eval_solution(sol, g.x, 4.0)
        errs = [np.max(np.abs(propagate(st, RunConfig(model_for(sol), dt=dt, t_final=4.0,
                                                      snapshot_stride=4000)).final.values
                              - exact)) for dt in (2e-3, 1e-3)]
        if period == 0.0:
            assert max(errs) <= 1e-12
        else:
            assert errs[1] <= 2.6e-6
            assert math.log2(errs[0] / errs[1]) >= 1.8

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
            cfg = RunConfig(model, dt=1e-3, t_final=1e-3, snapshot_stride=1)
            one = propagate(st, cfg).final
            assert one.time == 1e-3
            assert np.array_equal(one.values, reference_propagate(st, cfg).final.values)

    @pytest.mark.parametrize("model", [CUBIC, BESSEL], ids=["cubic", "bessel"])
    def test_zero_field_is_rejected_before_stepping(self, model):
        # the profiles refuse psi0 = 0 themselves; the stepper guards any state
        st = FieldState(Grid1D(64, 20.0), np.zeros(64), 0.0)
        with pytest.raises(DomainError, match="mass"):
            propagate(st, RunConfig(model, dt=1e-3, t_final=0.1))

    @pytest.mark.parametrize("n", [256, 2048])
    def test_a_field_too_faint_for_the_unitarity_guard_is_refused(self, n):
        # psi0 from 1e-153 to 1e-161 in half decades: under the floor the power
        # sum is subnormal squares whose rounding alone trips UNITARITY_GUARD
        # (every field that diverged so sat at power/floor <= 0.026); each
        # refused field is refused by the stepper too, each accepted one steps
        g = Grid1D(n, 40.0)
        cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.2)
        refused = 0
        for make in (sech_profile, uniform_profile,
                     lambda g, psi0: supergaussian_profile(g, psi0, 10.0)):
            shape = make(g, 1.0).values
            for k in range(17):
                psi0 = 10.0 ** (-153 - k / 2)
                try:
                    state = make(g, psi0)
                except DomainError as err:
                    assert "psi0" in str(err)
                    with pytest.raises(DomainError, match="mass"):
                        propagate(FieldState(g, psi0 * shape, 0.0), cfg)
                    refused += 1
                    continue
                assert float(np.vdot(state.values, state.values).real) * n >= _power_floor(n)
                propagate(state, cfg)
        assert 0 < refused < 3 * 17  # the sweep straddles the floor

    def test_kg_model_rejected(self):
        g = Grid1D(64, 20.0)
        with pytest.raises(DomainError):
            propagate(uniform_profile(g, 1.0),
                      RunConfig(ModelSpec(Family.CUBIC_KG), dt=1e-3, t_final=0.1))

    def test_dispersion_half_step_that_overflows_is_a_domain_error(self):
        # D = 5e307 is finite, but D*dt*k**2 is not at the largest |k| of this grid
        model = ModelSpec(Family.BESSEL_NLS, omega=1e-308)
        with pytest.raises(DomainError, match="omega"):
            propagate(sech_profile(Grid1D(64, 5.0), 2.0), RunConfig(model, dt=0.01, t_final=0.1))


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
        def poison(rate, call):
            if call == 3:
                rate[0] = np.inf

        _spy_on_bessel_rate(monkeypatch, poison)
        with pytest.raises(DivergenceError, match="non-finite") as err, \
                np.errstate(invalid="ignore"):
            propagate(sech_profile(Grid1D(64, 20.0), 1.0),
                      RunConfig(BESSEL, dt=1e-3, t_final=0.01))
        assert err.value.time == pytest.approx(3e-3)
        assert len(err.value.partial.mass_series) == 1

    def test_unitarity_defect_raises_with_partial(self, leaky_forward):
        # the first step's power sum lands off its target by far more than
        # UNITARITY_GUARD
        st = sech_profile(Grid1D(64, 20.0), 1.0)
        with pytest.raises(DivergenceError) as err:
            propagate(st, RunConfig(CUBIC, dt=1e-3, t_final=0.01))
        assert str(err.value).startswith("unitarity defect")
        assert err.value.time == pytest.approx(1e-3)
        partial = err.value.partial
        assert len(partial.snapshots) == 1 and len(partial.mass_series) == 1
        assert partial.snapshots[0].time == 0.0
        assert partial.snapshots[0].values.tobytes() == st.values.tobytes()


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


def _assert_same_trajectory(fast, ref):
    assert len(fast.snapshots) == len(ref.snapshots)
    for a, b in zip(fast.snapshots, ref.snapshots):
        assert a.time == b.time
        assert a.values.tobytes() == b.values.tobytes()
    assert fast.mass_series.tobytes() == ref.mass_series.tobytes()
    assert fast.peak_series.tobytes() == ref.peak_series.tobytes()
    assert fast.times.tobytes() == ref.times.tobytes()


_EDGE_RATES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dt=st.one_of(st.sampled_from([1e-3, -1e-3, 2e-3, 1e-2, 1e-300, -1e-300]),
                    st.floats(-1.0, 1.0).filter(lambda d: d != 0.0)),
       fractions=st.lists(st.one_of(st.floats(-1.0, 1.0), st.sampled_from(_EDGE_RATES)),
                          min_size=1, max_size=64))
def test_cos_sin_rotation_is_bitwise_the_complex_exp(dt, fractions):
    # propagate_batch builds exp(-1j*dt*V) as cos(theta) + i*sin(theta) with
    # theta = (-dt)*V + 0.0; this holds on a platform whose complex exp and
    # real cos/sin round alike, for every rotation under the guard
    rate = np.array([f * STABILITY_GUARD / abs(dt) if abs(f) >= 1e-200 else f
                     for f in fractions])
    rate = rate[np.abs(dt * rate) < STABILITY_GUARD]
    theta = np.add(np.multiply(-dt, rate), 0.0)
    rot = np.empty(rate.shape, complex)
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    assert rot.tobytes() == np.exp(np.multiply(-1j * dt, rate)).tobytes()


@pytest.mark.parametrize("name", list(_BITWISE_CASES))
def test_in_place_stepper_matches_textbook_step_bitwise(name):
    model, st, dt = _BITWISE_CASES[name]
    cfg = RunConfig(model, dt=dt, t_final=200 * dt, snapshot_stride=30)
    fast, ref = propagate(st, cfg), reference_propagate(st, cfg)
    assert len(fast.snapshots) == 8
    _assert_same_trajectory(fast, ref)


class TestDirectTransform:
    """_transform is the call scipy.fft.fft/ifft end in, so it gives their bits."""

    @pytest.mark.parametrize("forward", [True, False])
    @pytest.mark.parametrize("shape", ["1-D", "(1, n)", "(B, n)"])
    @pytest.mark.parametrize("n", [16, 256, 1024, 2048, 4096])
    def test_bitwise_the_public_transform(self, n, shape, forward):
        rows = {"1-D": (), "(1, n)": (1,), "(B, n)": (3,)}[shape]
        rng = np.random.default_rng(n)
        a = rng.standard_normal((*rows, n)) + 1j * rng.standard_normal((*rows, n))
        ref = (scipy.fft.fft if forward else scipy.fft.ifft)(a, axis=-1)
        kept = a.copy()
        got = _transform(a, forward)
        assert got.tobytes() == ref.tobytes() and a.tobytes() == kept.tobytes()
        assert _transform(a, forward, a) is a
        assert a.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [16, 2048])
    def test_reads_a_read_only_field(self, n):
        values = sech_profile(Grid1D(n, 40.0), 2.0).values
        assert not values.flags.writeable
        spectrum = _transform(values, True)
        assert spectrum.tobytes() == scipy.fft.fft(values).tobytes()
        assert _transform(spectrum, False).tobytes() == scipy.fft.ifft(spectrum).tobytes()


def test_rate_is_bound_once_per_run_and_called_once_per_step(monkeypatch):
    # the stepper binds its family's rate when it is built and never calls
    # nls_nonlinear_phase_rate, the name perfbench's tracer wraps
    binds, calls = _spy_on_bessel_rate(monkeypatch)
    cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.025, snapshot_stride=10)
    assert cfg.n_steps == 25
    propagate(sech_profile(_G, 2.0), cfg)
    assert binds == [BESSEL]
    assert len(calls) == 25


def test_propagation_bypasses_the_public_transforms(monkeypatch):
    cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.05, snapshot_stride=20)
    initials = [sech_profile(_G, psi0) for psi0 in (1.0, 15.0)]
    refs = [reference_propagate(st, cfg) for st in initials]

    def refused(*args, **kwargs):
        raise AssertionError("the solver called a public scipy.fft transform")

    monkeypatch.setattr(scipy.fft, "fft", refused)
    monkeypatch.setattr(scipy.fft, "ifft", refused)
    for traj, ref in zip(propagate_batch(initials, cfg), refs):
        _assert_same_trajectory(traj, ref)


FOCUSING = ModelSpec(Family.CUBIC_NLS, lam=-1.0, omega=1.0)


class TestSnapshotHandOff:
    """Each snapshot is appended to the sequence handed in, which becomes the
    trajectory's; times, peak intensities and masses are bitwise the held
    run's."""

    def test_streamed_run_hands_over_the_held_snapshots(self):
        model, st, dt = _BITWISE_CASES["bessel-mixed"]
        cfg = RunConfig(model, dt=dt, t_final=200 * dt, snapshot_stride=30)
        handed = []
        streamed = propagate(st, cfg, handed)
        assert streamed.snapshots is handed
        ref = reference_propagate(st, cfg)
        _assert_same_trajectory(streamed, ref)
        assert streamed.times.tobytes() == propagate(st, cfg).times.tobytes()
        assert streamed.times.tolist() == [s.time for s in ref.snapshots]

    def test_mass_series_is_one_float64_entry_per_snapshot(self):
        model, st, dt = _BITWISE_CASES["cubic"]
        traj = propagate(st, RunConfig(model, dt=dt, t_final=40 * dt, snapshot_stride=7))
        assert traj.mass_series.dtype == np.float64 and traj.mass_series.shape == (7,)
        assert traj.times.tolist() == [s.time for s in traj.snapshots]
        assert len(traj.snapshots) == len(traj.times)

    def test_batch_hands_each_row_its_own_snapshots(self):
        # rows 1 and 3 diverge mid-run: each sequence holds exactly the
        # snapshots of its row's partial trajectory
        cfg = RunConfig(FOCUSING, dt=0.02, t_final=2.0, snapshot_stride=10)
        initials = [sech_profile(_G, psi0) for psi0 in (2.0, 3.0, 1.5, 4.0)]
        handed = [[] for _ in initials]
        streamed = propagate_batch(initials, cfg, handed)
        for i, (got, held) in enumerate(zip(streamed, propagate_batch(initials, cfg))):
            if isinstance(held, DivergenceError):
                assert isinstance(got, DivergenceError) and got.time == held.time
                got, held = got.partial, held.partial
            assert got.snapshots is handed[i]
            assert len(got.snapshots) == len(got.times) == len(held.snapshots)
            assert len(got.mass_series) == len(got.times)
            _assert_same_trajectory(got, held)
        assert [len(q) for q in handed] == [11, 2, 11, 1]

    @pytest.mark.parametrize("handed", [[[]], [[], [], []], [[], ["taken"]]],
                             ids=["too-few", "too-many", "not-empty"])
    def test_batch_refuses_snapshot_sequences_that_do_not_fit(self, handed):
        initials = [sech_profile(_G, 1.0), sech_profile(_G, 2.0)]
        before = [list(q) for q in handed]
        with pytest.raises(DomainError, match="2 initial states need as many empty"):
            propagate_batch(initials, RunConfig(FOCUSING, dt=0.02, t_final=0.1), handed)
        assert handed == before  # refused before any snapshot is appended

    def test_run_refused_by_the_stepper_hands_nothing_over(self):
        # D*dt*k**2 overflows: the DomainError comes before the initial snapshot
        handed = []
        model = ModelSpec(Family.BESSEL_NLS, omega=1e-308)
        with pytest.raises(DomainError, match="omega"):
            propagate(sech_profile(Grid1D(64, 5.0), 2.0),
                      RunConfig(model, dt=0.01, t_final=0.1), handed)
        assert handed == []

    def test_final_of_a_streamed_run_is_its_last_snapshot_read_back(self, tmp_path):
        initial = sech_profile(Grid1D(16, 8.0), 1.0)
        cfg = RunConfig(ModelSpec(Family.CUBIC_NLS), dt=0.01, t_final=0.2, snapshot_stride=1)
        traj = propagate(initial, cfg, SnapshotStream(tmp_path))
        assert len(traj.snapshots) == len(traj.times) == 21  # one burst and five pending
        assert len(traj.mass_series) == 21
        held = propagate(initial, cfg).final
        assert traj.final.time == held.time
        assert traj.final.values.tobytes() == held.values.tobytes()


class TestBatchedPropagation:
    """Every row of a propagate_batch stack is bitwise its solo textbook run."""

    def test_rows_with_different_grid_lengths(self):
        # the scan's grids: length max(80, 24/alpha) at a shared n
        cfg = RunConfig(BESSEL, dt=2e-3, t_final=0.4, snapshot_stride=50)
        initials = [sech_profile(Grid1D(256, max(80.0, 24.0 / alpha)), psi0, alpha)
                    for alpha, psi0 in ((0.1, 0.3), (0.15, 0.6), (0.1, 1.1), (0.5, 2.0))]
        results = propagate_batch(initials, cfg)
        assert len(results) == 4
        for st, traj in zip(initials, results):
            _assert_same_trajectory(traj, reference_propagate(st, cfg))

    def test_stack_mixing_bessel_series_and_direct_rows(self):
        names = ("bessel-series", "bessel-direct", "bessel-mixed")
        initials = [_BITWISE_CASES[name][1] for name in names]
        assert all(_BITWISE_CASES[name][0] == BESSEL for name in names)
        cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.2, snapshot_stride=30)
        for st, traj in zip(initials, propagate_batch(initials, cfg)):
            _assert_same_trajectory(traj, reference_propagate(st, cfg))

    def test_rows_diverging_mid_run_are_retired_alone(self):
        # focusing pulses compress: amplitudes 3 and 4 trip the per-step guard
        # at steps 14 and 7, amplitudes 2 and 1.5 run to the end
        cfg = RunConfig(FOCUSING, dt=0.02, t_final=2.0, snapshot_stride=10)
        initials = [sech_profile(_G, psi0) for psi0 in (2.0, 3.0, 1.5, 4.0)]
        results = propagate_batch(initials, cfg)
        for st, got in zip(initials, results):
            try:
                solo = propagate(st, cfg)
            except DivergenceError as err:
                assert isinstance(got, DivergenceError)
                assert str(got) == str(err) and got.time == err.time
                _assert_same_trajectory(got.partial, err.partial)
            else:
                _assert_same_trajectory(got, solo)
                _assert_same_trajectory(got, reference_propagate(st, cfg))
        assert [type(r).__name__ for r in results] == \
            ["Trajectory", "DivergenceError", "Trajectory", "DivergenceError"]
        assert [len(r.partial.mass_series) for r in results[1::2]] == [2, 1]

    def test_non_finite_row_is_retired_alone(self, monkeypatch):
        # row 1's rate turns infinite on the third step; the Bessel bound has
        # switched the rotation guard off, so only its power sum sees it
        def poison(rate, call):
            if call == 3:
                rate[1, 0] = np.inf

        cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.01, snapshot_stride=4)
        initials = [sech_profile(_G, psi0) for psi0 in (1.0, 2.0, 3.0)]
        _spy_on_bessel_rate(monkeypatch, poison)
        with np.errstate(invalid="ignore"):
            first, bad, last = propagate_batch(initials, cfg)
        assert isinstance(bad, DivergenceError) and "non-finite" in str(bad)
        assert bad.time == pytest.approx(3e-3)
        assert len(bad.partial.mass_series) == 1
        _assert_same_trajectory(first, reference_propagate(initials[0], cfg))
        _assert_same_trajectory(last, reference_propagate(initials[2], cfg))

    def test_each_row_keeps_its_own_clock(self):
        # rows start at t = 0, 2.5 and 7; amplitude 3 trips the guard at step 14
        cfg = RunConfig(FOCUSING, dt=0.02, t_final=1.0, snapshot_stride=10)
        initials = [FieldState(_G, sech_profile(_G, psi0).values, t0)
                    for psi0, t0 in ((2.0, 0.0), (3.0, 2.5), (1.5, 7.0))]
        first, bad, last = propagate_batch(initials, cfg)
        for st, got in ((initials[0], first), (initials[2], last)):
            assert got.times[-1] == st.time + 50 * cfg.dt
            _assert_same_trajectory(got, propagate(st, cfg))
            _assert_same_trajectory(got, reference_propagate(st, cfg))
        with pytest.raises(DivergenceError) as solo:
            propagate(initials[1], cfg)
        with pytest.raises(DivergenceError) as ref:
            reference_propagate(initials[1], cfg)
        assert str(bad) == str(solo.value) == ("nonlinear rotation exceeded guard 0.5 "
                                               "at t=2.78; reduce dt")
        assert bad.time == solo.value.time == ref.value.time == 2.5 + 14 * cfg.dt
        _assert_same_trajectory(bad.partial, solo.value.partial)
        # a textbook run to the last healthy step holds the same record
        held = reference_propagate(initials[1], replace(cfg, t_final=13 * cfg.dt))
        _assert_same_trajectory(bad.partial, Trajectory(
            held.snapshots[:2], held.mass_series[:2], held.peak_series[:2], held.times[:2]))

    def test_memory_does_not_grow_with_the_step_count(self):
        # one snapshot at each end: what propagate_batch holds is its stack
        # and two states per row, however many steps it takes (a per-step
        # record of 4 rows would add 4*4000*8 B = 125 KB at 5000 steps)
        grid = Grid1D(16, 8.0)
        initials = [sech_profile(grid, psi0) for psi0 in (0.5, 1.0, 1.5, 2.0)]

        def peak_bytes(n_steps):
            cfg = RunConfig(BESSEL, dt=1e-3, t_final=n_steps * 1e-3, snapshot_stride=n_steps)
            tracemalloc.start()
            try:
                results = propagate_batch(initials, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [len(r.times) for r in results] == [2] * 4
            return peak

        assert abs(peak_bytes(5000) - peak_bytes(1000)) < 16 * 1024

    def test_batch_of_one_is_propagate(self):
        model, st, dt = _BITWISE_CASES["bessel-mixed"]
        cfg = RunConfig(model, dt=dt, t_final=50 * dt, snapshot_stride=20)
        traj, = propagate_batch([st], cfg)
        _assert_same_trajectory(traj, propagate(st, cfg))

    def test_rejects_empty_and_mixed_sizes(self):
        cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.01)
        with pytest.raises(DomainError, match="at least one"):
            propagate_batch([], cfg)
        with pytest.raises(DomainError, match="share n"):
            propagate_batch([sech_profile(Grid1D(64, 20.0), 1.0),
                             sech_profile(Grid1D(128, 20.0), 1.0)], cfg)

    def test_zero_row_is_rejected_before_stepping(self):
        cfg = RunConfig(BESSEL, dt=1e-3, t_final=0.01)
        with pytest.raises(DomainError, match="mass"):
            propagate_batch([sech_profile(_G, 1.0), FieldState(_G, np.zeros(_G.n), 0.0)], cfg)


class TestStationaryFamily:
    """Localized states of the Bessel NLS, each found by Petviashvili's
    iteration (tests/oracles.py), which propagate must hold still and the
    sine-Gordon breather's first harmonic must match."""

    def test_oracle_reproduces_the_cubic_soliton(self):
        # focusing cubic: A*sech(alpha*x) with D*alpha**2 = mu and
        # A**2 = 2*mu*omega/|lambda|; alpha*L/2 = 40 keeps the periodic
        # images' overlap under the rounding
        grid, alpha = Grid1D(2048, 80.0), 1.0
        mu = FOCUSING.dispersion * alpha**2
        amp = math.sqrt(2.0 * mu * FOCUSING.omega / abs(FOCUSING.lam))
        phi = stationary_state(FOCUSING, mu, grid)
        assert np.max(np.abs(phi - amp / np.cosh(alpha * grid.x))) <= 1e-12 * amp

    @pytest.mark.parametrize("mu, peak", [(0.08, 1.6623), (0.3, 3.7432), (0.4, 4.9115)])
    def test_propagate_holds_the_bessel_family_still(self, mu, peak):
        # the error is max| |psi| - phi | / max phi over the snapshots; it is
        # the splitting's alone, since phi solves the grid's own equation
        grid = Grid1D(512, 40.0)
        phi = stationary_state(BESSEL, mu, grid)
        assert np.max(phi) == pytest.approx(peak, abs=1e-4)
        errors = []
        for dt in (2e-3, 1e-3):
            cfg = RunConfig(BESSEL, dt=dt, t_final=5.0, snapshot_stride=round(0.5 / dt))
            traj = propagate(FieldState(grid, phi), cfg)
            assert len(traj.snapshots) == 11
            errors.append(max(np.max(np.abs(np.abs(s.values) - phi))
                              for s in traj.snapshots) / np.max(phi))
        assert errors[1] <= 1e-8
        assert math.log2(errors[0] / errors[1]) >= 1.9

    @pytest.mark.parametrize("mu", [0.08, 0.3])
    def test_bessel_family_is_spectrally_stable(self, mu):
        # psi = (phi + u + i w) exp(-i(V(0) - mu)t) linearizes to u_t = L- w,
        # w_t = -L+ u, so the frequencies are the square roots of the
        # eigenvalues of L- L+, with
        #   L- = -D d2 + mu - V(0) + V(phi)          (L- phi = 0: the phase mode)
        #   L+ = -D d2 + mu - V(0) + c J0(phi) - V(phi)   (L+ phi' = 0: translation)
        # V(phi) = c J1(phi)/phi, c = lambda**2/omega.  Stable: every
        # eigenvalue real and >= 0, the two zero modes alone, and the rest at
        # or above the continuum edge mu**2.
        grid = Grid1D(256, 60.0)
        phi = stationary_state(BESSEL, mu, grid)
        k2 = grid.wavenumbers**2
        d2 = scipy.fft.ifft(-k2[:, None] * scipy.fft.fft(np.eye(grid.n), axis=0), axis=0).real
        c, rate0 = BESSEL.lam**2 / BESSEL.omega, nls_nonlinear_phase_rate(BESSEL, 0.0)
        rate = nls_nonlinear_phase_rate(BESSEL, np.abs(phi))
        kinetic = -BESSEL.dispersion * d2 + (mu - rate0) * np.eye(grid.n)
        l_minus = kinetic + np.diag(rate)
        l_plus = kinetic + np.diag(c * scipy.special.j0(phi) - rate)
        omega2 = np.linalg.eigvals(l_minus @ l_plus)
        assert np.max(np.abs(omega2.imag)) <= 1e-10
        omega2 = np.sort(omega2.real)
        zero = np.abs(omega2) < 1e-8
        assert np.count_nonzero(zero) == 2, omega2[:4]
        assert omega2[0] >= -1e-8
        assert np.min(omega2[~zero]) >= mu**2, omega2[:4] / mu**2

    def test_breather_harmonic_lands_on_the_bessel_family(self):
        # the paper's mapping on an exact time-dependent solution: the
        # breather's first harmonic against the family's state of its width,
        # eps = sqrt(mu/D) with D = 1/2; the cubic truncation's peak is 4*eps
        epsilons = (0.1, 0.2, 0.4, 0.6, 0.8, 0.87)
        errors = []
        for eps in epsilons:
            w = math.sqrt(1.0 - eps * eps)
            grid = Grid1D(2048, max(80.0, 40.0 / eps))
            harmonic = np.max(breather_first_harmonic(w, grid.x))
            # the quadrature against the closed form at x = 0: 8c/(1 + sqrt(1 + c**2))
            c = eps / w
            assert harmonic == pytest.approx(8.0 * c / (1.0 + math.sqrt(1.0 + c * c)),
                                             rel=1e-14)
            peak = np.max(stationary_state(BESSEL, 0.5 * eps * eps, grid))
            errors.append(abs(peak - harmonic) / harmonic)
            assert abs(4.0 * eps - harmonic) >= 5.0 * abs(peak - harmonic), eps
        assert max(errors) <= 0.02
        # second order in eps: each halving over 0.1, 0.2, 0.4 cuts the error ~4x
        assert errors[1] / errors[0] >= 3.5 and errors[2] / errors[1] >= 3.5


def _centre_of_mass(state, window):
    """The centre of |psi|**2 over the grid points where window(x) holds."""
    inside = window(state.grid.x)
    density = np.abs(state.values[inside]) ** 2
    return float(np.sum(state.grid.x[inside] * density) / np.sum(density))


class TestCollisions:
    """Two solitary waves that travel through each other: the solver on data
    that is not even in x, against the Zakharov-Shabat position shift (Sov.
    Phys. JETP 34:62, 1972) of the cubic NLS and its small-amplitude limit in
    the Bessel NLS."""

    # i psi_t + psi_xx + 2|psi|**2 psi = 0, whose solitons are
    # a*sech(a*(x - x0 - v*t))*exp(i*(v*x/2 + (a**2 - v**2/4)*t + theta));
    # each v/2 is a whole number of 2*pi/L, so the data is periodic
    CUBIC = ModelSpec(Family.CUBIC_NLS, lam=-2.0, omega=1.0)
    SOLITONS = ((1.0, 2.0, -25.0), (1.5, -1.0, 15.0))  # (a, v, x0)

    def _soliton_pair(self, grid, theta2):
        psi = sum(a / np.cosh(a * (grid.x - x0)) * np.exp(1j * (0.5 * v * grid.x + theta))
                  for (a, v, x0), theta in zip(self.SOLITONS, (0.0, theta2)))
        return FieldState(grid, psi)

    def _shifts(self, state):
        """How far each soliton ends ahead of its free path x0 + v*t: the
        centre of mass of |psi|**2 within 8 of that path."""
        shifts = []
        for a, v, x0 in self.SOLITONS:
            free = x0 + v * state.time
            centre = _centre_of_mass(state, lambda x: np.abs(x - free) <= 8.0)
            shifts.append((centre - free) * np.sign(v))
        return np.array(shifts)

    @pytest.mark.slow
    def test_cubic_solitons_shift_as_zakharov_shabat_predict(self):
        # after the collision soliton j sits ahead of its free path by
        # (1/a_j)*ln[(dv**2 + 4(a1 + a2)**2) / (dv**2 + 4(a1 - a2)**2)],
        # whatever the phase; the gap to it is the splitting's, second order
        (a1, v1, _), (a2, v2, _) = self.SOLITONS
        dv2 = (v1 - v2) ** 2
        zs = np.log((dv2 + 4 * (a1 + a2) ** 2) / (dv2 + 4 * (a1 - a2) ** 2)) / np.array([a1, a2])
        assert zs == pytest.approx([1.223775, 0.815850], abs=1e-6)
        grid, t_final = Grid1D(1024, 40.0 * math.pi), 20.0
        errors = {}
        for dt, thetas in ((1e-3, (0.0, 0.7, 2.0)), (2e-3, (0.7,))):
            cfg = RunConfig(self.CUBIC, dt=dt, t_final=t_final,
                            snapshot_stride=round(t_final / dt))
            runs = propagate_batch([self._soliton_pair(grid, theta) for theta in thetas], cfg)
            for theta, traj in zip(thetas, runs):
                assert traj.final.time == pytest.approx(t_final)
                errors[dt, theta] = np.abs(self._shifts(traj.final) - zs)
        for theta in (0.0, 0.7, 2.0):
            assert np.all(errors[1e-3, theta] <= 2e-4), (theta, errors[1e-3, theta])
        assert np.all(np.log2(errors[2e-3, 0.7] / errors[1e-3, 0.7]) >= 1.8)

    @pytest.mark.slow
    def test_bessel_states_approach_the_cubic_shift_at_small_amplitude(self):
        # Expanding J1 turns the Bessel NLS at small amplitude into the cubic
        # one, where each of two equal states boosted to +-v ends ahead of its
        # free path by (1/alpha)*ln(1 + alpha**2/v**2), alpha = sqrt(2*mu).
        # The states start at -+x0 = -+L/4 with alpha*x0 >= 10, so their tails
        # barely overlap, and run until the free paths have swapped them; the
        # position is the centre of mass of the half domain x >= 0.
        v, deviations = 0.5, []
        for alpha in (0.1, 0.2):
            grid = Grid1D(512, 12.8 * math.pi / alpha)  # v is a whole number of 2*pi/L
            x0 = grid.length / 4
            assert alpha * x0 >= 10.0
            phi = stationary_state(BESSEL, 0.5 * alpha**2, grid)
            boost = np.exp(1j * v * grid.x)
            quarter = grid.n // 4
            initial = FieldState(grid, np.roll(phi, -quarter) * boost
                                 + np.roll(phi, quarter) * np.conj(boost))
            t_final = 40.0 / alpha
            cfg = RunConfig(BESSEL, dt=1e-2, t_final=t_final, snapshot_stride=round(t_final / 1e-2))
            final = propagate(initial, cfg).final
            shift = _centre_of_mass(final, lambda x: x >= 0.0) - (-x0 + v * t_final)
            deviations.append(shift / (math.log(1.0 + alpha**2 / v**2) / alpha) - 1.0)
        # -0.72% and -3.9% measured: the Bessel collision leaves the cubic one
        # as the amplitude grows
        assert abs(deviations[0]) <= 0.01, deviations
        assert abs(deviations[1]) >= 4.0 * abs(deviations[0]), deviations

    @pytest.mark.slow
    @pytest.mark.parametrize("mu, lo, hi", [(0.08, 1e-2, 1.0), (0.005, 0.0, 1e-5)])
    def test_bessel_collision_sheds_mass_away_from_the_cubic_limit(self, mu, lo, hi):
        # Cubic solitons pass through each other whole; two Bessel states do
        # so only in the cubic limit.  Two equal states start at -+x0 (to the
        # nearest grid point), boosted to +-v, and run until the free paths
        # have swapped them; the share of |psi|**2 further than 8/alpha,
        # alpha = sqrt(mu/D), from both half domains' centres of mass is what
        # the collision shed.  1.672e-2 at mu = 0.08 (n = 2048 at dt = 2e-3
        # reads 1.673e-2) and 1.03e-7 at mu = 0.005 measured.
        v, x0 = 0.5, 50.0
        grid = Grid1D(512, 96.0 * math.pi)  # v is a whole number of 2*pi/L
        phi = stationary_state(BESSEL, mu, grid)
        boost = np.exp(1j * v * grid.x)
        shift = round(x0 / grid.spacing)
        initial = FieldState(grid, np.roll(phi, -shift) * boost
                             + np.roll(phi, shift) * np.conj(boost))
        cfg = RunConfig(BESSEL, dt=1e-2, t_final=200.0, snapshot_stride=20000)
        final = propagate(initial, cfg).final
        reach = 8.0 / math.sqrt(mu / BESSEL.dispersion)
        centres = (_centre_of_mass(final, lambda x: x < 0.0),
                   _centre_of_mass(final, lambda x: x >= 0.0))
        outside = np.all([np.abs(grid.x - centre) > reach for centre in centres], axis=0)
        density = np.abs(final.values) ** 2
        share = np.sum(density[outside]) / np.sum(density)
        assert lo < share < hi, share
