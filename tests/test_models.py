"""Model table: families, parameter validation, force and phase-rate terms."""

import numpy as np
import pytest

from svealab.errors import DomainError, FamilyMismatchError
from svealab.models import (BESSEL_RATE_CUTOVER, Family, ModelSpec, kg_force,
                            nls_nonlinear_phase_rate)

from oracles import FIRST_J1_ZERO, J1_VALUES, reference_bessel_rate, reference_phase_rate


def test_family_partition():
    nls = {f for f in Family if f.is_nls}
    assert len(Family) == 8
    assert nls == {Family.CUBIC_NLS, Family.DOUBLE_WELL_NLS, Family.CUBIC_QUINTIC_NLS,
                   Family.BESSEL_NLS}


def test_each_law_reads_its_couplings():
    assert {f.value: set(f.law.couplings) for f in Family} == {
        "cubic_kg": set(), "double_well_kg": {"mass"}, "cubic_quintic_kg": {"sigma"},
        "sine_gordon_kg": set(), "cubic_nls": {"omega"}, "double_well_nls": {"mass", "omega"},
        "cubic_quintic_nls": {"sigma"}, "bessel_nls": {"omega"}}


def test_only_the_bessel_rate_is_bounded():
    m = ModelSpec(Family.BESSEL_NLS, lam=-1.3, omega=0.7)
    bound = m.family.law.rate_bound(m)
    assert bound == abs(m.lam**2 / m.omega) / 2.0
    rates = np.abs(nls_nonlinear_phase_rate(m, np.linspace(0.0, 40.0, 4001)))
    assert rates.max() == pytest.approx(bound, rel=1e-15) and np.all(rates <= bound)
    for f in Family:
        if f is not Family.BESSEL_NLS:
            assert f.law.rate_bound(ModelSpec(f)) == np.inf


class TestModelSpec:
    def test_dispersion_values(self):
        assert ModelSpec(Family.CUBIC_NLS, omega=2.0).dispersion == 0.5
        assert ModelSpec(Family.CUBIC_QUINTIC_NLS, sigma=1.0).dispersion == 1.0
        assert ModelSpec(Family.BESSEL_NLS, omega=2.0).dispersion == 0.25

    def test_bessel_lambda_whose_square_overflows_is_a_domain_error(self):
        with pytest.raises(DomainError, match="lambda"):
            ModelSpec(Family.BESSEL_NLS, lam=1e308)
        m = ModelSpec(Family.BESSEL_NLS, lam=1e150)
        assert m.family.law.rate_bound(m) == 1e150**2 / 2.0

    @pytest.mark.parametrize("family", [f for f in Family if "omega" in f.law.couplings])
    def test_omega_whose_dispersion_overflows_is_a_domain_error(self, family):
        # D = 1/omega or 1/(2*omega) is inf at a subnormal omega
        with pytest.raises(DomainError, match="omega"):
            ModelSpec(family, omega=1e-320)

    def test_bessel_bound_that_overflows_names_omega(self):
        # D = 5e9 is finite, lambda**2/omega = 1e310 is not
        with pytest.raises(DomainError, match="omega"):
            ModelSpec(Family.BESSEL_NLS, lam=1e150, omega=1e-10)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(DomainError):
            ModelSpec(Family.CUBIC_NLS, omega=0.0)

    def test_from_mapping_reads_the_family_couplings(self):
        data = {"family": " Double_Well_NLS", "lambda": "2.0", "mass": "1.3", "omega": "0.7"}
        assert ModelSpec.from_mapping(data) == ModelSpec(Family.DOUBLE_WELL_NLS, lam=2.0,
                                                         mass=1.3, omega=0.7)

    @pytest.mark.parametrize("family, key", [
        ("cubic_nls", "mass"), ("cubic_nls", "sigma"), ("bessel_nls", "mass"),
        ("bessel_nls", "sigma"), ("double_well_nls", "sigma"), ("cubic_kg", "omega"),
        ("sine_gordon_kg", "mass"), ("cubic_quintic_kg", "mass"),
        # D = 1 and V = -sigma*|psi|**2 + lambda*|psi|**4: no omega anywhere
        ("cubic_quintic_nls", "omega")])
    def test_from_mapping_rejects_a_coupling_the_family_does_not_read(self, family, key):
        with pytest.raises(DomainError, match=key):
            ModelSpec.from_mapping({"family": family, "lambda": "1.0", key: "7.0"})

    def test_from_mapping_rejects_unknown_family(self):
        with pytest.raises((DomainError, ValueError, KeyError)):
            ModelSpec.from_mapping({"family": "quartic_nls"})

    def test_from_mapping_rejects_typoed_key(self):
        # a silently dropped coefficient would run with the default instead
        with pytest.raises(DomainError):
            ModelSpec.from_mapping({"family": "cubic_nls", "lamda": "2.0"})


class TestKgForce:
    def test_cubic(self):
        m = ModelSpec(Family.CUBIC_KG, lam=2.0)
        assert kg_force(m, 3.0) == pytest.approx(2.0 * 27.0)

    def test_double_well(self):
        m = ModelSpec(Family.DOUBLE_WELL_KG, lam=1.0, mass=2.0)
        assert kg_force(m, 1.5) == pytest.approx(-4.0 * 1.5 + 1.5**3)

    def test_cubic_quintic(self):
        m = ModelSpec(Family.CUBIC_QUINTIC_KG, lam=0.9375, sigma=1.0)
        phi = 0.8
        assert kg_force(m, phi) == pytest.approx(-phi**3 + 0.9375 * phi**5)

    def test_sine_gordon(self):
        m = ModelSpec(Family.SINE_GORDON_KG, lam=2.0)
        assert kg_force(m, 0.5) == pytest.approx(4.0 * np.sin(0.5))

    def test_complex_argument(self):
        m = ModelSpec(Family.CUBIC_KG, lam=1.0)
        z = 1.0 + 0.5j
        assert kg_force(m, z) == pytest.approx(z**3)

    def test_envelope_family_rejected(self):
        with pytest.raises(FamilyMismatchError, match="kg_force needs a KG family"):
            kg_force(ModelSpec(Family.BESSEL_NLS), 1.0)


class TestPhaseRate:
    def test_field_family_rejected(self):
        with pytest.raises(FamilyMismatchError, match="needs an NLS family, got cubic_kg"):
            nls_nonlinear_phase_rate(ModelSpec(Family.CUBIC_KG), 1.0)

    def test_cubic(self):
        m = ModelSpec(Family.CUBIC_NLS, lam=2.0, omega=4.0)
        assert nls_nonlinear_phase_rate(m, 3.0) == pytest.approx(2.0 * 9.0 / 4.0)

    def test_double_well_sign_change(self):
        m = ModelSpec(Family.DOUBLE_WELL_NLS, lam=1.0, mass=1.2, omega=1.0)
        assert nls_nonlinear_phase_rate(m, 0.5) < 0.0
        assert nls_nonlinear_phase_rate(m, 2.0) > 0.0

    def test_bessel_reference_value(self):
        m = ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0)
        assert nls_nonlinear_phase_rate(m, 3.0) == pytest.approx(
            J1_VALUES[3.0] / 3.0, rel=1e-13)

    def test_bessel_small_amplitude_limit(self):
        m = ModelSpec(Family.BESSEL_NLS, lam=2.0, omega=1.0)
        assert nls_nonlinear_phase_rate(m, 1e-9) == pytest.approx(2.0, rel=1e-12)
        assert nls_nonlinear_phase_rate(m, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_bessel_series_matches_direct_branch(self):
        m = ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0)
        below, above = 9.9e-5, 1.01e-4
        assert nls_nonlinear_phase_rate(m, below) == pytest.approx(
            nls_nonlinear_phase_rate(m, above), rel=1e-7)

    def test_rejects_negative_amplitude(self):
        m = ModelSpec(Family.CUBIC_NLS)
        with pytest.raises(DomainError):
            nls_nonlinear_phase_rate(m, -1.0)

    @pytest.mark.parametrize("amps, message", [
        ([1.0, -0.5], ">= 0"),
        ([1.0, np.nan], "finite"),
        ([np.inf, 2.0], "finite"),
        ([-np.inf, 2.0], "finite"),
        ([-1.0, np.nan], "finite"),
    ])
    def test_rejection_names_the_violation(self, amps, message):
        with pytest.raises(DomainError, match=message):
            nls_nonlinear_phase_rate(ModelSpec(Family.BESSEL_NLS), np.array(amps))

    def test_empty_amplitude_array(self):
        for f in (Family.CUBIC_NLS, Family.BESSEL_NLS):
            assert nls_nonlinear_phase_rate(ModelSpec(f), np.array([])).shape == (0,)

    @pytest.mark.parametrize("amps", [
        np.linspace(2e-4, 14.0, 501),                          # direct J1(z)/z only
        np.linspace(0.0, 14.0, 501),                           # mixed, with z = 0
        np.array([0.0, 5e-5, 0.99e-4, BESSEL_RATE_CUTOVER]),   # series and the edge
        np.linspace(0.0, 0.5 * BESSEL_RATE_CUTOVER, 64),       # series only
        np.logspace(-320, -4.0001, 2001),                      # series, down to subnormals
    ], ids=["direct", "mixed", "edge", "series", "logspaced"])
    def test_bessel_rate_matches_masked_form_bitwise(self, amps):
        m = ModelSpec(Family.BESSEL_NLS, lam=1.3, omega=0.7)
        expected = (m.lam**2 / m.omega) * reference_bessel_rate(amps)
        assert np.array_equal(nls_nonlinear_phase_rate(m, amps), expected)
        for a, e in zip(amps[:4], expected[:4]):
            assert nls_nonlinear_phase_rate(m, float(a)) == e

    def test_array_input(self):
        m = ModelSpec(Family.BESSEL_NLS)
        amps = np.array([0.0, 1.0, 5.0])
        out = nls_nonlinear_phase_rate(m, amps)
        assert out.shape == amps.shape
        assert np.all(np.isfinite(out))


# 0, subnormals, the smallest normal, either side of the series cutover and
# of J1's first zero
_EDGE_AMPLITUDES = np.array([
    0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 5e-5,
    np.nextafter(BESSEL_RATE_CUTOVER, 0.0), BESSEL_RATE_CUTOVER,
    np.nextafter(BESSEL_RATE_CUTOVER, 1.0), 2e-4, 1.0,
    np.nextafter(FIRST_J1_ZERO, 0.0), FIRST_J1_ZERO, np.nextafter(FIRST_J1_ZERO, 5.0),
    10.0, 14.0])


@pytest.mark.parametrize("shape", [(16,), (3, 16)], ids=["(n,)", "(B, n)"])
@pytest.mark.parametrize("family", [f for f in Family if f.is_nls], ids=lambda f: f.value)
def test_bound_rate_in_a_reused_buffer_is_the_public_rate_bitwise(family, shape):
    # the rate the stepper binds once per run, writing into one buffer, against
    # the validated entry point and the textbook expression; the buffer keeps
    # each call's output, so a series entry left from the call before shows
    model = ModelSpec(family, lam=1.3, mass=0.6, sigma=0.5, omega=0.7)
    rate = family.law.term(model)
    rng = np.random.default_rng(7)
    edges = (_EDGE_AMPLITUDES if len(shape) == 1 else
             np.array([rng.permutation(_EDGE_AMPLITUDES) for _ in range(shape[0])]))
    direct = np.broadcast_to(np.linspace(2e-4, 14.0, 16), shape).copy()
    out = np.full(shape, np.nan)
    for amp in (edges, edges[..., ::-1].copy(), direct, edges):
        assert rate(amp, out) is out
        assert out.tobytes() == nls_nonlinear_phase_rate(model, amp).tobytes()
        assert out.tobytes() == reference_phase_rate(model, amp).tobytes()
