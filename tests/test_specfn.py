"""Special-function layer against independent oracles."""

import numpy as np
import pytest

from svealab.errors import DomainError, PoleError
from svealab.specfn import bessel_j1, hyp0f1_two, jacobi_dc, jacobi_elliptic

from oracles import (ELLIPTIC_TRIPLES, FIRST_J1_ZERO, HYP0F1_TWO_VALUES,
                     J1_VALUES, K_VALUES, SN_EXTENDED, sn_oracle)


class TestJacobiElliptic:
    @pytest.mark.parametrize("u,m", sorted(ELLIPTIC_TRIPLES))
    def test_in_range_parameter_matches_oracle(self, u, m):
        sn, cn, dn = jacobi_elliptic(u, m)
        ref_sn, ref_cn, ref_dn = ELLIPTIC_TRIPLES[(u, m)]
        assert sn == pytest.approx(ref_sn, rel=1e-12)
        assert cn == pytest.approx(ref_cn, rel=1e-12)
        assert dn == pytest.approx(ref_dn, rel=1e-12)

    @pytest.mark.parametrize("u,m", sorted(SN_EXTENDED))
    def test_extended_parameter_matches_frozen_ode_values(self, u, m):
        sn, _, _ = jacobi_elliptic(u, m)
        assert sn == pytest.approx(SN_EXTENDED[(u, m)], rel=1e-10)

    @pytest.mark.parametrize("u", [0.3, 0.9, 1.7])
    @pytest.mark.parametrize("m", [-2.0, -0.5, 0.25, 0.9, 1.3, 2.5])
    def test_sn_matches_live_ode_oracle(self, u, m):
        sn, _, _ = jacobi_elliptic(u, m)
        assert sn == pytest.approx(sn_oracle(u, m), abs=1e-9)

    def test_trig_limit(self):
        u = np.linspace(-3, 3, 41)
        sn, cn, dn = jacobi_elliptic(u, 0.0)
        assert np.allclose(sn, np.sin(u), atol=1e-14)
        assert np.allclose(cn, np.cos(u), atol=1e-14)
        assert np.allclose(dn, 1.0, atol=1e-14)

    def test_hyperbolic_limit(self):
        u = np.linspace(-3, 3, 41)
        sn, cn, dn = jacobi_elliptic(u, 1.0)
        assert np.allclose(sn, np.tanh(u), atol=1e-12)
        assert np.allclose(cn, 1.0 / np.cosh(u), atol=1e-12)
        assert np.allclose(dn, 1.0 / np.cosh(u), atol=1e-12)

    @pytest.mark.parametrize("m", [-1.5, -0.3, 0.0, 0.4, 0.85, 1.0, 1.8])
    def test_pythagorean_identities(self, m):
        u = np.linspace(-5, 5, 201)
        sn, cn, dn = jacobi_elliptic(u, m)
        assert np.max(np.abs(sn**2 + cn**2 - 1.0)) < 1e-12
        assert np.max(np.abs(dn**2 + m * sn**2 - 1.0)) < 1e-12

    def test_oddness_and_origin(self):
        sn, cn, dn = jacobi_elliptic(0.0, 0.7)
        assert (sn, cn, dn) == (0.0, 1.0, 1.0)
        sp, _, _ = jacobi_elliptic(0.9, 0.7)
        sm, _, _ = jacobi_elliptic(-0.9, 0.7)
        assert sp == pytest.approx(-sm, rel=1e-14)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(DomainError):
            jacobi_elliptic(np.inf, 0.5)

    def test_rejects_non_finite_parameter(self):
        with pytest.raises(DomainError, match="m must be finite, got nan"):
            jacobi_elliptic(0.5, np.nan)


class TestJacobiDc:
    def test_equals_dn_over_cn(self):
        u = np.linspace(-1.2, 1.2, 41)
        sn, cn, dn = jacobi_elliptic(u, 0.36)
        assert np.allclose(jacobi_dc(u, 0.36), dn / cn, rtol=1e-13)

    def test_pole_signal_names_the_first_point_on_a_pole(self):
        quarter = K_VALUES[0.36]
        with pytest.raises(PoleError, match=f"of a pole: u = {quarter}$"):
            jacobi_dc(quarter, 0.36)
        # row-major order: 3K in the second row comes before K after it
        u = np.array([[0.0, 0.5], [3.0 * quarter, quarter]])
        with pytest.raises(PoleError, match=f"of a pole: u = {3.0 * quarter}$"):
            jacobi_dc(u, 0.36)

    def test_far_from_pole_is_quiet(self):
        assert jacobi_dc(0.0, 0.36) == pytest.approx(1.0)


class TestBesselJ1:
    @pytest.mark.parametrize("z", sorted(J1_VALUES))
    def test_matches_series_oracle(self, z):
        assert bessel_j1(z) == pytest.approx(J1_VALUES[z], abs=1e-15)

    def test_odd_and_zero_at_origin(self):
        assert bessel_j1(0.0) == 0.0
        assert bessel_j1(-2.0) == pytest.approx(-J1_VALUES[2.0], abs=1e-15)

    def test_array_shape(self):
        z = np.linspace(-10, 10, 33)
        out = bessel_j1(z)
        assert out.shape == z.shape

    def test_first_zero_location(self):
        from scipy.optimize import brentq
        root = brentq(bessel_j1, 3.0, 4.5, xtol=1e-12)
        assert root == pytest.approx(FIRST_J1_ZERO, abs=1e-10)


class TestHyp0f1Two:
    @pytest.mark.parametrize("w", sorted(HYP0F1_TWO_VALUES))
    def test_matches_oracle(self, w):
        assert hyp0f1_two(w) == pytest.approx(HYP0F1_TWO_VALUES[w], rel=1e-13)

    def test_value_at_origin(self):
        assert hyp0f1_two(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0, 5.0, 10.0])
    def test_identity_with_j1(self, x):
        assert 0.5 * x * hyp0f1_two(-0.25 * x * x) == pytest.approx(
            float(bessel_j1(x)), abs=1e-13)

    def test_rejects_non_finite_argument(self):
        with pytest.raises(DomainError, match="z must be finite, got inf"):
            hyp0f1_two(np.inf)

    def test_series_that_does_not_settle_is_refused(self):
        with pytest.raises(DomainError, match="did not converge in 500 terms"):
            hyp0f1_two(1e6)
