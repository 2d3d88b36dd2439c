"""Closed-form catalog: construction, evaluation, constraints, quench table."""

import math

import numpy as np
import pytest
from scipy.special import ellipk

from svealab.errors import ConstraintError, DomainError, FamilyMismatchError
from svealab.models import Family, nls_nonlinear_phase_rate
from svealab.solutions import (SolutionId, catalog_ids, eval_profile, eval_solution,
                               instantiate_pair, make_solution, mapping_table, model_for,
                               phase_factor, phase_rate, require_whole_periods, _x_period)

from oracles import K_VALUES


def test_catalog_has_twentyone_entries():
    ids = catalog_ids()
    assert len(ids) == 21
    assert len(set(ids)) == 21


def test_every_entry_constructs_and_evaluates():
    x = np.linspace(-1.0, 1.0, 11)
    for sid in catalog_ids():
        sol = make_solution(sid)
        out = np.asarray(eval_solution(sol, x, 0.3))
        assert out.shape == x.shape
        assert np.all(np.isfinite(out.view(float)))


def test_unknown_parameter_rejected():
    with pytest.raises(DomainError):
        make_solution(SolutionId.CUBIC_NLS_SN, wavelength=2.0)
    # each +/- family is held by its + branch; there is no sign choice to make
    with pytest.raises(DomainError, match="signs"):
        make_solution(SolutionId.DW_KG_KINK, signs=(1, -1))
    # SG_KINK derives gamma = 1/sqrt(1 - nu**2); there is no gamma to set
    with pytest.raises(DomainError, match="gamma"):
        make_solution(SolutionId.SG_KINK, nu=0.5, gamma=3.0)


def test_constraint_violation_rejected():
    # coefficient relations are checked, not silently recomputed; each message
    # names the relation and both of its sides
    with pytest.raises(ConstraintError) as err:
        make_solution(SolutionId.CQ_KG_SN, sigma=2.0, lam=1.0)
    assert str(err.value) == "CQ_KG_SN requires 15*sigma**2 = 16*lambda, got 60.0 vs 16.0"
    with pytest.raises(ConstraintError) as err:
        make_solution(SolutionId.CQ_NLS_SN, m=0.5)
    assert str(err.value) == \
        "CQ_NLS_SN requires 16*m*lambda = 3*sigma**2, got 8.0 vs 4.800000000000001"


@pytest.mark.parametrize("sid, overrides, message", [
    (SolutionId.CUBIC_NLS_SN, {"lam": -1.0}, "CUBIC_NLS_SN requires lambda > 0"),
    (SolutionId.CUBIC_NLS_SN, {"omega": 0.0}, "CUBIC_NLS_SN requires omega > 0"),
    (SolutionId.BESSEL_UNIFORM, {"psi0": -1.0}, "BESSEL_UNIFORM requires psi0 >= 0"),
])
def test_parameter_out_of_domain_rejected(sid, overrides, message):
    with pytest.raises(DomainError) as err:
        make_solution(sid, **overrides)
    assert str(err.value) == message


def test_static_field_has_no_phase_rate():
    with pytest.raises(FamilyMismatchError, match="CUBIC_KG_SN is not an envelope solution"):
        phase_rate(make_solution(SolutionId.CUBIC_KG_SN))


def test_kink_speed_bound_enforced():
    with pytest.raises(DomainError):
        make_solution(SolutionId.SG_KINK, nu=1.0)


class TestPointValues:
    def test_sn_profile_vanishes_at_origin(self):
        sol = make_solution(SolutionId.CUBIC_NLS_SN)
        assert abs(eval_solution(sol, 0.0, 0.0)) < 1e-15

    def test_cn_profile_peaks_at_origin(self):
        sol = make_solution(SolutionId.CUBIC_NLS_CN)
        center = abs(eval_solution(sol, 0.0, 0.0))
        off = abs(eval_solution(sol, 0.4, 0.0))
        assert center > off

    def test_kink_limits(self):
        sol = make_solution(SolutionId.SG_KINK)
        assert eval_solution(sol, 0.0, 0.0) == pytest.approx(np.pi)
        assert eval_solution(sol, 60.0, 0.0) == pytest.approx(2.0 * np.pi, abs=1e-8)
        assert eval_solution(sol, -60.0, 0.0) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("sid, m", [(SolutionId.CQ_KG_SN, 0.2), (SolutionId.CQ_NLS_SN, 0.3)])
    def test_cubic_quintic_root_changes_sign_at_its_zeros(self, sid, m):
        # the radicand touches zero at x = -K + 4K*j and the signed root passes
        # through it, so the profile is antiperiodic over 4K
        sol = make_solution(sid)
        x = np.linspace(-1.5, 4.9, 9)
        shifted = eval_solution(sol, x + 4.0 * K_VALUES[m])
        assert np.allclose(shifted, -np.asarray(eval_solution(sol, x)), atol=1e-12)

    def test_cubic_quintic_root_at_m_one_stays_principal(self):
        # sn(x|1) = tanh(x) never reaches -1 and K(1) is infinite
        sol = make_solution(SolutionId.CQ_NLS_SN, m=1.0, sigma=np.sqrt(16.0 / 3.0))
        x = np.linspace(-5.0, 5.0, 11)
        principal = np.sqrt(np.sqrt(0.75) * (1.0 + np.tanh(x)))
        assert np.allclose(eval_solution(sol, x, 0.0), principal, rtol=1e-12, atol=0.0)

    def test_uniform_phase_rotation(self):
        sol = make_solution(SolutionId.BESSEL_UNIFORM)
        v0 = eval_solution(sol, 0.0, 0.0)
        v1 = eval_solution(sol, 0.0, 1.0)
        assert abs(v0) == pytest.approx(abs(v1), rel=1e-14)
        expected = v0 * np.exp(1j * phase_rate(sol) * 1.0)
        assert v1 == pytest.approx(expected, rel=1e-13)

    def test_time_phase_factor_everywhere(self):
        sol = make_solution(SolutionId.CUBIC_NLS_CN)
        x = np.linspace(-0.8, 0.8, 9)
        theta = phase_rate(sol)
        a = np.asarray(eval_solution(sol, x, 2.0))
        b = np.asarray(eval_solution(sol, x, 0.0)) * np.exp(2.0j * theta)
        assert np.allclose(a, b, rtol=1e-13)


class TestMappingTable:
    def test_nine_rows(self):
        assert len(mapping_table()) == 9

    def test_quintic_row_quenches_at_one_fifth(self):
        rows = [p for p in mapping_table() if p.nls_id is SolutionId.CQ_NLS_SN]
        assert len(rows) == 1
        assert rows[0].nls_params(0.0)["m"] == pytest.approx(0.2)

    def test_quenched_pairs_have_zero_phase_rate(self):
        for pair in mapping_table():
            _, nls = instantiate_pair(pair)
            assert abs(phase_rate(nls)) < 1e-12, pair.nls_id

    def test_detune_restores_rotation(self):
        pair = mapping_table()[1]
        _, nls = instantiate_pair(pair, detune=0.05)
        assert abs(phase_rate(nls)) > 1e-3

    def test_windows_are_ordered_intervals(self):
        for pair in mapping_table():
            lo, hi = pair.window
            assert lo < hi

    def test_static_member_is_time_independent(self):
        x = np.linspace(-1.0, 1.0, 7)
        for pair in mapping_table():
            kg, _ = instantiate_pair(pair)
            a = np.asarray(eval_solution(kg, x, 0.0))
            b = np.asarray(eval_solution(kg, x, 5.0))
            assert np.allclose(a, b, rtol=1e-13), pair.kg_id


def test_model_for_matches_family_kind():
    m_env = model_for(make_solution(SolutionId.CUBIC_NLS_SN))
    m_field = model_for(make_solution(SolutionId.CUBIC_KG_SN))
    assert m_env.family is Family.CUBIC_NLS
    assert m_field.family is Family.CUBIC_KG


def test_uniform_phase_rate_matches_model_term():
    sol = make_solution(SolutionId.BESSEL_UNIFORM)
    model = model_for(sol)
    amp = abs(eval_solution(sol, 0.0, 0.0))
    assert phase_rate(sol) == pytest.approx(
        -nls_nonlinear_phase_rate(model, amp), rel=1e-13)



def test_solution_is_profile_times_phase_factor():
    x, t = np.linspace(-2.0, 2.0, 9)[None, :], np.array([[0.0], [0.3], [1.7]])
    for sid in catalog_ids():
        sol = make_solution(sid)
        product = np.asarray(eval_profile(sol, x, t) * phase_factor(sol, t), dtype=complex)
        assert eval_solution(sol, x, t).tobytes() == product.tobytes(), sid


class TestPeriods:
    """Each envelope entry states its x-period once; a periodic grid must hold
    a whole number of them."""

    ENVELOPE = [sid for sid in catalog_ids() if model_for(make_solution(sid)).family.is_nls]
    PERIODIC = [sid for sid in ENVELOPE if 0.0 < _x_period(make_solution(sid)) < math.inf]

    def test_period_facts(self):
        periods = {sid.value: _x_period(make_solution(sid)) for sid in self.ENVELOPE}
        assert periods["CUBIC_NLS_SN"] == periods["DW_NLS_SN"] == 4.0 * ellipk(0.6)
        # cn at m = -1/2 through A&S 16.10: mu = 1/3, scaled by 1/sqrt(1 - m)
        assert periods["CUBIC_NLS_CN"] == pytest.approx(4.0 * ellipk(1.0 / 3.0) / math.sqrt(1.5),
                                                        rel=1e-15)
        assert periods["CQ_NLS_SN"] == 8.0 * ellipk(0.3)
        assert periods["DW_NLS_CONST"] == periods["BESSEL_UNIFORM"] == 0.0
        assert [name for name, period in periods.items() if math.isinf(period)] == \
            ["CUBIC_NLS_DC", "DW_NLS_TANH", "DW_NLS_DC"]

    @pytest.mark.parametrize("sid", PERIODIC, ids=lambda sid: sid.value)
    def test_profile_repeats_after_its_period(self, sid):
        sol = make_solution(sid)
        period = _x_period(sol)
        x = np.linspace(-period, period, 41)
        assert np.max(np.abs(eval_profile(sol, x + period) - eval_profile(sol, x))) < 1e-12
        # and not after a half period: the period is not a multiple of a shorter one
        assert np.max(np.abs(eval_profile(sol, x + period / 2) - eval_profile(sol, x))) > 0.1

    def test_kg_entry_is_refused(self):
        # a static KG field is no envelope initial, whatever the length
        sol = make_solution(SolutionId.CUBIC_KG_SN)
        with pytest.raises(DomainError, match="CUBIC_KG_SN solves a KG field equation"):
            require_whole_periods(sol, 20.0)

    @pytest.mark.parametrize("whole", [1, 2, 5])
    def test_whole_number_of_periods_is_held(self, whole):
        sol = make_solution(SolutionId.CUBIC_NLS_SN)
        period = _x_period(sol)
        require_whole_periods(sol, whole * period * (1.0 + 5e-10))
        with pytest.raises(DomainError, match=f"nearest {whole * period!r}"):
            require_whole_periods(sol, whole * period * (1.0 + 2e-9))
