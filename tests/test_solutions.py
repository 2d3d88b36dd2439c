"""Closed-form catalog: construction, evaluation, validity, quench table."""

import numpy as np
import pytest

from svealab.errors import ConstraintError, DomainError
from svealab.models import Family, nls_nonlinear_phase_rate
from svealab.solutions import (SolutionId, catalog_dump, catalog_ids, eval_solution,
                               formula_text, in_validity_domain, instantiate_pair,
                               make_solution, mapping_table, model_for, phase_rate)


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


def test_defaults_sit_inside_validity_domains():
    for sid in catalog_ids():
        assert in_validity_domain(make_solution(sid)), sid


def test_unknown_parameter_rejected():
    with pytest.raises(DomainError):
        make_solution(SolutionId.CUBIC_NLS_SN, wavelength=2.0)


def test_constraint_violation_rejected():
    # coefficient relations are checked, not silently recomputed
    with pytest.raises(ConstraintError):
        make_solution(SolutionId.CQ_KG_SN, sigma=2.0, lam=1.0)
    with pytest.raises(ConstraintError):
        make_solution(SolutionId.SG_KINK, nu=0.5, gamma=3.0)


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
        assert rows[0].m_star == pytest.approx(0.2)

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


def test_formula_text_and_dump_cover_catalog():
    dump = catalog_dump()
    for sid in catalog_ids():
        assert formula_text(sid)
        assert sid.value in dump
