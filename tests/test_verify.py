"""Residual machinery and quench checks.

The residual stencils are the package's own; what is tested here is their
behavior, not their values: convergence order under grid doubling, tolerance
on the fine grid, and the time-(in)dependence structure of the quench
comparison.
"""

import math

import numpy as np
import pytest

from svealab import verify
from svealab.errors import DomainError
from svealab.solutions import (SolutionId, catalog_ids, instantiate_pair, make_solution,
                               mapping_table, model_for)
from svealab.verify import (CONVERGENCE_RATIO_MIN, DEFAULT_TOLERANCE, FLOOR_RESIDUAL,
                            MAPPING_TOLERANCE, ResidualReport, check_all_mappings,
                            check_mapping, kg_residual, mapping_report, nls_residual,
                            residual_for, verification_report, verify_catalog, verify_entry)


@pytest.fixture(scope="module")
def catalog_reports():
    return verify_catalog()


def test_catalog_fully_passes(catalog_reports):
    assert len(catalog_reports) == 21
    bad = [r for r in catalog_reports if not r.passed]
    assert not bad, [r.tolerance_report.solution_id for r in bad]


def test_fine_grid_residuals_under_tolerance(catalog_reports):
    for r in catalog_reports:
        assert r.tolerance_report.relative_residual < DEFAULT_TOLERANCE


def test_doubling_shrinks_residuals(catalog_reports):
    for r in catalog_reports:
        at_floor = (r.coarse.relative_residual <= FLOOR_RESIDUAL
                    and r.fine.relative_residual <= FLOOR_RESIDUAL)
        assert at_floor or r.ratio >= CONVERGENCE_RATIO_MIN, r.tolerance_report.solution_id


def test_observed_order_near_stencil_order(catalog_reports):
    for r in catalog_reports:
        if r.order is not None:
            assert r.order >= 3.5, (r.tolerance_report.solution_id, r.order)


def test_report_text_lists_every_entry(catalog_reports):
    text = verification_report(catalog_reports)
    for r in catalog_reports:
        assert r.tolerance_report.solution_id in text
    assert "PASS" in text


def test_single_entry_runs_standalone():
    rep = verify_entry(SolutionId.SG_KINK)
    assert rep.passed


@pytest.fixture(scope="module")
def checks():
    return check_all_mappings()


class TestMappings:

    def test_all_pairs_within_tolerance(self, checks):
        assert len(checks) == 9
        for c in checks:
            assert c.max_abs_diff < MAPPING_TOLERANCE, (c.kg_id, c.max_abs_diff)

    def test_difference_is_time_independent_when_quenched(self, checks):
        for c in checks:
            diffs = [d for _, d in c.per_time]
            assert max(diffs) - min(diffs) < MAPPING_TOLERANCE

    def test_detuned_difference_grows_with_time(self):
        # off the collapse point the phase keeps rotating, so the mismatch
        # accumulates with t (on top of any static profile difference)
        pair = mapping_table()[1]
        c = check_mapping(pair, detune=0.05, t_samples=(0.0, 1.0, 10.0))
        diffs = [d for _, d in c.per_time]
        assert diffs[2] > diffs[1] > diffs[0]
        assert diffs[2] > 100.0 * MAPPING_TOLERANCE

    @pytest.mark.parametrize("detune", [-1.0, 1e308])
    def test_detune_out_of_a_row_domain_is_a_domain_error(self, detune):
        # -1 takes the cubic-quintic sigma's square root below zero; 1e308
        # overflows the phase rates
        with pytest.raises(DomainError, match="detune"):
            check_all_mappings(n_points=11, t_samples=(0.0, 1.0), detune=detune)

    def test_quenched_quintic_profile_still_solves_envelope_equation(self):
        # the collapse point sits inside this entry's validity domain, so the
        # static profile must satisfy the dynamic equation as well
        row = [p for p in mapping_table() if p.nls_id is SolutionId.CQ_NLS_SN][0]
        _, nls = instantiate_pair(row)
        res = nls_residual(model_for(nls), nls, (-1.2, 1.2), 801)
        assert res.relative_residual < DEFAULT_TOLERANCE

    def test_report_text(self, checks):
        text = mapping_report(checks)
        assert text.count("PASS") == 9


def test_static_residual_flags_wrong_coefficient():
    sol = make_solution(SolutionId.CUBIC_NLS_SN)
    model = model_for(sol)
    wrong = type(model)(model.family, lam=model.lam * 1.5, omega=model.omega)
    ok = nls_residual(model, sol, (-3.0, 3.0), 801)
    bad = nls_residual(wrong, sol, (-3.0, 3.0), 801)
    assert bad.relative_residual > 100.0 * ok.relative_residual


class TestGridSizes:
    """Grids too small for the stencil or the window are domain errors."""

    @pytest.mark.parametrize("n_points", [4, 3, 0, -4])
    def test_residual_needs_the_stencil(self, n_points):
        for sid in (SolutionId.CUBIC_KG_SN, SolutionId.SG_KINK, SolutionId.CUBIC_NLS_SN):
            with pytest.raises(DomainError, match="at least 5"):
                residual_for(make_solution(sid), n_points=n_points)
        with pytest.raises(DomainError, match="at least 5"):
            verify_catalog([SolutionId.CUBIC_KG_SN], n_points=n_points)

    def test_smallest_residual_grid_runs(self):
        for sid in (SolutionId.CUBIC_KG_SN, SolutionId.SG_KINK, SolutionId.CUBIC_NLS_SN):
            assert np.isfinite(residual_for(make_solution(sid), n_points=5).max_abs_residual)

    def test_empty_time_list_is_a_domain_error(self):
        pair = mapping_table()[0]
        with pytest.raises(DomainError, match="t_samples"):
            check_mapping(pair, t_samples=())
        for sol in instantiate_pair(pair) + (make_solution(SolutionId.SG_KINK),):
            model = model_for(sol)
            residual = kg_residual if model.family.is_kg else nls_residual
            with pytest.raises(DomainError, match="t_range"):
                residual(model, sol, sol.window, 101, t_range=())

    @pytest.mark.parametrize("n_points", [1, 0, -2])
    def test_mapping_needs_both_window_ends(self, n_points):
        with pytest.raises(DomainError, match="at least 2"):
            check_mapping(mapping_table()[0], n_points=n_points)

    def test_smallest_mapping_grid_runs(self):
        assert check_mapping(mapping_table()[0], n_points=2).max_abs_diff < MAPPING_TOLERANCE


def _nan_field(sol, x, t):
    return np.full(np.broadcast_shapes(np.shape(x), np.shape(t)), complex(math.nan, 0.0))


class TestNonFiniteVerdicts:
    """A NaN or an infinity fails the check it reaches; no fold drops it."""

    def test_nan_time_sample_fails_the_mapping_row(self):
        c = check_mapping(mapping_table()[0], t_samples=(0.0, math.nan))
        assert math.isnan(c.max_abs_diff)
        assert c.passed is False
        assert mapping_report([c]).splitlines()[-1] == f"0/1 mapping rows within {MAPPING_TOLERANCE:g}"

    def test_nan_field_fails_every_kg_entry(self, monkeypatch):
        monkeypatch.setattr(verify, "eval_solution", _nan_field)
        kg = [sid for sid in catalog_ids() if model_for(make_solution(sid)).family.is_kg]
        assert len(kg) == 11
        for sid in kg:
            rep = verify_entry(sid)
            assert rep.passed is False, sid
            assert math.isnan(rep.tolerance_report.relative_residual), sid

    def test_nan_residual_has_no_doubling_ratio(self, monkeypatch):
        monkeypatch.setattr(verify, "eval_solution", _nan_field)
        rep = verify_entry(SolutionId.CUBIC_KG_SN)
        assert math.isnan(rep.ratio) and math.isnan(rep.order)
        assert rep.note == "doubling ratio nan (order nan)"

    @pytest.mark.parametrize("coarse, fine", [(math.inf, 1e-3), (math.nan, 1e-3),
                                              (1e-3, math.nan), (1e-3, math.inf)])
    def test_non_finite_ratio_grid_is_not_converged(self, monkeypatch, coarse, fine):
        # the tolerance grid is well within tolerance: only the ratio rule can fail
        relative = {251: coarse, 501: fine, 2001: 1e-9}

        def residual(sol, n_points=2001):
            return ResidualReport(sol.sid.value, "grid", relative[n_points], 1.0,
                                  relative[n_points])

        monkeypatch.setattr(verify, "residual_for", residual)
        assert verify_entry(SolutionId.CUBIC_KG_SN).passed is False

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, monkeypatch, tolerance):
        monkeypatch.setattr(verify, "eval_solution", None)  # a call would fail
        with pytest.raises(DomainError, match="tolerance"):
            verify_entry(SolutionId.CUBIC_KG_SN, tolerance=tolerance)
        with pytest.raises(DomainError, match="tolerance"):
            check_mapping(mapping_table()[0], tolerance=tolerance)

    def test_mapping_tolerance_sets_the_verdict(self):
        strict = check_mapping(mapping_table()[1], detune=0.05)
        loose = check_mapping(mapping_table()[1], detune=0.05,
                              tolerance=2.0 * strict.max_abs_diff)
        assert (strict.passed, loose.passed) == (False, True)
        assert loose.tolerance == 2.0 * strict.max_abs_diff
