"""Residual machinery and quench checks.

The residual stencils are the package's own; what is tested here is their
behavior, not their values: convergence order under grid doubling, tolerance
on the fine grid, and the time-(in)dependence structure of the quench
comparison.
"""

import dataclasses
import math

import numpy as np
import pytest

from svealab import specfn, verify
from svealab.errors import DomainError
from svealab.solutions import (SolutionId, catalog_ids, eval_solution, instantiate_pair,
                               make_solution, mapping_table, model_for)
from svealab.verify import (CONVERGENCE_RATIO_MIN, DEFAULT_TOLERANCE, FLOOR_RESIDUAL,
                            MAPPING_TOLERANCE, ResidualReport, check_all_mappings,
                            check_mapping, mapping_report, verification_report,
                            verify_catalog, verify_entry)


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
        c = check_mapping(pair, detune=0.05)
        assert [t for t, _ in c.per_time] == [0.0, 1.0, 10.0]
        diffs = [d for _, d in c.per_time]
        assert diffs[2] > diffs[1] > diffs[0]
        assert diffs[2] > 100.0 * MAPPING_TOLERANCE

    @pytest.mark.parametrize("detune", [-1.0, 1e307, 1e308])
    def test_detune_out_of_a_row_domain_is_a_domain_error(self, detune):
        # -1 takes the cubic-quintic sigma's square root below zero; 1e307
        # and 1e308 make a phase rate times t = 10 overflow
        with pytest.raises(DomainError, match="detune"):
            check_all_mappings(detune=detune)

    def test_quenched_quintic_profile_still_solves_envelope_equation(self):
        # the collapse point sits inside this entry's validity domain, so the
        # static profile must satisfy the dynamic equation as well
        row = [p for p in mapping_table() if p.nls_id is SolutionId.CQ_NLS_SN][0]
        _, nls = instantiate_pair(row)
        res = verify._residual(model_for(nls), nls, (-1.2, 1.2), 801)
        assert res.relative_residual < DEFAULT_TOLERANCE

    def test_report_text(self, checks):
        text = mapping_report(checks)
        assert text.count("PASS") == 9


def test_static_residual_flags_wrong_coefficient():
    sol = make_solution(SolutionId.CUBIC_NLS_SN)
    model = model_for(sol)
    wrong = type(model)(model.family, lam=model.lam * 1.5, omega=model.omega)
    ok = verify._residual(model, sol, (-3.0, 3.0), 801)
    bad = verify._residual(wrong, sol, (-3.0, 3.0), 801)
    assert bad.relative_residual > 100.0 * ok.relative_residual


class TestGridSizes:
    """Grids too small for the stencil are domain errors."""

    @pytest.mark.parametrize("n_points", [4, 3, 0, -4])
    def test_residual_needs_the_stencil(self, n_points):
        for sid in (SolutionId.CUBIC_KG_SN, SolutionId.SG_KINK, SolutionId.CUBIC_NLS_SN):
            sol = make_solution(sid)
            with pytest.raises(DomainError, match="n_points must be >= 5"):
                verify._residual(model_for(sol), sol, sol.window, n_points)

    def test_smallest_residual_grid_runs(self):
        for sid in (SolutionId.CUBIC_KG_SN, SolutionId.SG_KINK, SolutionId.CUBIC_NLS_SN):
            sol = make_solution(sid)
            report = verify._residual(model_for(sol), sol, sol.window, 5)
            assert np.isfinite(report.max_abs_residual)


class TestBatchedEvaluation:
    """One evaluation per grid is byte for byte the evaluation per time."""

    @pytest.mark.parametrize("n_points", [251, 501, 2001])
    @pytest.mark.parametrize("sid", catalog_ids(), ids=lambda sid: sid.value)
    def test_each_slab_is_the_evaluation_at_its_time(self, sid, n_points):
        sol = make_solution(sid)
        x, h = verify._grid(sol.window, n_points)
        slabs = verify._slabs(sol, x, verify._TIMES, h)
        assert slabs.shape == (len(verify._TIMES), 5, n_points)
        offsets = h * np.arange(-2.0, 3.0)[:, None]
        for t0, slab in zip(verify._TIMES, slabs):
            one = np.asarray(eval_solution(sol, x[None, :], t0 + offsets), dtype=complex)
            assert slab.tobytes() == one.tobytes(), t0

    @pytest.mark.parametrize("detune", [0.0, 0.05])
    def test_each_mapping_row_is_the_evaluation_at_its_time(self, detune):
        times = (0.0, 1.0, 10.0)
        assert verify._MAP_TIMES == times
        for pair in mapping_table():
            kg, nls = instantiate_pair(pair, detune=detune)
            x, _ = verify._grid(pair.window, 801)
            phi = np.asarray(eval_solution(kg, x, 0.0), dtype=complex)
            rows = verify._rows(nls, x, times)
            per_time = []
            for t, row in zip(times, rows):
                psi = np.asarray(eval_solution(nls, x, t), dtype=complex)
                assert row.tobytes() == psi.tobytes(), (pair.nls_id, t)
                per_time.append((t, float(np.max(np.abs(psi - phi)))))
            assert check_mapping(pair, detune=detune).per_time == tuple(per_time)


class TestNestedGrids:
    """verify_entry evaluates a profile that does not travel once, on the
    tolerance grid, and takes each ratio grid as every k-th point of it."""

    @pytest.mark.parametrize("sid", catalog_ids(), ids=lambda sid: sid.value)
    def test_ratio_grids_are_strided_tolerance_grids(self, sid):
        lo, hi = make_solution(sid).window
        fine = np.linspace(lo, hi, 2001)
        for n, stride in ((501, 4), (251, 8)):
            assert fine[::stride].tobytes() == np.linspace(lo, hi, n).tobytes(), n

    @pytest.mark.parametrize("sid", catalog_ids(), ids=lambda sid: sid.value)
    def test_every_field_is_the_closed_form_on_a_fresh_grid(self, monkeypatch, sid):
        built = []
        rows_of = verify._rows

        def spy(sol, x, times, profile=None):
            rows = rows_of(sol, x, times, profile)
            built.append((x.size, np.reshape(np.asarray(times, dtype=float), (-1, 1)), rows))
            return rows

        monkeypatch.setattr(verify, "_rows", spy)
        sol = make_solution(sid)
        verify_entry(sid)
        assert sorted(n for n, _, _ in built) == [251, 501, 2001]
        lo, hi = sol.window
        for n, t, rows in built:
            oracle = np.asarray(eval_solution(sol, np.linspace(lo, hi, n)[None, :], t),
                                dtype=complex)
            assert rows.shape == oracle.shape, n
            assert np.array_equal(rows.view(np.int64), oracle.view(np.int64)), n

    def test_each_residual_is_the_per_time_residual(self):
        # the stencils run once over every time sample; row by row they must
        # give the same worst value as each time alone
        for sid in (SolutionId.CUBIC_NLS_SN, SolutionId.SG_KINK, SolutionId.BESSEL_UNIFORM):
            sol = make_solution(sid)
            model = model_for(sol)
            whole = verify._residual(model, sol, sol.window, 251)
            with pytest.MonkeyPatch.context() as mp:
                per_time = []
                for t0 in verify._TIMES:
                    mp.setattr(verify, "_TIMES", (t0,))
                    per_time.append(verify._residual(model, sol, sol.window, 251))
            assert whole.max_abs_residual == max(r.max_abs_residual for r in per_time), sid


def _nan_field(sol, x, t=0.0):
    return np.full(np.broadcast_shapes(np.shape(x), np.shape(t)), complex(math.nan, 0.0))


def _residuals(monkeypatch, coarse, fine, tolerance_grid):
    """Make verify_entry read these relative residuals on its three grids."""
    relative = {251: coarse, 501: fine, 2001: tolerance_grid}

    def residual(model, sol, x_range, n_points, profile=None):
        return ResidualReport(sol.sid.value, "grid", relative[n_points], relative[n_points])

    monkeypatch.setattr(verify, "_residual", residual)


class TestNonFiniteVerdicts:
    """A NaN or an infinity fails the check it reaches; no fold drops it."""

    def test_nan_time_sample_fails_the_mapping_row(self, monkeypatch):
        monkeypatch.setattr(verify, "_MAP_TIMES", (0.0, math.nan))
        c = check_mapping(mapping_table()[0])
        assert math.isnan(c.max_abs_diff)
        assert c.passed is False
        assert mapping_report([c]).splitlines()[-1] == f"0/1 mapping rows within {MAPPING_TOLERANCE:g}"

    def test_nan_field_fails_every_entry(self, monkeypatch):
        # an envelope entry's rate is the stepper's bound one, which does not
        # refuse a NaN amplitude: the row fails, it does not raise
        monkeypatch.setattr(verify, "eval_profile", _nan_field)
        envelope = [model_for(make_solution(sid)).family.is_nls for sid in catalog_ids()]
        assert (envelope.count(False), envelope.count(True)) == (11, 10)
        for sid in catalog_ids():
            rep = verify_entry(sid)
            assert rep.passed is False, sid
            assert math.isnan(rep.tolerance_report.relative_residual), sid
            assert rep.note == "doubling ratio nan (order nan)", sid

    def test_nan_residual_has_no_doubling_ratio(self, monkeypatch):
        monkeypatch.setattr(verify, "eval_profile", _nan_field)
        rep = verify_entry(SolutionId.CUBIC_KG_SN)
        assert math.isnan(rep.ratio) and math.isnan(rep.order)
        assert rep.note == "doubling ratio nan (order nan)"

    # the last three leave one grid at the rounding floor: a NaN on the other
    # must not pass the floor rule
    @pytest.mark.parametrize("coarse, fine", [(math.inf, 1e-3), (math.nan, 1e-3),
                                              (1e-3, math.nan), (1e-3, math.inf),
                                              (math.nan, 0.0), (0.0, math.nan),
                                              (math.nan, 1e-14)])
    def test_non_finite_ratio_grid_is_not_converged(self, monkeypatch, coarse, fine):
        # the tolerance grid is well within tolerance: only the ratio rule can fail
        _residuals(monkeypatch, coarse, fine, 1e-9)
        rep = verify_entry(SolutionId.CUBIC_KG_SN)
        assert rep.passed is False
        assert rep.note == "doubling ratio nan (order nan)"

    def test_nan_tolerance_grid_residual_fails_at_the_floor(self, monkeypatch):
        # both ratio grids at the rounding floor converge; only `within` can fail
        _residuals(monkeypatch, 1e-14, 1e-14, math.nan)
        rep = verify_entry(SolutionId.CUBIC_KG_SN)
        assert rep.note == "residual at rounding floor on both grids"
        assert rep.passed is False
        assert verification_report([rep]).splitlines()[-1] == "0/1 catalog entries verified"

    def test_exact_coarse_grid_has_order_minus_infinity(self, monkeypatch):
        # ratio 0: the coarse grid is exact and the fine one is not
        _residuals(monkeypatch, 0.0, 1e-3, 1e-9)
        rep = verify_entry(SolutionId.CUBIC_KG_SN)
        assert rep.ratio == 0.0 and rep.order == -math.inf
        assert rep.note == "doubling ratio 0.0 (order -inf)"
        assert rep.passed is False

    def test_nan_field_fails_every_mapping_row(self, monkeypatch):
        monkeypatch.setattr(verify, "eval_solution", _nan_field)
        checks = check_all_mappings()
        assert checks and all(math.isnan(c.max_abs_diff) for c in checks)
        assert not any(c.passed for c in checks)
        assert mapping_report(checks).splitlines()[-1] == \
            f"0/{len(checks)} mapping rows within {MAPPING_TOLERANCE:g}"

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, monkeypatch, tolerance):
        monkeypatch.setattr(verify, "eval_profile", None)  # a call would fail
        monkeypatch.setattr(verify, "eval_solution", None)
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


def _bits(report):
    """Every field of a report, floats as their bytes: equal means bitwise
    equal, and a NaN equals the same NaN."""
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in _flat(dataclasses.astuple(report)))


def _flat(fields):
    for v in fields:
        yield from _flat(v) if isinstance(v, tuple) else (v,)


class TestSharedElliptic:
    """A sweep shares its elliptic evaluations; each entry or row alone is the
    reference."""

    def test_catalog_sweep_is_each_entry_alone(self):
        swept = verify_catalog()
        alone = [verify_entry(sid) for sid in catalog_ids()]
        assert [_bits(r) for r in swept] == [_bits(r) for r in alone]

    @pytest.mark.parametrize("detune", [0.0, 0.05])
    def test_mapping_sweep_is_each_row_alone(self, detune):
        swept = check_all_mappings(detune)
        alone = [check_mapping(p, detune) for p in mapping_table()]
        assert [_bits(c) for c in swept] == [_bits(c) for c in alone]

    def test_handed_out_arrays_are_read_only(self):
        x = np.linspace(-2.0, 2.0, 11)
        with specfn.shared_elliptic():
            for arr in (*specfn.jacobi_elliptic(x, 0.5), *specfn.jacobi_elliptic(x, 0.5)):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0
        specfn.jacobi_elliptic(x, 0.5).sn[0] = 0.0  # no scope, no sharing

    @pytest.mark.parametrize("m", [0.5, -1.0, 2.0])
    def test_shapes_with_the_same_values_share_one_evaluation(self, monkeypatch, m):
        x = verify._grid((-4.0, 4.0), 801)[0]
        fresh = [specfn.jacobi_elliptic(u, m) for u in (x, x[None, :])]
        calls = []
        ellipj = specfn._sp.ellipj
        monkeypatch.setattr(specfn._sp, "ellipj", lambda *a: calls.append(a) or ellipj(*a))
        with specfn.shared_elliptic():
            shared = [specfn.jacobi_elliptic(u, m) for u in (x, x[None, :])]
            assert len(calls) == 1
            specfn.jacobi_elliptic(-x, m)
            specfn.jacobi_elliptic(x, 0.25)
            assert len(calls) == 3
        for one, other in zip(fresh, shared):
            for a, b in zip(one, other):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        specfn.jacobi_elliptic(x, m)
        assert len(calls) == 4  # the memo died with its scope
