"""Peak detection, structure counting, and the stability scan."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks as scipy_find_peaks

from svealab import analysis
from svealab.analysis import (Peak, PeakRow, PeakTable, ScanTemplate, StabilityPoint,
                              count_structures, detection_threshold, find_peaks,
                              oscillation_metric, outer_position_blocks, peak_count_series,
                              peak_table, scan_stability, splitting_alternations,
                              stable_line_prediction, track_structures)
from svealab.errors import DomainError
from svealab.models import Family, ModelSpec
from svealab.solver import (FieldState, Grid1D, RunConfig, Trajectory, propagate,
                            sech_profile, supergaussian_profile, uniform_profile)


def make_state(grid, values):
    return FieldState(grid, np.asarray(values, dtype=complex), 0.0)


def synthetic_traj(grid, frames, dt=1.0):
    snaps = tuple(FieldState(grid, np.asarray(v, dtype=complex), i * dt)
                  for i, v in enumerate(frames))
    masses = np.array([np.sum(np.abs(s.values) ** 2) * grid.spacing for s in snaps])
    peaks = np.array([np.max(np.abs(s.values) ** 2) for s in snaps])
    return Trajectory(snapshots=snaps, mass_series=masses, peak_series=peaks,
                      times=np.array([s.time for s in snaps]))


class TestFindPeaks:
    def test_flat_field_has_no_interior_maxima(self):
        g = Grid1D(64, 20.0)
        assert find_peaks(make_state(g, np.full(64, 2.0)), threshold=1.0) == []

    def test_single_sech(self):
        g = Grid1D(2048, 80.0)
        peaks = find_peaks(sech_profile(g, 15.0), threshold=1.0)
        assert len(peaks) == 1
        assert peaks[0].position == pytest.approx(0.0, abs=1e-6)
        assert peaks[0].height == pytest.approx(225.0, rel=1e-6)

    def test_two_sechs_at_plus_minus_five(self):
        g = Grid1D(1024, 60.0)
        vals = 1.0 / np.cosh(g.x - 5.0) + 1.0 / np.cosh(g.x + 5.0)
        peaks = find_peaks(make_state(g, vals), threshold=0.5, min_separation=2.0)
        assert [round(p.position, 3) for p in peaks] == [-5.0, 5.0]

    def test_min_separation_merges_close_maxima(self):
        g = Grid1D(1024, 60.0)
        vals = 1.0 / np.cosh(g.x - 2.0) + 1.0 / np.cosh(g.x + 2.0)
        both = find_peaks(make_state(g, vals), threshold=0.5, min_separation=1.0)
        merged = find_peaks(make_state(g, vals), threshold=0.5, min_separation=10.0)
        assert len(both) == 2
        assert len(merged) == 1

    def test_parabolic_refinement_lands_off_grid(self):
        g = Grid1D(256, 40.0)
        x0 = 1.2345  # deliberately between grid nodes
        vals = np.exp(-((g.x - x0) ** 2))
        peaks = find_peaks(make_state(g, vals), threshold=0.5)
        assert peaks[0].position == pytest.approx(x0, abs=1e-3)
        assert abs(peaks[0].position - x0) < g.spacing / 2

    def test_separation_beyond_the_grid_keeps_only_the_highest_peak(self):
        g = Grid1D(1024, 60.0)
        vals = 1.0 / np.cosh(g.x - 5.0) + 1.2 / np.cosh(g.x + 5.0)
        state = make_state(g, vals)
        widest = find_peaks(state, threshold=0.5, min_separation=g.length)
        assert len(widest) == 1 and widest[0].position == pytest.approx(-5.0, abs=1e-3)
        assert find_peaks(state, threshold=0.5, min_separation=1e308) == widest

    def test_threshold_must_be_positive(self):
        g = Grid1D(64, 20.0)
        with pytest.raises(DomainError):
            find_peaks(make_state(g, np.ones(64)), threshold=0.0)


def _rounded_sine(n, step, scale):
    return np.round(scale * np.sin(step * np.arange(n)))


def _repeated_blocks(block, repeats, n):
    return np.resize(np.repeat(np.asarray(block, dtype=float), repeats), n)


# Noise, integer plateaus, rounded sines and repeated blocks, 0 to 300 samples.
_FIELDS = st.one_of(
    st.lists(st.floats(0.0, 1.0), max_size=300).map(np.array),
    st.lists(st.integers(0, 3), max_size=300).map(np.array),
    st.builds(_rounded_sine, st.integers(0, 300), st.floats(0.05, 1.5), st.integers(1, 4)),
    st.builds(_repeated_blocks, st.lists(st.integers(0, 2), min_size=1, max_size=5),
              st.integers(1, 3), st.integers(0, 300)))


class TestLocalPeaks:
    """The numpy peak rule against scipy.signal.find_peaks as the oracle."""

    @staticmethod
    def _oracle(y, height, distance):
        return scipy_find_peaks(y, height=height, distance=distance)[0]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(y=_FIELDS, height=st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0)),
           distance=st.integers(1, 11))
    def test_same_indices_as_scipy(self, y, height, distance):
        y = y.astype(float)
        got = analysis._local_peaks(y, height, distance)
        np.testing.assert_array_equal(got, self._oracle(y, height, distance))

    def test_uniform_field_has_no_peaks(self):
        assert analysis._local_peaks(np.full(50, 2.0), 0.0, 1).size == 0

    @pytest.mark.parametrize("y", [[3.0, 3.0, 3.0, 1.0, 0.0, 0.0],
                                   [0.0, 1.0, 3.0, 3.0, 3.0],
                                   [0.0, 1.0, 3.0, 3.0, 3.0, 3.0]],
                             ids=["left", "right", "right-even"])
    def test_plateau_touching_an_edge_is_no_peak(self, y):
        y = np.array(y)
        assert analysis._local_peaks(y, 0.0, 1).size == 0 == self._oracle(y, 0.0, 1).size

    def test_plateau_peak_sits_at_its_middle_rounded_down(self):
        y = np.array([0.0, 2.0, 2.0, 2.0, 2.0, 0.0])
        assert analysis._local_peaks(y, 0.0, 1).tolist() == [2] == self._oracle(y, 0.0, 1).tolist()

    def test_equal_heights_closer_than_distance_keep_scipys_choice(self):
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        for distance in (3, 5):
            got = analysis._local_peaks(y, 0.5, distance)
            np.testing.assert_array_equal(got, self._oracle(y, 0.5, distance))
            assert got.size == (2 if distance == 3 else 1)

    def test_nan_intensity_is_a_domain_error(self):
        # FieldState refuses a NaN, so a stand-in with the same fields carries
        # one.  On this field the plain rule calls index 1 a peak and scipy
        # finds none.
        values = np.zeros(16, dtype=complex)
        values[:5] = [0.0, 1.0, np.nan, 1.0, 0.0]
        state = SimpleNamespace(grid=Grid1D(16, 16.0), values=values, time=0.0)
        with pytest.raises(DomainError, match="not finite"):
            find_peaks(state, threshold=0.5)

    def test_overflowing_intensity_is_a_domain_error(self):
        values = np.zeros(16)
        values[:5] = [0.0, 1.0, 1e200, 1.0, 0.0]  # finite psi, |psi|^2 = inf
        with pytest.raises(DomainError, match="not finite"), np.errstate(over="ignore"):
            find_peaks(make_state(Grid1D(16, 16.0), values), threshold=0.5)


class TestStructureCounting:
    def test_modal_count_over_trailing_window(self):
        g = Grid1D(512, 60.0)
        three = 1 / np.cosh(g.x) + 1 / np.cosh(g.x - 10) + 1 / np.cosh(g.x + 10)
        two = 1 / np.cosh(g.x - 5) + 1 / np.cosh(g.x + 5)
        # trailing 25% of 8 frames = 2 frames, both with three humps
        traj = synthetic_traj(g, [two] * 6 + [three] * 2)
        assert count_structures(peak_table(traj, threshold=0.3, min_separation=2.0)) == 3

    def test_tie_prefers_smaller_count(self):
        g = Grid1D(512, 60.0)
        one = 1 / np.cosh(g.x)
        two = 1 / np.cosh(g.x - 8) + 1 / np.cosh(g.x + 8)
        # the trailing quarter of 8 frames holds one of each
        traj = synthetic_traj(g, [two] * 6 + [one, two])
        n = count_structures(peak_table(traj, threshold=0.3, min_separation=2.0))
        assert n == 1

    def test_peak_count_series_shape(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [1 / np.cosh(g.x)] * 3)
        series = peak_count_series(peak_table(traj, threshold=0.3))
        assert [t for t, _ in series] == pytest.approx([0.0, 1.0, 2.0])
        assert [c for _, c in series] == [1, 1, 1]


class TestAlternations:
    def test_counts_regime_flips(self):
        assert splitting_alternations([3, 1, 4, 2, 5]) == 4

    def test_intermediate_counts_do_not_flip(self):
        # only a step across 2 -> 3 flips; moves within a regime do not
        assert splitting_alternations([3, 2]) == 1
        assert splitting_alternations([4, 3, 2, 3, 4]) == 2
        assert splitting_alternations([1, 1, 2]) == 0

    def test_composes_with_count_series(self):
        g = Grid1D(512, 60.0)
        three = 1 / np.cosh(g.x) + 1 / np.cosh(g.x - 10) + 1 / np.cosh(g.x + 10)
        one = 1 / np.cosh(g.x)
        traj = synthetic_traj(g, [three, one, three, one])
        counts = [c for _, c in peak_count_series(peak_table(traj, threshold=0.3,
                                                             min_separation=2.0))]
        assert splitting_alternations(counts) == 3


class TestOscillationMetric:
    def test_steady_peak_scores_zero(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [1 / np.cosh(g.x)] * 5)
        assert oscillation_metric(peak_table(traj)) == pytest.approx(0.0, abs=1e-15)

    def test_breathing_peak_scores_swing_over_mean(self):
        g = Grid1D(256, 40.0)
        frames = [a / np.cosh(g.x) for a in (1.0, 1.1, 0.9, 1.0) * 3 + (1.1, 0.9, 1.0, 1.1)]
        # trailing quarter of 16 frames: intensities 1.21, 0.81, 1.0, 1.21
        traj = synthetic_traj(g, frames)
        m = oscillation_metric(peak_table(traj))
        swing = (1.21 - 0.81) / np.mean([1.21, 0.81, 1.0, 1.21])
        assert m == pytest.approx(swing, rel=1e-10)

    def test_nan_height_is_a_domain_error(self):
        # a NaN mean used to come back as the metric, which the scan's argmin
        # then takes for the minimum
        heights = [1.0] * 13 + [1.2, np.nan, 0.8]
        table = PeakTable(tuple(PeakRow(float(i), (Peak(0.0, h, float(i)),), h)
                                for i, h in enumerate(heights)))
        with pytest.raises(DomainError, match="average to nan"):
            oscillation_metric(table)


class TestOuterBlocks:
    def test_receding_pair_gives_increasing_blocks(self):
        g = Grid1D(512, 120.0)
        frames = []
        for i in range(64):
            d = 4.0 + 0.125 * i
            frames.append(1.2 / np.cosh(g.x)
                          + 1 / np.cosh(g.x - d) + 1 / np.cosh(g.x + d))
        # the trailing quarter holds the last 16 frames, d from 10 to 11.875
        traj = synthetic_traj(g, frames)
        blocks = outer_position_blocks(peak_table(traj, threshold=0.3, min_separation=2.0))
        assert len(blocks) == 4
        assert np.all(np.diff(blocks) > 0)
        # the standing hump at the origin must not drag the average down
        assert blocks[0] > 9.0

    def test_needs_at_least_two_blocks(self):
        g = Grid1D(256, 40.0)
        # four blocks need four usable snapshots; the trailing quarter of 12 holds three
        traj = synthetic_traj(g, [1 / np.cosh(g.x - 8) + 1 / np.cosh(g.x + 8)] * 12)
        with pytest.raises(DomainError, match="only 3 usable snapshots for 4 blocks"):
            outer_position_blocks(peak_table(traj, threshold=0.3))


class TestPeakTable:
    def test_one_find_peaks_call_per_snapshot(self, monkeypatch):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [1 / np.cosh(g.x)] * 5)
        calls = []
        real = analysis.find_peaks
        monkeypatch.setattr(analysis, "find_peaks",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        table = peak_table(traj, min_separation=2.0)
        assert len(calls) == 5
        # one threshold for every snapshot: the trajectory-wide default
        assert {(thr, sep) for _, thr, sep in calls} == {(detection_threshold(traj), 2.0)}
        assert [r.time for r in table.rows] == [s.time for s in traj.snapshots]

    def test_window_is_the_trailing_quarter(self):
        assert analysis.WINDOW_FRACTION == 0.25

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_tail_keeps_the_trailing_window_rule(self, monkeypatch, n, fraction):
        monkeypatch.setattr(analysis, "WINDOW_FRACTION", fraction)
        table = PeakTable(tuple(PeakRow(float(i), (), 1.0) for i in range(n)))
        k = max(1, int(np.ceil(fraction * n)))
        assert table.tail() == table.rows[-k:]

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(snapshots=(), mass_series=np.array([]), peak_series=np.array([]),
                          times=np.array([]))
        with pytest.raises(DomainError, match="no snapshots"):
            peak_table(traj, threshold=0.5)

    def test_plateau_metric_reads_the_peak_series(self):
        # flat frames have no interior maxima, so each row falls back to its
        # max |psi|^2, which the table takes from traj.peak_series
        g = Grid1D(64, 20.0)
        flat = synthetic_traj(g, [np.ones(64)] * 16)
        # the trailing quarter reads the last four entries
        traj = Trajectory(flat.snapshots, flat.mass_series,
                          np.array([9.0] * 12 + [1.0, 2.0, 3.0, 4.0]), flat.times)
        table = peak_table(traj, threshold=0.5)
        assert all(not r.peaks for r in table.rows)
        assert oscillation_metric(table) == pytest.approx((4.0 - 1.0) / 2.5)


class TestDetectionThreshold:
    def test_fraction_of_global_max(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [2 / np.cosh(g.x), 3 / np.cosh(g.x)])
        assert detection_threshold(traj, 0.5) == pytest.approx(4.5)

    def test_fraction_bounds(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [np.ones(256)])
        with pytest.raises(DomainError):
            detection_threshold(traj, 0.0)
        with pytest.raises(DomainError):
            detection_threshold(traj, 1.0)


class TestTracking:
    def test_persistent_count_ignores_flicker(self):
        g = Grid1D(512, 60.0)
        steady = 1 / np.cosh(g.x - 6) + 1 / np.cosh(g.x + 6)
        with_blip = steady + 0.8 / np.cosh(2 * (g.x - 14.0))
        frames = [steady] * 7 + [with_blip] + [steady] * 2
        traj = synthetic_traj(g, frames)
        table = peak_table(traj, threshold=0.3, min_separation=2.0)
        tracks = track_structures(table)
        # the blip opens a track of its own that lives for one snapshot
        assert sorted(len(t) for t in tracks) == [1, 10, 10]


class TestStabilityScan:
    def test_predicted_line(self):
        amp, k = stable_line_prediction(0.1)
        assert amp == pytest.approx(0.4)
        assert k == pytest.approx(-0.495)
        with pytest.raises(DomainError, match="alpha must be finite and > 0, got 0.0"):
            stable_line_prediction(0.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_alpha_has_one_rule(self, alpha):
        # the profile the scan starts from and the line it is compared with
        with pytest.raises(DomainError, match="alpha must be finite and > 0"):
            sech_profile(Grid1D(32, 10.0), 1.0, alpha)
        with pytest.raises(DomainError, match="alpha must be finite and > 0"):
            stable_line_prediction(alpha)

    def test_validation(self):
        tmpl = ScanTemplate(ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0))
        with pytest.raises(DomainError):
            scan_stability([], (0.1, 1.1, 9), tmpl)
        with pytest.raises(DomainError):
            scan_stability([0.1], (1.1, 0.1, 9), tmpl)
        with pytest.raises(DomainError):
            scan_stability([0.1], (0.1, 1.1, 1), tmpl)
        with pytest.raises(DomainError):
            tmpl_bad = ScanTemplate(ModelSpec(Family.CUBIC_NLS))
            scan_stability([0.1], (0.1, 1.1, 3), tmpl_bad)

    def test_infinite_psi0_hi_rejected(self):
        tmpl = ScanTemplate(ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0))
        with pytest.raises(DomainError, match="psi0_hi"):
            scan_stability([0.1], (0.1, float("inf"), 9), tmpl)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_alpha_rejected_before_any_cell(self, alpha):
        tmpl = ScanTemplate(ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0))
        with pytest.raises(DomainError, match="alphas"):
            scan_stability([0.1, alpha], (0.1, 1.1, 9), tmpl)

    def test_small_scan_runs_serially(self):
        # coarse smoke run of the grid + golden refinement machinery;
        # the physics-grade scan lives in the acceptance suite
        tmpl = ScanTemplate(ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0),
                            grid_n=128, grid_length=48.0, t_final=20.0, dt=5e-3,
                            snapshot_stride=400)
        points = scan_stability([0.5], (1.0, 3.0, 5), tmpl, jobs=1, refine_iters=2)
        assert len(points) == 1
        pt = points[0]
        assert pt.alpha == 0.5
        assert pt.psi0_opt > 0
        assert np.isfinite(pt.metric_value)


# Coarse and cheap: only the scan machinery is under test here.
_SMALL = ScanTemplate(ModelSpec(Family.BESSEL_NLS, lam=1.0, omega=1.0),
                      grid_n=128, grid_length=48.0, t_final=20.0, dt=5e-3,
                      snapshot_stride=400)


class TestLockstepScan:
    """The widths run in lockstep batches; results must not depend on it."""

    def test_independent_of_jobs_and_alpha_order(self):
        # 0.7 widens its range once while the others already refine
        tmpl = ScanTemplate(_SMALL.model, grid_n=128, grid_length=48.0, t_final=10.0,
                            dt=5e-3, snapshot_stride=400)
        alphas = [0.3, 0.5, 0.7]
        serial = scan_stability(alphas, (0.5, 3.0, 4), tmpl, jobs=1, refine_iters=3)
        assert [p.alpha for p in serial] == alphas
        assert any(p.flags.startswith("widened high") for p in serial)
        assert scan_stability(alphas, (0.5, 3.0, 4), tmpl, jobs=2, refine_iters=3) == serial
        reverse = scan_stability(alphas[::-1], (0.5, 3.0, 4), tmpl, jobs=1, refine_iters=3)
        assert sorted(reverse, key=lambda p: p.alpha) == serial

    # Values from the serial per-cell scan this one replaced.  The boundary
    # case's flags name only the widenings that were scanned.
    @pytest.mark.parametrize("psi0_range, expected", [
        ((2.6, 3.4, 3), StabilityPoint(0.5, 3.3554175279993266, 0.023679980792752846,
                                       "widened high to 4.2")),
        ((0.2, 0.9, 3), StabilityPoint(0.5, 3.0, 0.08126046902864933,
                                       "widened high to 1.6; widened high to 3; "
                                       "minimum stayed on range boundary")),
    ], ids=["widened-once", "boundary-after-widenings"])
    def test_widening_keeps_its_flags(self, psi0_range, expected):
        point, = scan_stability([0.5], psi0_range, _SMALL, refine_iters=2)
        assert point.flags == expected.flags
        assert point.psi0_opt == pytest.approx(expected.psi0_opt, rel=1e-12)
        assert point.metric_value == pytest.approx(expected.metric_value, rel=1e-9)

    def test_widening_stops_at_its_clamp(self, monkeypatch):
        # the minimum stays at the low end: the first widening reaches the
        # clamp psi0_lo/4, so a second would rescan the same three cells
        cells, evaluate = [], analysis._evaluate

        def counting(template, block):
            cells.extend(block)
            return evaluate(template, block)
        monkeypatch.setattr(analysis, "_evaluate", counting)
        tmpl = ScanTemplate(_SMALL.model, grid_n=16, grid_length=48.0, dt=0.02, t_final=0.2,
                            snapshot_stride=5)
        point, = scan_stability([0.5], (1.0, 3.0, 3), tmpl, refine_iters=1)
        assert point == StabilityPoint(0.5, 0.25, 0.0, "widened low to 0.25; "
                                       "minimum stayed on range boundary")
        assert [psi0 for _, psi0 in cells] == [1.0, 2.0, 3.0, 0.25, 1.625, 3.0]

    def test_divergent_cells_are_skipped_and_counted(self):
        search = analysis._search(0.5, 1.0, 3.0, 5, refine_iters=0)
        assert next(search) == [1.0, 1.5, 2.0, 2.5, 3.0]
        golden = search.send([math.inf, 0.4, 0.2, 0.3, math.inf])
        assert len(golden) == 2 and all(1.5 < p < 2.5 for p in golden)
        with pytest.raises(StopIteration) as done:
            search.send([0.25, 0.35])
        assert done.value.value == StabilityPoint(0.5, 2.0, 0.2, "2 divergent cells skipped")

    def test_all_cells_diverged(self):
        # lambda=10 at dt=0.012 leaves the rotation guard on, and every sech
        # tail (rate near 50) trips it on the first step
        tmpl = ScanTemplate(ModelSpec(Family.BESSEL_NLS, lam=10.0, omega=1.0), grid_n=64,
                            grid_length=48.0, t_final=0.24, dt=0.012, snapshot_stride=5)
        points = scan_stability([0.5, 0.3], (1.0, 3.0, 3), tmpl, refine_iters=2)
        assert [p.flags for p in points] == ["all cells diverged"] * 2
        assert all(np.isnan(p.psi0_opt) and p.metric_value == np.inf for p in points)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(DomainError, match="jobs"):
            scan_stability([0.5], (1.0, 3.0, 5), _SMALL, jobs=jobs)

    def test_negative_refine_iters_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(analysis, "propagate_batch", None)  # a call would fail
        with pytest.raises(DomainError, match="refine_iters"):
            scan_stability([0.5], (1.0, 3.0, 5), _SMALL, refine_iters=-1)


# A scan on it takes milliseconds.
_TINY = ScanTemplate(_SMALL.model, grid_n=16, grid_length=48.0, dt=0.02, t_final=0.2,
                     snapshot_stride=5)
# name -> (a call taking the value, an integer it accepts)
_INTEGER_PARAMETERS = {
    "grid size n": (lambda v: Grid1D(v, 10.0), 16),
    "snapshot_stride": (lambda v: RunConfig(_SMALL.model, snapshot_stride=v), 2),
    "supergaussian order": (lambda v: supergaussian_profile(Grid1D(16, 10.0), order=v), 2),
    "psi0_samples": (lambda v: scan_stability([0.5], (1.0, 3.0, v), _TINY, refine_iters=0), 4),
    "refine_iters": (lambda v: scan_stability([0.5], (1.0, 3.0, 3), _TINY, refine_iters=v), 1),
    "jobs": (lambda v: scan_stability([0.5], (1.0, 3.0, 3), _TINY, jobs=v, refine_iters=0), 1),
}


@pytest.mark.parametrize("name", list(_INTEGER_PARAMETERS))
def test_integer_parameters_are_refused_not_truncated(name):
    make, good = _INTEGER_PARAMETERS[name]
    for bad in (good + 0.7, float(good)):
        message = f"{name} must be an integer, got {bad!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            make(bad)
    make(np.int64(good))  # a numpy integer is one


@pytest.mark.parametrize("min_separation", [float("nan"), float("inf"), 0.0, -3.0])
def test_bad_min_separation_rejected(min_separation):
    g = Grid1D(64, 20.0)
    traj = synthetic_traj(g, [np.exp(-g.x ** 2)])
    with pytest.raises(DomainError, match="min_separation"):
        find_peaks(traj.snapshots[0], threshold=0.5, min_separation=min_separation)
    with pytest.raises(DomainError, match="min_separation"):
        peak_table(traj, min_separation=min_separation)
