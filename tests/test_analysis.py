"""Peak detection, structure counting, and the stability scan."""

import numpy as np
import pytest

from svealab.analysis import (ScanTemplate, count_structures, detection_threshold,
                              find_peaks, oscillation_metric, outer_position_blocks,
                              peak_count_series, persistent_structure_count,
                              scan_stability, splitting_alternations,
                              stable_line_prediction, track_structures)
from svealab.errors import DomainError
from svealab.models import Family, ModelSpec
from svealab.solver import (FieldState, Grid1D, RunConfig, Trajectory, propagate,
                            sech_profile, uniform_profile)


def make_state(grid, values):
    return FieldState(grid, np.asarray(values, dtype=complex), 0.0)


def synthetic_traj(grid, frames, dt=1.0):
    snaps = tuple(FieldState(grid, np.asarray(v, dtype=complex), i * dt)
                  for i, v in enumerate(frames))
    masses = np.array([np.sum(np.abs(s.values) ** 2) * grid.spacing for s in snaps])
    peaks = np.array([np.max(np.abs(s.values) ** 2) for s in snaps])
    return Trajectory(snapshots=snaps, mass_series=masses, peak_series=peaks)


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

    def test_threshold_must_be_positive(self):
        g = Grid1D(64, 20.0)
        with pytest.raises(DomainError):
            find_peaks(make_state(g, np.ones(64)), threshold=0.0)


class TestStructureCounting:
    def test_modal_count_over_trailing_window(self):
        g = Grid1D(512, 60.0)
        three = 1 / np.cosh(g.x) + 1 / np.cosh(g.x - 10) + 1 / np.cosh(g.x + 10)
        two = 1 / np.cosh(g.x - 5) + 1 / np.cosh(g.x + 5)
        # trailing 25% of 8 frames = 2 frames, both with three humps
        traj = synthetic_traj(g, [two] * 6 + [three] * 2)
        assert count_structures(traj, threshold=0.3, min_separation=2.0) == 3

    def test_tie_prefers_smaller_count(self):
        g = Grid1D(512, 60.0)
        one = 1 / np.cosh(g.x)
        two = 1 / np.cosh(g.x - 8) + 1 / np.cosh(g.x + 8)
        traj = synthetic_traj(g, [one, two, one, two])
        n = count_structures(traj, threshold=0.3, min_separation=2.0, window=1.0)
        assert n == 1

    def test_peak_count_series_shape(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [1 / np.cosh(g.x)] * 3)
        series = peak_count_series(traj, threshold=0.3)
        assert [t for t, _ in series] == pytest.approx([0.0, 1.0, 2.0])
        assert [c for _, c in series] == [1, 1, 1]


class TestAlternations:
    def test_counts_regime_flips(self):
        assert splitting_alternations([3, 1, 4, 2, 5]) == 4

    def test_intermediate_counts_do_not_flip(self):
        assert splitting_alternations([3, 2]) == 1
        # a count between the bounds extends whatever regime is current
        assert splitting_alternations([4, 3, 2, 3, 4]) == 2
        assert splitting_alternations([1, 1, 2]) == 0

    def test_custom_bounds(self):
        assert splitting_alternations([5, 2, 5], split_at=5, merged_at=2) == 2

    def test_bad_bounds_rejected(self):
        with pytest.raises(DomainError):
            splitting_alternations([1, 2], split_at=2, merged_at=2)

    def test_composes_with_count_series(self):
        g = Grid1D(512, 60.0)
        three = 1 / np.cosh(g.x) + 1 / np.cosh(g.x - 10) + 1 / np.cosh(g.x + 10)
        one = 1 / np.cosh(g.x)
        traj = synthetic_traj(g, [three, one, three, one])
        counts = [c for _, c in peak_count_series(traj, threshold=0.3,
                                                  min_separation=2.0)]
        assert splitting_alternations(counts) == 3


class TestOscillationMetric:
    def test_steady_peak_scores_zero(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [1 / np.cosh(g.x)] * 5)
        assert oscillation_metric(traj) == pytest.approx(0.0, abs=1e-15)

    def test_breathing_peak_scores_swing_over_mean(self):
        g = Grid1D(256, 40.0)
        frames = [a / np.cosh(g.x) for a in (1.0, 1.1, 0.9, 1.0, 1.1, 0.9, 1.0, 1.1)]
        # trailing half: intensities 1.21, 0.81, 1.0, 1.21
        traj = synthetic_traj(g, frames)
        m = oscillation_metric(traj, window=0.5)
        swing = (1.21 - 0.81) / np.mean([1.21, 0.81, 1.0, 1.21])
        assert m == pytest.approx(swing, rel=1e-10)


class TestOuterBlocks:
    def test_receding_pair_gives_increasing_blocks(self):
        g = Grid1D(512, 120.0)
        frames = []
        for i in range(16):
            d = 10.0 + 0.5 * i
            frames.append(1.2 / np.cosh(g.x)
                          + 1 / np.cosh(g.x - d) + 1 / np.cosh(g.x + d))
        traj = synthetic_traj(g, frames)
        blocks = outer_position_blocks(traj, window=1.0, threshold=0.3,
                                       min_separation=2.0, n_blocks=4)
        assert len(blocks) == 4
        assert np.all(np.diff(blocks) > 0)
        # the standing hump at the origin must not drag the average down
        assert blocks[0] > 9.0

    def test_needs_at_least_two_blocks(self):
        g = Grid1D(256, 40.0)
        traj = synthetic_traj(g, [1 / np.cosh(g.x - 8) + 1 / np.cosh(g.x + 8)] * 4)
        with pytest.raises(DomainError):
            outer_position_blocks(traj, threshold=0.3, n_blocks=1)


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
        tracks = track_structures(traj, window=1.0, threshold=0.3, min_separation=2.0)
        lifetimes = sorted(len(t) for t in tracks)
        assert lifetimes[-1] == 10
        # the blip lives for one snapshot out of ten, well under persistence
        n = persistent_structure_count(traj, window=1.0, threshold=0.3,
                                       min_separation=2.0)
        assert n == 2


class TestStabilityScan:
    def test_predicted_line(self):
        amp, k = stable_line_prediction(0.1)
        assert amp == pytest.approx(0.4)
        assert k == pytest.approx(-0.495)

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
