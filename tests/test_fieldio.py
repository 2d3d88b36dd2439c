"""Binary snapshot format and CSV artifacts."""

import numpy as np
import pytest

from svealab.analysis import Peak, StabilityPoint
from svealab.errors import DomainError
from svealab.fieldio import (SNAPSHOT_MAGIC, read_snapshot, write_mass_csv,
                             write_scan_csv, write_snapshot, write_track_csv,
                             write_trajectory)
from svealab.models import Family, ModelSpec
from svealab.solver import Grid1D, RunConfig, propagate, sech_profile


@pytest.fixture(scope="module")
def short_traj():
    model = ModelSpec(Family.CUBIC_NLS, lam=1.0, omega=1.0)
    grid = Grid1D(64, 20.0)
    return propagate(sech_profile(grid, 2.0),
                     RunConfig(model, dt=1e-3, t_final=0.05, snapshot_stride=25))


class TestSnapshotFormat:
    def test_roundtrip_is_bitwise(self, tmp_path, short_traj):
        state = short_traj.final
        p = tmp_path / "f.svea"
        write_snapshot(p, state)
        back = read_snapshot(p)
        assert np.array_equal(back.values, state.values)
        assert back.grid.n == state.grid.n
        assert back.grid.length == state.grid.length
        assert back.time == state.time

    def test_magic_guard(self, tmp_path):
        p = tmp_path / "bad.svea"
        p.write_bytes(b"XXXX1" + b"\x00" * 64)
        with pytest.raises(DomainError):
            read_snapshot(p)

    def test_truncated_payload_rejected(self, tmp_path, short_traj):
        p = tmp_path / "cut.svea"
        write_snapshot(p, short_traj.final)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DomainError):
            read_snapshot(p)

    @pytest.mark.parametrize("size", [5, 12, 28])
    def test_truncated_header_rejected(self, tmp_path, size):
        p = tmp_path / "stub.svea"
        p.write_bytes((SNAPSHOT_MAGIC + b"\x00" * 64)[:size])
        with pytest.raises(DomainError, match="truncated header"):
            read_snapshot(p)

    def test_magic_constant(self):
        assert SNAPSHOT_MAGIC == b"SVEA1"


class TestCsvWriters:
    def test_mass_csv_deterministic(self, tmp_path, short_traj):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_mass_csv(a, short_traj, dt=1e-3)
        write_mass_csv(b, short_traj, dt=1e-3)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "step,time,mass,peak"
        # one row per snapshot, not per step
        assert len(lines) == 1 + len(short_traj.snapshots)

    def test_track_csv_layout(self, tmp_path):
        tracks = [[Peak(0.0, 4.0, 0.0), Peak(0.1, 4.1, 1.0)],
                  [Peak(5.0, 2.0, 0.0)]]
        p = tmp_path / "tracks.csv"
        write_track_csv(p, tracks)
        lines = p.read_text().splitlines()
        assert lines[0] == "time,peak_index,x,height"
        assert len(lines) == 4

    def test_scan_csv_includes_prediction(self, tmp_path):
        p = tmp_path / "scan.csv"
        write_scan_csv(p, [StabilityPoint(0.1, 0.41, 0.003)])
        rows = p.read_text().splitlines()
        assert rows[0] == "alpha,psi0_opt,metric,predicted_psi0,flags"
        fields = rows[1].split(",")
        assert float(fields[3]) == pytest.approx(0.4)


class TestTrajectoryBundle:
    def test_directory_contents(self, tmp_path, short_traj):
        written = write_trajectory(tmp_path / "out", short_traj, dt=1e-3)
        names = sorted(p.name for p in written)
        snap_names = [n for n in names if n.endswith(".svea")]
        assert len(snap_names) == len(short_traj.snapshots)
        assert "diagnostics.csv" in names
        assert "trajectory.txt" in names
        listing = (tmp_path / "out" / "trajectory.txt").read_text()
        for n in snap_names:
            assert n in listing

    def test_snapshots_reload_in_order(self, tmp_path, short_traj):
        write_trajectory(tmp_path / "out", short_traj, dt=1e-3)
        times = [read_snapshot(p).time
                 for p in sorted((tmp_path / "out").glob("*.svea"))]
        assert times == list(short_traj.times)
