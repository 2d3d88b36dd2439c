"""Binary snapshot format and CSV artifacts."""

import os
import re
import stat

import numpy as np
import pytest

from svealab.analysis import Peak, StabilityPoint
from svealab.errors import DomainError
from svealab.fieldio import (SNAPSHOT_MAGIC, STREAM_BURST, SnapshotStream, atomic_write_bytes,
                             read_snapshot, write_scan_csv, write_snapshot, write_track_csv,
                             write_trajectory)
from svealab.models import Family, ModelSpec
from svealab.solver import FieldState, Grid1D, RunConfig, propagate, sech_profile


_SHORT_RUN = (sech_profile(Grid1D(64, 20.0), 2.0),
              RunConfig(ModelSpec(Family.CUBIC_NLS, lam=1.0, omega=1.0),
                        dt=1e-3, t_final=0.05, snapshot_stride=25))


@pytest.fixture(scope="module")
def short_traj():
    return propagate(*_SHORT_RUN)


def _streamed_run(out_dir):
    """The short run streamed into out_dir, as the run command writes it."""
    stream = SnapshotStream(out_dir)
    traj = propagate(*_SHORT_RUN, stream)
    write_trajectory(out_dir, traj, dt=1e-3)
    stream.flush()
    return traj


class TestSnapshotFormat:
    def test_roundtrip_is_bitwise(self, tmp_path, short_traj):
        state = short_traj.final
        p = tmp_path / "f.svea"
        write_snapshot(p, state)
        back = read_snapshot(p)
        assert back.values.tobytes() == state.values.tobytes()
        assert not back.values.flags.writeable
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
        text = f"truncated header ({size} of 29 bytes)"
        with pytest.raises(DomainError, match=re.escape(text)):
            read_snapshot(p)

    def test_magic_constant(self):
        assert SNAPSHOT_MAGIC == b"SVEA1"


class TestCsvWriters:
    def test_mass_csv_deterministic(self, tmp_path, short_traj):
        write_trajectory(tmp_path / "a", short_traj, dt=1e-3)
        write_trajectory(tmp_path / "b", short_traj, dt=1e-3)
        a, b = (tmp_path / d / "diagnostics.csv" for d in "ab")
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "step,time,mass,peak"
        # one row per snapshot, not per step, and write_trajectory writes only it
        assert len(lines) == 1 + len(short_traj.snapshots)
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["diagnostics.csv"]

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
    def test_first_write_makes_the_directory(self, tmp_path):
        target = tmp_path / "a" / "b" / "data.bin"
        atomic_write_bytes(target, b"svea")
        assert target.read_bytes() == b"svea"
        assert sorted(p.name for p in target.parent.iterdir()) == ["data.bin"]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"svea")
        assert target.is_dir() and not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_each_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        # a streamed run writes snapshots, its diagnostics and its directory
        old = os.umask(umask)
        try:
            _streamed_run(tmp_path / "out")
        finally:
            os.umask(old)
        files = sorted((tmp_path / "out").iterdir())
        assert len(files) > 1 and not list(tmp_path.rglob("*.tmp"))
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in files} == \
            {p.name: mode for p in files}

    def test_directory_contents(self, tmp_path, short_traj):
        _streamed_run(tmp_path / "out")
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        snaps = [f"snapshot_{i:05d}.svea" for i in range(len(short_traj.snapshots))]
        assert names == ["diagnostics.csv"] + snaps
        # one diagnostics row per snapshot, in file order
        rows = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [s.time for s in short_traj.snapshots]

    def test_snapshots_reload_in_order(self, tmp_path, short_traj):
        _streamed_run(tmp_path / "out")
        times = [read_snapshot(p).time
                 for p in sorted((tmp_path / "out").glob("*.svea"))]
        assert times == [s.time for s in short_traj.snapshots]


class TestSnapshotStream:
    def _states(self, count):
        grid = Grid1D(16, 4.0)
        return [FieldState(grid, np.full(16, complex(i, -i)), 0.5 * i) for i in range(count)]

    def test_writes_in_bursts_and_on_flush(self, tmp_path):
        stream = SnapshotStream(tmp_path / "out")
        states = self._states(STREAM_BURST + 3)
        for state in states[:STREAM_BURST - 1]:
            stream.append(state)
        assert not (tmp_path / "out").exists()  # nothing written before the first burst
        stream.append(states[STREAM_BURST - 1])
        assert len(list((tmp_path / "out").glob("*.svea"))) == STREAM_BURST
        for state in states[STREAM_BURST:]:
            stream.append(state)
        assert len(list((tmp_path / "out").glob("*.svea"))) == STREAM_BURST
        assert len(stream) == len(states)  # the pending three count too
        stream.flush()
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == [f"snapshot_{i:05d}.svea" for i in range(len(states))]
        assert len(stream) == len(states)

    def test_read_back_is_bitwise_and_in_order(self, tmp_path):
        stream = SnapshotStream(tmp_path)
        states = self._states(STREAM_BURST + 5)
        for state in states:
            stream.append(state)
        back = list(stream)  # the first read flushes the pending five
        assert [s.time for s in back] == [s.time for s in states]
        assert [s.values.tobytes() for s in back] == [s.values.tobytes() for s in states]

    @pytest.mark.parametrize("index, expected", [(0, 0), (-1, 5), (3, 3), (-6, 0)])
    def test_indexing_flushes_then_reads_the_file(self, tmp_path, index, expected):
        stream = SnapshotStream(tmp_path / "out")
        states = self._states(6)
        for state in states:
            stream.append(state)
        assert not (tmp_path / "out").exists()  # all six pending
        got = stream[index]
        assert len(list((tmp_path / "out").glob("*.svea"))) == 6
        assert got.time == states[expected].time
        assert got.values.tobytes() == states[expected].values.tobytes()

    @pytest.mark.parametrize("index", [6, -7, 100])
    def test_index_out_of_range_is_an_index_error(self, tmp_path, index):
        stream = SnapshotStream(tmp_path)
        for state in self._states(6):
            stream.append(state)
        with pytest.raises(IndexError):
            stream[index]
        with pytest.raises(IndexError):
            SnapshotStream(tmp_path / "empty")[0]

    def test_write_trajectory_files_match_a_stream_of_its_snapshots(self, tmp_path,
                                                                     short_traj):
        # a held run written through a stream, against the streamed run itself
        write_trajectory(tmp_path / "held", short_traj, dt=1e-3)
        stream = SnapshotStream(tmp_path / "held")
        for state in short_traj.snapshots:
            stream.append(state)
        stream.flush()
        streamed = _streamed_run(tmp_path / "streamed")
        assert isinstance(streamed.snapshots, SnapshotStream)
        assert len(streamed.snapshots) == len(streamed.times) == len(short_traj.snapshots)
        names = sorted(p.name for p in (tmp_path / "held").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "streamed").iterdir())
        for name in names:
            assert (tmp_path / "held" / name).read_bytes() == \
                (tmp_path / "streamed" / name).read_bytes(), name
