"""On-disk artifact formats: field snapshots, run diagnostics, scan results.

Snapshot binary layout, little-endian throughout: magic "SVEA1", grid size
as unsigned 64-bit, domain length and snapshot time as IEEE-754 doubles,
then the field as n interleaved (re, im) double pairs.  A run directory
holds one snapshot file per snapshot and diagnostics.csv, one row per
snapshot in file order; the headers hold the times, so nothing lists them
again.  SnapshotStream is the snapshot sequence of a streamed run: it
numbers the snapshots appended to it in order and writes them out
STREAM_BURST at a time, so a run holds at most that many fields, and reads
each back from disk when indexed.

All writers go through an atomic temp-file + rename so a crashed run never
leaves a half-written artifact; atomic_write_bytes makes the parent directory,
so an output directory appears with its first artifact, and each file's mode
follows the umask.  Floats in CSVs are rendered with repr, which round-trips
exactly: identical inputs give byte-identical files.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .analysis import Peak, StabilityPoint, stable_line_prediction
from .errors import DomainError
from .solver import FieldState, Grid1D, Trajectory

SNAPSHOT_MAGIC = b"SVEA1"
_HEADER = struct.Struct("<Qdd")

PathLike = Union[str, Path]

# Snapshots a SnapshotStream holds before it writes them out in one burst:
# 512 KB of fields at n = 2048.  On run case1, writing each snapshot as it
# came cost about 4% of the pass time and bursts of 4 about 2%; bursts of
# 16, 32 and 64 timed alike, and each doubling held about 0.5 MB more.
STREAM_BURST = 16


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    # str paths throughout: a pathlib.Path interns each of its parts, so one
    # Path per snapshot file grows the interpreter's interned-string table
    parent, name = os.path.split(os.fspath(path))
    parent = parent or "."
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f"{name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")  # mode 0o666 less the umask, where mkstemp's would be 0o600
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_snapshot(path: PathLike, state: FieldState) -> None:
    header = SNAPSHOT_MAGIC + _HEADER.pack(state.grid.n, state.grid.length, state.time)
    payload = np.ascontiguousarray(state.values, dtype="<c16").view("<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def read_snapshot(path: PathLike) -> FieldState:
    """The state a snapshot file holds, on the grid its header names."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(SNAPSHOT_MAGIC)
    end = start + _HEADER.size
    if raw[:start] != SNAPSHOT_MAGIC:
        raise DomainError(f"{path}: not a field snapshot (bad magic)")
    if len(raw) < end:
        raise DomainError(f"{path}: truncated header ({len(raw)} of {end} bytes)")
    n, length, time = _HEADER.unpack(raw[start:end])
    values = np.frombuffer(raw[end:], dtype="<f8")
    if values.size != 2 * n:
        raise DomainError(f"{path}: payload holds {values.size//2} points, header says {n}")
    grid = Grid1D(n, length)
    return FieldState(grid, values.view("<c16"), float(time))  # FieldState copies


def _write_csv(path: PathLike, header: str, rows: Iterable[Sequence]) -> None:
    """The header line, then one line per row: a float cell by repr, any
    other cell by str."""
    lines = [header, *(",".join(repr(float(c)) if isinstance(c, float) else str(c)
                                for c in row) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_track_csv(path: PathLike, tracks: Sequence[Sequence[Peak]]) -> None:
    _write_csv(path, "time,peak_index,x,height",
               sorted((p.snapshot_time, ti, p.position, p.height)
                      for ti, track in enumerate(tracks) for p in track))


def write_scan_csv(path: PathLike, points: Sequence[StabilityPoint]) -> None:
    _write_csv(path, "alpha,psi0_opt,metric,predicted_psi0,flags",
               ((p.alpha, p.psi0_opt, p.metric_value, stable_line_prediction(p.alpha)[0],
                 p.flags.replace(",", ";")) for p in points))


class SnapshotStream:
    """A sequence of snapshots on disk: snapshot_NNNNN.svea under out_dir for
    each state appended, numbered from 0 in order.  Appended states wait until
    STREAM_BURST of them are pending, then go out together; flush() writes
    what is pending.  Indexing flushes, then reads the file back."""

    def __init__(self, out_dir: PathLike):
        self.out = os.fspath(out_dir)
        self._count = 0  # states appended
        self._pending: list[FieldState] = []

    def _path(self, i: int) -> str:
        return os.path.join(self.out, f"snapshot_{i:05d}.svea")

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> FieldState:
        self.flush()
        return read_snapshot(self._path(range(self._count)[i]))  # IndexError past the end

    def append(self, state: FieldState) -> None:
        self._pending.append(state)
        self._count += 1
        if len(self._pending) == STREAM_BURST:
            self.flush()

    def flush(self) -> None:
        first = self._count - len(self._pending)
        for i, state in enumerate(self._pending, first):
            write_snapshot(self._path(i), state)
        self._pending.clear()


def write_trajectory(out_dir: PathLike, traj: Trajectory, dt: float) -> None:
    """diagnostics.csv under out_dir, one row per snapshot in file order: step
    index, then the snapshot's time, mass and peak |psi|^2 from the
    trajectory's series.  The snapshot files are a SnapshotStream's."""
    t0 = traj.times[0]
    _write_csv(os.path.join(out_dir, "diagnostics.csv"), "step,time,mass,peak",
               ((int(round((time - t0) / dt)), time, mass, peak)
                for time, mass, peak in zip(traj.times, traj.mass_series, traj.peak_series)))
