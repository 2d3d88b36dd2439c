"""On-disk artifact formats: field snapshots, run diagnostics, scan results.

Snapshot binary layout, little-endian throughout: magic "SVEA1", grid size
as unsigned 64-bit, domain length and snapshot time as IEEE-754 doubles,
then the field as n interleaved (re, im) double pairs.  A run directory
holds one snapshot file per snapshot and diagnostics.csv, one row per
snapshot in file order; the headers hold the times, so nothing lists them
again.  SnapshotStream is the hand-off of a streamed run: it numbers the
snapshots it receives in order and writes them out STREAM_BURST at a time,
so a run holds at most that many fields, and reads them back one at a time
afterwards.  write_trajectory writes a held trajectory through it.

All writers go through an atomic temp-file + rename so a crashed run never
leaves a half-written artifact; atomic_write_bytes makes the parent directory,
so an output directory appears with its first artifact.  Floats in CSVs are
rendered with repr, which round-trips exactly: identical inputs give
byte-identical files.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path
from typing import Iterator, Sequence, Union

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
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_mass_csv(path: PathLike, traj: Trajectory, dt: float) -> None:
    """Snapshot-aligned diagnostics: step index, time, mass, peak |psi|^2."""
    lines = ["step,time,mass,peak"]
    t0 = traj.times[0]
    for time, peak in zip(traj.times, traj.peak_series):
        step = int(round((time - t0) / dt))
        mass_val = traj.mass_series[min(step, len(traj.mass_series) - 1)]
        lines.append(f"{step},{_fmt(time)},{_fmt(mass_val)},{_fmt(peak)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_track_csv(path: PathLike, tracks: Sequence[Sequence[Peak]]) -> None:
    lines = ["time,peak_index,x,height"]
    rows = []
    for ti, track in enumerate(tracks):
        for p in track:
            rows.append((p.snapshot_time, ti, p.position, p.height))
    for t, ti, x, h in sorted(rows):
        lines.append(f"{_fmt(t)},{ti},{_fmt(x)},{_fmt(h)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_scan_csv(path: PathLike, points: Sequence[StabilityPoint]) -> None:
    lines = ["alpha,psi0_opt,metric,predicted_psi0,flags"]
    for p in points:
        predicted, _ = stable_line_prediction(p.alpha)
        flags = p.flags.replace(",", ";")
        lines.append(
            f"{_fmt(p.alpha)},{_fmt(p.psi0_opt)},{_fmt(p.metric_value)},"
            f"{_fmt(predicted)},{flags}")
    atomic_write_text(path, "\n".join(lines) + "\n")


class SnapshotStream:
    """snapshot_NNNNN.svea under out_dir for each state received, numbered
    from 0 in order.  Received states wait until STREAM_BURST of them are
    pending, then go out together; flush() writes what is pending."""

    def __init__(self, out_dir: PathLike):
        self.out = os.fspath(out_dir)
        self.count = 0  # states received
        self._pending: list[FieldState] = []

    def _path(self, i: int) -> str:
        return os.path.join(self.out, f"snapshot_{i:05d}.svea")

    def __call__(self, state: FieldState) -> None:
        self._pending.append(state)
        self.count += 1
        if len(self._pending) == STREAM_BURST:
            self.flush()

    def flush(self) -> None:
        first = self.count - len(self._pending)
        for i, state in enumerate(self._pending, first):
            write_snapshot(self._path(i), state)
        self._pending.clear()

    def read_back(self) -> Iterator[FieldState]:
        """Every snapshot received, flushed and read back in order, one at a time."""
        self.flush()
        return (read_snapshot(self._path(i)) for i in range(self.count))


def write_trajectory(out_dir: PathLike, traj: Trajectory, dt: float) -> None:
    """Write snapshot_NNNNN.svea per snapshot held and diagnostics.csv, whose
    rows follow the snapshots in file order.  A streamed trajectory holds no
    snapshots; its SnapshotStream has written them."""
    stream = SnapshotStream(out_dir)
    for state in traj.snapshots:
        stream(state)
    stream.flush()
    write_mass_csv(os.path.join(stream.out, "diagnostics.csv"), traj, dt)
