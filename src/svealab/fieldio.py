"""On-disk artifact formats: field snapshots, run diagnostics, scan results.

Snapshot binary layout, little-endian throughout: magic "SVEA1", grid size
as unsigned 64-bit, domain length and snapshot time as IEEE-754 doubles,
then the field as n interleaved (re, im) double pairs.

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
from typing import Sequence, Union

import numpy as np

from .analysis import Peak, StabilityPoint, stable_line_prediction
from .errors import DomainError
from .solver import FieldState, Grid1D, Trajectory

__all__ = [
    "SNAPSHOT_MAGIC",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_snapshot",
    "read_snapshot",
    "write_mass_csv",
    "write_track_csv",
    "write_scan_csv",
    "write_trajectory",
]

SNAPSHOT_MAGIC = b"SVEA1"

PathLike = Union[str, Path]


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
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
    header = SNAPSHOT_MAGIC + struct.pack(
        "<Qdd", state.grid.n, state.grid.length, state.time)
    payload = np.ascontiguousarray(state.values, dtype="<c16").view("<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def read_snapshot(path: PathLike) -> FieldState:
    raw = Path(path).read_bytes()
    if raw[:5] != SNAPSHOT_MAGIC:
        raise DomainError(f"{path}: not a field snapshot (bad magic)")
    if len(raw) < 29:
        raise DomainError(f"{path}: truncated header ({len(raw)} of 29 bytes)")
    n, length, time = struct.unpack("<Qdd", raw[5:29])
    values = np.frombuffer(raw[29:], dtype="<f8")
    if values.size != 2 * n:
        raise DomainError(f"{path}: payload holds {values.size//2} points, header says {n}")
    return FieldState(Grid1D(int(n), float(length)), values.view("<c16").copy(), float(time))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_mass_csv(path: PathLike, traj: Trajectory, dt: float) -> None:
    """Snapshot-aligned diagnostics: step index, time, mass, peak |psi|^2."""
    lines = ["step,time,mass,peak"]
    t0 = traj.snapshots[0].time
    for state, peak in zip(traj.snapshots, traj.peak_series):
        step = int(round((state.time - t0) / dt))
        mass_val = traj.mass_series[min(step, len(traj.mass_series) - 1)]
        lines.append(f"{step},{_fmt(state.time)},{_fmt(mass_val)},{_fmt(peak)}")
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


def write_trajectory(out_dir: PathLike, traj: Trajectory, dt: float) -> list[Path]:
    """Write every snapshot plus diagnostics CSV and a manifest; returns paths."""
    out = Path(out_dir)
    names = [f"snapshot_{i:05d}.svea" for i in range(len(traj.snapshots))]
    for name, state in zip(names, traj.snapshots):
        write_snapshot(out / name, state)
    write_mass_csv(out / "diagnostics.csv", traj, dt)
    manifest = ["snapshots:"] + [f"  {name}  t={_fmt(state.time)}"
                                 for name, state in zip(names, traj.snapshots)]
    manifest.append("diagnostics: diagnostics.csv")
    atomic_write_text(out / "trajectory.txt", "\n".join(manifest) + "\n")
    return [out / name for name in names + ["diagnostics.csv", "trajectory.txt"]]
