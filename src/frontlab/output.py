"""File emission: CSV tables and JSON records.

JSON records go through the standard encoder: `json` writes a float with
`float.__repr__`, the shortest text that reads back as the same double,
so a record round-trips bit for bit without a local encoder.  NaN and
inf, which are not JSON, are written as null.  CSV cells keep 17
significant digits, so a table's text stays as it was.  Writes go to a
temp file in the target directory followed by an atomic rename, so no
emitted file is ever partially written.
"""

from __future__ import annotations

import json
import math
import os

from .classify import PhaseTable
from .solver import TRAJECTORY_COLUMNS, Snapshot, Trajectory


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _finite(value):
    """value with every NaN and inf inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def dumps_json(value) -> str:
    return json.dumps(_finite(value), indent=2) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:  # no temp file outlives a failed write or rename
        os.remove(tmp)
        raise


def write_json(path: str, value) -> None:
    atomic_write_text(path, dumps_json(value))


def _csv(header, rows) -> str:
    """A CSV table: the header's names, then one line per row, floats to 17 digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_float(val) if isinstance(val, float) else str(val) for val in row))
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    return _csv(TRAJECTORY_COLUMNS, zip(*(getattr(traj, name) for name in TRAJECTORY_COLUMNS)))


def snapshot_csv(snap: Snapshot) -> str:
    return _csv(("x", "u", "v"), zip(snap.x, snap.u, snap.v))


def write_snapshots(outdir: str, traj: Trajectory) -> list:
    """One CSV matrix per stored snapshot; returns one record per file
    written, the only place these file names are made."""
    records = []
    for i, snap in enumerate(traj.snapshots):
        name = f"snapshot_{i:05d}.csv"
        atomic_write_text(os.path.join(outdir, name), snapshot_csv(snap))
        records.append({"index": i, "t": snap.t, "g": snap.g, "h": snap.h, "file": name})
    return records


def phase_csv(table: PhaseTable) -> str:
    return _csv(table.columns, ([row[col] for col in table.columns] for row in table.rows))
