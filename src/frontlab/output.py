"""File emission: CSV tables and JSON records.

Every float is written with 17 significant digits so round-tripping the
text reproduces the exact double; writes go to a temp file in the target
directory followed by an atomic rename, so no emitted file is ever
partially written.  The JSON serializer is local because the stdlib
encoder offers no control over float formatting; NaN/inf (invalid JSON)
map to null.
"""

from __future__ import annotations

import json
import math
import os

from .classify import PhaseTable
from .solver import TRAJECTORY_COLUMNS, Snapshot, Trajectory


def fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _json_fragment(value, indent: int, out: list) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(fmt_float(value) if math.isfinite(value) else "null")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (list, tuple, dict)):
        if isinstance(value, dict):
            brackets, entries = "{}", ((json.dumps(str(key)) + ": ", item) for key, item in value.items())
        else:
            brackets, entries = "[]", (("", item) for item in value)
        if not value:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for i, (prefix, item) in enumerate(entries):
            out.append(pad + "  " + prefix)
            _json_fragment(item, indent + 1, out)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + brackets[1])
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def dumps_json(value) -> str:
    out: list = []
    _json_fragment(value, 0, out)
    out.append("\n")
    return "".join(out)


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
