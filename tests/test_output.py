"""Serialization fidelity: 17-digit floats, atomic writes, CSV shapes."""

import json
import math
import os

import numpy as np
import pytest

from frontlab import InitialData, ModelParams, RunControl, make_kernel, run
from frontlab.output import (
    atomic_write_text,
    dumps_json,
    fmt_float,
    phase_csv,
    snapshot_csv,
    trajectory_csv,
    write_json,
    write_snapshots,
)
from frontlab.classify import PHASE_COLUMNS, PhaseTable
from frontlab.solver import TRAJECTORY_COLUMNS


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(7)
    samples = list(rng.uniform(-1e6, 1e6, 64)) + [1e-300, 1e300, 0.1, 2.0 / 3.0, math.pi]
    for val in samples:
        assert float(fmt_float(float(val))) == float(val)


def test_dumps_json_formats():
    text = dumps_json({"a": 0.1, "b": [1, 2.5], "c": None, "flag": True, "s": "x"})
    parsed = json.loads(text)
    assert parsed["a"] == 0.1
    assert parsed["b"] == [1, 2.5]
    assert parsed["c"] is None
    assert parsed["flag"] is True


def test_dumps_json_nonfinite_to_null():
    parsed = json.loads(dumps_json({"bad": float("nan"), "worse": float("inf")}))
    assert parsed["bad"] is None and parsed["worse"] is None


def test_dumps_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_json({"s": {1, 2}})


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_json(tmp_path):
    path = tmp_path / "rec.json"
    write_json(str(path), {"x": 1.5})
    assert json.loads(path.read_text())["x"] == 1.5


def _tiny_trajectory():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.1, rho=0.1)
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    k = make_kernel("tent", 1.0)
    return run(p, init, k, RunControl(horizon=0.3, n=64, dt=0.01, record_every=10, snapshot_every=10))


def test_trajectory_csv_shape_and_fidelity():
    traj = _tiny_trajectory()
    lines = trajectory_csv(traj).strip().split("\n")
    assert lines[0] == "t,g,h,gdot,hdot,sup_u,sup_v,u_center,v_center"
    assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
    assert len(lines) == 1 + len(traj.t)
    assert lines[-1] == ",".join(fmt_float(getattr(traj, name)[-1]) for name in TRAJECTORY_COLUMNS)
    cells = lines[-1].split(",")
    assert float(cells[2]) == float(traj.h[-1])  # exact round-trip
    assert float(cells[5]) == float(traj.sup_u[-1])


def test_snapshot_csv_and_files(tmp_path):
    traj = _tiny_trajectory()
    assert traj.snapshots
    text = snapshot_csv(traj.snapshots[0])
    head, first = text.strip().split("\n")[:2]
    assert head == "x,u,v"
    snap = traj.snapshots[0]
    assert first == f"{fmt_float(snap.x[0])},{fmt_float(snap.u[0])},{fmt_float(snap.v[0])}"
    assert float(first.split(",")[0]) == float(snap.x[0])

    records = write_snapshots(str(tmp_path), traj)
    assert len(records) == len(traj.snapshots)
    assert records[0]["file"] == "snapshot_00000.csv"
    assert (tmp_path / "snapshot_00000.csv").exists()
    assert records[0]["t"] == traj.snapshots[0].t


def test_phase_csv_columns():
    row = {name: float("nan") for name in PHASE_COLUMNS}
    row.update({"kind": "competition", "mu": 0.1, "verdict": "Failed", "certificate": "ValueError"})
    table = PhaseTable(columns=PHASE_COLUMNS, rows=[row])
    lines = phase_csv(table).strip().split("\n")
    assert lines[0] == ",".join(PHASE_COLUMNS)
    assert len(lines) == 2
    assert "Failed" in lines[1]
    # floats to 17 digits, names as they are
    assert lines[1].split(",")[PHASE_COLUMNS.index("mu")] == "0.10000000000000001"
    assert lines[1].split(",")[PHASE_COLUMNS.index("kind")] == "competition"
