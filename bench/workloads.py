"""Workload inputs, CLI operations and output checks for the frontlab benchmark.

A workload is a list of operations.  Each operation is one call of
``frontlab.cli.main(argv)`` plus a check that reads what the call wrote.
Inputs are config files and arguments generated from the workload seed: seed 0 is the
unperturbed acceptance setup whose outputs are recorded in
``reference.json``; any other seed perturbs amplitudes and h0 (theta0 and
a for the eigen workload) inside a band that keeps each workload's regime
and verdict table.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# relative tolerance when a numeric output is compared with the reference
REF_RTOL = 1e-6
# the sweep's worker count; the benchmark budgets BLAS threads against it
SWEEP_WORKERS = 2


@dataclass
class CheckResult:
    """Outcome of one operation.

    attempted/failed count units (a sweep call counts one per cell).
    labels are compared exactly with the reference at every seed, values
    within REF_RTOL at the default seed; info is only reported in out_dev.
    """

    attempted: int
    failed: int = 0
    labels: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, msg: str, units: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.problems.append(msg)

    def judge(self, ref: dict, default_seed: bool) -> float | None:
        """Compare with the reference; returns out_dev at the default seed."""
        for key, label in self.labels.items():
            if label != ref["labels"][key]:
                self.fail(f"{key}={label!r} differs from reference {ref['labels'][key]!r}")
        if not default_seed:
            return None
        dev = 0.0
        for key, value in self.values.items():
            want = ref["values"][key]
            dev = max(dev, abs(value - want))
            if not math.isclose(value, want, rel_tol=REF_RTOL):
                self.fail(f"{key}={value!r} differs from reference {want!r}")
        for key, value in self.info.items():
            dev = max(dev, abs(value - ref["info"][key]))
        return dev


@dataclass
class Op:
    """One CLI call: argv without --out-dir, the number of units it counts
    for (a sweep call counts one per cell), and the output check."""

    name: str
    argv: list
    units: int
    check: Callable  # (out_dir, result: CheckResult) -> None


def _band(rng: random.Random, seed: int, rel: float) -> float:
    """Multiplicative perturbation in [1-rel, 1+rel]; exactly 1 at the default seed."""
    return 1.0 if seed == DEFAULT_SEED else 1.0 + rel * (2.0 * rng.random() - 1.0)


def _write_config(directory: str, name: str, entries: dict) -> str:
    """Write one config file into directory; returns its path."""
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return path


def _fmt(x: float) -> str:
    return repr(float(x))


_BASE_MODEL = {
    "model.d1": 1.0,
    "model.d2": 1.0,
    "model.b": 0.5,
    "model.c": 0.5,
}


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- threshold -------------------------------------------------------------

_KINDS = ("competition", "predation")


def _threshold_ops(seed: int, directory: str) -> list:
    rng = random.Random(seed)
    amp = 1e-3 * _band(rng, seed, 0.02)
    h0 = 0.3 * _band(rng, seed, 0.001)
    ops = []
    for kind in _KINDS:
        cfg = {
            "kernel.family": "tent",
            "model.kind": kind,
            **_BASE_MODEL,
            "model.a": 0.5,
            "model.mu": 0.5,  # ignored by the scan; the schema requires it
            "model.rho": 0.5,
            "init.h0": _fmt(h0),
            "init.amp_u": _fmt(amp),
            "init.amp_v": _fmt(amp),
        }
        path = _write_config(directory, f"threshold_{kind}.cfg", cfg)
        ops.append(Op(kind, ["threshold", "--config", path], 1, _threshold_check(kind)))
    return ops


def _threshold_check(kind: str) -> Callable:
    def check(out_dir: str, res: CheckResult) -> None:
        rec = _read_json(os.path.join(out_dir, "threshold.json"))
        scanned = {float(s): v for s, v in rec["scanned"]}
        lo, hi = float(rec["lower"]), float(rec["upper"])
        if scanned.get(1e-6) != "Vanishing" or scanned.get(1e3) != "Spreading":
            res.fail(f"scale 1e-6 gave {scanned.get(1e-6)}, 1e3 gave {scanned.get(1e3)}")
        if not (0.0 < lo <= hi <= 1.5 * lo):
            res.fail(f"bracket [{lo}, {hi}] is not a refined finite bracket")
        res.values[f"{kind}.lower"] = lo
        res.values[f"{kind}.upper"] = hi

    return check


# --- eigen -----------------------------------------------------------------

_EIGEN_FAMILIES = ("tent", "truncated_gaussian")
# the squaring iteration's own acceptance tolerance, relative to d = 1
_RESIDUAL_MAX = 1e-8


def _eigen_check(family: str, theta0: float) -> Callable:
    def check(out_dir: str, res: CheckResult) -> None:
        rec = _read_json(os.path.join(out_dir, "eigen.json"))
        lam, residual = float(rec["lambda_p"]), float(rec["residual"])
        # on a long habitat lambda_p approaches theta0 (acceptance criterion 01)
        if not abs(lam - theta0) <= 1e-2:
            res.fail(f"lambda_p={lam} not within 1e-2 of theta0={theta0}")
        if not (math.isfinite(residual) and residual <= _RESIDUAL_MAX):
            res.fail(f"residual {residual!r} missing or above {_RESIDUAL_MAX}")
        if rec["n"] != 1601:
            res.fail(f"n={rec['n']}, expected 1601")
        res.values[f"{family}.lambda_p"] = lam

    return check


def _check_critical_length(out_dir: str, res: CheckResult) -> None:
    rec = _read_json(os.path.join(out_dir, "critical_length.json"))
    ell, lam = float(rec["ell_star"]), float(rec["lambda_at_ell_star"])
    lo, hi = rec["bracket"]
    if not (0.0 < ell and lo <= ell <= hi and hi - lo < float(rec["tol"]) and abs(lam) < 1e-6):
        res.fail(f"critical length {ell} with bracket [{lo}, {hi}] and lambda {lam} is not converged")
    res.values["ell_star"] = ell


def _eigen_ops(seed: int, directory: str) -> list:
    """Both commands take their parameters on the command line: no input files."""
    rng = random.Random(seed)
    # theta0 shifts the spectrum only: the squared matrix, and so the cost, is unchanged
    theta0 = 0.5 * _band(rng, seed, 0.1)
    a = 0.05 * _band(rng, seed, 0.1)
    ops = [
        Op(
            family,
            ["eigen", "--d", "1", "--theta0", _fmt(theta0), "--length", "200", "--family", family],
            1,
            _eigen_check(family, theta0),
        )
        for family in _EIGEN_FAMILIES
    ]
    ops.append(
        Op("critical-length", ["critical-length", "--d1", "1", "--a", _fmt(a)], 1,
           _check_critical_length)
    )
    return ops


# --- sweep -----------------------------------------------------------------

SWEEP_CELLS = 12


def _sweep_ops(seed: int, directory: str, workers: int = SWEEP_WORKERS) -> list:
    rng = random.Random(seed)
    amp = 1e-3 * _band(rng, seed, 0.02)
    h0 = 0.2 * _band(rng, seed, 0.001)
    cfg = {
        "kernel.family": "truncated_gaussian",
        "model.kind": "competition",
        **_BASE_MODEL,
        "model.a": 0.5,
        "model.mu": 1.0,  # replaced per cell by sweep.mu
        "model.rho": 1.0,  # replaced per cell by sweep.rho
        "init.h0": _fmt(h0),
        "init.amp_u": _fmt(amp),
        "init.amp_v": _fmt(amp),
        "numerics.n": 200,
        "numerics.horizon": 80.0,
        "numerics.record_every": 5,
        "sweep.kind": "competition, predation",
        "sweep.mu": "5, 1, 0.01",  # costliest cells first, so the pool ends balanced
        "sweep.rho": "1, 50",
    }
    path = _write_config(directory, "sweep.cfg", cfg)
    argv = ["sweep", "--config", path, "--workers", str(workers)]
    return [Op("sweep", argv, SWEEP_CELLS, _check_sweep)]


def _check_sweep(out_dir: str, res: CheckResult) -> None:
    with open(os.path.join(out_dir, "phase_table.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != SWEEP_CELLS:
        res.fail(f"{len(rows)} sweep cells, expected {SWEEP_CELLS}", units=res.attempted)
        return
    for i, row in enumerate(rows):
        res.labels[f"cell{i}"] = [row["kind"], row["mu"], row["rho"], row["verdict"], row["certificate"]]
        # reported in out_dev, not gated: the verdict table is the check
        for col in ("final_length", "lambda_p_final"):
            res.info[f"cell{i}.{col}"] = float(row[col])


# --- registry --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, directory) -> [Op]; writes the config files the operations read into directory
    make_ops: Callable
    processes: int  # processes the workload keeps busy at once
    # in-process variant for the traced layer split when the workload fans out
    make_serial_ops: Callable | None = None


WORKLOADS = {
    "threshold": Workload("threshold", _threshold_ops, 1),
    "eigen": Workload("eigen", _eigen_ops, 1),
    "sweep": Workload(
        "sweep", _sweep_ops, SWEEP_WORKERS, lambda seed, directory: _sweep_ops(seed, directory, workers=1)
    ),
}


def read_reference() -> dict:
    """Recorded outputs per workload: {"labels": ..., "values": ..., "info": ...}."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
