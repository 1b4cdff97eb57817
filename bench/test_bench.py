"""Checks of the benchmark itself.

Run from the repository root (about two minutes; it runs each workload
traced twice):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

_SOLVER = {"solver.run", "solver.velocities", "solver.tridiag", "model.reaction",
           "kernels.eval", "kernels.tail_mass"}
_CLI = {"cli.main", "config.load", "output.write_json", "output.atomic_write_text"}
_CLASSIFY = {"classify.classify", "classify.stop_rule", "eigen.lambda_p", "eigen.critical_length"}

EXPECTED_SPANS = {
    "threshold": _SOLVER | _CLI | _CLASSIFY | {"classify.estimate_threshold", "solver.auto_dt"},
    "eigen": {"cli.main", "eigen.lambda_p", "eigen.critical_length", "kernels.eval",
              "output.write_json", "output.atomic_write_text", "output.dumps_json"},
    "sweep": _SOLVER | _CLI | _CLASSIFY | {"classify.sweep", "classify.sweep_cell", "output.phase_csv"},
}

# counts fixed by the inputs, so two traced runs must agree exactly
EXACT = ("solver.steps", "kernels.eval_calls", "kernels.eval_points", "kernels.tail_mass_calls",
         "eigen.lambda_p_calls", "eigen.squarings", "eigen.flops_computed", "classify.scales",
         "classify.stop_rule_calls", "output.bytes")


def _traced_repetition(bench: run.Bench) -> tuple[tracer.Tracer, float]:
    """One traced repetition, in-process; ``--workers 1`` for the sweep, whose
    pool children would keep their spans.  Returns the tracer and the wall time."""
    workload = bench.workload
    ops = bench.ops if workload.make_serial_ops is None else workload.make_serial_ops(bench.seed, bench.work)
    with tracer.Tracer() as tr:
        wall = bench.repetition(ops, tr)
    return tr, wall


def _children_of(spans: list, parent_name: str) -> dict:
    """Total time per span name over the spans whose parent is named parent_name."""
    totals = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == parent_name:
            totals[name] += end - start
    return totals


def _check_split(name: str, tr: tracer.Tracer, wall: float) -> None:
    """The traced split of the workload matches what the code does."""
    metrics = tr.layer_metrics(1)
    if name == "eigen":
        # dense repeated squaring is the workload
        assert metrics["eigen.lambda_p_s"] >= 0.9 * wall, (metrics["eigen.lambda_p_s"], wall)
    elif name == "threshold":
        # per-step overhead: no single layer inside the solver loop dominates it
        in_run = _children_of(tr.spans, "solver.run")
        assert max(in_run.values()) <= 0.5 * metrics["solver.run_s"], dict(in_run)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_fire_and_counts_repeat(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    reference = workloads.read_reference()[name]
    bench = run.Bench(workload, workloads.DEFAULT_SEED, str(tmp_path), reference)
    tr, wall = _traced_repetition(bench)
    first = tr.layer_metrics(1)
    fired = {rec[0] for rec in tr.spans}
    _check_split(name, tr, wall)
    if workload.make_serial_ops is None:
        second = _traced_repetition(bench)[0].layer_metrics(1)
    else:
        # the same split as the benchmark takes it: in a fresh interpreter
        second = bench.serial_split()
    assert bench.failed == 0, bench.problems
    assert bench.out_dev == 0.0
    assert EXPECTED_SPANS[name] <= fired, EXPECTED_SPANS[name] - fired
    assert fired <= tracer.SPAN_NAMES
    assert {key: first[key] for key in EXACT} == {key: second[key] for key in EXACT}


def test_tracer_restores_every_site():
    import frontlab.cli
    from frontlab.kernels import Kernel

    before = (frontlab.cli.main, Kernel.__call__, sys.modules["frontlab.classify"].classify)
    with tracer.Tracer():
        assert frontlab.cli.main is not before[0]
    assert (frontlab.cli.main, Kernel.__call__, sys.modules["frontlab.classify"].classify) == before


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    """With only the benchmark files present, it exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eigen", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
