"""Outside-in tracer: wraps frontlab's public functions where they are looked up.

Each wrapper records a span (name, start, end, parent, run id) in memory
and, at some boundaries, a count taken from the arguments or the result.
Nothing in the package is edited, and leaving the context puts every original back.
Modules are reached through ``sys.modules`` because ``frontlab.classify`` on
the package is the re-exported function, not the module.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import defaultdict
from time import perf_counter


def _eval_points(counts, args, result):
    counts["kernels.eval_points"] += getattr(args[1], "size", 1)


def _squarings(counts, args, result):
    n = args[0].n
    counts["eigen.squarings"] += result.iterations
    counts["eigen.flops_computed"] += result.iterations * 2.0 * n**3


def _scales(counts, args, result):
    counts["classify.scales"] += len(result.scanned)


def _bytes(counts, args, result):
    counts["output.bytes"] += len(args[1].encode("utf-8"))


# (module, attribute, span name, counter); one wrapper per lookup site
SITES = (
    ("frontlab.cli", "main", "cli.main", None),
    ("frontlab.cli", "load_config", "config.load", None),
    ("frontlab.cli", "write_json", "output.write_json", None),
    ("frontlab.cli", "atomic_write_text", "output.atomic_write_text", _bytes),
    ("frontlab.cli", "trajectory_csv", "output.trajectory_csv", None),
    ("frontlab.cli", "phase_csv", "output.phase_csv", None),
    ("frontlab.cli", "write_snapshots", "output.write_snapshots", None),
    ("frontlab.cli", "dumps_json", "output.dumps_json", None),
    ("frontlab.output", "atomic_write_text", "output.atomic_write_text", _bytes),
    ("frontlab.cli", "run", "solver.run", None),
    ("frontlab.classify", "run", "solver.run", None),
    ("frontlab.solver", "auto_dt", "solver.auto_dt", None),
    ("frontlab.classify", "auto_dt", "solver.auto_dt", None),
    ("frontlab.solver", "boundary_velocities", "solver.velocities", None),
    ("frontlab.solver", "solve_banded", "solver.tridiag", None),
    ("frontlab.solver", "reaction", "model.reaction", None),
    ("frontlab.kernels", "Kernel.__call__", "kernels.eval", _eval_points),
    ("frontlab.kernels", "Kernel.tail_mass", "kernels.tail_mass", None),
    ("frontlab.cli", "lambda_p", "eigen.lambda_p", _squarings),
    ("frontlab.eigen", "lambda_p", "eigen.lambda_p", _squarings),
    ("frontlab.cli", "critical_length", "eigen.critical_length", None),
    ("frontlab.classify", "critical_length", "eigen.critical_length", None),
    ("frontlab.cli", "classify", "classify.classify", None),
    ("frontlab.classify", "classify", "classify.classify", None),
    ("frontlab.cli", "estimate_threshold", "classify.estimate_threshold", _scales),
    ("frontlab.cli", "sweep", "classify.sweep", None),
    ("frontlab.classify", "_sweep_cell", "classify.sweep_cell", None),
)
# factories whose returned callable is traced instead of the factory itself
RULE_SITES = (
    ("frontlab.cli", "make_dichotomy_stop", "classify.stop_rule"),
    ("frontlab.classify", "make_dichotomy_stop", "classify.stop_rule"),
)

# every span name a site can produce, for the benchmark's own test
SPAN_NAMES = frozenset(name for _, _, name, _ in SITES) | {name for _, _, name in RULE_SITES}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("kernels.eval_s", "s", "lower"),
    ("kernels.eval_calls", "count", "lower"),
    ("kernels.eval_points", "count", "lower"),
    ("kernels.tail_mass_s", "s", "lower"),
    ("kernels.tail_mass_calls", "count", "lower"),
    ("model.reaction_s", "s", "lower"),
    ("solver.run_s", "s", "lower"),
    ("solver.run_self_s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.step_us", "us", "lower"),
    ("solver.velocities_s", "s", "lower"),
    ("solver.velocities_calls", "count", "lower"),
    ("solver.tridiag_s", "s", "lower"),
    ("solver.auto_dt_s", "s", "lower"),
    ("eigen.lambda_p_s", "s", "lower"),
    ("eigen.lambda_p_calls", "count", "lower"),
    ("eigen.squarings", "count", "lower"),
    ("eigen.flops_computed", "flop", "lower"),
    ("eigen.critical_length_s", "s", "lower"),
    ("classify.classify_s", "s", "lower"),
    ("classify.stop_rule_s", "s", "lower"),
    ("classify.stop_rule_calls", "count", "lower"),
    ("classify.scales", "count", "lower"),
    ("classify.sweep_serial_s", "s", "lower"),
    ("classify.sweep_cell_max_s", "s", "lower"),
    ("classify.sweep_parallel_eff", "ratio", "higher"),
    ("config.load_s", "s", "lower"),
    ("output.write_s", "s", "lower"),
    ("output.bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


# Span slots allocated up front.  glibc maps one block this large outside
# its heap; a span list grown step by step would sit on top of the heap and
# stop glibc from trimming the solver's freed per-step arrays, so a traced
# run would page-fault less than an untraced one.
_CAPACITY = 1 << 21


class Tracer:
    """Spans and counts of one traced phase.  Use as a context manager:
    the wrappers are installed on entry and removed on exit."""

    def __init__(self):
        self._slots: list = [None] * _CAPACITY  # [name, start, end, parent index or -1, run id]
        self._used = 0
        self.counts: dict = defaultdict(float)
        self.run_id = 0
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)

    @property
    def spans(self) -> list:
        return self._slots[: self._used]

    def _wrap(self, fn, name, counter=None):
        slots, stack, counts = self._slots, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._used
            if i == len(slots):
                slots.extend([None] * len(slots))
            self._used = i + 1
            rec = slots[i] = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def _wrap_factory(self, factory, name):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), name)

        return traced_factory

    def _patch(self, module: str, attr: str, make) -> None:
        owner = sys.modules[module]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        self._restore.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, counter in SITES:
                self._patch(module, attr, lambda fn, n=name, c=counter: self._wrap(fn, n, c))
            for module, attr, name in RULE_SITES:
                self._patch(module, attr, lambda fn, n=name: self._wrap_factory(fn, n))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def write(self, path: str) -> None:
        """Write every span as CSV, times relative to the first span."""
        spans = self.spans
        t0 = spans[0][1] if spans else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_s", "end_s", "parent", "run"))
            for name, start, end, parent, run in spans:
                out.writerow((name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent, run))

    def layer_metrics(self, reps: int) -> dict:
        """Per-layer metrics per repetition, from the spans and counts of
        ``reps`` traced repetitions of the workload."""
        spans = self.spans
        dur = defaultdict(float)
        calls = defaultdict(int)
        child = [0.0] * len(spans)
        output_top = 0.0
        for name, start, end, parent, _ in spans:
            d = end - start
            dur[name] += d
            calls[name] += 1
            if parent >= 0:
                child[parent] += d
            if name.startswith("output.") and (parent < 0 or not spans[parent][0].startswith("output.")):
                output_top += d

        def self_time(span_name):
            return sum(rec[2] - rec[1] - child[i] for i, rec in enumerate(spans) if rec[0] == span_name)

        steps = calls["solver.tridiag"]
        cells = [rec[2] - rec[1] for rec in spans if rec[0] == "classify.sweep_cell"]
        totals = {
            "kernels.eval_s": dur["kernels.eval"],
            "kernels.eval_calls": calls["kernels.eval"],
            "kernels.eval_points": self.counts["kernels.eval_points"],
            "kernels.tail_mass_s": dur["kernels.tail_mass"],
            "kernels.tail_mass_calls": calls["kernels.tail_mass"],
            "model.reaction_s": dur["model.reaction"],
            "solver.run_s": dur["solver.run"],
            "solver.run_self_s": self_time("solver.run"),
            "solver.steps": steps,
            "solver.velocities_s": dur["solver.velocities"],
            "solver.velocities_calls": calls["solver.velocities"],
            "solver.tridiag_s": dur["solver.tridiag"],
            "solver.auto_dt_s": dur["solver.auto_dt"],
            "eigen.lambda_p_s": dur["eigen.lambda_p"],
            "eigen.lambda_p_calls": calls["eigen.lambda_p"],
            "eigen.squarings": self.counts["eigen.squarings"],
            "eigen.flops_computed": self.counts["eigen.flops_computed"],
            "eigen.critical_length_s": dur["eigen.critical_length"],
            "classify.classify_s": dur["classify.classify"],
            "classify.stop_rule_s": dur["classify.stop_rule"],
            "classify.stop_rule_calls": calls["classify.stop_rule"],
            "classify.scales": self.counts["classify.scales"],
            "classify.sweep_serial_s": dur["classify.sweep"] if cells else 0.0,
            "config.load_s": dur["config.load"],
            "output.write_s": output_top,
            "output.bytes": self.counts["output.bytes"],
            "cli.self_s": self_time("cli.main"),
        }
        out = {key: value / reps for key, value in totals.items()}
        out["solver.step_us"] = 1e6 * dur["solver.run"] / steps if steps else 0.0
        out["classify.sweep_cell_max_s"] = max(cells, default=0.0)
        return out
