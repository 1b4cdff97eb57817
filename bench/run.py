"""frontlab benchmark: drives ``frontlab.cli.main(argv)`` in-process on generated inputs.

Usage (from the repository root):

    python3 bench/run.py --workload threshold --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics (see tracer.PER_LAYER).  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  ``--record-reference`` runs the workload once at the default
seed and stores its outputs as that workload's entry of reference.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)
import tracer  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads  # noqa: E402

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"))
# fresh interpreters started per run to time set-up; setup_s is their median
SETUP_SAMPLES = 9

_SETUP_CODE = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import frontlab.cli
import workloads
workloads.WORKLOADS[{name!r}].make_ops({seed!r}, {directory!r})
"""

# the traced serial layer split of a workload that fans out, in a fresh interpreter
_SPLIT_CODE = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import run
print(json.dumps(run.serial_split({name!r}, {seed!r}, {directory!r})))
"""

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, read through ctypes."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def _git_commit() -> str:
    """Commit of the checkout; 'unknown' when it is not a git clone."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": blas_threads,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


class Bench:
    """One workload at one seed: its inputs, its operations and the
    repetitions run on them."""

    def __init__(self, workload: workloads.Workload, seed: int, work: str, reference: dict | None):
        import frontlab.cli  # noqa: F401  (also loads frontlab.classify)

        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = sys.modules["frontlab.cli"]
        self.ell_star_cached = sys.modules["frontlab.classify"].ell_star_cached
        self.ops = workload.make_ops(seed, work)
        # None while recording: outputs are collected instead of judged
        self.reference = reference
        self.collected = {"labels": {}, "values": {}, "info": {}}
        self.attempted = 0
        self.failed = 0
        self.out_dev = None
        self.problems: list = []
        self.next_run_id = 0

    def repetition(self, ops: list, tracer=None) -> float:
        """Run every operation once into a fresh output directory; returns the
        wall time of the CLI calls.  Outputs are checked after the clock stops."""
        self.ell_star_cached.cache_clear()
        out = tempfile.mkdtemp(prefix="rep-", dir=self.work)
        try:
            calls = []
            start = perf_counter()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.run_id = self.next_run_id
                self.next_run_id += 1
                op_dir = os.path.join(out, str(i))
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = self.cli.main(op.argv + ["--out-dir", op_dir])
                calls.append((op, op_dir, code, err.getvalue()))
            wall = perf_counter() - start
            for op, op_dir, code, err in calls:
                self._check(op, op_dir, code, err)
        finally:
            shutil.rmtree(out)
        return wall

    def _check(self, op, op_dir: str, code: int, err: str) -> None:
        res = workloads.CheckResult(attempted=op.units)
        if code != 0:
            res.fail(f"exit {code}: {err.strip()}", units=op.units)
        else:
            try:
                op.check(op_dir, res)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                res.fail(f"unreadable output: {exc!r}", units=op.units)
            if self.reference is None:
                for kind, found in self.collected.items():
                    found.update(getattr(res, kind))
            else:
                dev = res.judge(self.reference, self.seed == workloads.DEFAULT_SEED)
                if dev is not None:
                    self.out_dev = max(self.out_dev or 0.0, dev)
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems.extend(f"{op.name}: {msg}" for msg in res.problems)

    def _fresh_interpreter(self, template: str) -> tuple[float, str]:
        """Run template's code in a fresh interpreter; returns its wall time
        and standard output."""
        directory = tempfile.mkdtemp(prefix="fresh-", dir=self.work)
        code = template.format(
            src=SRC, bench=BENCH_DIR, name=self.workload.name, seed=self.seed, directory=directory
        )
        try:
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            return perf_counter() - start, proc.stdout
        finally:
            shutil.rmtree(directory)

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter that imports frontlab.cli and
        generates this workload's inputs."""
        return self._fresh_interpreter(_SETUP_CODE)[0]

    def serial_split(self) -> dict:
        """Layer metrics of one traced ``--workers 1`` repetition, run in a
        fresh interpreter so that its heap is the program's own; its
        operations count towards attempted and failed."""
        out = json.loads(self._fresh_interpreter(_SPLIT_CODE)[1].splitlines()[-1])
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems.extend(out["problems"])
        if out["out_dev"] is not None:
            self.out_dev = max(self.out_dev or 0.0, out["out_dev"])
        return out["metrics"]


def _end_to_end(bench: Bench, seconds: float) -> dict:
    """Repeat the workload until the repetitions have taken ``seconds``.
    The set-up samples are taken between repetitions, spread over the run in
    proportion to the time spent, so that their median does not hang on the
    host's speed during one short window."""
    walls, setups = [], []
    children_kib = None
    spent = 0.0
    while True:
        start = perf_counter()
        walls.append(bench.repetition(bench.ops))
        spent += perf_counter() - start
        if children_kib is None:
            # the largest pool worker's peak, read before any set-up interpreter
            # has run (those are children too); every repetition runs the same cells
            children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        done = spent >= seconds
        due = SETUP_SAMPLES if done else math.ceil(SETUP_SAMPLES * spent / seconds)
        while len(setups) < min(due, SETUP_SAMPLES):
            setups.append(bench.setup_time())
        if done:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if bench.workload.processes > 1:
        rss_kib += children_kib
    print(f"repetitions: {len(walls)}  wall_s each: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup samples: {' '.join(f'{t:.4f}' for t in setups)}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def _per_layer(bench: Bench, seconds: float) -> dict:
    """Untraced and traced repetitions alternate, so that each traced one
    can be set against the untraced one just before it; at least two pairs."""
    start = perf_counter()
    split = bench.serial_split() if bench.workload.make_serial_ops is not None else None
    layer_tracer = tracer.Tracer()
    plain, traced = [], []
    while True:
        plain.append(bench.repetition(bench.ops))
        with layer_tracer:
            traced.append(bench.repetition(bench.ops, layer_tracer))
        pair = statistics.median(plain) + statistics.median(traced)
        if len(plain) >= 2 and perf_counter() - start + pair > seconds:
            break
    if split is None:
        metrics = layer_tracer.layer_metrics(len(traced))
        metrics["classify.sweep_parallel_eff"] = 0.0  # the workload does not fan out
    else:
        # pool children keep their spans: the layer split is the serial run's
        metrics = split
        metrics["classify.sweep_parallel_eff"] = split["classify.sweep_serial_s"] / (
            bench.workload.processes * statistics.median(plain)
        )
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    layer_tracer.write(os.path.join(OUT_ROOT, f"trace_{bench.workload.name}.csv"))
    print(f"untraced wall_s each: {' '.join(f'{w:.4f}' for w in plain)}")
    print(f"traced wall_s each:   {' '.join(f'{w:.4f}' for w in traced)}")
    return metrics


def serial_split(name: str, seed: int, work: str) -> dict:
    """One traced in-process ``--workers 1`` repetition of a workload that
    fans out; returns its layer metrics and the outcome of its checks."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(OUT_ROOT, exist_ok=True)
    bench = Bench(workload, seed, work, workloads.read_reference()[name])
    with tracer.Tracer() as layer_tracer:
        bench.repetition(workload.make_serial_ops(seed, work), layer_tracer)
    layer_tracer.write(os.path.join(OUT_ROOT, f"trace_{name}_serial.csv"))
    return {
        "metrics": layer_tracer.layer_metrics(1),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "problems": bench.problems,
        "out_dev": bench.out_dev,
    }


def _report(bench: Bench, values: dict, units: dict, env: dict) -> dict:
    fail_frac = bench.failed / bench.attempted
    out_dev = "n/a (compared at the default seed only)" if bench.out_dev is None else f"{bench.out_dev!r} abs"
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for problem in bench.problems[:20]:
        print(f"FAILED {problem}")
    print(f"workload {bench.workload.name}  seed {bench.seed}")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':32s} {fail_frac:.6g} ratio ({bench.failed}/{bench.attempted})")
    print(f"  {'out_dev':32s} {out_dev}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def record_reference(workload: workloads.Workload) -> int:
    """Run the workload once at the default seed and store its outputs as
    its entry of reference.json."""
    with tempfile.TemporaryDirectory(prefix="ref-", dir=OUT_ROOT) as work:
        bench = Bench(workload, workloads.DEFAULT_SEED, work, reference=None)
        bench.repetition(bench.ops)
    if bench.failed:
        print("\n".join(bench.problems), file=sys.stderr)
        return 1
    reference = workloads.read_reference()
    reference[workload.name] = bench.collected
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frontlab", "__init__.py")):
        print(f"frontlab sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    # threads x processes <= nproc; set before numpy loads OpenBLAS (fork children inherit it)
    threads = max(1, _nproc() // workload.processes)
    for var in _BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_ROOT, exist_ok=True)
    if args.record_reference:
        return record_reference(workload)

    reference = workloads.read_reference()[workload.name]
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=OUT_ROOT) as work:
        bench = Bench(workload, args.seed, work, reference)
        if args.trace:
            values = _per_layer(bench, args.seconds)
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            values = {name: values[name] for name in units}
        else:
            values = _end_to_end(bench, args.seconds)
            units = dict(END_TO_END)
        # after the measurement: a child process started before it would count in peak_rss_mb
        result = _report(bench, values, units, _environment(threads))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
