"""The benchmark's tracer wraps frontlab functions where they are looked up
(bench/tracer.py, SITES and RULE_SITES).  A refactor that renames or stops
importing one of them breaks the benchmark, so check that every site still
resolves.  The tracer module is only loaded, never entered."""

import importlib
import importlib.util
import math
import os

from frontlab import InitialData, ModelParams, RunControl, make_kernel, run, solver

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py")


def _resolves(module: str, attr: str) -> bool:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_tracer_site_resolves():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [(module, attr) for module, attr, *_ in tracer.SITES + tracer.RULE_SITES]
    assert sites
    missing = [f"{module}.{attr}" for module, attr in sites if not _resolves(module, attr)]
    assert not missing, missing


def test_run_makes_one_solve_per_step_and_one_more_velocity_call(monkeypatch):
    # bench/tracer.py counts solver.steps as calls of solver.solve_banded, so
    # run() must look it up through the module once per step, and
    # boundary_velocities once per step plus once for the initial state
    calls = {"solve_banded": 0, "boundary_velocities": 0}

    def counting(name):
        original = getattr(solver, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.2, rho=0.2)
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    traj = run(p, init, make_kernel("tent", 1.0), RunControl(horizon=0.5, n=64, dt=0.01, record_every=7))
    assert traj.termination == "horizon"
    steps = math.ceil(0.5 / 0.01)
    assert calls == {"solve_banded": steps, "boundary_velocities": steps + 1}
