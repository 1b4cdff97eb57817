"""The benchmark's tracer wraps frontlab functions where they are looked up
(bench/tracer.py, SITES and RULE_SITES).  A refactor that renames or stops
importing one of them breaks the benchmark, so check that every site still
resolves.  The tracer module is only loaded, never entered."""

import importlib
import importlib.util
import math
import os

from frontlab import InitialData, ModelParams, RunControl, run, solver
from frontlab.kernels import Kernel

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
    # a batch must look it up through the module once per step of each row,
    # and boundary_velocities once per batch step plus once for the initial
    # states.  kernels.tail_mass_calls counts Kernel.tail_mass: one call per
    # boundary_velocities call, for both fronts of every row together.
    calls = {"solve_banded": 0, "boundary_velocities": 0, "tail_mass": 0}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapped

    for name in ("solve_banded", "boundary_velocities"):
        monkeypatch.setattr(solver, name, counting(solver, name))
    monkeypatch.setattr(Kernel, "tail_mass", counting(Kernel, "tail_mass"))
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.2, rho=0.2)
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    k, ctrl = Kernel("tent", 1.0), RunControl(horizon=0.5, n=64, dt=0.01, record_every=7)
    traj = run(p, init, k, ctrl)
    assert traj.termination == "horizon"
    steps = math.ceil(0.5 / 0.01)
    assert calls == {"solve_banded": steps, "boundary_velocities": steps + 1, "tail_mass": steps + 1}

    calls.update(dict.fromkeys(calls, 0))
    jobs = [(p, InitialData.cosine(h0=h0, amp_u=0.3, amp_v=0.3), None) for h0 in (0.8, 1.0, 1.2)]
    assert [traj.termination for traj in solver.run_batch(jobs, k, ctrl)] == ["horizon"] * 3
    assert calls == {"solve_banded": 3 * steps, "boundary_velocities": steps + 1, "tail_mass": steps + 1}


def test_auto_dt_run_looks_up_auto_dt_once_per_step(monkeypatch):
    # bench/tracer.py times solver.auto_dt at frontlab.solver.auto_dt, so under
    # dt = auto run() must call it through the module, once per step
    calls = {"solve_banded": 0, "auto_dt": 0}

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
    traj = run(p, init, Kernel("tent", 1.0), RunControl(horizon=0.5, n=64, record_every=1))
    assert traj.termination == "horizon"
    assert calls["auto_dt"] == calls["solve_banded"] == len(traj.t) - 1 > 0
