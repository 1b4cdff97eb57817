"""Verdict logic, threshold bracketing, and sweep plumbing.

Certificate logic is exercised on hand-crafted trajectories so each
branch is hit exactly, then on real runs for end-to-end agreement.
"""

import importlib
import math
import multiprocessing
import os
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from frontlab import (
    ConfigError,
    InconclusiveError,
    InitialData,
    ModelParams,
    RegimeError,
    RunControl,
    ScanControl,
    SolverFailure,
    classify,
    estimate_threshold,
    make_dichotomy_stop,
    make_kernel,
    run,
    sweep,
)
from frontlab.classify import (
    CERT_A_RATE,
    CERT_ELL_STAR,
    CERT_HORIZON,
    CERT_PI_SQRT_D2,
    CERT_PLATEAU,
    PHASE_COLUMNS,
    SPREADING,
    UNDECIDED,
    VANISHING,
    _spread_lengths,
    ell_star_cached,
)
from frontlab.config import parse_config
from frontlab.output import phase_csv
from frontlab.solver import Trajectory

classify_module = importlib.import_module("frontlab.classify")  # frontlab.classify is the function

TENT = make_kernel("tent", 1.0)


def _params(kind="competition", **kw):
    base = dict(kind=kind, d1=1.0, d2=1.0, a=0.5, b=0.5, c=0.5, mu=0.1, rho=0.1)
    base.update(kw)
    return ModelParams(**base)


def _traj(t, half_lengths, sup_u, sup_v, speeds, n=100):
    t = np.asarray(t, dtype=float)
    h = np.asarray(half_lengths, dtype=float)
    sup_u = np.asarray(sup_u, dtype=float)
    sup_v = np.asarray(sup_v, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    return Trajectory(
        t=t,
        g=-h,
        h=h,
        gdot=-speeds,
        hdot=speeds,
        sup_u=sup_u,
        sup_v=sup_v,
        u_center=sup_u,
        v_center=sup_v,
        termination="horizon",
        n=n,
    )


def test_a_rate_certificate_on_real_run():
    p = _params(a=1.0)
    init = InitialData.cosine(h0=0.2, amp_u=1e-3, amp_v=1e-3)
    traj = run(p, init, TENT, RunControl(horizon=1.0, n=64, record_every=5))
    cls = classify(traj, p, TENT)
    assert cls.verdict == SPREADING
    assert cls.certificate == CERT_A_RATE
    assert cls.fired_at == traj.t[0]


def test_pi_bound_certificate_crafted():
    # pi*sqrt(0.5) = 2.2214 < ell*(a=0.1) = 2.3374: a crossing in between
    # must cite the pi bound, not the critical length
    p = _params(a=0.1, d2=0.5)
    t = np.arange(5.0)
    half = np.array([1.0, 1.05, 1.16, 1.16, 1.16])  # length crosses 2.2214 at t=2
    traj = _traj(t, half, [0.5] * 5, [0.5] * 5, [0.1] * 5)
    cls = classify(traj, p, TENT)
    assert cls.verdict == SPREADING
    assert cls.certificate == CERT_PI_SQRT_D2
    assert cls.fired_at == 2.0


def test_ell_star_certificate_crafted():
    p = _params(a=0.1, d2=0.5)
    ell = ell_star_cached(1.0, 0.1, "tent", 1.0).ell_star
    t = np.arange(4.0)
    half = np.array([1.0, 1.05, 0.51 * ell + 0.01, 0.51 * ell + 0.01])
    traj = _traj(t, half, [0.5] * 4, [0.5] * 4, [0.1] * 4)
    cls = classify(traj, p, TENT)
    assert cls.verdict == SPREADING
    assert cls.certificate == CERT_ELL_STAR
    assert cls.fired_at == 2.0


def test_vanishing_plateau_crafted():
    p = _params(a=0.5)
    t = np.linspace(0.0, 100.0, 21)
    half = np.full(21, 0.25)
    sup = np.geomspace(1e-2, 1e-5, 21)
    speeds = np.full(21, 1e-7)
    traj = _traj(t, half, sup, sup, speeds)
    cls = classify(traj, p, TENT)
    assert cls.verdict == VANISHING
    assert cls.certificate == CERT_PLATEAU
    assert "heuristic" in cls.note
    assert cls.fired_at >= 90.0
    assert cls.final_length == pytest.approx(0.5)
    assert cls.lambda_p_final < 0.0


def test_plateau_rejected_when_eigenvalue_positive(monkeypatch):
    # same decay profile on a habitat just under ell* = 0.632, where
    # lambda_p is about -0.007: with the eigenvalue slack below that, the
    # eigenvalue check alone forbids Vanishing
    p = _params(a=0.5)
    t = np.linspace(0.0, 100.0, 21)
    half = np.full(21, 0.31)  # length 0.62
    sup = np.geomspace(1e-2, 1e-5, 21)
    traj = _traj(t, half, sup, sup, np.full(21, 1e-7))
    assert classify(traj, p, TENT).verdict == VANISHING
    monkeypatch.setattr(classify_module, "_EIGEN_SLACK", -0.01)
    cls = classify(traj, p, TENT)
    assert cls.verdict == UNDECIDED
    assert cls.certificate == CERT_HORIZON
    assert -0.01 < cls.lambda_p_final < 0.0


def test_undecided_when_norms_still_large():
    p = _params(a=0.5)
    t = np.linspace(0.0, 50.0, 11)
    traj = _traj(t, np.full(11, 0.25), np.full(11, 0.3), np.full(11, 0.3), np.full(11, 1e-7))
    cls = classify(traj, p, TENT)
    assert cls.verdict == UNDECIDED
    assert cls.certificate == CERT_HORIZON
    assert cls.fired_at is None


def test_spreading_length_threshold():
    ell = ell_star_cached(1.0, 0.5, "tent", 1.0).ell_star
    assert _spread_lengths(_params(a=0.5, d2=1.0), TENT) == (math.pi, ell)
    assert _spread_lengths(_params(a=0.5, d2=0.01), TENT) == (math.pi * 0.1, ell)


def test_ell_star_cache_hits():
    ell_star_cached.cache_clear()
    first = ell_star_cached(1.0, 0.5, "tent", 1.0)
    again = ell_star_cached(1.0, 0.5, "tent", 1.0)
    assert again is first
    assert ell_star_cached.cache_info().hits >= 1


def test_dichotomy_stop_rule_reasons():
    p = _params(a=0.5)
    rule = make_dichotomy_stop(p, TENT, horizon=40.0)
    grow = SimpleNamespace(
        t=[0.0, 1.0], g=[-0.25, -0.4], h=[0.25, 0.4],
        gdot=[-0.1, -0.1], hdot=[0.1, 0.1], sup_u=[0.5, 0.5], sup_v=[0.5, 0.5],
    )
    assert rule(grow) == "spreading-length"  # 0.8 > 0.632
    flat = SimpleNamespace(
        t=[0.0, 6.0, 8.0, 10.0], g=[-0.25] * 4, h=[0.25] * 4,
        gdot=[1e-6] * 4, hdot=[1e-6] * 4, sup_u=[1e-4] * 4, sup_v=[1e-4] * 4,
    )
    assert rule(flat) == "vanishing-plateau"
    young = SimpleNamespace(
        t=[0.0, 2.0], g=[-0.25] * 2, h=[0.25] * 2,
        gdot=[1e-6] * 2, hdot=[1e-6] * 2, sup_u=[1e-4] * 2, sup_v=[1e-4] * 2,
    )
    assert rule(young) is None
    fast_rule = make_dichotomy_stop(_params(a=2.0), TENT, horizon=40.0)
    assert fast_rule(young) == "a-rate-dominates"


# stop reason -> (a, mu = rho, amp, horizon) of a tent run from h0 = 0.2,
# 0.4 long, below pi and below ell* at a = 0.3 and 0.5
_STOP_CASES = {
    "a-rate-dominates": (1.0, 1e-3, 1e-3, 5.0),
    "spreading-length": (0.5, 2.0, 0.3, 40.0),
    "vanishing-plateau": (0.3, 5e-4, 5e-3, 40.0),
}


@pytest.mark.parametrize("reason", sorted(_STOP_CASES))
@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_stop_reason_and_verdict_agree(kind, reason):
    a, budget, amp, horizon = _STOP_CASES[reason]
    p = _params(kind, a=a, mu=budget, rho=budget)
    init = InitialData.cosine(h0=0.2, amp_u=amp, amp_v=amp)
    stop = make_dichotomy_stop(p, TENT, horizon)
    traj = run(p, init, TENT, RunControl(horizon=horizon, n=64, record_every=10), stop_rule=stop)
    cls = classify(traj, p, TENT)
    assert traj.termination == f"stop:{reason}"
    if reason == "a-rate-dominates":
        assert (cls.verdict, cls.certificate) == (SPREADING, CERT_A_RATE)
    elif reason == "spreading-length":
        assert cls.verdict == SPREADING
        assert cls.certificate in (CERT_ELL_STAR, CERT_PI_SQRT_D2)
        assert cls.fired_at == traj.t[-1]
    else:
        assert (cls.verdict, cls.certificate) == (VANISHING, CERT_PLATEAU)


def test_threshold_preconditions():
    init = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)
    with pytest.raises(RegimeError):
        estimate_threshold(_params(a=1.2), init, TENT)
    wide = InitialData.cosine(h0=0.32, amp_u=1e-3, amp_v=1e-3)
    with pytest.raises(RegimeError) as err:
        estimate_threshold(_params(a=0.5), wide, TENT)
    msg = str(err.value)
    assert "pi*sqrt(d2)" in msg and "critical length" in msg


def test_threshold_bad_ray():
    init = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)
    with pytest.raises(ValueError):
        estimate_threshold(_params(), init, TENT, ray=(0.0, 0.0))
    with pytest.raises(ValueError):
        estimate_threshold(_params(), init, TENT, ray=(-0.5, 1.0))


def test_threshold_all_undecided_inconclusive():
    init = InitialData.cosine(h0=0.25, amp_u=1e-2, amp_v=1e-2)
    ctrl = ScanControl(s_min=1e-8, s_max=1e-7, points=2, horizon=3.0, n=64)
    with pytest.raises(InconclusiveError) as err:
        estimate_threshold(_params(a=0.45), init, TENT, ctrl=ctrl)
    assert "horizon" in str(err.value)


def test_threshold_one_sided_scans_inconclusive():
    init = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)
    spread_only = ScanControl(s_min=200.0, s_max=1000.0, points=2, horizon=20.0, n=64)
    with pytest.raises(InconclusiveError) as err:
        estimate_threshold(_params(a=0.5), init, TENT, ctrl=spread_only)
    assert "extend the scan downward" in str(err.value)
    vanish_only = ScanControl(s_min=1e-6, s_max=1e-5, points=2, horizon=40.0, n=64)
    with pytest.raises(InconclusiveError) as err:
        estimate_threshold(_params(a=0.5), init, TENT, ctrl=vanish_only)
    assert "extend the scan upward" in str(err.value)


# scales of the criterion-08 bracket: the last Vanishing scan scale below it
# and its two ends, on the ray mu = rho = s/2
@pytest.mark.parametrize(
    "scale, verdict",
    [(11.78768634793589, VANISHING), (17.06643681296347, VANISHING), (24.709112279856093, SPREADING)],
)
def test_threshold_scale_verdicts_pinned_under_auto_dt(scale, verdict):
    # criterion-08 setup (competition, tent, h0 = 0.3) with the default scan
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    got = classify_module._classify_at_scales(_params(), init, TENT, [scale], (0.5, 0.5), ScanControl())
    assert got == [verdict]


def test_threshold_scales_batched_match_one_at_a_time():
    # the three pinned scales as one batch give each scale's own verdict
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    scales = [11.78768634793589, 17.06643681296347, 24.709112279856093]
    got = classify_module._classify_at_scales(_params(), init, TENT, scales, (0.5, 0.5), ScanControl())
    assert got == [VANISHING, VANISHING, SPREADING]


def test_solver_failure_at_a_scale_is_undecided_without_retry(monkeypatch):
    calls = []

    def failing_run_batch(jobs, k, ctrl):
        calls.append((len(jobs), ctrl.dt))
        return [SolverFailure("stability bound violated") for _ in jobs]

    monkeypatch.setattr(classify_module, "run_batch", failing_run_batch)
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    got = classify_module._classify_at_scales(_params(), init, TENT, [17.0], (0.5, 0.5), ScanControl())
    assert got == [UNDECIDED]
    assert calls == [(1, None)]  # one dt = auto attempt


def _fake_scan(monkeypatch, grid_verdicts, probe_verdict, cpus=None) -> list:
    """Give estimate_threshold made-up verdicts: grid_verdicts for its grid,
    then probe_verdict(s) for each bisection probe s, on cpus CPUs if given.
    Returns the list of scale lists it asks for, the grid first."""
    calls = []

    def fake(p, init, k, scales, ray, ctrl, cpus=1):
        calls.append(list(scales))
        if len(calls) == 1:
            assert len(scales) == len(grid_verdicts)
            return list(grid_verdicts)
        return [probe_verdict(s) for s in scales]

    monkeypatch.setattr(classify_module, "_classify_at_scales", fake)
    if cpus is not None:
        monkeypatch.setattr(classify_module, "_fork_cpus", lambda: cpus)
    return calls


_SCAN_INIT = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)


def _tree(lower: float, upper: float, levels: int) -> set:
    """The midpoints that levels rounds of log-scale bisection from (lower,
    upper) can probe, each branch ending once upper/lower <= 1.5."""
    if levels == 0 or upper / lower <= 1.5:
        return set()
    mid = math.sqrt(lower * upper)
    return {mid} | _tree(lower, mid, levels - 1) | _tree(mid, upper, levels - 1)


def _scan_one_and_two_cpus(monkeypatch, probe_verdict, ctrl, bracket):
    """The [Vanishing, Spreading] grid of ctrl scanned with probe_verdict on
    one CPU and on two.  Checks that one CPU probes one midpoint a round,
    that each round on two CPUs probes the three-level bisection tree below
    the bracket the one-CPU walk holds at that point, and that both return
    the same estimate.  Returns it, with the probe rounds of each scan."""
    serial_calls = _fake_scan(monkeypatch, [VANISHING, SPREADING], probe_verdict, cpus=1)
    serial = estimate_threshold(_params(), _SCAN_INIT, TENT, ctrl=ctrl)
    assert all(len(scales) == 1 for scales in serial_calls[1:])
    # the bracket before each one-CPU probe, replayed from its verdicts
    lower, upper = bracket
    brackets = []
    for (mid,) in serial_calls[1:]:
        assert mid == math.sqrt(lower * upper)
        brackets.append((lower, upper))
        verdict = probe_verdict(mid)
        if verdict == VANISHING:
            lower = mid
        elif verdict == SPREADING:
            upper = mid

    calls = _fake_scan(monkeypatch, [VANISHING, SPREADING], probe_verdict, cpus=2)
    est = estimate_threshold(_params(), _SCAN_INIT, TENT, ctrl=ctrl)
    rounds = calls[1:]
    assert len(rounds) == math.ceil(len(brackets) / 3)
    for i, scales in enumerate(rounds):
        assert len(scales) <= 7 and len(set(scales)) == len(scales)
        assert set(scales) == _tree(*brackets[3 * i], 3)
    assert est == serial
    return est, serial_calls[1:], rounds


@pytest.mark.parametrize("threshold", [2e-150, 1e-40, 17.07, 1e100, 5e149])
def test_scan_refines_the_widest_grid_within_11_rounds(monkeypatch, threshold):
    # each verdict halves log(upper/lower), from log(1e300) to log(1.5) in
    # 11; on more than one CPU a round takes three of them
    ctrl = ScanControl(s_min=1e-150, s_max=1e150, points=2)
    est, serial_rounds, rounds = _scan_one_and_two_cpus(
        monkeypatch, lambda s: VANISHING if s < threshold else SPREADING, ctrl, (1e-150, 1e150)
    )
    assert est.lower < threshold <= est.upper
    assert est.upper / est.lower <= 1.5
    assert 1 <= len(serial_rounds) <= 11 and 1 <= len(rounds) <= 4
    assert est.monotone_flag
    assert len(est.scanned) == len(serial_rounds) + 2


def test_scan_ends_at_an_undecided_probe(monkeypatch):
    # the first probe narrows the bracket and the second comes back
    # Undecided; so does the first probe's other child, which the walk
    # never visits, and it is left out of scanned
    first = math.sqrt(1e-6 * 1e3)
    second = math.sqrt(first * 1e3)
    unvisited = math.sqrt(1e-6 * first)
    verdicts = {first: VANISHING, second: UNDECIDED, unvisited: UNDECIDED}
    ctrl = ScanControl(s_min=1e-6, s_max=1e3, points=2)
    est, serial_rounds, rounds = _scan_one_and_two_cpus(
        monkeypatch, lambda s: verdicts.get(s, VANISHING), ctrl, (1e-6, 1e3)
    )
    assert serial_rounds == [[first], [second]]
    assert len(rounds) == 1 and unvisited in rounds[0]
    assert (est.lower, est.upper) == (first, 1e3)
    assert est.scanned == [(1e-6, VANISHING), (first, VANISHING), (second, UNDECIDED), (1e3, SPREADING)]
    assert est.monotone_flag  # the Undecided scale lies inside the bracket


@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_scan_estimate_does_not_depend_on_the_cpu_count(monkeypatch, kind, fork_children):
    # criterion-08 setup with the default scan: one CPU probes one midpoint
    # a round in this process; two and three deal each round to forked
    # children
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    estimates = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(classify_module, "_cpus", lambda: cpus)
        estimates.append(estimate_threshold(_params(kind=kind), init, TENT))
    assert estimates[0].upper / estimates[0].lower <= 1.5
    assert estimates[1] == estimates[0] and estimates[2] == estimates[0]
    assert multiprocessing.active_children() == []


def test_scan_brackets_the_last_vanishing_spreading_pair(monkeypatch):
    # grid verdicts V S V S: the bracket starts from the last pair, and the
    # Spreading verdict below it is reported
    calls = _fake_scan(
        monkeypatch, [VANISHING, SPREADING, VANISHING, SPREADING], lambda s: VANISHING if s < 30.0 else SPREADING
    )
    est = estimate_threshold(_params(), _SCAN_INIT, TENT, ctrl=ScanControl(s_min=1e-6, s_max=1e3, points=4))
    grid = calls[0]
    assert all(grid[2] < scales[0] < grid[3] for scales in calls[1:])
    assert est.lower < 30.0 <= est.upper and est.upper / est.lower <= 1.5
    assert not est.monotone_flag
    assert [v for s, v in est.scanned if s < est.lower][:3] == [VANISHING, SPREADING, VANISHING]


def _sweep_config(axes: str, horizon: float = 20.0, family: str = "tent"):
    """The _params() model on a kernel of the given family, plus the given sweep.* lines."""
    return parse_config(
        f"kernel.family = {family}\nmodel.kind = competition\nmodel.d1 = 1.0\nmodel.d2 = 1.0\n"
        "model.a = 0.5\nmodel.b = 0.5\nmodel.c = 0.5\nmodel.mu = 0.1\nmodel.rho = 0.1\n"
        "init.h0 = 0.25\ninit.amp_u = 1e-3\ninit.amp_v = 1e-3\n"
        f"numerics.horizon = {horizon}\nnumerics.n = 64\nnumerics.record_every = 10\n{axes}"
    )


def test_single_cell_sweep_matches_classify():
    table = sweep(_sweep_config("sweep.a = 0.5\n"))
    assert len(table.rows) == 1
    row = table.rows[0]

    p = _params(a=0.5)
    init = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)
    stop = make_dichotomy_stop(p, TENT, 20.0)
    traj = run(p, init, TENT, RunControl(horizon=20.0, n=64, record_every=10), stop_rule=stop)
    cls = classify(traj, p, TENT)
    assert row["verdict"] == cls.verdict
    assert row["certificate"] == cls.certificate
    assert row["final_length"] == pytest.approx(cls.final_length, rel=1e-12)


def test_sweep_row_major_order_and_columns():
    table = sweep(_sweep_config("sweep.mu = 0.1, 0.2\nsweep.a = 0.4, 0.5\n"))
    assert table.columns == PHASE_COLUMNS
    combos = [(row["a"], row["mu"]) for row in table.rows]
    assert combos == [(0.4, 0.1), (0.4, 0.2), (0.5, 0.1), (0.5, 0.2)]


def test_sweep_deterministic_across_worker_counts():
    # 4 cells: one batch in-process, 2 and 3 batches with 1 and 2 child
    # processes, and more workers than cells
    cfg = _sweep_config("sweep.a = 0.5, 1.0\nsweep.mu = 1e-6, 10.0\n", horizon=10.0)
    serial = phase_csv(sweep(cfg, workers=1))
    for workers in (2, 3, 5):
        assert phase_csv(sweep(cfg, workers=workers)) == serial  # byte-identical
    # the Gaussian kernel, whose tail mass calls scipy.special.erf in the children
    cfg = _sweep_config("sweep.a = 0.5, 1.0\nsweep.mu = 1e-6, 10.0\n", horizon=10.0, family="truncated_gaussian")
    serial = phase_csv(sweep(cfg, workers=1))
    for workers in (2, 3):
        assert phase_csv(sweep(cfg, workers=workers)) == serial
    assert multiprocessing.active_children() == []


def _record_starts(monkeypatch) -> list:
    """Every multiprocessing.Process started from now on, in start order."""
    started = []
    real = multiprocessing.process.BaseProcess.start

    def recording(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", recording)
    return started


def test_sweep_starts_no_more_processes_than_batches(monkeypatch):
    started = _record_starts(monkeypatch)
    cfg = _sweep_config("sweep.mu = 1e-6, 10.0\n", horizon=5.0)
    fanned = sweep(cfg, workers=8)
    assert len(started) == 1  # two cells, two batches: one in this process, one in a child
    assert multiprocessing.active_children() == []
    assert phase_csv(sweep(cfg, workers=1)) == phase_csv(fanned)
    assert len(started) == 1  # one batch starts no child


def _timed_out(signum, frame):
    raise TimeoutError("the sweep is still waiting on a child after 30 s")


@pytest.fixture
def fork_children():
    """Children started by fork, whatever the platform's default, so that
    they inherit what a test patched in this process; a test that waits on
    a child for 30 s fails instead of hanging."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    handler = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
        multiprocessing.set_start_method(before, force=True)


def _patch_batch(monkeypatch, in_parent, in_child):
    """Replace _sweep_batch by in_parent(cells) in this process and by
    in_child(cells) in every child forked from it."""
    parent = os.getpid()
    monkeypatch.setattr(
        classify_module,
        "_sweep_batch",
        lambda cells: (in_parent if os.getpid() == parent else in_child)(cells),
    )


def test_sweep_child_that_dies_raises_its_exit_code(monkeypatch, fork_children):
    _patch_batch(monkeypatch, classify_module._sweep_batch, lambda cells: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3"):
        sweep(_sweep_config("sweep.mu = 1e-6, 10.0\n", horizon=5.0), workers=2)
    assert multiprocessing.active_children() == []


def test_sweep_child_exception_is_raised_with_its_type(monkeypatch, fork_children):
    def fail(cells):
        raise SolverFailure(f"child batch of {len(cells)} cells")

    _patch_batch(monkeypatch, classify_module._sweep_batch, fail)
    with pytest.raises(SolverFailure, match="child batch of 1 cells"):
        sweep(_sweep_config("sweep.mu = 1e-6, 10.0\n", horizon=5.0), workers=2)
    assert multiprocessing.active_children() == []


def test_scan_child_exception_is_raised_and_its_solver_failure_is_undecided(monkeypatch, fork_children):
    parent = os.getpid()
    real = classify_module._run_classified
    child_result = []

    def run_classified(jobs, k, ctrl):
        if os.getpid() == parent:
            return real(jobs, k, ctrl)
        return [child_result[0]] * len(jobs)

    monkeypatch.setattr(classify_module, "_run_classified", run_classified)
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    scales = [1e-6, 1e3]  # on 2 CPUs the second runs in the child
    child_result.append(ValueError("child part"))
    with pytest.raises(ValueError, match="child part"):
        classify_module._classify_at_scales(_params(), init, TENT, scales, (0.5, 0.5), ScanControl(), 2)
    child_result[0] = SolverFailure("u bound breached")
    got = classify_module._classify_at_scales(_params(), init, TENT, scales, (0.5, 0.5), ScanControl(), 2)
    assert got == [VANISHING, UNDECIDED]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_scan_under_a_fresh_import_start_method_runs_in_this_process(monkeypatch, method):
    # children started by spawn or forkserver would have to pickle each
    # part's jobs, and these initial profiles are lambdas, so on 2 CPUs the
    # scan must stay in this process and return the one-CPU estimate
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is unavailable")
    bump = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3).u0
    init = InitialData(h0=0.3, u0=lambda x: bump(x), v0=lambda x: bump(x))
    monkeypatch.setattr(classify_module, "_cpus", lambda: 1)
    one = estimate_threshold(_params(), init, TENT)
    monkeypatch.setattr(classify_module, "_cpus", lambda: 2)
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        assert classify_module._fork_cpus() == 1
        assert estimate_threshold(_params(), init, TENT) == one
    finally:
        multiprocessing.set_start_method(before, force=True)
    assert multiprocessing.active_children() == []


def test_fork_cpus_follow_the_default_start_method_without_fixing_it(monkeypatch):
    monkeypatch.setattr(classify_module, "_cpus", lambda: 2)
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(None, force=True)
    try:
        default = multiprocessing.get_all_start_methods()[0]
        assert classify_module._fork_cpus() == (2 if default == "fork" else 1)
        assert multiprocessing.get_start_method(allow_none=True) is None
    finally:
        multiprocessing.set_start_method(before, force=True)


def test_fan_out_returns_uneven_parts_in_item_order(monkeypatch, fork_children):
    # 5 items in 3 parts: items 0 and 3 here, 1 and 4 in one child, 2 in another
    started = _record_starts(monkeypatch)
    got = classify_module._fan_out(lambda part: [(item, os.getpid()) for item in part], list(range(5)), 3)
    assert [item for item, _ in got] == list(range(5))
    pids = [pid for _, pid in got]
    assert pids[0] == pids[3] == os.getpid()
    assert pids[1] == pids[4] == started[0].pid and pids[2] == started[1].pid
    assert multiprocessing.active_children() == []
    # no items: one empty part, run in this process
    calls = []
    assert classify_module._fan_out(lambda part: calls.append(os.getpid()) or part, [], 3) == []
    assert calls == [os.getpid()] and len(started) == 2


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_sweep_without_workers_fans_out_over_the_cpus_only_under_fork(monkeypatch, method):
    # without a worker count a sweep takes _fork_cpus(): here 3 CPUs under
    # fork, 1 under spawn and forkserver, where 2 workers still start a child
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"the {method} start method is unavailable")
    monkeypatch.setattr(classify_module, "_cpus", lambda: 3)
    started = _record_starts(monkeypatch)
    before = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        for axes, cells in (("sweep.mu = 1e-6, 10.0\n", 2), ("sweep.a = 0.5, 1.0\nsweep.mu = 1e-6, 10.0\n", 4)):
            started.clear()
            assert len(sweep(_sweep_config(axes, horizon=5.0)).rows) == cells
            assert len(started) == (min(3, cells) - 1 if method == "fork" else 0)
            assert multiprocessing.active_children() == []
        if method != "fork":
            started.clear()
            sweep(_sweep_config("sweep.mu = 1e-6, 10.0\n", horizon=5.0), workers=2)
            assert len(started) == 1
            assert multiprocessing.active_children() == []
    finally:
        multiprocessing.set_start_method(before, force=True)


def _cgroup_tree(root, lines: str, files: dict) -> None:
    """A fake /proc/self/cgroup holding lines, and files, {path under
    /sys/fs/cgroup: text}, under root."""
    (root / "proc" / "self").mkdir(parents=True)
    (root / "proc" / "self" / "cgroup").write_text(lines)
    for path, text in files.items():
        (root / "sys" / "fs" / "cgroup" / path).parent.mkdir(parents=True, exist_ok=True)
        (root / "sys" / "fs" / "cgroup" / path).write_text(text)


@pytest.mark.parametrize(
    "lines, files, cpus",
    [
        ("0::/a\n", {"a/cpu.max": "150000 100000\n"}, 2),
        ("0::/a/b\n", {"a/b/cpu.max": "max 100000\n", "a/cpu.max": "50000 100000\n"}, 1),
        ("0::/a\n", {"a/cpu.max": "max 100000\n"}, 8),
        (
            "4:memory:/a\n3:cpu,cpuacct:/a\n0::/\n",
            {"cpu,cpuacct/a/cpu.cfs_quota_us": "-1\n", "cpu,cpuacct/a/cpu.cfs_period_us": "100000\n"},
            8,
        ),
        (
            "3:cpu,cpuacct:/a\n",
            {"cpu,cpuacct/cpu.cfs_quota_us": "300000\n", "cpu,cpuacct/cpu.cfs_period_us": "100000\n"},
            3,
        ),
        ("0::/a\n", {}, 8),  # no cpu.max: no quota
    ],
    ids=["v2", "v2-ancestor", "v2-max", "v1-unlimited", "v1-ancestor", "v2-missing"],
)
def test_cpus_are_capped_by_the_cgroup_quota(monkeypatch, tmp_path, lines, files, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(classify_module, "_ROOT", str(tmp_path))
    assert classify_module._cpus() == 8  # no /proc/self/cgroup: no quota
    _cgroup_tree(tmp_path, lines, files)
    assert classify_module._cpus() == cpus


def test_sweep_parent_batch_exception_terminates_and_joins_children(monkeypatch, fork_children):
    def fail(cells):
        raise SolverFailure("parent batch")

    started = _record_starts(monkeypatch)
    _patch_batch(monkeypatch, fail, lambda cells: time.sleep(60))
    with pytest.raises(SolverFailure, match="parent batch"):
        sweep(_sweep_config("sweep.mu = 1e-6, 10.0, 1.0\n", horizon=5.0), workers=3)
    assert len(started) == 2
    assert [child.exitcode for child in started] == [-signal.SIGTERM] * 2
    assert multiprocessing.active_children() == []


def test_sweep_a_rate_row_all_spreading():
    table = sweep(_sweep_config("sweep.a = 0.5, 1.0\nsweep.mu = 1e-6, 10.0\n", horizon=10.0))
    for row in table.rows:
        if row["a"] == 1.0:
            assert row["verdict"] == SPREADING
            assert row["certificate"] == CERT_A_RATE


def test_sweep_records_failures_without_aborting():
    table = sweep(_sweep_config("sweep.a = 0.5, -0.5\n", horizon=5.0))
    assert len(table.rows) == 2
    good, bad = table.rows
    assert good["verdict"] in (SPREADING, VANISHING, UNDECIDED)
    assert bad["verdict"] == "Failed"
    assert bad["certificate"] == "ValueError"
    assert bad["a"] == -0.5
    assert math.isnan(bad["final_length"])


def test_sweep_failed_cell_rows_byte_identical_across_worker_counts():
    # the h0 = -1 cells fail while they are set up, before any run
    cfg = _sweep_config("sweep.h0 = 0.2, -1\nsweep.mu = 1e-6, 10.0\n", horizon=10.0)
    serial = sweep(cfg, workers=1)
    assert [row["verdict"] for row in serial.rows].count("Failed") == 2
    assert phase_csv(sweep(cfg, workers=2)) == phase_csv(serial)  # byte-identical


def test_sweep_h0_below_the_run_floor_is_a_failed_row():
    table = sweep(_sweep_config("sweep.h0 = 0.25, 1e-200\n", horizon=5.0))
    good, bad = table.rows
    assert good["verdict"] in (SPREADING, VANISHING, UNDECIDED)
    assert (bad["h0"], bad["verdict"], bad["certificate"]) == (1e-200, "Failed", "ValueError")


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ConfigError) as err:
        _sweep_config("sweep.b = 0.1, 0.2\n")
    assert "unknown key 'sweep.b'" in str(err.value)


def _scan_rule(p, horizon):
    """The stop rule with its trailing window found by a full scan of rec.t:
    the oracle for make_dichotomy_stop's bisection."""
    threshold = min(_spread_lengths(p, TENT))
    window = classify_module._WINDOW_FRACTION * horizon
    vanish_tol, speed_tol = classify_module._VANISH_TOL, classify_module._SPEED_TOL

    def rule(rec):
        if rec.h[-1] - rec.g[-1] > threshold:
            return "spreading-length"
        t_now = rec.t[-1]
        if t_now >= 2.0 * window:
            tail = [i for i, t in enumerate(rec.t) if t >= t_now - window]
            if len(tail) >= 3 and all(
                rec.sup_u[i] < vanish_tol
                and rec.sup_v[i] < vanish_tol
                and abs(rec.gdot[i]) < speed_tol
                and abs(rec.hdot[i]) < speed_tol
                for i in tail
            ):
                return "vanishing-plateau"
        return None

    return rule


def test_stop_rule_window_by_bisection_matches_scan():
    p = _params(a=0.5)
    horizon = 60.0
    rule = make_dichotomy_stop(p, TENT, horizon)
    oracle = _scan_rule(p, horizon)
    # record times 0.05 apart, so the window edge t_now - 6 often lands on a
    # record; sup norms decay through _VANISH_TOL, with bursts at t = 38, 47
    # that break the plateau for one window each; the habitat, 0.5 long,
    # outgrows ell* = 0.632 after t = 58
    t = np.round(np.arange(1200) * 0.05, 10)
    sup = 0.5 * np.exp(-t / 4.0)
    sup[(t == 38.0) | (t == 47.0)] = 0.01
    speed = np.where(t < 30.0, 1e-2, 1e-5)
    rec = SimpleNamespace(t=[], g=[], h=[], gdot=[], hdot=[], sup_u=[], sup_v=[])
    reasons = []
    for i in range(len(t)):
        for name, value in (("t", t[i]), ("g", -0.25), ("h", 0.25 + 3.5 * (t[i] > 58.0)),
                            ("gdot", -speed[i]), ("hdot", speed[i]),
                            ("sup_u", sup[i]), ("sup_v", 0.5 * sup[i])):
            getattr(rec, name).append(float(value))
        got = rule(rec)
        assert got == oracle(rec), (i, t[i])
        reasons.append(got)
    assert {None, "vanishing-plateau", "spreading-length"} <= set(reasons)
