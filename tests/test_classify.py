"""Verdict logic, threshold bracketing, and sweep plumbing.

Certificate logic is exercised on hand-crafted trajectories so each
branch is hit exactly, then on real runs for end-to-end agreement.
"""

import concurrent.futures
import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from frontlab import (
    ClassifyTolerances,
    ConfigError,
    InconclusiveError,
    InitialData,
    ModelParams,
    RegimeError,
    RunControl,
    ScanControl,
    SolverFailure,
    classify,
    ell_star_cached,
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


def test_plateau_rejected_when_eigenvalue_positive():
    # same decay profile on a habitat just under ell* = 0.632, where
    # lambda_p is about -0.007: with eigen_slack below that, the eigenvalue
    # check alone forbids Vanishing
    p = _params(a=0.5)
    tols = ClassifyTolerances(eigen_slack=-0.01)
    t = np.linspace(0.0, 100.0, 21)
    half = np.full(21, 0.31)  # length 0.62
    sup = np.geomspace(1e-2, 1e-5, 21)
    traj = _traj(t, half, sup, sup, np.full(21, 1e-7))
    cls = classify(traj, p, TENT, tols)
    assert cls.verdict == UNDECIDED
    assert cls.certificate == CERT_HORIZON
    assert tols.eigen_slack < cls.lambda_p_final < 0.0
    assert classify(traj, p, TENT).verdict == VANISHING


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
    rule = make_dichotomy_stop(p, TENT, horizon=40.0, tols=ClassifyTolerances())
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
    got = classify_module._classify_at_scales(
        _params(), init, TENT, [scale], (0.5, 0.5), ScanControl(), ClassifyTolerances()
    )
    assert got == [verdict]


def test_threshold_scales_batched_match_one_at_a_time():
    # the three pinned scales as one batch give each scale's own verdict
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    scales = [11.78768634793589, 17.06643681296347, 24.709112279856093]
    got = classify_module._classify_at_scales(
        _params(), init, TENT, scales, (0.5, 0.5), ScanControl(), ClassifyTolerances()
    )
    assert got == [VANISHING, VANISHING, SPREADING]


def test_solver_failure_at_a_scale_is_undecided_without_retry(monkeypatch):
    calls = []

    def failing_run_batch(jobs, k, ctrl):
        calls.append((len(jobs), ctrl.dt))
        return [SolverFailure("stability bound violated") for _ in jobs]

    monkeypatch.setattr(classify_module, "run_batch", failing_run_batch)
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    got = classify_module._classify_at_scales(
        _params(), init, TENT, [17.0], (0.5, 0.5), ScanControl(), ClassifyTolerances()
    )
    assert got == [UNDECIDED]
    assert calls == [(1, None)]  # one dt = auto attempt


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
    # 4 cells: one batch in-process, 2 and 3 batches in a pool, and more
    # workers than cells
    cfg = _sweep_config("sweep.a = 0.5, 1.0\nsweep.mu = 1e-6, 10.0\n", horizon=10.0)
    serial = phase_csv(sweep(cfg, workers=1))
    for workers in (2, 3, 5):
        assert phase_csv(sweep(cfg, workers=workers)) == serial  # byte-identical
    # the Gaussian kernel, whose tail mass calls scipy.special.erf in the pool workers
    cfg = _sweep_config("sweep.a = 0.5, 1.0\nsweep.mu = 1e-6, 10.0\n", horizon=10.0, family="truncated_gaussian")
    serial = phase_csv(sweep(cfg, workers=1))
    for workers in (2, 3):
        assert phase_csv(sweep(cfg, workers=workers)) == serial


def test_sweep_starts_no_more_processes_than_batches(monkeypatch):
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers=None, **kwargs):
        started.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    cfg = _sweep_config("sweep.mu = 1e-6, 10.0\n", horizon=5.0)
    pooled = sweep(cfg, workers=8)
    assert started == [2]  # two cells, two batches
    assert phase_csv(sweep(cfg, workers=1)) == phase_csv(pooled)
    assert started == [2]  # one batch runs in-process


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


def _scan_rule(p, horizon, tols):
    """The stop rule with its trailing window found by a full scan of rec.t:
    the oracle for make_dichotomy_stop's bisection."""
    threshold = min(_spread_lengths(p, TENT))
    window = tols.window_fraction * horizon

    def rule(rec):
        if rec.h[-1] - rec.g[-1] > threshold:
            return "spreading-length"
        t_now = rec.t[-1]
        if t_now >= 2.0 * window:
            tail = [i for i, t in enumerate(rec.t) if t >= t_now - window]
            if len(tail) >= 3 and all(
                rec.sup_u[i] < tols.vanish_tol
                and rec.sup_v[i] < tols.vanish_tol
                and abs(rec.gdot[i]) < tols.speed_tol
                and abs(rec.hdot[i]) < tols.speed_tol
                for i in tail
            ):
                return "vanishing-plateau"
        return None

    return rule


def test_stop_rule_window_by_bisection_matches_scan():
    p = _params(a=0.5)
    tols = ClassifyTolerances()
    horizon = 60.0
    rule = make_dichotomy_stop(p, TENT, horizon, tols)
    oracle = _scan_rule(p, horizon, tols)
    # record times 0.05 apart, so the window edge t_now - 6 often lands on a
    # record; sup norms decay through vanish_tol, with bursts at t = 38, 47
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
