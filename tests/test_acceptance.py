"""Acceptance scorecard: ten pinned-tolerance checks, one printed line each.

Quantitative targets come from closed forms (eigenvalue limits, coexistence
states) or from independent oracles built here (dense symmetric eigensolver);
the rest are property suites over batches of runs.  Every test prints a
single PASS/FAIL line so the pytest log doubles as a scorecard.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from frontlab import (
    InitialData,
    ModelParams,
    RunControl,
    build_vanishing_supersolution,
    check_domination,
    classify,
    critical_length,
    estimate_threshold,
    lambda_p_interval,
    make_dichotomy_stop,
    make_kernel,
    run,
    sweep,
)
from frontlab.config import parse_config
from frontlab.kernels import KNOWN_FAMILIES
from frontlab.model import coexistence_state, field_bounds
from frontlab.output import phase_csv
from frontlab.solver import initial_state

TENT = make_kernel("tent", 1.0)


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {num:02d}: {desc}" + (f" [{detail}]" if detail else "")


def test_criterion_01_eigenvalue_limits():
    t0 = time.perf_counter()
    lam_tiny = lambda_p_interval(1.0, 0.5, 0.0, 1e-3, TENT).lambda_p
    lam_huge = lambda_p_interval(1.0, 0.5, 0.0, 200.0, TENT).lambda_p
    ladder = [
        lambda_p_interval(1.0, 0.5, 0.0, ell, TENT).lambda_p
        for ell in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    ]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(lam_tiny - (-0.5)) <= 1e-2
        and abs(lam_huge - 0.5) <= 1e-2
        and all(a < b for a, b in zip(ladder, ladder[1:]))
        and elapsed < 60.0
    )
    _verdict(
        1,
        "eigenvalue tends to theta0-d for short intervals and theta0 for long ones, "
        "increasing in length",
        ok,
        f"lam(1e-3)={lam_tiny:.6g}, lam(200)={lam_huge:.6g}, {elapsed:.1f}s",
    )


def test_criterion_02_translation_invariance():
    left = lambda_p_interval(1.0, 0.5, 0.0, 2.0, TENT).lambda_p
    shifted = lambda_p_interval(1.0, 0.5, 5.0, 7.0, TENT).lambda_p
    diff = abs(left - shifted)
    _verdict(2, "eigenvalue depends on interval length only", diff <= 1e-12, f"diff={diff:.3e}")


def _dense_lambda(d, theta0, ell, kernel, spacing):
    """Oracle route: symmetrized dense eigensolver at a fixed node spacing."""
    n = max(9, math.ceil(ell / spacing) + 1)
    x = np.linspace(0.0, ell, n)
    h = ell / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    rt = np.sqrt(w)
    S = d * rt[:, None] * kernel(np.subtract.outer(x, x)) * rt[None, :]
    return float(scipy.linalg.eigh(S, eigvals_only=True)[-1]) + theta0 - d


def test_criterion_03_critical_length():
    crit = critical_length(1.0, 0.5, TENT, tol=1e-4)
    at_star = abs(crit.lambda_at_ell_star)

    # oracle: bisect the dense eigensolver at 4x the implementation's spacing
    spacing = TENT.radius / 40.0
    lo, hi = 0.5 * crit.ell_star, 2.0 * crit.ell_star
    f_lo = _dense_lambda(1.0, 0.5, lo, TENT, spacing)
    f_hi = _dense_lambda(1.0, 0.5, hi, TENT, spacing)
    assert f_lo < 0.0 < f_hi, "oracle bracket must straddle the sign change"
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _dense_lambda(1.0, 0.5, mid, TENT, spacing) <= 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    ordered = critical_length(1.0, 0.3, TENT).ell_star > critical_length(1.0, 0.6, TENT).ell_star
    rel = abs(crit.ell_star - oracle) / oracle
    ok = at_star < 1e-6 and rel <= 0.01 and ordered
    _verdict(
        3,
        "critical length zeroes the eigenvalue, matches a 4x-resolution oracle to 1%, "
        "and shrinks as the rate grows",
        ok,
        f"|lam|={at_star:.2e}, ell*={crit.ell_star:.5f}, oracle={oracle:.5f}, rel={rel:.2%}",
    )


def test_criterion_04_unconditional_spreading():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=1.0, b=0.5, c=0.5, mu=1e-4, rho=1e-4)
    init = InitialData.cosine(h0=0.2, amp_u=1e-3, amp_v=1e-3)
    t0 = time.perf_counter()
    ctrl = RunControl(
        horizon=500.0, n=400, record_every=10, stop_rule=make_dichotomy_stop(p, TENT, 500.0)
    )
    traj = run(p, init, TENT, ctrl)
    cls = classify(traj, p, TENT)
    elapsed = time.perf_counter() - t0
    ok = cls.verdict == "Spreading" and traj.t[-1] <= 500.0 and elapsed < 60.0
    _verdict(
        4,
        "growth rate at least the dispersal rate forces a Spreading verdict from tiny data",
        ok,
        f"verdict={cls.verdict} ({cls.certificate}) at t={traj.t[-1]:.2f}, {elapsed:.1f}s",
    )


def _vanishing_cases():
    cases = []
    for kind in ("competition", "predation"):
        for a in (0.3, 0.45):
            for h0 in (0.2, 0.25):
                for amp in (5e-3, 1e-2):
                    cases.append((kind, a, h0, amp))
    cases += [
        ("competition", 0.35, 0.28, 1e-2),
        ("predation", 0.35, 0.28, 1e-2),
        ("competition", 0.40, 0.22, 2e-3),
        ("predation", 0.40, 0.22, 2e-3),
    ]
    return cases


@pytest.fixture(scope="module")
def vanishing_batch():
    """Twenty sub-threshold runs (a < d1, tiny front budget, short habitat)."""
    batch = []
    for kind, a, h0, amp in _vanishing_cases():
        p = ModelParams(kind=kind, d1=1.0, d2=1.0, a=a, b=0.5, c=0.5, mu=5e-4, rho=5e-4)
        init = InitialData.cosine(h0=h0, amp_u=amp, amp_v=amp)
        ctrl = RunControl(
            horizon=40.0, n=64, record_every=10, stop_rule=make_dichotomy_stop(p, TENT, 40.0)
        )
        traj = run(p, init, TENT, ctrl)
        verdict = classify(traj, p, TENT).verdict
        batch.append((p, traj, verdict))
    return batch


def test_criterion_05_vanishing_length_bound(vanishing_batch):
    all_vanishing = all(v == "Vanishing" for _, _, v in vanishing_batch)
    worst = -np.inf
    within = True
    for p, traj, _ in vanishing_batch:
        final_len = float(traj.h[-1] - traj.g[-1])
        bound = math.pi * math.sqrt(p.d2) + 2.0 * final_len / traj.n
        within &= final_len <= bound
        worst = max(worst, final_len)
    ok = all_vanishing and within and len(vanishing_batch) == 20
    _verdict(
        5,
        "every vanishing run ends with habitat length at most pi*sqrt(d2) plus two "
        "grid spacings (20-run batch)",
        ok,
        f"max final length={worst:.4f} vs pi={math.pi:.4f}",
    )


def test_criterion_06_dichotomy_evidence(vanishing_batch):
    ok = True
    worst_norm = worst_speed = worst_lam = -np.inf
    for p, traj, verdict in vanishing_batch:
        lam = lambda_p_interval(
            p.d1, p.a, float(traj.g[-1]), float(traj.h[-1]), TENT
        ).lambda_p
        norms = max(float(traj.sup_u[-1]), float(traj.sup_v[-1]))
        speeds = max(abs(float(traj.gdot[-1])), abs(float(traj.hdot[-1])))
        ok &= verdict == "Vanishing" and norms < 1e-3 and speeds < 1e-3 and lam <= 1e-2
        worst_norm = max(worst_norm, norms)
        worst_speed = max(worst_speed, speeds)
        worst_lam = max(worst_lam, lam)
    _verdict(
        6,
        "vanishing runs end with decayed densities, stalled fronts, and a nonpositive "
        "habitat eigenvalue",
        ok,
        f"max norm={worst_norm:.2e}, max speed={worst_speed:.2e}, max lam={worst_lam:.3f}",
    )


def test_criterion_07_coexistence_limits():
    init = InitialData.cosine(h0=2.0, amp_u=0.5, amp_v=0.5)

    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.05, rho=0.05)
    traj = run(p, init, TENT, RunControl(horizon=300.0, n=400, dt=0.1, record_every=50))
    uc, vc = float(traj.u_center[-1]), float(traj.v_center[-1])
    uc_star, vc_star = coexistence_state(p)  # the long-time limit when spreading happens
    comp_ok = abs(uc - uc_star) / uc_star <= 0.05 and abs(vc - vc_star) / vc_star <= 0.05

    p2 = ModelParams(kind="predation", d1=1.0, d2=1.0, a=2.0, b=0.5, c=0.5, mu=0.05, rho=0.05)
    traj2 = run(p2, init, TENT, RunControl(horizon=300.0, n=400, dt=0.05, record_every=100))
    up, vp = float(traj2.u_center[-1]), float(traj2.v_center[-1])
    up_star, vp_star = coexistence_state(p2)
    pred_ok = abs(up - up_star) / up_star <= 0.05 and abs(vp - vp_star) / vp_star <= 0.05

    _verdict(
        7,
        "center densities reach the weak-regime coexistence states to 5% by t=300",
        comp_ok and pred_ok,
        f"competition ({uc:.4f},{vc:.4f}) vs ({uc_star:.4g},{vc_star:.4g}); "
        f"predation ({up:.4f},{vp:.4f}) vs ({up_star:.4g},{vp_star:.4g})",
    )


def test_criterion_08_threshold_bracket():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.5, b=0.5, c=0.5, mu=0.5, rho=0.5)
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    est = estimate_threshold(p, init, TENT)
    scanned = dict(est.scanned)
    ok = (
        0.0 < est.lower <= est.upper < math.inf
        and scanned.get(1e-6) == "Vanishing"
        and scanned.get(1e3) == "Spreading"
    )
    _verdict(
        8,
        "front-budget scan brackets a finite positive threshold between a vanishing "
        "scale of 1e-6 and a spreading scale of 1e3",
        ok,
        f"bracket=[{est.lower:.4g}, {est.upper:.4g}], monotone={est.monotone_flag}",
    )


def test_criterion_09_supersolution_domination():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.5, b=0.5, c=0.5, mu=0.1, rho=0.1)
    init = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)
    barrier = build_vanishing_supersolution(p, init, TENT, h1=0.3)
    traj = run(p, init, TENT, RunControl(horizon=40.0, n=200, record_every=10, snapshot_every=50))
    report = check_domination(barrier, traj, tol=1e-6)
    ok = report.budget_ok and report.dominated
    worst = max(
        report.max_violation_u,
        report.max_violation_v,
        report.max_violation_h,
        report.max_violation_g,
    )
    _verdict(
        9,
        "closed-form barrier dominates the simulated run at every stored sample "
        "within the front budget",
        ok,
        f"max violation={worst:.2e} over {report.samples_checked} samples, "
        f"budget={report.budget:.3f} vs mu+rho={report.mu_plus_rho}",
    )


def _check_kernel_invariants():
    good = True
    for family in KNOWN_FAMILIES:
        k = make_kernel(family, 1.0)
        mass, _ = scipy.integrate.quad(k, -k.radius, k.radius, points=[0.0], limit=200)
        xs = np.linspace(0.0, k.radius, 301)
        good &= abs(mass - 1.0) <= 1e-10
        good &= bool(np.all(k(xs) == k(-xs)))
        good &= abs(k.tail_mass(-k.radius) - 1.0) <= 1e-12
        good &= abs(k.tail_mass(0.0) - 0.5) <= 1e-12
        good &= k.tail_mass(k.radius) == 0.0
    return good


def _check_reflection_equivariance():
    h0 = 1.0

    def bump(amp, skew):
        def profile(x):
            x = np.asarray(x, dtype=float)
            base = amp * np.clip(np.cos(0.5 * math.pi * x / h0), 0.0, None)
            return base * (1.0 + skew * np.sin(math.pi * x / h0))

        return profile

    def mirrored(f):
        return lambda x: f(-np.asarray(x, dtype=float))

    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.2, rho=0.2)
    u0, v0 = bump(0.3, 0.4), bump(0.2, -0.3)
    init = InitialData(h0=h0, u0=u0, v0=v0)
    init_m = InitialData(h0=h0, u0=mirrored(u0), v0=mirrored(v0))
    ctrl = RunControl(horizon=1.0, n=100, record_every=10, snapshot_every=25)
    traj = run(p, init, TENT, ctrl)
    traj_m = run(p, init_m, TENT, ctrl)
    good = bool(np.all(np.abs(traj.g + traj_m.h) <= 1e-10))
    good &= bool(np.all(np.abs(traj.h + traj_m.g) <= 1e-10))
    last, last_m = traj.snapshots[-1], traj_m.snapshots[-1]
    good &= bool(np.all(np.abs(last.u - last_m.u[::-1]) <= 1e-10))
    good &= bool(np.all(np.abs(last.v - last_m.v[::-1]) <= 1e-10))
    return good


def _check_stepwise_bounds():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.2, rho=0.2)
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.4)
    n = 64
    s = initial_state(init, n)
    dy = 2.0 / n
    slope0 = float(np.max(np.abs(np.diff(s.z)))) / (dy * init.h0)
    bnds = field_bounds(p, init.h0, 0.3, 0.4, slope0)
    # every step of a dt = auto run
    traj = run(p, init, TENT, RunControl(horizon=6.5, n=n, record_every=1, snapshot_every=1))
    good = traj.termination == "horizon"
    for s in traj.snapshots:
        good &= float(s.u.min()) >= 0.0 and float(s.v.min()) >= 0.0
        good &= float(s.u.max()) <= bnds.k1 + 1e-8 and float(s.v.max()) <= bnds.k2 + 1e-8
    return good


def _check_richardson():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.5, rho=0.5)
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)

    def h_at(dt):
        traj = run(p, init, TENT, RunControl(horizon=2.0, n=64, dt=dt, record_every=10**6))
        return float(traj.h[-1])

    coarse, mid, fine = h_at(0.02), h_at(0.01), h_at(0.005)
    ratio = abs(coarse - mid) / abs(mid - fine)
    return ratio >= 1.8, ratio


def _check_sweep_determinism():
    cfg = parse_config(
        "kernel.family = tent\nkernel.radius = 1.0\nmodel.kind = competition\n"
        "model.d1 = 1.0\nmodel.d2 = 1.0\nmodel.a = 0.5\nmodel.b = 0.5\nmodel.c = 0.5\n"
        "model.mu = 0.05\nmodel.rho = 0.05\ninit.h0 = 0.25\ninit.amp_u = 1e-3\n"
        "init.amp_v = 1e-3\nnumerics.horizon = 30.0\nnumerics.n = 64\n"
        "numerics.record_every = 10\nsweep.a = 0.45, 1.0\nsweep.mu = 1e-4, 0.5\n"
    )
    serial = phase_csv(sweep(cfg, workers=1))
    parallel = phase_csv(sweep(cfg, workers=2))
    return serial == parallel


def test_criterion_10_property_suites():
    ric_ok, ratio = _check_richardson()
    checks = [
        ("kernel invariants", _check_kernel_invariants()),
        ("reflection equivariance", _check_reflection_equivariance()),
        ("stepwise positivity and bounds", _check_stepwise_bounds()),
        (f"Richardson factor {ratio:.2f} >= 1.8", ric_ok),
        ("sweep determinism across worker counts", _check_sweep_determinism()),
    ]
    failed = [name for name, good in checks if not good]
    _verdict(
        10,
        "property suites: kernel laws, mirror symmetry, bounds, time-step convergence, "
        "parallel determinism",
        not failed,
        "failed: " + ", ".join(failed) if failed else "",
    )
