"""Moving-domain solver: transform algebra, flux oracle, invariants, convergence.

The flux oracle rebuilds the front law from scratch with adaptive
quadrature (nested scipy.integrate.quad, never the kernel's closed-form
tail), so the solver's trapezoid flux is checked against an independent
route at its own discretization error scale.
"""

import functools
import math
import operator
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from frontlab import (
    InitialData,
    ModelParams,
    RunControl,
    SolverFailure,
    lambda_p_interval,
    run,
    solver,
)
from frontlab.eigen import EigenProblem, lambda_p
from frontlab.kernels import Kernel, nonlocal_apply, trapezoid_weights
from frontlab.model import coexistence_state, field_bounds
from frontlab.solver import State, auto_dt, initial_state, reference_grid

TENT = Kernel("tent", 1.0)


def _batch(p: ModelParams, k: Kernel, s: State) -> solver._Batch:
    """A batch of one row holding s, as run() builds it."""
    return solver._Batch(k, [solver._Row(p, s)], np.array([(s.w, s.z)]))


def velocities(s: State, p: ModelParams, k: Kernel) -> tuple[float, float]:
    """(gdot, hdot) at s from the solver's front law."""
    batch = _batch(p, k, s)
    solver.boundary_velocities(batch)
    return batch.rows[0].gdot, batch.rows[0].hdot


def step(s: State, p: ModelParams, k: Kernel, dt: float) -> State:
    """One IMEX Euler step from s, with the field bounds taken from s as initial data."""
    batch = _batch(p, k, s)
    solver.boundary_velocities(batch)
    failed = batch.step([batch.rows[0].plan(dt, batch)])
    if failed:
        raise failed[0][1]
    return batch.state(0)


def fixed_domain_run(d, theta0, interval, u0, k, T, dt=None):
    """Nonlocal logistic equation u_t = d*(K u - u) + u*(theta0 - u) on a
    fixed interval (no boundary condition is needed; the operator is
    nonlocal).  Returns the final field and a persistence verdict:
    'persists' when the sup-norm plateaus above 1e-3, 'dies' when it
    decays below 1e-6, 'undecided' otherwise.

    The fixed-habitat oracle: its verdict must follow the sign of the
    principal eigenvalue.
    """
    l1, l2 = interval
    if not (l2 > l1):
        raise ValueError(f"degenerate interval ({l1}, {l2})")
    u = np.asarray(u0, dtype=float).copy()
    n = len(u)
    if n < 9:
        raise ValueError("need at least 9 samples")
    hx = (l2 - l1) / (n - 1)
    if hx >= k.radius / 4.0:
        raise ValueError(f"spacing {hx:.3g} too coarse for kernel radius {k.radius:.3g}")
    if u.min() < 0:
        raise ValueError("u0 must be nonnegative")

    wq = trapezoid_weights(n, hx)

    cap = max(theta0, float(u.max()), 0.0)
    if dt is None:
        dt = solver._CFL / (d + abs(theta0) + 2.0 * cap + 1.0)
    n_steps = max(1, math.ceil(T / dt))
    check_every = max(1, int(round(1.0 / dt)))  # compare sup-norms ~1 time unit apart

    sup_prev = float(u.max())
    verdict = "undecided"
    for istep in range(1, n_steps + 1):
        u = u + dt * (d * (nonlocal_apply(k, hx, wq * u) - u) + u * (theta0 - u))
        solver._clamp_roundoff(u, istep * dt, "u")
        if float(u.max()) > 10.0 * (cap + 1.0):
            raise SolverFailure(f"fixed-domain run blew up at t={istep * dt}")
        if istep % check_every == 0 or istep == n_steps:
            sup_now = float(u.max())
            if sup_now < 1e-6:
                verdict = "dies"
                break
            if sup_now > 1e-3 and abs(sup_now - sup_prev) <= 1e-6 * sup_now:
                verdict = "persists"
                break
            sup_prev = sup_now
    return u, verdict


def _params(kind="competition", **kw):
    base = dict(kind=kind, d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.2, rho=0.2)
    base.update(kw)
    return ModelParams(**base)


def test_reference_grid():
    y, wq = reference_grid(10)
    assert y[0] == -1.0 and y[-1] == 1.0
    assert len(y) == 11 and len(wq) == 11
    assert y[1] - y[0] == pytest.approx(0.2)
    assert wq[1] == pytest.approx(0.2) and wq[0] == wq[-1] == pytest.approx(0.1)
    assert wq.sum() == pytest.approx(2.0)
    assert reference_grid(10)[0] is y  # shared per n ...
    with pytest.raises(ValueError):
        y[3] = 0.0  # ... so read-only
    with pytest.raises(ValueError):
        reference_grid(4)


def test_transform_coefficients_hand_values():
    n = 8
    y = np.linspace(-1.0, 1.0, n + 1)
    xi, zeta = transform_coefficients(g=-1.0, h=3.0, gdot=-0.5, hdot=1.0, n=n)
    assert xi == pytest.approx((2.0 / 4.0) ** 2)
    expect = (2.0 / 4.0) * (0.25 + 0.75 * y)
    np.testing.assert_allclose(zeta, expect, atol=1e-15)


def test_transform_rejects_degenerate_domain():
    with pytest.raises(SolverFailure):
        transform_coefficients(1.0, 1.0, 0.0, 0.0, 8)


def test_initial_state_pins_endpoints_and_rejects_negative():
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2)
    s = initial_state(init, 50)
    assert s.w[0] == 0.0 and s.w[-1] == 0.0
    assert s.z[0] == 0.0 and s.z[-1] == 0.0
    assert s.g == -1.0 and s.h == 1.0
    assert s.w.max() == pytest.approx(0.3)
    bad = InitialData(h0=1.0, u0=lambda x: np.cos(np.pi * np.asarray(x)), v0=lambda x: 0 * np.asarray(x))
    with pytest.raises(ValueError):
        initial_state(bad, 50)


@pytest.mark.parametrize(
    "fields, message",
    [
        # the config rejects it too; 0 is the only way to turn snapshots off
        ({"snapshot_every": -3}, "snapshot_every must be >= 0, got -3"),
        ({"n": 7}, "n must be at least 8, got 7"),
        ({"record_every": 0}, "record_every must be >= 1, got 0"),
        ({"dt": 0.0}, "dt must be positive, got 0.0"),
        ({"dt": -0.1}, "dt must be positive, got -0.1"),
    ],
)
def test_run_control_rejects_a_setting_it_cannot_run(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunControl(horizon=1.0, **fields)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_initial_state_rejects_non_finite_profiles(bad_value):
    # the steps check only their own output, so a NaN or inf in the data
    # must be caught here; NaN slips through a bare "min() < 0" test
    def u0(x):
        u = 0.3 * np.cos(0.5 * np.pi * np.asarray(x, dtype=float))
        u[len(u) // 2] = bad_value
        return u

    bad = InitialData(h0=1.0, u0=u0, v0=lambda x: 0.2 * np.cos(0.5 * np.pi * np.asarray(x)))
    with pytest.raises(ValueError, match="finite"):
        initial_state(bad, 50)
    with pytest.raises(ValueError, match="finite"):
        initial_state(InitialData(h0=1.0, u0=bad.v0, v0=u0), 50)


def test_boundary_velocities_against_quadrature_oracle():
    p = _params(mu=0.3, rho=0.7)
    n = 400
    y = np.linspace(-1.0, 1.0, n + 1)
    g, h = -1.2, 2.0
    length = h - g
    w = np.clip(1.0 - np.abs(y + 0.1), 0.0, None)
    w[0] = w[-1] = 0.0
    amp = 0.6
    z = amp * (1.0 - y * y)
    s = State(t=0.0, g=g, h=h, w=w, z=z)
    gdot, hdot = velocities(s, p, TENT)

    # v is the parabola amp*(1-y^2); its one-sided slope at the fronts is exact
    vx_h = -2.0 * amp * 2.0 / length
    vx_g = 2.0 * amp * 2.0 / length

    def u_of_x(x):
        return float(np.interp((2.0 * x - (g + h)) / length, y, w))

    def tail(lo):
        if lo >= TENT.radius:
            return 0.0
        return quad(lambda q: float(TENT(np.asarray(q))), lo, TENT.radius, limit=200)[0]

    flux_h = quad(lambda x: u_of_x(x) * tail(h - x), max(g, h - TENT.radius), h, limit=400)[0]
    flux_g = quad(lambda x: u_of_x(x) * tail(x - g), g, min(h, g + TENT.radius), limit=400)[0]
    assert hdot == pytest.approx(-p.mu * vx_h + p.rho * flux_h, abs=1e-4)
    assert gdot == pytest.approx(-p.mu * vx_g - p.rho * flux_g, abs=1e-4)


def test_zero_fields_are_stationary():
    s = State(t=0.0, g=-1.0, h=1.0, w=np.zeros(101), z=np.zeros(101))
    gdot, hdot = velocities(s, _params(), TENT)
    assert gdot == 0.0 and hdot == 0.0
    s2 = step(s, _params(), TENT, dt=0.01)
    assert s2.g == -1.0 and s2.h == 1.0
    assert not s2.w.any() and not s2.z.any()


def test_front_advance_below_half_ulp_is_not_a_monotonicity_violation():
    # fields of size 1e-20 give dt*h' far below half an ulp of h, so the
    # fronts do not move in floating point although h' > 0 > g'
    init = InitialData.cosine(h0=0.6, amp_u=1e-20, amp_v=1e-20)
    s = initial_state(init, 120)
    p = _params(a=0.5, mu=0.01, rho=0.01)
    gdot, hdot = velocities(s, p, TENT)
    assert hdot > 0.0 > gdot
    s2 = step(s, p, TENT, dt=0.05)
    assert s2.h == s.h and s2.g == s.g


def test_step_advances_time_and_pins_endpoints():
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2)
    s = initial_state(init, 64)
    s = step(s, _params(), TENT, dt=0.01)
    assert s.t == pytest.approx(0.01)
    assert s.w[0] == 0.0 and s.w[-1] == 0.0
    assert s.z[0] == 0.0 and s.z[-1] == 0.0
    assert s.h > 1.0 and s.g < -1.0  # positive data pushes both fronts out


def test_positivity_and_bounds_every_step():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.7, amp_v=0.9)
    bnds = field_bounds(p, 0.7, 0.9)
    traj = run(p, init, TENT, RunControl(horizon=2.5, n=80, record_every=1, snapshot_every=1))
    assert len(traj.snapshots) == len(traj.t) > 20  # every step under dt = auto
    for s in traj.snapshots:
        assert s.u.min() >= 0.0 and s.v.min() >= 0.0
        assert s.u.max() <= bnds.k1 + 1e-8
        assert s.v.max() <= bnds.k2 + 1e-8
        assert s.g < s.h


def test_mirror_symmetry_preserved():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.4, amp_v=0.4)
    s = initial_state(init, 100)
    for _ in range(100):
        s = step(s, p, TENT, dt=0.02)
    assert abs(s.g + s.h) <= 1e-10
    np.testing.assert_allclose(s.w, s.w[::-1], atol=1e-10)
    np.testing.assert_allclose(s.z, s.z[::-1], atol=1e-10)
    gdot, hdot = velocities(s, p, TENT)
    assert abs(gdot + hdot) <= 1e-12


def test_reflection_equivariance():
    p = _params("predation", d2=0.8, a=0.9, b=0.4, c=0.3, mu=0.2, rho=0.3)
    h0 = 1.2

    def u0(x):
        x = np.asarray(x)
        bump = np.clip(np.cos(0.5 * np.pi * x / h0), 0.0, None)
        return 0.05 * bump * (1.0 + 0.4 * np.sin(np.pi * x / h0))

    def v0(x):
        x = np.asarray(x)
        bump = np.clip(np.cos(0.5 * np.pi * x / h0), 0.0, None)
        return 0.08 * bump * (1.0 - 0.3 * np.sin(0.5 * np.pi * x / h0))

    s = initial_state(InitialData(h0, u0, v0), 100)
    sr = initial_state(
        InitialData(h0, lambda x: u0(-np.asarray(x)), lambda x: v0(-np.asarray(x))), 100
    )
    for _ in range(200):
        s = step(s, p, TENT, dt=0.01)
        sr = step(sr, p, TENT, dt=0.01)
    assert abs(s.g + sr.h) <= 1e-10 and abs(s.h + sr.g) <= 1e-10
    np.testing.assert_allclose(s.w, sr.w[::-1], atol=1e-10)
    np.testing.assert_allclose(s.z, sr.z[::-1], atol=1e-10)


def test_stability_guard_aborts_instead_of_substepping():
    init = InitialData.cosine(h0=1.0, amp_u=0.5, amp_v=0.5)
    s = initial_state(init, 64)
    with pytest.raises(SolverFailure) as err:
        for _ in range(50):
            s = step(s, _params(), TENT, dt=5.0)
    assert "dt" in str(err.value)


def test_auto_dt_is_stable():
    # each auto step stays within 0.9 of the stability bound at the
    # advection speed of the state it starts from
    p = _params()
    init = InitialData.cosine(h0=1.5, amp_u=0.5, amp_v=0.5)
    n = 100
    traj = run(p, init, TENT, RunControl(horizon=1.0, n=n, record_every=1))
    assert traj.termination == "horizon"
    s0 = initial_state(init, n)
    rate_cap = solver._data_bounds(p, s0.w.max(), s0.z.max())[1]
    zeta = 2.0 / traj.length[:-1] * np.maximum(-traj.gdot[:-1], traj.hdot[:-1])
    cap = 0.9 * solver._CFL * np.minimum(2.0 / n / zeta, 1.0 / rate_cap)
    assert np.all(np.diff(traj.t) <= cap * (1.0 + 1e-12))


def test_auto_dt_first_step_and_speed_change_guard():
    p = _params()
    s = initial_state(InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3), 64)
    rate_cap = solver._data_bounds(p, s.w.max(), s.z.max())[1]
    gdot, hdot = -0.2, 0.2
    cap = solver._dt_cap(0.9 * solver._CFL, 2.0 / 64, 2.0 / (s.h - s.g) * 0.2, rate_cap)
    # no previous step: a fraction of the stability bound
    assert auto_dt(64, s.h - s.g, gdot, hdot, rate_cap, None) == solver._SPEED_CHANGE * cap
    # speeds that did not change leave the stability bound
    assert auto_dt(64, s.h - s.g, gdot, hdot, rate_cap, (gdot, hdot, 1e-3)) == cap
    # h' changed by 0.1 over a step of 1e-3; the next step may change it by
    # _SPEED_CHANGE of the larger speed, 0.3
    dt = auto_dt(64, s.h - s.g, gdot, hdot, rate_cap, (-0.2, 0.3, 1e-3))
    assert dt == pytest.approx(solver._SPEED_CHANGE * 0.3 * 1e-3 / 0.1)
    assert dt < cap


def test_auto_dt_run_ends_on_the_horizon_exactly():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    for horizon in (0.37, 1.0, 2.9):
        traj = run(p, init, TENT, RunControl(horizon=horizon, n=64, record_every=7, snapshot_every=5))
        assert traj.termination == "horizon"
        assert traj.t[-1] == horizon
        assert traj.snapshots[-1].t == horizon
        assert np.all(np.diff(traj.t) > 0.0)


def test_auto_dt_runs_are_identical_on_rerun():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    ctrl = RunControl(horizon=3.0, n=64, record_every=3, snapshot_every=10)
    first, second = run(p, init, TENT, ctrl), run(p, init, TENT, ctrl)
    for name in solver.TRAJECTORY_COLUMNS:
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert len(first.snapshots) == len(second.snapshots)
    for a, b in zip(first.snapshots, second.snapshots):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v) and a.t == b.t


def test_run_records_endpoints_and_samples():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    traj = run(p, init, TENT, RunControl(horizon=1.0, n=64, dt=0.01, record_every=25))
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(1.0)
    assert traj.termination == "horizon"
    assert traj.n == 64
    assert len(traj.t) == len(traj.h) == len(traj.sup_u)
    assert np.all(np.diff(traj.t) > 0.0)


def test_run_stop_rule_and_termination_string():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    ctrl = RunControl(horizon=10.0, n=64, dt=0.01, record_every=10)
    traj = run(p, init, TENT, ctrl, stop_rule=lambda rec: "probe" if rec.t[-1] >= 0.5 else None)
    assert traj.termination == "stop:probe"
    assert traj.t[-1] < 1.0


def test_run_snapshots_cadence():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    traj = run(
        p, init, TENT, RunControl(horizon=0.5, n=64, dt=0.01, record_every=10, snapshot_every=20)
    )
    assert len(traj.snapshots) >= 2
    snap = traj.snapshots[0]
    assert snap.x[0] == pytest.approx(traj.g[0]) and snap.x[-1] == pytest.approx(traj.h[0])
    assert snap.u[0] == 0.0 and snap.u[-1] == 0.0


def test_u_center_equals_midnode_when_symmetric():
    p = _params()
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.3)
    traj = run(
        p, init, TENT, RunControl(horizon=0.5, n=64, dt=0.01, record_every=25, snapshot_every=50)
    )
    snap = traj.snapshots[-1]
    mid = len(snap.u) // 2
    assert traj.u_center[-1] == pytest.approx(snap.u[mid], abs=1e-12)


def test_richardson_front_convergence_in_dt():
    p = _params()
    init = InitialData.cosine(h0=1.5, amp_u=0.5, amp_v=0.5)
    finals = []
    for dt in (0.02, 0.01, 0.005):
        traj = run(p, init, TENT, RunControl(horizon=2.0, n=100, dt=dt, record_every=10**6))
        finals.append(float(traj.h[-1]))
    e_coarse = abs(finals[0] - finals[1])
    e_fine = abs(finals[1] - finals[2])
    assert e_coarse / e_fine >= 1.8  # first-order stepping


def test_comparison_ordering_when_decoupled():
    # b = c ~ 0 splits the system into two monotone scalar problems, so
    # larger initial data must stay larger (fronts and norms alike)
    p = _params(b=1e-16, c=1e-16)
    small = run(
        p, InitialData.cosine(1.5, 0.1, 0.1), TENT, RunControl(horizon=5.0, n=100, dt=0.01, record_every=20)
    )
    big = run(
        p, InitialData.cosine(1.5, 0.2, 0.2), TENT, RunControl(horizon=5.0, n=100, dt=0.01, record_every=20)
    )
    assert np.all(small.h <= big.h + 1e-8)
    assert np.all(small.g >= big.g - 1e-8)
    assert np.all(small.sup_u <= big.sup_u + 1e-8)
    assert np.all(small.sup_v <= big.sup_v + 1e-8)


def test_fixed_domain_verdicts_follow_eigenvalue_sign():
    x = np.linspace(0.0, 4.0, 161)
    u0 = 0.01 * np.sin(np.pi * x / 4.0)
    _, verdict_pos = fixed_domain_run(1.0, 0.5, (0.0, 4.0), u0, TENT, 400.0)
    _, verdict_neg = fixed_domain_run(1.0, -0.2, (0.0, 4.0), u0, TENT, 400.0)
    assert lambda_p_interval(1.0, 0.5, 0.0, 4.0, TENT).lambda_p > 0.0
    assert lambda_p_interval(1.0, -0.2, 0.0, 4.0, TENT).lambda_p < 0.0
    assert verdict_pos == "persists"
    assert verdict_neg == "dies"


def test_fixed_domain_steady_state_matches_fixed_point_oracle():
    d, theta0 = 1.0, 0.5
    n = 161
    x = np.linspace(0.0, 4.0, n)
    hx = 4.0 / (n - 1)
    wq = np.full(n, hx)
    wq[0] = wq[-1] = hx / 2.0
    Mw = TENT(np.subtract.outer(x, x)) * wq[None, :]

    # steady state solves u^2 - (theta0-d) u - d K u = 0 pointwise; damped
    # fixed-point iteration on the positive root converges monotonically
    u = np.full(n, 0.1)
    for _ in range(20000):
        u_new = 0.5 * ((theta0 - d) + np.sqrt((theta0 - d) ** 2 + 4.0 * d * (Mw @ u)))
        if np.max(np.abs(u_new - u)) < 1e-14:
            u = u_new
            break
        u = 0.5 * u + 0.5 * u_new

    u_run, verdict = fixed_domain_run(d, theta0, (0.0, 4.0), 0.01 * np.sin(np.pi * x / 4.0), TENT, 600.0)
    assert verdict == "persists"
    assert np.max(np.abs(u_run - u)) <= 1e-3


def test_fixed_domain_validation():
    x = np.linspace(0.0, 4.0, 9)
    with pytest.raises(ValueError):
        fixed_domain_run(1.0, 0.5, (4.0, 0.0), np.zeros(9), TENT, 1.0)
    with pytest.raises(ValueError):
        fixed_domain_run(1.0, 0.5, (0.0, 4.0), np.full(5, 0.1), TENT, 1.0)
    with pytest.raises(ValueError):
        fixed_domain_run(1.0, 0.5, (0.0, 4.0), x * 0 - 1.0, TENT, 1.0)


def transform_coefficients(g: float, h: float, gdot: float, hdot: float, n: int) -> tuple[float, np.ndarray]:
    """Mapped-frame coefficients on the habitat [g, h] with n reference
    intervals: xi = (2/(h-g))^2 and the per-node advection speed
    zeta_i = (2/(h-g)) * x_t(t, y_i), for one run."""
    length = h - g
    if not (length > 0):
        raise SolverFailure(f"degenerate domain: g={g}, h={h}")
    y = reference_grid(n)[0]
    x_t = 0.5 * (gdot + hdot) + y * 0.5 * (hdot - gdot)
    scale = 2.0 / length
    return scale * scale, scale * x_t


def _slopes(s: State) -> tuple[float, float]:
    """The one-sided second-order v_x at g and at h, in numpy scalars."""
    n = len(s.w) - 1
    dy, scale = 2.0 / n, 2.0 / (s.h - s.g)
    vx_left = (-3.0 * s.z[0] + 4.0 * s.z[1] - s.z[2]) / (2.0 * dy) * scale
    vx_right = (3.0 * s.z[-1] - 4.0 * s.z[-2] + s.z[-3]) / (2.0 * dy) * scale
    return vx_left, vx_right


def _front_m(s: State, k: Kernel) -> int:
    """The number of nodes nearest each front that the flux sums take."""
    n = len(s.w) - 1
    return int(min(n + 1.0, k.radius * n / (s.h - s.g) + 2.0))


def _oracle_velocities(s: State, p: ModelParams, k: Kernel) -> tuple[float, float]:
    """The front law evaluated one front at a time on one state, in the
    solver's arithmetic: the m nodes nearest the front at distances
    j*(h-g)/n, j = 0..m-1, and their flux terms added one at a time from
    the front inward."""
    n, m, length = len(s.w) - 1, _front_m(s, k), s.h - s.g
    wq = reference_grid(n)[1][:m] * (0.5 * length)

    def flux(u):  # u ordered from the front inward
        terms = wq * k.tail_mass(np.arange(m) * (length / n)) * u[:m]
        return functools.reduce(operator.add, terms.tolist())

    vx_left, vx_right = _slopes(s)
    return -p.mu * vx_left - p.rho * flux(s.w), -p.mu * vx_right + p.rho * flux(s.w[::-1])


def _fsum_velocities(s: State, p: ModelParams, k: Kernel) -> tuple[float, float]:
    """The front law from the node positions: distances h - x and x - g
    over the m nodes nearest each front, one tail_mass call and one
    exactly rounded fsum per front."""
    n, m = len(s.w) - 1, _front_m(s, k)
    y, wq_ref = reference_grid(n)
    length = s.h - s.g
    x = 0.5 * (s.g + s.h) + y * 0.5 * length
    wq = wq_ref * (0.5 * length)
    flux_right = math.fsum(wq[-m:] * k.tail_mass(s.h - x[-m:]) * s.w[-m:])
    flux_left = math.fsum(wq[:m] * k.tail_mass(x[:m] - s.g) * s.w[:m])
    vx_left, vx_right = _slopes(s)
    return -p.mu * vx_left - p.rho * flux_left, -p.mu * vx_right + p.rho * flux_right


class _OracleStepper:
    """One run stepped field by field on full-length arrays: the reaction
    one species at a time, the nonlocal operator as the full convolution
    with taps at all 2m+1 offsets, one upwind pass per field, max |zeta|
    over every node, the v-solve through scipy.linalg.solve_banded, and
    the same checks and messages as the solver's."""

    def __init__(self, p: ModelParams, k: Kernel, s0: State):
        self.p, self.k = p, k
        self.n = len(s0.w) - 1
        self.wq_ref = reference_grid(self.n)[1]
        self.dy = 2.0 / self.n
        self.bounds, self.rate_cap = solver._data_bounds(p, s0.w.max(), s0.z.max())

    def step(self, s: State, dt: float, gdot: float, hdot: float) -> State:
        p, k, n, dy = self.p, self.k, self.n, self.dy
        g1, h1 = s.g + dt * gdot, s.h + dt * hdot
        xi, zeta = transform_coefficients(g1, h1, gdot, hdot, n)
        length = h1 - g1
        zeta_max = float(np.max(np.abs(zeta)))
        dt_cap = solver._dt_cap(solver._CFL, dy, zeta_max, self.rate_cap)
        if dt > dt_cap:
            raise SolverFailure(
                f"stability bound violated at t={s.t}: dt={dt:.3e} > {dt_cap:.3e} "
                f"(max |zeta|={zeta_max:.3e}); rerun with a smaller dt"
            )
        w, z = s.w, s.z
        # the reaction terms one species at a time, with the predation sign written out
        f1 = w * (p.a - w - p.b * z)
        f2 = z * (1.0 - z - p.c * w) if p.kind == "competition" else z * (1.0 - z + p.c * w)
        mk = min(n, math.floor(k.radius / (length / n)))
        taps = k(np.arange(-mk, mk + 1) * (length / n))
        Ku = np.convolve(self.wq_ref * (0.5 * length) * w, taps)[mk : mk + n + 1]

        def upwind(f):
            d = np.zeros_like(f)
            d[1:-1] = np.where(zeta[1:-1] > 0.0, (f[2:] - f[1:-1]) / dy, (f[1:-1] - f[:-2]) / dy)
            return d

        w1 = w + dt * (zeta * upwind(w) + p.d1 * (Ku - w) + f1)
        w1[0] = w1[-1] = 0.0
        rhs = z + dt * (zeta * upwind(z) + f2)
        alpha = dt * p.d2 * xi / (dy * dy)
        band = np.empty((3, n - 1))
        band[0] = band[2] = -alpha
        band[1] = 1.0 + 2.0 * alpha
        z1 = np.zeros_like(z)
        z1[1:-1] = scipy.linalg.solve_banded((1, 1), band, rhs[1:-1])
        solver._clamp_roundoff(w1, s.t + dt, "u")
        solver._clamp_roundoff(z1, s.t + dt, "v")
        t1 = s.t + dt
        if not (hdot >= 0.0 >= gdot and h1 >= s.h and g1 <= s.g):
            raise SolverFailure(f"front monotonicity violated at t={t1}: h {s.h} -> {h1}, g {s.g} -> {g1}")
        wmax, zmax = float(w1.max()), float(z1.max())
        if not (math.isfinite(wmax) and math.isfinite(zmax)):
            raise SolverFailure(f"non-finite field values at t={t1}")
        if not (wmax <= self.bounds.k1 * (1.0 + solver._BOUND_SLACK)):
            raise SolverFailure(f"u bound breached at t={t1}: max u={wmax} > k1={self.bounds.k1}")
        if not (zmax <= self.bounds.k2 * (1.0 + solver._BOUND_SLACK)):
            raise SolverFailure(f"v bound breached at t={t1}: max v={zmax} > k2={self.bounds.k2}")
        return State(t=t1, g=g1, h=h1, w=w1, z=z1)


def _oracle_run(p, init, k, ctrl, stop_rule=None):
    """run() for one job, stepped by _OracleStepper and _oracle_velocities."""
    state = initial_state(init, ctrl.n)
    stepper = _OracleStepper(p, k, state)
    y = reference_grid(ctrl.n)[0]
    n_steps = None if ctrl.dt is None else max(1, math.ceil(ctrl.horizon / ctrl.dt))
    rec, snapshots, termination = solver._Recorder(), [], "horizon"

    def snap(s):
        x = 0.5 * (s.g + s.h) + y * 0.5 * (s.h - s.g)
        snapshots.append(solver.Snapshot(t=s.t, g=s.g, h=s.h, x=x, u=s.w.copy(), v=s.z.copy()))

    gdot, hdot = _oracle_velocities(state, p, k)
    rec.add(state, gdot, hdot, (float(state.w.max()), float(state.z.max())))
    if ctrl.snapshot_every > 0:
        snap(state)
    istep, last, prev = 0, False, None
    while not last:
        istep += 1
        if n_steps is None:
            dt = min(auto_dt(ctrl.n, state.h - state.g, gdot, hdot, stepper.rate_cap, prev), ctrl.horizon - state.t)
            last = dt == ctrl.horizon - state.t
            prev = (gdot, hdot, dt)
        else:
            dt, last = ctrl.dt, istep == n_steps
        state = stepper.step(state, dt, gdot, hdot)
        if last and n_steps is None:
            state.t = ctrl.horizon
        gdot, hdot = _oracle_velocities(state, p, k)
        recorded = istep % ctrl.record_every == 0 or last
        if recorded:
            rec.add(state, gdot, hdot, (float(state.w.max()), float(state.z.max())))
        if ctrl.snapshot_every > 0 and (istep % ctrl.snapshot_every == 0 or last):
            snap(state)
        if recorded and stop_rule is not None:
            reason = stop_rule(rec)
            if reason:
                termination = f"stop:{reason}"
                break
    return rec.to_trajectory(termination, ctrl.n, snapshots)


def _assert_same_run(got, want):
    assert got.termination == want.termination
    for name in solver.TRAJECTORY_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.snapshots) == len(want.snapshots)
    for a, b in zip(got.snapshots, want.snapshots):
        assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
        assert np.array_equal(a.x, b.x) and a.t == b.t


def _tilted(h0, amp, tilt):
    def f(x):
        x = np.asarray(x, dtype=float)
        return amp * np.clip(np.cos(0.5 * np.pi * x / h0), 0.0, None) * (1.0 + tilt * np.sin(np.pi * x / h0))

    return f


# radius-1 kernels on n = 64 intervals: a habitat shorter than the radius
# (the kernel spans the grid, m = n), between one and two radii
# (n/2 < m < n), and longer than two radii (m < n/2)
@pytest.mark.parametrize("h0", [0.4, 0.75, 1.5], ids=["m=n", "n/2<m<n", "m<n/2"])
@pytest.mark.parametrize("dt", [0.004, None], ids=["fixed-dt", "auto-dt"])
@pytest.mark.parametrize("kind", ["competition", "predation"])
@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_step_and_velocities_match_field_by_field_oracle(family, kind, dt, h0):
    p = _params(kind, d2=0.8, a=0.9, b=0.4, c=0.3, mu=0.3, rho=2.0)
    init = InitialData(h0, _tilted(h0, 0.6, 0.4), _tilted(h0, 0.5, -0.3))
    k = Kernel(family, 1.0)
    ctrl = RunControl(horizon=0.6, n=64, dt=dt, record_every=1, snapshot_every=7)
    got = run(p, init, k, ctrl)
    want = _oracle_run(p, init, k, ctrl)
    assert got.termination == want.termination == "horizon"
    assert got.h[-1] - got.h[0] > 1e-3  # the fronts moved
    assert len(got.snapshots) > 1
    _assert_same_run(got, want)


@pytest.mark.parametrize("h0", [0.4, 0.75, 1.5], ids=["m=n+1", "n/2<m<n", "m<n/2"])
@pytest.mark.parametrize("kind", ["competition", "predation"])
@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_velocities_match_position_based_fsum_oracle(family, kind, h0):
    # the solver's distances j*(h-g)/n and left-to-right sums against the
    # node positions' h - x and x - g and exactly rounded sums, on every
    # state of a short run
    p = _params(kind, d2=0.8, a=0.9, b=0.4, c=0.3, mu=0.3, rho=2.0)
    init = InitialData(h0, _tilted(h0, 0.6, 0.4), _tilted(h0, 0.5, -0.3))
    k = Kernel(family, 1.0)
    traj = run(p, init, k, RunControl(horizon=0.1, n=64, dt=0.004, record_every=1, snapshot_every=1))
    assert len(traj.snapshots) == 26
    m = _front_m(State(0.0, traj.g[0], traj.h[0], traj.snapshots[0].u, traj.snapshots[0].v), k)
    assert {0.4: m == 65, 0.75: 32 < m < 64, 1.5: m < 32}[h0]
    for snap, gdot, hdot in zip(traj.snapshots, traj.gdot, traj.hdot):
        want_g, want_h = _fsum_velocities(State(snap.t, snap.g, snap.h, snap.u, snap.v), p, k)
        assert gdot == pytest.approx(want_g, rel=1e-12, abs=0.0)
        assert hdot == pytest.approx(want_h, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [64, 200])
@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_front_sums_ignore_the_batch_width_and_keep_mirror_symmetry(family, n):
    # habitats of 0.5, 1.7, 6 and 25 radii in one batch: the shortest sets
    # the front width of every row, far past the longest ones' own m.  Each
    # habitat comes twice: off centre with random fields, and centred with
    # mirror-symmetric ones.  At the radius 0.7, 0.75*r/r is not 0.75, which
    # the parabolic tail mass must not round through
    rng = np.random.default_rng(n)
    k = Kernel(family, 0.7)
    p = _params(mu=0.3, rho=2.0)
    states = []
    for radii in (0.5, 1.7, 6.0, 25.0):
        half = 0.5 * radii * k.radius
        w, z = rng.uniform(0.0, 0.6, (2, n + 1))
        w[[0, -1]] = z[[0, -1]] = 0.0
        centre = rng.uniform(-2.0, 2.0)
        states.append(State(0.0, centre - half, centre + half, w, z))
        states.append(State(0.0, -half, half, w + w[::-1], z + z[::-1]))
    rows = [solver._Row(p, s) for s in states]
    batch = solver._Batch(k, rows, np.array([(s.w, s.z) for s in states]))
    solver.boundary_velocities(batch)
    for row, s in zip(rows, states):
        assert (row.gdot, row.hdot) == velocities(s, p, k) == _oracle_velocities(s, p, k)
    for row in rows[1::2]:
        assert row.gdot == -row.hdot != 0.0


@pytest.mark.parametrize("dt", [0.004, None], ids=["fixed-dt", "auto-dt"])
@pytest.mark.parametrize("family", ["tent", "truncated_gaussian"])
def test_batch_rows_match_their_runs_alone(family, dt, monkeypatch):
    # five rows: both kinds, different mu, rho and h0, and one row that its
    # stop rule ends early.  Under dt = auto every row takes its own dts;
    # a fixed dt is shared, and the third row's fronts speed up until it
    # breaks that row's stability bound after three steps.  A sixth row
    # fails its invariant check on the first step that ends past t = 0.014:
    # under the fixed dt, the step in which the third row fails its plan
    def squared(h0, amp):
        return lambda x: amp * np.clip(np.cos(0.5 * np.pi * np.asarray(x, dtype=float) / h0), 0.0, None) ** 2

    def params(kind, mu, rho):
        return _params(kind, d2=0.8, a=0.9, b=0.4, c=0.3, mu=mu, rho=rho)

    jobs = [
        (params("competition", 0.3, 2.0), InitialData(0.4, _tilted(0.4, 0.6, 0.4), _tilted(0.4, 0.5, -0.3)), None),
        (params("predation", 0.1, 0.5), InitialData(1.5, _tilted(1.5, 0.3, -0.2), _tilted(1.5, 0.4, 0.1)), None),
        (params("competition", 8.0, 0.5), InitialData(0.75, squared(0.75, 0.3), squared(0.75, 0.5)), None),
        (
            params("predation", 0.5, 1.0),
            InitialData.cosine(0.75, 0.4, 0.3),
            lambda rec: "probe" if rec.t[-1] >= 0.25 else None,
        ),
        (params("competition", 0.05, 0.05), InitialData.cosine(1.0, 0.2, 0.2), None),
    ]
    doomed = params("competition", 0.3, 2.0)
    jobs.append((doomed, jobs[0][1], None))
    commit = solver._Row.commit

    def failing_after_the_arithmetic(row, fields, lows, highs):
        t = row.end[0]
        if row.p is doomed and t > 0.014:
            raise SolverFailure(f"injected failure at t={t}")
        commit(row, fields, lows, highs)

    monkeypatch.setattr(solver._Row, "commit", failing_after_the_arithmetic)
    k = Kernel(family, 1.0)
    ctrl = RunControl(horizon=0.6, n=64, dt=dt, record_every=3, snapshot_every=11)
    results = solver.run_batch(jobs, k, ctrl)
    failing = ["SolverFailure"] if dt else ["Trajectory"]
    assert [type(r).__name__ for r in results] == ["Trajectory"] * 2 + failing + ["Trajectory"] * 2 + ["SolverFailure"]
    if dt:
        assert str(results[2]).startswith("stability bound violated at t=0.012")
        assert str(results[5]).startswith("injected failure at t=0.016")
    assert results[3].termination == "stop:probe" and results[3].t[-1] < 0.3
    for result, (p, init, stop_rule) in zip(results[:5], jobs):
        try:
            want = _oracle_run(p, init, k, ctrl, stop_rule)
        except SolverFailure as exc:
            assert isinstance(result, SolverFailure) and str(result) == str(exc)
        else:
            _assert_same_run(result, want)


def test_a_stop_rule_that_raises_ends_only_its_own_row():
    # the middle row's rule raises at its second record, the first it is
    # called at; the rows on either side run on, one of them to its own stop
    error = ValueError("stop rule failed")

    def failing(rec):
        if len(rec.t) == 2:
            raise error

    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2)
    jobs = [
        (_params(), init, None),
        (_params("predation"), init, failing),
        (_params(mu=0.5), init, lambda rec: "probe" if rec.t[-1] >= 0.25 else None),
    ]
    ctrl = RunControl(horizon=0.5, n=64, record_every=3)
    results = solver.run_batch(jobs, TENT, ctrl)
    assert results[1] is error
    assert (results[0].termination, results[2].termination) == ("horizon", "stop:probe")
    for i in (0, 2):
        p, init, stop_rule = jobs[i]
        _assert_same_run(results[i], run(p, init, TENT, ctrl, stop_rule=stop_rule))


def test_batch_step_fails_only_the_degenerate_row():
    init = InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2)
    s0 = initial_state(init, 64)
    rows = [solver._Row(_params(), s0) for _ in range(3)]
    batch = solver._Batch(TENT, rows, np.array([(s0.w, s0.z)] * 3))
    solver.boundary_velocities(batch)
    rows[1].gdot, rows[1].hdot = 150.0, -150.0  # the fronts cross within the step
    with pytest.raises(SolverFailure, match=r"^degenerate domain: g=0\.5, h=-0\.5$"):
        rows[1].plan(0.01, batch)
    batch.keep([0, 2])
    assert batch.step([rows[0].plan(0.01, batch), rows[2].plan(0.01, batch)]) == []
    assert batch.rows == [rows[0], rows[2]]
    alone = step(s0, _params(), TENT, 0.01)
    for i in (0, 1):
        s = batch.state(i)
        assert (s.t, s.g, s.h) == (alone.t, alone.g, alone.h)
        assert np.array_equal(s.w, alone.w) and np.array_equal(s.z, alone.z)


@pytest.mark.parametrize("m", [7, 119, 199])
def test_solve_banded_matches_scipy_bit_for_bit(m):
    rng = np.random.default_rng(m)
    for alpha in (rng.uniform(1e-3, 1.0), rng.uniform(1.0, 1e3)):
        ab = np.empty((3, m))
        ab[0] = ab[2] = -alpha
        ab[1] = 1.0 + 2.0 * alpha
        b = rng.standard_normal(m)
        b_in = b.copy()
        x = solver.solve_banded(alpha, b)
        assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
        assert np.array_equal(b, b_in)  # input untouched


def test_singular_tridiagonal_raises_and_step_reports_solver_failure(monkeypatch):
    # alpha = -1/2 leaves a zero diagonal, singular for an odd size
    with pytest.raises(scipy.linalg.LinAlgError, match="singular"):
        solver.solve_banded(-0.5, np.ones(5))

    real = solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded", lambda alpha, b: real(-0.5, b))
    s = initial_state(InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2), 64)
    with pytest.raises(SolverFailure, match="tridiagonal solve failed"):
        step(s, _params(), TENT, dt=0.01)


def test_non_finite_after_state_is_reported_as_non_finite(monkeypatch):
    s = initial_state(InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2), 64)
    monkeypatch.setattr(solver, "solve_banded", lambda alpha, b: np.full_like(b, np.nan))
    with pytest.raises(SolverFailure, match="non-finite field values"):
        step(s, _params(), TENT, dt=0.01)
    monkeypatch.undo()

    row = solver._Row(_params(), s)  # zero front speeds: the fronts stay put
    row.end = (0.01, s.g, s.h)
    after = np.array([(s.w, s.z)])
    for bad in (np.nan, np.inf):
        after[0, 0, 5] = bad
        # the field minima and maxima as the step takes them, one (u, v) pair per row
        (lows,), (highs,) = after.min(axis=2).tolist(), after.max(axis=2).tolist()
        with pytest.raises(SolverFailure, match="non-finite field values"):
            row.commit(after[0], lows, highs)


def _inject_into_v(value: float):
    """A solve_banded that writes value at node 4 of the first row's v."""
    real, rows_solved = solver.solve_banded, []

    def solve(alpha, b):
        x = real(alpha, b)
        if not rows_solved:
            x[3] = value
        rows_solved.append(alpha)
        return x

    return solve


def _inject_into_u(reaction):
    """A reaction() whose u term at node 5 of the first row is -1e3."""

    def react(params, wz):
        f = reaction(params, wz)
        f[0, 0, 5] = -1e3
        return f

    return react


@pytest.mark.parametrize("case", ["roundoff-clamp", "u-floor", "v-bound", "fronts"])
def test_post_step_checks_fail_only_their_row(case, monkeypatch):
    # row 0 is hit after the arithmetic of a two-row step; row 1 must get
    # the bits of its step alone, and row 0 the message of its check
    dt = 0.01
    jobs = [
        (_params(), initial_state(InitialData.cosine(h0=1.0, amp_u=0.3, amp_v=0.2), 64)),
        (_params("predation", mu=0.5), initial_state(InitialData.cosine(h0=0.8, amp_u=0.4, amp_v=0.3), 64)),
    ]
    alone = [step(s, p, TENT, dt) for p, s in jobs]
    rows = [solver._Row(p, s) for p, s in jobs]
    batch = solver._Batch(TENT, rows, np.array([(s.w, s.z) for _, s in jobs]))
    solver.boundary_velocities(batch)
    k2 = rows[0].bounds.k2
    h0, g0 = rows[0].h, rows[0].g
    if case == "roundoff-clamp":
        monkeypatch.setattr(solver, "solve_banded", _inject_into_v(-1e-15))
    elif case == "u-floor":
        monkeypatch.setattr(solver, "reaction", _inject_into_u(solver.reaction))
    elif case == "v-bound":
        monkeypatch.setattr(solver, "solve_banded", _inject_into_v(2.0 * k2))
    else:
        rows[0].hdot = -0.5  # the front law never gives h' < 0 for nonnegative fields
    failed = batch.step([row.plan(dt, batch) for row in rows])
    if case == "roundoff-clamp":
        assert failed == [] and batch.rows == rows and rows[0].t == dt
        got = batch.state(0)
        assert got.z[4] == 0.0 and not np.signbit(got.z[4])
        want_z = alone[0].z.copy()
        want_z[4] = 0.0
        assert np.array_equal(got.w, alone[0].w) and np.array_equal(got.z, want_z)
    else:
        [(row, exc)] = failed
        assert row is rows[0] and batch.rows == [rows[1]]
        message = {
            "u-floor": r"u fell to -\d\.\d{3}e\+\d\d at t=0\.01, below the roundoff floor -1e-13; "
            r"the scheme has lost positivity",
            "v-bound": re.escape(f"v bound breached at t=0.01: max v={2.0 * k2} > k2={k2}"),
            "fronts": re.escape(
                f"front monotonicity violated at t=0.01: "
                f"h {h0} -> {h0 + dt * -0.5}, g {g0} -> {g0 + dt * rows[0].gdot}"
            ),
        }[case]
        assert re.fullmatch(message, str(exc)), str(exc)
    got = batch.state(batch.rows.index(rows[1]))
    assert (got.t, got.g, got.h) == (alone[1].t, alone[1].g, alone[1].h)
    assert np.array_equal(got.w, alone[1].w) and np.array_equal(got.z, alone[1].z)


@pytest.mark.xfail(
    raises=SolverFailure,
    reason="ROADMAP item 2: interior row sums of the point-sampled tent taps exceed 1 by up "
    "to 3.6e-4, so max u passes k1 by about 2e-5 at t = 202.9",
)
@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_long_spreading_run_stays_inside_the_u_bound(kind):
    # a valid run must not end in exit 3: both kinds reach the horizon
    p = ModelParams(kind=kind, d1=1.0, d2=1.0, a=0.5, b=0.5, c=0.5, mu=5.0, rho=5.0)
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    traj = run(p, init, TENT, RunControl(horizon=210.0, n=120))
    assert traj.termination == "horizon" and traj.t[-1] == 210.0


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 3: the spacing outgrows the kernel radius near t = 100 and the run "
    "breaches k1 at t = 125.14 instead of regridding or naming the resolution",
)
def test_under_resolved_kernel_regrids_or_names_the_resolution():
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=2.0, rho=2.0)
    init = InitialData.cosine(h0=2.0, amp_u=0.3, amp_v=0.3)
    try:
        traj = run(p, init, TENT, RunControl(horizon=130.0, n=100))
    except SolverFailure as exc:
        assert "spacing" in str(exc) and "radius" in str(exc), str(exc)
    else:
        assert traj.termination == "horizon" and traj.t[-1] == 130.0
        assert traj.sup_u.max() <= field_bounds(p, 0.3, 0.3).k1
        # only a regrid keeps the final spacing within a quarter radius
        assert (traj.h[-1] - traj.g[-1]) / traj.n <= TENT.radius / 4


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 16: the end nodes hold u = 0, so a stalled habitat acts one node "
    "spacing short and sup u decays 3.07e-3 faster than lambda_p(L) at n = 120",
)
def test_stalled_habitat_decays_at_its_principal_eigenvalue():
    # criterion-08 setup at s = 1, which vanishes: once v has died out, u
    # solves the linear nonlocal equation on a fixed habitat, whose decay
    # rate is lambda_p of that habitat
    p = ModelParams(kind="competition", d1=1.0, d2=1.0, a=0.5, b=0.5, c=0.5, mu=0.5, rho=0.5)
    init = InitialData.cosine(h0=0.3, amp_u=1e-3, amp_v=1e-3)
    for n in (120, 240):
        traj = run(p, init, TENT, RunControl(horizon=800.0, n=n, record_every=1))
        late = traj.t >= 400.0
        rate = np.polyfit(traj.t[late], np.log(traj.sup_u[late]), 1)[0]
        prob = EigenProblem(d=p.d1, theta0=p.a, ell1=float(traj.g[-1]), ell2=float(traj.h[-1]), n=2001, kernel=TENT)
        assert abs(rate - lambda_p(prob).lambda_p) < 1e-4, (n, rate)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 11: the point-sampled taps shift the discrete equilibrium, so at "
    "t = 200 u and v sit 1.24e-3 and 6.0e-4 from the coexistence state near the centre",
)
def test_criterion_07_predation_run_reaches_the_coexistence_state():
    p = ModelParams(kind="predation", d1=1.0, d2=1.0, a=2.0, b=0.5, c=0.5, mu=0.05, rho=0.05)
    init = InitialData.cosine(h0=2.0, amp_u=0.5, amp_v=0.5)
    traj = run(p, init, TENT, RunControl(horizon=200.0, n=400, dt=0.05, record_every=100, snapshot_every=4000))
    snap = traj.snapshots[-1]
    assert snap.t == pytest.approx(200.0)
    u_star, v_star = coexistence_state(p)
    near_centre = np.abs(snap.x - 0.5 * (snap.g + snap.h)) <= (snap.h - snap.g) / 8.0
    assert np.max(np.abs(snap.u[near_centre] - u_star)) < 1e-6
    assert np.max(np.abs(snap.v[near_centre] - v_star)) < 1e-6
