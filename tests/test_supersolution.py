"""Closed-form vanishing barriers: construction invariants and domination."""

import numpy as np
import pytest

from frontlab import (
    InitialData,
    ModelParams,
    RegimeError,
    RunControl,
    build_vanishing_supersolution,
    check_domination,
    make_kernel,
    run,
)
from frontlab.classify import ell_star_cached

TENT = make_kernel("tent", 1.0)


def _competition(mu=0.1, rho=0.1, a=0.5):
    return ModelParams(kind="competition", d1=1.0, d2=1.0, a=a, b=0.5, c=0.5, mu=mu, rho=rho)


def _predation(mu=0.01, rho=0.01, a=0.5):
    return ModelParams(kind="predation", d1=1.0, d2=1.0, a=a, b=0.5, c=0.5, mu=mu, rho=rho)


INIT = InitialData.cosine(h0=0.25, amp_u=1e-3, amp_v=1e-3)


def test_competition_construction_invariants():
    spec = build_vanishing_supersolution(_competition(), INIT, TENT, h1=0.3)
    assert spec.case == "competition"
    assert spec.lam < 0.0
    assert 0.0 < spec.constants["delta"] < 1.0
    assert 0.0 < spec.constants["sigma"] < 1.0
    assert spec.budget > 0.0
    t = np.linspace(0.0, 200.0, 401)
    hbar = spec.hbar(t)
    assert np.all(np.diff(hbar) >= 0.0)  # the barrier front only expands
    assert np.all(hbar < min(spec.h1, spec.s(t[0]) * 10))
    s_t = spec.s(t)
    assert np.all(np.diff(s_t) >= 0.0)
    assert np.all(hbar < spec.h1)
    assert np.all(hbar < s_t)
    np.testing.assert_allclose(spec.gbar(t), -hbar, atol=0.0)


def test_competition_barrier_starts_above_data():
    spec = build_vanishing_supersolution(_competition(), INIT, TENT, h1=0.3)
    x = np.linspace(-INIT.h0, INIT.h0, 501)
    assert np.all(spec.ubar(0.0, x) >= INIT.u0(x) - 1e-12)
    assert np.all(spec.vbar(0.0, x) >= INIT.v0(x) - 1e-12)
    assert spec.hbar(0.0) == pytest.approx(INIT.h0)


def test_competition_limit_bound_within_budget():
    spec = build_vanishing_supersolution(_competition(), INIT, TENT, h1=0.3)
    # spend exactly the admissible budget along the same ray
    scale = spec.budget / (0.1 + 0.1)
    spec_at_budget = build_vanishing_supersolution(
        _competition(mu=0.1 * scale, rho=0.1 * scale), INIT, TENT, h1=0.3
    )
    assert spec_at_budget.hbar_limit_bound <= spec_at_budget.h1 + 1e-12
    t = np.linspace(0.0, 2000.0, 101)
    assert np.all(spec_at_budget.hbar(t) <= spec_at_budget.hbar_limit_bound + 1e-12)


def test_competition_fronts_freeze_as_budget_vanishes():
    spec = build_vanishing_supersolution(_competition(mu=1e-14, rho=1e-14), INIT, TENT, h1=0.3)
    t = np.linspace(0.0, 500.0, 101)
    assert np.max(np.abs(spec.hbar(t) - INIT.h0)) <= 1e-10


@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_domination_on_simulated_run(kind):
    p = _competition() if kind == "competition" else _predation()
    spec = build_vanishing_supersolution(p, INIT, TENT, h1=0.3)
    assert spec.case == kind
    assert p.mu + p.rho <= spec.budget
    traj = run(p, INIT, TENT, RunControl(horizon=40.0, n=200, record_every=10, snapshot_every=50))
    report = check_domination(spec, traj)
    assert report.budget_ok
    assert report.dominated
    assert report.max_violation_u <= report.tol
    assert report.max_violation_v <= report.tol
    assert report.max_violation_h <= report.tol
    assert report.max_violation_g <= report.tol
    assert report.samples_checked == len(traj.t) + len(traj.snapshots)


def test_budget_flag_reports_overspend():
    p = _competition(mu=2.0, rho=2.0)
    spec = build_vanishing_supersolution(p, INIT, TENT, h1=0.3)
    assert p.mu + p.rho > spec.budget
    traj = run(p, INIT, TENT, RunControl(horizon=5.0, n=100, record_every=10, snapshot_every=20))
    report = check_domination(spec, traj)
    assert not report.budget_ok  # domination itself is not asserted either way


def test_predation_construction_invariants():
    spec = build_vanishing_supersolution(_predation(), INIT, TENT, h1=0.3)
    assert spec.case == "predation"
    assert spec.lam < 0.0
    assert spec.constants["gamma"] > 0.0
    assert 0.0 < spec.constants["sigma"] <= 1.0
    assert spec.budget > 0.0
    t = np.linspace(0.0, 300.0, 301)
    hbar = spec.hbar(t)
    assert np.all(np.diff(hbar) >= 0.0)
    assert hbar[0] == pytest.approx(INIT.h0)


@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_omitted_h1_is_halfway_to_half_the_critical_length(kind):
    p = _competition() if kind == "competition" else _predation()
    ell_star = ell_star_cached(p.d1, p.a, TENT.family, TENT.radius).ell_star
    spec = build_vanishing_supersolution(p, INIT, TENT)
    assert spec.h1 == 0.5 * (INIT.h0 + 0.5 * ell_star)


def test_preconditions_rejected():
    # growth must lose to dispersal
    with pytest.raises(RegimeError):
        build_vanishing_supersolution(_competition(a=1.5), INIT, TENT, h1=0.3)
    # also before any automatic h1, which needs the critical length
    with pytest.raises(RegimeError, match="super-solution needs a < d1"):
        build_vanishing_supersolution(_competition(a=1.5), INIT, TENT)
    # the enclosing interval must contain the initial habitat
    with pytest.raises(RegimeError):
        build_vanishing_supersolution(_competition(), INIT, TENT, h1=0.2)
    # h0 must leave room below (pi/2) sqrt(d2)
    wide = InitialData.cosine(h0=2.0, amp_u=1e-3, amp_v=1e-3)
    with pytest.raises(RegimeError):
        build_vanishing_supersolution(_competition(), wide, TENT, h1=2.5)


def test_domination_requires_snapshots():
    p = _competition()
    spec = build_vanishing_supersolution(p, INIT, TENT, h1=0.3)
    traj = run(p, INIT, TENT, RunControl(horizon=2.0, n=100, record_every=10))
    with pytest.raises(ValueError):
        check_domination(spec, traj)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 5: recorded at every step, the criterion-09 run passes the "
    "competition barrier's front, h - hbar = 2.74e-6 against a tol of 1e-6",
)
def test_criterion_09_barrier_dominates_at_every_step():
    barrier = build_vanishing_supersolution(_competition(), INIT, TENT, h1=0.3)
    traj = run(_competition(), INIT, TENT, RunControl(horizon=40.0, n=200, record_every=1, snapshot_every=50))
    assert check_domination(barrier, traj).dominated
