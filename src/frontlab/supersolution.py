"""Closed-form super-solutions certifying vanishing for small front budgets.

Each construction produces a quadruple (ubar, vbar, gbar, hbar) that the
comparison principle places above the true solution whenever the front
budget mu+rho stays below the computed admissible value.  Everything is
in closed form: the only numerical ingredient is the principal eigenpair
on the enclosing interval (-h1, h1).

Both kinds share one shape, ubar = amp_u(t)*phi(x) on the eigenfunction
phi, vbar = amp_v(t)*cos(pi*x/(2*s(t))) and gbar = -hbar.  Each kind's
recipe (_competition, _predation) defines its whole barrier: amp_u, amp_v,
s(t), hbar(t), the bound on hbar(infinity) and the admissible budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classify import ell_star_cached
from .eigen import lambda_p_interval
from .errors import RegimeError
from .kernels import Kernel
from .model import InitialData, ModelParams
from .solver import Trajectory, check_h0

_PROBE_POINTS = 2001
# largest overshoot of the barrier that check_domination still counts as dominated
_DOMINATION_TOL = 1e-6


@dataclass
class SuperSolutionSpec:
    case: str  # "competition" | "predation"
    mu: float
    rho: float
    h1: float
    lam: float  # principal eigenvalue on (-h1, h1) with potential a; < 0
    budget: float  # admissible mu+rho for the domination guarantee
    constants: dict
    hbar_limit_bound: float  # upper bound on hbar(infinity); must stay <= h1 under the budget
    phi_x: np.ndarray
    phi_samples: np.ndarray
    # the recipe's barrier, each a function of the time array t
    _amp_u: Callable
    _amp_v: Callable
    _s: Callable
    _hbar: Callable

    def phi(self, x):
        return np.interp(x, self.phi_x, self.phi_samples)

    def s(self, t):
        """Scale of the cosine barrier for vbar."""
        return self._s(np.asarray(t, dtype=float))

    def ubar(self, t, x):
        return self._amp_u(np.asarray(t, dtype=float)) * self.phi(x)

    def vbar(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return self._amp_v(t) * np.cos(0.5 * math.pi * x / self._s(t))

    def hbar(self, t):
        return self._hbar(np.asarray(t, dtype=float))

    def gbar(self, t):
        return -self.hbar(t)


def _ratio_max(numer, denom_vals: np.ndarray, probe: np.ndarray) -> float:
    vals = np.asarray(numer(probe), dtype=float)
    if np.any(denom_vals <= 0):
        raise RegimeError("barrier profile must be strictly positive on the data support")
    return float(np.max(vals / denom_vals))


def _competition(p, init, h1, lam, probe, u_ratio) -> tuple[float, dict, dict]:
    """Competition recipe, returning (budget, constants, barrier).

    amp_u = C*exp(lam*t/2) and amp_v = K*exp(-sigma*t); the cosine widens
    as s(t) = h0*(1+2*delta-delta*exp(-sigma*t)), and hbar integrates the
    two front-law contributions of (ubar, vbar) exactly.  C is u_ratio,
    the smallest multiple of phi sitting above u0; delta keeps the widened
    cosine inside the stability window; sigma stays below the cosine's
    decay margin; K lifts the cosine above v0.  The budget is Lambda0 =
    min{h1-h0, delta*h0}/m with m the larger of the two front-motion
    coefficients.
    """
    h0 = init.h0
    q = 0.5 * math.pi * math.sqrt(p.d2) / h0  # > 1 by precondition
    delta = min(0.8, 0.25 * (q - 1.0))
    beta = p.d2 * math.pi**2 / (4.0 * h0**2 * (1.0 + 2.0 * delta) ** 2) - 1.0
    sigma = min(0.9, beta)
    if not (0.0 < delta and 0.0 < sigma):
        raise RegimeError(f"no admissible (delta, sigma): delta={delta}, sigma={sigma}")

    s0 = h0 * (1.0 + delta)
    K = _ratio_max(init.v0, np.cos(0.5 * math.pi * probe / s0), probe)

    m = max(math.pi * K / (2.0 * sigma * h0 * (1.0 + delta)), -4.0 * u_ratio * h1 / lam)
    budget = min(h1 - h0, delta * h0) / m

    def widening(t):  # s(t)/h0, from 1+delta at t = 0 up to 1+2*delta
        return 1.0 + 2.0 * delta - delta * np.exp(-sigma * t)

    def hbar(t):
        local = p.mu * math.pi * K / (2.0 * sigma * h0 * delta) * np.log(widening(t) / (1.0 + delta))
        nonlocal_ = 4.0 * p.rho * u_ratio * h1 / lam * (np.exp(0.5 * lam * t) - 1.0)
        return h0 + local + nonlocal_

    hbar_limit = h0 + p.mu * math.pi * K / (2.0 * sigma * h0 * (1.0 + delta)) - 4.0 * p.rho * u_ratio * h1 / lam
    barrier = dict(
        _amp_u=lambda t: u_ratio * np.exp(0.5 * lam * t),
        _amp_v=lambda t: K * np.exp(-sigma * t),
        _s=lambda t: h0 * widening(t),
        _hbar=hbar,
        hbar_limit_bound=hbar_limit,
    )
    return budget, {"C": u_ratio, "K": K, "delta": delta, "sigma": sigma, "m": m}, barrier


def _predation(p, init, h1, lam, probe, u_ratio) -> tuple[float, dict, dict]:
    """Predation recipe, returning (budget, constants, barrier).

    Both species decay at a common rate gamma, the cosine's half-width is
    hbar itself plus a fixed margin eps, and hbar relaxes exponentially
    to h0 + (theta+delta)/gamma.  eps is a third of the gap between h0
    and (pi/2)*sqrt(d2); sigma obeys c*sigma <= cos(pi*h1/(2*(h1+eps)));
    k lifts both barriers above the data; gamma is half the weaker of the
    two decay margins.
    """
    h0 = init.h0
    eps = (0.5 * math.pi * math.sqrt(p.d2) - h0) / 3.0
    sigma = min(1.0, 0.99 * math.cos(0.5 * math.pi * h1 / (h1 + eps)) / p.c)

    k_u = u_ratio / sigma
    k_v = _ratio_max(init.v0, np.cos(0.5 * math.pi * probe / (h0 + eps)), probe)
    k_amp = max(k_u, k_v)

    gamma = 0.5 * min(-lam, p.d2 * math.pi**2 / (4.0 * (h0 + eps) ** 2) - 1.0)
    if not (gamma > 0):
        raise RegimeError(f"no positive decay rate available: gamma={gamma}")

    theta = 2.0 * sigma * k_amp * h1 * p.rho
    delta = k_amp * math.pi * p.mu / (2.0 * h0)

    m2 = max(2.0 * sigma * k_amp * h1, k_amp * math.pi / (2.0 * h0))
    x_max = 0.5 * math.pi * math.sqrt(p.d2 / (gamma + 1.0)) - h0 - eps
    budget = gamma * min(h1 - h0, x_max) / m2
    constants = {"k": k_amp, "sigma": sigma, "gamma": gamma, "theta": theta, "delta": delta, "eps": eps}

    rate = (theta + delta) / gamma

    def hbar(t):
        return h0 + rate * (1.0 - np.exp(-gamma * t))

    barrier = dict(
        _amp_u=lambda t: sigma * k_amp * np.exp(-gamma * t),
        _amp_v=lambda t: k_amp * np.exp(-gamma * t),
        _s=lambda t: hbar(t) + eps,
        _hbar=hbar,
        hbar_limit_bound=h0 + rate,
    )
    return budget, constants, barrier


_RECIPES = {"competition": _competition, "predation": _predation}


def build_vanishing_supersolution(
    p: ModelParams, init: InitialData, k: Kernel, h1: Optional[float] = None
) -> SuperSolutionSpec:
    """Super-solution of either model kind on the enclosing interval (-h1, h1).

    The kind's recipe turns lam, the principal eigenvalue on (-h1, h1),
    and u_ratio, the smallest multiple of its eigenfunction phi above u0,
    into the admissible budget, the constants and the barrier.  h1
    defaults to (h0 + ell*/2)/2, halfway between h0 and half the
    critical length.  An h0 no run can start from is rejected first, as
    the run would.
    """
    h0 = init.h0
    check_h0(h0)
    if not (p.a < p.d1):
        raise RegimeError(f"super-solution needs a < d1; got a={p.a}, d1={p.d1}")
    if h1 is None:
        half_ell = 0.5 * ell_star_cached(p.d1, p.a, k).ell_star
        if not (h0 < half_ell):
            raise RegimeError(
                f"automatic h1 = (h0 + ell*/2)/2 needs h0 < ell*/2 = {half_ell:.6g}; "
                f"got h0={h0}; set supersolution.h1 above h0 instead"
            )
        h1 = 0.5 * (h0 + half_ell)
    if not (h0 < h1):
        raise RegimeError(f"need h0 < h1; got h0={h0}, h1={h1}")
    half_pi_sqrt_d2 = 0.5 * math.pi * math.sqrt(p.d2)
    if not (h0 < half_pi_sqrt_d2):
        raise RegimeError(f"need h0 < (pi/2)*sqrt(d2) = {half_pi_sqrt_d2:.6g}; got h0={h0}")

    eig = lambda_p_interval(p.d1, p.a, -h1, h1, k)
    lam = eig.lambda_p
    if not (lam < 0):
        raise RegimeError(
            f"principal eigenvalue on (-{h1}, {h1}) is {lam:.6g} >= 0; "
            "shrink h1 below half the critical length"
        )

    probe = np.linspace(-h0, h0, _PROBE_POINTS)
    u_ratio = _ratio_max(init.u0, np.interp(probe, eig.x, eig.eigenfunction), probe)
    budget, constants, barrier = _RECIPES[p.kind](p, init, h1, lam, probe, u_ratio)
    return SuperSolutionSpec(
        case=p.kind, mu=p.mu, rho=p.rho, h1=h1, lam=lam, budget=budget,
        constants=constants, phi_x=eig.x, phi_samples=eig.eigenfunction, **barrier,
    )


@dataclass
class DominationReport:
    dominated: bool
    tol: float
    max_violation_u: float
    max_violation_v: float
    max_violation_h: float
    max_violation_g: float
    budget: float
    mu_plus_rho: float
    budget_ok: bool
    samples_checked: int


def check_domination(spec: SuperSolutionSpec, traj: Trajectory) -> DominationReport:
    """Compare a stored trajectory against the closed-form super-solution.

    Front curves are checked at every recorded sample; fields need
    snapshots, so the run must have been made with snapshots enabled.
    """
    if not traj.snapshots:
        raise ValueError("trajectory has no field snapshots; rerun with snapshot_every > 0")

    viol_h = float(np.max(traj.h - spec.hbar(traj.t)))
    viol_g = float(np.max(spec.gbar(traj.t) - traj.g))

    viol_u = -math.inf
    viol_v = -math.inf
    for snap in traj.snapshots:
        viol_u = max(viol_u, float(np.max(snap.u - spec.ubar(snap.t, snap.x))))
        viol_v = max(viol_v, float(np.max(snap.v - spec.vbar(snap.t, snap.x))))

    mu_plus_rho = spec.mu + spec.rho
    dominated = max(viol_u, viol_v, viol_h, viol_g) <= _DOMINATION_TOL
    return DominationReport(
        dominated=dominated,
        tol=_DOMINATION_TOL,
        max_violation_u=viol_u,
        max_violation_v=viol_v,
        max_violation_h=viol_h,
        max_violation_g=viol_g,
        budget=spec.budget,
        mu_plus_rho=mu_plus_rho,
        budget_ok=mu_plus_rho <= spec.budget,
        samples_checked=len(traj.t) + len(traj.snapshots),
    )
