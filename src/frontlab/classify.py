"""Spreading/vanishing verdicts, threshold estimation, and phase sweeps.

A trajectory is classified with a certificate naming the rule that
fired:

  ARateDominates         a >= d1: spreading is unconditional;
  LengthExceedsPiSqrtD2  the habitat outgrew pi*sqrt(d2), which a
                         vanishing habitat can never do;
  LengthExceedsEllStar   the habitat outgrew the critical length, so the
                         final eigenvalue condition of vanishing fails;
  NormPlateauDecay       norms and front speeds sat below tolerance over
                         the trailing window and the final habitat is
                         eigenvalue-subcritical (finite-horizon
                         heuristic for an asymptotic statement);
  HorizonExhausted       none of the above fired.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Optional

import numpy as np

from .eigen import CriticalLengthResult, critical_length, lambda_p_interval
from .errors import InconclusiveError, RegimeError, SolverFailure
from .kernels import Kernel, make_kernel
from .model import InitialData, ModelParams
# auto_dt is unused here but stays imported: bench/tracer.py SITES wrap frontlab.classify.auto_dt
from .solver import RunControl, Trajectory, auto_dt, run  # noqa: F401

if TYPE_CHECKING:  # config imports this module
    from .config import RunConfig

SPREADING = "Spreading"
VANISHING = "Vanishing"
UNDECIDED = "Undecided"

CERT_PI_SQRT_D2 = "LengthExceedsPiSqrtD2"
CERT_ELL_STAR = "LengthExceedsEllStar"
CERT_A_RATE = "ARateDominates"
CERT_PLATEAU = "NormPlateauDecay"
CERT_HORIZON = "HorizonExhausted"

_PLATEAU_NOTE = "finite-horizon plateau rule (heuristic for an asymptotic property)"


@dataclass(frozen=True)
class ClassifyTolerances:
    vanish_tol: float = 1e-3
    speed_tol: float = 1e-3
    eigen_slack: float = 1e-2
    window_fraction: float = 0.1
    spread_length: Optional[float] = None  # override of the spreading length threshold


@dataclass
class Classification:
    verdict: str
    certificate: str
    fired_at: Optional[float]
    final_length: float
    final_sup_u: float
    final_sup_v: float
    final_gdot: float
    final_hdot: float
    lambda_p_final: float
    note: str = ""


@lru_cache(maxsize=None)
def ell_star_cached(d1: float, a: float, family: str, radius: float, tol: float = 1e-4) -> CriticalLengthResult:
    """Critical length, computed once per (d1, a, kernel) for reuse in sweeps."""
    return critical_length(d1, a, make_kernel(family, radius), tol=tol)


def _spread_lengths(
    p: ModelParams, k: Kernel, spread_length: Optional[float] = None
) -> tuple[float, float, float]:
    """(pi*sqrt(d2), critical length, threshold): the two lengths a
    vanishing habitat never outgrows, and the habitat length beyond which
    spreading is certified, spread_length when given and otherwise the
    smaller of the two.  The critical length only exists for a < d1 and
    is inf otherwise."""
    pi_bound = math.pi * math.sqrt(p.d2)
    ell = ell_star_cached(p.d1, p.a, k.family, k.radius).ell_star if p.a < p.d1 else math.inf
    return pi_bound, ell, min(pi_bound, ell) if spread_length is None else spread_length


def classify(
    traj: Trajectory, p: ModelParams, k: Kernel, tols: ClassifyTolerances | None = None
) -> Classification:
    """Verdict for a completed trajectory; Undecided is a valid outcome."""
    tols = tols or ClassifyTolerances()
    length = traj.length
    final_dx = float(length[-1]) / traj.n
    eig_final = lambda_p_interval(p.d1, p.a, float(traj.g[-1]), float(traj.h[-1]), k)
    evidence = dict(
        final_length=float(length[-1]),
        final_sup_u=float(traj.sup_u[-1]),
        final_sup_v=float(traj.sup_v[-1]),
        final_gdot=float(traj.gdot[-1]),
        final_hdot=float(traj.hdot[-1]),
        lambda_p_final=eig_final.lambda_p,
    )

    if p.a >= p.d1:
        return Classification(
            verdict=SPREADING, certificate=CERT_A_RATE, fired_at=float(traj.t[0]), **evidence
        )

    pi_bound, ell, threshold = _spread_lengths(p, k, tols.spread_length)
    crossed = np.nonzero(length > threshold)[0]
    if crossed.size:
        idx = int(crossed[0])
        reached = float(length[idx])
        # certificate must be sound against the actual bounds, not the override
        if reached > ell:
            cert = CERT_ELL_STAR
        elif reached > pi_bound:
            cert = CERT_PI_SQRT_D2
        else:
            cert = ""
        if cert:
            return Classification(
                verdict=SPREADING, certificate=cert, fired_at=float(traj.t[idx]), **evidence
            )

    window = traj.t >= traj.t[-1] - tols.window_fraction * traj.t[-1]
    if np.count_nonzero(window) < 2 and traj.t.size >= 2:
        # coarse record cadence can leave the trailing-fraction window with a
        # single sample (e.g. after an early stop); a plateau still needs two
        window = np.zeros_like(window)
        window[-2:] = True
    if np.count_nonzero(window) >= 2:
        norms_ok = bool(
            np.all(traj.sup_u[window] < tols.vanish_tol)
            and np.all(traj.sup_v[window] < tols.vanish_tol)
        )
        speeds_ok = bool(
            np.all(np.abs(traj.gdot[window]) < tols.speed_tol)
            and np.all(np.abs(traj.hdot[window]) < tols.speed_tol)
        )
        length_ok = evidence["final_length"] <= pi_bound + 2.0 * final_dx
        eigen_ok = evidence["lambda_p_final"] <= tols.eigen_slack
        if norms_ok and speeds_ok and length_ok and eigen_ok:
            fired = float(traj.t[np.nonzero(window)[0][0]])
            return Classification(
                verdict=VANISHING,
                certificate=CERT_PLATEAU,
                fired_at=fired,
                note=_PLATEAU_NOTE,
                **evidence,
            )

    return Classification(verdict=UNDECIDED, certificate=CERT_HORIZON, fired_at=None, **evidence)


def make_dichotomy_stop(p: ModelParams, k: Kernel, horizon: float, tols: ClassifyTolerances | None = None):
    """Stop rule for run(): ends a run as soon as a spreading certificate
    fires or the vanishing plateau conditions hold over the trailing
    window.  The eigenvalue condition is left to classify() afterwards."""
    tols = tols or ClassifyTolerances()
    # None: spreading is unconditional
    threshold = None if p.a >= p.d1 else _spread_lengths(p, k, tols.spread_length)[2]
    window = tols.window_fraction * horizon

    def rule(rec) -> Optional[str]:
        if threshold is None:
            return "a-rate-dominates"
        if rec.h[-1] - rec.g[-1] > threshold:
            return "spreading-length"
        t_now = rec.t[-1]
        if t_now >= 2.0 * window:
            # rec.t increases, so the window is a suffix of the record
            tail = range(bisect_left(rec.t, t_now - window), len(rec.t))
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


_SCAN_RECORD_EVERY = 5  # record cadence of every threshold-scan run
_SCAN_RATIO_TOL = 1.5  # stop refining once upper/lower is below this


@dataclass(frozen=True)
class ScanControl:
    """Knobs for estimate_threshold's scan over the front-budget scale."""

    s_min: float = 1e-6
    s_max: float = 1e3
    points: int = 8
    max_bisect: int = 12
    horizon: float = 80.0
    n: int = 120


@dataclass
class ThresholdEstimate:
    ray: tuple[float, float]
    lower: float  # largest scale with a Vanishing verdict
    upper: float  # smallest scale with a Spreading verdict
    monotone_flag: bool
    scanned: list = field(default_factory=list)  # (scale, verdict) pairs, sorted


def _classify_at_scale(
    p: ModelParams,
    init: InitialData,
    k: Kernel,
    scale: float,
    ray: tuple[float, float],
    ctrl: ScanControl,
    tols: ClassifyTolerances,
) -> str:
    p_s = replace(p, mu=scale * ray[0], rho=scale * ray[1])
    stop = make_dichotomy_stop(p_s, k, ctrl.horizon, tols)
    rc = RunControl(horizon=ctrl.horizon, n=ctrl.n, record_every=_SCAN_RECORD_EVERY, stop_rule=stop)
    try:
        traj = run(p_s, init, k, rc)
    except SolverFailure:
        return UNDECIDED
    return classify(traj, p_s, k, tols).verdict


def estimate_threshold(
    p: ModelParams,
    init: InitialData,
    k: Kernel,
    ray: tuple[float, float] = (0.5, 0.5),
    ctrl: ScanControl | None = None,
    tols: ClassifyTolerances | None = None,
) -> ThresholdEstimate:
    """Bracket the front-budget threshold along the ray (mu, rho) =
    s*(mu_hat, rho_hat).

    mu and rho on the incoming parameters are ignored.  Requires a < d1
    and h0 < half of min{pi*sqrt(d2), critical length}: otherwise
    spreading is unconditional and no threshold exists.  A geometric scan
    locates Vanishing and Spreading scales, then bisection in log scale
    tightens the bracket.  Verdicts are not guaranteed monotone in s;
    monotone_flag reports what the scan actually saw.
    """
    ctrl = ctrl or ScanControl()
    tols = tols or ClassifyTolerances()
    mu_hat, rho_hat = ray
    if mu_hat < 0 or rho_hat < 0 or mu_hat + rho_hat <= 0:
        raise ValueError(f"ray must be nonnegative with positive sum, got {ray}")
    total = mu_hat + rho_hat
    ray = (mu_hat / total, rho_hat / total)

    if not (p.a < p.d1):
        raise RegimeError(f"threshold undefined: a={p.a} >= d1={p.d1} spreads unconditionally")
    pi_bound, ell, threshold = _spread_lengths(p, k)
    cap = 0.5 * threshold
    if not (init.h0 < cap):
        raise RegimeError(
            f"threshold undefined: h0={init.h0} >= {cap:.6g} = half of "
            f"min{{pi*sqrt(d2)={pi_bound:.6g}, critical length={ell:.6g}}}; "
            "spreading happens for every budget"
        )

    records: dict[float, str] = {}
    scales = np.geomspace(ctrl.s_min, ctrl.s_max, ctrl.points)
    for s in scales:
        records[float(s)] = _classify_at_scale(p, init, k, float(s), ray, ctrl, tols)

    def verdicts():
        return sorted(records.items())

    vanishing = [s for s, v in verdicts() if v == VANISHING]
    spreading = [s for s, v in verdicts() if v == SPREADING]
    if not vanishing and not spreading:
        raise InconclusiveError(
            "every scanned scale came back Undecided; raise the horizon or widen the scan"
        )
    if not vanishing:
        raise InconclusiveError(
            f"no Vanishing verdict down to s_min={ctrl.s_min:g}; extend the scan downward"
        )
    if not spreading:
        raise InconclusiveError(
            f"no Spreading verdict up to s_max={ctrl.s_max:g}; extend the scan upward"
        )

    bracketable = [sv for sv in vanishing if any(ss > sv for ss in spreading)]
    if not bracketable:
        raise InconclusiveError(
            "Vanishing verdicts only occurred above Spreading ones; no ordered bracket exists"
        )
    lower = max(bracketable)
    upper = min(ss for ss in spreading if ss > lower)

    for _ in range(ctrl.max_bisect):
        if upper / lower <= _SCAN_RATIO_TOL:
            break
        mid = math.sqrt(lower * upper)
        verdict = _classify_at_scale(p, init, k, mid, ray, ctrl, tols)
        records[mid] = verdict
        if verdict == VANISHING:
            lower = mid
        elif verdict == SPREADING:
            upper = mid
        else:
            break  # cannot refine through an Undecided band

    ordered = verdicts()
    monotone = all(v == VANISHING for s, v in ordered if s < lower) and all(
        v == SPREADING for s, v in ordered if s > upper
    )
    return ThresholdEstimate(
        ray=ray, lower=lower, upper=upper, monotone_flag=monotone, scanned=ordered
    )


# --- parameter sweeps -------------------------------------------------------

# axes a sweep may vary; h0 is a RunConfig field, every other axis a ModelParams field
SWEEP_AXES = ("a", "d1", "d2", "h0", "mu", "rho", "kind")

PHASE_COLUMNS = SWEEP_AXES + (
    "verdict",
    "certificate",
    "final_length",
    "sup_u",
    "sup_v",
    "lambda_p_final",
)


@dataclass
class PhaseTable:
    columns: tuple
    rows: list  # list of dicts keyed by columns


def _sweep_cell(cell: tuple) -> dict:
    """One sweep job: the base config with the cell's axis values applied,
    run and classified.  cell is (base RunConfig, {axis: value}).
    Failures, a bad axis value included, become a row with verdict
    'Failed' instead of aborting the sweep."""
    cfg, axes = cell
    out = {
        name: axes.get(name, cfg.h0 if name == "h0" else getattr(cfg.model, name))
        for name in SWEEP_AXES
    }
    try:
        model_axes = {name: value for name, value in axes.items() if name != "h0"}
        cfg = replace(cfg, model=replace(cfg.model, **model_axes), h0=out["h0"])
        p, k = cfg.model, cfg.kernel
        init = cfg.init_data()
        stop = make_dichotomy_stop(p, k, cfg.numerics.horizon, cfg.tols)
        traj = run(p, init, k, cfg.run_control(stop_rule=stop, snapshot_every=0))
        cls = classify(traj, p, k, cfg.tols)
        out.update(
            verdict=cls.verdict,
            certificate=cls.certificate,
            final_length=cls.final_length,
            sup_u=cls.final_sup_u,
            sup_v=cls.final_sup_v,
            lambda_p_final=cls.lambda_p_final,
        )
    except Exception as exc:  # per-cell failures are data, not crashes
        out.update(
            verdict="Failed",
            certificate=type(exc).__name__,
            final_length=math.nan,
            sup_u=math.nan,
            sup_v=math.nan,
            lambda_p_final=math.nan,
        )
    return out


def sweep(cfg: RunConfig, workers: int = 1) -> PhaseTable:
    """Classify every cell of the Cartesian grid cfg.sweep_axes spans on
    top of cfg.  Cells are expanded row-major in SWEEP_AXES order, and
    the output keeps that order no matter how many workers run or in what
    order they finish."""
    names = [name for name in SWEEP_AXES if name in cfg.sweep_axes]
    cells = [
        (cfg, dict(zip(names, combo)))
        for combo in product(*(cfg.sweep_axes[name] for name in names))
    ]
    if workers <= 1:
        rows = list(map(_sweep_cell, cells))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    return PhaseTable(columns=PHASE_COLUMNS, rows=rows)
