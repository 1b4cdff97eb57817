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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from typing import TYPE_CHECKING, Optional

import numpy as np

from .eigen import CriticalLengthResult, critical_length, lambda_p_interval
from .errors import InconclusiveError, RegimeError, SolverFailure
from .kernels import Kernel, make_kernel
from .model import InitialData, ModelParams
# auto_dt and run are unused here but stay imported: bench/tracer.py SITES wrap
# frontlab.classify.auto_dt and frontlab.classify.run
from .solver import RunControl, Trajectory, auto_dt, run, run_batch  # noqa: F401

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


# bisection tolerance of every cached critical length
_ELL_STAR_TOL = 1e-4


@lru_cache(maxsize=None)
def ell_star_cached(d1: float, a: float, family: str, radius: float) -> CriticalLengthResult:
    """Critical length, computed once per (d1, a, kernel) for reuse in sweeps."""
    return critical_length(d1, a, make_kernel(family, radius), tol=_ELL_STAR_TOL)


def _spread_lengths(p: ModelParams, k: Kernel) -> tuple[float, float]:
    """(pi*sqrt(d2), critical length): the two lengths a vanishing habitat
    never outgrows, so a habitat longer than their minimum spreads.
    Needs a < d1, where the critical length exists."""
    return math.pi * math.sqrt(p.d2), ell_star_cached(p.d1, p.a, k.family, k.radius).ell_star


def _quiet(rec, start: int, tols: ClassifyTolerances) -> bool:
    """Whether both sup norms sit below vanish_tol and both front speeds
    below speed_tol at every record from index start on."""
    return all(
        rec.sup_u[i] < tols.vanish_tol
        and rec.sup_v[i] < tols.vanish_tol
        and abs(rec.gdot[i]) < tols.speed_tol
        and abs(rec.hdot[i]) < tols.speed_tol
        for i in range(start, len(rec.t))
    )


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

    pi_bound, ell = _spread_lengths(p, k)
    crossed = np.nonzero(length > min(pi_bound, ell))[0]
    if crossed.size:
        idx = int(crossed[0])
        cert = CERT_ELL_STAR if length[idx] > ell else CERT_PI_SQRT_D2
        return Classification(verdict=SPREADING, certificate=cert, fired_at=float(traj.t[idx]), **evidence)

    # the records in the trailing window_fraction of [0, t_final], and at least
    # the last two: coarse record cadence (e.g. after an early stop) can leave one
    start = min(bisect_left(traj.t, traj.t[-1] - tols.window_fraction * traj.t[-1]), traj.t.size - 2)
    if (
        start >= 0
        and _quiet(traj, start, tols)
        and evidence["final_length"] <= pi_bound + 2.0 * final_dx
        and evidence["lambda_p_final"] <= tols.eigen_slack
    ):
        return Classification(
            verdict=VANISHING,
            certificate=CERT_PLATEAU,
            fired_at=float(traj.t[start]),
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
    threshold = None if p.a >= p.d1 else min(_spread_lengths(p, k))
    window = tols.window_fraction * horizon

    def rule(rec) -> Optional[str]:
        if threshold is None:
            return "a-rate-dominates"
        if rec.h[-1] - rec.g[-1] > threshold:
            return "spreading-length"
        t_now = rec.t[-1]
        if t_now >= 2.0 * window:
            # rec.t increases, so the window is a suffix of the record
            start = bisect_left(rec.t, t_now - window)
            if len(rec.t) - start >= 3 and _quiet(rec, start, tols):
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


def _run_classified(jobs: list, k: Kernel, ctrl: RunControl, tols: ClassifyTolerances) -> list:
    """Run jobs, (p, init) pairs, as one batch, each under its dichotomy
    stop rule, then classify each trajectory.  Returns, in job order, each
    (Trajectory, Classification) pair, or the exception that ended the run
    or its classification."""
    out: list = [None] * len(jobs)
    runs = []
    for i, (p, init) in enumerate(jobs):
        try:
            runs.append((i, (p, init, make_dichotomy_stop(p, k, ctrl.horizon, tols))))
        except Exception as exc:  # this job's own failure, for its caller to raise or report
            out[i] = exc
    for (i, (p, _, _)), res in zip(runs, run_batch([job for _, job in runs], k, ctrl)):
        if not isinstance(res, Exception):
            try:
                res = res, classify(res, p, k, tols)
            except Exception as exc:  # as above
                res = exc
        out[i] = res
    return out


def _classify_at_scales(
    p: ModelParams,
    init: InitialData,
    k: Kernel,
    scales: list,
    ray: tuple[float, float],
    ctrl: ScanControl,
    tols: ClassifyTolerances,
) -> list[str]:
    """The verdict at each budget scale, the scales run as one batch; a
    SolverFailure makes its scale Undecided."""
    rc = RunControl(horizon=ctrl.horizon, n=ctrl.n, record_every=_SCAN_RECORD_EVERY)
    jobs = [(replace(p, mu=s * ray[0], rho=s * ray[1]), init) for s in scales]
    verdicts = []
    for res in _run_classified(jobs, k, rc, tols):
        if isinstance(res, SolverFailure):
            verdicts.append(UNDECIDED)
        elif isinstance(res, Exception):
            raise res
        else:
            verdicts.append(res[1].verdict)
    return verdicts


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
    pi_bound, ell = _spread_lengths(p, k)
    cap = 0.5 * min(pi_bound, ell)
    if not (init.h0 < cap):
        raise RegimeError(
            f"threshold undefined: h0={init.h0} >= {cap:.6g} = half of "
            f"min{{pi*sqrt(d2)={pi_bound:.6g}, critical length={ell:.6g}}}; "
            "spreading happens for every budget"
        )

    scales = np.geomspace(ctrl.s_min, ctrl.s_max, ctrl.points).tolist()
    records = dict(zip(scales, _classify_at_scales(p, init, k, scales, ray, ctrl, tols)))

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
        (verdict,) = _classify_at_scales(p, init, k, [mid], ray, ctrl, tols)
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


def _sweep_cell(cell: tuple) -> tuple[dict, object]:
    """One sweep cell, (base RunConfig, {axis: value}), set up: its row with
    the axis values filled in, and its job, (model, initial data) with the
    cell's axis values applied, or the exception building them raised."""
    cfg, axes = cell
    out = {
        name: axes.get(name, cfg.h0 if name == "h0" else getattr(cfg.model, name))
        for name in SWEEP_AXES
    }
    try:
        model_axes = {name: value for name, value in axes.items() if name != "h0"}
        cfg = replace(cfg, model=replace(cfg.model, **model_axes), h0=out["h0"])
        return out, (cfg.model, cfg.init_data())
    except Exception as exc:  # per-cell failures are data, not crashes
        return out, exc


def _sweep_batch(cells: list) -> list[dict]:
    """One sweep job: the cells' runs advanced as one batch and classified,
    one row per cell in the order given.  Failures, a bad axis value
    included, become a row with verdict 'Failed' instead of aborting the
    sweep."""
    cfg = cells[0][0]
    prepared = [_sweep_cell(cell) for cell in cells]
    jobs = [job for _, job in prepared if not isinstance(job, Exception)]
    ctrl = replace(cfg.numerics, snapshot_every=0)
    results = iter(_run_classified(jobs, cfg.kernel, ctrl, cfg.tols))
    rows = []
    for out, job in prepared:
        res = job if isinstance(job, Exception) else next(results)
        if isinstance(res, Exception):
            cls = Classification("Failed", type(res).__name__, None, *[math.nan] * 6)
        else:
            cls = res[1]
        # a result column reads the Classification field of its name, or
        # final_<name> where the field has that prefix (sup_u, sup_v)
        for name in PHASE_COLUMNS[len(SWEEP_AXES):]:
            out[name] = getattr(cls, name if hasattr(cls, name) else "final_" + name)
        rows.append(out)
    return rows


def _sweep_child(conn, cells: list) -> None:
    """Body of a sweep child process: sends the batch's rows, or the
    exception that ended it, over conn."""
    try:
        res = _sweep_batch(cells)
    except Exception as exc:  # the parent raises it
        res = exc
    with conn:
        conn.send(res)


def _fan_out(batches: list) -> list:
    """Each batch's rows, in order: the first batch run in this process,
    each other one in a child process that sends its rows back over a
    one-way pipe.  A child that dies raises RuntimeError naming its exit
    code."""
    # imported here: no other command needs multiprocessing
    import multiprocessing

    children = []
    try:
        for cells in batches[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_sweep_child, args=(send, cells))
            children.append((child, recv))
            with send:  # closed here once the child holds it, so recv() ends if the child dies
                child.start()
        out = [_sweep_batch(batches[0])]
        for child, recv in children:
            # read before join: a child blocks in send until its rows are read
            try:
                res = recv.recv()
            except EOFError:  # the child died before it sent anything
                child.join()
                raise RuntimeError(f"sweep child process exited with code {child.exitcode}") from None
            child.join()
            if isinstance(res, Exception):
                raise res
            out.append(res)
        return out
    finally:
        for child, recv in children:
            if child.is_alive():  # a failure ended the sweep before its rows were read
                child.terminate()
            if child.pid is not None:  # started
                child.join()
            recv.close()


def sweep(cfg: RunConfig, workers: int = 1) -> PhaseTable:
    """Classify every cell of the Cartesian grid cfg.sweep_axes spans on
    top of cfg.  Cells are expanded row-major in SWEEP_AXES order and dealt
    round-robin into min(workers, cells) batches, so workers counts the
    processes doing work: the first batch runs in this process, each other
    batch in a child process of its own, started by multiprocessing's
    default start method.  An exception that ends a child's batch is raised
    here, and every child is joined before sweep returns or raises.  The
    output keeps the row-major order, and each row is bit-identical, no
    matter how many workers run or in what order they finish."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    names = [name for name in SWEEP_AXES if name in cfg.sweep_axes]
    cells = [
        (cfg, dict(zip(names, combo)))
        for combo in product(*(cfg.sweep_axes[name] for name in names))
    ]
    batches = min(workers, len(cells))
    if batches == 1:
        rows = _sweep_batch(cells)
    else:
        rows = [None] * len(cells)
        for i, part in enumerate(_fan_out([cells[j::batches] for j in range(batches)])):
            rows[i::batches] = part
    return PhaseTable(columns=PHASE_COLUMNS, rows=rows)
