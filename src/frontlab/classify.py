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
import os
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
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


# the plateau rule's fixed tolerances: both sup norms below _VANISH_TOL and
# both front speeds below _SPEED_TOL over the trailing _WINDOW_FRACTION of
# the run, and a final eigenvalue at most _EIGEN_SLACK
_VANISH_TOL = 1e-3
_SPEED_TOL = 1e-3
_EIGEN_SLACK = 1e-2
_WINDOW_FRACTION = 0.1


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


def _quiet(rec, start: int) -> bool:
    """Whether both sup norms sit below _VANISH_TOL and both front speeds
    below _SPEED_TOL at every record from index start on."""
    return all(
        rec.sup_u[i] < _VANISH_TOL
        and rec.sup_v[i] < _VANISH_TOL
        and abs(rec.gdot[i]) < _SPEED_TOL
        and abs(rec.hdot[i]) < _SPEED_TOL
        for i in range(start, len(rec.t))
    )


def classify(traj: Trajectory, p: ModelParams, k: Kernel) -> Classification:
    """Verdict for a completed trajectory; Undecided is a valid outcome."""
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

    # the records in the trailing _WINDOW_FRACTION of [0, t_final], and at least
    # the last two: coarse record cadence (e.g. after an early stop) can leave one
    start = min(bisect_left(traj.t, traj.t[-1] - _WINDOW_FRACTION * traj.t[-1]), traj.t.size - 2)
    if (
        start >= 0
        and _quiet(traj, start)
        and evidence["final_length"] <= pi_bound + 2.0 * final_dx
        and evidence["lambda_p_final"] <= _EIGEN_SLACK
    ):
        return Classification(
            verdict=VANISHING,
            certificate=CERT_PLATEAU,
            fired_at=float(traj.t[start]),
            note=_PLATEAU_NOTE,
            **evidence,
        )

    return Classification(verdict=UNDECIDED, certificate=CERT_HORIZON, fired_at=None, **evidence)


def make_dichotomy_stop(p: ModelParams, k: Kernel, horizon: float):
    """Stop rule for run(): ends a run as soon as a spreading certificate
    fires or the vanishing plateau conditions hold over the trailing
    window, the last _WINDOW_FRACTION of the horizon.  The eigenvalue
    condition is left to classify() afterwards."""
    # None: spreading is unconditional
    threshold = None if p.a >= p.d1 else min(_spread_lengths(p, k))
    window = _WINDOW_FRACTION * horizon

    def rule(rec) -> Optional[str]:
        if threshold is None:
            return "a-rate-dominates"
        if rec.h[-1] - rec.g[-1] > threshold:
            return "spreading-length"
        t_now = rec.t[-1]
        if t_now >= 2.0 * window:
            # rec.t increases, so the window is a suffix of the record
            start = bisect_left(rec.t, t_now - window)
            if len(rec.t) - start >= 3 and _quiet(rec, start):
                return "vanishing-plateau"
        return None

    return rule


_SCAN_RECORD_EVERY = 5  # record cadence of every threshold-scan run
_SCAN_RATIO_TOL = 1.5  # stop refining once upper/lower is at most this
# bisection levels probed per refinement round on more than one CPU: the
# default grid's neighbour ratio, 10**(9/7) ~ 19.3, takes 3 halvings to 1.5
_SCAN_LEVELS = 3


@dataclass(frozen=True)
class ScanControl:
    """The grid of estimate_threshold's scan over the front-budget scale,
    points scales log-spaced on [s_min, s_max], and the horizon and node
    count of every run it makes."""

    s_min: float = 1e-6
    s_max: float = 1e3
    points: int = 8
    horizon: float = 80.0
    n: int = 120


@dataclass
class ThresholdEstimate:
    ray: tuple[float, float]
    lower: float  # largest scale with a Vanishing verdict
    upper: float  # smallest scale with a Spreading verdict
    monotone_flag: bool
    scanned: list = field(default_factory=list)  # (scale, verdict) pairs, sorted


def _run_classified(jobs: list, k: Kernel, ctrl: RunControl) -> list:
    """Run jobs, (p, init) pairs, as one batch, each under its dichotomy
    stop rule, then classify each trajectory.  Returns, in job order, each
    (Trajectory, Classification) pair, or the exception that ended the run
    or its classification."""
    out: list = [None] * len(jobs)
    runs = []
    for i, (p, init) in enumerate(jobs):
        try:
            runs.append((i, (p, init, make_dichotomy_stop(p, k, ctrl.horizon))))
        except Exception as exc:  # this job's own failure, for its caller to raise or report
            out[i] = exc
    for (i, (p, _, _)), res in zip(runs, run_batch([job for _, job in runs], k, ctrl)):
        if not isinstance(res, Exception):
            try:
                res = res, classify(res, p, k)
            except Exception as exc:  # as above
                res = exc
        out[i] = res
    return out


# the root /proc and /sys are read under
_ROOT = "/"


def _read(path: str) -> str:
    """A file's text, empty where it cannot be read."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cgroup_quota(directory: str, v2: bool) -> float:
    """ceil(quota/period) of the CPU quota set on one cgroup directory: v2
    cpu.max ('max' for none) or v1 cpu.cfs_quota_us over cpu.cfs_period_us
    (-1 for none); inf where none is set or a file is missing or unreadable."""
    if v2:
        words = _read(os.path.join(directory, "cpu.max")).split()
    else:
        words = _read(os.path.join(directory, "cpu.cfs_quota_us")).split()
        words += _read(os.path.join(directory, "cpu.cfs_period_us")).split()
    try:
        quota, period = map(int, words)
    except ValueError:  # 'max', or not two numbers
        return math.inf
    return -(-quota // period) if quota > 0 and period > 0 else math.inf


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity count, or
    the CPU count where affinity is unknown, capped by the tightest CPU
    quota on its cgroup or an ancestor, in each hierarchy that
    /proc/self/cgroup names."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    base = os.path.join(_ROOT, "sys", "fs", "cgroup")
    for line in _read(os.path.join(_ROOT, "proc", "self", "cgroup")).splitlines():
        # hierarchy-id:controllers:path, the controllers empty on v2
        controllers, _, path = line.partition(":")[2].partition(":")
        if controllers and "cpu" not in controllers.split(","):
            continue
        top = os.path.join(base, controllers) if controllers else base
        names = [name for name in path.split("/") if name]
        for depth in range(len(names), -1, -1):
            cpus = min(cpus, _cgroup_quota(os.path.join(top, *names[:depth]), not controllers))
    return cpus


def _fork_cpus() -> int:
    """The parts a threshold scan, or a sweep without a worker count,
    fans out to: _cpus() where child processes start by fork, otherwise 1.
    A child started by spawn or forkserver imports numpy and frontlab
    afresh, which costs more than a scan round it shares, and its jobs,
    initial profiles included, would have to pickle."""
    cpus = _cpus()
    if cpus == 1:
        return 1
    # imported here: on one CPU nothing starts a child
    import multiprocessing

    # the default start method, without fixing it for the caller
    method = multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]
    return cpus if method == "fork" else 1


def _child(conn, fn, part) -> None:
    """Body of a fan-out child process: sends fn(part), or the exception
    that ended it, over conn."""
    try:
        res = fn(part)
    except Exception as exc:  # the parent raises it
        res = exc
    with conn:
        conn.send(res)


def _fan_out(fn, items: list, parts: int) -> list:
    """The per-item results of fn over items, in item order.  items are
    dealt round-robin into max(1, min(parts, len(items))) parts, and
    fn(part) returns one result per item of its part: the first part runs
    in this process, each other one in a child process, started by
    multiprocessing's default start method, that sends its results back
    over a one-way pipe.  Under spawn, fn and the items must pickle.  An
    exception that ends a child's part is raised here, and a child that
    dies raises RuntimeError naming its exit code.  Every child is joined
    before this returns or raises."""
    parts = max(1, min(parts, len(items)))
    dealt = [items[j::parts] for j in range(parts)]
    if parts > 1:
        # imported here: nothing but a second part needs it
        import multiprocessing

    children = []
    try:
        for part in dealt[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_child, args=(send, fn, part))
            children.append((child, recv))
            with send:  # closed here once the child holds it, so recv() ends if the child dies
                child.start()
        out = [None] * len(items)
        out[0::parts] = fn(dealt[0])
        for j, (child, recv) in enumerate(children, 1):
            # read before join: a child blocks in send until its result is read
            try:
                res = recv.recv()
            except EOFError:  # the child died before it sent anything
                child.join()
                raise RuntimeError(f"child process exited with code {child.exitcode}") from None
            child.join()
            if isinstance(res, Exception):
                raise res
            out[j::parts] = res
        return out
    finally:
        for child, recv in children:
            if child.is_alive():  # a failure ended the fan-out before its result was read
                child.terminate()
            if child.pid is not None:  # started
                child.join()
            recv.close()


def _scan_part(k: Kernel, rc: RunControl, jobs: list) -> list[str]:
    """One part of a scan round run as one batch: the verdict of each job,
    Undecided where a SolverFailure ended it.  Any other exception is
    raised."""
    verdicts = []
    for res in _run_classified(jobs, k, rc):
        if isinstance(res, SolverFailure):
            verdicts.append(UNDECIDED)
        elif isinstance(res, Exception):
            raise res
        else:
            verdicts.append(res[1].verdict)
    return verdicts


def _classify_at_scales(
    p: ModelParams,
    init: InitialData,
    k: Kernel,
    scales: list,
    ray: tuple[float, float],
    ctrl: ScanControl,
    cpus: int = 1,
) -> list[str]:
    """The verdict at each budget scale; a SolverFailure makes its scale
    Undecided.  _fan_out deals the scales into up to cpus parts, each run
    as one batch: the first in this process, each other one in a child
    process.  Each verdict is the one its scale gets alone, so the split
    does not change it."""
    rc = RunControl(horizon=ctrl.horizon, n=ctrl.n, record_every=_SCAN_RECORD_EVERY)
    jobs = [(replace(p, mu=s * ray[0], rho=s * ray[1]), init) for s in scales]
    return _fan_out(partial(_scan_part, k, rc), jobs, cpus)


def _bisection_tree(lower: float, upper: float, levels: int) -> list[float]:
    """The geometric midpoints that up to levels rounds of bisection from
    (lower, upper) can probe, whichever way each verdict goes, parents
    before children; a branch ends where upper/lower <= _SCAN_RATIO_TOL."""
    if levels == 0 or upper / lower <= _SCAN_RATIO_TOL:
        return []
    mid = math.sqrt(lower * upper)
    return [mid] + _bisection_tree(lower, mid, levels - 1) + _bisection_tree(mid, upper, levels - 1)


def estimate_threshold(
    p: ModelParams,
    init: InitialData,
    k: Kernel,
    ray: tuple[float, float] = (0.5, 0.5),
    ctrl: ScanControl | None = None,
) -> ThresholdEstimate:
    """Bracket the front-budget threshold along the ray (mu, rho) =
    s*(mu_hat, rho_hat).

    mu and rho on the incoming parameters are ignored.  Requires a < d1
    and h0 < half of min{pi*sqrt(d2), critical length}: otherwise
    spreading is unconditional and no threshold exists.  A geometric scan
    locates Vanishing and Spreading scales, then bisection in log scale
    tightens the bracket at its geometric midpoint until upper/lower <=
    1.5 or a probe comes back Undecided.  On one CPU each round probes
    that midpoint alone.  On more than one, where child processes start
    by fork (_fork_cpus), the grid and each round are dealt to children by
    _classify_at_scales, and each round probes the up to 7 midpoints of
    the next three bisection levels at once; the bisection walks them,
    and the probes it does not visit are dropped, so the bracket, scanned
    and monotone_flag are those of one probe per round.  Every run ends under
    make_dichotomy_stop and is judged by classify, whose plateau rule has
    fixed tolerances.  Verdicts are not guaranteed monotone in s;
    monotone_flag reports what the scan actually saw.
    """
    ctrl = ctrl or ScanControl()
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

    cpus = _fork_cpus()
    scales = np.geomspace(ctrl.s_min, ctrl.s_max, ctrl.points).tolist()
    records = dict(zip(scales, _classify_at_scales(p, init, k, scales, ray, ctrl, cpus)))

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

    # each verdict halves log(upper/lower), so a bracket of doubles reaches
    # _SCAN_RATIO_TOL within 12 verdicts; a round probes the tree below the
    # bracket, and only the probes this walk visits are recorded
    levels = _SCAN_LEVELS if cpus > 1 else 1
    probed: dict = {}
    while upper / lower > _SCAN_RATIO_TOL:
        mid = math.sqrt(lower * upper)
        if mid not in probed:
            tree = _bisection_tree(lower, upper, levels)
            probed = dict(zip(tree, _classify_at_scales(p, init, k, tree, ray, ctrl, cpus)))
        verdict = records[mid] = probed[mid]
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
    results = iter(_run_classified(jobs, cfg.kernel, ctrl))
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


def sweep(cfg: RunConfig, workers: Optional[int] = None) -> PhaseTable:
    """Classify every cell of the Cartesian grid cfg.sweep_axes spans on
    top of cfg.  Cells are expanded row-major in SWEEP_AXES order and dealt
    by _fan_out into min(workers, cells) batches, so workers counts the
    processes doing work: the first batch runs in this process, each other
    batch in a child process of its own, started by multiprocessing's
    default start method.  workers defaults to _fork_cpus(), the CPUs this
    process may use where children start by fork and 1 otherwise.  An
    exception that ends a child's batch is raised here, and every child is
    joined before sweep returns or raises.  The output keeps the row-major
    order, and each row is bit-identical, no matter how many workers run
    or in what order they finish."""
    if workers is None:
        workers = _fork_cpus()
    elif workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    names = [name for name in SWEEP_AXES if name in cfg.sweep_axes]
    cells = [
        (cfg, dict(zip(names, combo)))
        for combo in product(*(cfg.sweep_axes[name] for name in names))
    ]
    return PhaseTable(columns=PHASE_COLUMNS, rows=_fan_out(_sweep_batch, cells, workers))
