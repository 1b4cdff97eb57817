"""Command-line interface: config ingestion, subcommand dispatch, file emission.

Exit codes: 0 success, 2 configuration or usage errors, 3 solver or
convergence failures, 4 inconclusive outcomes, 5 parameter-regime
errors, 1 anything unexpected.  Errors are also written as a one-line
JSON record to stderr.  Every command writes into --out-dir, created if
missing; it defaults to the working directory, and nothing else sets it.
A config command writes its JSON record when output.formats includes
json or when it has no other artifact; eigen and critical-length always
write theirs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import lru_cache

from .classify import _run_classified, check_sweep_workers, estimate_threshold, sweep
# classify and make_dichotomy_stop are unused here but stay imported:
# bench/tracer.py SITES wrap frontlab.cli.classify and RULE_SITES
# frontlab.cli.make_dichotomy_stop
from .classify import classify, make_dichotomy_stop  # noqa: F401
from .config import RunConfig, load_config
from .eigen import EigenProblem, check_critical_length_args, critical_length, default_n, lambda_p
from .errors import ConfigError, ConvergenceError, InconclusiveError, RegimeError, SolverFailure
from .kernels import KNOWN_FAMILIES, Kernel
from .output import (
    atomic_write_text,
    dumps_json,
    phase_csv,
    trajectory_csv,
    write_json,
    write_snapshots,
)
from .solver import Trajectory, run
from .supersolution import build_vanishing_supersolution, check_domination

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_INCONCLUSIVE = 4
EXIT_REGIME = 5


def _out_dir(args) -> str:
    """The --out-dir directory, created; an empty one is the working directory."""
    outdir = args.out_dir or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {outdir}: {exc}") from None
    return outdir


def _load(args) -> tuple[RunConfig, str]:
    """A config command's config and its output directory, created."""
    cfg = load_config(args.config)
    return cfg, _out_dir(args)


def _emit(outdir: str, cfg: RunConfig, name: str, record: dict, written=(), message=None) -> int:
    """A config command's tail: the record, the config echo its last key, to
    outdir/name when json output is on or nothing else was written; then the
    message line, if any, and one 'wrote' line per file, in write order."""
    if "json" in cfg.formats or not written:
        written = [*written, os.path.join(outdir, name)]
        write_json(written[-1], {**record, "config": dict(sorted(cfg.resolved.items()))})
    if message is not None:
        print(message)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _emit_flag(outdir: str, name: str, record: dict) -> int:
    """A flag command's tail: the record to outdir/name, and on stdout."""
    text = dumps_json(record)
    atomic_write_text(os.path.join(outdir, name), text)
    sys.stdout.write(text)
    return EXIT_OK


def _emit_csv(outdir: str, cfg: RunConfig, name: str, render) -> list:
    """render() to outdir/name when csv output is on; the paths written."""
    if "csv" not in cfg.formats:
        return []
    path = os.path.join(outdir, name)
    atomic_write_text(path, render())
    return [path]


def _emit_trajectory(outdir: str, cfg: RunConfig, traj: Trajectory) -> tuple[list, list]:
    """Trajectory and snapshot CSVs, when csv output is on; returns the
    paths written and the records of the snapshot files."""
    written = _emit_csv(outdir, cfg, "trajectory.csv", lambda: trajectory_csv(traj))
    snapshot_records = write_snapshots(outdir, traj) if written else []
    return written + [os.path.join(outdir, rec["file"]) for rec in snapshot_records], snapshot_records


def cmd_simulate(args) -> int:
    cfg, outdir = _load(args)
    traj = run(cfg.model, cfg.init_data(), cfg.kernel, cfg.numerics)
    written, snapshot_records = _emit_trajectory(outdir, cfg, traj)
    summary = {
        "command": "simulate",
        "termination": traj.termination,
        "samples": len(traj.t),
        "final": {
            "t": float(traj.t[-1]),
            "g": float(traj.g[-1]),
            "h": float(traj.h[-1]),
            "length": float(traj.h[-1] - traj.g[-1]),
            "gdot": float(traj.gdot[-1]),
            "hdot": float(traj.hdot[-1]),
            "sup_u": float(traj.sup_u[-1]),
            "sup_v": float(traj.sup_v[-1]),
        },
        "snapshots": snapshot_records,
    }
    return _emit(outdir, cfg, "summary.json", summary, written)


def cmd_classify(args) -> int:
    cfg, outdir = _load(args)
    (res,) = _run_classified([(cfg.model, cfg.init_data())], cfg.kernel, cfg.numerics)
    if isinstance(res, Exception):
        raise res
    traj, cls = res
    written, _ = _emit_trajectory(outdir, cfg, traj)
    record = {
        "command": "classify",
        "verdict": cls.verdict,
        "certificate": cls.certificate,
        "fired_at": cls.fired_at,
        "evidence": {
            "final_length": cls.final_length,
            "final_sup_u": cls.final_sup_u,
            "final_sup_v": cls.final_sup_v,
            "final_gdot": cls.final_gdot,
            "final_hdot": cls.final_hdot,
            "lambda_p_final": cls.lambda_p_final,
        },
        "note": cls.note,
        "termination": traj.termination,
    }
    return _emit(outdir, cfg, "classification.json", record, written, f"{cls.verdict} ({cls.certificate})")


def cmd_threshold(args) -> int:
    cfg, outdir = _load(args)
    est = estimate_threshold(cfg.model, cfg.init_data(), cfg.kernel, ctrl=cfg.scan)
    record = {
        "command": "threshold",
        "ray": list(est.ray),
        "lower": est.lower,
        "upper": est.upper,
        "monotone_flag": est.monotone_flag,
        "scanned": [[s, verdict] for s, verdict in est.scanned],
    }
    message = f"threshold bracket: [{est.lower:.6g}, {est.upper:.6g}] (monotone={est.monotone_flag})"
    return _emit(outdir, cfg, "threshold.json", record, message=message)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if not cfg.sweep_axes:
        raise ConfigError("sweep requires at least one sweep.<axis> key in the config")
    check_sweep_workers(args.workers)
    outdir = _out_dir(args)  # once the flags are checked, before the computation
    table = sweep(cfg, workers=args.workers)
    written = _emit_csv(outdir, cfg, "phase_table.csv", lambda: phase_csv(table))
    verdicts = [row["verdict"] for row in table.rows]
    summary = {
        "command": "sweep",
        "cells": len(table.rows),
        "verdict_counts": {key: verdicts.count(key) for key in sorted(set(verdicts))},
    }
    return _emit(outdir, cfg, "sweep_summary.json", summary, written)


def cmd_supersolution_check(args) -> int:
    cfg, outdir = _load(args)
    p, k = cfg.model, cfg.kernel
    spec = build_vanishing_supersolution(p, cfg.init_data(), k, cfg.h1)
    snapshot_every = cfg.numerics.snapshot_every or cfg.numerics.record_every
    traj = run(p, cfg.init_data(), k, replace(cfg.numerics, snapshot_every=snapshot_every))
    report = check_domination(spec, traj)
    written, _ = _emit_trajectory(outdir, cfg, traj)
    record = {
        "command": "supersolution-check",
        "case": spec.case,
        "h1": spec.h1,
        "lambda": spec.lam,
        "budget": report.budget,
        "mu_plus_rho": report.mu_plus_rho,
        "budget_ok": report.budget_ok,
        "dominated": report.dominated,
        "tol": report.tol,
        "max_violations": {
            "u": report.max_violation_u,
            "v": report.max_violation_v,
            "h": report.max_violation_h,
            "g": report.max_violation_g,
        },
        "constants": {key: spec.constants[key] for key in sorted(spec.constants)},
        "hbar_limit_bound": spec.hbar_limit_bound,
        "samples_checked": report.samples_checked,
        "termination": traj.termination,
    }
    message = f"dominated={report.dominated} budget_ok={report.budget_ok}"
    return _emit(outdir, cfg, "domination.json", record, written, message)


def cmd_eigen(args) -> int:
    kernel = Kernel(args.family, args.radius)
    n = args.n if args.n is not None else default_n(0.0, args.length, kernel)
    prob = EigenProblem(d=args.d, theta0=args.theta0, ell1=0.0, ell2=args.length, n=n, kernel=kernel)
    outdir = _out_dir(args)  # once the flags are checked, before the computation
    res = lambda_p(prob)
    record = {
        "command": "eigen",
        "d": args.d,
        "theta0": args.theta0,
        "length": args.length,
        "n": n,
        "kernel": {"family": kernel.family, "radius": kernel.radius},
        "lambda_p": res.lambda_p,
        "residual": res.residual,
        "iterations": res.iterations,
    }
    return _emit_flag(outdir, "eigen.json", record)


def cmd_critical_length(args) -> int:
    kernel = Kernel(args.family, args.radius)
    check_critical_length_args(args.d1, args.a, args.tol)
    outdir = _out_dir(args)  # once the flags are checked, before the computation
    res = critical_length(args.d1, args.a, kernel, tol=args.tol)
    record = {
        "command": "critical-length",
        "d1": args.d1,
        "a": args.a,
        "tol": args.tol,
        "kernel": {"family": kernel.family, "radius": kernel.radius},
        "ell_star": res.ell_star,
        "lambda_at_ell_star": res.lambda_at_ell_star,
        "bracket": list(res.bracket),
        "n": res.n,
    }
    return _emit_flag(outdir, "critical_length.json", record)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Numerical laboratory for a nonlocal/local two-species free boundary problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tail(cmd, func):
        cmd.add_argument("--out-dir", default=".", help="output directory, created if missing (default: .)")
        cmd.set_defaults(func=func)

    def add_config_cmd(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a run configuration file")
        add_tail(cmd, func)
        return cmd

    def add_kernel_tail(cmd, func):  # Kernel(family, radius)'s flags first
        cmd.add_argument("--family", default="tent", help=f"one of {', '.join(KNOWN_FAMILIES)} (default: tent)")
        cmd.add_argument("--radius", type=float, default=1.0, help="kernel support radius (default: 1.0)")
        add_tail(cmd, func)

    add_config_cmd("simulate", cmd_simulate, "integrate one run and emit trajectory files")
    add_config_cmd("classify", cmd_classify, "simulate, then report a spreading/vanishing verdict")
    add_config_cmd(
        "threshold", cmd_threshold, "bracket the front-budget threshold along the ray through (model.mu, model.rho)"
    )
    sweep_cmd = add_config_cmd("sweep", cmd_sweep, "classify every cell of a parameter grid")
    sweep_cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the usable CPUs where children start by fork, else 1)",
    )
    add_config_cmd(
        "supersolution-check",
        cmd_supersolution_check,
        "compare a run against the closed-form vanishing super-solution",
    )

    eig = sub.add_parser("eigen", help="principal eigenvalue on an interval")
    eig.add_argument("--d", type=float, required=True, help="dispersal rate d, the factor of the nonlocal operator")
    eig.add_argument("--theta0", type=float, required=True, help="constant rate added to the dispersal operator")
    eig.add_argument("--length", type=float, required=True, help="length L of the interval (0, L)")
    eig.add_argument("--n", type=int, default=None, help="collocation nodes (default: spacing radius/8)")
    add_kernel_tail(eig, cmd_eigen)

    crit = sub.add_parser("critical-length", help="length at which the eigenvalue crosses zero")
    crit.add_argument("--d1", type=float, required=True, help="dispersal rate of u; needs 0 < a < d1")
    crit.add_argument("--a", type=float, required=True, help="growth rate of u; needs 0 < a < d1")
    crit.add_argument(
        "--tol",
        type=float,
        default=1e-4,
        help="bracket width at which lambda_p is first computed (default: 1e-4); |lambda_p| < 1e-6 sets ell_star",
    )
    add_kernel_tail(crit, cmd_critical_length)

    return parser


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(dumps_json({"error": type(exc).__name__, "message": str(exc)}))


# (exception types, exit code); the first entry the error matches wins
_EXIT_CODES = (
    # ValueError: bad direct flag values (kernel, eigenproblem, ...)
    ((ConfigError, ValueError), EXIT_CONFIG),
    ((SolverFailure, ConvergenceError), EXIT_SOLVER),
    (InconclusiveError, EXIT_INCONCLUSIVE),
    (RegimeError, EXIT_REGIME),
    (Exception, EXIT_UNEXPECTED),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # every failure becomes a JSON record and an exit code
        _emit_error(exc)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
