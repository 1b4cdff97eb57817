"""Command-line interface: config ingestion, subcommand dispatch, file emission.

Exit codes: 0 success, 2 configuration or usage errors, 3 solver or
convergence failures, 4 inconclusive outcomes, 5 parameter-regime
errors, 1 anything unexpected.  Errors are also written as a one-line
JSON record to stderr.  The output directory comes from --out-dir, then
the FRONTLAB_OUTDIR environment variable, then the config.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import lru_cache

from .classify import classify, estimate_threshold, make_dichotomy_stop, sweep
from .config import RunConfig, load_config
from .eigen import EigenProblem, critical_length, default_n, lambda_p
from .errors import ConfigError, ConvergenceError, InconclusiveError, RegimeError, SolverFailure
from .kernels import make_kernel
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


def _resolve_outdir(args, cfg: RunConfig | None = None) -> str:
    outdir = (
        getattr(args, "out_dir", None)
        or os.environ.get("FRONTLAB_OUTDIR")
        or (cfg.out_dir if cfg is not None else ".")
    )
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _config_echo(cfg: RunConfig) -> dict:
    return {key: cfg.resolved[key] for key in sorted(cfg.resolved)}


def _emit_trajectory(outdir: str, cfg: RunConfig, traj: Trajectory) -> tuple[list, list]:
    """Trajectory and snapshot CSVs, when csv output is on; returns the
    paths written and the records of the snapshot files."""
    if "csv" not in cfg.formats:
        return [], []
    path = os.path.join(outdir, "trajectory.csv")
    atomic_write_text(path, trajectory_csv(traj))
    snapshot_records = write_snapshots(outdir, traj)
    return [path] + [os.path.join(outdir, rec["file"]) for rec in snapshot_records], snapshot_records


def _final_record(traj: Trajectory) -> dict:
    return {
        "t": float(traj.t[-1]),
        "g": float(traj.g[-1]),
        "h": float(traj.h[-1]),
        "length": float(traj.h[-1] - traj.g[-1]),
        "gdot": float(traj.gdot[-1]),
        "hdot": float(traj.hdot[-1]),
        "sup_u": float(traj.sup_u[-1]),
        "sup_v": float(traj.sup_v[-1]),
    }


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args, cfg)
    traj = run(cfg.model, cfg.init_data(), cfg.kernel, cfg.numerics)
    written, snapshot_records = _emit_trajectory(outdir, cfg, traj)
    if "json" in cfg.formats:
        summary = {
            "command": "simulate",
            "termination": traj.termination,
            "samples": len(traj.t),
            "final": _final_record(traj),
            "snapshots": snapshot_records,
            "config": _config_echo(cfg),
        }
        path = os.path.join(outdir, "summary.json")
        write_json(path, summary)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args, cfg)
    stop = make_dichotomy_stop(cfg.model, cfg.kernel, cfg.numerics.horizon, cfg.tols)
    traj = run(cfg.model, cfg.init_data(), cfg.kernel, cfg.numerics, stop_rule=stop)
    cls = classify(traj, cfg.model, cfg.kernel, cfg.tols)
    written, _ = _emit_trajectory(outdir, cfg, traj)
    if "json" in cfg.formats:
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
            "config": _config_echo(cfg),
        }
        path = os.path.join(outdir, "classification.json")
        write_json(path, record)
        written.append(path)
    print(f"{cls.verdict} ({cls.certificate})")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_threshold(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args, cfg)
    est = estimate_threshold(
        cfg.model, cfg.init_data(), cfg.kernel, ray=cfg.ray, ctrl=cfg.scan, tols=cfg.tols
    )
    record = {
        "command": "threshold",
        "ray": list(est.ray),
        "lower": est.lower,
        "upper": est.upper,
        "monotone_flag": est.monotone_flag,
        "scanned": [[s, verdict] for s, verdict in est.scanned],
        "config": _config_echo(cfg),
    }
    path = os.path.join(outdir, "threshold.json")
    write_json(path, record)
    print(f"threshold bracket: [{est.lower:.6g}, {est.upper:.6g}] (monotone={est.monotone_flag})")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args, cfg)
    if not cfg.sweep_axes:
        raise ConfigError("sweep requires at least one sweep.<axis> key in the config")
    workers = args.workers if args.workers is not None else cfg.sweep_workers
    table = sweep(cfg, workers=workers)
    written = []
    if "csv" in cfg.formats:
        path = os.path.join(outdir, "phase_table.csv")
        atomic_write_text(path, phase_csv(table))
        written.append(path)
    if "json" in cfg.formats:
        counts: dict[str, int] = {}
        for row in table.rows:
            counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
        summary = {
            "command": "sweep",
            "cells": len(table.rows),
            "verdict_counts": {key: counts[key] for key in sorted(counts)},
            "config": _config_echo(cfg),
        }
        path = os.path.join(outdir, "sweep_summary.json")
        write_json(path, summary)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_supersolution_check(args) -> int:
    cfg = load_config(args.config)
    outdir = _resolve_outdir(args, cfg)
    p, k = cfg.model, cfg.kernel
    spec = build_vanishing_supersolution(p, cfg.init_data(), k, cfg.h1)
    snapshot_every = cfg.numerics.snapshot_every or cfg.numerics.record_every
    traj = run(p, cfg.init_data(), k, replace(cfg.numerics, snapshot_every=snapshot_every))
    report = check_domination(spec, traj)
    written, _ = _emit_trajectory(outdir, cfg, traj)
    if "json" in cfg.formats:
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
            "config": _config_echo(cfg),
        }
        path = os.path.join(outdir, "domination.json")
        write_json(path, record)
        written.append(path)
    print(f"dominated={report.dominated} budget_ok={report.budget_ok}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_eigen(args) -> int:
    kernel = make_kernel(args.family, args.radius)
    n = args.n if args.n is not None else default_n(0.0, args.length, kernel)
    res = lambda_p(EigenProblem(d=args.d, theta0=args.theta0, ell1=0.0, ell2=args.length, n=n, kernel=kernel))
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
    outdir = _resolve_outdir(args)
    path = os.path.join(outdir, "eigen.json")
    write_json(path, record)
    sys.stdout.write(dumps_json(record))
    return EXIT_OK


def cmd_critical_length(args) -> int:
    kernel = make_kernel(args.family, args.radius)
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
    outdir = _resolve_outdir(args)
    path = os.path.join(outdir, "critical_length.json")
    write_json(path, record)
    sys.stdout.write(dumps_json(record))
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Numerical laboratory for a nonlocal/local two-species free boundary problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_cmd(name, func, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a run configuration file")
        cmd.add_argument("--out-dir", default=None, help="output directory override")
        cmd.set_defaults(func=func)
        return cmd

    add_config_cmd("simulate", cmd_simulate, "integrate one run and emit trajectory files")
    add_config_cmd("classify", cmd_classify, "simulate, then report a spreading/vanishing verdict")
    add_config_cmd("threshold", cmd_threshold, "bracket the front-budget threshold along a ray")
    sweep_cmd = add_config_cmd("sweep", cmd_sweep, "classify every cell of a parameter grid")
    sweep_cmd.add_argument("--workers", type=int, default=None, help="parallel worker count override")
    add_config_cmd(
        "supersolution-check",
        cmd_supersolution_check,
        "compare a run against the closed-form vanishing super-solution",
    )

    eig = sub.add_parser("eigen", help="principal eigenvalue on an interval")
    eig.add_argument("--d", type=float, required=True)
    eig.add_argument("--theta0", type=float, required=True)
    eig.add_argument("--length", type=float, required=True)
    eig.add_argument("--n", type=int, default=None)
    eig.add_argument("--family", default="tent")
    eig.add_argument("--radius", type=float, default=1.0)
    eig.add_argument("--out-dir", default=None)
    eig.set_defaults(func=cmd_eigen)

    crit = sub.add_parser("critical-length", help="length at which the eigenvalue crosses zero")
    crit.add_argument("--d1", type=float, required=True)
    crit.add_argument("--a", type=float, required=True)
    crit.add_argument("--tol", type=float, default=1e-4)
    crit.add_argument("--family", default="tent")
    crit.add_argument("--radius", type=float, default=1.0)
    crit.add_argument("--out-dir", default=None)
    crit.set_defaults(func=cmd_critical_length)

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
