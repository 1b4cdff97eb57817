"""End-to-end CLI: subcommands, file emission, exit codes, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from frontlab import cli, lambda_p_interval, make_kernel
from frontlab.config import render_config
from frontlab.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_REGIME,
    EXIT_SOLVER,
    main,
)

BASE = """\
kernel.family = tent
kernel.radius = 1.0
model.kind = competition
model.d1 = 1.0
model.d2 = 1.0
model.a = 0.8
model.b = 0.5
model.c = 0.5
model.mu = 0.05
model.rho = 0.05
init.h0 = 1.0
init.amp_u = 0.3
init.amp_v = 0.3
numerics.horizon = 2.0
numerics.n = 64
numerics.dt = 0.02
numerics.record_every = 10
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_trajectory_and_summary(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    assert (out / "trajectory.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["termination"] == "horizon"
    assert summary["final"]["t"] == pytest.approx(2.0)
    assert summary["config"]["model.a"] == 0.8
    listed = capsys.readouterr().out
    assert "trajectory.csv" in listed and "summary.json" in listed


def test_simulate_symmetric_run_has_mirrored_columns(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    with open(out / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        assert abs(float(row["g"]) + float(row["h"])) <= 1e-12


def test_simulate_reruns_byte_identical(tmp_path):
    cfg = _write(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg, "--out-dir", str(out1)])
    main(["simulate", "--config", cfg, "--out-dir", str(out2)])
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_summary_config_echo_reproduces_run(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    echoed = json.loads((out / "summary.json").read_text())["config"]
    rendered = render_config(echoed)
    replay_cfg = _write(tmp_path, rendered, name="replay.cfg")
    out2 = tmp_path / "replay"
    main(["simulate", "--config", replay_cfg, "--out-dir", str(out2)])
    assert (out / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_env_var_out_dir(tmp_path, monkeypatch):
    cfg = _write(tmp_path, BASE)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("FRONTLAB_OUTDIR", str(env_dir))
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    assert (env_dir / "trajectory.csv").exists()
    # explicit flag wins over the environment
    flag_dir = tmp_path / "from_flag"
    main(["simulate", "--config", cfg, "--out-dir", str(flag_dir)])
    assert (flag_dir / "trajectory.csv").exists()


def test_formats_filter(tmp_path):
    cfg = _write(tmp_path, BASE + "output.formats = json\n")
    out = tmp_path / "out"
    main(["simulate", "--config", cfg, "--out-dir", str(out)])
    assert (out / "summary.json").exists()
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("formats", ["csv,json", "json"])
def test_summary_lists_only_written_snapshots(tmp_path, formats):
    cfg = _write(tmp_path, BASE + f"numerics.snapshot_every = 25\noutput.formats = {formats}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    listed = [rec["file"] for rec in json.loads((out / "summary.json").read_text())["snapshots"]]
    written = sorted(path.name for path in out.glob("snapshot_*.csv"))
    assert listed == written
    assert len(written) == (5 if "csv" in formats else 0)


def test_classify_command(tmp_path, capsys):
    cfg = _write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "classification.json").read_text())
    assert record["verdict"] in ("Spreading", "Vanishing", "Undecided")
    assert record["verdict"] in capsys.readouterr().out
    assert "evidence" in record and "final_length" in record["evidence"]


def test_eigen_command_matches_library(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["eigen", "--d", "1.0", "--theta0", "0.5", "--length", "2.0", "--out-dir", str(out)]
    )
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    expect = lambda_p_interval(1.0, 0.5, 0.0, 2.0, make_kernel("tent", 1.0)).lambda_p
    assert record["lambda_p"] == expect
    assert json.loads((out / "eigen.json").read_text())["lambda_p"] == expect


def test_critical_length_command(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["critical-length", "--d1", "1.0", "--a", "0.5", "--out-dir", str(out)])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert abs(record["lambda_at_ell_star"]) < 1e-6
    assert record["bracket"][0] <= record["ell_star"] <= record["bracket"][1]


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_critical_length_rejects_nonpositive_tol(tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = main(["critical-length", "--d1", "1.0", "--a", "0.5", "--tol", tol, "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "tol must be a positive finite number" in err["message"]
    assert not (out / "critical_length.json").exists()


def test_critical_length_tol_below_double_spacing_ends_on_adjacent_doubles(tmp_path):
    # near ell* = 0.632 doubles are about 1.1e-16 apart, so hi - lo < 1e-17
    # never holds; the bisection ends once the bracket is two adjacent doubles
    out = tmp_path / "out"
    code = main(["critical-length", "--d1", "1.0", "--a", "0.5", "--tol", "1e-17", "--out-dir", str(out)])
    assert code == EXIT_OK
    record = json.loads((out / "critical_length.json").read_text())
    lo, hi = record["bracket"]
    assert math.nextafter(lo, math.inf) == hi
    assert record["ell_star"] in (lo, hi)
    assert abs(record["lambda_at_ell_star"]) < 1e-6


THRESHOLD_CFG = """\
kernel.family = tent
kernel.radius = 1.0
model.kind = competition
model.d1 = 1.0
model.d2 = 1.0
model.a = 0.5
model.b = 0.5
model.c = 0.5
model.mu = 0.5
model.rho = 0.5
init.h0 = 0.25
init.amp_u = 1e-3
init.amp_v = 1e-3
numerics.horizon = 40.0
numerics.n = 64
threshold.points = 4
threshold.horizon = 40.0
threshold.n = 64
threshold.max_bisect = 4
"""


def test_threshold_command(tmp_path):
    cfg = _write(tmp_path, THRESHOLD_CFG)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "threshold.json").read_text())
    assert 0.0 < record["lower"] <= record["upper"]
    assert record["ray"] == [0.5, 0.5]
    assert all(len(pair) == 2 for pair in record["scanned"])


def test_sweep_command(tmp_path):
    cfg = _write(tmp_path, BASE + "sweep.a = 0.5, 1.0\nsweep.mu = 0.001, 1.0\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out), "--workers", "2"]) == EXIT_OK
    with open(out / "phase_table.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["cells"] == 4
    assert sum(summary["verdict_counts"].values()) == 4


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    cfg = _write(tmp_path, BASE + "sweep.a = 0.5, 1.0\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out-dir", str(out), "--workers", workers]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": f"workers must be >= 1, got {workers}"}
    assert not (out / "phase_table.csv").exists()


def test_sweep_without_axes_is_config_error(tmp_path):
    cfg = _write(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG


SUPER_CFG = """\
kernel.family = tent
kernel.radius = 1.0
model.kind = competition
model.d1 = 1.0
model.d2 = 1.0
model.a = 0.5
model.b = 0.5
model.c = 0.5
model.mu = 0.1
model.rho = 0.1
init.h0 = 0.25
init.amp_u = 1e-3
init.amp_v = 1e-3
numerics.horizon = 30.0
numerics.n = 100
numerics.record_every = 10
supersolution.h1 = 0.3
"""


@pytest.mark.parametrize("h1", ["0.3", None])
@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_supersolution_check_command(tmp_path, kind, h1):
    text = SUPER_CFG.replace("model.kind = competition", f"model.kind = {kind}")
    if kind == "predation":
        text = text.replace("model.mu = 0.1", "model.mu = 0.01").replace("model.rho = 0.1", "model.rho = 0.01")
    if h1 is None:
        text = text.replace("supersolution.h1 = 0.3\n", "")
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["supersolution-check", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "domination.json").read_text())
    assert record["dominated"] is True
    assert record["budget_ok"] is True
    assert record["case"] == kind
    if h1 is not None:
        assert record["h1"] == 0.3
    assert record["lambda"] < 0.0
    assert (out / "trajectory.csv").exists()
    assert (out / "snapshot_00000.csv").exists()


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"


def test_unknown_key_exit_code(tmp_path):
    cfg = _write(tmp_path, BASE + "model.zz = 1\n")
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


def test_spread_length_is_an_unknown_key(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + "classify.spread_length = 0.5\n")
    assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "unknown key 'classify.spread_length'" in err["message"]


def test_bad_flag_value_exit_code(tmp_path, capsys):
    assert main(["eigen", "--d", "-1", "--theta0", "0", "--length", "2"]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"


def test_unstable_dt_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace("numerics.dt = 0.02", "numerics.dt = 10.0"))
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_SOLVER
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SolverFailure"


def test_inconclusive_threshold_exit_code(tmp_path):
    text = THRESHOLD_CFG.replace("init.amp_u = 1e-3", "init.amp_u = 1e-2")
    text = text.replace("init.amp_v = 1e-3", "init.amp_v = 1e-2")
    text = text.replace("threshold.horizon = 40.0", "threshold.horizon = 2.0")
    text = text.replace("threshold.points = 4", "threshold.points = 2")
    text += "threshold.s_min = 1e-8\nthreshold.s_max = 1e-7\n"
    cfg = _write(tmp_path, text)
    assert main(["threshold", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_INCONCLUSIVE


def test_regime_error_exit_code(tmp_path, capsys):
    # h0 well past pi/2: no vanishing barrier exists there
    text = SUPER_CFG.replace("init.h0 = 0.25", "init.h0 = 2.0")
    text = text.replace("supersolution.h1 = 0.3", "supersolution.h1 = 2.5")
    cfg = _write(tmp_path, text)
    assert main(["supersolution-check", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_REGIME
    assert json.loads(capsys.readouterr().err)["error"] == "RegimeError"


def test_automatic_h1_regime_error_names_half_the_critical_length(tmp_path, capsys):
    # ell*/2 = 0.316 for the tent kernel at d1 = 1, a = 0.5, so the automatic
    # h1 = (h0 + ell*/2)/2 would fall below h0 = 0.4
    text = SUPER_CFG.replace("init.h0 = 0.25", "init.h0 = 0.4").replace("supersolution.h1 = 0.3\n", "")
    cfg = _write(tmp_path, text)
    assert main(["supersolution-check", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_REGIME
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RegimeError"
    assert "needs h0 < ell*/2 = 0.316045; got h0=0.4; set supersolution.h1" in err["message"]


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _outcome(argv, out, capsys):
    """main(argv) writing into out: exit code, stdout, stderr and the files written."""
    try:
        code = main(argv + ["--out-dir", str(out)])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    std = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.exists() else {}
    return code, std.out, std.err, files


def test_parser_built_once_serves_every_call_as_a_fresh_one(tmp_path, capsys):
    calls = [
        ["eigen", "--d", "1", "--theta0", "0.5", "--length", "4"],
        ["critical-length", "--d1", "1", "--a", "0.5"],
        ["eigen", "--d", "1", "--theta0", "0.5"],  # usage error: --length is required
    ]
    cli.build_parser.cache_clear()
    in_sequence = [_outcome(argv, tmp_path / f"seq{i}", capsys) for i, argv in enumerate(calls)]
    assert cli.build_parser.cache_info().misses == 1
    assert [outcome[0] for outcome in in_sequence] == [EXIT_OK, EXIT_OK, EXIT_CONFIG]
    assert in_sequence[0][3].keys() == {"eigen.json"} and in_sequence[1][3].keys() == {"critical_length.json"}
    assert "the following arguments are required: --length" in in_sequence[2][2]
    for i, argv in enumerate(calls):
        cli.build_parser.cache_clear()
        assert _outcome(argv, tmp_path / f"fresh{i}", capsys) == in_sequence[i]


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse would add to every command's start-up time and memory
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, frontlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
