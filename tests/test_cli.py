"""End-to-end CLI: subcommands, file emission, exit codes, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from frontlab import Kernel, cli, lambda_p_interval
from frontlab.config import load_config, render_config
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


def test_out_dir_defaults_to_the_working_directory(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, BASE + "output.formats = json\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FRONTLAB_OUTDIR", str(tmp_path / "from_env"))  # the environment sets nothing
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {os.path.join('.', 'summary.json')}\n"
    assert (tmp_path / "summary.json").exists() and not (tmp_path / "from_env").exists()


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
    expect = lambda_p_interval(1.0, 0.5, 0.0, 2.0, Kernel("tent", 1.0)).lambda_p
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
"""


def test_threshold_command(tmp_path):
    cfg = _write(tmp_path, THRESHOLD_CFG)
    out = tmp_path / "out"
    assert main(["threshold", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "threshold.json").read_text())
    assert 0.0 < record["lower"] <= record["upper"]
    assert record["ray"] == [0.5, 0.5]
    assert all(len(pair) == 2 for pair in record["scanned"])


def test_threshold_scans_along_the_models_mu_and_rho(tmp_path):
    text = THRESHOLD_CFG.replace("model.mu = 0.5", "model.mu = 1").replace("model.rho = 0.5", "model.rho = 3")
    out = tmp_path / "out"
    assert main(["threshold", "--config", _write(tmp_path, text), "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "threshold.json").read_text())
    assert record["ray"] == [0.25, 0.75]
    assert 0.0 < record["lower"] <= record["upper"]


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


def test_sweep_without_workers_writes_the_one_worker_table(tmp_path):
    cfg = _write(tmp_path, BASE + "sweep.a = 0.5, 1.0\nsweep.mu = 0.001, 1.0\n")
    for out, flags in (("default", []), ("one", ["--workers", "1"])):
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path / out), *flags]) == EXIT_OK
    assert (tmp_path / "default" / "phase_table.csv").read_bytes() == (tmp_path / "one" / "phase_table.csv").read_bytes()
    record = json.loads((tmp_path / "default" / "sweep_summary.json").read_text())
    assert "sweep.workers" not in record["config"]


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


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE.encode() + b"# \xe9\n")
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"cannot read config file {path}: ")


@pytest.mark.parametrize("command", ["eigen", "critical-length", "simulate"])
def test_out_dir_that_cannot_be_made_exit_code(tmp_path, capsys, monkeypatch, command):
    # a file where the output directory should go is a usage error, for the
    # flag commands and a config command alike, found before any computation
    for name in ("lambda_p", "critical_length", "run"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran"))
    blocker = tmp_path / "F"
    blocker.write_text("x")
    head = {
        "eigen": ["eigen", "--d", "1", "--theta0", "0.5", "--length", "2000"],
        "critical-length": ["critical-length", "--d1", "1", "--a", "0.5"],
        "simulate": ["simulate", "--config", _write(tmp_path, BASE)],
    }[command]
    assert main(head + ["--out-dir", str(blocker)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    err = json.loads(err)
    assert out == "" and err["error"] == "ConfigError"
    assert err["message"].startswith(f"cannot create output directory {blocker}: ")
    assert blocker.read_text() == "x"


def test_unknown_key_exit_code(tmp_path):
    cfg = _write(tmp_path, BASE + "model.zz = 1\n")
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "key",
    [
        "classify.spread_length",
        "classify.vanish_tol",
        "classify.speed_tol",
        "classify.eigen_slack",
        "classify.window_fraction",
        "threshold.max_bisect",
        "sweep.workers",
        "output.directory",
        "threshold.ray_mu",
        "threshold.ray_rho",
    ],
)
def test_spread_length_is_an_unknown_key(tmp_path, capsys, key):
    # keys frontlab once read; a config that still sets one is refused, not ignored
    cfg = _write(tmp_path, BASE + f"{key} = 0.1\n")
    assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert f"unknown key '{key}'" in err["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eigen", "--d", "-1", "--theta0", "0", "--length", "2"], "d must be positive and finite"),
        (["eigen", "--d", "1", "--theta0", "0", "--length", "inf"], "ell2 must be finite, got inf"),
        (["eigen", "--d", "1", "--theta0", "0", "--length", "nan"], "ell2 must be finite, got nan"),
        (["critical-length", "--d1", "nan", "--a", "0.5"], "d1 must be finite, got nan"),
        (["critical-length", "--d1", "inf", "--a", "0.5"], "d1 must be finite, got inf"),
        (["critical-length", "--d1", "1", "--a", "nan"], "a must be finite, got nan"),
        (["eigen", "--d", "1", "--theta0", "0.5", "--length", "1e-300"], "interval length 1e-300 too short"),
        (["eigen", "--d", "1", "--theta0", "0.5", "--length", "1e308"], "interval length 1e+308 too long"),
        (["eigen", "--d", "1", "--theta0", "0.5", "--length", "2", "--radius", "1e-323"], "interval length 2.0 too long"),
    ],
    ids=[
        "eigen-d=-1",
        "eigen-length=inf",
        "eigen-length=nan",
        "crit-d1=nan",
        "crit-d1=inf",
        "crit-a=nan",
        "eigen-length=1e-300",
        "eigen-length=1e308",
        "eigen-radius=1e-323",
    ],
)
def test_bad_flag_value_exit_code(tmp_path, capsys, argv, message):
    assert main(argv + ["--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(message)
    assert not (tmp_path / "o").exists()


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


def test_habitat_flat_to_rounding_is_classified(tmp_path, capsys):
    # at h0 = 1e-12 the bump kernel is flat to rounding across the habitat,
    # so the final habitat's eigenproblem needs lambda_p's shift retry
    text = BASE.replace("kernel.family = tent", "kernel.family = parabolic_bump")
    text = text.replace("init.h0 = 1.0", "init.h0 = 1e-12")
    text = text.replace("numerics.dt = 0.02", "numerics.dt = auto")
    cfg = _write(tmp_path, text + "output.formats = json\n")
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    record = json.loads((out / "classification.json").read_text())
    assert record["evidence"]["lambda_p_final"] == pytest.approx(0.8 - 1.0, abs=1e-4)


def test_threshold_from_habitat_flat_to_rounding_is_inconclusive(tmp_path, capsys):
    text = THRESHOLD_CFG.replace("kernel.family = tent", "kernel.family = parabolic_bump")
    cfg = _write(tmp_path, text.replace("init.h0 = 0.25", "init.h0 = 1e-9"))
    assert main(["threshold", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().err)["error"] == "InconclusiveError"


# (config, JSON record) of every config command; the sweep has a Failed cell
ARTIFACT_CASES = {
    "simulate": (BASE + "numerics.snapshot_every = 40\n", "summary.json"),
    "classify": (BASE, "classification.json"),
    "threshold": (THRESHOLD_CFG, "threshold.json"),
    "sweep": (BASE + "sweep.h0 = 0.2, -1\n", "sweep_summary.json"),
    "supersolution-check": (SUPER_CFG, "domination.json"),
}


@pytest.mark.parametrize("formats", ["csv,json", "json", "csv"])
@pytest.mark.parametrize("command", list(ARTIFACT_CASES))
def test_config_command_artifacts(tmp_path, capsys, command, formats):
    """The 'wrote' lines close stdout and name exactly the files written;
    the JSON record is written per output.formats, and always by a command
    with no other artifact; its last key is the resolved config."""
    text, record_name = ARTIFACT_CASES[command]
    cfg = _write(tmp_path, text + f"output.formats = {formats}\n")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out-dir", str(out)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    wrote = [line.removeprefix("wrote ") for line in lines if line.startswith("wrote ")]
    assert lines[len(lines) - len(wrote) :] == [f"wrote {path}" for path in wrote]
    assert sorted(wrote) == sorted(str(path) for path in out.iterdir())
    records = [path for path in wrote if path.endswith(".json")]
    writes_json = "json" in formats or command == "threshold"
    assert records == ([str(out / record_name)] if writes_json else [])
    for path in records:
        record = json.loads((out / record_name).read_text())
        assert list(record)[-1] == "config"
        assert record["config"] == load_config(cfg).resolved


@pytest.mark.parametrize(
    "argv, name",
    [
        (["eigen", "--d", "1", "--theta0", "0.5", "--length", "4"], "eigen.json"),
        (["critical-length", "--d1", "1", "--a", "0.5"], "critical_length.json"),
    ],
)
def test_flag_command_stdout_is_its_one_file(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == EXIT_OK
    assert [path.name for path in out.iterdir()] == [name]
    assert capsys.readouterr().out == (out / name).read_text()


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


def _fresh_interpreter(code: str) -> str:
    """Standard output of code run in a fresh interpreter on this checkout's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse, and scipy's packages with the array-API set-up they
    # run, would add to every command's start-up time and memory; LAPACK
    # comes from scipy's compiled wrapper alone, found without importing
    # scipy and not left in sys.modules, and multiprocessing loads only
    # when a sweep has more than one batch or a scan more than one CPU
    code = "import json, sys, frontlab.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = json.loads(_fresh_interpreter(code))
    assert [m for m in loaded if m.partition(".")[0] == "scipy"] == []
    assert not [m for m in loaded if m.startswith(("concurrent.futures", "multiprocessing"))]
    # only the Gaussian kernel needs erf, and its extension, loaded when the
    # kernel is made, is not left in sys.modules either
    code = (
        "import sys\n"
        "from frontlab.config import parse_config\n"
        "from frontlab.kernels import Kernel\n"
        "def scipy_modules():\n"
        "    return {m for m in sys.modules if m.partition('.')[0] == 'scipy'}\n"
        "Kernel('tent'), Kernel('parabolic_bump')\n"
        "print(sorted(scipy_modules()))\n"
        f"parse_config({BASE.replace('tent', 'truncated_gaussian')!r})\n"
        "print(sorted(scipy_modules()))\n"
    )
    assert _fresh_interpreter(code).splitlines() == ["[]", "[]"]


def test_one_worker_sweep_leaves_multiprocessing_unloaded(tmp_path):
    # one batch runs in the calling process and starts no child
    cfg = _write(tmp_path, BASE + "sweep.a = 0.5, 1.0\nsweep.mu = 0.001, 1.0\n")
    argv = ["sweep", "--config", cfg, "--out-dir", str(tmp_path / "o"), "--workers", "1"]
    code = (
        "import sys\n"
        "from frontlab.cli import main\n"
        f"print(main({argv!r}))\n"
        "print([m for m in sys.modules if m.startswith('multiprocessing')])\n"
    )
    lines = _fresh_interpreter(code).splitlines()
    assert lines[-2:] == ["0", "[]"]
    assert json.loads((tmp_path / "o" / "sweep_summary.json").read_text())["cells"] == 4


def test_one_cpu_scan_leaves_multiprocessing_unloaded(tmp_path):
    # on one CPU every scan round runs in the calling process
    cfg = _write(tmp_path, THRESHOLD_CFG)
    argv = ["threshold", "--config", cfg, "--out-dir", str(tmp_path / "o")]
    code = (
        "import sys\n"
        "from frontlab.cli import main\n"
        "sys.modules['frontlab.classify']._cpus = lambda: 1\n"
        f"print(main({argv!r}))\n"
        "print([m for m in sys.modules if m.startswith('multiprocessing')])\n"
    )
    lines = _fresh_interpreter(code).splitlines()
    assert lines[-2:] == ["0", "[]"]
    assert json.loads((tmp_path / "o" / "threshold.json").read_text())["upper"] > 0.0


def test_spawn_scan_on_two_cpus_writes_the_one_cpu_threshold_json(tmp_path):
    # a spawned child would need each part's jobs pickled, and the cosine
    # profiles are closures; under spawn a scan on two CPUs starts no child
    # and writes the one-CPU scan's bytes
    cfg = _write(tmp_path, THRESHOLD_CFG)
    outs = {cpus: str(tmp_path / f"cpus{cpus}") for cpus in (1, 2)}
    code = (
        "import multiprocessing, sys\n"
        "from frontlab.cli import main\n"
        "multiprocessing.set_start_method('spawn')\n"
        "codes = []\n"
        f"for cpus, out in {sorted(outs.items())!r}:\n"
        "    sys.modules['frontlab.classify']._cpus = lambda: cpus\n"
        f"    codes.append(main(['threshold', '--config', {cfg!r}, '--out-dir', out]))\n"
        "print(codes, multiprocessing.get_start_method(), multiprocessing.active_children())\n"
    )
    assert _fresh_interpreter(code).splitlines()[-1] == "[0, 0] spawn []"
    one, two = ((tmp_path / f"cpus{cpus}" / "threshold.json").read_bytes() for cpus in (1, 2))
    assert two == one


def test_spawned_sweep_children_match_one_process():
    # spawn, the default start method on macOS and Windows, starts each
    # child from a fresh import (as Python 3.14's Linux default, forkserver,
    # does), so nothing a child needs may come from state inherited by fork
    text = BASE.replace("tent", "truncated_gaussian") + "sweep.a = 0.5, 1.0\nsweep.mu = 0.001, 1.0\n"
    code = (
        "import multiprocessing\n"
        "from frontlab.classify import sweep\n"
        "from frontlab.config import parse_config\n"
        "from frontlab.output import phase_csv\n"
        "multiprocessing.set_start_method('spawn')\n"
        f"cfg = parse_config({text!r})\n"
        "print(phase_csv(sweep(cfg, workers=2)) == phase_csv(sweep(cfg, workers=1)))\n"
        "print(multiprocessing.get_start_method(), multiprocessing.active_children())\n"
    )
    assert _fresh_interpreter(code).split() == ["True", "spawn", "[]"]


@pytest.mark.parametrize("frontlab_first", [True, False], ids=["frontlab-first", "scipy-first"])
def test_lapack_routines_are_scipys_in_either_import_order(frontlab_first):
    # the same compiled routines scipy.linalg and scipy.special hand out, so
    # the same bits; frontlab's erf is read through the module kernels calls
    imports = [
        "import frontlab.eigen as E, frontlab.solver as S, frontlab.kernels as K\n"
        "K.Kernel('truncated_gaussian')",
        "import scipy.linalg.lapack as L, scipy.special",
    ]
    code = "\n".join(imports if frontlab_first else imports[::-1]) + (
        "\nprint(S._gtsv is L.dgtsv, E._pbtrf is L.dpbtrf, E._pbtrs is L.dpbtrs,"
        " K._scipy.erf is scipy.special.erf)"
    )
    assert _fresh_interpreter(code).split() == ["True"] * 4


def test_scipy_packages_import_after_frontlab_loaded_erf():
    code = (
        "import math\n"
        "from frontlab.kernels import Kernel\n"
        "Kernel('truncated_gaussian')\n"
        "import scipy.special, scipy.stats\n"
        "print(scipy.special.gamma(5.0) == 24.0, math.isfinite(scipy.stats.norm.cdf(1.0)))\n"
    )
    assert _fresh_interpreter(code).split() == ["True", "True"]


def test_scipy_packages_bind_the_modules_frontlab_loaded_first():
    # the packages imported after frontlab loaded their extension modules
    # bind those modules as attributes, holding the routines frontlab holds
    code = (
        "import frontlab.cli, frontlab.solver as S\n"
        "import scipy.linalg\n"
        "print(scipy.linalg._flapack.dgtsv is S._gtsv)\n"
        "from frontlab.kernels import Kernel\n"
        "Kernel('truncated_gaussian')\n"
        "import scipy.special\n"
        "print(scipy.special._special_ufuncs.erf is scipy.special.erf)\n"
    )
    assert _fresh_interpreter(code).split() == ["True", "True"]


def test_scipy_loader_failure_leaves_no_module_behind():
    code = (
        "import sys\n"
        "from frontlab import _scipy\n"
        "try:\n"
        "    _scipy._load('scipy.special._no_such_module')\n"
        "except ImportError as exc:\n"
        "    print(type(exc).__name__)\n"
        "print('scipy.special' in sys.modules, 'scipy.special._no_such_module' in sys.modules)\n"
    )
    assert _fresh_interpreter(code).split() == ["ModuleNotFoundError", "False", "False"]


@pytest.mark.parametrize(
    "missing",
    ["raise ModuleNotFoundError(name=name)", "return types.ModuleType(name)"],
    ids=["no-module", "no-erf"],
)
def test_erf_falls_back_to_scipy_special_without_special_ufuncs_erf(missing):
    # a scipy whose _special_ufuncs is missing, or defines no erf, gets erf
    # from the scipy.special package
    code = (
        "import sys, types\n"
        "from frontlab import _scipy\n"
        "load = _scipy._load\n"
        "def failing_load(name):\n"
        "    if name == 'scipy.special._special_ufuncs':\n"
        f"        {missing}\n"
        "    return load(name)\n"
        "_scipy._load = failing_load\n"
        "erf = _scipy.erf\n"
        "print('scipy.special' in sys.modules)\n"
        "import scipy.special\n"
        "print(erf is scipy.special.erf)\n"
    )
    assert _fresh_interpreter(code).split() == ["True", "True"]


def test_missing_scipy_raises_module_not_found_for_scipy():
    code = (
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find_spec(name, *a)\n"
        "try:\n"
        "    import frontlab._scipy\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    assert _fresh_interpreter(code).split() == ["scipy"]


# appended to a fresh interpreter's code: prints, as JSON, the thread count
# of each mapped OpenBLAS, read through its *_get_num_threads symbol and
# keyed by the directory it was loaded from (numpy.libs and scipy.libs for
# the wheels' two libraries), and OPENBLAS_NUM_THREADS as the code left it
_PRINT_OPENBLAS_THREADS = (
    "\nimport ctypes, json, os\n"
    "threads = {}\n"
    "if os.path.exists('/proc/self/maps'):\n"
    "    with open('/proc/self/maps', encoding='utf-8') as fh:\n"
    "        libs = sorted({line.split()[-1] for line in fh if 'openblas' in line and '.so' in line})\n"
    "    for path in libs:\n"
    "        lib = ctypes.CDLL(path)\n"
    "        for symbol in ('scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads',\n"
    "                       'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
    "            fn = getattr(lib, symbol, None)\n"
    "            if fn is not None:\n"
    "                fn.restype, fn.argtypes = ctypes.c_int, []\n"
    "                threads[os.path.basename(os.path.dirname(path))] = fn()\n"
    "                break\n"
    "print(json.dumps([threads, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
)


def _openblas_threads(code: str) -> tuple[dict, str | None]:
    """Each wheel OpenBLAS's thread count after code runs in a fresh
    interpreter, and OPENBLAS_NUM_THREADS after it; skips where the two
    libraries are not mapped, or fewer than 2 CPUs cap every pool at 1."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps its pool at the CPUs available, fewer than 2 here")
    threads, env = json.loads(_fresh_interpreter(code + _PRINT_OPENBLAS_THREADS).splitlines()[-1])
    if not {"numpy.libs", "scipy.libs"} <= threads.keys():
        pytest.skip(f"numpy's and scipy's wheel OpenBLAS libraries are not both mapped: {threads}")
    return threads, env


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize(
    ("env", "code", "scipy_threads"),
    [
        ("2", "import frontlab.cli", 1),
        (None, "import frontlab.cli", 1),
        ("2", "import scipy.linalg, frontlab.cli", 2),
    ],
    ids=["frontlab-first", "unset", "scipy-first"],
)
def test_scipy_openblas_loads_with_one_thread(monkeypatch, env, code, scipy_threads):
    # frontlab loads scipy's LAPACK wrapper, and with it scipy's OpenBLAS,
    # with OPENBLAS_NUM_THREADS=1 and then puts the variable back; numpy's
    # OpenBLAS, and a scipy OpenBLAS already loaded, keep their pools
    if env is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", env)
    threads, env_after = _openblas_threads(code)
    assert threads["scipy.libs"] == scipy_threads
    if env is not None:
        assert threads["numpy.libs"] == int(env)
    assert env_after == env


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
def test_scipy_pool_size_leaves_eigen_and_critical_length_bits(monkeypatch, tmp_path):
    # at n = 16001 the band has kd = 80, where pbtrf runs blocked and calls
    # BLAS level 3; a one-thread and a two-thread scipy pool write the same bytes
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    commands = [
        ["eigen", "--d", "1", "--theta0", "0.5", "--length", "200", "--n", "16001"],
        ["critical-length", "--d1", "1", "--a", "0.05"],
    ]
    outputs = []
    for first in ("", "import scipy.linalg\n"):
        out = tmp_path / f"out{len(outputs)}"
        code = first + "from frontlab.cli import main\n" + "".join(
            f"assert main({argv + ['--out-dir', str(out)]!r}) == 0\n" for argv in commands
        )
        threads, _ = _openblas_threads(code)
        files = [(out / name).read_bytes() for name in ("eigen.json", "critical_length.json")]
        outputs.append((threads["scipy.libs"], files))
    (one, bits_one), (two, bits_two) = outputs
    assert (one, two) == (1, 2)
    assert bits_one == bits_two


@pytest.mark.parametrize("command", ["simulate", "classify", "threshold", "supersolution-check"])
@pytest.mark.parametrize("h0", ["1e-200", "1e-310"])
def test_h0_below_the_run_floor_exits_config(tmp_path, capsys, command, h0):
    # without the floor, 1/h0^2 overflows in the first step (exit 3), and
    # the competition barrier divides by h0^2, which underflows to 0 (exit 1)
    text = BASE.replace("init.h0 = 1.0", f"init.h0 = {h0}").replace("numerics.dt = 0.02", "numerics.dt = auto")
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"] == f"init.h0 = {float(h0)!r} is below the floor 2^-480 (3.2e-145) a run needs"


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_h0_at_the_run_floor_runs(tmp_path, command):
    text = BASE.replace("init.h0 = 1.0", f"init.h0 = {2.0**-480!r}").replace("numerics.dt = 0.02", "numerics.dt = auto")
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
