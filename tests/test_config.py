"""Flat dotted-key config: parsing, diagnostics, round-trip stability."""

import math

import pytest

from frontlab import ConfigError, RunControl, ScanControl, load_config
from frontlab.config import parse_config, render_config

MINIMAL = """\
kernel.family = tent
kernel.radius = 1.0
model.kind = competition
model.d1 = 1.0
model.d2 = 1.0
model.a = 0.8
model.b = 0.5
model.c = 0.5
model.mu = 0.1
model.rho = 0.1
init.h0 = 1.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.model.kind == "competition"
    assert cfg.model.a == 0.8
    assert cfg.h0 == 1.0
    assert cfg.amp_u == 0.1 and cfg.amp_v == 0.1
    assert cfg.numerics.n == 200
    assert cfg.numerics.dt is None  # "auto"
    assert cfg.numerics.horizon == 100.0
    assert cfg.kernel.family == "tent" and cfg.kernel.radius == 1.0
    assert cfg.formats == "csv,json"
    assert cfg.h1 is None
    assert cfg.sweep_axes == {}
    # the section defaults are the dataclasses' own
    assert cfg.numerics == RunControl(horizon=100.0)
    assert cfg.scan == ScanControl()


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL + "\nnumerics.n = 64  # trailing comment\n"
    cfg = parse_config(text)
    assert cfg.numerics.n == 64


def test_unknown_key_reports_line_and_suggestion():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "model.aa = 1.0\n")
    msg = str(err.value)
    assert "line 12" in msg
    assert "model.aa" in msg
    assert "model.a" in msg  # nearest known key suggested


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("model.a = 0.8", "model.a = -1"))
    msg = str(err.value)
    assert "model.a" in msg and "line 6" in msg


@pytest.mark.parametrize(
    "key, value",
    [("numerics.horizon", "inf"), ("numerics.dt", "nan"), ("init.amp_u", "-inf"), ("sweep.h0", "0.5, inf")],
)
def test_non_finite_value_reports_line_and_key(key, value):
    with pytest.raises(ConfigError, match=f"^line 12: {key}: must be finite, got "):
        parse_config(MINIMAL + f"{key} = {value}\n")


def test_run_control_rejects_non_finite_horizon():
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            RunControl(horizon=horizon)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "just some words\n")
    assert "line 12" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "model.a = 0.9\n")
    msg = str(err.value)
    assert "duplicate" in msg and "model.a" in msg


def test_missing_required_keys_aggregated():
    text = MINIMAL.replace("init.h0 = 1.0\n", "").replace("model.kind = competition\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "init.h0" in msg and "model.kind" in msg


def test_auto_keyword_maps_to_none():
    cfg = parse_config(MINIMAL + "numerics.dt = auto\nsupersolution.h1 = auto\n")
    assert cfg.numerics.dt is None
    assert cfg.h1 is None
    cfg2 = parse_config(MINIMAL + "numerics.dt = 0.01\nsupersolution.h1 = 1.5\n")
    assert cfg2.numerics.dt == 0.01
    assert cfg2.h1 == 1.5


def test_scan_cross_validation():
    # ScanControl makes the check; the config names the key
    with pytest.raises(ConfigError, match=r"^threshold\.s_min must be < s_max; got 10\.0 >= 1\.0$"):
        parse_config(MINIMAL + "threshold.s_min = 10\nthreshold.s_max = 1\n")


def test_sweep_axes_parsing():
    cfg = parse_config(MINIMAL + "sweep.a = 0.4, 0.8\nsweep.kind = competition, predation\n")
    assert cfg.sweep_axes == {"a": [0.4, 0.8], "kind": ["competition", "predation"]}
    with pytest.raises(ConfigError, match="^line 12: sweep.kind: must be one of competition, predation; got 'symbiosis'$"):
        parse_config(MINIMAL + "sweep.kind = competition, symbiosis\n")


def test_formats_validation():
    assert parse_config(MINIMAL + "output.formats = json\n").formats == "json"
    assert parse_config(MINIMAL + "output.formats = json, csv\n").formats == "csv,json"
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "output.formats = yaml\n")


def test_bad_kernel_family_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace("kernel.family = tent", "kernel.family = boxcar"))
    assert "tent" in str(err.value)  # valid choices listed


def test_render_parse_round_trip():
    cfg = parse_config(
        MINIMAL
        + "numerics.dt = 0.037\nsweep.a = 0.4, 0.8\n"
        + "sweep.kind = predation, competition\noutput.formats = json\n"
    )
    text = render_config(cfg.resolved)
    cfg2 = parse_config(text)
    assert cfg2.resolved == cfg.resolved
    # a second render is textually stable
    assert render_config(cfg2.resolved) == text


def test_seventeen_digit_floats_survive_round_trip():
    cfg = parse_config(MINIMAL.replace("model.a = 0.8", "model.a = 0.1234567890123456789"))
    cfg2 = parse_config(render_config(cfg.resolved))
    assert cfg2.model.a == cfg.model.a


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(str(tmp_path / "nope.cfg"))
    assert "nope.cfg" in str(err.value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("init.amp_u", "x", "not a number: 'x'"),
        ("init.amp_u", "-0.0", "must be > 0, got -0.0"),
        ("numerics.n", "8.0", "not an integer: '8.0'"),
        ("numerics.n", "07", "must be >= 8, got 7"),
        ("numerics.snapshot_every", "-1", "must be >= 0, got -1"),
        ("numerics.dt", "automatic", "not a number: 'automatic'"),
        ("supersolution.h1", "0", "must be > 0, got 0"),
        ("sweep.mu", " , ", "empty list"),
        ("sweep.mu", "1, two", "not a number: 'two'"),
        ("sweep.kind", "predation, , symbiosis", "must be one of competition, predation; got 'symbiosis'"),
    ],
)
def test_value_messages(key, value, message):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"{key} = {value}\n")
    assert str(err.value) == f"line 12: {key}: {message}"


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    cfg = load_config(str(path))
    assert cfg.model.a == 0.8
