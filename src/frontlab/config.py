"""Run configuration: flat dotted-key text format.

One `section.key = value` assignment per line; blank lines and `#`
comments are allowed.  Unknown keys are hard errors (they are almost
always typos), values are validated with field-pathed messages, and the
fully-resolved key set (defaults included) is echoed into every JSON
summary so a run can be reproduced from its own output.

    model.kind = competition
    model.d1 = 1.0
    ...
    init.h0 = 2.0

A value is a finite number (`auto` where a key allows it), a
comma-separated list, a name from a fixed set, or the output formats.
Where the outputs go is not a key: the CLI's `--out-dir` sets it.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, fields
from typing import Optional

from .classify import SWEEP_AXES, ScanControl
from .errors import ConfigError
from .kernels import KNOWN_FAMILIES, Kernel, make_kernel
from .model import KINDS, InitialData, ModelParams
from .output import fmt_float
from .solver import RunControl


def _number(cast, minimum=None, strict=False):
    """A parser of finite numbers of type cast: at least minimum, or above it when strict."""
    noun = "an integer" if cast is int else "a number"

    def parse(raw: str):
        try:
            val = cast(raw)
        except ValueError:
            raise ValueError(f"not {noun}: {raw!r}") from None
        if cast is float and not math.isfinite(val):
            raise ValueError(f"must be finite, got {raw}")
        if minimum is not None and (val <= minimum if strict else val < minimum):
            shown = val if cast is int else raw  # an integer as parsed, a float as written
            raise ValueError(f"must be {'>' if strict else '>='} {minimum}, got {shown}")
        return val

    return parse


_positive = _number(float, 0, strict=True)


def _or_auto(parse):
    """parse, with the word auto for None."""
    return lambda raw: None if raw == "auto" else parse(raw)


def _list(parse):
    """A parser of a non-empty comma-separated list, each item by parse."""

    def parse_list(raw: str) -> list:
        toks = [tok.strip() for tok in raw.split(",") if tok.strip()]
        if not toks:
            raise ValueError("empty list")
        return [parse(tok) for tok in toks]

    return parse_list


def _parse_choice(options: tuple):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {raw!r}")
        return raw

    return parse


def _parse_formats(raw: str) -> str:
    toks = {tok.strip() for tok in raw.split(",") if tok.strip()}
    bad = toks - {"csv", "json"}
    if bad or not toks:
        raise ValueError(f"formats must be a subset of csv,json; got {raw!r}")
    return ",".join(sorted(toks))


_REQUIRED = object()
_FIELD = object()

# sections whose keys fill the fields of a dataclass, by field name
_SECTIONS = {
    "model": ModelParams,
    "numerics": RunControl,
    "threshold": ScanControl,
}

# key -> (parser, default); _REQUIRED marks keys a config must provide, and
# _FIELD the keys that take the default of the dataclass field they fill
_SCHEMA = {
    "kernel.family": (_parse_choice(KNOWN_FAMILIES), "tent"),
    "kernel.radius": (_positive, 1.0),
    "model.kind": (_parse_choice(KINDS), _REQUIRED),
    "model.d1": (_positive, _REQUIRED),
    "model.d2": (_positive, _REQUIRED),
    "model.a": (_positive, _REQUIRED),
    "model.b": (_positive, _REQUIRED),
    "model.c": (_positive, _REQUIRED),
    "model.mu": (_positive, _REQUIRED),
    "model.rho": (_positive, _REQUIRED),
    "init.h0": (_positive, _REQUIRED),
    "init.amp_u": (_positive, 0.1),
    "init.amp_v": (_positive, 0.1),
    "numerics.n": (_number(int, 8), _FIELD),
    "numerics.dt": (_or_auto(_positive), _FIELD),
    "numerics.horizon": (_positive, 100.0),
    "numerics.record_every": (_number(int, 1), _FIELD),
    "numerics.snapshot_every": (_number(int, 0), _FIELD),
    "threshold.ray_mu": (_number(float, 0), 0.5),
    "threshold.ray_rho": (_number(float, 0), 0.5),
    "threshold.s_min": (_positive, _FIELD),
    "threshold.s_max": (_positive, _FIELD),
    "threshold.points": (_number(int, 2), _FIELD),
    "threshold.horizon": (_positive, _FIELD),
    "threshold.n": (_number(int, 8), _FIELD),
    "supersolution.h1": (_or_auto(_positive), None),
    "sweep.a": (_list(_number(float)), None),
    "sweep.d1": (_list(_number(float)), None),
    "sweep.d2": (_list(_number(float)), None),
    "sweep.h0": (_list(_number(float)), None),
    "sweep.mu": (_list(_number(float)), None),
    "sweep.rho": (_list(_number(float)), None),
    "sweep.kind": (_list(_parse_choice(KINDS)), None),
    "output.formats": (_parse_formats, "csv,json"),
}


def _default(key: str, default):
    if default is not _FIELD:
        return default
    section, name = key.split(".")
    return next(f.default for f in fields(_SECTIONS[section]) if f.name == name)


# key -> default, with _FIELD resolved
_DEFAULTS = {key: _default(key, default) for key, (_, default) in _SCHEMA.items()}


def _build_section(section: str, resolved: dict):
    """The section's dataclass from its resolved keys."""
    cls = _SECTIONS[section]
    return cls(**{f.name: resolved[f"{section}.{f.name}"] for f in fields(cls)})


@dataclass(frozen=True)
class RunConfig:
    kernel: Kernel
    model: ModelParams
    h0: float
    amp_u: float
    amp_v: float
    numerics: RunControl
    scan: ScanControl
    ray: tuple[float, float]
    h1: Optional[float]
    sweep_axes: dict
    formats: str
    resolved: dict  # every schema key with defaults applied; echoed to JSON

    def init_data(self) -> InitialData:
        return InitialData.cosine(self.h0, self.amp_u, self.amp_v)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            hint = difflib.get_close_matches(key, _SCHEMA.keys(), n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{suffix}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
        lines[key] = lineno

    missing = [key for key, default in _DEFAULTS.items() if default is _REQUIRED and key not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")

    resolved = {
        key: values.get(key, None if default is _REQUIRED else default) for key, default in _DEFAULTS.items()
    }

    if resolved["threshold.s_min"] >= resolved["threshold.s_max"]:
        raise ConfigError(
            f"threshold.s_min must be < threshold.s_max; got "
            f"{resolved['threshold.s_min']} >= {resolved['threshold.s_max']}"
        )
    if resolved["threshold.ray_mu"] + resolved["threshold.ray_rho"] <= 0:
        raise ConfigError("threshold.ray_mu + threshold.ray_rho must be positive")

    sweep_axes = {
        axis: resolved[f"sweep.{axis}"] for axis in SWEEP_AXES if resolved[f"sweep.{axis}"] is not None
    }
    return RunConfig(
        kernel=make_kernel(resolved["kernel.family"], resolved["kernel.radius"]),
        model=_build_section("model", resolved),
        h0=resolved["init.h0"],
        amp_u=resolved["init.amp_u"],
        amp_v=resolved["init.amp_v"],
        numerics=_build_section("numerics", resolved),
        scan=_build_section("threshold", resolved),
        ray=(resolved["threshold.ray_mu"], resolved["threshold.ray_rho"]),
        h1=resolved["supersolution.h1"],
        sweep_axes=sweep_axes,
        formats=resolved["output.formats"],
        resolved=resolved,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _format_value(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_value(item) for item in value)
    return str(value)


def render_config(resolved: dict) -> str:
    """Inverse of parse_config on the resolved key set: parsing the
    rendered text reproduces the same resolved configuration.  Keys whose
    value is None (all of which default to None) are omitted."""
    lines = [
        f"{key} = {_format_value(value)}"
        for key, value in sorted(resolved.items())
        if value is not None
    ]
    return "\n".join(lines) + "\n"
