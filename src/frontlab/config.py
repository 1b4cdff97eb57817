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
from .solver import RunControl


def _parse_float(raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(val):
        raise ValueError(f"must be finite, got {raw}")
    return val


def _parse_pos_float(raw: str) -> float:
    val = _parse_float(raw)
    if not (val > 0):
        raise ValueError(f"must be > 0, got {raw}")
    return val


def _parse_nonneg_float(raw: str) -> float:
    val = _parse_float(raw)
    if val < 0:
        raise ValueError(f"must be >= 0, got {raw}")
    return val


def _parse_int(minimum: int):
    def parse(raw: str) -> int:
        try:
            val = int(raw)
        except ValueError:
            raise ValueError(f"not an integer: {raw!r}") from None
        if val < minimum:
            raise ValueError(f"must be >= {minimum}, got {val}")
        return val

    return parse


def _parse_pos_float_or_auto(raw: str) -> Optional[float]:
    if raw == "auto":
        return None
    return _parse_pos_float(raw)


def _parse_choice(options: tuple):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {raw!r}")
        return raw

    return parse


def _parse_float_list(raw: str) -> list[float]:
    toks = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not toks:
        raise ValueError("empty list")
    return [_parse_float(tok) for tok in toks]


def _parse_kind_list(raw: str) -> list[str]:
    toks = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not toks:
        raise ValueError("empty list")
    bad = [tok for tok in toks if tok not in KINDS]
    if bad:
        raise ValueError(f"unknown kind(s) {', '.join(bad)}; allowed: {', '.join(KINDS)}")
    return toks


def _parse_formats(raw: str) -> str:
    toks = {tok.strip() for tok in raw.split(",") if tok.strip()}
    bad = toks - {"csv", "json"}
    if bad or not toks:
        raise ValueError(f"formats must be a subset of csv,json; got {raw!r}")
    return ",".join(sorted(toks))


def _parse_str(raw: str) -> str:
    return raw


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
    "kernel.radius": (_parse_pos_float, 1.0),
    "model.kind": (_parse_choice(KINDS), _REQUIRED),
    "model.d1": (_parse_pos_float, _REQUIRED),
    "model.d2": (_parse_pos_float, _REQUIRED),
    "model.a": (_parse_pos_float, _REQUIRED),
    "model.b": (_parse_pos_float, _REQUIRED),
    "model.c": (_parse_pos_float, _REQUIRED),
    "model.mu": (_parse_pos_float, _REQUIRED),
    "model.rho": (_parse_pos_float, _REQUIRED),
    "init.h0": (_parse_pos_float, _REQUIRED),
    "init.amp_u": (_parse_pos_float, 0.1),
    "init.amp_v": (_parse_pos_float, 0.1),
    "numerics.n": (_parse_int(8), _FIELD),
    "numerics.dt": (_parse_pos_float_or_auto, _FIELD),
    "numerics.horizon": (_parse_pos_float, 100.0),
    "numerics.record_every": (_parse_int(1), _FIELD),
    "numerics.snapshot_every": (_parse_int(0), _FIELD),
    "threshold.ray_mu": (_parse_nonneg_float, 0.5),
    "threshold.ray_rho": (_parse_nonneg_float, 0.5),
    "threshold.s_min": (_parse_pos_float, _FIELD),
    "threshold.s_max": (_parse_pos_float, _FIELD),
    "threshold.points": (_parse_int(2), _FIELD),
    "threshold.horizon": (_parse_pos_float, _FIELD),
    "threshold.n": (_parse_int(8), _FIELD),
    "supersolution.h1": (_parse_pos_float_or_auto, None),
    "sweep.a": (_parse_float_list, None),
    "sweep.d1": (_parse_float_list, None),
    "sweep.d2": (_parse_float_list, None),
    "sweep.h0": (_parse_float_list, None),
    "sweep.mu": (_parse_float_list, None),
    "sweep.rho": (_parse_float_list, None),
    "sweep.kind": (_parse_kind_list, None),
    "output.directory": (_parse_str, "."),
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
    out_dir: str
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
        out_dir=resolved["output.directory"],
        formats=resolved["output.formats"],
        resolved=resolved,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
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
