"""Model parameters, reaction terms, and a-priori bounds.

Two species occupy a common interval:  u disperses by a nonlocal
convolution operator, v by classical diffusion.  The interaction is
either Lotka-Volterra competition or predation (u the prey).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RegimeError

KINDS = ("competition", "predation")


@dataclass(frozen=True)
class ModelParams:
    kind: str
    d1: float
    d2: float
    a: float
    b: float
    c: float
    mu: float
    rho: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {', '.join(KINDS)}; got {self.kind!r}")
        for name in ("d1", "d2", "a", "b", "c", "mu", "rho"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be a positive finite number, got {val!r}")


def reaction(params: ModelParams, u, v):
    """Reaction terms (f1, f2) evaluated pointwise (vectorized)."""
    f1 = u * (params.a - u - params.b * v)
    if params.kind == "competition":
        f2 = v * (1.0 - v - params.c * u)
    else:
        f2 = v * (1.0 - v + params.c * u)
    return f1, f2


def in_weak_regime(params: ModelParams) -> bool:
    """Whether the interaction is weak enough for a coexistence attractor."""
    if params.kind == "competition":
        return params.b < params.a < 1.0 / params.c
    return params.a > params.b + params.a * params.b * params.c


def coexistence_state(params: ModelParams) -> tuple[float, float]:
    """The positive constant equilibrium (u*, v*) in the weak regime."""
    if not in_weak_regime(params):
        raise RegimeError(
            f"no positive coexistence state: {params.kind} parameters "
            f"a={params.a}, b={params.b}, c={params.c} are outside the weak regime"
        )
    a, b, c = params.a, params.b, params.c
    if params.kind == "competition":
        denom = 1.0 - b * c
        return (a - b) / denom, (1.0 - a * c) / denom
    denom = 1.0 + b * c
    return (a - b) / denom, (1.0 + a * c) / denom


@dataclass(frozen=True)
class Bounds:
    """Uniform bounds honored by every run: 0 <= u <= k1, 0 <= v <= k2,
    and |v_x| <= k2*k3 at the fronts."""

    k1: float
    k2: float
    k3: float


def field_bounds(
    params: ModelParams,
    h0: float,
    u0_max: float,
    v0_max: float,
    v0_slope_max: float,
) -> Bounds:
    """Bounds determined by the data; the solver checks them each step."""
    k1 = max(u0_max, params.a)
    if params.kind == "competition":
        k2 = max(v0_max, 1.0)
        # f2 = v(1-v-cu) is largest at u=0, v=1/2
        sup_f2 = 0.25
    else:
        k2 = max(v0_max, 1.0 + params.c * k1)
        vertex = 0.5 * (1.0 + params.c * k1)
        if vertex <= k2:
            sup_f2 = vertex * vertex
        else:
            sup_f2 = k2 * (1.0 - k2 + params.c * k1)
    k3 = max(1.0 / h0, math.sqrt(sup_f2 / (2.0 * params.d2)), v0_slope_max / k2)
    return Bounds(k1=k1, k2=k2, k3=k3)


def cosine_bump(h0: float, amp: float) -> Callable:
    """Initial profile amp*cos(pi*x/(2*h0)): positive inside, zero at +-h0."""
    if h0 <= 0:
        raise ValueError(f"h0 must be positive, got {h0!r}")
    if amp <= 0:
        raise ValueError(f"amplitude must be positive, got {amp!r}")

    def profile(x):
        x = np.asarray(x, dtype=float)
        return amp * np.clip(np.cos(0.5 * math.pi * x / h0), 0.0, None)

    return profile


@dataclass(frozen=True)
class InitialData:
    """Initial front half-width and species profiles on [-h0, h0]."""

    h0: float
    u0: Callable
    v0: Callable

    @classmethod
    def cosine(cls, h0: float, amp_u: float, amp_v: float) -> "InitialData":
        return cls(h0=h0, u0=cosine_bump(h0, amp_u), v0=cosine_bump(h0, amp_v))
