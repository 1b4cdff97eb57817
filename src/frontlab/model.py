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

    @property
    def rates(self) -> np.ndarray:
        """reaction()'s growth rates (a, 1) of u and v, as a (2, 1) column."""
        return np.array(((self.a,), (1.0,)))

    @property
    def couplings(self) -> np.ndarray:
        """reaction()'s couplings of u to v and of v to u, as a (2, 1)
        column: b, and c for competition or -c for predation (u the prey)."""
        return np.array(((self.b,), (self.c if self.kind == "competition" else -self.c,)))


def reaction(params, fields: np.ndarray) -> np.ndarray:
    """Reaction terms (f1, f2) evaluated pointwise, stacked like fields,
    which holds u and v along axis -2:

        f1 = u * (a - u - b*v),
        f2 = v * (1 - v - c*u) for competition, v * (1 - v + c*u) for predation;

    each is f_i = x_i * (rate_i - x_i - coupling_i * x_j), x_j the other
    species.  params supplies rates and couplings that broadcast against
    fields: a ModelParams gives (2, 1) columns; a batch of runs gives
    (B, 2, 1), one row per run.  For predation 1 - v - (-c)*u equals
    1 - v + c*u exactly: negation is exact and x - (-y) is x + y in
    floating point."""
    return fields * (params.rates - fields - params.couplings * fields[..., ::-1, :])


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
    """Uniform bounds on the fields, 0 <= u <= k1 and 0 <= v <= k2, that
    the solver checks after every step."""

    k1: float
    k2: float


def field_bounds(params: ModelParams, u0_max: float, v0_max: float) -> Bounds:
    """The bounds that the initial maxima u0_max and v0_max and the
    reaction set: k1 = max(u0_max, a), and k2 = max(v0_max, 1) for
    competition or max(v0_max, 1 + c*k1) for predation."""
    k1 = max(u0_max, params.a)
    capacity = 1.0 if params.kind == "competition" else 1.0 + params.c * k1
    return Bounds(k1=k1, k2=max(v0_max, capacity))


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
