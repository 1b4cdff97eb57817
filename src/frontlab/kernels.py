"""Dispersal kernels for the nonlocal diffusion operator.

Every kernel J is even, continuous, supported on [-R, R], strictly
positive at 0, Lipschitz, and integrates to exactly 1.  Each family
also carries a closed-form tail mass

    tail_mass(s) = integral of J over [s, infinity)

so front-flux integrals never need an inner quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _scipy

KNOWN_FAMILIES = ("tent", "parabolic_bump", "truncated_gaussian")

# truncated_gaussian uses sigma = R/3, so the raw Gaussian value at the
# support edge is exp(-4.5); subtracting it keeps J continuous at +-R.
_EDGE_EXPONENT = 4.5


@dataclass(frozen=True)
class Kernel:
    """A dispersal kernel with unit mass and compact support [-radius, radius]."""

    family: str
    radius: float

    def __call__(self, s):
        """Evaluate J pointwise (vectorized)."""
        s = np.asarray(s, dtype=float)
        r = self.radius
        if self.family == "tent":
            return np.maximum(1.0 - np.abs(s) / r, 0.0) / r
        if self.family == "parabolic_bump":
            return 0.75 / r * np.maximum(1.0 - (s / r) ** 2, 0.0)
        # truncated_gaussian: edge value subtracted, then renormalized
        raw = np.exp(-_EDGE_EXPONENT * (s / r) ** 2) - math.exp(-_EDGE_EXPONENT)
        return self._gauss_norm * np.maximum(raw, 0.0)

    def tail_mass(self, s):
        """Closed-form integral of J over [s, infinity), any real s
        (vectorized); exactly 0.0 for s >= radius."""
        s = np.asarray(s, dtype=float)
        core = self._half_tail(np.minimum(np.abs(s), self.radius))
        return np.where(s >= 0.0, core, 1.0 - core)

    def _half_tail(self, s):
        # tail mass for 0 <= s <= radius only
        r = self.radius
        if self.family == "tent":
            return (r - s) ** 2 / (2.0 * r * r)
        if self.family == "parabolic_bump":
            # s/r first: at s = r it is 1 exactly, so the mass is 0 exactly
            return 0.5 - 0.75 * (s / r) + 0.25 * (s / r) ** 3
        sig = r / 3.0
        edge = math.exp(-_EDGE_EXPONENT)
        gauss_part = math.sqrt(math.pi / 2.0) * sig * (
            self._erf_edge - _scipy.erf(s / (math.sqrt(2.0) * sig))
        )
        return self._gauss_norm * (gauss_part - (r - s) * edge)

    def __post_init__(self):
        if self.family not in KNOWN_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; known families: {', '.join(KNOWN_FAMILIES)}"
            )
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise ValueError(f"kernel radius must be a positive finite number, got {self.radius!r}")
        # checked as given, so a message shows the radius the caller passed
        object.__setattr__(self, "radius", float(self.radius))
        # _scipy.erf is bound here, when a truncated_gaussian kernel is
        # made, and for no other family: a sweep child forked after the
        # kernel exists inherits it, and a spawned one binds it on its
        # first read
        if self.family == "truncated_gaussian":
            self._gauss_norm

    # truncated_gaussian's constants; each cache lives in the instance
    # __dict__, outside the fields that eq and hash read

    @cached_property
    def _erf_edge(self) -> float:
        # erf at the support edge, r/(sqrt(2)*sigma)
        r = self.radius
        sig = r / 3.0
        return _scipy.erf(r / (math.sqrt(2.0) * sig))

    @cached_property
    def _gauss_norm(self) -> float:
        # 1/mass
        r = self.radius
        sig = r / 3.0
        edge = math.exp(-_EDGE_EXPONENT)
        mass = math.sqrt(2.0 * math.pi) * sig * self._erf_edge - 2.0 * r * edge
        return 1.0 / mass


def trapezoid_weights(nodes: int, spacing: float) -> np.ndarray:
    """Composite trapezoid weights for `nodes` uniform samples `spacing`
    apart: the quadrature of every discretized nonlocal integral."""
    w = np.full(nodes, spacing)
    w[0] = w[-1] = 0.5 * spacing
    return w


def support_offsets(k: Kernel, spacing: float, nodes: int) -> int:
    """The largest offset j with j*spacing inside J's support on a grid of
    `nodes` uniform samples `spacing` apart: nodes - 1 at most."""
    return min(nodes - 1, math.floor(k.radius / spacing))


def offset_samples(k: Kernel, spacing, m: int) -> np.ndarray:
    """J at the m+1 offsets j*spacing, j = 0..m: shape (m+1,) for a float
    spacing, (B, m+1) for a (B, 1) column of spacings.  Each entry is
    J(j*spacing) whatever the shape, as every operation is elementwise."""
    return k(np.arange(m + 1) * spacing)


def kernel_taps(k: Kernel, spacing, m: int) -> np.ndarray:
    """J at the 2m+1 offsets j*spacing, j = -m..m, shaped as
    offset_samples.  J is even and (-j)*spacing = -(j*spacing) exactly, so
    the offset_samples at j >= 0 are mirrored."""
    half = offset_samples(k, spacing, m)
    return np.concatenate((half[..., :0:-1], half), axis=-1)


def apply_taps(f: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """sum_j taps[m + i - j] * f_j at every node i, for 2m+1 taps with
    m <= len(f) - 1.  When m = len(f) - 1, the "valid" rows of the
    convolution are exactly the len(f) rows kept; otherwise the full
    convolution is cut down to them."""
    m = len(taps) // 2
    if m == len(f) - 1:
        return np.convolve(f, taps, "valid")
    return np.convolve(f, taps)[m : m + len(f)]


def nonlocal_apply(k: Kernel, spacing: float, f: np.ndarray) -> np.ndarray:
    """sum_j J((i-j)*spacing) * f_j at every node i of a uniform grid
    `spacing` apart.  J(x_i - x_j) depends only on i - j, so the operator
    is a banded Toeplitz convolution: J is sampled only at the offsets
    inside its support and applied by direct convolution."""
    m = support_offsets(k, spacing, len(f))
    return apply_taps(f, kernel_taps(k, spacing, m))


def make_kernel(family: str, radius: float = 1.0) -> Kernel:
    """Build a kernel from a family name and support radius."""
    return Kernel(family=family, radius=radius)
