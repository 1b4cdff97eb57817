"""Principal eigenvalue of the nonlocal dispersal operator on an interval.

The operator acts on samples over (ell1, ell2) as

    (L phi)(x) = d * ( integral J(x-y) phi(y) dy  -  phi(x) ) + theta0 * phi(x)

Discretization is collocation on uniform nodes with trapezoid weights:
A[i,j] = d*w_j*J(x_i - x_j) + (theta0 - d)*delta_ij.  Only the matrix
M[i,j] = d*w_j*J(x_i - x_j) depends on the geometry; it is entrywise
nonnegative with positive diagonal, so its top eigenpair is a simple
Perron pair and lambda_p = nu_top + theta0 - d.

The Perron pair is found by inverse iteration on the banded symmetric
S = sqrt(W) M sqrt(W)^-1, shifted by sigma = the largest row sum of M:
a Perron-Frobenius bound on nu_top, strict as the edge rows carry half
weights, so sigma*I - S is positive definite and one banded Cholesky
factor serves every solve.  A solve shrinks the error by (sigma - nu_top)
/ (sigma - nu_2), about 1/4 at any length as both gaps scale as
1/length^2.  The reported eigenvalue is the weighted Rayleigh quotient
of the returned eigenvector, so Rayleigh consistency holds to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs

from .errors import ConvergenceError, RegimeError
from .kernels import Kernel, nonlocal_apply, trapezoid_weights

# sup-norm tolerance on the normalized iterate between solves
_VEC_TOL = 1e-12
# each solve shrinks the error by about 1/4 at any length; see module docstring
_MAX_SOLVES = 50
# operator-application residual, relative to the dispersal scale d
_RESIDUAL_TOL = 1e-8
# critical_length searches lengths up to this many kernel radii
_ELL_MAX_RADII = 50.0


@dataclass(frozen=True)
class EigenProblem:
    """Eigenproblem for d*(K_Omega - I) + theta0 on Omega = (ell1, ell2)."""

    d: float
    theta0: float
    ell1: float
    ell2: float
    n: int
    kernel: Kernel

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 0):
            raise ValueError(f"d must be positive and finite, got {self.d!r}")
        if not math.isfinite(self.theta0):
            raise ValueError(f"theta0 must be finite, got {self.theta0!r}")
        if not (self.ell2 > self.ell1):
            raise ValueError(f"degenerate interval ({self.ell1}, {self.ell2})")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes, got {self.n}")
        if self.spacing >= self.kernel.radius / 4.0:
            raise ValueError(
                f"node spacing {self.spacing:.3g} too coarse for kernel radius "
                f"{self.kernel.radius:.3g}; need spacing < radius/4"
            )

    @property
    def spacing(self) -> float:
        return (self.ell2 - self.ell1) / (self.n - 1)


@dataclass
class EigenResult:
    lambda_p: float
    eigenfunction: np.ndarray  # strictly positive, sup-normalized
    x: np.ndarray
    residual: float
    iterations: int  # inverse-iteration solves with the one banded factor


def default_n(ell1: float, ell2: float, kernel: Kernel) -> int:
    """Node count targeting spacing radius/8.

    ceil keeps spacing <= radius/8; when length is a multiple of the
    radius the support edges of J(x_i - .) land on nodes, where the
    trapezoid rule is exact for kinked kernels and row sums cannot
    exceed unit mass.
    """
    length = ell2 - ell1
    intervals = math.ceil(length / (kernel.radius / 8.0))
    return max(9, intervals + 1)


def _shifted_band(prob: EigenProblem, sqrt_w: np.ndarray, sigma: float) -> np.ndarray:
    """Upper band storage of sigma*I - S: ab[b-m, m:] holds the offset-m
    diagonal of S, d*J(m*spacing)*sqrt(w_i*w_{i+m}), for m <= b inside the support."""
    h = prob.spacing
    b = min(prob.n - 1, math.floor(prob.kernel.radius / h))
    taps = prob.d * prob.kernel(np.arange(b + 1) * h)
    ab = np.zeros((b + 1, prob.n))
    for m in range(b + 1):
        ab[b - m, m:] = -taps[m] * sqrt_w[: prob.n - m] * sqrt_w[m:]
    ab[b] += sigma
    return ab


def lambda_p(prob: EigenProblem) -> EigenResult:
    """Top eigenpair of the discretized operator; see module docstring."""
    w = trapezoid_weights(prob.n, prob.spacing)
    sqrt_w = np.sqrt(w)
    sigma = float(np.max(prob.d * nonlocal_apply(prob.kernel, prob.spacing, w)))
    try:
        factor = cholesky_banded(_shifted_band(prob, sqrt_w, sigma))
    except LinAlgError as exc:
        raise ConvergenceError(f"shifted eigenproblem not positive definite: {exc}") from exc

    # the LAPACK routine behind cho_solve_banded, without its per-call wrapper
    pbtrs = get_lapack_funcs(("pbtrs",), (factor,))[0]
    v_prev = sqrt_w / sqrt_w.max()  # phi = 1, symmetrized
    for solves in range(1, _MAX_SOLVES + 1):
        v, info = pbtrs(factor, v_prev)
        if info != 0:
            raise ConvergenceError(f"banded Cholesky solve failed (LAPACK pbtrs info={info})")
        vmax = v.max()
        if not (math.isfinite(vmax) and vmax > 0):
            raise ConvergenceError("inverse iterate degenerated (overflow or zero vector)")
        v /= vmax
        converged = np.max(np.abs(v - v_prev)) <= _VEC_TOL
        if converged:
            break
        v_prev = v

    phi = v / sqrt_w
    phi /= phi.max()
    Mphi = prob.d * nonlocal_apply(prob.kernel, prob.spacing, w * phi)
    nu = float(np.dot(phi * w, Mphi) / np.dot(phi * w, phi))
    residual = float(np.max(np.abs(Mphi - nu * phi)))
    if not converged and residual > _RESIDUAL_TOL * prob.d:
        raise ConvergenceError(
            f"eigen iteration did not converge in {_MAX_SOLVES} inverse-iteration solves; "
            f"last residual {residual:.3e}"
        )
    if np.any(phi <= 0.0):
        raise ConvergenceError("computed eigenvector is not strictly positive")

    x = prob.ell1 + np.arange(prob.n) * prob.spacing
    return EigenResult(nu + prob.theta0 - prob.d, phi, x, residual, iterations=solves)


def lambda_p_interval(d: float, theta0: float, ell1: float, ell2: float, kernel: Kernel) -> EigenResult:
    """Convenience wrapper choosing the node count with default_n."""
    n = default_n(ell1, ell2, kernel)
    return lambda_p(EigenProblem(d=d, theta0=theta0, ell1=ell1, ell2=ell2, n=n, kernel=kernel))


@dataclass(frozen=True)
class CriticalLengthResult:
    ell_star: float
    lambda_at_ell_star: float
    bracket: tuple[float, float]
    n: int


def critical_length(d1: float, a: float, kernel: Kernel, tol: float = 1e-4) -> CriticalLengthResult:
    """Interval length at which the principal eigenvalue of the dispersal
    operator plus constant rate a crosses zero.

    Exists only for 0 < a < d1: the eigenvalue runs from a - d1 (< 0) for
    short intervals up to a (> 0) for long ones, strictly increasing, so
    bisection on length applies.  The bracket is first located by
    geometric expansion/shrinkage at a fixed spacing target, then refined
    with a node count frozen for the whole bisection so the discrete
    eigenvalue is a smooth function of length.  The search gives up past
    _ELL_MAX_RADII kernel radii.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if not (0.0 < a < d1):
        raise RegimeError(
            f"critical length requires 0 < a < d1; got a={a}, d1={d1} "
            "(eigenvalue never changes sign)"
        )
    radius = kernel.radius
    ell_max = _ELL_MAX_RADII * radius
    spacing = radius / 10.0

    def n_for(ell: float) -> int:
        return max(9, math.ceil(ell / spacing) + 1)

    def lam(ell: float, n: int) -> float:
        return lambda_p(EigenProblem(d=d1, theta0=a, ell1=0.0, ell2=ell, n=n, kernel=kernel)).lambda_p

    lo = 8.0 * spacing
    f_lo = lam(lo, n_for(lo))
    if f_lo > 0.0:
        while f_lo > 0.0:
            hi = lo
            lo *= 0.5
            if lo < 1e-9 * radius:
                raise RegimeError(
                    f"no sign change found above length {lo:.3e}; eigenvalue stays positive"
                )
            f_lo = lam(lo, n_for(lo))
    else:
        hi = 2.0 * lo
        f_hi = lam(hi, n_for(hi))
        while f_hi <= 0.0:
            lo = hi
            hi *= 2.0
            if hi > ell_max:
                raise RegimeError(
                    f"no sign change found below ell_max={ell_max:.3g}; check parameters"
                )
            f_hi = lam(hi, n_for(hi))

    # frozen node count: the finest the bracket needs
    n_fix = n_for(hi)
    f_lo = lam(lo, n_fix)
    f_hi = lam(hi, n_fix)
    # re-evaluation at the common grid may nudge the endpoint signs
    while f_lo > 0.0:
        lo *= 0.5
        f_lo = lam(lo, n_fix)
    while f_hi <= 0.0:
        hi *= 2.0
        if hi > ell_max:
            raise RegimeError(f"no sign change found below ell_max={ell_max:.3g}")
        f_hi = lam(hi, n_fix)

    mid, f_mid = lo, f_lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = lam(mid, n_fix)
        if f_mid <= 0.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) < tol and abs(f_mid) < 1e-6:
            break
    else:
        raise ConvergenceError(
            f"critical-length bisection stalled: bracket ({lo}, {hi}), last eigenvalue {f_mid:.3e}"
        )
    return CriticalLengthResult(ell_star=mid, lambda_at_ell_star=f_mid, bracket=(lo, hi), n=n_fix)
