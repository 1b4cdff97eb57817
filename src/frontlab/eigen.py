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
a Perron-Frobenius bound on nu_top, strict in exact arithmetic as the
edge rows carry half weights, so sigma*I - S is positive definite and one
banded Cholesky factor serves every solve.  In floating point sigma can
tie nu_top: on an interval so short that J is flat to rounding across it
(tent below about 3e-15 radii, the other families below about 6e-9),
pbtrf may then find sigma*I - S not positive definite.  lambda_p factors
once more at sigma*(1 + 2^-40) in that case only, so every problem that
factors at sigma keeps its bits.  The retried solve grows the iterate by
about 2^40/sigma, which overflows once d*length is below about 1e-292
kernel radii; EigenProblem rejects lengths below 2^-900 (1.2e-271) radii,
which covers every d above about 1e-20.  A solve shrinks the error by (sigma - nu_top)
/ (sigma - nu_2), about 1/4 at any length as both gaps scale as
1/length^2.  The reported eigenvalue is the weighted Rayleigh quotient
of the returned eigenvector, so Rayleigh consistency holds to roundoff.

The critical length needs only the sign of lambda_p at each trial length.
By Sylvester's law of inertia, (d - theta0)*I - S is positive definite
exactly when nu_top < d - theta0, that is when lambda_p < 0, and a banded
Cholesky factorization succeeds exactly when its matrix is positive
definite.  So one factorization of that band answers each sign question
(`_subcritical`); the inverse iteration runs only where a value is needed.

The band is built and factored in LAPACK lower band storage, row m
holding the offset-m diagonal.  For kd <= 64 pbtrf runs the unblocked
pbtf2, whose BLAS syr update reads a column of the band: stride 1 in
lower storage, stride kd in upper storage.  OpenBLAS hands the strided
call to its thread pool, which made the upper factorization 4-5 times
slower at kd = 17-18 with 2 threads; the two layouts take the same time
on one thread.  scipy's OpenBLAS now loads with a one-thread pool (see
frontlab._scipy).  The band stays in lower storage, which keeps pbtrf
fast on the pool a caller keeps by importing scipy.linalg first.
lambda_p copies the factor into upper storage for its solves, because
pbtrs is faster there on either pool: 22.1 us against 32.0 us at
n = 1601, with different bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _scipy
from .errors import ConvergenceError, RegimeError
from .kernels import Kernel, kernel_taps, nonlocal_apply, support_offsets, trapezoid_weights

# sup-norm tolerance on the normalized iterate between solves
_VEC_TOL = 1e-12
# each solve shrinks the error by about 1/4 at any length; see module docstring
_MAX_SOLVES = 50
# operator-application residual, relative to the dispersal scale d
_RESIDUAL_TOL = 1e-8
# lambda_p's relative shift when sigma ties nu_top; 2^-52 is too small for the tent
_RETRY_SHIFT = 2.0**-40
# shortest interval an EigenProblem takes, in kernel radii; see module docstring
_MIN_RADII = 2.0**-900
# critical_length searches lengths up to this many kernel radii
_ELL_MAX_RADII = 50.0

# the LAPACK routines behind scipy's cholesky_banded and cho_solve_banded,
# called directly: the wrappers copy and re-validate the band on every call
_pbtrf, _pbtrs = _scipy.dpbtrf, _scipy.dpbtrs


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
        length = self.ell2 - self.ell1
        if length / self.kernel.radius < _MIN_RADII:
            raise ValueError(f"interval length {length!r} too short: lambda_p needs at least 2^-900 kernel radii")
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
    exceed unit mass.  A ValueError names a length whose node count is not
    finite.
    """
    for name, end in (("ell1", ell1), ("ell2", ell2)):
        if not math.isfinite(end):
            raise ValueError(f"{name} must be finite, got {end!r}")
    length = ell2 - ell1
    # length/radius*8 rounds as length/(radius/8) does, and cannot divide by
    # a radius/8 that underflowed to 0
    intervals = length / kernel.radius * 8.0
    if not math.isfinite(intervals):
        raise ValueError(
            f"interval length {length!r} too long for radius {kernel.radius!r}: its node count overflows"
        )
    return max(9, math.ceil(intervals) + 1)


def _shifted_band(prob: EigenProblem, sqrt_w: np.ndarray, sigma: float) -> np.ndarray:
    """Lower band storage of sigma*I - S: ab[m, :n-m] holds the offset-m
    diagonal of S, d*J(m*spacing)*sqrt(w_i*w_{i+m}), for m <= b inside the support."""
    h, n, k = prob.spacing, prob.n, prob.kernel
    b = support_offsets(k, h, n)
    taps = prob.d * kernel_taps(k, h, b)[b:, None]  # row m: offset m
    # row m of the view is padded[m:m+n], so column i holds sqrt_w[i+m];
    # the -0.0 padding leaves +0.0 in the unused columns i >= n-m, as the
    # taps are nonnegative
    padded = np.concatenate((sqrt_w, np.full(b, -0.0)))
    step = padded.itemsize
    ab = -taps * sqrt_w
    # each entry is (-taps[m]*sqrt_w[i])*sqrt_w[i+m]
    ab *= np.ndarray((b + 1, n), buffer=padded, strides=(step, step))
    ab[0] += sigma
    return ab


def _cholesky(ab: np.ndarray) -> tuple[np.ndarray, int]:
    """Lower banded Cholesky factor of ab by LAPACK pbtrf, and its info:
    0, or the order of the first leading minor that is not positive definite."""
    factor, info = _pbtrf(ab, lower=1)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")
    return factor, info


def _subcritical(prob: EigenProblem) -> bool:
    """Whether lambda_p < 0, by one banded Cholesky factorization of
    (d - theta0)*I - S; see module docstring."""
    sqrt_w = np.sqrt(trapezoid_weights(prob.n, prob.spacing))
    return _cholesky(_shifted_band(prob, sqrt_w, prob.d - prob.theta0))[1] == 0


def lambda_p(prob: EigenProblem) -> EigenResult:
    """Top eigenpair of the discretized operator; see module docstring."""
    w = trapezoid_weights(prob.n, prob.spacing)
    sqrt_w = np.sqrt(w)
    sigma = float(np.max(prob.d * nonlocal_apply(prob.kernel, prob.spacing, w)))
    factor, info = _cholesky(_shifted_band(prob, sqrt_w, sigma))
    if info > 0:  # sigma ties nu_top in floating point; see module docstring
        factor, info = _cholesky(_shifted_band(prob, sqrt_w, sigma * (1.0 + _RETRY_SHIFT)))
    if info > 0:
        raise ConvergenceError(
            f"shifted eigenproblem not positive definite: {info}-th leading minor not positive definite"
        )
    # U = L^T in upper band storage: ab_u[b-m, j] = ab_l[m, j-m]
    b, n = factor.shape[0] - 1, prob.n
    upper = np.zeros_like(factor)
    for m in range(b + 1):
        upper[b - m, m:] = factor[m, : n - m]

    v_prev = sqrt_w / sqrt_w.max()  # phi = 1, symmetrized
    for solves in range(1, _MAX_SOLVES + 1):
        v, info = _pbtrs(upper, v_prev)
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


def check_critical_length_args(d1: float, a: float, tol: float) -> None:
    """Raise the error critical_length gives for these arguments before any work."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    for name, value in (("d1", d1), ("a", a)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (0.0 < a < d1):
        raise RegimeError(
            f"critical length requires 0 < a < d1; got a={a}, d1={d1} "
            "(eigenvalue never changes sign)"
        )


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

    Every step asks only for the sign of the eigenvalue, which one banded
    Cholesky factorization gives by the law of inertia (`_subcritical`).
    lambda_p runs only once the bracket is under tol, for the stop test
    |lambda_p| < 1e-6 and the reported eigenvalue.
    """
    check_critical_length_args(d1, a, tol)
    radius = kernel.radius
    ell_max = _ELL_MAX_RADII * radius
    spacing = radius / 10.0

    def n_for(ell: float) -> int:
        return max(9, math.ceil(ell / spacing) + 1)

    def problem(ell: float, n: int) -> EigenProblem:
        return EigenProblem(d=d1, theta0=a, ell1=0.0, ell2=ell, n=n, kernel=kernel)

    def below(ell: float, n: int) -> bool:
        return _subcritical(problem(ell, n))

    lo = 8.0 * spacing
    if below(lo, n_for(lo)):
        hi = 2.0 * lo
        while below(hi, n_for(hi)):
            lo = hi
            hi *= 2.0
            if hi > ell_max:
                raise RegimeError(
                    f"no sign change found below ell_max={ell_max:.3g}; check parameters"
                )
    else:
        while True:
            hi = lo
            lo *= 0.5
            if lo < 1e-9 * radius:
                raise RegimeError(
                    f"no sign change found above length {lo:.3e}; eigenvalue stays positive"
                )
            if below(lo, n_for(lo)):
                break

    # frozen node count: the finest the bracket needs
    n_fix = n_for(hi)
    # lo's sign came from a coarser grid, so check it again at n_fix; hi's came from n_for(hi) = n_fix
    while not below(lo, n_fix):
        lo *= 0.5

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid, n_fix):
            lo = mid
        else:
            hi = mid
        # a tol below the spacing of doubles near ell* is never met: the
        # bracket stops shrinking once lo and hi are adjacent doubles
        if (hi - lo) < tol or 0.5 * (lo + hi) in (lo, hi):
            f_mid = lambda_p(problem(mid, n_fix)).lambda_p
            if abs(f_mid) < 1e-6:
                break
    else:
        f_mid = lambda_p(problem(mid, n_fix)).lambda_p
        raise ConvergenceError(
            f"critical-length bisection stalled: bracket ({lo}, {hi}), last eigenvalue {f_mid:.3e}"
        )
    return CriticalLengthResult(ell_star=mid, lambda_at_ell_star=f_mid, bracket=(lo, hi), n=n_fix)
