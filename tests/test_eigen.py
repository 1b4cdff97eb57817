"""Principal eigenvalue: banded shift-invert iteration vs two dense oracles.

The first oracle symmetrizes the collocation matrix with sqrt-weights
(D^{1/2} J D^{1/2} is similar to J W) and takes the top eigenvalue from
scipy's dense symmetric eigensolver.  The second is the dense repeated
squaring path the package used before the banded solver, kept here to
check the eigenfunction as well.  Each shares only the matrix
definition with the package, not the eigenvalue algorithm.

The critical length is checked against the bisection the package used
before its Cholesky sign test, which reads every sign off lambda_p.

On intervals no longer than the kernel radius, every pair of points is
inside the support, and the tent and parabolic_bump eigenproblems have
closed forms (ROADMAP item 7): the exact lambda_p and critical length
they give are the third oracle, against which the discretization error
itself is measured.

The package factors the band in LAPACK lower band storage.  The upper
storage path it used before is kept here as an oracle that lambda_p and
the sign test must match bit for bit wherever LAPACK factors unblocked.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dpbtrf, dpbtrs

from frontlab import (
    ConvergenceError,
    EigenProblem,
    Kernel,
    RegimeError,
    critical_length,
    default_n,
    lambda_p,
    lambda_p_interval,
)
from frontlab import eigen
from frontlab.eigen import _cholesky, _shifted_band, _subcritical
from frontlab.kernels import trapezoid_weights

TENT = Kernel("tent", 1.0)
FAMILIES = ["tent", "parabolic_bump", "truncated_gaussian"]


def dense_lambda(d, theta0, ell1, ell2, n, kernel):
    x = np.linspace(ell1, ell2, n)
    h = (ell2 - ell1) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    rt = np.sqrt(w)
    S = d * rt[:, None] * kernel(np.subtract.outer(x, x)) * rt[None, :]
    nu = scipy.linalg.eigh(S, eigvals_only=True)[-1]
    return nu + theta0 - d


def squaring_eigenpair(prob):
    """Perron pair of the dense collocation matrix M = d*J(x_i - x_j)*w_j by
    repeated squaring with max-entry normalization: squaring k times
    applies the 2^k-th power.  Returns lambda_p and the sup-normalized
    eigenfunction."""
    idx = np.arange(prob.n, dtype=float)
    w = np.full(prob.n, prob.spacing)
    w[0] = w[-1] = 0.5 * prob.spacing
    M = prob.d * prob.kernel(np.subtract.outer(idx, idx) * prob.spacing) * w[np.newaxis, :]
    P = M / M.max()
    v_prev = P.sum(axis=1)
    v_prev /= v_prev.max()
    for _ in range(64):
        P = P @ P
        P /= P.max()
        v = P.sum(axis=1)
        v /= v.max()
        if np.max(np.abs(v - v_prev)) <= 1e-12:
            break
        v_prev = v
    else:
        raise AssertionError("squaring oracle did not converge")
    Mv = M @ v
    nu = np.dot(v * w, Mv) / np.dot(v * w, v)
    return nu + prob.theta0 - prob.d, v


@pytest.mark.parametrize(
    "d,theta0,ell2",
    [(1.0, 0.5, 2.0), (0.3, -0.2, 1.5), (2.0, 1.0, 6.0), (1.0, 0.0, 0.7)],
)
def test_matches_dense_eigensolver(d, theta0, ell2):
    n = default_n(0.0, ell2, TENT)
    res = lambda_p(EigenProblem(d=d, theta0=theta0, ell1=0.0, ell2=ell2, n=n, kernel=TENT))
    oracle = dense_lambda(d, theta0, 0.0, ell2, n, TENT)
    assert res.lambda_p == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("family", ["parabolic_bump", "truncated_gaussian"])
def test_matches_dense_eigensolver_other_kernels(family):
    k = Kernel(family, 1.5)
    n = default_n(0.0, 3.0, k)
    res = lambda_p(EigenProblem(d=1.2, theta0=0.1, ell1=0.0, ell2=3.0, n=n, kernel=k))
    oracle = dense_lambda(1.2, 0.1, 0.0, 3.0, n, k)
    assert res.lambda_p == pytest.approx(oracle, abs=1e-9)


def _oracle_critical_length(d1, a, kernel, tol=1e-4):
    """The package's bisection before the Cholesky sign test: every
    bracket and bisection step reads the sign off lambda_p."""
    radius = kernel.radius
    ell_max = 50.0 * radius
    spacing = radius / 10.0

    def n_for(ell):
        return max(9, math.ceil(ell / spacing) + 1)

    def lam(ell, n):
        return lambda_p(EigenProblem(d=d1, theta0=a, ell1=0.0, ell2=ell, n=n, kernel=kernel)).lambda_p

    lo = 8.0 * spacing
    f_lo = lam(lo, n_for(lo))
    if f_lo > 0.0:
        while f_lo > 0.0:
            hi = lo
            lo *= 0.5
            assert lo >= 1e-9 * radius
            f_lo = lam(lo, n_for(lo))
    else:
        hi = 2.0 * lo
        f_hi = lam(hi, n_for(hi))
        while f_hi <= 0.0:
            lo = hi
            hi *= 2.0
            assert hi <= ell_max
            f_hi = lam(hi, n_for(hi))

    n_fix = n_for(hi)
    f_lo = lam(lo, n_fix)
    f_hi = lam(hi, n_fix)
    while f_lo > 0.0:
        lo *= 0.5
        f_lo = lam(lo, n_fix)
    while f_hi <= 0.0:
        hi *= 2.0
        assert hi <= ell_max
        f_hi = lam(hi, n_fix)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = lam(mid, n_fix)
        if f_mid <= 0.0:
            lo = mid
        else:
            hi = mid
        if ((hi - lo) < tol or 0.5 * (lo + hi) in (lo, hi)) and abs(f_mid) < 1e-6:
            return mid, f_mid, (lo, hi), n_fix
    raise AssertionError("oracle bisection stalled")


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
@pytest.mark.parametrize("ell1,ell2", [(-0.7, 2.1), (-0.2, 0.6)])
def test_geometry_matrix_equals_index_difference_build(family, ell1, ell2):
    # the band storage of sigma*I - S is the band of the dense symmetrized
    # index-difference build, and that band holds every nonzero of S;
    # on the short interval the support spans the grid and the band is full
    prob = EigenProblem(d=1.3, theta0=0.5, ell1=ell1, ell2=ell2, n=41, kernel=Kernel(family, 0.9))
    idx = np.arange(prob.n, dtype=float)
    w = np.full(prob.n, prob.spacing)
    w[0] = w[-1] = 0.5 * prob.spacing
    sqrt_w = np.sqrt(w)
    J = prob.kernel(np.subtract.outer(idx, idx) * prob.spacing)
    S = prob.d * J * sqrt_w[:, None] * sqrt_w[None, :]
    # the shift: the largest row sum of M = d*J*W, strictly above the top eigenvalue
    sigma = (prob.d * J @ w).max()
    assert sigma > scipy.linalg.eigh(S, eigvals_only=True)[-1]
    ab = _shifted_band(prob, sqrt_w, sigma)
    shifted = sigma * np.eye(prob.n) - S
    b = ab.shape[0] - 1
    assert b == min(prob.n - 1, math.floor(prob.kernel.radius / prob.spacing))
    # lower band storage: row m holds the offset-m diagonal, then n-m unused
    # columns that hold +0.0
    expected = np.zeros_like(ab)
    for m in range(b + 1):
        expected[m, : prob.n - m] = np.diagonal(shifted, m)
        assert not np.signbit(ab[m, prob.n - m :]).any()
    assert np.array_equal(ab, expected)
    assert not np.any(np.triu(S, b + 1))


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
@pytest.mark.parametrize("n", [9, 65, 1601])
def test_factor_equals_cholesky_banded(family, n):
    # LAPACK pbtrf called directly gives the wrapper's lower factor bit for bit
    k = Kernel(family, 1.0)
    prob = EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=(n - 1) / 8.0, n=n, kernel=k)
    w = trapezoid_weights(n, prob.spacing)
    sigma = float(np.max(prob.d * eigen.nonlocal_apply(k, prob.spacing, w)))
    ab = _shifted_band(prob, np.sqrt(w), sigma)
    expected = scipy.linalg.cholesky_banded(ab, lower=True)
    factor, info = _cholesky(ab)
    assert info == 0
    assert factor.shape == expected.shape and factor.tobytes() == expected.tobytes()


def _upper_band(prob, sqrt_w, sigma):
    """Upper band storage of sigma*I - S, as the package built it before it
    moved to lower storage: ab[b-m, m:] holds the offset-m diagonal."""
    h = prob.spacing
    b = min(prob.n - 1, math.floor(prob.kernel.radius / h))
    taps = prob.d * prob.kernel(np.arange(b, -1, -1) * h)[:, None]  # row b-m: offset m
    # row b-m of the window holds sqrt_w[j-m] at column j; the -0.0 padding
    # leaves +0.0 in the unused columns j < m, as the taps are nonnegative
    window = sliding_window_view(np.concatenate((np.full(b, -0.0), sqrt_w)), prob.n)
    ab = -taps * window
    ab *= sqrt_w  # each entry is (-taps[m]*sqrt_w[j-m])*sqrt_w[j]
    ab[b] += sigma
    return ab


def _upper_lambda_p(prob):
    """lambda_p with the band factored and solved in upper storage: returns
    lambda_p, the eigenfunction, the residual and the solve count."""
    w = trapezoid_weights(prob.n, prob.spacing)
    sqrt_w = np.sqrt(w)
    sigma = float(np.max(prob.d * eigen.nonlocal_apply(prob.kernel, prob.spacing, w)))
    factor, info = dpbtrf(_upper_band(prob, sqrt_w, sigma))
    assert info == 0
    v_prev = sqrt_w / sqrt_w.max()
    for solves in range(1, eigen._MAX_SOLVES + 1):
        v, info = dpbtrs(factor, v_prev)
        assert info == 0
        v /= v.max()
        if np.max(np.abs(v - v_prev)) <= eigen._VEC_TOL:
            break
        v_prev = v
    phi = v / sqrt_w
    phi /= phi.max()
    Mphi = prob.d * eigen.nonlocal_apply(prob.kernel, prob.spacing, w * phi)
    nu = float(np.dot(phi * w, Mphi) / np.dot(phi * w, phi))
    residual = float(np.max(np.abs(Mphi - nu * phi)))
    return nu + prob.theta0 - prob.d, phi, residual, solves


def _factors_in_both_layouts(prob, shift):
    """shift*I - S factored in both layouts: the diagonals of the lower
    factor and of the upper factor, offset 0 first, and both infos."""
    sqrt_w = np.sqrt(trapezoid_weights(prob.n, prob.spacing))
    lower, info = _cholesky(_shifted_band(prob, sqrt_w, shift))
    upper, upper_info = dpbtrf(_upper_band(prob, sqrt_w, shift))
    b = lower.shape[0] - 1
    lower_diags = np.concatenate([lower[m, : prob.n - m] for m in range(b + 1)])
    upper_diags = np.concatenate([upper[b - m, m:] for m in range(b + 1)])
    return lower_diags, info, upper_diags, upper_info


def _assert_matches_upper_oracle(prob):
    res = lambda_p(prob)
    lam, phi, residual, solves = _upper_lambda_p(prob)
    assert (res.lambda_p, res.residual, res.iterations) == (lam, residual, solves)
    assert res.eigenfunction.tobytes() == phi.tobytes()
    w = trapezoid_weights(prob.n, prob.spacing)
    sigma = float(np.max(prob.d * eigen.nonlocal_apply(prob.kernel, prob.spacing, w)))
    # lambda_p's band, always definite, and the sign test's
    for shift in (sigma, prob.d - prob.theta0):
        lower_diags, info, upper_diags, upper_info = _factors_in_both_layouts(prob, shift)
        assert info == upper_info
        assert lower_diags.tobytes() == upper_diags.tobytes()
    assert _subcritical(prob) is (upper_info == 0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [9, 65, 1601])
def test_lower_storage_matches_upper_storage_oracle(family, n):
    k = Kernel(family, 1.0)
    _assert_matches_upper_oracle(EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=(n - 1) / 8.0, n=n, kernel=k))


def test_lower_storage_matches_upper_storage_oracle_on_critical_length_bands(monkeypatch):
    # the benchmark's critical-length call bisects on kd = 17-18 bands, the
    # widths at which upper storage took OpenBLAS's threaded path
    probs = []

    def recorded(prob):
        probs.append(prob)
        return _subcritical(prob)

    monkeypatch.setattr(eigen, "_subcritical", recorded)
    critical_length(1.0, 0.05, TENT)
    monkeypatch.undo()
    kds = [min(p.n - 1, math.floor(p.kernel.radius / p.spacing)) for p in probs]
    assert {17, 18} <= set(kds), kds
    for prob in probs:
        _assert_matches_upper_oracle(prob)


def test_wide_band_matches_upper_storage_oracle_to_roundoff():
    """For kd >= 65 LAPACK's pbtrf factors in blocks of 32 columns, and the
    blocked path updates the two layouts with different BLAS calls, which
    may sum in another order, so the factors can differ in their last bits.
    Below that it runs the unblocked pbtf2, whose operations are the same in
    both layouts, and the factors are bit-identical.  Here a completed factor
    may differ by 1e-15 of its largest entry (a few ulps; 2.2e-16 was the
    most seen), lambda_p by 1e-14*d and the sup-normalized eigenfunction by
    1e-14 (6.6e-16 and 1.0e-15 seen), with the same solve count, and the
    sign test must agree.  A factorization that fails stops at the same
    column in both layouts, but leaves its unfinished block updated
    differently, so only its info is compared."""
    rng = np.random.default_rng(65)
    for _ in range(40):
        radius = rng.uniform(0.3, 2.0)
        n = int(rng.integers(70, 300))
        kd = int(rng.integers(65, n))
        d = rng.uniform(0.2, 3.0)
        kernel = Kernel(rng.choice(FAMILIES), radius)
        ell = radius * (n - 1) / (kd + 0.5)
        prob = EigenProblem(d=d, theta0=d * rng.uniform(0.0, 1.0), ell1=0.0, ell2=ell, n=n, kernel=kernel)
        w = trapezoid_weights(n, prob.spacing)
        sigma = float(np.max(d * eigen.nonlocal_apply(kernel, prob.spacing, w)))
        lower_diags, info, upper_diags, upper_info = _factors_in_both_layouts(prob, sigma)
        assert len(lower_diags) == sum(n - m for m in range(kd + 1))
        assert info == upper_info == 0
        assert np.max(np.abs(lower_diags - upper_diags)) <= 1e-15 * np.max(np.abs(upper_diags))
        res = lambda_p(prob)
        lam, phi, _, solves = _upper_lambda_p(prob)
        assert abs(res.lambda_p - lam) <= 1e-14 * d
        assert np.max(np.abs(res.eigenfunction - phi)) <= 1e-14
        assert res.iterations == solves
        assert _subcritical(prob) is (_factors_in_both_layouts(prob, d - prob.theta0)[3] == 0)


def test_every_factorization_passes_a_lower_band(monkeypatch):
    # in upper storage OpenBLAS threads the factorization's strided syr
    # update, several times slower at kd >= 17
    bands = []
    real = eigen._pbtrf

    def spy(ab, **kwargs):
        bands.append((ab.shape, kwargs.get("lower", 0), ab[0].min()))
        return real(ab, **kwargs)

    monkeypatch.setattr(eigen, "_pbtrf", spy)
    critical_length(1.0, 0.05, TENT)
    lambda_p(EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=200.0, n=1601, kernel=TENT))
    assert bands[-1][0] == (9, 1601)
    # row 0 of a lower band is the positive diagonal
    assert all(lower == 1 and diagonal_min > 0.0 for _, lower, diagonal_min in bands), bands


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_matches_squaring_oracle_on_long_interval(family):
    k = Kernel(family, 1.0)
    prob = EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=200.0, n=default_n(0.0, 200.0, k), kernel=k)
    res = lambda_p(prob)
    lam, phi = squaring_eigenpair(prob)
    assert abs(res.lambda_p - lam) <= 1e-13
    assert np.max(np.abs(res.eigenfunction - phi)) <= 1e-11


def test_interval_too_long_for_a_dense_matrix():
    # n = 16001: a dense n x n matrix would need about 2 GB
    d, theta0 = 1.0, 0.5
    res = lambda_p_interval(d, theta0, 0.0, 2000.0, TENT)
    n = len(res.eigenfunction)
    assert n == 16001
    spacing = 2000.0 / (n - 1)
    assert np.all(res.eigenfunction > 0.0)
    assert res.residual <= 1e-12
    assert theta0 - d < res.lambda_p <= theta0 + d * (spacing / TENT.radius) ** 2
    assert res.lambda_p > lambda_p_interval(d, theta0, 0.0, 200.0, TENT).lambda_p


@pytest.mark.parametrize(
    "family, length",
    [
        ("tent", 1e-20),
        ("parabolic_bump", 1e-12),
        ("parabolic_bump", 1e-9),
        ("truncated_gaussian", 1e-20),
        ("truncated_gaussian", 1e-100),
    ],
)
def test_interval_flat_to_rounding_matches_dense_oracle(family, length):
    # J is flat to rounding across these intervals, so sigma ties nu_top and
    # sigma*I - S has no Cholesky factor; lambda_p factors again a little above
    k = Kernel(family, 1.0)
    prob = EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=length, n=default_n(0.0, length, k), kernel=k)
    w = trapezoid_weights(prob.n, prob.spacing)
    sigma = float(np.max(prob.d * eigen.nonlocal_apply(k, prob.spacing, w)))
    assert _cholesky(_shifted_band(prob, np.sqrt(w), sigma))[1] > 0
    res = lambda_p(prob)
    assert res.lambda_p == pytest.approx(dense_lambda(1.0, 0.5, 0.0, length, prob.n, k), abs=1e-12)
    assert res.lambda_p == pytest.approx(0.5 - 1.0, abs=1e-4)
    assert np.all(res.eigenfunction > 0.0)


def test_interval_too_short_for_the_shifted_solve():
    # at 1e-300 the retried solve overflows; lambda_p rejects lengths below 2^-900 radii
    with pytest.raises(ValueError, match="interval length 1e-300 too short"):
        lambda_p_interval(1.0, 0.5, 0.0, 1e-300, TENT)
    assert lambda_p_interval(1.0, 0.5, 0.0, 1e-270, TENT).lambda_p == pytest.approx(-0.5, abs=1e-12)
    # a tiny d alone is no reason to reject an interval
    assert lambda_p_interval(1e-300, 0.0, 0.0, 1.0, TENT).lambda_p < 0.0


def test_solve_count_does_not_grow_with_length():
    # both spectral gaps under the shift scale as 1/length^2, so the
    # convergence factor per solve, and the solve count, stay fixed
    counts = [lambda_p_interval(1.0, 0.5, 0.0, ell, TENT).iterations for ell in (2.0, 20.0, 200.0, 2000.0)]
    assert all(1 <= c <= 40 for c in counts), counts


def test_failures_raise_convergence_error(monkeypatch):
    prob = EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=20.0, n=161, kernel=TENT)
    # one solve from phi = 1 is far from the eigenvector
    monkeypatch.setattr(eigen, "_MAX_SOLVES", 1)
    with pytest.raises(ConvergenceError, match="did not converge in 1 "):
        lambda_p(prob)
    monkeypatch.undo()

    # unshifted, the banded matrix is -S, which has no Cholesky factor
    def unshifted(p, sqrt_w, sigma):
        return _shifted_band(p, sqrt_w, 0.0)

    monkeypatch.setattr(eigen, "_shifted_band", unshifted)
    with pytest.raises(ConvergenceError, match="not positive definite"):
        lambda_p(prob)
    assert not _subcritical(EigenProblem(d=1.0, theta0=1.0, ell1=0.0, ell2=20.0, n=161, kernel=TENT))


def test_eigenfunction_positive_normalized_small_residual():
    res = lambda_p_interval(1.0, 0.5, 0.0, 2.0, TENT)
    assert np.all(res.eigenfunction > 0.0)
    assert res.eigenfunction.max() == pytest.approx(1.0, abs=1e-15)
    assert res.residual <= 1e-10
    assert res.iterations >= 1


def test_theta0_enters_as_exact_shift():
    base = lambda_p_interval(1.0, 0.2, 0.0, 3.0, TENT).lambda_p
    shifted = lambda_p_interval(1.0, 0.7, 0.0, 3.0, TENT).lambda_p
    assert abs((shifted - base) - 0.5) <= 1e-12


def test_translation_invariance():
    left = lambda_p_interval(1.0, 0.5, 0.0, 2.0, TENT).lambda_p
    right = lambda_p_interval(1.0, 0.5, 5.0, 7.0, TENT).lambda_p
    assert abs(left - right) <= 1e-12


def test_strictly_increasing_in_length():
    vals = [lambda_p_interval(1.0, 0.0, 0.0, ell, TENT).lambda_p for ell in (1.0, 2.0, 4.0)]
    assert vals[0] < vals[1] < vals[2]


def test_range_envelope():
    # theta0 - d < lambda_p <= theta0 up to the trapezoid row-sum excess,
    # which is bounded by d*(spacing/R)^2
    for d, theta0, ell in [(1.0, 0.5, 2.0), (0.7, -1.0, 5.0), (2.0, 0.0, 1.0)]:
        n = default_n(0.0, ell, TENT)
        spacing = ell / (n - 1)
        lam = lambda_p_interval(d, theta0, 0.0, ell, TENT).lambda_p
        assert lam > theta0 - d
        assert lam <= theta0 + d * (spacing / TENT.radius) ** 2


def test_grid_refinement_converges():
    # doubling intervals keeps the support-edge alignment; errors shrink
    coarse, mid, fine = (
        lambda_p(EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=2.0, n=n, kernel=TENT)).lambda_p
        for n in (17, 33, 65)
    )
    assert abs(mid - fine) < abs(coarse - mid)


def test_default_n_spacing_target():
    n = default_n(0.0, 4.0, TENT)
    assert n >= 9
    assert 4.0 / (n - 1) <= TENT.radius / 8.0 + 1e-15


def test_problem_validation():
    with pytest.raises(ValueError):
        EigenProblem(d=-1.0, theta0=0.0, ell1=0.0, ell2=1.0, n=17, kernel=TENT)
    with pytest.raises(ValueError):
        EigenProblem(d=1.0, theta0=0.0, ell1=1.0, ell2=1.0, n=17, kernel=TENT)
    with pytest.raises(ValueError):
        EigenProblem(d=1.0, theta0=0.0, ell1=0.0, ell2=1.0, n=4, kernel=TENT)
    with pytest.raises(ValueError) as err:
        # spacing 10/8 is way above radius/4
        EigenProblem(d=1.0, theta0=0.0, ell1=0.0, ell2=10.0, n=9, kernel=TENT)
    assert "spacing" in str(err.value)


def test_critical_length_zero_crossing():
    res = critical_length(1.0, 0.5, TENT)
    assert abs(res.lambda_at_ell_star) < 1e-6
    lo, hi = res.bracket
    assert lo <= res.ell_star <= hi
    assert hi - lo < 1e-4
    # independent re-evaluation at the returned resolution
    lam = lambda_p(EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=res.ell_star, n=res.n, kernel=TENT)).lambda_p
    assert abs(lam) < 1e-6


def test_critical_length_matches_dense_oracle():
    res = critical_length(1.0, 0.5, TENT)
    n4 = 4 * res.n

    def f(ell):
        return dense_lambda(1.0, 0.5, 0.0, ell, n4, TENT)

    lo, hi = 0.5 * res.ell_star, 2.0 * res.ell_star
    assert f(lo) < 0.0 < f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(res.ell_star - oracle) <= 0.01 * oracle


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_critical_length_matches_lambda_bisection(family):
    # the sign test steers the bisection exactly as the signs of lambda_p did
    for radius, d1, ratio, tol in itertools.product([0.5, 1.0, 2.0], [0.5, 1.0, 3.0], [0.01, 0.05, 0.5, 0.99], [1e-4, 1e-6]):
        k = Kernel(family, radius)
        res = critical_length(d1, ratio * d1, k, tol=tol)
        ell_star, lam, bracket, n = _oracle_critical_length(d1, ratio * d1, k, tol=tol)
        assert (res.ell_star, res.lambda_at_ell_star, res.bracket, res.n) == (ell_star, lam, bracket, n), (
            radius, d1, ratio, tol
        )


def test_sign_test_agrees_with_lambda_p_on_random_problems():
    rng = np.random.default_rng(12)
    for _ in range(300):
        radius = rng.uniform(0.3, 2.0)
        ell = rng.uniform(0.1, 6.0) * radius
        n = max(9, math.ceil(ell / (radius / rng.uniform(4.5, 12.0))) + 1)
        d = rng.uniform(0.2, 3.0)
        kernel = Kernel(rng.choice(["tent", "parabolic_bump", "truncated_gaussian"]), radius)
        prob = EigenProblem(d=d, theta0=d * rng.uniform(0.0, 1.0), ell1=0.0, ell2=ell, n=n, kernel=kernel)
        assert _subcritical(prob) == (lambda_p(prob).lambda_p < 0.0), prob


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
@pytest.mark.parametrize("a", [0.05, 0.5, 0.9])
def test_sign_test_agrees_with_lambda_p_next_to_the_critical_length(family, a):
    k = Kernel(family, 1.0)
    res = critical_length(1.0, a, k, tol=1e-12)
    for delta in (1e-3, 1e-5, 1e-7, 1e-9):
        for ell, below in ((res.ell_star - delta, True), (res.ell_star + delta, False)):
            prob = EigenProblem(d=1.0, theta0=a, ell1=0.0, ell2=ell, n=res.n, kernel=k)
            assert _subcritical(prob) is below
            assert (lambda_p(prob).lambda_p < 0.0) is below


def test_critical_length_runs_lambda_p_only_for_the_stop_test(monkeypatch):
    calls = []

    def counted(prob):
        calls.append(prob)
        return lambda_p(prob)

    monkeypatch.setattr(eigen, "lambda_p", counted)
    critical_length(1.0, 0.05, TENT)
    assert 1 <= len(calls) <= 3


def test_critical_length_rechecks_lo_at_the_frozen_node_count(monkeypatch):
    # lo = 0.8 is subcritical on its own 9 nodes but not on the bracket's
    # 17, so the re-check at the frozen node count halves it once
    calls = []

    def recorded(prob):
        below = _subcritical(prob)
        calls.append((prob.ell2, prob.n, below))
        return below

    monkeypatch.setattr(eigen, "_subcritical", recorded)
    res = critical_length(1.0, 0.4097, TENT)
    assert calls[:4] == [(0.8, 9, True), (1.6, 17, False), (0.8, 17, False), (0.4, 17, True)]
    lo, hi = res.bracket
    assert res.n == 17 and lo <= res.ell_star <= hi
    assert res.ell_star == pytest.approx(0.79964, abs=1e-5)
    assert abs(res.lambda_at_ell_star) < 1e-6


def test_stalled_bisection_names_bracket_and_last_eigenvalue(monkeypatch):
    # an eigenvalue shifted by 1 never passes the |lambda_p| < 1e-6 stop test
    def shifted(prob):
        res = lambda_p(prob)
        res.lambda_p += 1.0
        return res

    monkeypatch.setattr(eigen, "lambda_p", shifted)
    with pytest.raises(ConvergenceError, match=r"stalled: bracket \(0\.63\d*, 0\.63\d*\), last eigenvalue 1\.000e\+00"):
        critical_length(1.0, 0.5, TENT)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 4: tol only decides when lambda_p first runs; the |lambda_p| < 1e-6 stop "
    "sets the bracket, so tol = 0.3 gives the default-tol result, bracket width 6.1e-6",
)
def test_looser_tol_gives_a_wider_critical_length_bracket():
    lo, hi = critical_length(1.0, 0.5, Kernel("parabolic_bump"), tol=0.3).bracket
    assert hi - lo > 1e-4


def test_critical_length_decreases_with_rate():
    slow = critical_length(1.0, 0.3, TENT).ell_star
    fast = critical_length(1.0, 0.6, TENT).ell_star
    assert slow > fast


def test_critical_length_regime_errors():
    with pytest.raises(RegimeError):
        critical_length(1.0, 1.0, TENT)  # a >= d1: no zero crossing
    with pytest.raises(RegimeError):
        critical_length(1.0, -0.1, TENT)
    with pytest.raises(RegimeError, match="no sign change found below ell_max=50"):
        # at a = 1e-9 the crossing lies far past the 50-radius search window
        critical_length(1.0, 1e-9, TENT)


def test_failed_banded_solve_raises_convergence_error(monkeypatch):
    prob = EigenProblem(d=1.0, theta0=0.5, ell1=0.0, ell2=20.0, n=161, kernel=TENT)
    real = eigen._pbtrs

    def failing(ab, b, **kwargs):
        return real(ab, b, **kwargs)[0], 3

    monkeypatch.setattr(eigen, "_pbtrs", failing)
    with pytest.raises(ConvergenceError, match="info=3"):
        lambda_p(prob)


# --- exact oracles on intervals no longer than the radius (ROADMAP item 7) ---
#
# On (0, ell) with ell <= R every |x - y| <= R, so J(x - y) is one
# polynomial in x - y and K maps the eigenproblem to a small closed form.
# A kernel of radius R on ell is the radius-1 kernel on ell/R: mu(ell) below
# is the top eigenvalue of K for R = 1, and lambda_p = d*(mu - 1) + theta0.


def _bisect(f, lo, hi):
    """The root of f, increasing on [lo, hi], to adjacent doubles."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        lo, hi = (mid, hi) if f(mid) < 0.0 else (lo, mid)


def _tent_mu(ell):
    # (d/dx)^2 of int |x-y| phi(y) dy is 2 phi(x), so K phi = mu phi gives
    # phi = cos(omega*(x - ell/2)) with omega^2 = 2/mu, and the affine
    # remainder vanishes when (1 - ell/2)*omega*tan(omega*ell/2) = 1: one
    # root with omega*ell/2 = t in (0, pi/2), where the left side increases
    t = _bisect(lambda t: (1.0 - 0.5 * ell) * (2.0 * t / ell) * math.tan(t) - 1.0, 0.0, 0.5 * math.pi)
    return 2.0 / (2.0 * t / ell) ** 2


def _parabolic_bump_mu(ell):
    # J(s) = 3/4*(1 - s^2) maps the even eigenfunction A + B*x^2 on (-l, l),
    # l = ell/2, to the quadratic with coefficients [[p, q], [r, s]] @ (A, B);
    # mu is the larger eigenvalue of that matrix
    l = 0.5 * ell
    p, q = 0.75 * (2.0 * l - 2.0 * l**3 / 3.0), 0.75 * (2.0 * l**3 / 3.0 - 2.0 * l**5 / 5.0)
    r, s = -0.75 * 2.0 * l, -0.75 * 2.0 * l**3 / 3.0
    return 0.5 * (p + s) + math.sqrt(0.25 * (p - s) ** 2 + q * r)


EXACT_MU = {"tent": _tent_mu, "parabolic_bump": _parabolic_bump_mu}
# the critical lengths at d1 = 1, a = 0.5, R = 1, checked with mpmath at 30 digits
EXACT_ELL_STAR = {"tent": 0.6308127600, "parabolic_bump": 0.7303249692}


def _exact_ell_star(family, d1, a):
    # mu(ell) increases with ell up to mu(R); ell* solves mu(ell) = 1 - a/d1
    mu = EXACT_MU[family]
    return _bisect(lambda ell: mu(ell) - (1.0 - a / d1), 1e-3, 1.0)


@pytest.mark.parametrize("family", sorted(EXACT_MU))
def test_exact_oracles_give_the_recorded_critical_lengths(family):
    assert abs(_exact_ell_star(family, 1.0, 0.5) - EXACT_ELL_STAR[family]) < 1e-10


@pytest.mark.parametrize("family", sorted(EXACT_MU))
@pytest.mark.parametrize("ell", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_lambda_p_matches_exact_value_at_second_order(family, ell, radius):
    # the error is second order in the spacing h: it falls 4x per halving of
    # h and stays within 0.25*d*(h/R)^2 (the largest measured constant is
    # 0.199, parabolic_bump at ell = R)
    k = Kernel(family, radius)
    length = ell * radius
    for d, theta0 in [(1.0, 0.5), (0.5, 0.05), (3.0, 2.7)]:
        exact = d * (EXACT_MU[family](ell) - 1.0) + theta0
        errors = []
        for n in (17, 33, 65):
            prob = EigenProblem(d=d, theta0=theta0, ell1=0.0, ell2=length, n=n, kernel=k)
            errors.append(lambda_p(prob).lambda_p - exact)
            assert abs(errors[-1]) <= 0.25 * d * (prob.spacing / radius) ** 2, (d, theta0, n)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 < coarse / fine < 4.1, (d, theta0, errors)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 4: at its default node count critical_length misses the exact "
    "ell* by 1.28e-3 (tent) and 2.49e-3 (parabolic_bump), 13-25x its tol",
)
@pytest.mark.parametrize("family", sorted(EXACT_MU))
def test_criterion_03_critical_length_within_tol_of_exact_value(family):
    res = critical_length(1.0, 0.5, Kernel(family, 1.0), tol=1e-4)
    assert abs(res.ell_star - EXACT_ELL_STAR[family]) <= 1e-4


# ROADMAP item 4's false spreading certificate: tent, d1 = 1, a = 0.05 and a
# habitat of length 3.555, just above the code's ell* but below the true one
FALSE_SPREAD_A, FALSE_SPREAD_L = 0.05, 3.555


def _reference_lambda_p(ell, theta0, kernel):
    """lambda_p on grids of spacing R/200, R/400 and R/800, extrapolated at
    second order, and the order the three values show."""
    lams = []
    for per_radius in (200, 400, 800):
        n = round(per_radius * ell / kernel.radius) + 1
        lams.append(lambda_p(EigenProblem(d=1.0, theta0=theta0, ell1=0.0, ell2=ell, n=n, kernel=kernel)).lambda_p)
    order = math.log2((lams[0] - lams[1]) / (lams[1] - lams[2]))
    return lams[2] + (lams[2] - lams[1]) / 3.0, order


def test_false_spreading_reference_is_subcritical_at_second_order():
    ref, order = _reference_lambda_p(FALSE_SPREAD_L, FALSE_SPREAD_A, TENT)
    assert abs(order - 2.0) < 0.01
    assert ref == pytest.approx(-5.07e-5, abs=0.01e-5)


@pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 4: at L = 3.555 (tent, a = 0.05) the true lambda_p is -5.07e-5, but "
    "lambda_p_interval gives +1.75e-3 and critical_length gives ell* = 3.55317 < L",
)
def test_habitat_below_the_true_critical_length_is_not_certified_to_spread():
    assert lambda_p_interval(1.0, FALSE_SPREAD_A, 0.0, FALSE_SPREAD_L, TENT).lambda_p < 0
    assert critical_length(1.0, FALSE_SPREAD_A, TENT).ell_star > FALSE_SPREAD_L
