"""Principal eigenvalue: banded shift-invert iteration vs two dense oracles.

The first oracle symmetrizes the collocation matrix with sqrt-weights
(D^{1/2} J D^{1/2} is similar to J W) and takes the top eigenvalue from
scipy's dense symmetric eigensolver.  The second is the dense repeated
squaring path the package used before the banded solver, kept here to
check the eigenfunction as well.  Each shares only the matrix
definition with the package, not the eigenvalue algorithm.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from frontlab import (
    ConvergenceError,
    EigenProblem,
    RegimeError,
    critical_length,
    default_n,
    lambda_p,
    lambda_p_interval,
    make_kernel,
)
from frontlab import eigen
from frontlab.eigen import _shifted_band

TENT = make_kernel("tent", 1.0)


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
    k = make_kernel(family, 1.5)
    n = default_n(0.0, 3.0, k)
    res = lambda_p(EigenProblem(d=1.2, theta0=0.1, ell1=0.0, ell2=3.0, n=n, kernel=k))
    oracle = dense_lambda(1.2, 0.1, 0.0, 3.0, n, k)
    assert res.lambda_p == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_geometry_matrix_equals_index_difference_build(family):
    # the band storage of sigma*I - S is the band of the dense symmetrized
    # index-difference build, and that band holds every nonzero of S
    prob = EigenProblem(d=1.3, theta0=0.5, ell1=-0.7, ell2=2.1, n=41, kernel=make_kernel(family, 0.9))
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
    assert b == math.floor(prob.kernel.radius / prob.spacing) < prob.n - 1
    expected = np.zeros_like(ab)
    for m in range(b + 1):
        expected[b - m, m:] = np.diagonal(shifted, m)
    assert np.array_equal(ab, expected)
    assert not np.any(np.triu(S, b + 1))


@pytest.mark.parametrize("family", ["tent", "parabolic_bump", "truncated_gaussian"])
def test_matches_squaring_oracle_on_long_interval(family):
    k = make_kernel(family, 1.0)
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
    real = eigen.get_lapack_funcs

    def failing(names, arrays):
        (pbtrs,) = real(names, arrays)
        return [lambda ab, b: (pbtrs(ab, b)[0], 3)]

    monkeypatch.setattr(eigen, "get_lapack_funcs", failing)
    with pytest.raises(ConvergenceError, match="info=3"):
        lambda_p(prob)
