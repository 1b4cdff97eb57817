"""Kernel invariants checked against adaptive quadrature oracles."""

import math
import pickle

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from frontlab import Kernel
from frontlab.kernels import KNOWN_FAMILIES, nonlocal_apply

RADII = (0.5, 1.0, 2.5)


def _quad_mass(k, lo, hi):
    # the integrand has a kink at 0 for the tent; tell quad about it
    pts = [0.0] if lo < 0.0 < hi else None
    val, err = quad(lambda s: float(k(np.asarray(s))), lo, hi, points=pts, limit=200)
    assert err < 1e-12
    return val


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_unit_mass_matches_quadrature(family, radius):
    k = Kernel(family, radius)
    assert abs(_quad_mass(k, -radius, radius) - 1.0) <= 1e-10


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_even_symmetry_on_random_samples(family):
    rng = np.random.default_rng(20260825)
    k = Kernel(family, 1.7)
    s = rng.uniform(-2.0, 2.0, size=257)
    np.testing.assert_array_equal(k(s), k(-s))


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_compact_support_and_positive_center(family):
    k = Kernel(family, 0.8)
    assert float(k(np.float64(0.0))) > 0.0
    assert float(k(np.float64(0.8))) == 0.0
    assert float(k(np.float64(-0.8))) == 0.0
    assert float(k(np.float64(5.0))) == 0.0


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_continuous_at_support_edge(family):
    # the gaussian family subtracts its edge value, so no family may jump at +-R
    k = Kernel(family, 1.0)
    assert float(k(np.float64(1.0 - 1e-9))) <= 1e-6


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_tail_mass_anchors(family):
    k = Kernel(family, 1.3)
    assert abs(float(k.tail_mass(np.float64(0.0))) - 0.5) <= 1e-12
    assert float(k.tail_mass(np.float64(1.3))) == 0.0


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_kernel_and_tail_mass_are_exactly_zero_past_the_radius(family):
    # the solver's front sums add terms past a row's own support as exact
    # zeros, so J and its tail mass must be 0.0, not a rounding residue, at
    # the radius, one ulp past it and everywhere beyond
    for radius in np.linspace(0.3, 7.0, 68):
        k = Kernel(family, float(radius))
        s = np.concatenate(([radius, np.nextafter(radius, np.inf)], np.linspace(radius, 5.0 * radius, 401)))
        assert not k(s).any() and not k.tail_mass(s).any(), radius
        assert float(k.tail_mass(float(radius))) == 0.0 and float(k(float(radius))) == 0.0, radius


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_tail_mass_matches_quadrature(family, radius):
    k = Kernel(family, radius)
    for s in np.linspace(0.0, radius, 17)[:-1]:
        expect = _quad_mass(k, float(s), radius)
        assert abs(float(k.tail_mass(np.float64(s))) - expect) <= 1e-9


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_tail_mass_monotone_decreasing(family):
    k = Kernel(family, 2.0)
    s = np.linspace(0.0, 2.5, 101)
    tm = k.tail_mass(s)
    assert np.all(np.diff(tm) <= 0.0)
    assert np.all(tm >= 0.0) and np.all(tm <= 1.0)


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_first_moment_matches_quadrature(family, radius):
    # the tail mass integrates to the first moment (Fubini): the nonlocal
    # front flux of a unit density
    k = Kernel(family, radius)
    expect, err = quad(lambda s: s * float(k(np.asarray(s))), 0.0, radius, limit=200)
    assert err < 1e-12
    got, err = quad(lambda s: float(k.tail_mass(np.float64(s))), 0.0, radius, limit=200)
    assert err < 1e-12
    assert abs(got - expect) <= 1e-10


# radius 0.9 over 17 nodes: the support spans the whole grid (offsets clamp
# to 16), reaches 12 nodes (more than half the grid), reaches 3 nodes, or
# leaves only the diagonal
@pytest.mark.parametrize(
    "spacing", [0.05, 0.07, 0.25, 1.3], ids=["wider-than-grid", "over-half-grid", "few-nodes", "diagonal"]
)
@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_nonlocal_apply_matches_dense_offset_matrix(family, spacing):
    k = Kernel(family, 0.9)
    f = np.random.default_rng(20261018).uniform(0.0, 2.0, size=17)
    x = np.arange(17) * spacing
    dense = k(np.subtract.outer(x, x)) @ f
    got = nonlocal_apply(k, spacing, f)
    assert got.shape == f.shape
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(f))
    # bit for bit the full convolution with J sampled at all 2m+1 offsets
    m = min(len(f) - 1, math.floor(k.radius / spacing))
    assert np.array_equal(got, np.convolve(f, k(np.arange(-m, m + 1) * spacing))[m : m + len(f)])


@pytest.mark.parametrize("family", KNOWN_FAMILIES)
def test_kernel_values_match_clip_formulas(family):
    # J and its tail mass clamp with np.maximum and np.minimum; the bits are
    # those of the np.clip forms, across the support edge and beyond
    r = 1.3
    k = Kernel(family, r)
    s = np.concatenate((np.linspace(-2.0, 2.0, 401), [-r, r, 0.0, -0.0, np.nextafter(r, 2.0)]))
    if family == "tent":
        want = np.clip(1.0 - np.abs(s) / r, 0.0, None) / r
    elif family == "parabolic_bump":
        want = 0.75 / r * np.clip(1.0 - (s / r) ** 2, 0.0, None)
    else:
        raw = np.exp(-4.5 * (s / r) ** 2) - math.exp(-4.5)
        want = k._gauss_norm * np.clip(raw, 0.0, None)
    assert np.array_equal(k(s), want)
    s = s[s >= 0.0]  # tail_mass takes distances
    assert np.array_equal(k.tail_mass(s), k.tail_mass(np.clip(s, 0.0, r)))


def test_unknown_family_lists_choices():
    with pytest.raises(ValueError) as err:
        Kernel("boxcar", 1.0)
    for name in KNOWN_FAMILIES:
        assert name in str(err.value)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_radius_rejected(bad):
    with pytest.raises(ValueError):
        Kernel("tent", bad)


@pytest.mark.parametrize(
    ("family", "radius", "message"),
    [
        ("tnet", 1.0, "unknown kernel family 'tnet'; known families: " + ", ".join(KNOWN_FAMILIES)),
        ("tent", -1.0, "kernel radius must be a positive finite number, got -1.0"),
    ],
    ids=["misspelled-family", "negative-radius"],
)
def test_kernel_validates_itself(family, radius, message):
    # without the check these evaluated as the truncated Gaussian and as a
    # tent with J(0) = -1
    with pytest.raises(ValueError) as err:
        Kernel(family, radius)
    assert str(err.value) == message


def test_kernel_stores_its_radius_as_float():
    assert type(Kernel("tent", 2).radius) is float
    assert Kernel("tent", 2) == Kernel("tent", 2.0)
    assert Kernel("tent").radius == 1.0


def test_gauss_norm_cached_closed_form_and_pickles():
    # mass of exp(-s^2 / (2 sigma^2)) - exp(-4.5) over [-R, R], sigma = R/3
    k = Kernel("truncated_gaussian", 2.0)
    mass = math.sqrt(2.0 * math.pi) * (2.0 / 3.0) * erf(3.0 / math.sqrt(2.0)) - 2.0 * 2.0 * math.exp(-4.5)
    assert k._gauss_norm == pytest.approx(1.0 / mass, rel=1e-14)
    assert "_gauss_norm" in vars(k)  # stored on the instance
    s = np.linspace(-2.5, 2.5, 41)
    before, tail_before = k(s), k.tail_mass(s)
    k2 = pickle.loads(pickle.dumps(k))  # the constants travel with the pickle
    assert k2 == k and hash(k2) == hash(k)
    assert np.array_equal(k2(s), before) and np.array_equal(k2.tail_mass(s), tail_before)
    fresh = Kernel("truncated_gaussian", 2.0)
    assert np.array_equal(fresh(s), before)
