"""Reaction terms, parameter regimes, and a-priori bounds by hand computation."""

from types import SimpleNamespace

import numpy as np
import pytest

from frontlab import InitialData, ModelParams, RegimeError
from frontlab.model import coexistence_state, cosine_bump, field_bounds, in_weak_regime, reaction


def _params(kind="competition", **kw):
    base = dict(kind=kind, d1=1.0, d2=1.0, a=0.8, b=0.5, c=0.5, mu=0.1, rho=0.1)
    base.update(kw)
    return ModelParams(**base)


def test_reaction_competition_hand_values():
    (f1,), (f2,) = reaction(_params(), np.array([[0.3], [0.2]]))
    assert f1 == pytest.approx(0.3 * (0.8 - 0.3 - 0.5 * 0.2), abs=1e-15)
    assert f2 == pytest.approx(0.2 * (1.0 - 0.2 - 0.5 * 0.3), abs=1e-15)


def test_reaction_predation_coupling_sign():
    (f1,), (f2,) = reaction(_params("predation"), np.array([[0.3], [0.2]]))
    assert f1 == pytest.approx(0.3 * (0.8 - 0.3 - 0.5 * 0.2), abs=1e-15)
    # prey density boosts the predator: +c*u instead of -c*u
    assert f2 == pytest.approx(0.2 * (1.0 - 0.2 + 0.5 * 0.3), abs=1e-15)


def test_reaction_vectorizes():
    u = np.array([0.0, 0.5])
    v = np.array([0.2, 0.0])
    f1, f2 = reaction(_params(), np.array([u, v]))
    assert f1.shape == (2,) and f2.shape == (2,)
    assert f1[0] == 0.0 and f2[1] == 0.0


@pytest.mark.parametrize("kind", ["competition", "predation"])
def test_reaction_of_stacked_runs_matches_each_run(kind):
    # a batch stacks runs along axis 0, with its own rates and couplings per row
    rng = np.random.default_rng(3)
    fields = rng.uniform(0.0, 1.5, size=(3, 2, 9))
    params = [_params(kind, a=a, b=b, c=c) for a, b, c in ((0.8, 0.5, 0.5), (0.3, 0.9, 0.1), (1.7, 0.2, 2.0))]
    batch = SimpleNamespace(
        rates=np.array([p.rates for p in params]), couplings=np.array([p.couplings for p in params])
    )
    for (f1, f2), (u, v), p in zip(reaction(batch, fields), fields, params):
        # the per-species formulas written out, bit for bit
        assert np.array_equal(f1, u * (p.a - u - p.b * v))
        if kind == "competition":
            assert np.array_equal(f2, v * (1.0 - v - p.c * u))
        else:
            assert np.array_equal(f2, v * (1.0 - v + p.c * u))


@pytest.mark.parametrize("field", ["d1", "d2", "a", "b", "c", "mu", "rho"])
def test_nonpositive_coefficients_rejected(field):
    with pytest.raises(ValueError) as err:
        _params(**{field: 0.0})
    assert field in str(err.value)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        _params(kind="mutualism")


def test_weak_competition_regime():
    assert in_weak_regime(_params())  # 1/0.5 = 2 > 0.8 > 0.5
    assert not in_weak_regime(_params(a=0.4))  # a < b
    assert not in_weak_regime(_params(a=2.5))  # a > 1/c


def test_weak_predation_regime():
    assert in_weak_regime(_params("predation", a=2.0))  # 2 > 0.5 + 2*0.25
    # a > b + a*b*c iff a > b/(1-bc) = 2/3 here
    assert not in_weak_regime(_params("predation", a=0.6))


def test_coexistence_competition_closed_form():
    u_star, v_star = coexistence_state(_params())
    # ((a-b)/(1-bc), (1-ac)/(1-bc)) at a=0.8, b=c=0.5
    assert u_star == pytest.approx(0.4, abs=1e-15)
    assert v_star == pytest.approx(0.8, abs=1e-15)


def test_coexistence_predation_closed_form():
    u_star, v_star = coexistence_state(_params("predation", a=2.0))
    # ((a-b)/(1+bc), (1+ac)/(1+bc)) at a=2, b=c=0.5
    assert u_star == pytest.approx(1.2, abs=1e-15)
    assert v_star == pytest.approx(1.6, abs=1e-15)


def test_coexistence_outside_regime_raises():
    with pytest.raises(RegimeError):
        coexistence_state(_params(a=0.4))


def test_field_bounds_competition():
    b = field_bounds(_params(), u0_max=1.1, v0_max=0.3)
    assert b.k1 == 1.1  # data exceeds a
    assert b.k2 == 1.0  # carrying capacity wins over the data


def test_field_bounds_competition_rate_wins():
    b = field_bounds(_params(), u0_max=0.1, v0_max=0.2)
    assert b.k1 == 0.8


def test_field_bounds_predation_capacity():
    p = _params("predation", a=2.0)
    b = field_bounds(p, u0_max=0.5, v0_max=0.2)
    assert b.k1 == 2.0
    assert b.k2 == 1.0 + 0.5 * 2.0  # 1 + c*k1


def test_cosine_bump_profile():
    f = cosine_bump(2.0, 0.3)
    assert f(0.0) == pytest.approx(0.3, abs=1e-15)
    assert f(2.0) == pytest.approx(0.0, abs=1e-16)
    assert f(-2.0) == pytest.approx(0.0, abs=1e-16)
    assert float(f(5.0)) == 0.0  # clipped outside the support
    x = np.linspace(-2.0, 2.0, 41)
    vals = f(x)
    assert np.all(vals >= 0.0) and vals.max() == pytest.approx(0.3)


def test_cosine_bump_validation():
    with pytest.raises(ValueError):
        cosine_bump(-1.0, 0.1)
    with pytest.raises(ValueError):
        cosine_bump(1.0, 0.0)


def test_initial_data_cosine():
    init = InitialData.cosine(h0=1.5, amp_u=0.2, amp_v=0.4)
    assert init.h0 == 1.5
    assert init.u0(0.0) == pytest.approx(0.2)
    assert init.v0(0.0) == pytest.approx(0.4)
    assert float(init.u0(1.5)) == pytest.approx(0.0, abs=1e-16)
