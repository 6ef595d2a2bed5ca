from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from flocklab.coupling import (
    ConstantCoupling,
    ModulatedCoupling,
    PowerLawCoupling,
    psi_integral,
    weights_matrix,
)
from flocklab.state import distance_sq_matrix


def beta_matrix(n: int, value: float = 1.4) -> np.ndarray:
    return np.full((n, n), value)


# ---------------------------------------------------------------------------
# pair weights


def test_power_law_zero_distance():
    model = PowerLawCoupling(gain=1.0, sigma=1.0, exponent=1.0)
    x = np.zeros((2, 1))
    assert weights_matrix(model, 0.0, x)[0, 1] == 1.0


def test_power_law_reference_value():
    model = PowerLawCoupling(gain=2.0, sigma=1.0, exponent=1.0)
    x = np.array([[0.0], [math.sqrt(3.0)]])  # squared distance 3
    assert weights_matrix(model, 0.0, x)[0, 1] == pytest.approx(0.5, rel=1e-12)


def test_modulated_exponent_zero_is_pure_modulation():
    model = ModulatedCoupling(w=1.0, delta=0.0, beta=beta_matrix(2))
    x = np.array([[0.0], [7.0]])
    assert weights_matrix(model, 0.0, x)[0, 1] == pytest.approx(1.5, rel=1e-12)
    assert weights_matrix(model, math.pi / 2.0, x)[0, 1] == pytest.approx(2.0, rel=1e-12)


def test_constant_coupling_ignores_geometry():
    model = ConstantCoupling(w=0.7)
    x = np.array([[0.0, 0.0], [5.0, -3.0]])
    assert weights_matrix(model, 3.0, x)[0, 1] == 0.7


def test_weights_matrix_has_no_self_weight():
    # weights are defined for distinct pairs only: an agent's own entry is zero
    w = weights_matrix(ConstantCoupling(w=1.0), 0.0, np.zeros((3, 1)))
    assert w[2, 2] == 0.0 and w[2, 1] == 1.0


def test_weights_matrix_zero_diagonal():
    model = PowerLawCoupling(gain=1.0, sigma=1.0, exponent=0.8)
    x = np.random.default_rng(0).normal(size=(4, 2))
    w = weights_matrix(model, 0.0, x)
    assert w.shape == (4, 4)
    assert np.all(np.diag(w) == 0.0)
    assert np.allclose(w, w.T)  # distance-based families are symmetric


@pytest.mark.parametrize(
    "model",
    [
        PowerLawCoupling(gain=1.3, sigma=0.7, exponent=0.8),
        ModulatedCoupling(w=1.1, delta=1.4, beta=beta_matrix(6, 0.9)),
        ConstantCoupling(w=0.6),
    ],
    ids=["power_law", "modulated", "constant"],
)
def test_weights_matrix_takes_given_squared_distances(model):
    x = np.random.default_rng(11).normal(size=(6, 3))
    w = weights_matrix(model, 0.4, x)
    assert np.array_equal(weights_matrix(model, 0.4, x, dist_sq=distance_sq_matrix(x)), w)
    # the given distances are the ones used: those of 2x give the weights at 2x
    doubled = weights_matrix(model, 0.4, x, dist_sq=distance_sq_matrix(2.0 * x))
    assert np.array_equal(doubled, weights_matrix(model, 0.4, 2.0 * x))


def test_modulated_beta_shape_mismatch():
    model = ModulatedCoupling(w=1.0, delta=1.0, beta=beta_matrix(3))
    with pytest.raises(ValueError):
        weights_matrix(model, 0.0, np.zeros((2, 1)))


def test_constructor_validation():
    with pytest.raises(ValueError):
        PowerLawCoupling(gain=0.0, sigma=1.0, exponent=1.0)
    with pytest.raises(ValueError):
        PowerLawCoupling(gain=1.0, sigma=-1.0, exponent=1.0)
    with pytest.raises(ValueError):
        ModulatedCoupling(w=1.0, delta=1.0, beta=beta_matrix(2, math.sqrt(2.0)))
    with pytest.raises(ValueError):
        ModulatedCoupling(w=0.0, delta=1.0, beta=beta_matrix(2))
    with pytest.raises(ValueError):
        ModulatedCoupling(w=1.0, delta=-0.1, beta=beta_matrix(2))
    with pytest.raises(ValueError):
        ConstantCoupling(w=-2.0)


# ---------------------------------------------------------------------------
# envelopes


def test_modulated_envelope_closed_form():
    # offset is the supremum 2.0 of the admissible beta-squared values, so
    # the same envelope serves every realized beta matrix
    model = ModulatedCoupling(w=1.0, delta=0.9, beta=beta_matrix(5, 0.3))
    env = model.envelope()
    for s in (0.0, 1.0, 3.0, 10.0):
        assert env.psi(s) == pytest.approx(1.0 / (s + 2.0) ** 0.9, rel=1e-12)


def test_constant_envelope_is_flat():
    env = ConstantCoupling(w=0.4).envelope()
    assert env.psi(0.0) == env.psi(100.0) == 0.4
    assert env.w_bar == 0.4


def test_power_law_envelope_at_zero():
    env = PowerLawCoupling(gain=1.0, sigma=1.0, exponent=1.0).envelope()
    assert env.psi(0.0) == 1.0


coupling_models = st.one_of(
    st.builds(
        PowerLawCoupling,
        gain=st.floats(0.1, 5.0),
        sigma=st.floats(0.3, 2.0),
        exponent=st.floats(0.1, 3.0),
    ),
    st.builds(
        ConstantCoupling,
        w=st.floats(0.1, 5.0),
    ),
    st.builds(
        lambda w, delta, b: ModulatedCoupling(w=w, delta=delta, beta=beta_matrix(6, b)),
        w=st.floats(0.1, 5.0),
        delta=st.floats(0.0, 4.0),
        b=st.floats(0.1, 1.4),
    ),
)


@st.composite
def sized_coupling(draw):
    """A coupling model together with a matching agent count."""
    n = draw(st.integers(2, 6))
    family = draw(st.integers(0, 2))
    if family == 0:
        model = PowerLawCoupling(
            gain=draw(st.floats(0.1, 5.0)),
            sigma=draw(st.floats(0.3, 2.0)),
            exponent=draw(st.floats(0.1, 3.0)),
        )
    elif family == 1:
        model = ConstantCoupling(w=draw(st.floats(0.1, 5.0)))
    else:
        model = ModulatedCoupling(
            w=draw(st.floats(0.1, 5.0)),
            delta=draw(st.floats(0.0, 4.0)),
            beta=beta_matrix(n, draw(st.floats(0.1, 1.4))),
        )
    return model, n


@given(
    sized_coupling(),
    st.integers(1, 3),
    st.floats(0.0, 20.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_envelope_sandwich(sized, r, t, seed):
    """Every weight sits between psi at the scaled spread and w_bar.

    The envelope argument bounds pairwise distance; spreads convert via the
    sqrt(dimension) factor (documented spread-to-distance scale).
    """
    model, n = sized
    x = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(n, r))
    s = float((x.max(axis=0) - x.min(axis=0)).max())
    env = model.envelope()
    w = weights_matrix(model, t, x)
    off = w[~np.eye(n, dtype=bool)]
    lo = env.psi(math.sqrt(r) * s)
    assert (off >= lo - 1e-12 * max(1.0, lo)).all()
    assert (off <= env.w_bar + 1e-12 * max(1.0, env.w_bar)).all()


@given(coupling_models)
@settings(max_examples=60, deadline=None)
def test_envelope_monotone_non_increasing(model):
    env = model.envelope()
    grid = np.linspace(0.0, 50.0, 101)
    vals = [env.psi(float(s)) for s in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= 0.0 for v in vals)


# ---------------------------------------------------------------------------
# envelope integrals


def test_psi_integral_reference_segment():
    # int_9^11.67 (s+2)^{-1/2} ds = 2 (sqrt(13.67) - sqrt(11))
    model = ModulatedCoupling(w=1.0, delta=0.5, beta=beta_matrix(5))
    env = model.envelope()
    exact = 2.0 * (math.sqrt(13.67) - math.sqrt(11.0))
    assert psi_integral(env, 9.0, 11.67) == pytest.approx(exact, rel=1e-12)


def test_psi_integral_log_case():
    model = ModulatedCoupling(w=3.0, delta=1.0, beta=beta_matrix(2))
    env = model.envelope()
    assert psi_integral(env, 1.0, 5.0) == pytest.approx(3.0 * math.log(7.0 / 3.0), rel=1e-12)
    assert psi_integral(env, 1.0, math.inf) == math.inf


def test_psi_integral_heavy_tail_diverges_light_tail_converges():
    heavy = ModulatedCoupling(w=1.0, delta=0.7, beta=beta_matrix(2)).envelope()
    light = ModulatedCoupling(w=1.0, delta=2.0, beta=beta_matrix(2)).envelope()
    assert psi_integral(heavy, 0.0, math.inf) == math.inf
    assert psi_integral(light, 0.0, math.inf) == pytest.approx(0.5, rel=1e-12)


def test_psi_integral_power_law_tail():
    conv = PowerLawCoupling(gain=1.0, sigma=1.0, exponent=1.0).envelope()
    div = PowerLawCoupling(gain=1.0, sigma=1.0, exponent=0.5).envelope()
    # int_0^inf (1+s^2)^{-1} ds = pi/2
    assert psi_integral(conv, 0.0, math.inf) == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert psi_integral(div, 0.0, math.inf) == math.inf


def test_psi_integral_constant_and_degenerate():
    env = ConstantCoupling(w=2.5).envelope()
    assert psi_integral(env, 1.0, 4.0) == pytest.approx(7.5, rel=1e-12)
    assert psi_integral(env, 3.0, 3.0) == 0.0
    assert psi_integral(env, 0.0, math.inf) == math.inf
    with pytest.raises(ValueError):
        psi_integral(env, 4.0, 1.0)
    with pytest.raises(ValueError):
        psi_integral(env, -1.0, 1.0)


@given(
    coupling_models,
    st.floats(0.0, 30.0),
    st.floats(0.01, 20.0),
)
@settings(max_examples=60, deadline=None)
def test_psi_integral_matches_quadrature(model, a, width):
    env = model.envelope()
    b = a + width
    expected, _ = quad(env.psi, a, b, epsabs=1e-12, limit=200)
    assert psi_integral(env, a, b) == pytest.approx(expected, abs=1e-8)
