from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flocklab.coupling import (
    ConstantCoupling,
    ModulatedCoupling,
    PowerLawCoupling,
    weights_matrix,
)
from flocklab.dynamics import (
    InternalDynamics,
    RepulsionModel,
    logistic_cosine,
    lorenz,
    zero_dynamics,
)
from flocklab.models import (
    ModelSpec,
    SingularDistanceError,
    flat_rhs,
    pack,
    rhs,
    rhs_state,
    unpack,
)
from flocklab.state import FlockState


def baseline_spec(n=2, r=1, w=1.0):
    return ModelSpec(variant="baseline", n=n, r=r, coupling=ConstantCoupling(w=w))


@st.composite
def random_state(draw, n=None, r=None):
    n = n or draw(st.integers(2, 5))
    r = r or draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(n, r)), rng.uniform(-3.0, 3.0, size=(n, r))


# ---------------------------------------------------------------------------
# spec assembly


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(variant="unknown", n=2, r=1, coupling=ConstantCoupling(w=1.0))
    with pytest.raises(ValueError):
        ModelSpec(variant="sync", n=2, r=1, coupling=ConstantCoupling(w=1.0))
    with pytest.raises(ValueError):
        ModelSpec(
            variant="sync",
            n=2,
            r=2,
            coupling=ConstantCoupling(w=1.0),
            internal=logistic_cosine(),  # one-dimensional generator, r = 2
        )
    with pytest.raises(ValueError):
        ModelSpec(variant="collision_free", n=2, r=1, coupling=ConstantCoupling(w=1.0))
    with pytest.raises(ValueError):
        ModelSpec(
            variant="collision_free",
            n=3,
            r=1,
            coupling=ConstantCoupling(w=1.0),
            repulsion=RepulsionModel(d0=0.25, phi=1.5, coeffs=np.ones((2, 2))),
        )
    with pytest.raises(ValueError):
        ModelSpec(variant="baseline", n=0, r=1, coupling=ConstantCoupling(w=1.0))


# ---------------------------------------------------------------------------
# baseline


def test_baseline_two_agent_reference():
    spec = baseline_spec()
    x = np.zeros((2, 1))
    v = np.array([[0.0], [2.0]])
    dx, dv = rhs(spec, 0.0, x, v)
    assert np.array_equal(dx, v)
    assert np.allclose(dv, [[2.0], [-2.0]])


def test_baseline_consensus_is_equilibrium():
    spec = baseline_spec(n=4, r=2)
    x = np.random.default_rng(1).normal(size=(4, 2))
    v = np.tile([1.0, -0.5], (4, 1))
    _, dv = rhs(spec, 0.3, x, v)
    assert np.all(dv == 0.0)


@given(random_state())
@settings(max_examples=60, deadline=None)
def test_symmetric_weights_conserve_momentum(state):
    x, v = state
    n, r = x.shape
    spec = ModelSpec(
        variant="baseline",
        n=n,
        r=r,
        coupling=PowerLawCoupling(gain=1.2, sigma=1.0, exponent=0.8),
    )
    _, dv = rhs(spec, 0.0, x, v)
    assert np.allclose(dv.sum(axis=0), 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# sync


@given(random_state())
@settings(max_examples=60, deadline=None)
def test_sync_with_zero_dynamics_reduces_to_baseline(state):
    x, v = state
    n, r = x.shape
    coupling = PowerLawCoupling(gain=1.0, sigma=1.0, exponent=1.0)
    base = ModelSpec(variant="baseline", n=n, r=r, coupling=coupling)
    sync = ModelSpec(variant="sync", n=n, r=r, coupling=coupling, internal=zero_dynamics(r))
    _, dv_base = rhs(base, 0.7, x, v)
    _, dv_sync = rhs(sync, 0.7, x, v)
    assert np.array_equal(dv_base, dv_sync)


def test_sync_equal_velocities_follow_the_generator():
    spec = ModelSpec(
        variant="sync", n=3, r=1, coupling=ConstantCoupling(w=2.0), internal=logistic_cosine()
    )
    x = np.array([[0.0], [1.0], [2.0]])
    v = np.full((3, 1), 1.5)
    _, dv = rhs(spec, 0.0, x, v)
    # coupling vanishes at consensus; cos(0) (1.5-1)(1.5-2) = -0.25
    assert np.allclose(dv, -0.25)


def _lorenz_flock(n=40, seed=5):
    rng = np.random.default_rng(seed)
    coupling = ModulatedCoupling(w=150.0, delta=0.5, beta=rng.uniform(0.5, 1.4, size=(n, n)))
    internal = lorenz()
    spec = ModelSpec(variant="sync", n=n, r=3, coupling=coupling, internal=internal)
    box = internal.box
    return spec, rng.uniform(-4.5, 4.5, size=(n, 3)), rng.uniform(box[:, 0], box[:, 1], size=(n, 3))


def test_sync_rhs_matches_per_agent_loop():
    spec, x, v = _lorenz_flock()
    # the per-agent form of the model: g applied to one agent's velocity at a time
    w = weights_matrix(spec.coupling, 0.9, x)
    drive = np.empty_like(v)
    for i in range(spec.n):
        drive[i] = spec.internal.g(0.9, v[i])
    want = drive + (w @ v - w.sum(axis=1)[:, None] * v)
    dx, dv = rhs(spec, 0.9, x, v)
    assert np.array_equal(dx, v)
    assert np.array_equal(dv, want)


def test_sync_rhs_calls_the_generator_once_per_evaluation():
    spec, x, v = _lorenz_flock()
    calls = []
    inner = spec.internal.g

    def counting(t, z):
        calls.append(np.shape(z))
        return inner(t, z)

    internal = dataclasses.replace(spec.internal, g=counting)
    counted = ModelSpec(variant="sync", n=spec.n, r=3, coupling=spec.coupling, internal=internal)
    calls.clear()  # the spec's own row-wise probe
    f = flat_rhs(counted)
    y = pack(x, v)
    for t in (0.0, 0.5, 1.0):
        f(t, y)
    assert calls == [(spec.n, 3)] * 3


def test_sync_spec_rejects_per_agent_generator():
    cube = InternalDynamics(name="cube", dim=1, g=lambda t, z: np.array([z[0] ** 3]))
    with pytest.raises(ValueError, match="row-wise"):
        ModelSpec(variant="sync", n=3, r=1, coupling=ConstantCoupling(w=1.0), internal=cube)
    per_agent_lorenz = InternalDynamics(
        name="lorenz_per_agent",
        dim=3,
        g=lambda t, z: np.array(
            [10.0 * (z[1] - z[0]), -z[1] + z[0] * (28.0 - z[2]), -(8.0 / 3.0) * z[2] + z[0] * z[1]]
        ),
    )
    with pytest.raises(ValueError, match="row-wise"):
        ModelSpec(
            variant="sync", n=3, r=3, coupling=ConstantCoupling(w=1.0), internal=per_agent_lorenz
        )
    # the row-wise forms of the same generators are accepted
    row_cube = InternalDynamics(name="cube", dim=1, g=lambda t, z: z**3)
    ModelSpec(variant="sync", n=3, r=1, coupling=ConstantCoupling(w=1.0), internal=row_cube)


# ---------------------------------------------------------------------------
# collision-free


def collision_spec(n=2, w=1.0, c=1.0, d0=0.25, phi=1.5):
    return ModelSpec(
        variant="collision_free",
        n=n,
        r=1,
        coupling=ConstantCoupling(w=w),
        repulsion=RepulsionModel(d0=d0, phi=phi, coeffs=np.full((n, n), c)),
    )


def test_collision_two_agent_reference():
    spec = collision_spec()
    x = np.array([[0.0], [2.0]])
    v = np.array([[0.0], [1.0]])
    _, dv = rhs(spec, 0.0, x, v)
    # squared gap 4, inner product <x_12, v_12> = 2, S(v) = 1:
    # dv_1 = (w - 2 f(4)) (v_2 - v_1) with f(4) = 1/3.75^1.5
    expected = 1.0 - 2.0 / 3.75**1.5
    assert dv[0, 0] == pytest.approx(expected, rel=1e-12)
    assert dv[1, 0] == pytest.approx(-expected, rel=1e-12)


def test_collision_consensus_is_equilibrium():
    spec = collision_spec(n=3)
    x = np.array([[0.0], [2.0], [5.0]])
    v = np.full((3, 1), 0.7)
    _, dv = rhs(spec, 0.0, x, v)
    assert np.all(dv == 0.0)


def test_collision_singularity_carries_the_pair():
    spec = collision_spec()
    x = np.array([[0.0], [0.4]])  # squared distance 0.16 < d0
    with pytest.raises(SingularDistanceError) as err:
        rhs(spec, 0.0, x, np.zeros((2, 1)))
    assert (err.value.i, err.value.j) in {(0, 1), (1, 0)}


def test_collision_receding_pair_damps_alignment():
    spec = collision_spec(c=2.0)
    x = np.array([[0.0], [1.0]])
    v = np.array([[1.0], [0.0]])  # <x_12, v_12> = 1 > 0: receding influence
    _, dv = rhs(spec, 0.0, x, v)
    _, dv_plain = rhs(baseline_spec(), 0.0, x, v)
    assert dv[0, 0] < dv_plain[0, 0]


def test_collision_guarded_near_consensus():
    spec = collision_spec()
    x = np.array([[0.0], [2.0]])
    v = np.array([[0.0], [1e-14]])  # spread under the guard scale
    _, dv = rhs(spec, 0.0, x, v)
    assert np.isfinite(dv).all()


@given(random_state(n=4, r=2))
@settings(max_examples=40, deadline=None)
def test_collision_momentum_conserved_for_symmetric_repulsion(state):
    x, v = state
    # jittered grid keeps every pair clear of the singular region
    x = np.arange(4)[:, None] * np.array([3.0, 0.0]) + 0.1 * x
    spec = ModelSpec(
        variant="collision_free",
        n=4,
        r=2,
        coupling=ConstantCoupling(w=0.8),
        repulsion=RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((4, 4), 1.5)),
    )
    _, dv = rhs(spec, 0.0, x, v)
    scale = max(1.0, float(np.abs(dv).max()))
    assert np.abs(dv.sum(axis=0)).max() <= 1e-9 * scale


# ---------------------------------------------------------------------------
# packing and dispatch


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 2))
    v = rng.normal(size=(3, 2))
    x2, v2 = unpack(pack(x, v), 3, 2)
    assert np.array_equal(x, x2) and np.array_equal(v, v2)


def test_flat_rhs_matches_structured_rhs():
    spec = baseline_spec(n=3, r=2, w=0.9)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(3, 2))
    v = rng.normal(size=(3, 2))
    f = flat_rhs(spec)
    dx, dv = rhs(spec, 1.1, x, v)
    assert np.array_equal(f(1.1, pack(x, v)), pack(dx, dv))


def test_rhs_state_wrapper():
    spec = baseline_spec()
    state = FlockState(t=0.0, x=np.zeros((2, 1)), v=np.array([[0.0], [2.0]]))
    dx, dv = rhs_state(spec, state)
    assert np.array_equal(dx, state.v)
    assert np.allclose(dv, [[2.0], [-2.0]])
