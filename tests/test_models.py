from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flocklab import models
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
    batch_rhs,
    flat_rhs,
    pack,
    unpack,
)
from flocklab.state import FlockState, distance_sq_matrix


def rhs(spec, t, x, v):
    """(dx, dv) as (n, r) arrays at time t, through `flat_rhs` on the packed state."""
    y = pack(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    return unpack(flat_rhs(spec)(t, y), spec.n, spec.r)


def baseline_spec(n=2, r=1, w=1.0):
    return ModelSpec(n=n, r=r, coupling=ConstantCoupling(w=w))


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
        ModelSpec(
            n=2,
            r=2,
            coupling=ConstantCoupling(w=1.0),
            internal=logistic_cosine(),  # one-dimensional generator, r = 2
        )
    with pytest.raises(ValueError):
        ModelSpec(
            n=3,
            r=1,
            coupling=ConstantCoupling(w=1.0),
            repulsion=RepulsionModel(d0=0.25, phi=1.5, coeffs=np.ones((2, 2))),
        )
    with pytest.raises(ValueError):
        ModelSpec(n=0, r=1, coupling=ConstantCoupling(w=1.0))


@pytest.mark.parametrize(
    "internal, repulsion, variant",
    [(False, False, "baseline"), (True, False, "sync"), (False, True, "collision_free"),
     (True, True, None)],
)
def test_model_spec_variant_is_the_perturbation_it_holds(internal, repulsion, variant):
    pieces = {
        "internal": logistic_cosine() if internal else None,
        "repulsion": RepulsionModel(d0=0.25, phi=1.5, coeffs=np.ones((2, 2))) if repulsion else None,
    }
    if variant is None:
        with pytest.raises(ValueError, match="not both"):
            ModelSpec(n=2, r=1, coupling=ConstantCoupling(w=1.0), **pieces)
        return
    spec = ModelSpec(n=2, r=1, coupling=ConstantCoupling(w=1.0), **pieces)
    assert spec.variant == variant
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.variant = "baseline"
    assert "variant" not in {fld.name for fld in dataclasses.fields(ModelSpec)}


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
    base = ModelSpec(n=n, r=r, coupling=coupling)
    sync = ModelSpec(n=n, r=r, coupling=coupling, internal=zero_dynamics(r))
    _, dv_base = rhs(base, 0.7, x, v)
    _, dv_sync = rhs(sync, 0.7, x, v)
    assert np.array_equal(dv_base, dv_sync)


def test_sync_equal_velocities_follow_the_generator():
    spec = ModelSpec(
        n=3, r=1, coupling=ConstantCoupling(w=2.0), internal=logistic_cosine()
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
    spec = ModelSpec(n=n, r=3, coupling=coupling, internal=internal)
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
    counted = ModelSpec(n=spec.n, r=3, coupling=spec.coupling, internal=internal)
    calls.clear()  # the dynamics' own row-wise probe
    f = flat_rhs(counted)
    y = pack(x, v)
    for t in (0.0, 0.5, 1.0):
        f(t, y)
    assert calls == [(spec.n, 3)] * 3


def test_sync_spec_rejects_per_agent_generator():
    # rejected where the dynamics is built, before any ModelSpec sees it
    with pytest.raises(ValueError, match="row-wise"):
        InternalDynamics(name="cube", dim=1, g=lambda t, z: np.array([z[0] ** 3]))
    with pytest.raises(ValueError, match="row-wise"):
        InternalDynamics(
            name="lorenz_per_agent",
            dim=3,
            g=lambda t, z: np.array(
                [
                    10.0 * (z[1] - z[0]),
                    -z[1] + z[0] * (28.0 - z[2]),
                    -(8.0 / 3.0) * z[2] + z[0] * z[1],
                ]
            ),
        )
    # the row-wise forms of the same generators are accepted
    row_cube = InternalDynamics(name="cube", dim=1, g=lambda t, z: z**3)
    ModelSpec(n=3, r=1, coupling=ConstantCoupling(w=1.0), internal=row_cube)


# ---------------------------------------------------------------------------
# collision-free


def collision_spec(n=2, w=1.0, c=1.0, d0=0.25, phi=1.5):
    return ModelSpec(
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


def test_collision_singularity_is_nan_in_its_flocks_rows_only():
    # agents 0 and 2 of the middle flock sit at squared distance 0.09 < d0:
    # the law is undefined there, so their dv is NaN, and no other entry of
    # that flock or of the block is; NaN inputs raise no warning
    specs = [collision_spec(n=3, c=c) for c in (0.5, 1.0, 2.0)]
    x = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 0.3], [0.0, 1.5, 3.0]])
    v = np.array([[1.0, 0.0, -1.0], [0.5, -0.5, 1.0], [0.2, 0.1, 0.0]])
    y = np.hstack([x, v])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = batch_rhs(specs)(np.zeros((3, 1)), y)
        alone = [flat_rhs(spec)(0.0, row) for spec, row in zip(specs, y)]
    assert np.isnan(alone[1]).tolist() == [False] * 3 + [True, False, True]
    assert np.array_equal(block[1], alone[1], equal_nan=True)
    for b in (0, 2):
        assert np.isfinite(alone[b]).all() and block[b].tobytes() == alone[b].tobytes()


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
        n=4,
        r=2,
        coupling=ConstantCoupling(w=0.8),
        repulsion=RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((4, 4), 1.5)),
    )
    _, dv = rhs(spec, 0.0, x, v)
    scale = max(1.0, float(np.abs(dv).max()))
    assert np.abs(dv.sum(axis=0)).max() <= 1e-9 * scale


def _modulated_collision_flock(n, r, seed=7):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(
        n=n,
        r=r,
        coupling=ModulatedCoupling(w=1.0, delta=0.6, beta=np.full((n, n), 0.8)),
        repulsion=RepulsionModel(d0=0.25, phi=1.5, coeffs=rng.uniform(0.5, 2.0, size=(n, n))),
    )
    # a jittered lattice keeps every pair clear of d0
    side = np.arange(np.ceil(n ** (1.0 / r)))
    grid = np.stack(np.meshgrid(*[side] * r, indexing="ij"), axis=-1).reshape(-1, r)
    x = 1.6 * grid[:n] + rng.uniform(-0.3, 0.3, size=(n, r))
    return spec, x, rng.normal(size=(n, r))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_collision_rhs_matches_coordinate_last_reference(r):
    spec, x, v = _modulated_collision_flock(12, r)
    # the coordinate-last einsum form of the collision term, kept as reference
    diff_x = x[:, None, :] - x[None, :, :]
    diff_v = v[:, None, :] - v[None, :, :]
    dist_sq = np.einsum("ijk,ijk->ij", diff_x, diff_x)
    off = ~np.eye(spec.n, dtype=bool)
    f = np.zeros_like(dist_sq)
    f[off] = spec.repulsion.coeffs[off] / (dist_sq[off] - spec.repulsion.d0) ** spec.repulsion.phi
    inner = np.einsum("ijk,ijk->ij", diff_x, diff_v)
    b = -f * inner / (v.max(axis=0) - v.min(axis=0)).max()
    a = weights_matrix(spec.coupling, 0.3, x) + b
    want = a @ v - a.sum(axis=1)[:, None] * v
    _, dv = rhs(spec, 0.3, x, v)
    assert np.array_equal(dv, want)


def _geometry_builds(monkeypatch, spec, x, v):
    """The shapes `pair_differences` gets and the dist_sq `weights_matrix` gets, over two RHS calls."""
    built, given = [], []
    pair_differences, weights = models.pair_differences, models.weights_matrix

    def counting_differences(y):
        built.append(np.shape(y))
        return pair_differences(y)

    def recording_weights(model, t, x, dist_sq=None):
        given.append(dist_sq)
        return weights(model, t, x, dist_sq=dist_sq)

    monkeypatch.setattr(models, "pair_differences", counting_differences)
    monkeypatch.setattr(models, "weights_matrix", recording_weights)
    for t in (0.0, 0.5):
        rhs(spec, t, x, v)
    assert len(given) == 2
    assert all(d is not None and np.array_equal(d, distance_sq_matrix(x)) for d in given)
    return built


def test_collision_rhs_builds_pair_geometry_once(monkeypatch):
    spec, x, v = _modulated_collision_flock(9, 2)
    assert _geometry_builds(monkeypatch, spec, x, v) == [(9, 2)] * 4  # x and v, once each per evaluation


@pytest.mark.parametrize("variant", ["baseline", "sync"])
def test_rhs_without_repulsion_builds_pair_geometry_once(variant, monkeypatch):
    # the weights take the squared distances the law built, as the collision law's do
    base, x, v = _modulated_collision_flock(9, 2)
    internal = zero_dynamics(2) if variant == "sync" else None
    spec = ModelSpec(n=9, r=2, coupling=base.coupling, internal=internal)
    assert spec.variant == variant
    assert _geometry_builds(monkeypatch, spec, x, v) == [(9, 2)] * 2  # x, once per evaluation


# ---------------------------------------------------------------------------
# packing and dispatch


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 2))
    v = rng.normal(size=(3, 2))
    x2, v2 = unpack(pack(x, v), 3, 2)
    assert np.array_equal(x, x2) and np.array_equal(v, v2)


def test_rhs_matches_per_variant_reference():
    # the rhs helper packs (x, v), calls flat_rhs and unpacks; check that round trip
    # against the reference written out independently of flat_rhs
    n, r = 4, 3
    base, x, v = _modulated_collision_flock(n, r, seed=8)
    for variant in models.MODEL_VARIANTS:
        spec = ModelSpec(
            n=n,
            r=r,
            coupling=base.coupling,
            internal=lorenz() if variant == "sync" else None,
            repulsion=base.repulsion if variant == "collision_free" else None,
        )
        dx, dv = rhs(spec, 1.1, x, v)
        ref_x, ref_v = unpack(_reference_rhs(spec, 1.1, x, v), n, r)
        assert dx.shape == dv.shape == (n, r)
        assert np.array_equal(dx, ref_x) and np.array_equal(dv, ref_v)


def _reference_rhs(spec, t, x, v):
    # each variant written out on its own, as the RHS was before one
    # velocity law covered all three
    w = weights_matrix(spec.coupling, t, x)
    if spec.variant == "collision_free":
        rep = spec.repulsion
        diff_x = x[:, None, :] - x[None, :, :]
        dist_sq = np.einsum("ijk,ijk->ij", diff_x, diff_x)
        off = ~np.eye(spec.n, dtype=bool)
        f = np.zeros_like(dist_sq)
        f[off] = rep.coeffs[off] / (dist_sq[off] - rep.d0) ** rep.phi
        inner = np.einsum("ijk,ijk->ij", diff_x, v[:, None, :] - v[None, :, :])
        w = w + -f * inner / max((v.max(axis=0) - v.min(axis=0)).max(), models.SPREAD_GUARD)
    dv = w @ v - w.sum(axis=1)[:, None] * v
    if spec.variant == "sync":
        drive = np.empty_like(v)
        for i in range(spec.n):
            drive[i] = spec.internal.g(t, v[i])
        dv = drive + dv
    return np.concatenate([v.ravel(), dv.ravel()])


_COUPLINGS = {
    "power_law": lambda n: PowerLawCoupling(gain=1.3, sigma=0.7, exponent=0.9),
    "modulated": lambda n: ModulatedCoupling(
        w=1.1, delta=0.8, beta=np.random.default_rng(n).uniform(0.3, 1.4, size=(n, n))
    ),
    "constant": lambda n: ConstantCoupling(w=0.6),
}
_INTERNAL = {1: logistic_cosine, 2: lambda: zero_dynamics(2), 3: lorenz}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(_COUPLINGS))
@pytest.mark.parametrize("variant", models.MODEL_VARIANTS)
def test_flat_rhs_matches_per_variant_reference(variant, family, r):
    n = 7
    spec, x, v = _modulated_collision_flock(n, r, seed=11)
    spec = ModelSpec(
        n=n,
        r=r,
        coupling=_COUPLINGS[family](n),
        internal=_INTERNAL[r]() if variant == "sync" else None,
        repulsion=spec.repulsion if variant == "collision_free" else None,
    )
    if variant == "sync":
        box = spec.internal.box
        v = np.random.default_rng(r).uniform(box[:, 0], box[:, 1], size=(n, r))
    f = flat_rhs(spec)
    for t in (0.0, 0.4, 2.5):
        got = f(t, pack(x, v))
        assert got.shape == (2 * n * r,)
        assert np.array_equal(got, _reference_rhs(spec, t, x, v))


def test_rhs_on_flock_state():
    spec = baseline_spec()
    state = FlockState(t=0.0, x=np.zeros((2, 1)), v=np.array([[0.0], [2.0]]))
    dx, dv = rhs(spec, state.t, state.x, state.v)
    assert np.array_equal(dx, state.v)
    assert np.allclose(dv, [[2.0], [-2.0]])
