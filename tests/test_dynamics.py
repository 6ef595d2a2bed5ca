from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from flocklab.coupling import ConstantCoupling
from flocklab.dynamics import (
    DEFAULT_T_GRID,
    InternalDynamics,
    RepulsionModel,
    _row_penalties,
    k_region,
    logistic_cosine,
    logistic_cosine_envelope_bound,
    logistic_cosine_solution,
    lorenz,
    repulsion_strength,
    repulsion_tail,
    zero_dynamics,
)
from flocklab.integrate import IntegratorConfig, integrate
from flocklab.models import ModelSpec
from flocklab.state import FlockState

LORENZ_K = 24.5 + 17.5 - 8.0 / 3.0  # worst row of the corner maximum
_LORENZ_BOX_ROWS = [[-17.0, 17.5], [-22.0, 24.5], [7.0, 45.0]]


# ---------------------------------------------------------------------------
# built-in generators


def test_zero_dynamics_is_zero():
    dyn = zero_dynamics(3)
    assert np.all(dyn.g(1.7, np.array([1.0, -2.0, 0.5])) == 0.0)
    assert np.all(dyn.eval_jacobian(0.0, np.zeros(3)) == 0.0)


@given(
    st.sampled_from(["lorenz", "logistic_cosine", "zero1", "zero2", "zero3"]),
    st.integers(1, 8),
    st.floats(-10.0, 10.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_builtin_generators_act_row_wise(name, n, t, seed):
    dyn = {
        "lorenz": lorenz,
        "logistic_cosine": logistic_cosine,
        "zero1": lambda: zero_dynamics(1),
        "zero2": lambda: zero_dynamics(2),
        "zero3": lambda: zero_dynamics(3),
    }[name]()
    z = np.random.default_rng(seed).uniform(-20.0, 20.0, size=(n, dyn.dim))
    whole = dyn.g(t, z)
    assert whole.shape == (n, dyn.dim)
    assert np.array_equal(whole, np.stack([dyn.g(t, row) for row in z]))
    jac = dyn.jacobian(t, z)
    assert jac.shape == (n, dyn.dim, dyn.dim)
    assert jac.tobytes() == np.stack([dyn.jacobian(t, row) for row in z]).tobytes()


@pytest.mark.parametrize("name", ["lorenz", "logistic_cosine", "zero"])
def test_builtin_generators_act_per_batch_member(name):
    # a (B, m, r) batch at (B, 1, 1) times: member b is the call at its own time
    dyn = lorenz() if name == "lorenz" else logistic_cosine() if name == "logistic_cosine" else zero_dynamics(2)
    rng = np.random.default_rng(5)
    z = rng.uniform(-20.0, 20.0, size=(4, 3, dyn.dim))
    t = rng.uniform(-10.0, 10.0, size=(4, 1, 1))
    for fn in (dyn.g, dyn.jacobian):
        whole = fn(t, z)
        assert whole.tobytes() == np.stack([fn(float(t[b, 0, 0]), z[b]) for b in range(4)]).tobytes()


def test_generator_of_a_float_time_only_rejected_at_construction():
    # math.cos of a (B, 1, 1) time array raises: the generator cannot step a batch
    with pytest.raises(ValueError, match="row-wise"):
        InternalDynamics(name="cos", dim=1, g=lambda t, z: math.cos(t) * z)
    InternalDynamics(name="cos", dim=1, g=lambda t, z: np.cos(t) * z)


def test_with_box_keeps_the_checked_functions(monkeypatch):
    import flocklab.dynamics as dynamics_module

    dyn = lorenz()
    probes = []
    monkeypatch.setattr(dynamics_module, "_acts_row_wise", lambda fn, r: probes.append(r) or True)
    boxed = dyn.with_box([[-1.0, 1.0]] * 3)
    assert probes == [] and boxed.g is dyn.g and boxed.jacobian is dyn.jacobian
    assert boxed.box.tolist() == [[-1.0, 1.0]] * 3 and not boxed.box.flags.writeable
    assert dyn.box.tolist() == _LORENZ_BOX_ROWS
    with pytest.raises(ValueError, match="box must be"):
        dyn.with_box([[1.0, -1.0]] * 3)


def test_per_agent_jacobian_rejected_at_construction():
    # row-wise generators with the one-agent Jacobians the builtins used to carry
    with pytest.raises(ValueError, match="row-wise"):
        InternalDynamics(
            name="cube",
            dim=1,
            g=lambda t, z: z**3,
            jacobian=lambda t, z: np.array([[3.0 * z[0] ** 2]]),
        )
    with pytest.raises(ValueError, match="row-wise"):
        dataclasses.replace(
            lorenz(),
            jacobian=lambda t, z: np.array(
                [[-10.0, 10.0, 0.0], [28.0 - z[2], -1.0, -z[0]], [z[1], z[0], -8.0 / 3.0]]
            ),
        )
    # the row-wise forms are accepted
    InternalDynamics(
        name="cube", dim=1, g=lambda t, z: z**3, jacobian=lambda t, z: (3.0 * z**2)[..., None]
    )


def test_logistic_cosine_solution_solves_the_ode():
    dyn = logistic_cosine()
    ts = np.linspace(0.0, 12.0, 25)
    z = logistic_cosine_solution(ts, 1.5)
    eps = 1e-6
    dz = (logistic_cosine_solution(ts + eps, 1.5) - logistic_cosine_solution(ts - eps, 1.5)) / (
        2.0 * eps
    )
    rhs = np.array([dyn.g(float(t), np.array([zi]))[0] for t, zi in zip(ts, z)])
    assert np.allclose(dz, rhs, atol=1e-8)
    assert logistic_cosine_solution(0.0, 1.5) == pytest.approx(1.5, abs=1e-15)


def test_logistic_cosine_solution_domain():
    with pytest.raises(ValueError):
        logistic_cosine_solution(0.0, 2.5)


def test_logistic_cosine_orbit_stays_in_box():
    z = logistic_cosine_solution(np.linspace(0.0, 50.0, 2001), 1.5)
    assert z.min() > 1.0 and z.max() < 2.0


def test_envelope_bound_closed_form():
    # max over the orbit of 2 z(t) - 3 with z0 = 1.5 is (1 - 1/e)/(1 + 1/e)
    expected = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
    got = logistic_cosine_envelope_bound(1.5)
    assert got == pytest.approx(expected, abs=1e-9)
    assert round(got, 3) == 0.462


def test_envelope_bound_equals_the_sampled_maximum_over_one_period():
    # the reference: 2 z - 3 sampled at 4,097 times over one period, a grid
    # on which t = 3 pi / 2 lies (sample 3,072)
    t = np.linspace(0.0, 2.0 * math.pi, 4097)
    rng = np.random.default_rng(5)
    for z0 in [*rng.uniform(1.0, 2.0, 500), 1.0 + 1e-9, 1.5, 2.0 - 1e-9]:
        want = float(np.max(2.0 * logistic_cosine_solution(t, z0) - 3.0))
        got = logistic_cosine_envelope_bound(z0)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), z0


def test_invalid_box_shape_rejected():
    with pytest.raises(ValueError):
        InternalDynamics(name="bad", dim=2, g=lambda t, z: z, box=np.array([[0.0, 1.0]]))


# ---------------------------------------------------------------------------
# alignment penalties


def test_row_penalties_sign_the_diagonal_and_add_off_diagonal_magnitudes():
    jac = np.array([[[-2.0, 3.0], [-1.0, 4.0]], [[0.5, -0.25], [-6.0, -1.0]]])
    assert _row_penalties(jac).tolist() == [[1.0, 5.0], [0.75, 5.0]]


def test_row_penalty_vanishes_with_the_cosine():
    dyn = logistic_cosine()
    z = np.linspace(1.0, 2.0, 9)[:, None]
    assert np.abs(_row_penalties(dyn.eval_jacobian(math.pi / 2.0, z))).max() <= 1e-12


def test_row_penalty_closed_form():
    # at t = 0 the logistic-cosine penalty is dg/dz = 2 z - 3
    dyn = logistic_cosine()
    z = np.array([[1.0], [1.5], [2.0]])
    assert _row_penalties(dyn.eval_jacobian(0.0, z))[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_k_region_zero_dynamics():
    assert k_region(zero_dynamics(2)) == 0.0


def test_k_region_logistic_cosine_exact_corner():
    # |cos t| |2z - 3| maximized at a box corner with cos t = -1
    assert k_region(logistic_cosine()) == pytest.approx(1.0, abs=1e-12)
    # exact only because cos t = +-1 at grid times: a shifted grid misses it
    assert k_region(logistic_cosine(), t_grid=DEFAULT_T_GRID + 0.01) < 1.0 - 1e-6


def test_lorenz_box_is_not_forward_invariant():
    # the lone flow v' = g(v) of one agent leaves the box from every corner
    # within the first sample step
    dyn = lorenz()
    lo, hi = dyn.box.T
    spec = ModelSpec(n=1, r=3, coupling=ConstantCoupling(w=1.0), internal=dyn)
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.01)
    for corner in itertools.product(*dyn.box):
        traj = integrate(spec, FlockState(t=0.0, x=np.zeros((1, 3)), v=np.array([corner])), cfg)
        vs = traj.vs[:, 0]
        outside = ((vs < lo) | (vs > hi)).any(axis=1)
        assert outside.any() and traj.ts[outside.argmax()] < 2.0


def test_k_region_lorenz_reference_window():
    k = k_region(lorenz())
    assert k == pytest.approx(LORENZ_K, abs=1e-9)
    assert 39.3 <= k <= 39.5


@pytest.mark.parametrize("make", [logistic_cosine, lorenz], ids=["logistic_cosine", "lorenz"])
@given(
    st.integers(0, len(DEFAULT_T_GRID) - 1),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
@settings(max_examples=50, deadline=None)
def test_k_region_dominates_the_pointwise_penalty(make, k, u):
    # every segment average of the penalty is at most its largest point value
    dyn = make()
    lo, hi = dyn.box.T
    z = lo + np.asarray(u[: dyn.dim]) * (hi - lo)
    penalty = _row_penalties(dyn.eval_jacobian(float(DEFAULT_T_GRID[k]), z)).max()
    assert k_region(dyn) >= penalty - 1e-12


def test_k_region_refuses_more_box_points_than_its_limit():
    # 2^20 corners are walked, in seconds; each dimension more doubles the time
    assert k_region(zero_dynamics(20)) == 0.0
    with pytest.raises(ValueError, match="2097152 box points"):
        k_region(zero_dynamics(21))
    # a sampled Jacobian has 9 points a side: 9^7 is over 2^20
    dyn = InternalDynamics(name="cube7", dim=7, g=lambda t, z: z**3, box=np.tile([-1.0, 1.0], (7, 1)))
    with pytest.raises(ValueError, match="4782969 box points"):
        k_region(dyn)


def test_k_region_requires_a_box():
    dyn = InternalDynamics(name="boxless", dim=1, g=lambda t, z: z)
    with pytest.raises(ValueError):
        k_region(dyn)
    with pytest.raises(ValueError):
        k_region(logistic_cosine(), box=np.zeros((2, 2)))


def test_k_region_warns_on_sampled_non_affine():
    # the maximum 3 z^2 = 3 sits at the last sample, not the first (0.75)
    dyn = InternalDynamics(
        name="cubic",
        dim=1,
        g=lambda t, z: z**3,
        jacobian=lambda t, z: (3.0 * z**2)[..., None],
        jacobian_affine=False,
        box=np.array([[-0.5, 1.0]]),
    )
    with pytest.warns(UserWarning):
        k = k_region(dyn, t_grid=np.array([0.0]))
    assert k == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("make", [lambda: zero_dynamics(10), lorenz], ids=["zero10", "lorenz"])
def test_k_region_evaluates_autonomous_dynamics_at_one_time(make):
    dyn = make()
    calls = []

    def jac(t, z):
        calls.append(t)
        return dyn.jacobian(t, z)

    counted = dataclasses.replace(dyn, jacobian=jac)
    calls.clear()  # the construction's row-wise probe
    k = k_region(counted)
    assert calls == [0.0]  # one block of at most 1024 corners, at the first time
    timed = dataclasses.replace(counted, autonomous=False)
    calls.clear()
    every_time = k_region(timed)
    assert len(calls) == 257
    assert k == every_time  # 0 for zero, criterion 4's 39.33... for lorenz
    assert k == (0.0 if dyn.name == "zero" else LORENZ_K)


def test_k_region_takes_corners_in_bounded_blocks():
    # every row of J is z, so row l's penalty is z_l + sum_{h != l} |z_h|; on
    # [-2, 1]^r the maximum 1 + 2 (r - 1) sits at the r corners with one +1
    r = 11
    sizes = []

    def jac(t, z):
        sizes.append(z.shape[:-1])
        return np.repeat(z[..., None, :], r, axis=-2)

    box = np.tile([-2.0, 1.0], (r, 1))
    dyn = InternalDynamics(
        name="rows", dim=r, g=lambda t, z: z, jacobian=jac, jacobian_affine=True, box=box
    )
    sizes.clear()  # the construction's row-wise probe
    assert k_region(dyn, t_grid=np.array([0.0, 1.0])) == 1.0 + 2.0 * (r - 1)
    assert all(len(size) == 1 and size[0] <= 1024 for size in sizes)
    assert sum(size[0] for size in sizes) == 2 * 2**r


def test_builtin_jacobians_match_finite_differences():
    rng = np.random.default_rng(11)
    for dyn in (logistic_cosine(), lorenz(), zero_dynamics(2)):
        box = dyn.box
        for _ in range(100):
            t = float(rng.uniform(0.0, 2.0 * math.pi))
            z = rng.uniform(box[:, 0], box[:, 1])
            jac = dyn.eval_jacobian(t, z)
            fd = np.empty_like(jac)
            h = 1e-6 * max(1.0, float(np.linalg.norm(z)))
            for col in range(dyn.dim):
                zp, zm = z.copy(), z.copy()
                zp[col] += h
                zm[col] -= h
                fd[:, col] = (np.asarray(dyn.g(t, zp)) - np.asarray(dyn.g(t, zm))) / (2.0 * h)
            scale = max(1.0, float(np.abs(jac).max()))
            assert np.abs(jac - fd).max() <= 1e-4 * scale


# ---------------------------------------------------------------------------
# repulsion


def test_repulsion_tail_reference_values():
    rep1 = RepulsionModel(d0=0.25, phi=2.0, coeffs=np.ones((2, 2)))
    assert repulsion_tail(rep1, 1.25, 0, 1) == pytest.approx(1.0, rel=1e-12)
    rep2 = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((2, 2), 1.5))
    assert repulsion_tail(rep2, 4.25, 0, 1) == pytest.approx(1.5, rel=1e-12)


def test_repulsion_tail_matches_quadrature():
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((2, 2), 2.0))
    expected, _ = quad(lambda s: repulsion_strength(rep, s, 0, 1), 3.0, np.inf)
    assert repulsion_tail(rep, 3.0, 0, 1) == pytest.approx(expected, rel=1e-8)


def test_repulsion_tail_vanishes_at_infinity():
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.ones((2, 2)))
    assert repulsion_tail(rep, 1e12, 0, 1) < 1e-5


@given(st.floats(0.3, 50.0), st.floats(0.01, 10.0))
def test_repulsion_tail_strictly_decreasing(s, gap):
    rep = RepulsionModel(d0=0.25, phi=1.8, coeffs=np.ones((2, 2)))
    assert repulsion_tail(rep, s, 0, 1) > repulsion_tail(rep, s + gap, 0, 1)


@given(st.floats(0.5, 20.0))
def test_tail_derivative_is_negative_strength(s):
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((2, 2), 1.3))
    h = 1e-6 * max(1.0, s)
    fd = (repulsion_tail(rep, s + h, 0, 1) - repulsion_tail(rep, s - h, 0, 1)) / (2.0 * h)
    assert fd == pytest.approx(-repulsion_strength(rep, s, 0, 1), rel=1e-5)


def test_repulsion_singular_region_errors():
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.ones((2, 2)))
    with pytest.raises(ValueError):
        repulsion_strength(rep, 0.25, 0, 1)
    with pytest.raises(ValueError):
        repulsion_tail(rep, 0.1, 0, 1)


def test_array_repulsion_names_the_first_pair_inside_d0():
    # pair (2, j) for each j; coefficients differ per pair so a wrong index shows
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.arange(1.0, 26.0).reshape(5, 5))
    j = np.array([0, 1, 3, 4])
    s = np.array([1.0, 3.5, 0.75, 2.0])
    for fn in (repulsion_strength, repulsion_tail):
        got = fn(rep, s, 2, j)
        want = [fn(rep, float(sm), 2, int(jm)) for sm, jm in zip(s, j)]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    s_in = np.array([1.0, 0.2, 0.25, 3.0])
    with pytest.raises(ValueError, match=r"^pair \(2, 1\) at squared distance 0\.2 <= d0=0\.25$"):
        repulsion_strength(rep, s_in, 2, j)
    with pytest.raises(ValueError, match=r"^tail undefined at squared distance 0\.2 <= d0=0\.25$"):
        repulsion_tail(rep, s_in, 2, j)


def test_repulsion_constructor_validation():
    with pytest.raises(ValueError):
        RepulsionModel(d0=0.0, phi=1.5, coeffs=np.ones((2, 2)))
    with pytest.raises(ValueError):
        RepulsionModel(d0=0.25, phi=1.0, coeffs=np.ones((2, 2)))
    with pytest.raises(ValueError):
        RepulsionModel(d0=0.25, phi=1.5, coeffs=np.array([[1.0, -1.0], [1.0, 1.0]]))
