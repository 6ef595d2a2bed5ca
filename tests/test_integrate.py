"""Adaptive Bogacki-Shampine integrator: accuracy, sampling, events, underflow."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from flocklab.coupling import ConstantCoupling, ModulatedCoupling
from flocklab.dynamics import RepulsionModel, logistic_cosine, logistic_cosine_solution
from flocklab.integrate import (
    Completed,
    CollisionEvent,
    EventHit,
    IntegratorConfig,
    StepSizeUnderflow,
    Trajectory,
    integrate,
    integrate_flat,
)
from flocklab.models import ModelSpec
from flocklab.state import FlockState, min_pair_distance_sq


def _single_agent_sync(v0: float) -> tuple[ModelSpec, FlockState]:
    # one agent, no neighbours: dv/dt = g(t, v) exactly
    spec = ModelSpec(
        variant="sync",
        n=1,
        r=1,
        coupling=ConstantCoupling(w=1.0),
        internal=logistic_cosine(),
    )
    state = FlockState(t=0.0, x=np.zeros((1, 1)), v=np.array([[v0]]))
    return spec, state


def test_zero_field_trajectory_is_constant():
    # a single agent has no neighbours: the velocity field is exactly zero
    spec = ModelSpec(variant="baseline", n=1, r=2, coupling=ConstantCoupling(w=0.7))
    x = np.array([[1.0, -2.0]])
    v = np.array([[0.5, 2.0]])
    state = FlockState(t=0.0, x=x, v=v)
    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.25)
    traj = integrate(spec, state, cfg)
    assert isinstance(traj.termination, Completed)
    assert traj.n_rejected == 0
    assert len(traj.ts) == math.ceil(2.0 / 0.25) + 1
    assert traj.ts[0] == 0.0
    assert traj.ts[-1] == 2.0
    for k in range(len(traj.ts)):
        # dense-output blending of identical endpoints wobbles by one ulp
        np.testing.assert_allclose(traj.vs[k], v, rtol=1e-15, atol=0)
        np.testing.assert_allclose(traj.xs[k], x + traj.ts[k] * v, rtol=0, atol=1e-12)


def test_sample_grid_row_count_formula():
    spec = ModelSpec(variant="baseline", n=2, r=1, coupling=ConstantCoupling(w=0.5))
    state = FlockState(t=0.0, x=np.array([[0.0], [1.0]]), v=np.array([[1.0], [-1.0]]))
    for span, dt in [(6.0, 0.02), (10.0, 0.01), (1.0, 0.3)]:
        cfg = IntegratorConfig(t_end=span, sample_dt=dt)
        traj = integrate(spec, state, cfg)
        assert len(traj.ts) == math.ceil(span / dt - 1e-12) + 1
        assert traj.ts[-1] == span


def test_closed_form_accuracy_at_default_tolerances():
    spec, state = _single_agent_sync(1.5)
    cfg = IntegratorConfig(t_end=20.0, sample_dt=0.1)
    traj = integrate(spec, state, cfg)
    exact = logistic_cosine_solution(traj.ts, 1.5)
    sup_err = float(np.max(np.abs(traj.vs[:, 0, 0] - exact)))
    assert sup_err <= 1e-5


def test_fixed_step_third_order_convergence():
    spec, state = _single_agent_sync(1.5)
    errs = []
    hs = [0.2, 0.1, 0.05]
    for h in hs:
        cfg = IntegratorConfig(
            t_end=20.0, sample_dt=0.5, rtol=1e9, atol=1e9, h_init=h, h_max=h
        )
        traj = integrate(spec, state, cfg)
        assert isinstance(traj.termination, Completed)
        exact = logistic_cosine_solution(traj.ts, 1.5)
        errs.append(float(np.max(np.abs(traj.vs[:, 0, 0] - exact))))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 2.9


def test_tighter_tolerances_do_not_increase_error():
    spec, state = _single_agent_sync(1.2)
    sups = []
    for rtol in (1e-4, 1e-6, 1e-8):
        cfg = IntegratorConfig(t_end=10.0, sample_dt=0.1, rtol=rtol, atol=rtol * 1e-3)
        traj = integrate(spec, state, cfg)
        exact = logistic_cosine_solution(traj.ts, 1.2)
        sups.append(float(np.max(np.abs(traj.vs[:, 0, 0] - exact))))
    assert sups[1] <= sups[0] + 1e-7
    assert sups[2] <= sups[1] + 1e-7


def test_integration_is_deterministic():
    spec = ModelSpec(
        variant="baseline",
        n=3,
        r=2,
        coupling=ModulatedCoupling(w=1.0, delta=1.0, beta=np.full((3, 3), 1.2)),
    )
    rng = np.random.default_rng(5)
    state = FlockState(t=0.0, x=rng.normal(size=(3, 2)), v=rng.normal(size=(3, 2)))
    cfg = IntegratorConfig(t_end=3.0, sample_dt=0.05)
    a = integrate(spec, state, cfg)
    b = integrate(spec, state, cfg)
    np.testing.assert_array_equal(a.ts, b.ts)
    np.testing.assert_array_equal(a.vs, b.vs)
    np.testing.assert_array_equal(a.xs, b.xs)
    assert a.n_accepted == b.n_accepted and a.n_rejected == b.n_rejected


def test_endpoint_reached_when_fixed_step_accumulates_rounding():
    # 100 steps of h=0.2 sum to slightly under 20.0 in floats; the run must
    # still complete and fill the final sample rather than report underflow
    spec, state = _single_agent_sync(1.5)
    cfg = IntegratorConfig(
        t_end=20.0, sample_dt=0.5, rtol=1e9, atol=1e9, h_init=0.2, h_max=0.2
    )
    traj = integrate(spec, state, cfg)
    assert isinstance(traj.termination, Completed)
    assert len(traj.ts) == 41
    assert traj.ts[-1] == 20.0
    assert np.all(np.isfinite(traj.vs))


def test_baseline_stays_in_initial_velocity_hull():
    # alignment is a convex combination flow: per-component min/max envelopes
    # of v shrink monotonically (up to integrator tolerance)
    spec = ModelSpec(variant="baseline", n=4, r=2, coupling=ConstantCoupling(w=0.8))
    rng = np.random.default_rng(2)
    state = FlockState(t=0.0, x=rng.normal(size=(4, 2)), v=rng.normal(size=(4, 2)))
    cfg = IntegratorConfig(t_end=5.0, sample_dt=0.05)
    traj = integrate(spec, state, cfg)
    hi = traj.vs.max(axis=1)
    lo = traj.vs.min(axis=1)
    # the hull contracts only up to integrator error at the default tolerances
    assert np.all(np.diff(hi, axis=0) <= 1e-5)
    assert np.all(np.diff(lo, axis=0) >= -1e-5)


def test_collision_event_halts_run():
    # two agents thrown at each other with negligible repulsion; an inflated
    # collision margin turns the approach into a detectable crossing
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((2, 2), 1e-9))
    spec = ModelSpec(
        variant="collision_free",
        n=2,
        r=1,
        coupling=ConstantCoupling(w=1e-9),
        repulsion=rep,
    )
    state = FlockState(
        t=0.0, x=np.array([[0.0], [3.0]]), v=np.array([[5.0], [-5.0]])
    )
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.01, collision_margin=1.0)
    traj = integrate(spec, state, cfg)
    assert isinstance(traj.termination, CollisionEvent)
    assert {traj.termination.i, traj.termination.j} == {0, 1}
    # separation hits sqrt(1.25) when 3 - 10 t = sqrt(1.25): t ~ 0.188
    assert 0.15 < traj.termination.t_star < 0.22
    assert traj.ts[-1] <= traj.termination.t_star + 1e-9
    assert np.all(traj.min_dist_sq >= 1.25 - 1e-6)


def test_collision_precondition_checked_at_start():
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.full((2, 2), 1.0))
    spec = ModelSpec(
        variant="collision_free",
        n=2,
        r=1,
        coupling=ConstantCoupling(w=1.0),
        repulsion=rep,
    )
    state = FlockState(t=0.0, x=np.array([[0.0], [1.0]]), v=np.zeros((2, 1)))
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.1, collision_margin=1.0)
    with pytest.raises(ValueError):
        integrate(spec, state, cfg)


def test_step_size_underflow_reported_with_location():
    def bad_rhs(t, y):
        if t >= 0.5:
            return np.full_like(y, np.nan)
        return -y

    cfg = IntegratorConfig(t_end=2.0, sample_dt=0.1)
    grid, samples, term, n_acc, n_rej = integrate_flat(bad_rhs, np.array([1.0]), cfg)
    assert isinstance(term, StepSizeUnderflow)
    assert abs(term.t - 0.5) < 0.1
    assert len(grid) == len(samples)
    assert grid[-1] <= term.t + 1e-12
    assert np.all(np.isfinite(samples))


def test_event_ends_flat_run_with_located_hit():
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.1)
    grid, samples, term, n_acc, n_rej = integrate_flat(
        lambda t, y: -np.ones_like(y), np.array([1.0]), cfg, event=lambda t, y: y[0] - 0.45
    )
    assert isinstance(term, EventHit)
    assert term.t_star == pytest.approx(0.55, abs=1e-6)
    assert term.y_star == pytest.approx([0.45], abs=1e-6)
    assert grid[-1] <= term.t_star and len(grid) == len(samples) == 6


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=0.0, sample_dt=0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, sample_dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, sample_dt=0.1, rtol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, sample_dt=0.1, h_init=-0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0, sample_dt=0.1, t0=0.0)


def test_trajectory_derives_summary_series():
    ts = np.array([0.0, 1.0])
    xs = np.array([[[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0], [6.0, 8.0]]])
    vs = np.array([[[1.0, 0.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])
    traj = Trajectory(
        ts=ts,
        xs=xs,
        vs=vs,
        termination=Completed(),
        n_accepted=1,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=1.0),
    )
    np.testing.assert_allclose(traj.spread_v, [1.0, 2.0])
    np.testing.assert_allclose(traj.spread_x, [4.0, 8.0])
    np.testing.assert_allclose(traj.min_dist_sq, [25.0, 100.0])
    state = traj.state_at(1)
    assert state.t == 1.0
    np.testing.assert_array_equal(state.x, xs[1])


@st.composite
def _positions(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, 3))
    return draw(arrays(float, (k, n, r), elements=st.floats(-1e3, 1e3, allow_nan=False)))


@given(_positions())
def test_trajectory_min_dist_sq_matches_per_sample_minimum(xs):
    k, n, _ = xs.shape
    traj = Trajectory(
        ts=np.arange(k, dtype=float),
        xs=xs,
        vs=np.zeros_like(xs),
        termination=Completed(),
        n_accepted=0,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=float(k), sample_dt=1.0),
    )
    expected = [min_pair_distance_sq(x)[0] if n > 1 else math.inf for x in xs]
    np.testing.assert_array_equal(traj.min_dist_sq, expected)
