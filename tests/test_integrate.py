"""Adaptive Bogacki-Shampine integrator: accuracy, sampling, events, underflow."""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import flocklab.integrate as integrate_module
import flocklab.state as state_module
from flocklab.coupling import ConstantCoupling, ModulatedCoupling, PowerLawCoupling
from flocklab.dynamics import RepulsionModel, logistic_cosine, logistic_cosine_solution
from flocklab.integrate import (
    BLOCK,
    FLUSH_ROWS,
    Completed,
    CollisionEvent,
    EventHit,
    IntegratorConfig,
    StepSizeUnderflow,
    Trajectory,
    _BatchDense,
    _hermite,
    _hermite_rows,
    integrate,
    integrate_flat,
)
from flocklab.models import ModelSpec, flat_rhs
from flocklab.scenario import load_scenario
from flocklab.state import PASS_BYTES, FlockState, min_pair_distance_sq, pair_dot


def test_package_attribute_names_the_integrate_module():
    # `import flocklab.integrate as m` reads the package attribute, so a
    # package-level function of the same name would be bound instead
    assert integrate_module is sys.modules["flocklab.integrate"]
    assert integrate_module.integrate is integrate


def test_integrate_reaches_each_name_the_layer_trace_patches(monkeypatch):
    # perfbench's layer trace wraps integrate_flat, flat_rhs's RHS and
    # min_pair_distance_sq where `integrate` looks them up, on this module,
    # and writes integrate_flat's step counters to JSON
    counts = dict.fromkeys(("integrate_flat", "flat_rhs", "rhs", "min_pair_distance_sq"), 0)
    results = []

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    real_flat, real_rhs = integrate_module.integrate_flat, integrate_module.flat_rhs

    def kept_flat(*args):
        results.append(real_flat(*args))
        return results[-1]

    monkeypatch.setattr(integrate_module, "integrate_flat", counting("integrate_flat", kept_flat))
    monkeypatch.setattr(integrate_module, "flat_rhs",
                        counting("flat_rhs", lambda spec: counting("rhs", real_rhs(spec))))
    monkeypatch.setattr(integrate_module, "min_pair_distance_sq",
                        counting("min_pair_distance_sq", min_pair_distance_sq))
    sc = load_scenario((files("flocklab") / "scenarios" / "example3_strong.json").read_text())
    traj = integrate(sc.spec, sc.state0, sc.integrator)
    attempts = traj.n_accepted + traj.n_rejected
    assert counts["integrate_flat"] == counts["flat_rhs"] == 1
    assert counts["rhs"] == 1 + 3 * attempts
    # the start check, at least one scan point per accepted step
    assert counts["min_pair_distance_sq"] > traj.n_accepted > 0
    n_accepted, n_rejected = results[0][3:]
    assert type(n_accepted) is int and type(n_rejected) is int
    assert json.loads(json.dumps([n_accepted, n_rejected])) == [traj.n_accepted, traj.n_rejected]


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


def test_endpoint_reached_when_fixed_step_accumulates_rounding(monkeypatch):
    # 100 steps of h=0.2 sum to slightly under 20.0 in floats; the run must
    # still complete and fill the final sample rather than report underflow.
    # The samples are rebuilt step by step from the run's own RHS calls.  It
    # starts where no other run in this module does, so a freed buffer
    # holding another run's samples cannot stand in for unfilled ones.
    calls = []

    def recording_rhs(spec):
        f = flat_rhs(spec)

        def rec(t, y):
            out = f(t, y)
            calls.append((t, y, out))
            return out

        return rec

    monkeypatch.setattr(integrate_module, "flat_rhs", recording_rhs)
    spec, state = _single_agent_sync(1.35)
    cfg = _fixed_step_cfg(20.0, 0.2, 0.5)
    traj = integrate(spec, state, cfg)
    assert isinstance(traj.termination, Completed)
    assert len(traj.ts) == 41
    assert traj.ts[-1] == 20.0
    want, _ = _per_step_reference(calls, traj.ts, cfg, traj.n_accepted)
    assert len(want) == 40  # t = 20.0 lies past the steps' accumulated end
    want.append(calls[-1][1])  # so it takes the final state
    np.testing.assert_array_equal(traj.vs[:, 0, 0], np.array(want)[:, 1])
    np.testing.assert_array_equal(traj.xs[:, 0, 0], np.array(want)[:, 0])


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
    # the samples of the accepted steps, not leftover buffer memory
    np.testing.assert_allclose(samples[:, 0], np.exp(-grid), rtol=1e-5)


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


def test_trajectory_folds_are_computed_on_first_read(monkeypatch):
    # a sweep reads only spread_v; the pair-distance fold must not run for it
    calls = []
    real = integrate_module.pair_distances_sq
    monkeypatch.setattr(integrate_module, "pair_distances_sq", lambda xs: calls.append(1) or real(xs))
    rng = np.random.default_rng(4)
    xs, vs = rng.normal(size=(2, 5, 3, 2))
    traj = Trajectory(
        ts=np.linspace(0.0, 1.0, 5),
        xs=xs,
        vs=vs,
        termination=Completed(),
        n_accepted=4,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=0.25),
    )
    assert traj.spread_v is traj.spread_v
    assert calls == []
    np.testing.assert_array_equal(traj.spread_v, (vs.max(axis=1) - vs.min(axis=1)).max(axis=1))
    np.testing.assert_array_equal(traj.spread_x, (xs.max(axis=1) - xs.min(axis=1)).max(axis=1))
    assert calls == []
    assert traj.min_dist_sq is traj.min_dist_sq
    assert len(calls) == 1  # one pass over the samples


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


def _whole_fold(xs: np.ndarray) -> np.ndarray:
    """min_dist_sq as one fold over every sample: one agent row at a time over an (r, k, n) copy."""
    out = np.full(len(xs), np.inf)
    xt = np.ascontiguousarray(xs.transpose(2, 0, 1))
    for i in range(xs.shape[1] - 1):
        diff = xt[:, :, i : i + 1] - xt[:, :, i + 1 :]
        np.minimum(out, pair_dot(diff, diff).min(axis=1), out=out)
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_min_dist_sq_in_chunks_equals_the_whole_fold_bit_for_bit(monkeypatch, r):
    # a budget of 4 KiB cuts the 50 samples of 7 agents into chunks of 5 to 9
    monkeypatch.setattr(state_module, "PASS_BYTES", 4096)
    xs = np.random.default_rng(r).normal(size=(50, 7, r)) * math.pi
    xs[3, 2, 0] = np.nan
    xs[10] = 0.0  # every pair collapsed
    xs[20, 1] = xs[20, 4]  # one pair collapsed, and ties between the others
    xs[30, :, 0] = -xs[30, :, 0]
    traj = Trajectory(
        ts=np.linspace(0.0, 1.0, 50),
        xs=xs,
        vs=np.zeros_like(xs),
        termination=Completed(),
        n_accepted=49,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=1.0 / 49),
    )
    assert traj.min_dist_sq.tobytes() == _whole_fold(xs).tobytes()
    assert np.isnan(traj.min_dist_sq[3]) and traj.min_dist_sq[10] == 0.0


# ---------------------------------------------------------------------------
# dense output: one Hermite evaluation per step


def _hermite_per_theta(y0, f0, y1, f1, h, a):
    # the scalar formula, one theta at a time, kept as the reference
    h00 = (1.0 + 2.0 * a) * (1.0 - a) ** 2
    h10 = a * (1.0 - a) ** 2
    h01 = a * a * (3.0 - 2.0 * a)
    h11 = a * a * (a - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


@st.composite
def _hermite_step(draw):
    size = draw(st.integers(1, 12))
    vecs = [
        draw(arrays(float, size, elements=st.floats(-1e3, 1e3, allow_nan=False)))
        for _ in range(4)
    ]
    h = draw(st.floats(1e-6, 10.0))
    # a step from t spanning several grid samples (h > sample_dt), thetas
    # formed and clamped as integrate_flat forms them
    dt = h / draw(st.floats(1.0, 40.0, exclude_min=True))
    t = dt * draw(st.integers(0, 1000)) + draw(st.floats(0.0, 1.0)) * dt
    grid = [dt * k for k in range(math.ceil(t / dt), math.floor((t + h) / dt) + 2)]
    thetas = [min(max((g - t) / h, 0.0), 1.0) for g in grid]
    thetas += [0.0, 1.0]  # both clamps
    thetas += draw(st.lists(st.floats(0.0, 1.0), max_size=5))
    return (*vecs, h, thetas)


@given(_hermite_step())
def test_block_hermite_matches_per_theta_evaluation(step):
    y0, f0, y1, f1, h, thetas = step
    basis = np.array([y0, f0, y1, f1])[:, None]
    block = _hermite_rows(basis, np.array(thetas), np.full(len(thetas), h))
    assert block.shape == (len(thetas), y0.size)
    for row, theta in zip(block, thetas):
        want = _hermite_per_theta(y0, f0, y1, f1, h, theta)
        np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(_hermite(y0, f0, y1, f1, h, theta), want)


def _push_one_step(dense, t, h, y0, f0, y1, f1):
    """Record one accepted step of member 0, as a block row of one."""
    dense.push(np.array([0]), np.array([True]), np.array([t]), np.array([h]),
               y0[None], f0[None], y1[None], f1[None])


def test_block_hermite_squares_like_the_scalar_formula(monkeypatch):
    # an array square and libm's pow(x, 2) differ in about one of 1000
    # thetas; 8192 of them make sure the scalar weights, the block weights
    # and a block flush of the dense output all take the square through pow
    rng = np.random.default_rng(3)
    y0, f0, y1, f1 = rng.normal(size=(4, 3))
    thetas = rng.uniform(0.0, 1.0, 8192).tolist()
    want = np.array([_hermite_per_theta(y0, f0, y1, f1, 0.7, theta) for theta in thetas])
    basis = np.array([y0, f0, y1, f1])[:, None]
    block = _hermite_rows(basis, np.array(thetas), np.full(8192, 0.7))
    np.testing.assert_array_equal(block, want)
    scalar = [_hermite(y0, f0, y1, f1, 0.7, theta) for theta in thetas]
    np.testing.assert_array_equal(np.array(scalar), want)

    # one accepted step of a lone run from t = 0 over h = 0.7, its samples filled in a flush
    grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.7, 8192))])
    dense = _BatchDense(grid, y0[None], f0[None])
    _push_one_step(dense, 0.0, 0.7, y0, f0, y1, f1)
    passes = []

    def spy(basis, theta, h):
        passes.append(len(theta))
        return _hermite_rows(basis, theta, h)

    monkeypatch.setattr(integrate_module, "_hermite_rows", spy)
    dense.flush()
    # the flush fills the step's 8192 samples in passes of at most FLUSH_ROWS
    assert max(passes) == FLUSH_ROWS and sum(passes) == 8192
    thetas = [min(max(g / 0.7, 0.0), 1.0) for g in grid[1:]]
    want = [_hermite_per_theta(y0, f0, y1, f1, 0.7, theta) for theta in thetas]
    np.testing.assert_array_equal(dense.samples[0, 1:], np.array(want))


def test_one_run_fill_stays_within_a_few_mebibytes_of_its_samples():
    # 10,001 samples of an n = 50, r = 2 flock are 15.3 MiB; 80-odd steps
    # reach about 125 samples each, and a flush of 64 of them in one Hermite
    # pass would gather 4 + 5 states per sample, about 100 MiB more
    rng = np.random.default_rng(0)
    n, r = 50, 2
    spec = ModelSpec(
        variant="baseline", n=n, r=r, coupling=PowerLawCoupling(gain=1.0, sigma=1.0, exponent=0.5)
    )
    state = FlockState(t=0.0, x=rng.uniform(-3.0, 3.0, (n, r)), v=rng.uniform(-1.0, 1.0, (n, r)))
    cfg = IntegratorConfig(t_end=2.0, sample_dt=2e-4)
    tracemalloc.start()
    try:
        traj = integrate(spec, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = len(traj.ts) * 2 * n * r * 8
    assert len(traj.ts) == 10_001 and isinstance(traj.termination, Completed)
    assert peak - samples < 10 * 2**20


def test_each_hermite_pass_of_a_large_state_fits_the_pass_budget(monkeypatch):
    # at n = 400, r = 3 a state is 2400 floats, and FLUSH_ROWS = 512 samples
    # in one pass would hold 9 * 512 of them: 88 MB
    rng = np.random.default_rng(6)
    y0, f0, y1, f1 = rng.normal(size=(4, 2400))
    grid = np.linspace(0.0, 0.7, 600)
    dense = _BatchDense(grid, y0[None], f0[None])
    _push_one_step(dense, 0.0, 0.7, y0, f0, y1, f1)
    passes = []

    def spy(basis, theta, h):
        passes.append(len(theta))
        return _hermite_rows(basis, theta, h)

    monkeypatch.setattr(integrate_module, "_hermite_rows", spy)
    dense.flush()
    assert sum(passes) == 599 and len(passes) > 1
    assert max(passes) * 9 * 2400 * 8 <= PASS_BYTES
    for i in range(1, 600, 37):
        theta = min(max(grid[i] / 0.7, 0.0), 1.0)
        assert dense.samples[0, i].tobytes() == _hermite(y0, f0, y1, f1, 0.7, theta).tobytes()


_LINEAR = np.array([[-0.3, 1.0, 0.0, 0.2], [-1.0, -0.3, 0.1, 0.0],
                    [0.0, 0.4, -0.2, 1.5], [0.3, 0.0, -1.5, -0.2]])
_Y0 = np.array([1.0, -0.5, 0.25, 2.0])


def _recording_rhs(calls, nan_after=None):
    # a forced linear system; every call is kept as (t, y, f(t, y)), and
    # from call `nan_after` on every slope is NaN, so every step is rejected
    def f(t, y):
        out = _LINEAR @ y + math.sin(t)
        if nan_after is not None and len(calls) >= nan_after:
            out = np.full_like(y, np.nan)
        calls.append((t, y, out))
        return out

    return f


def _per_step_reference(calls, ts, cfg, n_acc):
    """The samples of fixed steps at h_max, interpolated one step at a time.

    Every step is accepted, so step m's end is the k4 call f(t + h, y_new),
    calls[3 m].  Returns the samples the first n_acc steps reach and how
    many of their thetas were clamped down to 1.
    """
    t, y, k1 = calls[0]
    want, k, clamped = [y], 1, 0
    for t_new, y_new, k4 in calls[3 : 3 * n_acc + 1 : 3]:
        h = min(cfg.h_max, cfg.t_end - t)
        while k < len(ts) and ts[k] <= t_new + 1e-15 * cfg.t_end:
            theta = (ts[k] - t) / h
            clamped += theta > 1.0
            want.append(_hermite_per_theta(y, k1, y_new, k4, h, min(max(theta, 0.0), 1.0)))
            k += 1
        t, y, k1 = t_new, y_new, k4
    return want, clamped


def _fixed_step_cfg(t_end, h_max, sample_dt):
    return IntegratorConfig(
        t_end=t_end, sample_dt=sample_dt, rtol=1e9, atol=1e9, h_init=h_max, h_max=h_max
    )


@pytest.mark.parametrize(
    "h_max, sample_dt, t_end",
    [
        pytest.param(0.037, 0.01, 1.0, id="0.037-0.01"),
        pytest.param(0.1, 0.1, 1.0, id="0.1-0.1"),
        pytest.param(0.037, 0.01, 10.0, id="0.037-0.01-several-blocks"),
        pytest.param(0.003, 0.01, 1.0, id="0.003-0.01-short-steps"),
        pytest.param(0.001, 0.5, 1.0, id="0.001-0.5-flushes-reach-no-sample"),
    ],
)
def test_long_steps_fill_their_samples_bit_for_bit(h_max, sample_dt, t_end):
    # every step is accepted at h_max, so the accepted steps can be rebuilt
    # from the k4 calls f(t + h, y_new).  At h_max = 3.7 sample steps each
    # step fills several samples; at h_max = sample_dt the accumulated t
    # falls just short of some grid times, whose theta is clamped to 1.
    # Over t_end = 10 the 271 steps fill four whole blocks and part of a fifth.
    # At h_max = 0.3 sample steps most steps reach no sample, so a step that
    # reaches one starts where steps that reached none ended.  At h_max =
    # 0.002 sample steps the 1,000 steps fill 15 whole blocks, and the
    # flushes of all but two reach no sample.
    calls = []
    cfg = _fixed_step_cfg(t_end, h_max, sample_dt)
    ts, ys, term, n_acc, n_rej = integrate_flat(_recording_rhs(calls), _Y0, cfg)
    assert isinstance(term, Completed) and n_rej == 0
    assert n_acc == len(calls[3::3])
    assert t_end < 5 or n_acc > 4 * BLOCK and n_acc % BLOCK

    want, clamped = _per_step_reference(calls, ts, cfg, n_acc)
    want += [calls[-1][1]] * (len(ts) - len(want))  # grid tail within rounding of t_end
    assert clamped > 0 or h_max != sample_dt
    np.testing.assert_array_equal(ys, np.array(want))


def test_underflow_mid_block_returns_the_per_step_samples():
    # 150 fixed steps are accepted (two whole blocks and 22 steps of the
    # third), then every slope is NaN and the step shrinks to the floor.
    # The early-end tests start where no other test does, so a freed
    # buffer holding another run's samples cannot stand in for unfilled ones.
    calls = []
    cfg = _fixed_step_cfg(10.0, 0.037, 0.01)
    f = _recording_rhs(calls, 1 + 3 * 150)
    ts, ys, term, n_acc, n_rej = integrate_flat(f, _Y0[::-1], cfg)
    assert isinstance(term, StepSizeUnderflow)
    assert n_acc == 150 and n_acc % BLOCK and n_rej > 0
    want, _ = _per_step_reference(calls, ts, cfg, n_acc)
    assert len(want) == len(ts) > 500
    np.testing.assert_array_equal(ys, np.array(want))


def test_event_hit_mid_block_returns_the_per_step_samples():
    # the event fires in step 117 (t = 4.3 / 0.037), inside the second block;
    # the run keeps the samples up to the located time
    calls = []
    cfg = _fixed_step_cfg(10.0, 0.037, 0.01)
    ts, ys, term, n_acc, n_rej = integrate_flat(
        _recording_rhs(calls), -_Y0, cfg, event=lambda t, y: 4.3 - t
    )
    assert isinstance(term, EventHit)
    assert term.t_star == pytest.approx(4.3, abs=1e-6)
    assert n_acc == 117 and n_acc % BLOCK and n_rej == 0
    want, _ = _per_step_reference(calls, ts, cfg, n_acc)
    assert len(ts) == 431 and ts[-1] <= term.t_star < ts[-1] + cfg.sample_dt
    np.testing.assert_array_equal(ys, np.array(want[: len(ts)]))
