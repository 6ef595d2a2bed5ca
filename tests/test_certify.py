"""Contraction arithmetic, the three certificates, rate fits, and audits."""

from __future__ import annotations

import math
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flocklab.certify as certify_mod
from flocklab.artifacts import report_value
from flocklab.certify import (
    TrajectoryAudit,
    audit_collision_run,
    audit_sync_run,
    certify_collision,
    certify_standard,
    certify_sync,
    contraction_coefficient,
    decay_rate_fit,
    resolution_floor,
)
from flocklab.coupling import (
    ConstantCoupling,
    Envelope,
    ModulatedCoupling,
    PowerLawCoupling,
    psi_integral,
    weights_matrix,
)
from flocklab.dynamics import RepulsionModel, repulsion_strength, repulsion_tail
from flocklab.integrate import Completed, IntegratorConfig, Trajectory, integrate
from flocklab.models import ModelSpec
from flocklab.scenario import evaluate_certificate, load_scenario, resolve_k_bound
from flocklab.state import FlockState, distance_sq_matrix, spread, spread_report


def bundled_text(name: str) -> str:
    return (files("flocklab") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# contraction coefficient


def test_contraction_identity_does_not_contract():
    res = contraction_coefficient(np.eye(3))
    assert res.row_sum == 1.0
    assert res.tau == 1.0


def test_contraction_uniform_matrix_collapses_spread():
    res = contraction_coefficient(np.full((2, 2), 0.5))
    assert res.tau == 0.0


def test_contraction_two_row_example():
    res = contraction_coefficient(np.array([[0.7, 0.3], [0.2, 0.8]]))
    # overlap = min(0.7, 0.2) + min(0.3, 0.8) = 0.5
    assert res.tau == pytest.approx(0.5, abs=1e-15)
    assert (res.i, res.j) == (0, 1)
    assert res.row_sum == pytest.approx(1.0)


def test_contraction_single_row_is_zero():
    assert contraction_coefficient(np.array([[2.5]])).tau == 0.0


def test_contraction_input_validation():
    with pytest.raises(ValueError):
        contraction_coefficient(np.ones((2, 3)))
    with pytest.raises(ValueError):
        contraction_coefficient(np.array([[1.0, -0.1], [0.0, 0.9]]))
    with pytest.raises(ValueError):
        contraction_coefficient(np.array([[1.0, 0.0], [0.5, 0.0]]))


@st.composite
def stochastic_like_matrix(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.floats(min_value=0.1, max_value=5.0))
    raw = draw(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    p = np.asarray(raw) + 1e-3  # keep every row sum positive
    p = m * p / p.sum(axis=1, keepdims=True)
    return p, m


@given(stochastic_like_matrix(), st.lists(st.floats(-50, 50), min_size=6, max_size=6))
@settings(max_examples=150, deadline=None)
def test_contraction_bounds_matrix_action_on_spread(pm, zs):
    p, m = pm
    n = p.shape[0]
    res = contraction_coefficient(p)
    assert -1e-12 <= res.tau <= m + 1e-12
    z = np.asarray(zs[:n])
    assert spread(p @ z) <= res.tau * spread(z) + 1e-9 * max(1.0, spread(z))


# ---------------------------------------------------------------------------
# unconditional certificate


def test_standard_zero_envelope_is_infeasible():
    env = Envelope(psi=lambda s: 0.0, w_bar=0.0, integral_fn=lambda a, b: 0.0)
    cert = certify_standard(env, spread_x0=1.0, spread_v0=0.5)
    assert not cert.feasible
    assert cert.tail == pytest.approx(0.0, abs=1e-9)


def test_standard_divergent_tail_is_always_feasible():
    model = ModulatedCoupling(w=1.0, delta=1.0, beta=np.full((2, 2), 1.0))
    cert = certify_standard(model.envelope(), spread_x0=3.0, spread_v0=1e6)
    assert cert.feasible
    assert math.isinf(cert.tail)


def test_standard_threshold_at_finite_tail():
    # envelope 1/(s+2)^2 from 0 integrates to 1/2
    model = ModulatedCoupling(w=1.0, delta=2.0, beta=np.full((2, 2), 1.0))
    env = model.envelope()
    assert certify_standard(env, 0.0, 0.4).feasible
    assert not certify_standard(env, 0.0, 0.6).feasible
    assert certify_standard(env, 0.0, 0.4).tail == pytest.approx(0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# driven (sync) certificate


def test_sync_constant_coupling_closed_form():
    # psi == 1, c = 5: budget grows at 5 - k per unit radius, so
    # d* = S(x0) + S(v0) / (5 - k) and the rate is 5 - k
    env = ConstantCoupling(w=1.0).envelope()
    cert = certify_sync(env, spread_x0=1.0, spread_v0=0.4, n=5, k_bound=0.462)
    assert cert.feasible
    assert math.isinf(cert.d_max)
    assert cert.c == 5
    assert cert.epsilon == pytest.approx(5.0 - 0.462, abs=1e-12)
    assert cert.d_star == pytest.approx(1.0 + 0.4 / 4.538, abs=1e-8)


def test_sync_relaxed_drops_connectivity_to_one():
    env = ConstantCoupling(w=1.0).envelope()
    cert = certify_sync(env, 1.0, 0.4, n=5, k_bound=0.462, relaxed=True)
    assert cert.feasible and cert.c == 1 and cert.n == 5
    assert cert.epsilon == pytest.approx(1.0 - 0.462, abs=1e-12)
    assert cert.d_star == pytest.approx(1.0 + 0.4 / 0.538, abs=1e-8)


def test_sync_dominant_penalty_is_infeasible_at_the_gate():
    env = ConstantCoupling(w=0.1).envelope()
    cert = certify_sync(env, 2.0, 0.1, n=2, k_bound=10.0)
    assert not cert.feasible
    assert cert.d_max == 2.0
    assert cert.d_star is None and cert.epsilon is None
    with pytest.raises(ValueError):
        cert.decay_bound(np.array([0.0, 1.0]))


def test_sync_exhausted_budget_is_infeasible():
    # finite tail 2 * integral = 2 * (2 + 2)^-0.5 / 0.5 ... stays below S(v0)
    model = ModulatedCoupling(w=1.0, delta=1.5, beta=np.full((3, 3), 1.0))
    cert = certify_sync(model.envelope(), 2.0, 50.0, n=2, k_bound=0.0)
    assert not cert.feasible
    assert math.isinf(cert.d_max)


def test_sync_decay_bound_evaluates_the_certified_envelope():
    env = ConstantCoupling(w=2.0).envelope()
    cert = certify_sync(env, 0.0, 1.0, n=3, k_bound=0.0)
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(cert.decay_bound(t), np.exp(-6.0 * t), rtol=1e-12)
    np.testing.assert_allclose(
        cert.decay_bound(t + 2.0, t0=2.0), np.exp(-6.0 * t), rtol=1e-12
    )


def test_sync_negative_k_is_accepted():
    env = ConstantCoupling(w=1.0).envelope()
    cert = certify_sync(env, 1.0, 0.5, n=2, k_bound=-1.0)
    assert cert.feasible
    assert cert.epsilon == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        PowerLawCoupling(gain=1.0, sigma=1.0, exponent=12.0),
        ModulatedCoupling(w=1.0, delta=25.0, beta=np.full((3, 3), 1.0)),
    ],
    ids=["power_law", "modulated"],
)
def test_sync_without_penalty_never_probes_psi_far_out(model):
    # K = 0: the budget grows for ever since psi > 0, so d_max is infinite;
    # psi itself overflows long before the old probe limit of 1e15
    env = model.envelope()
    cert = certify_sync(env, 0.5, 1e-3, n=3, k_bound=0.0)
    assert cert.d_max == math.inf
    assert cert.feasible == (3 * psi_integral(env, 0.5, math.inf) > 1e-3)  # not at delta = 25
    if cert.feasible:
        assert cert.epsilon == 3 * env.psi(cert.d_star)
        assert 3 * psi_integral(env, 0.5, cert.d_star) == pytest.approx(1e-3, rel=1e-6)


@st.composite
def sync_problem(draw):
    w = draw(st.floats(min_value=0.5, max_value=20.0))
    delta = draw(st.floats(min_value=1.2, max_value=2.5))
    sx0 = draw(st.floats(min_value=0.0, max_value=3.0))
    sv0 = draw(st.floats(min_value=1e-3, max_value=5.0))
    frac = draw(st.floats(min_value=0.0, max_value=0.9))
    n = draw(st.integers(min_value=2, max_value=8))
    model = ModulatedCoupling(w=w, delta=delta, beta=np.full((n, n), 1.0))
    env = model.envelope()
    k = frac * n * env.psi(sx0 + 1.0)
    return env, sx0, sv0, n, k


@given(sync_problem())
@settings(max_examples=120, deadline=None)
def test_sync_budget_root_matches_initial_velocity_spread(problem):
    env, sx0, sv0, n, k = problem
    cert = certify_sync(env, sx0, sv0, n, k)
    if not cert.feasible:
        return
    assert sx0 < cert.d_star <= cert.d_max + 1e-9
    assert cert.epsilon > 0.0
    budget = cert.c * psi_integral(env, sx0, cert.d_star) - k * (cert.d_star - sx0)
    assert budget == pytest.approx(sv0, abs=1e-6 * max(1.0, sv0))


@given(sync_problem(), st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=80, deadline=None)
def test_sync_feasibility_is_monotone_in_the_penalty(problem, factor):
    env, sx0, sv0, n, k = problem
    low = certify_sync(env, sx0, sv0, n, k)
    high = certify_sync(env, sx0, sv0, n, k * factor + 1e-6)
    if high.feasible:
        assert low.feasible
        assert low.epsilon >= high.epsilon - 1e-12


@given(sync_problem())
@settings(max_examples=80, deadline=None)
def test_sync_feasibility_is_monotone_in_initial_disorder(problem):
    env, sx0, sv0, n, k = problem
    big = certify_sync(env, sx0, sv0, n, k)
    small = certify_sync(env, sx0, 0.5 * sv0, n, k)
    if big.feasible:
        assert small.feasible
        assert small.d_star <= big.d_star + 1e-9


# ---------------------------------------------------------------------------
# collision-avoidance certificate


def _rep(c: float, d0: float = 0.25, phi: float = 1.5, n: int = 2) -> RepulsionModel:
    return RepulsionModel(d0=d0, phi=phi, coeffs=np.full((n, n), c))


def test_collision_requires_initial_separation():
    x0 = np.array([[0.0], [0.0], [3.0]])
    model = ModulatedCoupling(w=1.0, delta=2.0, beta=np.full((3, 3), 1.0))
    cert = certify_collision(model.envelope(), _rep(1.0, n=3), x0, 1.0, 3)
    assert not cert.feasible
    assert not cert.separation_ok
    assert cert.min_dist_sq == 0.0
    assert math.isinf(cert.repulsion_term)


def test_collision_budget_arithmetic():
    # lattice 0..4: S(x0) = 4, nearest squared separation 1
    x0 = np.arange(5.0)[:, None]
    model = ModulatedCoupling(w=1.0, delta=2.0, beta=np.full((5, 5), 1.0))
    cert = certify_collision(model.envelope(), _rep(2.0, n=5), x0, 6.0, 5)
    assert cert.separation_ok
    assert cert.min_dist_sq == 1.0
    assert cert.lhs == pytest.approx(6.0 / 5.0, abs=1e-15)
    # half of 1/(4+2) for the envelope, 2 (1 - 1/4)^-1/2 / (1/2) for the tail
    assert cert.psi_term == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert cert.repulsion_term == pytest.approx(4.0 / math.sqrt(0.75), rel=1e-12)
    assert not cert.feasible


def test_collision_divergent_envelope_wins():
    x0 = np.array([[0.0], [1.0]])
    model = ModulatedCoupling(w=1.0, delta=1.0, beta=np.full((2, 2), 1.0))
    cert = certify_collision(model.envelope(), _rep(5.0), x0, 100.0, 2)
    assert cert.feasible
    assert math.isinf(cert.psi_term)


def test_collision_feasible_with_weak_repulsion():
    x0 = np.array([[0.0], [1.0]])
    model = ModulatedCoupling(w=10.0, delta=1.5, beta=np.full((2, 2), 1.0))
    cert = certify_collision(model.envelope(), _rep(1e-8, d0=0.01), x0, 2.0, 2)
    assert cert.feasible
    assert cert.lhs == pytest.approx(1.0)
    assert cert.psi_term == pytest.approx(10.0 / math.sqrt(3.0), rel=1e-12)


def test_collision_repulsion_term_is_the_worst_pair_tail():
    # coefficients are larger below the diagonal, so a loop over only the
    # pairs i < j misses the worst tail
    n = 7
    rng = np.random.default_rng(11)
    x0 = rng.uniform(-3.0, 3.0, size=(n, 2))
    coeffs = rng.uniform(0.5, 1.0, size=(n, n)) * np.where(np.tri(n, k=-1, dtype=bool), 4.0, 1.0)
    rep = RepulsionModel(d0=0.01, phi=1.7, coeffs=coeffs)
    cert = certify_collision(ConstantCoupling(w=1.0).envelope(), rep, x0, 1.0, n)
    assert cert.separation_ok
    d2 = distance_sq_matrix(x0)
    tails = {
        (i, j): repulsion_tail(rep, float(d2[i, j]), i, j)
        for i in range(n)
        for j in range(n)
        if i != j
    }
    want = max(tails.values())
    assert want > max(tail for (i, j), tail in tails.items() if i < j)
    assert abs(cert.repulsion_term - want) <= math.ulp(want)


def test_collision_certificate_builds_pair_geometry_once(monkeypatch):
    x0 = np.random.default_rng(12).uniform(-3.0, 3.0, size=(6, 2))
    rep = RepulsionModel(d0=0.01, phi=1.7, coeffs=np.full((6, 6), 0.8))
    env = ConstantCoupling(w=1.0).envelope()
    want = certify_collision(env, rep, x0, 1.0, 6)
    calls = []
    build = certify_mod.distance_sq_matrix
    monkeypatch.setattr(certify_mod, "distance_sq_matrix", lambda x: calls.append(1) or build(x))
    cert = certify_collision(env, rep, x0, 1.0, 6)
    assert calls == [1]
    assert cert.min_dist_sq == float(np.min(distance_sq_matrix(x0)[~np.eye(6, dtype=bool)]))
    assert cert.repulsion_term == want.repulsion_term and cert.feasible == want.feasible


# ---------------------------------------------------------------------------
# observed decay rates


def _hand_trajectory(ts: np.ndarray, sv: np.ndarray) -> Trajectory:
    k = len(ts)
    vs = np.zeros((k, 2, 1))
    vs[:, 1, 0] = sv
    return Trajectory(
        ts=ts,
        xs=np.zeros((k, 2, 1)),
        vs=vs,
        termination=Completed(),
        n_accepted=k - 1,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=float(ts[-1]), sample_dt=float(ts[1] - ts[0])),
    )


def test_decay_rate_fit_recovers_exact_exponential():
    ts = np.linspace(0.0, 3.0, 61)
    traj = _hand_trajectory(ts, np.exp(-2.0 * ts))
    assert decay_rate_fit(traj) == pytest.approx(2.0, abs=1e-9)
    assert decay_rate_fit(traj, t_lo=1.0, t_hi=2.5) == pytest.approx(2.0, abs=1e-9)


def test_decay_rate_fit_flat_series_is_zero():
    ts = np.linspace(0.0, 3.0, 31)
    traj = _hand_trajectory(ts, np.ones_like(ts))
    assert decay_rate_fit(traj) == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_fit_of_a_constant_spread_is_positive_zero():
    # the fitted slope is 0.0, and its negation must not reach sweep.csv as -0
    ts = np.linspace(0.0, 1.0, 11)
    rate = decay_rate_fit(_hand_trajectory(ts, np.ones_like(ts)))
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0
    assert report_value(rate) == "0"


def test_decay_rate_fit_needs_resolvable_samples():
    ts = np.linspace(0.0, 3.0, 31)
    traj = _hand_trajectory(ts, np.full_like(ts, 1e-12))
    assert (traj.spread_v <= resolution_floor(traj)).all()
    with pytest.raises(ValueError, match="resolvable"):
        decay_rate_fit(traj)


@pytest.fixture(scope="module")
def delta09_run():
    sc = load_scenario(bundled_text("example1_delta09"))
    traj = integrate(sc.model_spec(), sc.initial_state(), sc.integrator)
    return sc, traj


def test_observed_rate_beats_certified_rate(delta09_run):
    # late samples sit below the resolution floor, so fit an early window
    sc, traj = delta09_run
    cert = evaluate_certificate(sc)
    assert cert.feasible
    observed = decay_rate_fit(traj, t_lo=1.0, t_hi=6.0)
    assert observed >= cert.epsilon


# ---------------------------------------------------------------------------
# trajectory audits


@pytest.fixture(scope="module")
def baseline_run():
    spec = ModelSpec(variant="baseline", n=4, r=2, coupling=ConstantCoupling(w=0.6))
    rng = np.random.default_rng(9)
    state = FlockState(t=0.0, x=rng.normal(size=(4, 2)), v=rng.normal(size=(4, 2)))
    traj = integrate(spec, state, IntegratorConfig(t_end=4.0, sample_dt=0.02))
    return spec, traj


def test_audit_clean_on_baseline_alignment(baseline_run):
    spec, traj = baseline_run
    audit = audit_sync_run(traj, spec.coupling.envelope(), spec.n, k_bound=0.0)
    assert audit.n_violations == 0
    assert audit.first_violation_t is None
    assert audit.n_checked > 0
    assert audit.worst_margin <= 0.0


def test_audit_clean_on_driven_run(delta09_run):
    sc, traj = delta09_run
    k, _ = resolve_k_bound(sc)
    audit = audit_sync_run(traj, sc.coupling.envelope(), sc.n, k)
    assert audit.n_violations == 0
    assert audit.n_checked > 0
    assert audit.n_checked + audit.n_skipped == audit.n_samples - 1


def test_audit_flags_understated_penalty():
    sc = load_scenario(bundled_text("negative_control"))
    traj = integrate(sc.model_spec(), sc.initial_state(), sc.integrator)
    k, _ = resolve_k_bound(sc)
    clean = audit_sync_run(traj, sc.coupling.envelope(), sc.n, k)
    assert clean.n_violations == 0
    tampered = audit_sync_run(traj, sc.coupling.envelope(), sc.n, k / 10.0)
    assert tampered.n_violations > 0
    assert tampered.worst_margin > 0.0
    assert tampered.first_violation_t is not None


def test_audit_clean_on_collision_run():
    sc = load_scenario(bundled_text("example3_strong"))
    traj = integrate(sc.model_spec(), sc.initial_state(), sc.integrator)
    audit = audit_collision_run(traj, sc.coupling, sc.repulsion)
    assert audit.n_violations == 0
    assert audit.n_checked > 0


def test_audit_pair_form_reduces_without_repulsion(baseline_run):
    spec, traj = baseline_run
    audit = audit_collision_run(traj, spec.coupling, None)
    assert audit.n_violations == 0
    assert audit.n_checked > 0


def test_collision_audit_evaluates_weights_only_where_it_checks(monkeypatch):
    sc = load_scenario(bundled_text("example3_strong"))
    traj = integrate(sc.model_spec(), sc.initial_state(), sc.integrator)
    below = traj.spread_v <= resolution_floor(traj)
    steps = np.flatnonzero(~below[:-1] & ~below[1:])
    needed = np.union1d(steps, steps + 1)
    assert below[-1] and 0 < len(needed) < len(traj.ts)

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return weights_matrix(*args, **kwargs)

    monkeypatch.setattr(certify_mod, "weights_matrix", counting)
    audit = audit_collision_run(traj, sc.coupling, sc.repulsion)
    assert audit.n_checked == len(steps)
    assert len(calls) == len(needed)


def _loop_audit(traj: Trajectory, bound_rate, forcing=None) -> TrajectoryAudit:
    """The audit as one Python loop over every sample (reference)."""
    ts, sv = traj.ts, traj.spread_v
    floor = resolution_floor(traj)
    rtol, atol = traj.cfg.rtol, traj.cfg.atol
    rates = np.array([bound_rate(k) for k in range(len(ts))])
    force = np.zeros(len(ts)) if forcing is None else np.array([forcing(k) for k in range(len(ts))])
    n_checked = n_skipped = n_violations = 0
    worst = -math.inf
    first_t = None
    for k in range(len(ts) - 1):
        h = ts[k + 1] - ts[k]
        if h <= 0:
            continue
        if sv[k] <= floor[k] or sv[k + 1] <= floor[k + 1]:
            n_skipped += 1
            continue
        fd = (sv[k + 1] - sv[k]) / h
        b = max(rates[k], rates[k + 1])
        rhs = sv[k] * math.expm1(b * h) / h - min(force[k], force[k + 1])
        margin = fd - rhs - 10.0 * (rtol * sv[k] + atol) / h
        n_checked += 1
        worst = max(worst, margin)
        if margin > 0.0:
            n_violations += 1
            if first_t is None:
                first_t = float(ts[k])
    return TrajectoryAudit(
        n_samples=len(ts),
        n_checked=n_checked,
        n_skipped=n_skipped,
        n_violations=n_violations,
        worst_margin=worst if n_checked else 0.0,
        first_violation_t=first_t,
    )


def _loop_pair_terms(traj: Trajectory, coupling, rep: RepulsionModel, k: int):
    """rho and Gamma at sample k, one pair at a time (reference)."""
    x, v = traj.xs[k], traj.vs[k]
    rail = spread_report(v)
    i, ip = rail.i, rail.j
    w = weights_matrix(coupling, float(traj.ts[k]), x)
    others = [j for j in range(x.shape[0]) if j != i and j != ip]
    rho = w[i, ip] + w[ip, i] + sum(min(w[i, j], w[ip, j]) for j in others)

    def dtail(a: int, b: int) -> float:
        d2 = float(np.dot(x[a] - x[b], x[a] - x[b]))
        inner = float(np.dot(x[a] - x[b], v[a] - v[b]))
        return -2.0 * repulsion_strength(rep, d2, a, b) * inner

    gamma = 0.5 * (
        dtail(i, ip) + dtail(ip, i) + sum(min(dtail(i, j), dtail(ip, j)) for j in others)
    )
    return rho, gamma


def test_collision_audit_matches_per_sample_loop():
    rng = np.random.default_rng(17)
    n, r, k = 6, 2, 80
    ts = np.linspace(0.0, 4.0, k)
    sites = 2.0 * np.array([[a, b] for a in range(3) for b in range(2)], dtype=float)
    xs = sites + np.cumsum(rng.normal(scale=0.02, size=(k, n, r)), axis=0)
    scale = np.exp(-0.5 * ts) * rng.uniform(0.8, 1.2, size=k)
    scale[60:] = 1e-12  # below the resolution floor
    vs = rng.normal(size=(k, n, r)) * scale[:, None, None]
    traj = Trajectory(
        ts=ts,
        xs=xs,
        vs=vs,
        termination=Completed(),
        n_accepted=k - 1,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=4.0, sample_dt=float(ts[1])),
    )
    coupling = ModulatedCoupling(w=2.0, delta=1.0, beta=np.full((n, n), 1.0))
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=rng.uniform(1.0, 2.0, size=(n, n)))

    terms = [_loop_pair_terms(traj, coupling, rep, j) for j in range(k)]
    expected = _loop_audit(traj, lambda j: -terms[j][0], lambda j: terms[j][1])
    audit = audit_collision_run(traj, coupling, rep)
    assert expected.n_checked > expected.n_violations > 0
    assert expected.n_skipped > 0
    assert audit.n_samples == expected.n_samples
    assert audit.n_checked == expected.n_checked
    assert audit.n_skipped == expected.n_skipped
    assert audit.n_violations == expected.n_violations
    assert audit.first_violation_t == expected.first_violation_t
    assert audit.worst_margin == pytest.approx(expected.worst_margin, rel=1e-12)

    # the alignment audit's arithmetic is unchanged, so it matches exactly
    env = coupling.envelope()
    sync = audit_sync_run(traj, env, n, 0.5)
    assert sync == _loop_audit(traj, lambda j: 0.5 - n * env.psi(float(traj.spread_x[j])))


def test_collision_audit_rejects_checked_pair_inside_d0():
    ts = np.linspace(0.0, 1.0, 5)
    xs = np.tile(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]), (5, 1, 1))
    xs[2, 2] = [0.0, 0.4]  # squared distance 0.16 to agent 0 at a checked sample
    vs = np.tile(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), (5, 1, 1))
    traj = Trajectory(
        ts=ts,
        xs=xs,
        vs=vs,
        termination=Completed(),
        n_accepted=4,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=0.25),
    )
    coupling = ModulatedCoupling(w=1.0, delta=1.0, beta=np.full((3, 3), 1.0))
    with pytest.raises(ValueError, match="<= d0"):
        audit_collision_run(traj, coupling, _rep(1.0, n=3))
