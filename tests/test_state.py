from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flocklab.certify as certify_mod
from flocklab import artifacts
from flocklab.artifacts import plot_pairwise_distances
from flocklab.certify import certify_collision
from flocklab.coupling import ConstantCoupling
from flocklab.dynamics import RepulsionModel
from flocklab.integrate import Completed, IntegratorConfig, Trajectory
from flocklab.state import (
    FlockState,
    closest_pair,
    distance_sq_matrix,
    min_pair_distance_sq,
    pair_differences,
    pair_dot,
    spread,
    spread_report,
)

V0_FIVE = [1.2, 1.4, 1.1, 1.5, 1.3]


@st.composite
def agent_matrix(draw, min_n=1, max_n=6, max_r=4, scale=1e3):
    n = draw(st.integers(min_n, max_n))
    r = draw(st.integers(1, max_r))
    vals = draw(
        st.lists(
            st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
            min_size=n * r,
            max_size=n * r,
        )
    )
    return np.array(vals).reshape(n, r)


def test_spread_reference_velocities():
    assert spread(V0_FIVE) == pytest.approx(0.4, abs=1e-15)


def test_spread_identical_rows_is_zero():
    y = np.tile([2.0, -1.0, 0.5], (4, 1))
    assert spread(y) == 0.0


def test_spread_report_witnesses():
    rep = spread_report(V0_FIVE)
    assert rep.value == pytest.approx(0.4, abs=1e-15)
    assert rep.dim == 0
    assert rep.i == 3  # holds 1.5
    assert rep.j == 2  # holds 1.1
    assert rep.per_dim.shape == (1,)


def test_spread_report_tie_breaks_lexicographically():
    # both columns have spread 1; dim resolves to 0, and within the column
    # the first maximal/minimal agents win
    y = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    rep = spread_report(y)
    assert (rep.dim, rep.i, rep.j) == (0, 1, 0)


@given(agent_matrix(), st.floats(-1e3, 1e3, allow_nan=False))
def test_spread_scales_homogeneously(y, alpha):
    assert spread(alpha * y) == pytest.approx(abs(alpha) * spread(y), rel=1e-12, abs=1e-12)


@given(agent_matrix(), st.floats(-1e3, 1e3, allow_nan=False))
def test_spread_translation_invariant(y, c):
    shifted = y + c * np.ones(y.shape[1])
    assert spread(shifted) == pytest.approx(spread(y), rel=1e-9, abs=1e-9)


@given(agent_matrix())
def test_spread_matches_exhaustive_pair_scan(y):
    n, r = y.shape
    brute = max(
        abs(y[i, l] - y[j, l]) for l in range(r) for i in range(n) for j in range(n)
    )
    assert spread(y) == brute
    assert spread(y) >= 0.0


@given(agent_matrix())
def test_spread_zero_iff_rows_equal(y):
    assert (spread(y) == 0.0) == bool((y == y[0]).all())


def _distance_sq(x, i, j):
    d = x[i] - x[j]
    return float(d @ d)


@given(agent_matrix(min_n=2))
def test_min_pair_distance_matches_brute_force(x):
    n = x.shape[0]
    val, i, j = min_pair_distance_sq(x)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    brute = min(_distance_sq(x, a, b) for a, b in pairs)
    # summation order differs between the matrix and per-pair paths
    assert val == pytest.approx(brute, rel=1e-12, abs=0)
    assert i < j
    assert _distance_sq(x, i, j) == pytest.approx(val, rel=1e-12, abs=0)


def test_min_pair_distance_needs_two_agents():
    with pytest.raises(ValueError):
        min_pair_distance_sq(np.zeros((1, 3)))


def test_min_pair_distance_ties_resolve_to_smallest_pair():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])  # (0,1), (1,2), (2,3) tie at 1
    assert min_pair_distance_sq(x) == (1.0, 0, 1)
    assert min_pair_distance_sq(x[::-1]) == (1.0, 0, 1)
    x = np.array([[5.0], [0.0], [9.0], [1.0], [10.0]])  # (1,3) and (2,4) tie at 1
    assert min_pair_distance_sq(x) == (1.0, 1, 3)


def test_closest_pair_leaves_its_matrix_unchanged():
    # certify_collision reads the same matrix again for its repulsion tails
    d2 = distance_sq_matrix(np.random.default_rng(5).normal(size=(7, 2)))
    before = d2.copy()
    val, i, j = closest_pair(d2)
    assert d2.tobytes() == before.tobytes()
    iu, ju = np.triu_indices(7, k=1)
    k = int(np.argmin(d2[iu, ju]))
    assert (val, i, j) == (d2[iu[k], ju[k]], iu[k], ju[k])


@pytest.mark.parametrize("agent", [0, 2, 4])
def test_closest_pair_a_nan_pair_wins(agent):
    # as the argmin over the pairs in triu order: the first pair holding a NaN
    x = np.arange(10.0).reshape(5, 2)
    x[agent, 1] = np.nan
    val, i, j = closest_pair(distance_sq_matrix(x))
    assert np.isnan(val) and (i, j) == ((0, 1) if agent == 0 else (0, agent))


def test_closest_pair_of_infinite_distances_is_the_first_pair():
    d2 = np.full((3, 3), np.inf)  # every squared distance overflowed
    np.fill_diagonal(d2, 0.0)
    assert closest_pair(d2) == (np.inf, 0, 1)


def _einsum_pair_geometry(x, v):
    """Coordinate-last reference: (n, n, r) differences reduced by einsum."""
    dx = x[:, None, :] - x[None, :, :]
    dv = v[:, None, :] - v[None, :, :]
    return np.einsum("ijk,ijk->ij", dx, dx), np.einsum("ijk,ijk->ij", dx, dv), dx, dv


@st.composite
def pair_geometry_inputs(draw, min_r, max_r):
    n = draw(st.integers(1, 12))
    r = draw(st.integers(min_r, max_r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # coordinates of very different magnitudes make every rounding count
    scale = 10.0 ** rng.integers(-6, 7, size=r)
    x = rng.normal(size=(n, r)) * scale
    v = rng.normal(size=(n, r))
    if draw(st.booleans()):  # repeated agents and a still coordinate give exact zeros
        x[-1] = x[0]
        v[:, 0] = 0.0
    return x, v


@given(pair_geometry_inputs(1, 3))
@settings(max_examples=200, deadline=None)
def test_pair_geometry_matches_einsum_reference(xv):
    x, v = xv
    want_d2, want_inner, _, _ = _einsum_pair_geometry(x, v)
    dx = pair_differences(x)
    assert dx.shape == (x.shape[1], x.shape[0], x.shape[0])
    assert np.array_equal(distance_sq_matrix(x), want_d2)
    assert np.array_equal(pair_dot(dx, dx), want_d2)
    assert np.array_equal(pair_dot(dx, pair_differences(v)), want_inner)


@given(pair_geometry_inputs(4, 8))
@settings(max_examples=100, deadline=None)
def test_pair_geometry_near_einsum_reference_for_wide_states(xv):
    # from r = 8 einsum unrolls its loop and sums in another order
    x, v = xv
    want_d2, want_inner, dx_ref, dv_ref = _einsum_pair_geometry(x, v)
    dx = pair_differences(x)
    tol = 4 * np.finfo(float).eps
    inner_scale = np.einsum("ijk,ijk->ij", np.abs(dx_ref), np.abs(dv_ref))
    assert np.all(np.abs(distance_sq_matrix(x) - want_d2) <= tol * want_d2)
    assert np.all(np.abs(pair_dot(dx, pair_differences(v)) - want_inner) <= tol * inner_scale)


def test_distance_sq_matrix_symmetric_zero_diagonal():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    d2 = distance_sq_matrix(x)
    assert np.allclose(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)


def test_flock_state_copies_and_freezes():
    x = np.zeros((2, 1))
    v = np.ones((2, 1))
    state = FlockState(t=0.0, x=x, v=v)
    x[0, 0] = 99.0  # caller mutation must not leak in
    assert state.x[0, 0] == 0.0
    with pytest.raises(ValueError):
        state.x[0, 0] = 1.0
    assert (state.n, state.r) == (2, 1)
    assert spread(state.v) == 0.0


def test_flock_state_shape_mismatch():
    with pytest.raises(ValueError):
        FlockState(t=0.0, x=np.zeros((2, 1)), v=np.zeros((3, 1)))


def test_flock_state_rejects_non_finite():
    with pytest.raises(ValueError):
        FlockState(t=0.0, x=np.array([[np.inf]]), v=np.array([[0.0]]))


def test_flock_state_accepts_single_agent():
    state = FlockState(t=1.0, x=[[0.0]], v=[[2.0]])
    assert state.n == 1 and spread(state.x) == 0.0


# ---------------------------------------------------------------------------
# every reported pair distance is distance_sq_matrix's, bit for bit


@st.composite
def _sampled_flocks(draw):
    """(k, n, r) positions with r = 1..6 and n = 1..12, often with coincident agents and ties."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, 6))
    grid = st.integers(-2, 2).map(float)  # lattice points: coincident agents, tied distances
    real = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    xs = np.array(draw(st.lists(st.one_of(grid, real), min_size=k * n * r, max_size=k * n * r)))
    xs = xs.reshape(k, n, r)
    if n > 1 and draw(st.booleans()):
        xs[:, draw(st.integers(1, n - 1))] = xs[:, 0]
    return xs


class _RecordedPlot:
    """Stands in for SvgPlot and keeps each series by its label."""

    def __init__(self, *args, **kwargs):
        self.series = {}
        _RecordedPlot.last = self

    def add_series(self, label, xs, ys):
        self.series[label] = np.asarray(ys)

    def add_hline(self, label, y):
        pass

    def write(self, path):
        pass


def _same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=150, deadline=None)
@given(_sampled_flocks())
def test_every_reported_pair_distance_is_distance_sq_matrix_bit_for_bit(xs):
    k, n, r = xs.shape
    iu, ju = np.triu_indices(n, k=1)
    d2 = np.array([distance_sq_matrix(x) for x in xs])  # (k, n, n)
    pairs = d2[:, iu, ju]  # (k, P)
    traj = Trajectory(
        ts=np.arange(k, dtype=float),
        xs=xs,
        vs=np.random.default_rng(n * r).normal(size=xs.shape),
        termination=Completed(),
        n_accepted=max(k - 1, 0),
        n_rejected=0,
        cfg=IntegratorConfig(t_end=float(k), sample_dt=1.0),
    )
    assert _same_bits(traj.min_dist_sq, pairs.min(axis=1, initial=np.inf))

    with mock.patch.object(artifacts, "SvgPlot", _RecordedPlot):
        plot_pairwise_distances("unused.svg", traj)
    series = _RecordedPlot.last.series
    dist = np.sqrt(pairs)
    if artifacts._small_flock(n):
        assert list(series) == [f"|x_{i + 1}-x_{j + 1}|" for i, j in zip(iu, ju)]
        for p, ys in enumerate(series.values()):
            assert _same_bits(ys, dist[:, p])
    else:
        for label, band in zip(("min", "median", "max"), (np.min, np.median, np.max)):
            assert _same_bits(series[f"{label} |x_i-x_j|"], band(dist, axis=1))
    if n < 2:
        return

    for x, pairs_x in zip(xs, pairs):
        p = int(np.argmin(pairs_x))
        assert min_pair_distance_sq(x) == (pairs_x[p], iu[p], ju[p])
    rep = RepulsionModel(d0=1e-12, phi=1.5, coeffs=np.ones((n, n)))
    cert = certify_collision(ConstantCoupling(w=1.0).envelope(), rep, xs[0], 1.0, n)
    assert _same_bits(cert.min_dist_sq, pairs[0].min())

    seen = []

    def recording(rep, s, i, j):
        seen.append((np.asarray(s), i, j))
        return np.ones(np.shape(s))

    with mock.patch.object(certify_mod, "repulsion_strength", recording):
        certify_mod.collision_terms(ConstantCoupling(w=1.0), rep, traj.ts[-1:], xs[-1:], traj.vs[-1:])
    [(s, i, j)] = seen
    s, i, j = np.broadcast_arrays(s, i, j)
    pairs = i != j  # the self pairs are masked outside d0
    assert _same_bits(s[pairs], d2[k - 1][i[pairs], j[pairs]])
    assert (s[~pairs] == np.inf).all()
