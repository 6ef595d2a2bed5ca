"""The audit's array terms equal the per-sample terms they replaced, bit for bit.

The first section is the reference: the alignment and collision terms as
the audit once built them, one sample at a time, kept verbatim.
`flocklab.certify` now takes each lemma's (B, F) over stacked states in
one call (`sync_terms`, `collision_terms`); the tests compare their bytes
with these on a simulated flock, on random separated states and on states
whose velocity spread ties.
"""

from __future__ import annotations

import operator
from functools import reduce
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

import flocklab.certify as certify_mod
from flocklab.certify import collision_terms, sync_terms
from flocklab.coupling import ConstantCoupling, ModulatedCoupling, PowerLawCoupling, weights_matrix
from flocklab.dynamics import RepulsionModel, repulsion_strength
from flocklab.integrate import integrate
from flocklab.scenario import load_scenario
from flocklab.state import distance_sq_matrix, pair_dot, spread_report, spreads

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# the reference: one sample at a time, as the audit once built its terms


def _sum_left(values: np.ndarray) -> float:
    """The elements of values added left to right in Python floats, 0 when empty."""
    return reduce(operator.add, values.tolist(), 0)


def _pair_decay_terms(traj, coupling, rep: Optional[RepulsionModel], k: int):
    """Contraction rate rho and repulsion forcing at sample k.

    Both are taken at the pair attaining the velocity spread.  Self weights
    drop out of the pair minimum, so the (i, i') cross terms enter directly.
    Sums over the other agents run left to right, as a per-pair loop would,
    on every Python: from 3.12 on, the builtin `sum` of floats is
    compensated and gives other bits.
    The weights and the repulsion read one `distance_sq_matrix`.
    """
    t = float(traj.ts[k])
    x = traj.xs[k]
    v = traj.vs[k]
    rail = spread_report(v)
    i, ip = rail.i, rail.j
    d2 = distance_sq_matrix(x)
    w = weights_matrix(coupling, t, x, dist_sq=d2)
    n = x.shape[0]
    others = np.delete(np.arange(n), [i, ip])
    rho = w[i, ip] + w[ip, i] + _sum_left(np.minimum(w[i, others], w[ip, others]))

    gamma = 0.0
    if rep is not None:

        def dtail(a: int, b) -> np.ndarray:
            """d/dt of the repulsion tail of each pair (a, b_m)."""
            f = repulsion_strength(rep, d2[a, b], a, b)
            return -2.0 * f * pair_dot((x[a] - x[b]).T, (v[a] - v[b]).T)

        head = (dtail(i, [ip]) + dtail(ip, [i]))[0]
        gamma = 0.5 * (head + _sum_left(np.minimum(dtail(i, others), dtail(ip, others))))
    return rho, gamma


def _reference_collision(coupling, rep, ts, xs, vs):
    traj = SimpleNamespace(ts=ts, xs=xs, vs=vs)
    terms = [_pair_decay_terms(traj, coupling, rep, k) for k in range(len(ts))]
    return np.array([-rho for rho, _ in terms]), np.array([gamma for _, gamma in terms])


def _reference_sync(env, n, k_bound, xs):
    sx = spreads(xs)
    return np.array([k_bound - n * env.psi(float(sx[k])) for k in range(len(xs))])


def _assert_same_terms(coupling, rep, ts, xs, vs):
    b, f = collision_terms(coupling, rep, ts, xs, vs)
    want_b, want_f = _reference_collision(coupling, rep, ts, xs, vs)
    assert b.tobytes() == want_b.tobytes()
    assert f.tobytes() == want_f.tobytes()

    env, n, k_bound = coupling.envelope(), xs.shape[1], 0.75
    b, f = sync_terms(env, n, k_bound, ts, xs, vs)
    assert b.tobytes() == _reference_sync(env, n, k_bound, xs).tobytes()
    assert f.tobytes() == np.zeros(len(ts)).tobytes()


# ---------------------------------------------------------------------------
# three sets of states


def test_terms_match_the_reference_on_every_sample_of_a_collision_flock():
    # the n = 50 collision flock of the benchmark's large_flock workload at
    # seed 2, cut at t_end = 0.5: 51 samples, in several chunks of states
    sc = load_scenario((DATA / "collision_n50_seed2.json").read_text(encoding="utf-8"))
    traj = integrate(sc.spec, sc.state0, sc.integrator)
    assert len(traj.ts) == 51
    _assert_same_terms(sc.spec.coupling, sc.spec.repulsion, traj.ts, traj.xs, traj.vs)


def _coupling(rng: np.random.Generator, family: str, n: int):
    if family == "power_law":
        return PowerLawCoupling(
            gain=rng.uniform(0.5, 3.0), sigma=rng.uniform(0.5, 2.0), exponent=rng.uniform(0.2, 2.0)
        )
    if family == "modulated":
        return ModulatedCoupling(
            w=rng.uniform(0.5, 3.0), delta=rng.uniform(0.0, 2.0), beta=rng.uniform(0.1, 1.4, (n, n))
        )
    return ConstantCoupling(w=rng.uniform(0.5, 3.0))


def _separated_states(rng: np.random.Generator, k: int, n: int, r: int) -> np.ndarray:
    """k states of n agents whose pair squared distances all exceed 1.0 (d0 is 0.25)."""
    xs = rng.uniform(-5.0, 5.0, size=(k, n, r))
    # one coordinate, per state, holds the agents 1.6 apart up to a jitter of 0.3
    axis = rng.integers(r, size=k)
    for s in range(k):
        xs[s, :, axis[s]] = 1.6 * rng.permutation(n) + rng.uniform(-0.3, 0.3, size=n)
    return xs


@pytest.mark.parametrize("pass_bytes", [None, 1], ids=["default-chunks", "one-state-chunks"])
def test_terms_match_the_reference_on_random_separated_states(monkeypatch, pass_bytes):
    if pass_bytes is not None:
        monkeypatch.setattr(certify_mod, "PASS_BYTES", pass_bytes)
    rng = np.random.default_rng(36)
    families = ("power_law", "modulated", "constant")
    count = 0
    for draw in range(90):
        n, r, k = int(rng.integers(3, 31)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        coupling = _coupling(rng, families[draw % 3], n)
        rep = None
        if draw % 5:
            rep = RepulsionModel(d0=0.25, phi=rng.uniform(1.1, 3.0), coeffs=rng.uniform(1.0, 2.0, (n, n)))
        ts = np.sort(rng.uniform(0.0, 10.0, size=k))
        xs = _separated_states(rng, k, n, r)
        vs = rng.normal(size=(k, n, r)) * rng.uniform(0.01, 5.0, size=(k, 1, 1))
        _assert_same_terms(coupling, rep, ts, xs, vs)
        count += k
    assert count >= 200


def test_terms_follow_spread_reports_pair_where_the_spread_ties(monkeypatch):
    # integer velocities: the widest range is often held by two coordinates,
    # and its max or min by two agents; the asymmetric beta and coefficients
    # give each pair its own terms
    rng = np.random.default_rng(7)
    n, r, k = 8, 3, 60
    vs = rng.integers(-2, 3, size=(k, n, r)).astype(float)
    reports = [spread_report(v) for v in vs]
    ties_dim = sum(int((rpt.per_dim == rpt.value).sum() > 1) for rpt in reports)
    ties_agent = sum(
        int((v[:, rpt.dim] == v[rpt.i, rpt.dim]).sum() > 1 or (v[:, rpt.dim] == v[rpt.j, rpt.dim]).sum() > 1)
        for v, rpt in zip(vs, reports)
    )
    assert ties_dim > 10 and ties_agent > 10
    xs = _separated_states(rng, k, n, r)
    ts = np.linspace(0.0, 3.0, k)
    coupling = ModulatedCoupling(w=1.5, delta=1.0, beta=rng.uniform(0.1, 1.4, (n, n)))
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=rng.uniform(1.0, 2.0, (n, n)))

    pairs = []
    pair_sum = certify_mod._pair_sum

    def recording(rows, pair):
        pairs.append(pair.copy())
        return pair_sum(rows, pair)

    monkeypatch.setattr(certify_mod, "_pair_sum", recording)
    _assert_same_terms(coupling, rep, ts, xs, vs)
    # each chunk sums the weights, then the repulsion rates, at the same pairs
    assert all(np.array_equal(w, g) for w, g in zip(pairs[::2], pairs[1::2]))
    assert np.concatenate(pairs[::2]).tolist() == [[rpt.i, rpt.j] for rpt in reports]
