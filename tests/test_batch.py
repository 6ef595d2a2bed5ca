"""Lockstep batched integration: each member is `integrate` on it, bit for bit."""

from __future__ import annotations

import json
import logging
import math
import random
import weakref
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flocklab.integrate as integrate_module
from flocklab.coupling import (
    COUPLING_FAMILIES,
    ConstantCoupling,
    ModulatedCoupling,
    PowerLawCoupling,
)
from flocklab.dynamics import RepulsionModel, logistic_cosine, lorenz, zero_dynamics
from flocklab.integrate import (
    BLOCK,
    CollisionEvent,
    Completed,
    IntegratorConfig,
    StepSizeUnderflow,
    batch_size,
    integrate,
    integrate_batch,
    integrate_runs,
)
from flocklab.models import MODEL_VARIANTS, ModelSpec, SingularDistanceError, batch_rhs, flat_rhs
from flocklab.scenario import materialize
from flocklab.state import FlockState, libm, power

# members of one batch share their dynamics object: one g drives the block
DYNAMICS = {
    "zero": {r: zero_dynamics(r) for r in (1, 2, 3)},
    "logistic_cosine": {1: logistic_cosine()},
    "lorenz": {3: lorenz()},
}
T_END = 0.3


def _coupling(family: str, n: int, rng, exponent: float, scale: float):
    if family == "constant":
        return ConstantCoupling(w=scale)
    if family == "power_law":
        return PowerLawCoupling(gain=scale, sigma=rng.uniform(0.5, 1.5), exponent=exponent)
    return ModulatedCoupling(w=scale, delta=exponent, beta=rng.uniform(0.5, 1.3, size=(n, n)))


def _member(variant, family, dyn, n, r, role, exponent, phi, seed):
    """(spec, state, cfg) of one member; `role` picks how its run ends.

    plain runs to t_end; underflow has a weight scale of 1e300, whose first
    stages overflow, so h shrinks to the floor; collision (collision_free)
    sends agents 0 and 1 head on past a wide event margin; singular
    (collision_free) starts with a step so long that a stage puts them inside d0.
    """
    rng = np.random.default_rng(seed)
    scale = 1e300 if role == "underflow" else rng.uniform(0.5, 2.0)
    coupling = _coupling(family, n, rng, exponent, scale)
    x = 1.5 * np.arange(n)[:, None] + rng.uniform(-0.2, 0.2, size=(n, r))
    if dyn is not None and dyn.name == "logistic_cosine":
        v = rng.uniform(1.1, 1.9, size=(n, r))
    elif dyn is not None and dyn.name == "lorenz":
        v = rng.uniform(-2.0, 2.0, size=(n, r)) + np.array([0.0, 0.0, 20.0])
    else:
        v = rng.uniform(-1.0, 1.0, size=(n, r))
    cfg = IntegratorConfig(t_end=T_END, sample_dt=0.02)
    repulsion = None
    if variant == "collision_free":
        d0 = 0.05 if role == "singular" else rng.uniform(0.01, 0.04)
        coeffs = rng.uniform(0.5, 1.5, size=(n, n))
        repulsion = RepulsionModel(d0=d0, phi=phi, coeffs=coeffs)
        if role in ("collision", "singular"):
            x[1] = x[0] + np.eye(r)[0] * (0.6 if role == "collision" else 0.3)
            v[0], v[1] = np.eye(r)[0] * 3.0, -np.eye(r)[0] * 3.0
        if role == "collision":
            cfg = IntegratorConfig(t_end=T_END, sample_dt=0.02, collision_margin=0.2)
        if role == "singular":
            v[0], v[1] = 10.0 * v[0], 10.0 * v[1]
            cfg = IntegratorConfig(t_end=T_END, sample_dt=0.02, h_init=0.05)
    spec = ModelSpec(
        variant=variant,
        n=n,
        r=r,
        coupling=coupling,
        internal=dyn if variant == "sync" else None,
        repulsion=repulsion,
    )
    return spec, FlockState(t=0.0, x=x, v=v), cfg


def _assert_same(alone, batched):
    assert batched.termination == alone.termination
    assert (batched.n_accepted, batched.n_rejected) == (alone.n_accepted, alone.n_rejected)
    for name in ("ts", "xs", "vs"):
        a, b = getattr(alone, name), getattr(batched, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _check_members(members):
    """integrate_batch against integrate on each member; a raising member raises the batch."""
    alone = []
    for member in members:
        try:
            alone.append(integrate(*member))
        except SingularDistanceError as exc:
            alone.append(exc)
    failed = [isinstance(a, SingularDistanceError) for a in alone]
    if any(failed):
        with pytest.raises(SingularDistanceError):
            integrate_batch(*zip(*members))
        members = [m for m, bad in zip(members, failed) if not bad]
        alone = [a for a, bad in zip(alone, failed) if not bad]
    if members:
        for a, b in zip(alone, integrate_batch(*zip(*members))):
            _assert_same(a, b)
    return alone


@st.composite
def member_sets(draw):
    variant = draw(st.sampled_from(MODEL_VARIANTS))
    family = draw(st.sampled_from(sorted(COUPLING_FAMILIES)))
    dyn = None
    if variant == "sync":
        name = draw(st.sampled_from(sorted(DYNAMICS)))
        r = draw(st.sampled_from(sorted(DYNAMICS[name])))
        dyn = DYNAMICS[name][r]
    else:
        r = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    roles = ["plain", "plain", "underflow"]
    if variant == "collision_free":
        roles += ["collision", "singular"]
    special = st.sampled_from([0.5, 2.0])
    members = []
    for _ in range(draw(st.integers(2, 4))):
        role = draw(st.sampled_from(roles))
        exponent = draw(st.one_of(special, st.floats(0.3, 2.5)))
        phi = draw(st.one_of(st.just(2.0), st.floats(1.2, 3.0)))
        seed = draw(st.integers(0, 2**16))
        members.append(_member(variant, family, dyn, n, r, role, exponent, phi, seed))
    return members


# an underflow member overflows on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=50, deadline=None)
@given(member_sets())
def test_batch_members_equal_integrate_bit_for_bit(members):
    _check_members(members)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_members_stop_on_their_own():
    # one block holds runs that complete, collide mid-batch and underflow,
    # at the exponents numpy's `**` special-cases; the singular member
    # raises the batch, as it raises `integrate`
    members = [
        _member("collision_free", "modulated", None, 3, 2, role, exponent, 2.0, seed)
        for seed, (role, exponent) in enumerate(
            [("plain", 0.5), ("plain", 2.0), ("collision", 1.3), ("underflow", 0.7), ("singular", 1.0)]
        )
    ]
    alone = _check_members(members)
    kinds = [type(traj.termination) for traj in alone]
    assert kinds == [Completed, Completed, CollisionEvent, StepSizeUnderflow]
    assert 0.0 < alone[2].termination.t_star < T_END / 2
    assert alone[3].termination.t == 0.0 and len(alone[3].ts) == 1


# the drift member's positions overflow on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_members_equal_integrate_over_many_blocks():
    # h_max <= sample_dt, so each member records one step per sample: 400
    # steps on 401 samples, more than 3 * BLOCK, so each member flushes
    # several times, at attempts of its own.  The last member drifts at
    # 6e307, so from t ~ 3 its stage positions overflow, its error norm is
    # NaN, and only the controller's max(0.2, nan) = 0.2 shrinks h to the floor
    grid = dict(t_end=4.0, sample_dt=0.01)
    cfgs = [
        IntegratorConfig(**grid, h_max=0.01),
        IntegratorConfig(**grid, rtol=1e-9, atol=1e-12, h_max=0.007, h_init=1e-4),
        IntegratorConfig(**grid, rtol=1e-4, atol=1e-7, h_max=0.0099, h_init=0.003),
        IntegratorConfig(**grid, rtol=1e-7, h_max=0.008),
    ]
    members = []
    for seed, cfg in enumerate(cfgs):
        spec, state, _ = _member("baseline", "power_law", None, 3, 2, "plain", 0.8 + 0.3 * seed, 2.0, seed)
        if seed == 3:
            v = state.v.copy()
            v[:, 0] += 6e307
            state = FlockState(t=0.0, x=state.x, v=v)
        members.append((spec, state, cfg))
    alone = _check_members(members)
    assert [type(traj.termination) for traj in alone] == [Completed] * 3 + [StepSizeUnderflow]
    assert all(len(traj.ts) > 3 * BLOCK + 1 for traj in alone)
    assert 2.9 < alone[3].termination.t < 3.0 and alone[3].n_rejected > 0


def test_batch_members_must_share_one_sample_grid():
    spec, state, cfg = _member("baseline", "constant", None, 3, 1, "plain", 1.0, 2.0, 0)
    others = [
        (state, IntegratorConfig(t_end=T_END + 0.1, sample_dt=0.02)),
        (state, IntegratorConfig(t_end=T_END, sample_dt=0.03)),
        (FlockState(t=0.1, x=state.x, v=state.v), cfg),
    ]
    for state1, cfg1 in others:
        with pytest.raises(ValueError, match="share t0, t_end and sample_dt"):
            integrate_batch([spec, spec], [state, state1], [cfg, cfg1])


def test_batch_rhs_rows_equal_each_member_at_its_own_time():
    rng = np.random.default_rng(4)
    members = [
        _member("sync", "modulated", DYNAMICS["logistic_cosine"][1], 4, 1, "plain", e, 2.0, s)
        for s, e in enumerate([0.5, 2.0, 1.7])
    ]
    specs = [spec for spec, _, _ in members]
    y = rng.uniform(1.0, 2.0, size=(3, 8))
    t = np.array([[0.3], [2.1], [-4.0]])
    block = batch_rhs(specs)(t, y)
    for b, spec in enumerate(specs):
        assert block[b].tobytes() == flat_rhs(spec)(float(t[b, 0]), y[b]).tobytes()


def test_batch_rhs_rejects_members_of_different_kinds():
    base = _member("sync", "constant", DYNAMICS["zero"][1], 3, 1, "plain", 1.0, 2.0, 0)[0]
    other = [
        _member("baseline", "constant", None, 3, 1, "plain", 1.0, 2.0, 0)[0],
        _member("sync", "power_law", DYNAMICS["zero"][1], 3, 1, "plain", 1.0, 2.0, 0)[0],
        ModelSpec(variant="sync", n=3, r=1, coupling=base.coupling, internal=zero_dynamics(1)),
    ]
    for spec in other:
        with pytest.raises(ValueError, match="batch members must share"):
            batch_rhs([base, spec])


@pytest.mark.parametrize("exponent", [-1.0, 0.0, 0.5, 1.0, 2.0, 1.5, 0.73])
def test_power_gives_each_member_the_float_exponent_bits(exponent):
    # at -1, 0.5 and 2 numpy's `array ** float` is a reciprocal, sqrt or
    # square, which differs from np.power in about 5 % of elements
    rng = np.random.default_rng(7)
    base = rng.uniform(0.01, 10.0, size=(5, 5, 5))
    # with this exponent twice, with no fast-path member and with only fast ones
    batches = ([exponent, 1.1, exponent, 2.6, 0.73], [1.1, 2.6, 0.73, 3.0, 1.7], [-1.0, 0.0, 0.5, 1.0, 2.0])
    for members in batches:
        exponents = np.array(members)[:, None, None]
        got = power(base, exponents)
        for b in range(5):
            assert got[b].tobytes() == (base[b] ** float(exponents[b, 0, 0])).tobytes()
    assert power(base[0], exponent).tobytes() == (base[0] ** exponent).tobytes()


def test_libm_matches_the_math_call_per_element():
    t = np.random.default_rng(8).uniform(-50.0, 50.0, size=(64, 1, 1))
    for fn in (math.sin, math.cos):
        got = libm(fn, t)
        assert got.shape == t.shape
        assert got.ravel().tolist() == [fn(x) for x in t.ravel().tolist()]
    assert libm(math.sin, 0.5) == math.sin(0.5)


def test_batch_size_keeps_sample_buffers_under_one_mebibyte():
    # the frontier sweep's points: n = 5, r = 1, 801 samples of 10 floats
    cfg = IntegratorConfig(t_end=40.0, sample_dt=0.05)
    assert batch_size(5, 1, cfg) == 16 == 2**20 // (801 * 10 * 8)
    assert batch_size(50, 3, cfg) == 1
    # 3 samples, but 2 * (BLOCK + 1) = 130 rows of dense-output points per member
    assert batch_size(5, 1, IntegratorConfig(t_end=1.0, sample_dt=0.5)) == 100 == 2**20 // (130 * 80)


# ---------------------------------------------------------------------------
# integrate_runs: grouping, block sizes, lone runs and failures


def _batch_spy(monkeypatch, blocks, result=None):
    """Record each integrate_batch call's members (as ids of their specs) in blocks.

    The calls go through to integrate_batch, or return result(specs) when given.
    """
    real = integrate_module.integrate_batch

    def spy(specs, states0, cfgs):
        blocks.append([id(spec) for spec in specs])
        return real(specs, states0, cfgs) if result is None else result(specs)

    monkeypatch.setattr(integrate_module, "integrate_batch", spy)


def _results(members) -> dict:
    out = dict(integrate_runs(members))
    assert sorted(out) == list(range(len(members)))
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_runs_groups_runs_of_mixed_kinds_and_grids(monkeypatch):
    sync = DYNAMICS["logistic_cosine"][1]
    longer = IntegratorConfig(t_end=0.5, sample_dt=0.02)
    labelled = []
    for seed in range(3):
        labelled += [
            ("sync", _member("sync", "modulated", sync, 3, 1, "plain", 0.5 + seed, 2.0, seed)),
            ("baseline", _member("baseline", "power_law", None, 3, 2, "plain", 1.1, 2.0, seed)),
            ("collision", _member("collision_free", "modulated", None, 3, 2,
                                  ("plain", "collision", "underflow")[seed], 2.0, 2.0, seed)),
        ]
        spec, state, _ = _member("baseline", "power_law", None, 3, 2, "plain", 1.1, 2.0, 10 + seed)
        labelled.append(("longer grid", (spec, state, longer)))
    # runs alone in their group: another n, another coupling family, a later t0
    spec, state, cfg = _member("baseline", "power_law", None, 4, 2, "plain", 1.1, 2.0, 20)
    labelled += [
        ("n = 4", (spec, state, cfg)),
        ("constant", _member("baseline", "constant", None, 3, 2, "plain", 1.0, 2.0, 21)),
        ("t0 = 0.1", (spec, FlockState(t=0.1, x=state.x, v=state.v), cfg)),
    ]
    random.Random(5).shuffle(labelled)
    members = [member for _, member in labelled]
    blocks = []
    _batch_spy(monkeypatch, blocks)
    results = _results(members)
    for i, member in enumerate(members):
        _assert_same(integrate(*member), results[i])
    ids = [id(spec) for spec, _, _ in members]
    groups = {}
    for label, (spec, _, _) in labelled:
        groups.setdefault(label, []).append(id(spec))
    # each group of several runs is one block, in index order; lone runs skip integrate_batch
    assert sorted(blocks) == sorted(group for group in groups.values() if len(group) > 1)
    assert all(block == sorted(block, key=ids.index) for block in blocks)


def test_integrate_runs_sends_a_lone_run_through_integrate(monkeypatch):
    blocks = []
    _batch_spy(monkeypatch, blocks)
    lone = [_member("baseline", "constant", None, 3, 1, "plain", 1.0, 2.0, 0)]
    _assert_same(integrate(*lone[0]), _results(lone)[0])
    # a group whose cap is one runner is cut into blocks of one
    frontier = IntegratorConfig(t_end=40.0, sample_dt=0.05)
    alone = []
    monkeypatch.setattr(integrate_module, "integrate", lambda *run: alone.append(run) or "alone")
    big = [_member("baseline", "constant", None, 50, 3, "plain", 1.0, 2.0, s)[:2] + (frontier,)
           for s in range(3)]
    assert batch_size(50, 3, frontier) == 1
    assert _results(big) == {0: "alone", 1: "alone", 2: "alone"}
    assert alone == big and blocks == []


def test_integrate_runs_redoes_a_raising_block_run_by_run(caplog):
    # the singular member raises the block; alone, it raises again and
    # its exception is its result, while the others get their trajectories
    members = [
        _member("collision_free", "modulated", None, 3, 2, role, 1.3, 2.0, seed)
        for seed, role in enumerate(["plain", "singular", "collision", "plain"])
    ]
    # two runs whose sample grid `integrate` cannot build fail alone too
    spec, state, _ = members[0]
    members += [(spec, state, IntegratorConfig(t_end=math.nan, sample_dt=0.02))] * 2
    with caplog.at_level(logging.DEBUG, logger="flocklab"):
        results = _results(members)
    for i in (1, 4, 5):
        with pytest.raises(type(results[i])) as alone:
            integrate(*members[i])
        assert str(alone.value) == str(results[i])
    assert isinstance(results[1], SingularDistanceError) and isinstance(results[4], ValueError)
    for i in (0, 2, 3):
        _assert_same(integrate(*members[i]), results[i])
    assert [r.getMessage() for r in caplog.records] == ["batch of 4 runs failed; running each alone"]


def _frontier_runs() -> list:
    """(spec, state, cfg) of the frontier sweep's 122 points: 61 delta x 2 w values."""
    path = files("flocklab") / "scenarios" / "example1_sweep.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    runs = []
    for idx in range(122):
        doc["coupling"].update(delta=0.5 + 0.025 * (idx // 2), w=(1.0, 1.5)[idx % 2])
        sc = materialize(doc, seed_path=(doc["seed"], idx))
        runs.append((sc.model_spec(), sc.initial_state(), sc.integrator))
    return runs


def test_integrate_runs_cuts_the_frontier_runs_into_blocks_of_at_most_16(monkeypatch):
    # 801 samples of 2nr = 10 floats: at most 16 runs keep a block's samples under 1 MiB
    runs = _frontier_runs()
    blocks = []
    _batch_spy(monkeypatch, blocks, result=lambda specs: [None] * len(specs))
    for share, sizes in ((runs, [16, 16] + [15] * 6), (runs[::2], [16, 15, 15, 15])):
        blocks.clear()
        assert _results(share) == dict.fromkeys(range(len(share)))
        assert [len(block) for block in blocks] == sizes
        assert sum(blocks, []) == [id(spec) for spec, _, _ in share]


class _Token:
    """Stands in for a Trajectory: only whether it is still alive matters."""


def test_integrate_runs_yields_each_block_before_integrating_the_next(monkeypatch):
    runs = [_member("baseline", "constant", None, 3, 1, "plain", 1.0, 2.0, s)
            for s in range(5)]
    monkeypatch.setattr(integrate_module, "batch_size", lambda n, r, cfg: 2)
    made: list = []  # weak references to every block's results
    alive_at_call = []

    def batch(specs, states0, cfgs):
        alive_at_call.append(sum(ref() is not None for ref in made))
        tokens = [_Token() for _ in specs]
        made.extend(weakref.ref(token) for token in tokens)
        return tokens

    monkeypatch.setattr(integrate_module, "integrate_batch", batch)
    seen = []
    for i, result in integrate_runs(runs):
        seen.append((i, len(alive_at_call)))
        del result  # drop each result before asking for the next
    # blocks of 2, 2 and 1 runs; the last runs alone, through integrate
    assert seen == [(0, 1), (1, 1), (2, 2), (3, 2), (4, 2)]
    # a block's results are gone once the caller has dropped them
    assert alive_at_call == [0, 0]
