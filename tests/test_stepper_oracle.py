"""A scalar Bogacki-Shampine stepper, kept as the reference for the lockstep loop.

`reference_flat` steps one run on Python floats: its own clamp, stages,
accept or reject test, controller, event bisection and per-step Hermite
fill, sharing no stepping code with `flocklab.integrate`.  `integrate_flat`
(a block of one) and a member of an `integrate_batch` block must give its
samples, termination and counters bit for bit, so a drift in the shared
loop's clamp, stage order or controller fails here even though `integrate`
and `integrate_batch` run the same loop.
"""

from __future__ import annotations

import math
from dataclasses import replace
from importlib.resources import files

import numpy as np
import pytest

from flocklab.coupling import ConstantCoupling, PowerLawCoupling
from flocklab.dynamics import RepulsionModel
from flocklab.integrate import (
    BLOCK,
    UNDERFLOW_FACTOR,
    Completed,
    EventHit,
    IntegratorConfig,
    StepSizeUnderflow,
    _sample_grid,
    _start,
    _trajectory,
    integrate_batch,
    integrate_flat,
)
from flocklab.models import ModelSpec, flat_rhs
from flocklab.scenario import load_scenario
from flocklab.state import FlockState

_B_HIGH = (2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0)
_E = (-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0)


def _hermite(y0, f0, y1, f1, h, a):
    h00 = (1.0 + 2.0 * a) * (1.0 - a) ** 2
    h10 = a * (1.0 - a) ** 2
    h01 = a * a * (3.0 - 2.0 * a)
    h11 = a * a * (a - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def _step_factor(err_norm):
    if err_norm == 0.0:
        return 5.0
    return min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / 3.0)))


def _locate_event(event, t, h, y, k1, y_new, k4, sample_dt):
    n_scan = max(1, min(1024, math.ceil(h / sample_dt - 1e-12)))
    lo = 0.0
    for m in range(1, n_scan + 1):
        hi = m / n_scan
        y_th = y_new if m == n_scan else _hermite(y, k1, y_new, k4, h, hi)
        if event(t + hi * h, y_th) <= 0.0:
            break
        lo = hi
    else:
        return None
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if event(t + mid * h, _hermite(y, k1, y_new, k4, h, mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h, _hermite(y, k1, y_new, k4, h, hi)


def reference_flat(f, y0, cfg, event=None):
    """(sample_ts, sample_ys, termination, n_accepted, n_rejected), as `integrate_flat` returns."""
    b0, b1, b2 = _B_HIGH
    e0, e1, e2, e3 = _E
    y = np.asarray(y0, dtype=float).copy()
    k1 = f(cfg.t0, y)
    t, t_end = cfg.t0, cfg.t_end
    span = t_end - t
    h_floor = UNDERFLOW_FACTOR * span
    h_max = span if cfg.h_max is None else cfg.h_max
    h = min(h_max, span / 1000.0) if cfg.h_init is None else cfg.h_init
    scale = cfg.atol + cfg.rtol * float(np.abs(y).max())
    grid = _sample_grid(t, t_end, cfg.sample_dt)
    slack = 1e-15 * float(grid[-1] - grid[0])
    samples = np.empty((len(grid), y.size))
    samples[0] = y
    covered = 1
    n_accepted = n_rejected = 0
    hit = None
    while hit is None:
        left = t_end - t
        clamped = min(h, h_max, left)
        if not (t < t_end and clamped >= h_floor):
            break
        h = clamped
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.75 * h, y + 0.75 * h * k2)
        y_new = y + h * (b0 * k1 + b1 * k2 + b2 * k3)
        k4 = f(t + h, y_new)
        err_norm = h * float(np.abs(e0 * k1 + e1 * k2 + e2 * k3 + e3 * k4).max()) / scale
        if err_norm <= 1.0:
            if event is not None:
                hit = _locate_event(event, t, h, y, k1, y_new, k4, cfg.sample_dt)
            while covered < len(grid) and grid[covered] <= t + h + slack:
                theta = min(max((grid[covered] - t) / h, 0.0), 1.0)
                samples[covered] = _hermite(y, k1, y_new, k4, h, theta)
                covered += 1
            n_accepted += 1
            t = t + h
            scale = cfg.atol + cfg.rtol * float(np.abs(y_new).max())
            y, k1 = y_new, k4
        else:
            n_rejected += 1
        h = h * _step_factor(err_norm)
    if hit is not None:
        term = EventHit(*hit)
        while covered > 0 and grid[covered - 1] > term.t_star:
            covered -= 1
    elif t < t_end and left >= h_floor:
        term = StepSizeUnderflow(t=t)
    else:
        term = Completed()
        samples[covered:] = y
        covered = len(grid)
    return grid[:covered], samples[:covered], term, n_accepted, n_rejected


def _rejections():
    # the stiff Lorenz flock rejects 5 of its first 154 attempts
    text = (files("flocklab") / "scenarios" / "example2_strong.json").read_text()
    sc = load_scenario(text)
    return sc.spec, sc.state0, replace(sc.integrator, t_end=0.5)


def _event_mid_block():
    # agents 0 and 1 close head on; at this h_max the event fires in the
    # 175th step, inside the third buffer of BLOCK steps
    n, r = 3, 2
    repulsion = RepulsionModel(d0=0.02, phi=2.0, coeffs=np.ones((n, n)))
    spec = ModelSpec(n=n, r=r, coupling=ConstantCoupling(w=1.0),
                     repulsion=repulsion)
    x = np.array([[0.0, 0.0], [0.8, 0.05], [0.3, 1.5]])
    v = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 0.5]])
    cfg = IntegratorConfig(t_end=1.0, sample_dt=0.01, h_max=0.0005, collision_margin=0.2)
    return spec, FlockState(t=0.0, x=x, v=v), cfg


def _underflow():
    # velocities at 6e307 overflow the positions from t ~ 3: the error norm
    # is NaN, and the controller's floor of 0.2 shrinks h below h_floor
    rng = np.random.default_rng(4)
    n, r = 3, 2
    spec = ModelSpec(n=n, r=r,
                     coupling=PowerLawCoupling(gain=1.0, sigma=1.0, exponent=0.8))
    x = 1.5 * np.arange(n)[:, None] + rng.uniform(-0.2, 0.2, size=(n, r))
    v = rng.uniform(-1.0, 1.0, size=(n, r))
    v[:, 0] += 6e307
    cfg = IntegratorConfig(t_end=4.0, sample_dt=0.01, h_max=0.01)
    return spec, FlockState(t=0.0, x=x, v=v), cfg


RUNS = {"rejections": _rejections, "event-mid-block": _event_mid_block, "underflow": _underflow}


def _reference(run):
    spec, state0, cfg = run
    y0, cfg, event = _start(spec, state0, cfg)
    return reference_flat(flat_rhs(spec), y0, cfg, event)


def _check_kind(name, ref):
    """Each run ends as its name says, in the place its name says."""
    _, _, term, n_acc, n_rej = ref
    if name == "rejections":
        assert isinstance(term, Completed) and n_rej > 0 and n_acc > 2 * BLOCK
    elif name == "event-mid-block":
        assert isinstance(term, EventHit) and n_acc > BLOCK and n_acc % BLOCK
    else:
        assert isinstance(term, StepSizeUnderflow) and 2.9 < term.t < 3.0
        assert n_acc > 4 * BLOCK and n_rej > 0


# the underflow run overflows on purpose
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_integrate_flat_equals_the_scalar_reference(name):
    spec, state0, cfg = RUNS[name]()
    ref = _reference((spec, state0, cfg))
    _check_kind(name, ref)
    y0, cfg, event = _start(spec, state0, cfg)
    ts, ys, term, n_acc, n_rej = integrate_flat(flat_rhs(spec), y0, cfg, event)
    assert ts.tobytes() == ref[0].tobytes() and ys.tobytes() == ref[1].tobytes()
    assert type(term) is type(ref[2])
    if isinstance(term, EventHit):
        assert term.t_star == ref[2].t_star and term.y_star.tobytes() == ref[2].y_star.tobytes()
    else:
        assert term == ref[2]
    assert (n_acc, n_rej) == ref[3:] and type(n_acc) is int and type(n_rej) is int


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_batch_member_equals_the_scalar_reference(name):
    # the run steps in a block beside a run of its kind from a shifted start
    spec, state0, cfg = RUNS[name]()
    ref = _reference((spec, state0, cfg))
    shifted = FlockState(t=state0.t, x=state0.x + 0.1, v=state0.v)
    got, _ = integrate_batch([spec, spec], [state0, shifted], [cfg, cfg])
    want = _trajectory(spec, replace(cfg, t0=state0.t), *ref)
    assert got.termination == want.termination
    assert (got.n_accepted, got.n_rejected) == (want.n_accepted, want.n_rejected)
    for field in ("ts", "xs", "vs"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
