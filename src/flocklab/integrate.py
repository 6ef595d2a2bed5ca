"""Adaptive embedded 3(2) Runge-Kutta integration with dense output.

The stepper is the classic four-stage pair with the first-same-as-last
property: the third-order solution is propagated, the embedded second-order
solution drives step control.  Sample output lands on a uniform grid via
cubic Hermite interpolation inside each accepted step, so tightening the
step controller never changes the reported grid.

A collision monitor can watch the smallest squared pair distance against a
threshold; a sign change within an accepted step is located by bisection on
the dense output and terminates the run with the offending pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .models import ModelSpec, flat_rhs, pack, unpack
from .state import FlockState, min_pair_distance_sq

UNDERFLOW_FACTOR = 1e-14

# classic 3(2) pair coefficients
_B_HIGH = np.array([2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0])
_E = np.array([-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0])


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float
    sample_dt: float
    t0: float = 0.0
    rtol: float = 1e-6
    atol: float = 1e-9
    h_init: Optional[float] = None
    h_max: Optional[float] = None
    collision_margin: float = 1e-9

    def __post_init__(self):
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if self.h_init is not None and self.h_init <= 0:
            raise ValueError("h_init must be positive")
        if self.h_max is not None and self.h_max <= 0:
            raise ValueError("h_max must be positive")
        if self.collision_margin < 0:
            raise ValueError("collision_margin must be nonnegative")


@dataclass(frozen=True)
class Completed:
    pass


@dataclass(frozen=True)
class CollisionEvent:
    t_star: float
    i: int
    j: int


@dataclass(frozen=True)
class StepSizeUnderflow:
    t: float


Termination = Completed | CollisionEvent | StepSizeUnderflow


@dataclass(frozen=True, eq=False)
class EventHit:
    """Where `integrate_flat` stopped on its event: located time and state."""

    t_star: float
    y_star: np.ndarray


@dataclass(eq=False)
class Trajectory:
    """Sampled solution plus step statistics and how the run ended."""

    ts: np.ndarray
    xs: np.ndarray  # (k, n, r)
    vs: np.ndarray  # (k, n, r)
    termination: Termination
    n_accepted: int
    n_rejected: int
    cfg: IntegratorConfig
    spread_v: np.ndarray = field(init=False)
    spread_x: np.ndarray = field(init=False)
    min_dist_sq: np.ndarray = field(init=False)

    def __post_init__(self):
        self.spread_v = (self.vs.max(axis=1) - self.vs.min(axis=1)).max(axis=1)
        self.spread_x = (self.xs.max(axis=1) - self.xs.min(axis=1)).max(axis=1)
        # one agent row at a time: the full (k, n, n, r) difference array
        # would be 40 MB at k=1001, n=50
        self.min_dist_sq = np.full(len(self.ts), np.inf)
        for i in range(self.xs.shape[1] - 1):
            diff = self.xs[:, i : i + 1, :] - self.xs[:, i + 1 :, :]
            d2 = np.einsum("kjl,kjl->kj", diff, diff)
            np.minimum(self.min_dist_sq, d2.min(axis=1), out=self.min_dist_sq)

    def state_at(self, k: int) -> FlockState:
        return FlockState(t=float(self.ts[k]), x=self.xs[k], v=self.vs[k])


def _sample_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    span = t_end - t0
    k = math.ceil(span / dt - 1e-12)
    grid = t0 + dt * np.arange(k)
    return np.append(grid, t_end)


def _hermite(y0, f0, y1, f1, h, theta):
    """Cubic Hermite evaluation at fraction theta of the step."""
    a = theta
    h00 = (1.0 + 2.0 * a) * (1.0 - a) ** 2
    h10 = a * (1.0 - a) ** 2
    h01 = a * a * (3.0 - 2.0 * a)
    h11 = a * a * (a - 1.0)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def integrate_flat(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    cfg: IntegratorConfig,
    event: Optional[Callable[[float, np.ndarray], float]] = None,
):
    """Core loop on flat vectors.

    Returns (sample_ts, sample_ys, termination, n_accepted, n_rejected),
    where termination is Completed, StepSizeUnderflow or EventHit.
    `event` is a scalar function that is positive away from the event; a
    non-positive value at the end of an accepted step triggers bisection.
    """
    t0, t_end = cfg.t0, cfg.t_end
    span = t_end - t0
    h_max = cfg.h_max if cfg.h_max is not None else span
    h = cfg.h_init if cfg.h_init is not None else min(h_max, span / 1000.0)
    h_floor = UNDERFLOW_FACTOR * span

    grid = _sample_grid(t0, t_end, cfg.sample_dt)
    samples = np.empty((len(grid), y0.size))
    samples[0] = y0
    next_sample = 1

    t = t0
    y = np.asarray(y0, dtype=float).copy()
    k1 = f(t, y)
    n_accepted = 0
    n_rejected = 0

    while t < t_end:
        h = min(h, h_max, t_end - t)
        if h < h_floor:
            if t_end - t < h_floor:
                break  # t reached t_end to within rounding of the accumulated sum
            term = StepSizeUnderflow(t=t)
            return grid[:next_sample], samples[:next_sample], term, n_accepted, n_rejected

        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.75 * h, y + 0.75 * h * k2)
        y_new = y + h * (_B_HIGH[0] * k1 + _B_HIGH[1] * k2 + _B_HIGH[2] * k3)
        k4 = f(t + h, y_new)
        err = h * (_E[0] * k1 + _E[1] * k2 + _E[2] * k3 + _E[3] * k4)

        scale = cfg.atol + cfg.rtol * float(np.abs(y).max())
        err_norm = float(np.abs(err).max()) / scale

        if err_norm <= 1.0:
            t_new = t + h

            # scan the dense output at sample resolution: a long accepted
            # step must not jump over a brief excursion past the threshold
            bracket = None
            if event is not None:
                n_scan = max(1, min(1024, math.ceil(h / cfg.sample_dt - 1e-12)))
                theta_prev = 0.0
                for m in range(1, n_scan + 1):
                    theta = m / n_scan
                    y_th = y_new if m == n_scan else _hermite(y, k1, y_new, k4, h, theta)
                    if event(t + theta * h, y_th) <= 0.0:
                        bracket = (theta_prev, theta)
                        break
                    theta_prev = theta

            while next_sample < len(grid) and grid[next_sample] <= t_new + 1e-15 * span:
                theta = (grid[next_sample] - t) / h
                samples[next_sample] = _hermite(y, k1, y_new, k4, h, min(max(theta, 0.0), 1.0))
                next_sample += 1

            if bracket is not None:
                lo, hi = bracket  # event(t + lo*h) > 0 >= event(t + hi*h)
                for _ in range(20):
                    mid = 0.5 * (lo + hi)
                    y_mid = _hermite(y, k1, y_new, k4, h, mid)
                    if event(t + mid * h, y_mid) > 0.0:
                        lo = mid
                    else:
                        hi = mid
                t_star = t + hi * h
                y_star = _hermite(y, k1, y_new, k4, h, hi)
                keep = next_sample
                while keep > 0 and grid[keep - 1] > t_star:
                    keep -= 1
                term = EventHit(t_star=t_star, y_star=y_star)
                return grid[:keep], samples[:keep], term, n_accepted + 1, n_rejected

            t = t_new
            y = y_new
            k1 = k4  # first-same-as-last
            n_accepted += 1
        else:
            n_rejected += 1

        if err_norm == 0.0:  # estimate cancelled to zero: open up fully
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / 3.0)))

    while next_sample < len(grid):  # grid tail within rounding of t_end
        samples[next_sample] = y
        next_sample += 1
    return grid, samples, Completed(), n_accepted, n_rejected


def integrate(spec: ModelSpec, state0: FlockState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a model from state0 under cfg.

    collision_free runs are watched for the smallest squared pair distance
    crossing d0 + collision_margin; the initial state must sit strictly
    outside that band.
    """
    n, r = spec.n, spec.r
    if (state0.n, state0.r) != (n, r):
        raise ValueError("initial state shape does not match the model spec")
    f = flat_rhs(spec)
    y0 = pack(np.asarray(state0.x), np.asarray(state0.v))
    cfg = replace(cfg, t0=state0.t)

    event = None
    if spec.variant == "collision_free":
        d0 = spec.repulsion.d0
        threshold = d0 + cfg.collision_margin

        def event(t, y):
            x, _ = unpack(y, n, r)
            val, _, _ = min_pair_distance_sq(x)
            return val - threshold

        if event(state0.t, y0) <= 0.0:
            val, i, j = min_pair_distance_sq(np.asarray(state0.x))
            raise ValueError(
                f"initial pair ({i}, {j}) already at squared distance {val:.6g}"
                f" <= d0 + margin = {threshold:.6g}"
            )

    ts, ys, term, acc, rej = integrate_flat(f, y0, cfg, event)

    if isinstance(term, EventHit):  # locate the pair at t*
        x_star, _ = unpack(term.y_star, n, r)
        _, i, j = min_pair_distance_sq(x_star)
        term = CollisionEvent(t_star=float(term.t_star), i=i, j=j)

    xs = ys[:, : n * r].reshape(-1, n, r)
    vs = ys[:, n * r :].reshape(-1, n, r)
    return Trajectory(
        ts=ts, xs=xs, vs=vs, termination=term, n_accepted=acc, n_rejected=rej, cfg=cfg
    )
