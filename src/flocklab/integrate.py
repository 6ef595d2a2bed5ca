"""Adaptive embedded 3(2) Runge-Kutta integration with dense output.

The stepper is the classic four-stage pair with the first-same-as-last
property: the third-order solution is propagated, the embedded second-order
solution drives step control.  Sample output lands on a uniform grid via
cubic Hermite interpolation inside each accepted step, so tightening the
step controller never changes the reported grid.  The samples are filled
one block of accepted steps at a time, with the bits each would have if
its step were interpolated alone.

A collision monitor can watch the smallest squared pair distance against a
threshold; a sign change within an accepted step is located by bisection on
the dense output and terminates the run with the offending pair.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Optional

import numpy as np

from .models import ModelSpec, flat_rhs, pack, unpack
from .state import FlockState, min_pair_distance_sq, pair_dot

UNDERFLOW_FACTOR = 1e-14

BLOCK = 64  # a flush fills the samples of up to this many recorded steps

# classic 3(2) pair coefficients, one per stage row of k1..k4; an axis-0
# reduction adds the weighted rows in order, as b0*k1 + b1*k2 + b2*k3 does
_B_HIGH = np.array([2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0])[:, None]
_E = np.array([-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0])[:, None]


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


# each termination names its own kind, the label manifests carry
@dataclass(frozen=True)
class Completed:
    kind: ClassVar[str] = "completed"


@dataclass(frozen=True)
class CollisionEvent:
    kind: ClassVar[str] = "collision"
    t_star: float
    i: int
    j: int


@dataclass(frozen=True)
class StepSizeUnderflow:
    kind: ClassVar[str] = "underflow"
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
        # one agent row at a time over the (r, k, n) layout: the full
        # (k, n, n, r) difference array would be 40 MB at k=1001, n=50
        self.min_dist_sq = np.full(len(self.ts), np.inf)
        xt = np.ascontiguousarray(self.xs.transpose(2, 0, 1))
        for i in range(self.xs.shape[1] - 1):
            diff = xt[:, :, i : i + 1] - xt[:, :, i + 1 :]
            d2 = pair_dot(diff, diff)
            np.minimum(self.min_dist_sq, d2.min(axis=1), out=self.min_dist_sq)

    def state_at(self, k: int) -> FlockState:
        return FlockState(t=float(self.ts[k]), x=self.xs[k], v=self.vs[k])


def _sample_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    span = t_end - t0
    k = math.ceil(span / dt - 1e-12)
    grid = t0 + dt * np.arange(k)
    return np.append(grid, t_end)


def _hermite_weights(theta, h):
    """Cubic Hermite weights of (y0, f0, y1, f1) at fraction theta of a step h.

    theta and h are Python floats, or float arrays of one shape.  Each
    (1 - theta)**2 goes through libm's pow, element by element for arrays,
    as Python's float `**` does: an array square can differ from pow by an
    ulp in about one of 1000 thetas.  The other products are the same
    expressions in the same order, so an array element has the bits of the
    scalar weight at its theta.
    """
    b = 1.0 - theta
    sq = np.array([x**2 for x in b.tolist()]) if isinstance(b, np.ndarray) else b**2
    return (
        (1.0 + 2.0 * theta) * sq,
        theta * sq * h,
        theta * theta * (3.0 - 2.0 * theta),
        theta * theta * (theta - 1.0) * h,
    )


def _hermite(y0, f0, y1, f1, h, theta):
    """One state at fraction theta of the step, its terms summed left to right."""
    w0, w1, w2, w3 = _hermite_weights(theta, h)
    return w0 * y0 + w1 * f0 + w2 * y1 + w3 * f1


def _hermite_rows(basis, theta, h, out=None):
    """One Hermite state per theta, equal bit for bit to `_hermite` at it.

    basis is (4, m, N), or broadcasts to it: row i's (y0, f0, y1, f1) are
    basis[:, i].  theta and h are (m,) arrays.  An axis-0 reduction adds
    the four weighted terms in order, as `_hermite`'s sum does.
    """
    weights = np.array(_hermite_weights(theta, h))[:, :, None]
    return np.add.reduce(weights * basis, axis=0, out=out)


# index offsets of a step's (y0, f0, y1, f1) among the (state, slope) rows
_BASIS_ROWS = np.arange(4)[:, None]


class _DenseOutput:
    """The sample grid, filled from the accepted steps one block at a time.

    An accepted step that reaches a new grid sample is recorded: its start,
    length and reach into the grid, its end (state, slope) and, unless the
    step before it was recorded and ended there, its start (state, slope).
    `flush` fills every sample the recorded steps reach with `_hermite_rows`,
    so a sample has the bits it would have if its step were interpolated
    alone.  A flush runs when the (state, slope) buffer is full, and must
    run before the samples are read.
    """

    def __init__(self, grid: np.ndarray, y0: np.ndarray, f0: np.ndarray):
        self.grid = grid
        self.grid_t = grid.tolist()  # the same times as Python floats, for the per-step search
        self.slack = 1e-15 * float(grid[-1] - grid[0])
        self.samples = np.empty((len(grid), y0.size))
        self.samples[0] = y0
        self.filled = self.covered = 1  # samples filled; samples the recorded steps reach
        self.points = np.empty((BLOCK + 1, 2, y0.size))  # (state, slope) rows
        self.n_points = 0
        self.chained = False  # the last point is where the next step starts
        self._put(y0, f0)
        self.firsts: list[int] = []  # each recorded step's start point
        self.starts: list[float] = []
        self.hs: list[float] = []
        self.stops: list[int] = []

    def _put(self, y: np.ndarray, f: np.ndarray) -> None:
        self.points[self.n_points, 0] = y
        self.points[self.n_points, 1] = f
        self.n_points += 1
        self.chained = True

    def push(self, t: float, h: float, y0, f0, y1, f1) -> None:
        """Record the accepted step from (t, y0, f0) to (t + h, y1, f1)."""
        stop = bisect_right(self.grid_t, t + h + self.slack, self.covered)
        if stop == self.covered:
            self.chained = False
            return
        if self.n_points + (1 if self.chained else 2) > len(self.points):
            self.flush()
        if not self.chained:
            self._put(y0, f0)
        self.firsts.append(self.n_points - 1)
        self._put(y1, f1)
        self.starts.append(t)
        self.hs.append(h)
        self.stops.append(stop)
        self.covered = stop

    def flush(self) -> None:
        lo, hi = self.filled, self.covered
        if hi > lo:
            step = np.repeat(np.arange(len(self.stops)), np.diff(self.stops, prepend=lo))
            h = np.array(self.hs)[step]
            theta = np.clip((self.grid[lo:hi] - np.array(self.starts)[step]) / h, 0.0, 1.0)
            first = 2 * np.array(self.firsts)[step]
            rows = self.points.reshape(-1, self.points.shape[-1])
            _hermite_rows(rows[first + _BASIS_ROWS], theta, h, out=self.samples[lo:hi])
            self.filled = hi
        if self.chained:
            self.points[0] = self.points[self.n_points - 1]
        self.n_points = int(self.chained)
        for recorded in (self.firsts, self.starts, self.hs, self.stops):
            recorded.clear()


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
    atol, rtol, sample_dt = cfg.atol, cfg.rtol, cfg.sample_dt
    span = t_end - t0
    h_max = cfg.h_max if cfg.h_max is not None else span
    h = cfg.h_init if cfg.h_init is not None else min(h_max, span / 1000.0)
    h_floor = UNDERFLOW_FACTOR * span

    t = t0
    y = np.asarray(y0, dtype=float).copy()
    stages = np.empty((4, y.size))  # k1..k4, one row each
    k1, k2, k3, k4 = stages
    first3 = stages[:3]
    k1[:] = f(t, y)
    scale = atol + rtol * float(np.abs(y).max())
    grid = _sample_grid(t0, t_end, sample_dt)
    dense = _DenseOutput(grid, y, k1)
    n_accepted = 0
    n_rejected = 0

    while t < t_end:
        h = min(h, h_max, t_end - t)
        if h < h_floor:
            if t_end - t < h_floor:
                break  # t reached t_end to within rounding of the accumulated sum
            dense.flush()
            keep = dense.covered
            term = StepSizeUnderflow(t=t)
            return grid[:keep], dense.samples[:keep], term, n_accepted, n_rejected

        k2[:] = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3[:] = f(t + 0.75 * h, y + 0.75 * h * k2)
        y_new = y + h * np.add.reduce(_B_HIGH * first3, axis=0)
        k4[:] = f(t + h, y_new)
        # max|h * e| is h * max|e| bit for bit: rounding is monotone and
        # symmetric in sign, so one multiply by h replaces the vector one
        err_norm = h * float(np.abs(np.add.reduce(_E * stages, axis=0)).max()) / scale

        if err_norm <= 1.0:
            # scan the dense output at sample resolution: a long accepted
            # step must not jump over a brief excursion past the threshold
            bracket = None
            if event is not None:
                n_scan = max(1, min(1024, math.ceil(h / sample_dt - 1e-12)))
                theta_prev = 0.0
                for m in range(1, n_scan + 1):
                    theta = m / n_scan
                    y_th = y_new if m == n_scan else _hermite(y, k1, y_new, k4, h, theta)
                    if event(t + theta * h, y_th) <= 0.0:
                        bracket = (theta_prev, theta)
                        break
                    theta_prev = theta

            dense.push(t, h, y, k1, y_new, k4)

            if bracket is not None:
                dense.flush()
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
                keep = dense.covered
                while keep > 0 and grid[keep - 1] > t_star:
                    keep -= 1
                term = EventHit(t_star=t_star, y_star=y_star)
                return grid[:keep], dense.samples[:keep], term, n_accepted + 1, n_rejected

            t = t + h
            y = y_new
            k1[:] = k4  # first-same-as-last
            scale = atol + rtol * float(np.abs(y).max())
            n_accepted += 1
        else:
            n_rejected += 1

        if err_norm == 0.0:  # estimate cancelled to zero: open up fully
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / 3.0)))

    dense.flush()
    dense.samples[dense.covered :] = y  # grid tail within rounding of t_end
    return grid, dense.samples, Completed(), n_accepted, n_rejected


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
