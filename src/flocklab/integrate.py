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

`integrate_batch` steps B flocks of one kind, on one sample grid, in
lockstep, as the rows of one (B, 2nr) block: each step attempt makes one RHS call per stage for every
member still running.  Each member keeps its own time, step size, accept or
reject decision, event scan, dense output and termination, and leaves the
block when it stops, so it gets the Trajectory `integrate` gives it, bit for
bit.  The members' times, step sizes, error scales and counters are (B,)
arrays, and one attempt's clamp, accept or reject and dense-output record
are a fixed number of array operations whatever B is, with the IEEE
operations `_Run` applies to one run, in the same order.  Only the
step-size controller (libm's `pow`, Python's NaN-ignoring `min` and `max`)
and the event scan run per member, in Python.  Both paths share the stage
rule (`_attempt`), the coefficients, the Hermite rows, the controller, the
event scan and the sample grid; the one-run path keeps Python floats, which
cost less than arrays of one.

`integrate_runs` takes runs of any kinds and sample grids and owns every
batching rule: which runs share a block, how many, and what runs alone.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import starmap
from typing import Callable, ClassVar, Optional

import numpy as np

from .models import ModelSpec, batch_key, batch_rhs, flat_rhs, pack, unpack
from .state import FlockState, min_pair_distance_sq, pair_dot

log = logging.getLogger(__name__)

UNDERFLOW_FACTOR = 1e-14

BLOCK = 64  # a flush fills the samples of up to this many recorded steps

BATCH_BYTES = 2**20  # a batch's sample buffer, and its dense-output point buffer, at most

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


def batch_size(n: int, r: int, cfg: IntegratorConfig) -> int:
    """Most members of one `integrate_batch` call whose buffers each fit BATCH_BYTES.

    A member holds its samples and 2 * (BLOCK + 1) rows of dense-output
    points, so it is sized by the larger count.
    """
    samples = len(_sample_grid(cfg.t0, cfg.t_end, cfg.sample_dt))
    rows = max(samples, 2 * (BLOCK + 1))
    return max(1, BATCH_BYTES // (rows * 2 * n * r * 8))


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
# a point's (state, slope) offsets among them, on the middle axis of (2, 2, m) indices
_PAIR_ROWS = np.arange(2)[:, None]


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


class _BatchDense:
    """The sample grids of a batch's members, filled from their accepted steps.

    Every attempt writes the end (state, slope) of each block row into one
    buffer of (BLOCK + 1) * B points and records, as arrays over the rows,
    where each row's step starts and ends in it, the step's start and
    length, and the grid samples it reaches; one `searchsorted` over the
    shared grid finds those for every row.  A step starts at its row's
    last accepted end point, or at the point the buffer restarted with, so
    each recorded step has the (y0, f0, y1, f1) `_DenseOutput` records for
    it.  `flush` fills every sample the recorded steps reach with one
    `_hermite_rows` call; it runs when the buffer is full and must run
    before the samples are read.  The row arrays follow the block: `keep`
    drops the rows of members that left it.
    """

    def __init__(self, grid: np.ndarray, y0: np.ndarray, f0: np.ndarray):
        members, size = y0.shape
        self.grid = grid
        self.slack = 1e-15 * float(grid[-1] - grid[0])
        self.samples = np.empty((members, len(grid), size))
        self.samples[:, 0] = y0
        self.points = np.empty(((BLOCK + 1) * members, 2, size))
        self.covered = np.ones(members, dtype=np.intp)  # each row's samples reached so far
        self.records: list[tuple] = []  # one per attempt, see `push`
        self._restart(y0, f0)

    def _restart(self, y: np.ndarray, f: np.ndarray) -> None:
        """Empty the point buffer; row i's next step starts at (y[i], f[i])."""
        rows = len(y)
        self.points[:rows, 0] = y
        self.points[:rows, 1] = f
        self.row_ids = np.arange(rows)
        self.firsts = self.row_ids  # each row's next step starts at this point
        self.used = rows

    def push(self, members, accepted, t, h, end, y, k1, y_new, k4) -> None:
        """Record the attempt from (t, y, k1) to (end = t + h, y_new, k4) of each block row.

        Row i runs member members[i]; its step is kept when accepted[i].
        """
        if self.used + len(y) > len(self.points):
            self.flush()
            self._restart(y, k1)
        start, self.used = self.used, self.used + len(y)
        self.points[start : self.used, 0] = y_new
        self.points[start : self.used, 1] = k4
        at = start + self.row_ids
        covered = self.covered
        stop = np.maximum(np.searchsorted(self.grid, end + self.slack, side="right"), covered)
        recorded = accepted & (stop > covered)  # a step that reaches no new sample is not
        self.records.append((members, self.firsts, at, t, h, covered, stop, recorded))
        self.firsts = np.where(accepted, at, self.firsts)
        self.covered = np.where(recorded, stop, covered)

    def flush(self) -> None:
        if not self.records:
            return
        columns = [np.concatenate(column) for column in zip(*self.records)]
        self.records = []
        recorded = columns.pop()
        members, firsts, ends, starts, hs, lo, hi = (column[recorded] for column in columns)
        counts = hi - lo  # samples per recorded step
        step = np.repeat(np.arange(len(counts)), counts)
        sample = np.arange(len(step)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        h = hs[step]
        theta = np.clip((self.grid[sample] - starts[step]) / h, 0.0, 1.0)
        # (y0, f0, y1, f1) of each sample's step among the (state, slope) rows
        basis = (2 * np.stack((firsts, ends)))[:, None, step] + _PAIR_ROWS
        rows = self.points.reshape(-1, self.points.shape[-1])
        self.samples[members[step], sample] = _hermite_rows(rows[basis.reshape(4, -1)], theta, h)

    def keep(self, rows, y: np.ndarray, f: np.ndarray) -> None:
        """Keep only these block rows, restarting from their (y, f); call it after `flush`."""
        self.covered = self.covered[rows]
        self._restart(y, f)


def _attempt(f, t, h, y: np.ndarray, stages: np.ndarray):
    """One attempt at a step of size h from (t, y), whose slope is stages[0].

    Fills the stages k2..k4 and returns the third-order state and max|E k|,
    the max-norm of the error estimate before its factor h.  y is one (N,)
    run with float t and h, or a (B, N) block with (B, 1) arrays t and h;
    elementwise, the two are the same arithmetic.
    """
    b_high, e = (_B_HIGH, _E) if y.ndim == 1 else (_B_HIGH[..., None], _E[..., None])
    k1, k2, k3, k4 = stages
    k2[...] = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3[...] = f(t + 0.75 * h, y + 0.75 * h * k2)
    y_new = y + h * np.add.reduce(b_high * stages[:3], axis=0)
    k4[...] = f(t + h, y_new)
    return y_new, np.abs(np.add.reduce(e * stages, axis=0)).max(axis=-1)


def _step_factor(err_norm: float) -> float:
    """The step-size controller: h's factor after an attempt with this error norm."""
    if err_norm == 0.0:  # estimate cancelled to zero: open up fully
        return 5.0
    return min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / 3.0)))


def _locate_event(event, t: float, h: float, y, k1, y_new, k4, sample_dt: float):
    """(t*, y*) where the event fires first in the accepted step, or None.

    The dense output is scanned at sample resolution, so a long step cannot
    jump over a brief excursion past the threshold; the first bracket of a
    sign change is then bisected.
    """
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
    for _ in range(20):  # event(t + lo*h) > 0 >= event(t + hi*h)
        mid = 0.5 * (lo + hi)
        y_mid = _hermite(y, k1, y_new, k4, h, mid)
        if event(t + mid * h, y_mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h, _hermite(y, k1, y_new, k4, h, hi)


class _Run:
    """One run's stepping state: t, h, counters, dense output and, once stopped, its result.

    `result` is (sample_ts, sample_ys, termination, n_accepted, n_rejected),
    where termination is Completed, StepSizeUnderflow or EventHit.
    """

    def __init__(self, cfg: IntegratorConfig, y0: np.ndarray, f0: np.ndarray, event):
        span = cfg.t_end - cfg.t0
        self.t, self.t_end, self.sample_dt = cfg.t0, cfg.t_end, cfg.sample_dt
        self.atol, self.rtol = cfg.atol, cfg.rtol
        self.h_max = cfg.h_max if cfg.h_max is not None else span
        self.h = cfg.h_init if cfg.h_init is not None else min(self.h_max, span / 1000.0)
        self.h_floor = UNDERFLOW_FACTOR * span
        self.event = event
        self.scale = self.atol + self.rtol * float(np.abs(y0).max())
        self.dense = _DenseOutput(_sample_grid(cfg.t0, cfg.t_end, cfg.sample_dt), y0, f0)
        self.n_accepted = 0
        self.n_rejected = 0
        self.result = None

    def ready(self, y: np.ndarray) -> bool:
        """Clamp h for an attempt from (t, y); False, with the result set, once the run is over."""
        if self.result is not None:
            return False
        if self.t < self.t_end:
            h = min(self.h, self.h_max, self.t_end - self.t)
            if h >= self.h_floor:
                self.h = h
                return True
            if self.t_end - self.t >= self.h_floor:
                self._stop(StepSizeUnderflow(t=self.t))
                return False
            # else t reached t_end to within rounding of the accumulated sum
        self._stop(Completed(), y)
        return False

    def settle(self, err: float, y_max: float, y, k1, y_new, k4) -> bool:
        """Accept or reject the attempt from (t, y) to y_new; True when accepted.

        err is the attempt's max|E k| and y_max is max|y_new|.  An accepted
        step is recorded in the dense output, and an event inside it stops
        the run there.
        """
        t, h = self.t, self.h
        # max|h * e| is h * max|e| bit for bit: rounding is monotone and
        # symmetric in sign, so one multiply by h replaces the vector one
        err_norm = h * err / self.scale
        accepted = err_norm <= 1.0
        if accepted:
            hit = None
            if self.event is not None:
                hit = _locate_event(self.event, t, h, y, k1, y_new, k4, self.sample_dt)
            self.dense.push(t, h, y, k1, y_new, k4)
            self.n_accepted += 1
            if hit is not None:
                self._stop(EventHit(*hit))
                return True
            self.t = t + h
            self.scale = self.atol + self.rtol * y_max
        else:
            self.n_rejected += 1
        self.h = h * _step_factor(err_norm)
        return accepted

    def _stop(self, term, y=None) -> None:
        dense = self.dense
        dense.flush()
        ts, ys = _kept(dense.grid, dense.samples, dense.covered, term, y)
        self.result = (ts, ys, term, self.n_accepted, self.n_rejected)


def _kept(grid, samples, covered: int, term, y):
    """(sample_ts, sample_ys) a run keeps when it stops with term, its samples filled up to covered.

    A completed run fills the grid's tail, within rounding of t_end, with
    its last state y; an event run keeps the samples up to t*.
    """
    keep = covered
    if isinstance(term, Completed):
        samples[keep:] = y
        keep = len(grid)
    elif isinstance(term, EventHit):
        while keep > 0 and grid[keep - 1] > term.t_star:
            keep -= 1
    return grid[:keep], samples[:keep]


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
    y = np.asarray(y0, dtype=float).copy()
    stages = np.empty((4, y.size))  # k1..k4, one row each
    k1, k4 = stages[0], stages[3]
    k1[:] = f(cfg.t0, y)
    run = _Run(cfg, y, k1, event)
    while run.ready(y):
        y_new, err = _attempt(f, run.t, run.h, y, stages)
        if run.settle(float(err), float(np.abs(y_new).max()), y, k1, y_new, k4):
            y = y_new
            k1[:] = k4  # first-same-as-last
    return run.result


def _start(spec: ModelSpec, state0: FlockState, cfg: IntegratorConfig):
    """(y0, cfg from state0's time, collision event or None) of one run."""
    n, r = spec.n, spec.r
    if (state0.n, state0.r) != (n, r):
        raise ValueError("initial state shape does not match the model spec")
    y0 = pack(np.asarray(state0.x), np.asarray(state0.v))
    cfg = replace(cfg, t0=state0.t)
    if spec.variant != "collision_free":
        return y0, cfg, None

    threshold = spec.repulsion.d0 + cfg.collision_margin

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
    return y0, cfg, event


def _trajectory(spec: ModelSpec, cfg: IntegratorConfig, ts, ys, term, acc, rej) -> Trajectory:
    n, r = spec.n, spec.r
    if isinstance(term, EventHit):  # locate the pair at t*
        x_star, _ = unpack(term.y_star, n, r)
        _, i, j = min_pair_distance_sq(x_star)
        term = CollisionEvent(t_star=float(term.t_star), i=i, j=j)

    xs = ys[:, : n * r].reshape(-1, n, r)
    vs = ys[:, n * r :].reshape(-1, n, r)
    return Trajectory(
        ts=ts, xs=xs, vs=vs, termination=term, n_accepted=acc, n_rejected=rej, cfg=cfg
    )


def integrate(spec: ModelSpec, state0: FlockState, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a model from state0 under cfg.

    collision_free runs are watched for the smallest squared pair distance
    crossing d0 + collision_margin; the initial state must sit strictly
    outside that band.
    """
    y0, cfg, event = _start(spec, state0, cfg)
    return _trajectory(spec, cfg, *integrate_flat(flat_rhs(spec), y0, cfg, event))


def _grid_key(state0: FlockState, cfg: IntegratorConfig) -> tuple:
    """A run's sample grid: t0 (its state's time), t_end and sample_dt."""
    return state0.t, cfg.t_end, cfg.sample_dt


def integrate_batch(specs, states0, cfgs) -> list[Trajectory]:
    """Integrate B flocks in lockstep, as one block; see the module docstring.

    Member b's Trajectory equals `integrate(specs[b], states0[b], cfgs[b])`
    bit for bit.  The specs must share one `models.batch_key`, and the
    members one sample grid (`_grid_key`).  An error in any member's start
    or RHS propagates, as it does from `integrate` on that member.
    """
    if not specs or not len(specs) == len(states0) == len(cfgs):
        raise ValueError("integrate_batch needs one state and one config per spec")
    if len({_grid_key(state0, cfg) for state0, cfg in zip(states0, cfgs)}) > 1:
        raise ValueError("integrate_batch members must share t0, t_end and sample_dt")
    starts = [_start(spec, state0, cfg) for spec, state0, cfg in zip(specs, states0, cfgs)]
    cfgs = [cfg for _, cfg, _ in starts]
    events = [event for _, _, event in starts]
    t_end, sample_dt = cfgs[0].t_end, cfgs[0].sample_dt
    span = t_end - cfgs[0].t0
    h_floor = UNDERFLOW_FACTOR * span
    f = batch_rhs(specs)
    y = np.stack([y0 for y0, _, _ in starts])
    stages = np.empty((4, *y.shape))
    t = np.array([cfg.t0 for cfg in cfgs])
    stages[0] = f(t[:, None], y)
    dense = _BatchDense(_sample_grid(cfgs[0].t0, t_end, sample_dt), y, stages[0])
    # each block row's step control, as `_Run` keeps it; row i runs member live[i]
    live = np.arange(len(specs))
    h_max = np.array([span if cfg.h_max is None else cfg.h_max for cfg in cfgs])
    h = np.array([
        min(hm, span / 1000.0) if cfg.h_init is None else cfg.h_init
        for cfg, hm in zip(cfgs, h_max.tolist())
    ])
    atol, rtol = np.array([cfg.atol for cfg in cfgs]), np.array([cfg.rtol for cfg in cfgs])
    scale = atol + rtol * np.abs(y).max(axis=1)
    n_accepted = np.zeros(len(specs), dtype=np.intp)
    attempts = 0  # every row in the block makes every attempt
    results = [None] * len(specs)
    hits: dict[int, EventHit] = {}  # rows whose last step ended on the event
    while True:
        # clamp h as `_Run.ready` does; rows that cannot attempt a step stop
        left = t_end - t
        clamped = np.minimum(h, h_max)
        np.minimum(clamped, left, out=clamped)
        going = (t < t_end) & (clamped >= h_floor)
        if hits:
            going[list(hits)] = False
        if not going.all():
            done = np.flatnonzero(~going).tolist()
            rows = np.flatnonzero(going)
            dense.flush()
            for i in done:
                if i in hits:
                    term, y_end = hits[i], None
                elif t[i] < t_end and left[i] >= h_floor:
                    term, y_end = StepSizeUnderflow(t=float(t[i])), None
                else:
                    term, y_end = Completed(), y[i]
                b = int(live[i])
                kept = _kept(dense.grid, dense.samples[b], int(dense.covered[i]), term, y_end)
                results[b] = (*kept, term, int(n_accepted[i]), attempts - int(n_accepted[i]))
            hits = {}
            if not rows.size:
                break
            # stopped members leave the block
            live, y, t, clamped, h_max, atol, rtol, scale, n_accepted = (
                a[rows] for a in (live, y, t, clamped, h_max, atol, rtol, scale, n_accepted)
            )
            events = [events[i] for i in rows.tolist()]
            k1 = stages[0, rows]
            stages = np.empty((4, *y.shape))
            stages[0] = k1
            dense.keep(rows, y, k1)
            f = batch_rhs([specs[b] for b in live.tolist()])
        h = clamped
        y_new, err = _attempt(f, t[:, None], h[:, None], y, stages)
        attempts += 1
        # accept or reject as `_Run.settle` does
        err_norm = h * err / scale
        accepted = err_norm <= 1.0
        factor = np.fromiter(map(_step_factor, err_norm.tolist()), float, len(err_norm))
        k1, k4 = stages[0], stages[3]
        if events[0] is not None:
            t_list, h_list = t.tolist(), h.tolist()
            for i in np.flatnonzero(accepted).tolist():
                hit = _locate_event(events[i], t_list[i], h_list[i], y[i], k1[i], y_new[i], k4[i], sample_dt)
                if hit is not None:
                    hits[i] = EventHit(*hit)
        end = t + h
        dense.push(live, accepted, t, h, end, y, k1, y_new, k4)
        t = np.where(accepted, end, t)
        scale = np.where(accepted, atol + rtol * np.abs(y_new).max(axis=1), scale)
        np.copyto(y, y_new, where=accepted[:, None])
        np.copyto(k1, k4, where=accepted[:, None])  # first-same-as-last
        n_accepted += accepted
        h = h * factor
    return [
        _trajectory(spec, cfg, *result) for spec, cfg, result in zip(specs, cfgs, results)
    ]


def _alone(spec: ModelSpec, state0: FlockState, cfg: IntegratorConfig):
    """`integrate` on one run, or the exception it raises."""
    try:
        return integrate(spec, state0, cfg)
    except Exception as exc:  # a run's own failure is its result
        return exc


def _block(runs):
    """The results of one block's runs: several step together, one runs alone."""
    if len(runs) > 1:
        try:
            return integrate_batch(*zip(*runs))
        except Exception:
            log.debug("batch of %d runs failed; running each alone", len(runs), exc_info=True)
    return starmap(_alone, runs)


def integrate_runs(runs):
    """Integrate (spec, state0, cfg) runs of any kinds and grids; yield (index, result) per block.

    Runs that share a `models.batch_key` and a sample grid are cut, in
    index order, into near-equal blocks of at most `batch_size` runs.  A
    block of several goes through `integrate_batch`; a lone run, which is
    faster alone, and each run of a block that raises go through
    `integrate`.  Run i's result is `integrate(*runs[i])`, bit for bit, or
    the exception that call raises.  A block is integrated when its first
    result is asked for, so a caller that drops each result holds at most
    one block's trajectories.
    """
    groups: dict[tuple, list[int]] = {}
    for i, (spec, state0, cfg) in enumerate(runs):
        groups.setdefault((batch_key(spec), _grid_key(state0, cfg)), []).append(i)
    for members in groups.values():
        spec, state0, cfg = runs[members[0]]
        try:
            cap = batch_size(spec.n, spec.r, replace(cfg, t0=state0.t))
        except (ValueError, OverflowError):  # a grid `integrate` rejects: each run fails alone
            cap = 1
        for block in np.array_split(members, -(-len(members) // cap)):
            block = block.tolist()
            yield from zip(block, _block([runs[i] for i in block]))
