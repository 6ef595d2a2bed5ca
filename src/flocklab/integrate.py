"""Adaptive embedded 3(2) Runge-Kutta integration with dense output.

The stepper is the classic four-stage pair with the first-same-as-last
property: the third-order solution is propagated, the embedded second-order
solution drives step control.  Sample output lands on a uniform grid via
cubic Hermite interpolation inside each accepted step, so tightening the
step controller never changes the reported grid.  The recorder
(`_BatchDense`) puts both ends (state, slope) of each step attempt into a
buffer, so every accepted step carries its own Hermite basis and nothing
rebuilds a chain of steps.  The samples are filled one buffer of steps at
a time, when it is full and once when the run ends, with the bits each
would have if its step were interpolated alone; one Hermite pass fills as
many as fit in `state.PASS_BYTES` at nine states per sample, so a fill's
temporaries grow neither with the sample density nor with the state size.

A collision monitor can watch the smallest squared pair distance against a
threshold; a sign change within an accepted step is located by bisection on
the dense output and terminates the run with the offending pair.  A stage
that lands inside the repulsion's d0, where the collision_free RHS is NaN,
makes the error norm NaN, which fails `err_norm <= 1`: the attempt is
rejected and h shrinks by 0.2, the controller's floor.

One loop (`_lockstep`) steps every run.  It steps B flocks of one kind, on
one sample grid, in lockstep, as the rows of one (B, N) block: each step
attempt makes one RHS call per stage for every member still running.  Each
member keeps its own time, step size, accept or reject decision, event scan
and termination, and leaves the block when it stops, without a fill: the
block's next fill covers its recorded steps, and its samples are read after
the block's last fill.  The members' times, step sizes and counters are
(B,) arrays, and one attempt's clamp, stages, accept or reject and
dense-output record are a fixed number of array operations whatever B is;
only the step-size controller (libm's `pow`, Python's NaN-ignoring `min`
and `max`) and the event scan run per member, in Python.  `integrate_batch`
runs the loop on `models.batch_rhs`.  `integrate_flat`, which `integrate`
calls, runs one run on flat vectors as a block of one, its RHS applied to
row 0 at a float time.  So a batch member's Trajectory is the one
`integrate` gives it, bit for bit, and a member's stage inside d0 rejects
that member's attempt alone.

`integrate_runs` takes runs of any kinds and sample grids and owns every
batching rule: which runs share a block, how many, and what runs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, ClassVar, Optional

import numpy as np

from .bounds import bounded, check_fields
from .models import ModelSpec, batch_key, batch_rhs, flat_rhs, pack, unpack
from .state import PASS_BYTES, FlockState, min_pair_distance_sq, pair_distances_sq, spreads

UNDERFLOW_FACTOR = 1e-14

BLOCK = 64  # a flush fills the samples of up to this many recorded steps

# what one batch's members hold at most: their samples and dense-output
# points; a flush's Hermite passes fit PASS_BYTES apart.  An attempt costs
# nearly the same numpy calls at any block size, so bigger blocks are faster,
# with gains that flatten past about 64 members; 5 MiB holds 62 runs of 801
# samples at nr = 5
BATCH_BYTES = 5 * 2**20

# classic 3(2) pair coefficients, one per stage row of k1..k4; an axis-0
# reduction adds the weighted rows in order, as b0*k1 + b1*k2 + b2*k3 does
_B_HIGH = np.array([2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0])[:, None, None]
_E = np.array([-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0])[:, None, None]
# the fractions of a step at which k2, k3 and k4 are taken
_C = np.array([0.5, 0.75, 1.0])[:, None, None]


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float = bounded()
    sample_dt: float = bounded(gt=0.0)
    t0: float = bounded(0.0)
    rtol: float = bounded(1e-6, gt=0.0)
    atol: float = bounded(1e-9, gt=0.0)
    h_init: Optional[float] = bounded(None, gt=0.0)
    h_max: Optional[float] = bounded(None, gt=0.0)
    collision_margin: float = bounded(1e-9, ge=0.0)

    def __post_init__(self):
        check_fields(self)
        if self.t_end <= self.t0:
            raise ValueError("t_end: must exceed t0")


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
    """Where a run stopped on its event: located time and state."""

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

    # each fold over the samples is computed on first read: a sweep reads only spread_v
    @cached_property
    def spread_v(self) -> np.ndarray:
        return spreads(self.vs)

    @cached_property
    def spread_x(self) -> np.ndarray:
        return spreads(self.xs)

    @cached_property
    def min_dist_sq(self) -> np.ndarray:
        out = np.empty(len(self.ts))
        for lo, d2 in pair_distances_sq(self.xs):
            d2.min(axis=1, initial=np.inf, out=out[lo : lo + len(d2)])
        return out


def _sample_count(t0: float, t_end: float, dt: float) -> int:
    return math.ceil((t_end - t0) / dt - 1e-12) + 1


def _sample_grid(t0: float, t_end: float, dt: float) -> np.ndarray:
    grid = t0 + dt * np.arange(_sample_count(t0, t_end, dt) - 1)
    return np.append(grid, t_end)


def batch_size(n: int, r: int, cfg: IntegratorConfig) -> int:
    """Most members of one `integrate_batch` call that fit BATCH_BYTES together.

    A member holds its samples and 4 * BLOCK states of dense-output points
    (both ends of BLOCK attempts), a state being 2nr floats.  A flush's
    Hermite passes are not charged: each fits PASS_BYTES, whatever the
    block's size.
    """
    # counted, not built: a grid too big to build fails in each run alone
    samples = _sample_count(cfg.t0, cfg.t_end, cfg.sample_dt)
    return max(1, BATCH_BYTES // ((samples + 4 * BLOCK) * 2 * n * r * 8))


def _hermite_weights(theta, h):
    """Cubic Hermite weights of (y0, f0, y1, f1) at fractions theta of steps h.

    theta is a float array and h a float or an array of its shape.  Each
    (1 - theta)**2 goes through libm's pow, element by element, as
    Python's float `**` does: an array square can differ from pow by an
    ulp in about one of 1000 thetas.  So each element has the bits of the
    scalar formula at its theta.
    """
    sq = np.array([b**2 for b in (1.0 - theta).tolist()])
    return (
        (1.0 + 2.0 * theta) * sq,
        theta * sq * h,
        theta * theta * (3.0 - 2.0 * theta),
        theta * theta * (theta - 1.0) * h,
    )


def _hermite_rows(basis, theta, h):
    """One Hermite state per theta, w0 y0 + w1 f0 + w2 y1 + w3 f1 summed left to right.

    basis is (4, m, N), or broadcasts to it: row i's (y0, f0, y1, f1) are
    basis[:, i].  theta is an (m,) array and h a float or an (m,) array.
    An axis-0 reduction adds the four weighted terms in order.
    """
    weights = np.array(_hermite_weights(theta, h))[:, :, None]
    return np.add.reduce(weights * basis, axis=0)


def _fill(samples, grid, points, steps, starts, hs, lo, hi, base) -> None:
    """Fill the grid samples lo[s]..hi[s] - 1 of every recorded step s.

    Step s runs from starts[s] over hs[s]; its (y0, f0, y1, f1) are
    points[:, steps[s]], and its sample i lands in row base[s] + i of the
    2-D `samples`.  Each sample has the bits `_hermite_rows` gives its step
    alone.  A `_hermite_rows` call fills as many samples as fit PASS_BYTES
    at nine states each (the gathered basis, its weighted terms and their
    sum), or one, so the temporaries grow neither with the number of
    samples the steps reach nor with the state size.
    """
    # number the samples to fill 0..total-1, step by step: step s has
    # the numbers bounds[s] - counts[s] up to bounds[s] - 1
    counts = hi - lo
    bounds = np.cumsum(counts)
    shift = lo - (bounds - counts)  # a sample's grid index, less its number
    at = shift + base  # its row in samples, less its number
    total = int(counts.sum())
    per_pass = max(1, PASS_BYTES // (9 * points[0, 0].nbytes))
    for first in range(0, total, per_pass):
        number = np.arange(first, min(first + per_pass, total))
        step = np.searchsorted(bounds, number, side="right")
        h = hs[step]
        theta = np.clip((grid[number + shift[step]] - starts[step]) / h, 0.0, 1.0)
        samples[number + at[step]] = _hermite_rows(points[:, steps[step]], theta, h)


class _BatchDense:
    """The sample grids of a block's members, filled from their accepted steps.

    A lone run is a block of one.  Every push writes both ends of each
    block row's attempt, (y, f) and (y_new, f_new), into one buffer of
    BLOCK * B attempts, and records each row's member, accept or reject,
    start and length.  So each accepted step holds its own Hermite basis
    and finds its own samples: the grid times past its start, up to and
    including its end, within `slack`.  The loop advances a member's time
    by the same `t + h`, so a step's samples start where its member's step
    before it stopped.  One `searchsorted` over the shared grid finds them,
    and `_fill` fills them.  A flush runs when the buffer is full, and
    must run once more when the block ends, before `kept` reads the
    samples.  A member that leaves the block makes no flush: its steps
    stay recorded, and the next flush fills their samples with the rest.
    """

    def __init__(self, grid: np.ndarray, y0: np.ndarray):
        members, size = y0.shape
        self.grid = grid
        self.slack = 1e-15 * float(grid[-1] - grid[0])
        self.samples = np.empty((members, len(grid), size))
        self.samples[:, 0] = y0
        self.points = np.empty((4, BLOCK * members, size))  # (y, f, y_new, f_new) of each attempt
        self.used = 0
        self.records: list[tuple] = []  # (members, accepted, t, h) of each push

    def push(self, members, accepted, t, h, y, f, y_new, f_new) -> None:
        """Record the attempt from (t, y, f) to (t + h, y_new, f_new) of each block row.

        Row i runs member members[i]; its step is kept when accepted[i].
        """
        rows = len(y)
        if self.used + rows > self.points.shape[1]:
            self.flush()
        start, self.used = self.used, self.used + rows
        points = self.points[:, start : self.used]
        points[0], points[1], points[2], points[3] = y, f, y_new, f_new
        self.records.append((members, accepted, t, h))

    def flush(self) -> None:
        if not self.records:
            return
        members, accepted, starts, hs = map(np.concatenate, zip(*self.records))
        self.records, self.used = [], 0
        steps = np.flatnonzero(accepted)  # the buffer rows of the accepted steps
        members, starts, hs = members[steps], starts[steps], hs[steps]
        lo, hi = np.searchsorted(self.grid, (starts + self.slack, starts + hs + self.slack), "right")
        if (hi == lo).all():  # no step reaches a sample
            return
        samples = self.samples.reshape(-1, self.samples.shape[-1])  # member b's grid at row b * k
        base = members * len(self.grid)
        _fill(samples, self.grid, self.points, steps, starts, hs, lo, hi, base)

    def kept(self, member: int, t: float, term, y):
        """(sample_ts, sample_ys) of a member that stopped at time t with term at state y.

        Read after the block's last flush, which fills the samples up to t.
        A completed run fills the grid's tail, within rounding of t_end, with
        its last state y; an event run keeps the samples up to t*.
        """
        if isinstance(term, EventHit):
            keep = np.searchsorted(self.grid, term.t_star, "right")
        else:
            keep = np.searchsorted(self.grid, t + self.slack, "right")
        samples = self.samples[member]
        if isinstance(term, Completed):
            samples[keep:] = y
            keep = len(self.grid)
        return self.grid[:keep], samples[:keep]


def _attempt(f, t, h, y: np.ndarray, stages: np.ndarray):
    """One attempt at a step of each row of the (B, N) block y, whose slopes are stages[0].

    t and h are (B,) arrays.  Fills the stages k2..k4 and returns the
    third-order states and each row's max|E k|, the max-norm of its error
    estimate before its factor h.
    """
    # indexed: unpacking the block iterates over it, which costs more
    k1, k2, k3, k4 = stages[0], stages[1], stages[2], stages[3]
    hs = _C * h[:, None]  # (0.5 h, 0.75 h, h) as (B, 1) columns: 1.0 * h is h
    times = t[:, None] + hs
    k2[...] = f(times[0], y + hs[0] * k1)
    k3[...] = f(times[1], y + hs[1] * k2)
    y_new = y + hs[2] * np.add.reduce(_B_HIGH * stages[:3], axis=0)
    k4[...] = f(times[2], y_new)
    return y_new, np.maximum.reduce(np.abs(np.add.reduce(_E * stages, axis=0)), axis=1)


def _step_factor(err_norm: float) -> float:
    """The step-size controller: h's factor after an attempt with this error norm."""
    if err_norm == 0.0:  # estimate cancelled to zero: open up fully
        return 5.0
    return min(5.0, max(0.2, 0.9 * err_norm ** (-1.0 / 3.0)))


def _locate_event(event, t: float, h: float, y, k1, y_new, k4, sample_dt: float):
    """(t*, y*) where the event fires first in the accepted step, or None.

    The dense output is scanned at sample resolution, but at most 1024
    points per step: a step that reaches up to 1024 samples cannot jump over
    an excursion past the threshold that a sample would catch, and a longer
    step is scanned more coarsely.  The scan's states are built as many at
    a time as fit PASS_BYTES at nine states each.  The first bracket of a
    sign change is then bisected.
    """
    n_scan = max(1, min(1024, math.ceil(h / sample_dt - 1e-12)))
    basis = np.array((y, k1, y_new, k4))[:, None]
    per_pass = max(1, PASS_BYTES // (9 * y.nbytes))

    def scan():
        for first in range(0, n_scan, per_pass):
            theta = np.arange(first + 1, min(first + per_pass, n_scan) + 1) / n_scan
            yield from zip(theta.tolist(), _hermite_rows(basis, theta, h))

    def state(theta: float):
        return _hermite_rows(basis, np.array([theta]), h)[0]

    lo = 0.0
    for hi, y_th in scan():
        if event(t + hi * h, y_th) <= 0.0:
            break
        lo = hi
    else:
        return None
    for _ in range(20):  # event(t + lo*h) > 0 >= event(t + hi*h)
        mid = 0.5 * (lo + hi)
        if event(t + mid * h, state(mid)) > 0.0:
            lo = mid
        else:
            hi = mid
    return t + hi * h, state(hi)


def _lockstep(rhs_for, y: np.ndarray, cfgs, events) -> list:
    """Step the rows of the (B, N) block y in lockstep; see the module docstring.

    Row b starts at y[b] under cfgs[b], which share one sample grid, and
    watches events[b] (a scalar function of (t, state), positive away from
    the event) or None.  rhs_for(live) is the RHS of the members live: it
    takes their (b, 1) times and (b, N) block.  Returns each member's
    (sample_ts, sample_ys, termination, n_accepted, n_rejected), where
    termination is Completed, StepSizeUnderflow or EventHit and the
    counters are ints.
    """
    t_end, sample_dt = cfgs[0].t_end, cfgs[0].sample_dt
    span = t_end - cfgs[0].t0
    # positive, so a clamped h >= h_floor also says the row has time left
    h_floor = max(UNDERFLOW_FACTOR * span, math.ulp(0.0))
    live = np.arange(len(y))  # row i runs member live[i]
    f = rhs_for(live)
    stages = np.empty((4, *y.shape))
    t = np.array([cfg.t0 for cfg in cfgs])
    stages[0] = f(t[:, None], y)
    dense = _BatchDense(_sample_grid(cfgs[0].t0, t_end, sample_dt), y)
    h_max = np.array([span if cfg.h_max is None else cfg.h_max for cfg in cfgs])
    h = np.array([
        min(hm, span / 1000.0) if cfg.h_init is None else cfg.h_init
        for cfg, hm in zip(cfgs, h_max.tolist())
    ])
    atol, rtol = np.array([cfg.atol for cfg in cfgs]), np.array([cfg.rtol for cfg in cfgs])
    n_accepted = np.zeros(len(y), dtype=np.intp)
    attempts = 0  # every row in the block makes every attempt
    stopped = [None] * len(y)  # each member's (time, termination, last state, counters)
    hits: dict[int, EventHit] = {}  # rows whose last step ended on the event
    while True:
        # clamp h; rows that cannot attempt a step stop
        left = t_end - t
        clamped = np.minimum(h, h_max)
        np.minimum(clamped, left, out=clamped)
        going = clamped >= h_floor
        if hits:
            going[list(hits)] = False
        if not all(going.tolist()):
            for i in np.flatnonzero(~going).tolist():
                if i in hits:
                    term = hits[i]
                elif t[i] < t_end and left[i] >= h_floor:
                    term = StepSizeUnderflow(t=float(t[i]))
                else:
                    term = Completed()
                # y is replaced below and never written again, so the view y[i] stays put
                stopped[live[i]] = (
                    t[i], term, y[i], int(n_accepted[i]), attempts - int(n_accepted[i])
                )
            hits = {}
            rows = np.flatnonzero(going)
            if not rows.size:
                break
            # stopped members leave the block; their recorded steps stay in `dense`
            live, y, t, clamped, h_max, atol, rtol, n_accepted = (
                a[rows] for a in (live, y, t, clamped, h_max, atol, rtol, n_accepted)
            )
            events = [events[i] for i in rows.tolist()]
            k1 = stages[0, rows]
            stages = np.empty((4, *y.shape))
            stages[0] = k1
            f = rhs_for(live)
        h = clamped
        y_new, err = _attempt(f, t, h, y, stages)
        attempts += 1
        # accept or reject: max|h * e| is h * max|e| bit for bit, as rounding
        # is monotone and symmetric in sign, so one multiply by h replaces
        # the vector one.  A row's error scale changes only with its state
        scale = atol + rtol * np.maximum.reduce(np.abs(y), axis=1)
        err_norm = h * err / scale
        accepted = err_norm <= 1.0
        factor = np.fromiter(map(_step_factor, err_norm.tolist()), float, len(err_norm))
        k1, k4 = stages[0], stages[3]
        if events[0] is not None:
            t_list, h_list = t.tolist(), h.tolist()
            for i in np.flatnonzero(accepted).tolist():
                hit = _locate_event(
                    events[i], t_list[i], h_list[i], y[i], k1[i], y_new[i], k4[i], sample_dt
                )
                if hit is not None:
                    hits[i] = EventHit(*hit)
        dense.push(live, accepted, t, h, y, k1, y_new, k4)
        t = np.where(accepted, t + h, t)
        y = np.where(accepted[:, None], y_new, y)  # a state f was given is never written
        np.copyto(k1, k4, where=accepted[:, None])  # first-same-as-last
        n_accepted += accepted
        h = h * factor
    dense.flush()  # a stopped member's samples are read after it
    return [
        (*dense.kept(m, t_stop, term, y_end), term, acc, rej)
        for m, (t_stop, term, y_end, acc, rej) in enumerate(stopped)
    ]


def integrate_flat(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    cfg: IntegratorConfig,
    event: Optional[Callable[[float, np.ndarray], float]] = None,
):
    """One run on flat vectors: the lockstep loop on a block of one.

    f(t, y) takes a float time and an (N,) state.  Returns (sample_ts,
    sample_ys, termination, n_accepted, n_rejected), where termination is
    Completed, StepSizeUnderflow or EventHit.  `event` is a scalar function
    that is positive away from the event; a non-positive value at the end
    of an accepted step triggers bisection.
    """
    def rhs_for(live):
        return lambda t, y: f(t.item(), y[0])  # an (N,) slope fills its stage row

    return _lockstep(rhs_for, np.array(y0, dtype=float)[None], [cfg], [event])[0]


def _start(spec: ModelSpec, state0: FlockState, cfg: IntegratorConfig):
    """(y0, cfg from state0's time, collision event or None) of one run."""
    n, r = spec.n, spec.r
    if (state0.n, state0.r) != (n, r):
        raise ValueError("initial state shape does not match the model spec")
    y0 = pack(np.asarray(state0.x), np.asarray(state0.v))
    cfg = replace(cfg, t0=state0.t)
    if spec.repulsion is None:
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

    A spec that holds a repulsion is watched for the smallest squared pair
    distance crossing d0 + collision_margin; the initial state must sit
    strictly outside that band.
    """
    y0, cfg, event = _start(spec, state0, cfg)
    return _trajectory(spec, cfg, *integrate_flat(flat_rhs(spec), y0, cfg, event))


def _grid_key(state0: FlockState, cfg: IntegratorConfig) -> tuple:
    """A run's sample grid: t0 (its state's time), t_end and sample_dt."""
    return state0.t, cfg.t_end, cfg.sample_dt


def integrate_batch(specs, states0, cfgs) -> list:
    """Integrate B flocks in lockstep, as one block; see the module docstring.

    Member b's result is `integrate(specs[b], states0[b], cfgs[b])` bit for
    bit, or the exception that call raises at the member's start; such a
    member never enters the block, and no member can fail the others.  The
    specs must share one `models.batch_key`, and the members one sample
    grid (`_grid_key`).
    """
    if not specs or not len(specs) == len(states0) == len(cfgs):
        raise ValueError("integrate_batch needs one state and one config per spec")
    if len({_grid_key(state0, cfg) for state0, cfg in zip(states0, cfgs)}) > 1:
        raise ValueError("integrate_batch members must share t0, t_end and sample_dt")
    out = [_caught(_start, *run) for run in zip(specs, states0, cfgs)]
    entered = [b for b, start in enumerate(out) if not isinstance(start, Exception)]
    if not entered:
        return out
    specs = [specs[b] for b in entered]
    y0s, cfgs, events = zip(*(out[b] for b in entered))

    def rhs_for(live):
        return batch_rhs([specs[b] for b in live.tolist()])

    runs = _lockstep(rhs_for, np.stack(y0s), cfgs, events)
    for b, spec, cfg, run in zip(entered, specs, cfgs, runs):
        out[b] = _trajectory(spec, cfg, *run)
    return out


def _caught(fn, *run):
    """fn (`integrate` or `_start`) on one run, or the exception it raises."""
    try:
        return fn(*run)
    except Exception as exc:  # a run's own failure is its result
        return exc


def _block(runs):
    """The results of one block's runs: several step together, one runs alone."""
    if len(runs) > 1:
        return integrate_batch(*zip(*runs))
    return [_caught(integrate, *run) for run in runs]


def integrate_runs(runs):
    """Integrate (spec, state0, cfg) runs of any kinds and grids; yield (index, result) per block.

    Runs that share a `models.batch_key` and a sample grid are cut, in
    index order, into near-equal blocks of at most `batch_size` runs.  A
    block of several goes through `integrate_batch`, and a lone run through
    `integrate`: both run the one loop, and `flat_rhs` costs less than
    `batch_rhs` of one.  Run i's result is
    `integrate(*runs[i])`, bit for bit, or the exception that call raises;
    each run is started once.  A block is integrated when its first
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
