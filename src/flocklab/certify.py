"""Certificates, contraction arithmetic, and trajectory audits.

A certificate turns an initial state plus a coupling envelope and an
internal-dynamics penalty bound into a yes/no answer with the numbers that
back it: the largest admissible position spread, the root d* where the
integral budget is exhausted, and the guaranteed exponential rate.

All three certificates are one tail test, `_verdict`: lhs < c int_{S(x0)}^d
psi - K (d - S(x0)) - R for some d <= d_max, the last radius where c psi(d)
still beats K.  Standard: lhs = S(v0), (c, K, R) = (1, 0, 0).  Sync: lhs =
S(v0), (n or 1, K, 0).  Collision: lhs = S(v0)/n, (1/2, 0, worst repulsion
tail).  psi > 0, so K <= 0 makes d_max infinite without a search.

Audits replay a finished trajectory against the differential inequalities
the certificates rest on.  The forward difference of the velocity spread on
the sample grid is compared with the discrete consequence of the bound,
S_k * expm1(B h) / h, rather than the linearised B * S_k: the linear form
flags exactly-tight exponential decay at any finite sample spacing.
Samples where the spread has fallen below integrator resolution are
reported as skipped instead of audited.  Each lemma, D+S(v) <= B S(v) - F,
is one function of stacked states (ts (K,), xs and vs (K, n, r)) giving B
and F as arrays: `sync_terms` (B = k - n psi(S(x)), F = 0) and
`collision_terms` (B = -rho, F = Gamma at the spread-attaining pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Optional

import numpy as np

from .coupling import Envelope, psi_integral, weights_matrix
from .dynamics import RepulsionModel, repulsion_strength, repulsion_tail
from .integrate import Trajectory
from .state import PASS_BYTES, closest_pair, distance_sq_matrix, pair_differences, pair_dot, spread, spreads

_D_STAR_TOL = 1e-10
_MAX_BISECT = 200
_PROBE_CAP = 1e15

FLOOR_FACTOR = 100.0

ROW_SUM_TOL = 1e-9  # relative spread of row sums `contraction_coefficient` accepts


@dataclass(frozen=True)
class ContractionResult:
    row_sum: float
    tau: float
    i: int  # row pair with the least overlap
    j: int


def contraction_coefficient(p) -> ContractionResult:
    """Contraction factor of a nonnegative constant-row-sum matrix.

    For any vector z, the spread of P z shrinks by at least this factor:
    tau = m - min over row pairs of sum_k min(p_ik, p_jk), with m the
    common row sum.  Guarantees spread(P z) <= tau * spread(z).
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("matrix must be square")
    if (p < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    sums = p.sum(axis=1)
    m = float(sums[0])
    if np.abs(sums - m).max() > ROW_SUM_TOL * max(1.0, abs(m)):
        raise ValueError("row sums are not constant within tolerance")
    n = p.shape[0]
    if n == 1:
        return ContractionResult(row_sum=m, tau=0.0, i=0, j=0)
    overlap = np.minimum(p[:, None, :], p[None, :, :]).sum(axis=2)
    iu, ju = np.triu_indices(n, k=1)
    k = int(np.argmin(overlap[iu, ju]))
    return ContractionResult(
        row_sum=m,
        tau=m - float(overlap[iu[k], ju[k]]),
        i=int(iu[k]),
        j=int(ju[k]),
    )


@dataclass(frozen=True)
class StandardCertificate:
    kind: ClassVar[str] = "standard"
    variant: ClassVar[str] = "baseline"
    feasible: bool
    spread_x0: float
    spread_v0: float
    tail: float  # int_{S(x0)}^inf psi


def _budget(env: Envelope, c: float, k: float, s_x0: float, d: float) -> float:
    return c * psi_integral(env, s_x0, d) - k * (d - s_x0)


def _bisect(below, lo: float, hi: float, relative: bool) -> float:
    """Bisect [lo, hi] where `below` turns false, to _D_STAR_TOL (times max(1, hi) if relative)."""
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= _D_STAR_TOL * (max(1.0, hi) if relative else 1.0):
            break
    return 0.5 * (lo + hi)


def _verdict(
    env: Envelope, c: float, k: float, s_x0: float, lhs: float, cost: float = 0.0
) -> tuple[bool, float, float]:
    """(feasible, d_max, sup) of the tail test in the module docstring, with R = cost.

    sup is the budget at d_max, its supremum (taken at _PROBE_CAP when k > 0
    and d_max is infinite).
    """
    if k <= 0.0:
        d_max = math.inf
    elif c * env.psi(s_x0) - k <= 0.0:
        d_max = s_x0
    else:
        # psi is non-increasing, so c psi - k has a single sign change
        lo, hi = s_x0, s_x0 + 1.0
        while c * env.psi(hi) - k > 0.0:
            lo, hi = hi, s_x0 + 2.0 * (hi - s_x0)
            if hi > _PROBE_CAP:
                d_max = math.inf
                break
        else:
            d_max = _bisect(lambda r: c * env.psi(r) - k > 0.0, lo, hi, relative=True)
    if math.isinf(d_max):
        tail = math.inf if k < 0.0 else psi_integral(env, s_x0, math.inf)
        sup = c * tail if k <= 0.0 or math.isinf(tail) else _budget(env, c, k, s_x0, _PROBE_CAP)
    else:
        sup = _budget(env, c, k, s_x0, d_max)
    return bool(lhs < sup - cost), d_max, sup


def certify_standard(env: Envelope, spread_x0: float, spread_v0: float) -> StandardCertificate:
    """Unconditional flocking test: the envelope tail must exceed S(v0)."""
    feasible, _, tail = _verdict(env, 1, 0.0, spread_x0, spread_v0)
    return StandardCertificate(feasible=feasible, spread_x0=spread_x0, spread_v0=spread_v0, tail=tail)


@dataclass(frozen=True)
class SyncCertificate:
    kind: ClassVar[str] = "sync"
    variant: ClassVar[str] = "sync"
    feasible: bool
    k_bound: float
    k_source: str
    relaxed: bool
    c: int
    n: int
    spread_x0: float
    spread_v0: float
    d_max: float
    d_star: Optional[float]
    epsilon: Optional[float]

    def decay_bound(self, t: np.ndarray, t0: float = 0.0) -> np.ndarray:
        if not self.feasible:
            raise ValueError("no decay bound for an infeasible certificate")
        return self.spread_v0 * np.exp(-self.epsilon * (np.asarray(t) - t0))


def certify_sync(
    env: Envelope,
    spread_x0: float,
    spread_v0: float,
    n: int,
    k_bound: float,
    k_source: str = "user",
    relaxed: bool = False,
) -> SyncCertificate:
    """Exponential alignment certificate for the driven model.

    Feasible when the integral of c psi(r) - k over [S(x0), d] exceeds
    S(v0) for some d below the last radius d_max where c psi still beats k.
    c counts the full network (c = n) or drops to 1 under the relaxed
    connectivity reading.  On success d* solves the budget equation and
    epsilon = c psi(d*) - k is the certified rate.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    c = 1 if relaxed else n
    feasible, d_max, _ = _verdict(env, c, k_bound, spread_x0, spread_v0)
    d_star = epsilon = None
    if feasible:
        budget = partial(_budget, env, c, k_bound, spread_x0)
        hi = d_max
        if math.isinf(d_max):
            hi = spread_x0 + 1.0
            while budget(hi) <= spread_v0:
                hi = spread_x0 + 2.0 * (hi - spread_x0)
        d_star = _bisect(lambda d: budget(d) < spread_v0, spread_x0, hi, relative=False)
        epsilon = c * env.psi(d_star) - k_bound
    return SyncCertificate(
        feasible=feasible,
        k_bound=k_bound,
        k_source=k_source,
        relaxed=relaxed,
        c=c,
        n=n,
        spread_x0=spread_x0,
        spread_v0=spread_v0,
        d_max=d_max,
        d_star=d_star,
        epsilon=epsilon,
    )


@dataclass(frozen=True)
class CollisionCertificate:
    kind: ClassVar[str] = "collision"
    variant: ClassVar[str] = "collision_free"
    feasible: bool
    n: int
    spread_x0: float
    spread_v0: float
    lhs: float  # S(v0) / n
    psi_term: float  # half the envelope tail from S(x0)
    repulsion_term: float  # worst pair tail at the initial separation
    separation_ok: bool
    min_dist_sq: float


def certify_collision(
    env: Envelope,
    rep: RepulsionModel,
    x0,
    spread_v0: float,
    n: int,
) -> CollisionCertificate:
    """Joint alignment and collision-avoidance certificate.

    Requires every initial squared separation strictly above d0 and
    S(v0)/n < (1/2) int_{S(x0)}^inf psi - max_pairs tail(separation).
    """
    x0 = np.asarray(x0, dtype=float)
    s_x0 = spread(x0)
    d2 = distance_sq_matrix(x0)
    min_d2, _, _ = closest_pair(d2)
    separation_ok = bool(min_d2 > rep.d0)
    lhs = spread_v0 / n

    # the repulsion tails are finite only outside d0, and an infinite one fails the test
    worst = math.inf
    if separation_ok:
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        tails = repulsion_tail(rep, d2[i, j], i, j)
        worst = float(np.max(tails, initial=0.0))
    feasible, _, psi_term = _verdict(env, 0.5, 0.0, s_x0, lhs, worst)

    return CollisionCertificate(
        feasible=feasible,
        n=n,
        spread_x0=s_x0,
        spread_v0=spread_v0,
        lhs=lhs,
        psi_term=psi_term,
        repulsion_term=worst,
        separation_ok=separation_ok,
        min_dist_sq=min_d2,
    )


# model variant -> the certificate class `scenario.evaluate_certificate` returns
CERTIFICATE_CLASSES = {
    cls.variant: cls for cls in (SyncCertificate, CollisionCertificate, StandardCertificate)
}


def resolution_floor(traj: Trajectory) -> np.ndarray:
    """Smallest velocity spread the sample grid can vouch for, per sample."""
    vs = traj.vs.reshape(len(traj.ts), -1)
    vmax = np.maximum(vs.max(axis=1), -vs.min(axis=1))  # max |v|, without a copy of |vs|
    return FLOOR_FACTOR * (traj.cfg.rtol * vmax + traj.cfg.atol)


def decay_rate_fit(
    traj: Trajectory, t_lo: Optional[float] = None, t_hi: Optional[float] = None
) -> float:
    """Observed exponential rate of the velocity spread by least squares.

    Fits log S(v) against t over [t_lo, t_hi], restricted to samples still
    above the resolution floor.  Returns the positive decay rate (negated
    slope); 0.0 for flat data.
    """
    ts = traj.ts
    sv = traj.spread_v
    mask = sv > resolution_floor(traj)
    if t_lo is not None:
        mask &= ts >= t_lo
    if t_hi is not None:
        mask &= ts <= t_hi
    mask &= sv > 0.0
    if mask.sum() < 2:
        raise ValueError("not enough resolvable samples for a rate fit")
    slope = np.polyfit(ts[mask], np.log(sv[mask]), 1)[0]
    return float(-slope) + 0.0  # flat data: -0.0 + 0.0 is 0.0


@dataclass(frozen=True)
class TrajectoryAudit:
    n_samples: int
    n_checked: int
    n_skipped: int
    n_violations: int
    worst_margin: float  # most positive (fd - bound - tol) seen; <= 0 is clean
    first_violation_t: Optional[float]


def sync_terms(env: Envelope, n: int, k_bound: float, ts, xs, vs):
    """(B, F) of the alignment lemma at stacked states: B = k - n psi(S(x)), F = 0."""
    b = np.array([k_bound - n * env.psi(s) for s in spreads(xs).tolist()])
    return b, np.zeros_like(b)


def _pair_sum(rows: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """a_ii' + a_i'i + sum_{j != i, i'} min(a_ij, a_i'j), j left to right, per state.

    rows (m, 2, n) holds rows i and i' of a; the sum is a cumsum over a row
    whose two pair entries are 0.0 (x + 0.0 is x).
    """
    m = np.arange(len(rows))
    head = rows[m, 0, pair[:, 1]] + rows[m, 1, pair[:, 0]]
    mins = np.minimum(rows[:, 0], rows[:, 1])
    mins[m, pair[:, 0]] = mins[m, pair[:, 1]] = 0.0
    return head + np.cumsum(mins, axis=-1)[:, -1]


def collision_terms(coupling, rep: Optional[RepulsionModel], ts, xs, vs):
    """(B, F) of the collision lemma at stacked states: B = -rho, F = Gamma.

    Both are `_pair_sum`s at the pair (i, i') attaining each velocity spread
    (`spread_report`'s tie rule): rho of the weights, Gamma of half the rates
    -2 f_aj (x_a - x_j).(v_a - v_j) of the repulsion tails, 0 without one.  A
    chunk of states within PASS_BYTES builds its geometry and weights once.
    """
    k, n, r = xs.shape
    b, f = np.empty(k), np.zeros(k)
    # per state: the (r, n, n) differences, their squared distances and up to
    # five n x n temporaries of pair_dot and the weights
    chunk = max(1, PASS_BYTES // ((r + 6) * n * n * 8))
    for lo in range(0, k, chunk):
        x, v, t = xs[lo : lo + chunk], vs[lo : lo + chunk], ts[lo : lo + chunk, None, None]
        m = np.arange(len(x))[:, None]
        # spread_report per state: first widest coordinate, its first max and min agent
        dim = (v.max(axis=1) - v.min(axis=1)).argmax(axis=1)
        col = np.take_along_axis(v, dim[:, None, None], axis=2)[..., 0]
        pair = np.stack([col.argmax(axis=1), col.argmin(axis=1)], axis=1)
        dx = pair_differences(x)
        d2 = pair_dot(dx, dx)
        b[lo : lo + chunk] = -_pair_sum(weights_matrix(coupling, t, x, dist_sq=d2)[m, pair], pair)
        if rep is not None:
            s = d2[m, pair]
            s[m, [0, 1], pair] = np.inf  # self pairs: strength 0, never inside d0
            dv = (v[m, pair, None] - v[:, None]).transpose(3, 0, 1, 2)
            strength = repulsion_strength(rep, s, pair[..., None], np.arange(n))
            f[lo : lo + chunk] = 0.5 * _pair_sum(-2.0 * strength * pair_dot(dx[:, m, pair], dv), pair)
    return b, f


def _run_audit(traj: Trajectory, terms) -> TrajectoryAudit:
    """Shared forward-difference audit loop.

    terms(ts, xs, vs) gives the certified growth rate B and the forcing F at
    stacked states; the audit checks (S_{k+1} - S_k)/h <= S_k expm1(max(B_k,
    B_{k+1}) h)/h - min(F_k, F_{k+1}) within 10 (rtol S_k + atol) / h.
    Steps with either end at or below the resolution floor are skipped
    before any bound is evaluated, so terms sees only the ends of the
    checked steps, in one call.
    """
    ts = traj.ts
    sv = traj.spread_v
    rtol, atol = traj.cfg.rtol, traj.cfg.atol

    stepped = np.diff(ts) > 0
    below = sv <= resolution_floor(traj)
    steps = np.flatnonzero(stepped & ~below[:-1] & ~below[1:])
    ends = np.zeros(len(ts), dtype=bool)  # both ends of every checked step
    ends[steps] = ends[steps + 1] = True
    b, f = np.zeros((2, len(ts)))
    b[ends], f[ends] = terms(ts[ends], traj.xs[ends], traj.vs[ends])

    n_violations = 0
    worst = -math.inf
    first_t = None
    for k in steps.tolist():
        h = ts[k + 1] - ts[k]
        fd = (sv[k + 1] - sv[k]) / h
        rhs = sv[k] * math.expm1(max(b[k], b[k + 1]) * h) / h - min(f[k], f[k + 1])
        tol = 10.0 * (rtol * sv[k] + atol) / h
        margin = fd - rhs - tol
        worst = max(worst, margin)
        if margin > 0.0:
            n_violations += 1
            if first_t is None:
                first_t = float(ts[k])
    n_checked = len(steps)
    return TrajectoryAudit(
        n_samples=len(ts),
        n_checked=n_checked,
        n_skipped=int(stepped.sum()) - n_checked,
        n_violations=n_violations,
        worst_margin=worst if n_checked else 0.0,
        first_violation_t=first_t,
    )


def audit_sync_run(traj: Trajectory, env: Envelope, n: int, k_bound: float) -> TrajectoryAudit:
    """Check d/dt S(v) <= (k - n psi(S(x))) S(v) sample by sample."""
    return _run_audit(traj, partial(sync_terms, env, n, k_bound))


def audit_collision_run(traj: Trajectory, coupling, rep: RepulsionModel) -> TrajectoryAudit:
    """Check d/dt S(v) <= -rho S(v) - Gamma at the spread-attaining pair."""
    return _run_audit(traj, partial(collision_terms, coupling, rep))
