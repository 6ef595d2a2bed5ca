"""Right-hand sides of the flocking models.

Three variants share the position equation x_i' = v_i and differ in the
velocity law:

  baseline        v_i' = sum_j w_ij(t, x) (v_j - v_i)
  sync            v_i' = g(t, v_i) + sum_j w_ij(t, x) (v_j - v_i)
  collision_free  v_i' = sum_j (w_ij(t, x) + b_ij(t, x, v)) (v_j - v_i)

with b_ij = -f_ij(|x_i - x_j|^2) <x_i - x_j, v_i - v_j> / S(v).  The spread
in the denominator is floored at SPREAD_GUARD; as velocities align both the
numerator and any |v_j - v_i| factor vanish at the same rate, so the guard
only matters in exact-consensus states where the whole term is zero anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coupling import CouplingModel, weights_matrix
from .dynamics import InternalDynamics, RepulsionModel
from .state import FlockState, spread

SPREAD_GUARD = 1e-12

MODEL_VARIANTS = ("baseline", "sync", "collision_free")


class SingularDistanceError(ValueError):
    """A pair sits at or inside the repulsion threshold; the RHS is undefined."""

    def __init__(self, i: int, j: int, dist_sq: float, d0: float):
        self.i, self.j, self.dist_sq, self.d0 = i, j, dist_sq, d0
        super().__init__(
            f"pair ({i}, {j}) at squared distance {dist_sq:.6g} <= d0={d0:.6g}"
        )


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Which variant to integrate and the pieces it needs."""

    variant: str
    n: int
    r: int
    coupling: CouplingModel
    internal: Optional[InternalDynamics] = None
    repulsion: Optional[RepulsionModel] = None

    def __post_init__(self):
        if self.variant not in MODEL_VARIANTS:
            raise ValueError(f"unknown model variant '{self.variant}'")
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 agents and r >= 1 dimensions")
        if self.variant == "sync":
            if self.internal is None:
                raise ValueError("sync model needs internal dynamics")
            if self.internal.dim != self.r:
                raise ValueError(
                    f"internal dynamics dimension {self.internal.dim} != r={self.r}"
                )
            if not _acts_row_wise(self.internal.g, self.r):
                raise ValueError(
                    f"internal dynamics '{self.internal.name}' must act row-wise: "
                    "g(t, V) on (n, r) velocities must equal g(t, v_i) for each row"
                )
        if self.variant == "collision_free":
            if self.repulsion is None:
                raise ValueError("collision_free model needs a repulsion model")
            if self.repulsion.coeffs.shape[0] != self.n:
                raise ValueError("repulsion coefficient matrix does not match n")


def _acts_row_wise(g, r: int) -> bool:
    """Whether g on a two-row probe equals g on each row, bit for bit."""
    probe = 0.25 + np.arange(1, 2 * r + 1, dtype=float).reshape(2, r) / 3.0
    rows = np.stack([np.asarray(g(0.0, row)) for row in probe])
    try:
        whole = np.asarray(g(0.0, probe))
    except (IndexError, ValueError):  # per-agent code indexing z[k] past the rows
        return False
    return whole.shape == rows.shape and bool(np.array_equal(whole, rows))


def _alignment(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    # sum_j w_ij (v_j - v_i); diagonal of w is zero
    return w @ v - w.sum(axis=1)[:, None] * v


def rhs_baseline(spec: ModelSpec, t: float, x: np.ndarray, v: np.ndarray):
    w = weights_matrix(spec.coupling, t, x)
    return v.copy(), _alignment(w, v)


def rhs_sync(spec: ModelSpec, t: float, x: np.ndarray, v: np.ndarray):
    w = weights_matrix(spec.coupling, t, x)
    return v.copy(), spec.internal.g(t, v) + _alignment(w, v)


def rhs_collision(spec: ModelSpec, t: float, x: np.ndarray, v: np.ndarray):
    rep = spec.repulsion
    diff_x = x[:, None, :] - x[None, :, :]
    dist_sq = np.einsum("ijk,ijk->ij", diff_x, diff_x)
    off = ~np.eye(spec.n, dtype=bool)
    gaps = dist_sq - rep.d0
    bad = (gaps <= 0.0) & off
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SingularDistanceError(int(i), int(j), float(dist_sq[i, j]), rep.d0)

    w = weights_matrix(spec.coupling, t, x)
    f = np.zeros_like(dist_sq)
    f[off] = rep.coeffs[off] / gaps[off] ** rep.phi

    diff_v = v[:, None, :] - v[None, :, :]
    inner = np.einsum("ijk,ijk->ij", diff_x, diff_v)
    s_guard = max(spread(v), SPREAD_GUARD)
    b = -f * inner / s_guard
    return v.copy(), _alignment(w + b, v)


_RHS = {"baseline": rhs_baseline, "sync": rhs_sync, "collision_free": rhs_collision}


def rhs(spec: ModelSpec, t: float, x: np.ndarray, v: np.ndarray):
    """Dispatch to the variant RHS; returns (dx, dv) as (n, r) arrays."""
    return _RHS[spec.variant](spec, t, x, v)


def rhs_state(spec: ModelSpec, state: FlockState):
    return rhs(spec, state.t, np.asarray(state.x), np.asarray(state.v))


def pack(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Flatten (x, v) into the 2nr vector the integrator works on."""
    return np.concatenate([x.ravel(), v.ravel()])


def unpack(y: np.ndarray, n: int, r: int):
    x = y[: n * r].reshape(n, r)
    v = y[n * r :].reshape(n, r)
    return x, v


def flat_rhs(spec: ModelSpec):
    """RHS closure on flat vectors, suitable for the stepper."""
    n, r = spec.n, spec.r
    fn = _RHS[spec.variant]

    def f(t: float, y: np.ndarray) -> np.ndarray:
        x, v = unpack(y, n, r)
        dx, dv = fn(spec, t, x, v)
        return pack(dx, dv)

    return f
