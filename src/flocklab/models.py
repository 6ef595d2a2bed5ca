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
from .state import pair_differences, pair_dot, spread

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
        if self.variant == "collision_free":
            if self.repulsion is None:
                raise ValueError("collision_free model needs a repulsion model")
            if self.repulsion.coeffs.shape[0] != self.n:
                raise ValueError("repulsion coefficient matrix does not match n")


def _alignment(w: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    # sum_j w_ij (v_j - v_i); diagonal of w is zero
    return np.subtract(w @ v, w.sum(axis=1)[:, None] * v, out=out)


def _collision_weights(rep: RepulsionModel, coupling, t: float, x: np.ndarray, v: np.ndarray):
    """w + b of the collision_free velocity law, from one build of pair geometry."""
    n = x.shape[0]
    diff_x = pair_differences(x)
    dist_sq = pair_dot(diff_x, diff_x)
    gaps = dist_sq - rep.d0
    gaps.flat[:: n + 1] = 1.0  # self pairs: a placeholder the wall check passes
    bad = gaps <= 0.0
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SingularDistanceError(int(i), int(j), float(dist_sq[i, j]), rep.d0)

    w = weights_matrix(coupling, t, x, dist_sq=dist_sq)
    f = rep.coeffs / gaps**rep.phi
    f.flat[:: n + 1] = 0.0

    inner = pair_dot(diff_x, pair_differences(v))
    s_guard = max(spread(v), SPREAD_GUARD)
    b = -f * inner / s_guard
    return w + b


def flat_rhs(spec: ModelSpec):
    """The RHS on flat vectors y = (x, v), suitable for the stepper.

    The variant and its constants are resolved once here; each call writes
    dx = v and dv into one fresh 2nr vector.
    """
    n, r = spec.n, spec.r
    nr = n * r
    variant, coupling = spec.variant, spec.coupling
    g = spec.internal.g if variant == "sync" else None
    rep = spec.repulsion

    def f(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:nr].reshape(n, r)
        v = y[nr:].reshape(n, r)
        out = np.empty(2 * nr)
        out[:nr] = y[nr:]
        dv = out[nr:].reshape(n, r)
        if variant == "collision_free":
            _alignment(_collision_weights(rep, coupling, t, x, v), v, out=dv)
        elif variant == "sync":
            np.add(g(t, v), _alignment(weights_matrix(coupling, t, x), v), out=dv)
        else:
            _alignment(weights_matrix(coupling, t, x), v, out=dv)
        return out

    return f


def rhs(spec: ModelSpec, t: float, x: np.ndarray, v: np.ndarray):
    """(dx, dv) as (n, r) arrays at time t; a thin wrapper over `flat_rhs`."""
    y = pack(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    return unpack(flat_rhs(spec)(t, y), spec.n, spec.r)


def pack(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Flatten (x, v) into the 2nr vector the integrator works on."""
    return np.concatenate([x.ravel(), v.ravel()])


def unpack(y: np.ndarray, n: int, r: int):
    x = y[: n * r].reshape(n, r)
    v = y[n * r :].reshape(n, r)
    return x, v
