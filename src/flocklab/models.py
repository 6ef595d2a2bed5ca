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
f_ij is singular at d0: at or inside it the velocity law is undefined, and
the dv rows of that pair's agents are NaN, which the stepper rejects.

`batch_rhs` is the RHS of B flocks of one kind as rows of a (B, 2nr) block,
each row at its own time and with its own parameters, and equal bit for bit
to that flock's own `flat_rhs`; `batch_key` says which flocks are of one kind.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coupling import CouplingModel, weights_matrix
from .dynamics import InternalDynamics, RepulsionModel
from .state import pair_differences, pair_dot, power, spreads

SPREAD_GUARD = 1e-12

MODEL_VARIANTS = ("baseline", "sync", "collision_free")


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
            if self.repulsion.coeffs.shape[-1] != self.n:
                raise ValueError("repulsion coefficient matrix does not match n")


def _alignment(w: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    # sum_j w_ij (v_j - v_i); diagonal of w is zero
    return np.subtract(w @ v, w.sum(axis=-1)[..., None] * v, out=out)


def _collision_weights(rep: RepulsionModel, coupling, t: float, x: np.ndarray, v: np.ndarray):
    """w + b of the collision_free velocity law, from one build of pair geometry."""
    n = x.shape[-2]
    diff_x = pair_differences(x)
    dist_sq = pair_dot(diff_x, diff_x)
    gaps = dist_sq - rep.d0
    gaps.reshape(-1, n * n)[:, :: n + 1] = 1.0  # self pairs: a placeholder outside d0
    np.copyto(gaps, np.nan, where=gaps <= 0.0)  # inside d0 the law is undefined: NaN

    w = weights_matrix(coupling, t, x, dist_sq=dist_sq)
    f = rep.coeffs / power(gaps, rep.phi)
    f.reshape(-1, n * n)[:, :: n + 1] = 0.0

    inner = pair_dot(diff_x, pair_differences(v))
    s_guard = np.maximum(spreads(v), SPREAD_GUARD)[..., None, None]
    b = -f * inner / s_guard
    return w + b


def _velocity_law(spec: ModelSpec):
    """law(t, x, v, out) writing the variant's dv into out.

    x, v and out are (n, r) with a float t, or (B, n, r) with a (B, 1, 1)
    t for a spec stacked by `batch_rhs`.
    """
    variant, coupling, rep = spec.variant, spec.coupling, spec.repulsion
    g = spec.internal.g if variant == "sync" else None

    def law(t, x: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        if variant == "collision_free":
            _alignment(_collision_weights(rep, coupling, t, x, v), v, out=out)
        elif variant == "sync":
            np.add(g(t, v), _alignment(weights_matrix(coupling, t, x), v), out=out)
        else:
            _alignment(weights_matrix(coupling, t, x), v, out=out)

    return law


def flat_rhs(spec: ModelSpec):
    """The RHS on flat vectors y = (x, v), suitable for the stepper.

    The variant and its constants are resolved once here; each call writes
    dx = v and dv into one fresh 2nr vector.
    """
    n, r = spec.n, spec.r
    nr = n * r
    law = _velocity_law(spec)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        out = np.empty(2 * nr)
        out[:nr] = y[nr:]
        law(t, y[:nr].reshape(n, r), y[nr:].reshape(n, r), out[nr:].reshape(n, r))
        return out

    return f


def _stack(models):
    """A copy of models[0] whose fields hold every member's value.

    A float field becomes a (B, 1, 1) array and an array field a stack of
    the members' arrays, so the copy's laws broadcast over a batch.
    """
    out = copy.copy(models[0])
    for fld in dataclasses.fields(out):
        vals = [getattr(m, fld.name) for m in models]
        if isinstance(vals[0], np.ndarray):
            stacked = np.stack(vals)
        else:
            stacked = np.array(vals, dtype=float)[:, None, None]
        object.__setattr__(out, fld.name, stacked)
    return out


def batch_key(spec: ModelSpec) -> tuple:
    """Variant, n, r, coupling family and `g`: what `batch_rhs` members share.

    `g` compares by identity, because one `g` drives every member.
    """
    g = spec.internal.g if spec.internal is not None else None
    return spec.variant, spec.n, spec.r, type(spec.coupling), g


def batch_rhs(specs):
    """`flat_rhs` of B flocks stepped together; see the module docstring.

    The returned f(t, y) takes a (B, 2nr) block y and a (B, 1) array t of
    the members' times.  The specs must share one `batch_key`.
    """
    first = specs[0]
    key = batch_key(first)
    if any(batch_key(spec) != key for spec in specs[1:]):
        raise ValueError(
            "batch members must share variant, n, r, coupling family and internal dynamics"
        )
    repulsion = None if first.repulsion is None else _stack([s.repulsion for s in specs])
    coupling = _stack([s.coupling for s in specs])
    law = _velocity_law(dataclasses.replace(first, coupling=coupling, repulsion=repulsion))
    n, r = first.n, first.r
    nr = n * r

    def f(t: np.ndarray, y: np.ndarray) -> np.ndarray:
        members = (len(y), n, r)
        out = np.empty(y.shape)
        out[:, :nr] = y[:, nr:]
        # each (B, nr) half reshapes to (B, n, r) as a view: only its rows are apart
        law(t[..., None], y[:, :nr].reshape(members), y[:, nr:].reshape(members),
            out[:, nr:].reshape(members))
        return out

    return f


def pack(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Flatten (x, v) into the 2nr vector the integrator works on."""
    return np.concatenate([x.ravel(), v.ravel()])


def unpack(y: np.ndarray, n: int, r: int):
    x = y[: n * r].reshape(n, r)
    v = y[n * r :].reshape(n, r)
    return x, v
