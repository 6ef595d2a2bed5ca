"""Right-hand sides of the flocking models.

Every flock obeys x_i' = v_i and one velocity law,

  v_i' = g(t, v_i) + sum_j (w_ij(t, x) + b_ij(t, x, v)) (v_j - v_i),

whose two perturbation terms are pieces a `ModelSpec` may hold: the
internal dynamics g (the sync model) or the repulsion b (the
collision_free model), never both.  A spec that holds neither is the
baseline Cucker-Smale model; the piece a spec holds is its `variant`.

b_ij = -f_ij(|x_i - x_j|^2) <x_i - x_j, v_i - v_j> / S(v).  The spread
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
    """A flock of n agents in r dimensions, its coupling and at most one perturbation."""

    n: int
    r: int
    coupling: CouplingModel
    internal: Optional[InternalDynamics] = None
    repulsion: Optional[RepulsionModel] = None

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise ValueError("need n >= 1 agents and r >= 1 dimensions")
        if self.internal is not None and self.repulsion is not None:
            raise ValueError("a model holds internal dynamics or a repulsion, not both")
        if self.internal is not None and self.internal.dim != self.r:
            raise ValueError(f"internal dynamics dimension {self.internal.dim} != r={self.r}")
        if self.repulsion is not None and self.repulsion.coeffs.shape[-1] != self.n:
            raise ValueError("repulsion coefficient matrix does not match n")

    @property
    def variant(self) -> str:
        """sync with internal dynamics, collision_free with a repulsion, else baseline."""
        if self.internal is not None:
            return "sync"
        return "baseline" if self.repulsion is None else "collision_free"


def _alignment(w: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    # sum_j w_ij (v_j - v_i); diagonal of w is zero
    return np.subtract(w @ v, w.sum(axis=-1)[..., None] * v, out=out)


def _repulsion(rep: RepulsionModel, diff_x: np.ndarray, dist_sq: np.ndarray, v: np.ndarray):
    """b of the velocity law, from the pair geometry of x."""
    n = v.shape[-2]
    gaps = dist_sq - rep.d0
    gaps.reshape(-1, n * n)[:, :: n + 1] = 1.0  # self pairs: a placeholder outside d0
    np.copyto(gaps, np.nan, where=gaps <= 0.0)  # inside d0 the law is undefined: NaN
    f = rep.coeffs / power(gaps, rep.phi)
    f.reshape(-1, n * n)[:, :: n + 1] = 0.0

    inner = pair_dot(diff_x, pair_differences(v))
    s_guard = np.maximum(spreads(v), SPREAD_GUARD)[..., None, None]
    return -f * inner / s_guard


def _velocity_law(spec: ModelSpec):
    """law(t, x, v, out) writing the spec's dv into out.

    x, v and out are (n, r) with a float t, or (B, n, r) with a (B, 1, 1)
    t for a spec stacked by `batch_rhs`.  The pair geometry of x is built
    once, for the weights and the repulsion alike.
    """
    coupling, rep = spec.coupling, spec.repulsion
    g = None if spec.internal is None else spec.internal.g

    def law(t, x: np.ndarray, v: np.ndarray, out: np.ndarray) -> None:
        diff_x = pair_differences(x)
        dist_sq = pair_dot(diff_x, diff_x)
        w = weights_matrix(coupling, t, x, dist_sq=dist_sq)
        if rep is not None:
            w = w + _repulsion(rep, diff_x, dist_sq, v)
        if g is None:
            _alignment(w, v, out=out)
        else:
            np.add(g(t, v), _alignment(w, v), out=out)

    return law


def flat_rhs(spec: ModelSpec):
    """The RHS on flat vectors y = (x, v), suitable for the stepper.

    The spec's pieces and constants are resolved once here; each call writes
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
    """What `batch_rhs` members share: n, r, coupling family, `g`, and a repulsion or none.

    `g` compares by identity, because one `g` drives every member.
    """
    g = spec.internal.g if spec.internal is not None else None
    return spec.n, spec.r, type(spec.coupling), g, spec.repulsion is None


def batch_rhs(specs):
    """`flat_rhs` of B flocks stepped together; see the module docstring.

    The returned f(t, y) takes a (B, 2nr) block y and a (B, 1) array t of
    the members' times.  The specs must share one `batch_key`.
    """
    first = specs[0]
    key = batch_key(first)
    if any(batch_key(spec) != key for spec in specs[1:]):
        raise ValueError(
            "batch members must share n, r, coupling family, internal dynamics and repulsion or none"
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
