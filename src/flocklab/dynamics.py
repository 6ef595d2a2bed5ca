"""Internal agent dynamics, their worst-case alignment penalty, repulsion.

The certificates need one scalar per dynamics model: the largest value of

    k(t, l, y, w) = int_0^1 dg_l/dz_l (t, q y + (1-q) w) dq
                    + sum_{h != l} | int_0^1 dg_l/dz_h (t, q y + (1-q) w) dq |

over the operating region.  The segment integrals are done with 16-point
Gauss-Legendre; when the Jacobian entries are affine in the state they equal
the entry at the segment midpoint, so the regional maximum is attained at
box corners and can be computed exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# map from [-1, 1] to [0, 1]
_GL_Q = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS

_FD_STEP = 1e-6


@dataclass(frozen=True)
class InternalDynamics:
    """Per-agent velocity generator v_i' = g(t, v_i) + coupling.

    `g` acts on the last axis: given one agent's (r,) velocity it returns
    (r,), and given all agents' (n, r) velocities it returns (n, r) whose row
    i equals g(t, v_i) bit for bit.  Write it with `z[..., k]` for coordinate
    k so that one call covers the whole flock.

    `jacobian` takes one (r,) velocity and is optional; central finite differences with step
    1e-6 * max(1, |z|) fill in when it is absent.  `jacobian_affine` marks
    models whose Jacobian entries are affine in z, enabling exact corner
    maximisation in k_region.  `box` is an (r, 2) array of a compact
    invariant region when one is known.
    """

    name: str
    dim: int
    g: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    jacobian_affine: bool = False
    box: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dynamics dimension must be >= 1")
        if self.box is not None:
            box = np.asarray(self.box, dtype=float)
            if box.shape != (self.dim, 2) or not (box[:, 0] <= box[:, 1]).all():
                raise ValueError("box must be (r, 2) with lo <= hi")
            box = box.copy()
            box.setflags(write=False)
            object.__setattr__(self, "box", box)

    def eval_jacobian(self, t: float, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, z), dtype=float)
        return _fd_jacobian(self.g, t, z)


def _fd_jacobian(g, t: float, z: np.ndarray) -> np.ndarray:
    h = _FD_STEP * max(1.0, float(np.linalg.norm(z)))
    r = z.size
    jac = np.empty((r, r))
    for h_idx in range(r):
        zp = z.copy()
        zm = z.copy()
        zp[h_idx] += h
        zm[h_idx] -= h
        jac[:, h_idx] = (np.asarray(g(t, zp)) - np.asarray(g(t, zm))) / (2.0 * h)
    return jac


def zero_dynamics(dim: int) -> InternalDynamics:
    """No internal drive; the model reduces to pure alignment."""
    return InternalDynamics(
        name="zero",
        dim=dim,
        g=lambda t, z: np.zeros_like(z, dtype=float),
        jacobian=lambda t, z: np.zeros((dim, dim)),
        jacobian_affine=True,
        box=np.column_stack([-np.ones(dim), np.ones(dim)]),
    )


def logistic_cosine() -> InternalDynamics:
    """Scalar generator g(t, z) = cos(t) (z - 1)(z - 2) with invariant [1, 2]."""
    return InternalDynamics(
        name="logistic_cosine",
        dim=1,
        g=lambda t, z: math.cos(t) * (z - 1.0) * (z - 2.0),
        jacobian=lambda t, z: np.array([[math.cos(t) * (2.0 * z[0] - 3.0)]]),
        jacobian_affine=True,
        box=np.array([[1.0, 2.0]]),
    )


def logistic_cosine_solution(t, z0: float):
    """Closed-form solution of z' = cos(t)(z-1)(z-2) with z(0) = z0 in (1, 2)."""
    if not 1.0 < z0 < 2.0:
        raise ValueError("closed form holds for z0 strictly inside (1, 2)")
    c = (z0 - 2.0) / (z0 - 1.0)
    e = np.exp(np.sin(np.asarray(t, dtype=float)))
    return (2.0 - c * e) / (1.0 - c * e)


def logistic_cosine_envelope_bound(z0: float, n_grid: int = 4097) -> float:
    """Alignment penalty along the closed-form orbit through z0.

    For initial velocities below z0 the worst pairwise penalty is
    2 z(t) - 3 evaluated on the orbit; the maximum over one period is
    returned.  With z0 = 1.5 this is (1 - e^-1) / (1 + e^-1).
    """
    t = np.linspace(0.0, 2.0 * math.pi, n_grid)
    z = logistic_cosine_solution(t, z0)
    return float(np.max(2.0 * z - 3.0))


_LORENZ_BOX = np.array([[-17.0, 17.5], [-22.0, 24.5], [7.0, 45.0]])


def lorenz() -> InternalDynamics:
    """Classic chaotic generator with the standard trapping box."""

    def g(t, z):
        z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
        out = np.empty(z.shape)
        out[..., 0] = 10.0 * (z1 - z0)
        out[..., 1] = -z1 + z0 * (28.0 - z2)
        out[..., 2] = -(8.0 / 3.0) * z2 + z0 * z1
        return out

    def jac(t, z):
        return np.array(
            [
                [-10.0, 10.0, 0.0],
                [28.0 - z[2], -1.0, -z[0]],
                [z[1], z[0], -8.0 / 3.0],
            ]
        )

    return InternalDynamics(
        name="lorenz", dim=3, g=g, jacobian=jac, jacobian_affine=True, box=_LORENZ_BOX.copy()
    )


BUILTIN_DYNAMICS = {
    "zero": zero_dynamics,
    "logistic_cosine": logistic_cosine,
    "lorenz": lorenz,
}


def segment_jacobian_integrals(dyn: InternalDynamics, t: float, y, w) -> np.ndarray:
    """Entrywise int_0^1 J(t, q y + (1-q) w) dq by 16-point Gauss-Legendre."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.shape != (dyn.dim,) or w.shape != (dyn.dim,):
        raise ValueError(f"segment endpoints must have shape ({dyn.dim},)")
    acc = np.zeros((dyn.dim, dyn.dim))
    for q, wt in zip(_GL_Q, _GL_W):
        acc += wt * dyn.eval_jacobian(t, q * y + (1.0 - q) * w)
    return acc


def k_pair(dyn: InternalDynamics, t: float, dim: int, y, w) -> float:
    """Alignment penalty of coordinate `dim` along the segment from w to y.

    Diagonal contribution is signed, off-diagonal contributions enter in
    absolute value.  `dim` is zero based.
    """
    if not 0 <= dim < dyn.dim:
        raise ValueError(f"dim {dim} out of range for r={dyn.dim}")
    seg = segment_jacobian_integrals(dyn, t, y, w)
    row = seg[dim]
    off = np.abs(row).sum() - abs(row[dim])
    return float(row[dim] + off)


def _row_penalties(jac: np.ndarray) -> np.ndarray:
    diag = np.diag(jac)
    return diag + np.abs(jac).sum(axis=1) - np.abs(diag)


DEFAULT_T_GRID = np.linspace(0.0, 2.0 * math.pi, 257)


def k_region(
    dyn: InternalDynamics,
    box=None,
    t_grid=None,
    samples_per_dim: int = 9,
) -> float:
    """Maximum alignment penalty over a state box and a time grid.

    For affine Jacobians the per-time maximum is attained at box corners and
    is computed exactly.  Otherwise the box is sampled on a grid and the
    result is only an estimate; a warning flags the loss of rigour.
    """
    if box is None:
        box = dyn.box
    if box is None:
        raise ValueError(f"dynamics '{dyn.name}' has no default box; pass one explicitly")
    box = np.asarray(box, dtype=float)
    if box.shape != (dyn.dim, 2):
        raise ValueError(f"box must have shape ({dyn.dim}, 2)")
    if t_grid is None:
        t_grid = DEFAULT_T_GRID

    if dyn.jacobian_affine:
        points = [box[d] for d in range(dyn.dim)]
    else:
        warnings.warn(
            "k_region sampling a non-affine Jacobian on a grid; "
            "the result is an estimate, not a certified bound",
            stacklevel=2,
        )
        points = [np.linspace(box[d, 0], box[d, 1], samples_per_dim) for d in range(dyn.dim)]

    best = -math.inf
    for t in np.atleast_1d(t_grid):
        for z in product(*points):
            jac = dyn.eval_jacobian(float(t), np.array(z))
            best = max(best, float(_row_penalties(jac).max()))
    return best


@dataclass(frozen=True, eq=False)
class RepulsionModel:
    """Singular pair repulsion f_ij(s) = C_ij / (s - d0) ** phi on s > d0.

    `s` is a squared distance.  phi > 1 makes the near-wall integral diverge
    (no pair can reach separation d0) while every tail integral stays finite.
    `coeffs` is an (n, n) matrix of positive C_ij; the diagonal is ignored.
    """

    d0: float
    phi: float
    coeffs: np.ndarray

    def __post_init__(self):
        if self.d0 <= 0:
            raise ValueError("repulsion threshold d0 must be > 0")
        if self.phi <= 1.0:
            raise ValueError("repulsion exponent phi must be > 1")
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("coeffs must be a square matrix")
        off = ~np.eye(coeffs.shape[0], dtype=bool)
        if coeffs.shape[0] > 1 and not (coeffs[off] > 0).all():
            raise ValueError("repulsion coefficients must be positive")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


def _require_outside(rep: RepulsionModel, s, i, j, message: str) -> None:
    """Raise `message` for the first of the broadcast pairs at s <= d0."""
    s, i, j = np.broadcast_arrays(s, i, j)
    inside = np.flatnonzero(s <= rep.d0)
    if inside.size:
        m = inside[0]
        s_m, i_m, j_m = float(s.flat[m]), int(i.flat[m]), int(j.flat[m])
        raise ValueError(message.format(s=s_m, i=i_m, j=j_m, d0=rep.d0))


def repulsion_strength(rep: RepulsionModel, s, i, j):
    """f_ij at squared distance s; errors inside the singular region.

    s, i and j broadcast together: a float for one pair, an array for an
    array of pairs, whose first pair inside d0 the error names.
    """
    _require_outside(rep, s, i, j, "pair ({i}, {j}) at squared distance {s} <= d0={d0}")
    f = rep.coeffs[i, j] / (s - rep.d0) ** rep.phi
    return f if isinstance(f, np.ndarray) else float(f)


def repulsion_tail(rep: RepulsionModel, s, i, j):
    """Tail integral int_s^inf f_ij(u) du, closed form; broadcasts like repulsion_strength."""
    _require_outside(rep, s, i, j, "tail undefined at squared distance {s} <= d0={d0}")
    tail = rep.coeffs[i, j] * (s - rep.d0) ** (1.0 - rep.phi) / (rep.phi - 1.0)
    return tail if isinstance(tail, np.ndarray) else float(tail)
