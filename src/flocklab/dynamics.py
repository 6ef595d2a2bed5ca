"""Internal agent dynamics, their worst-case alignment penalty, repulsion.

The certificates need one scalar per dynamics model: an upper bound over
the operating region of

    k(t, l, y, w) = int_0^1 dg_l/dz_l (t, q y + (1-q) w) dq
                    + sum_{h != l} | int_0^1 dg_l/dz_h (t, q y + (1-q) w) dq |.

A segment average is at most the largest pointwise row penalty
dg_l/dz_l + sum_{h != l} |dg_l/dz_h| on the segment, so `k_region` takes
the maximum of that penalty over the box.  When the Jacobian entries are
affine in the state the penalty is convex, so its maximum is attained at
box corners and is computed exactly.  `g` and its Jacobian act row-wise,
so one call covers a flock, a block of corners, or a batch of flocks each
at its own time.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bounds import bounded, check_fields, entries

_FD_STEP = 1e-6
_K_BLOCK = 1024  # box points per Jacobian call in k_region: bounded memory as 2^r grows
_K_POINTS = 2**20  # the most box points k_region walks: 2^r corners double its time per dimension
SAMPLES_PER_DIM = 9  # k_region's grid points per box side where a Jacobian is not affine


@dataclass(frozen=True)
class InternalDynamics:
    """Per-agent velocity generator v_i' = g(t, v_i) + coupling.

    `g` and `jacobian` act on the last axis: given one (r,) velocity they
    return (r,) and the (r, r) matrix dg_l/dz_h, and given (m, r) velocities
    (m, r) and (m, r, r) whose row i equals the one-row call bit for bit.
    A batch of B flocks passes (B, m, r) velocities with t a (B, 1, 1)
    array of the members' times; member b must equal the call at its own
    float time.  Write them with `z[..., k]` for coordinate k and a function
    of time as a numpy ufunc of t, such as `np.cos(t)`; construction checks both
    on a two-row probe and a two-member batch, and raises ValueError for a
    per-agent function.

    `jacobian` is optional; central finite differences with step
    1e-6 * max(1, |z|) fill in when it is absent.  `jacobian_affine` marks
    models whose Jacobian entries are affine in z, enabling exact corner
    maximisation in k_region; `autonomous` marks a `g` that does not depend
    on t, so k_region takes one time.  `box` is an (r, 2) array of a compact
    invariant region when one is known.
    """

    name: str
    dim: int
    g: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    jacobian_affine: bool = False
    autonomous: bool = False
    box: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dynamics dimension must be >= 1")
        for label, fn in (("g", self.g), ("jacobian", self.jacobian)):
            if fn is not None and not _acts_row_wise(fn, self.dim):
                raise ValueError(
                    f"internal dynamics '{self.name}' must act row-wise: {label}(t, V) on "
                    f"(m, r) velocities must equal {label}(t, v_i) for each row, and on "
                    f"a (B, m, r) batch at (B, 1, 1) times equal each member's call"
                )
        if self.box is not None:
            object.__setattr__(self, "box", _checked_box(self.box, self.dim))

    def with_box(self, box) -> InternalDynamics:
        """These dynamics over another invariant box, without re-checking g and jacobian."""
        out = copy.copy(self)
        object.__setattr__(out, "box", _checked_box(box, self.dim))
        return out

    def eval_jacobian(self, t: float, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, z), dtype=float)
        return _fd_jacobian(self.g, t, z)


def _checked_box(box, dim: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.shape != (dim, 2) or not (box[:, 0] <= box[:, 1]).all():
        raise ValueError("box must be (r, 2) with lo <= hi")
    box = box.copy()
    box.setflags(write=False)
    return box


def _acts_row_wise(fn, r: int) -> bool:
    """Whether fn acts row-wise and per batch member, bit for bit.

    The probe is two rows, compared with fn on each row, and a batch of two
    members at times 0 and 1, compared with fn on each member at its time.
    """
    probe = 0.25 + np.arange(1, 2 * r + 1, dtype=float).reshape(2, r) / 3.0
    batch = np.stack([probe, probe[::-1]])
    try:
        whole = np.asarray(fn(0.0, probe))
        rows = [fn(0.0, row) for row in probe]
        members = np.asarray(fn(np.array([0.0, 1.0])[:, None, None], batch))
        last = fn(1.0, batch[1])
    except (IndexError, TypeError, ValueError):  # per-agent code: z[k] past the rows, math.*
        return False
    # array_equal is False where the shapes differ
    return np.array_equal(whole, rows) and np.array_equal(members, [whole, last])


def _fd_jacobian(g, t: float, z: np.ndarray) -> np.ndarray:
    r, k = z.shape[-1], np.arange(z.shape[-1])
    h = _FD_STEP * np.maximum(1.0, np.linalg.norm(z, axis=-1))
    # central differences from one g call per side; row k of zp is z with z_k + h
    zp = np.repeat(z[..., None, :], r, axis=-2)
    zm = zp.copy()
    zp[..., k, k] += h[..., None]
    zm[..., k, k] -= h[..., None]
    gp, gm = (np.asarray(g(t, zs.reshape(-1, r))).reshape(zs.shape) for zs in (zp, zm))
    return np.swapaxes(gp - gm, -1, -2) / (2.0 * h[..., None, None])


def zero_dynamics(dim: int) -> InternalDynamics:
    """No internal drive; the model reduces to pure alignment."""
    return InternalDynamics(
        name="zero",
        dim=dim,
        g=lambda t, z: np.zeros_like(z, dtype=float),
        jacobian=lambda t, z: np.zeros(np.shape(z) + (dim,)),
        jacobian_affine=True,
        autonomous=True,
        box=np.column_stack([-np.ones(dim), np.ones(dim)]),
    )


def logistic_cosine() -> InternalDynamics:
    """Scalar generator g(t, z) = cos(t) (z - 1)(z - 2) with invariant [1, 2]."""
    return InternalDynamics(
        name="logistic_cosine",
        dim=1,
        g=lambda t, z: np.cos(t) * (z - 1.0) * (z - 2.0),
        jacobian=lambda t, z: (np.cos(t) * (2.0 * z - 3.0))[..., None],
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


def logistic_cosine_envelope_bound(z0: float) -> float:
    """Alignment penalty along the closed-form orbit through z0.

    For initial velocities below z0 the worst pairwise penalty is
    2 z(t) - 3 evaluated on the orbit, and its maximum is returned.  z is
    (2 - c e^{sin t}) / (1 - c e^{sin t}) with c = (z0 - 2) / (z0 - 1) < 0,
    which falls as sin t rises, so the maximum is at sin t = -1, t = 3 pi / 2.
    With z0 = 1.5 this is (1 - e^-1) / (1 + e^-1).
    """
    return 2.0 * float(logistic_cosine_solution(1.5 * math.pi, z0)) - 3.0


_LORENZ_BOX = np.array([[-17.0, 17.5], [-22.0, 24.5], [7.0, 45.0]])


def lorenz() -> InternalDynamics:
    """Classic chaotic generator, with a box around its attractor.

    The box is not forward invariant: the lone flow z' = g(z) leaves it
    from each of its 8 corners before t = 2, so `k_region` over it bounds
    the penalty on the box only, not along every orbit that starts in it.
    """

    def g(t, z):
        z0, z1, z2 = z[..., 0], z[..., 1], z[..., 2]
        out = np.empty(z.shape)
        out[..., 0] = 10.0 * (z1 - z0)
        out[..., 1] = -z1 + z0 * (28.0 - z2)
        out[..., 2] = -(8.0 / 3.0) * z2 + z0 * z1
        return out

    def jac(t, z):
        out = np.empty(z.shape + (3,))
        out[..., 0, :] = (-10.0, 10.0, 0.0)
        out[..., 1, 0], out[..., 1, 1], out[..., 1, 2] = 28.0 - z[..., 2], -1.0, -z[..., 0]
        out[..., 2, 0], out[..., 2, 1], out[..., 2, 2] = z[..., 1], z[..., 0], -8.0 / 3.0
        return out

    return InternalDynamics(
        name="lorenz",
        dim=3,
        g=g,
        jacobian=jac,
        jacobian_affine=True,
        autonomous=True,
        box=_LORENZ_BOX.copy(),
    )


BUILTIN_DYNAMICS = {
    "zero": zero_dynamics,
    "logistic_cosine": logistic_cosine,
    "lorenz": lorenz,
}


def _row_penalties(jac: np.ndarray) -> np.ndarray:
    diag = np.diagonal(jac, axis1=-2, axis2=-1)
    return diag + np.abs(jac).sum(axis=-1) - np.abs(diag)


DEFAULT_T_GRID = np.linspace(0.0, 2.0 * math.pi, 257)

def k_region(dyn: InternalDynamics, box=None, t_grid=None) -> float:
    """Maximum alignment penalty over a state box and a time grid.

    For affine Jacobians the per-time maximum is attained at box corners and
    is computed exactly.  Otherwise the box is sampled on a grid and the
    result is only an estimate; a warning flags the loss of rigour.
    Autonomous dynamics are evaluated at the first time only: every time
    gives the same maximum.  Other dynamics are maximised over the grid
    times only: `DEFAULT_T_GRID`, one period 2 pi in 256 steps, is exact
    for `logistic_cosine` only because its penalty's extremes, at
    cos t = 1 and -1, fall on the grid times 0 and pi.  A box of more than
    `_K_POINTS` points (corners, or grid points a side to the power r)
    raises ValueError.
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
    times = np.atleast_1d(t_grid)
    if dyn.autonomous:
        times = times[:1]

    # point p takes grid[d, i_d] for the base-shape[0] digits i of p
    shape = (2 if dyn.jacobian_affine else SAMPLES_PER_DIM,) * dyn.dim
    n_points = math.prod(shape)
    if n_points > _K_POINTS:
        raise ValueError(f"k_region over {n_points} box points ({shape[0]} a side in "
                         f"{dyn.dim} dimensions), over the limit of {_K_POINTS}")
    if dyn.jacobian_affine:
        grid = box
    else:
        warnings.warn(
            "k_region sampling a non-affine Jacobian on a grid; "
            "the result is an estimate, not a certified bound",
            stacklevel=2,
        )
        grid = np.linspace(box[:, 0], box[:, 1], SAMPLES_PER_DIM, axis=1)

    best = -math.inf
    for start in range(0, n_points, _K_BLOCK):
        idx = np.unravel_index(np.arange(start, min(start + _K_BLOCK, n_points)), shape)
        z = grid[np.arange(dyn.dim), np.stack(idx, axis=-1)]
        for t in times:
            best = max(best, float(_row_penalties(dyn.eval_jacobian(float(t), z)).max()))
    return best


@dataclass(frozen=True, eq=False)
class RepulsionModel:
    """Singular pair repulsion f_ij(s) = C_ij / (s - d0) ** phi on s > d0.

    `s` is a squared distance.  phi > 1 makes the near-wall integral diverge
    (no pair can reach separation d0) while every tail integral stays finite.
    `coeffs` is an (n, n) matrix of positive finite C_ij; the diagonal is ignored.
    """

    d0: float = bounded(gt=0.0)
    phi: float = bounded(gt=1.0)
    coeffs: np.ndarray = entries(0.0, math.inf)

    def __post_init__(self):
        check_fields(self)


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
