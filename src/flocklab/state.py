"""Flock state container and spread diagnostics.

The spread of a set of vectors is the largest per-coordinate range.  It is
the quantity every alignment estimate in this package is phrased in, so the
helpers here are deliberately small and allocation-light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


def _as_stack(y) -> np.ndarray:
    """y as (n, r) agents, or (B, n, r) for a batch of B flocks; (n,) reads as r = 1."""
    y = np.asarray(y, dtype=float)
    return y[:, None] if y.ndim == 1 else y


def _as_2d(y) -> np.ndarray:
    y = _as_stack(y)
    if y.ndim != 2:
        raise ValueError(f"expected (n, r) array, got shape {y.shape}")
    return y


# numpy's `array ** float` takes a fast path at these exponents (sqrt, square,
# reciprocal, ...) that can differ in the last bit from np.power
_FAST_EXPONENTS = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
# the same, with a sentinel past the end for searchsorted's last index
_FAST_LOOKUP = np.append(_FAST_EXPONENTS, np.inf)


def power(base: np.ndarray, exponent):
    """base ** exponent, for a float or a (B, 1, 1) array of per-member exponents.

    Member b of an array exponent gets the bits of `base[b] ** e` with e its
    exponent as a float.  np.power with an array exponent has those bits
    except at numpy's fast-path exponents, so those members, found with one
    sorted lookup, take the float form.
    """
    if not isinstance(exponent, np.ndarray):
        return base**exponent
    out = np.power(base, exponent)
    flat = exponent.ravel()
    fast = _FAST_LOOKUP.take(_FAST_EXPONENTS.searchsorted(flat)) == flat
    for b in fast.nonzero()[0].tolist():
        out[b] = base[b] ** float(flat[b])
    return out


def libm(fn, t):
    """fn (math.sin, math.cos) of a float, or of each element of an array.

    An array goes through Python's math call element by element, so each
    element has the bits the float call gives.
    """
    if isinstance(t, np.ndarray):
        return np.fromiter(map(fn, t.ravel().tolist()), float, t.size).reshape(t.shape)
    return fn(t)


def spread_dim(y, dim: int) -> float:
    """Range max - min of coordinate `dim` (zero based) over all agents."""
    y = _as_2d(y)
    n, r = y.shape
    if not 0 <= dim < r:
        raise ValueError(f"dim {dim} out of range for r={r}")
    col = y[:, dim]
    return float(col.max() - col.min())


def spread(y) -> float:
    """Largest per-coordinate range over all agents (the spread S(y))."""
    return float(spreads(_as_2d(y)))


def spreads(y: np.ndarray) -> np.ndarray:
    """S of an (n, r) flock as a 0-d array, or of each flock of a (B, n, r) batch."""
    return (y.max(axis=-2) - y.min(axis=-2)).max(axis=-1)


@dataclass(frozen=True)
class SpreadReport:
    """Spread with the witnesses that attain it.

    Indices are zero based.  `i` is the agent holding the maximal
    coordinate, `j` the agent holding the minimal one, `dim` the coordinate.
    Ties resolve to the smallest (dim, i, j) lexicographically.
    """

    value: float
    per_dim: np.ndarray
    dim: int
    i: int
    j: int


def spread_report(y) -> SpreadReport:
    y = _as_2d(y)
    per_dim = y.max(axis=0) - y.min(axis=0)
    dim = int(np.argmax(per_dim))  # first maximal coordinate
    i = int(np.argmax(y[:, dim]))
    j = int(np.argmin(y[:, dim]))
    return SpreadReport(value=float(per_dim[dim]), per_dim=per_dim, dim=dim, i=i, j=j)


def pairwise_distance_sq(x, i: int, j: int) -> float:
    """Squared Euclidean distance between agents i and j (zero based)."""
    x = _as_2d(x)
    if i == j:
        raise ValueError("pairwise distance needs two distinct agents")
    d = x[i] - x[j]
    return float(d @ d)


def pair_differences(y) -> np.ndarray:
    """Pair differences y_i - y_j, coordinate major: shape (r, n, n).

    Entry [k, i, j] is y[i, k] - y[j, k].  Each coordinate's n x n block is
    contiguous, so the subtraction and every product on it run over n * n
    adjacent entries instead of an inner axis of length r.  A (B, n, r)
    batch gives (r, B, n, n).
    """
    y = _as_stack(y)
    yt = np.ascontiguousarray(y.T if y.ndim == 2 else y.transpose(2, 0, 1))
    return yt[..., :, None] - yt[..., None, :]


def pair_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a[k] * b[k] over the leading (coordinate) axis.

    The sum runs in the order numpy's einsum uses for a short contiguous axis
    in x86-64 builds, whose baseline vectors hold two float64 lanes: one
    running sum over the even coordinates, one over the odd, then
    even + odd.  For r <= 7 that reproduces the values of
    `np.einsum("ijk,ijk->ij", ...)` on the coordinate-last layout bit for
    bit; from r = 8 einsum unrolls its loop and sums in another order, and
    the two agree to a few ulp.  A zero sum keeps its sign here, where
    einsum, accumulating from +0.0, returns +0.0.
    """
    even = a[0] * b[0]
    for k in range(2, a.shape[0], 2):
        even += a[k] * b[k]
    if a.shape[0] == 1:
        return even
    odd = a[1] * b[1]
    for k in range(3, a.shape[0], 2):
        odd += a[k] * b[k]
    even += odd
    return even


def distance_sq_matrix(x) -> np.ndarray:
    """All pairwise squared distances; diagonal is zero."""
    d = pair_differences(x)
    return pair_dot(d, d)


@lru_cache(maxsize=8)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (i, j) indices of the pairs i < j, read-only."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def min_pair_distance_sq(x):
    """Smallest squared distance over distinct pairs, with its pair; see `closest_pair`."""
    return closest_pair(distance_sq_matrix(_as_2d(x)))


def closest_pair(d2: np.ndarray):
    """(value, i, j) of the smallest pair entry of a `distance_sq_matrix`.

    i < j; ties resolve to the smallest (i, j).
    """
    n = d2.shape[0]
    if n < 2:
        raise ValueError("need at least two agents for a pairwise minimum")
    iu, ju = _upper_pairs(n)
    vals = d2[iu, ju]
    k = int(np.argmin(vals))
    return float(vals[k]), int(iu[k]), int(ju[k])


@dataclass
class FlockState:
    """Positions and velocities of n agents in r dimensions at time t.

    Arrays are copied on construction and frozen so states can be shared
    between certificates, integrators and reports without aliasing bugs.
    """

    t: float
    x: np.ndarray
    v: np.ndarray
    n: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        x = _as_2d(self.x).copy()
        v = _as_2d(self.v).copy()
        if x.shape != v.shape:
            raise ValueError(f"x shape {x.shape} != v shape {v.shape}")
        if not (np.isfinite(x).all() and np.isfinite(v).all()):
            raise ValueError("state contains non-finite entries")
        if x.shape[0] < 1:
            raise ValueError("need at least one agent")
        x.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "n", x.shape[0])
        object.__setattr__(self, "r", x.shape[1])

    def spread_x(self) -> float:
        return spread(self.x)

    def spread_v(self) -> float:
        return spread(self.v)
