"""Communication weight families and their certified lower envelopes.

Each family is one class that names itself (`family`, the scenario file's
key for it) and carries both of its laws: `weights(t, dist_sq)`, the
per-pair weights w_ij(t, x) from squared pair distances (also for a batch,
as `models.batch_rhs` stacks it: parameters held as per-member arrays, t a
(B, 1, 1) array and dist_sq (B, n, n)), and `envelope()`,
an Envelope holding a non-increasing psi with w_ij(t, x) >= psi(S(x)) and
the uniform upper bound w_bar.  Certificates only ever touch the envelope,
so every family carries closed-form tail integrals where they exist.
`COUPLING_FAMILIES` maps each family name to its class.

The envelope treats the position spread itself as the pairwise-distance
argument, mirroring how the certificates are normally stated.  For r > 1 a
pairwise distance can exceed the spread by up to sqrt(r); tests exercise the
sound sandwich psi(sqrt(r) * S(x)) <= w_ij <= w_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, get_args

import numpy as np

from .bounds import bounded, check_fields, entries
from .state import _as_stack, distance_sq_matrix, power

# Modulated weights draw their pair offsets beta_ij from (0, sqrt(2)), so
# (distance + beta_ij^2) < (distance + 2) always; 2.0 is the envelope offset.
BETA_SQ_SUP = 2.0

# Quadrature settings.  quad is imported where it is called: scipy.integrate
# costs more to import than the rest of the package, and only the power-law
# envelope, which has no closed-form integral, ever reaches it.
_QUAD_ABS_TOL = 1e-10


@dataclass(frozen=True)
class PowerLawCoupling:
    """w_ij(x) = gain / (sigma^2 + |x_i - x_j|^2) ** exponent."""

    family: ClassVar[str] = "power_law"
    gain: float = bounded(gt=0.0)
    sigma: float = bounded(gt=0.0)
    exponent: float = bounded(gt=0.0)
    sigma_sq: float = field(init=False, repr=False, compare=False)  # sigma**2, libm's pow

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "sigma_sq", self.sigma**2)

    def weights(self, t: float, dist_sq: np.ndarray) -> np.ndarray:
        return self.gain / power(self.sigma_sq + dist_sq, self.exponent)

    def envelope(self) -> Envelope:
        gain, sig2, b = self.gain, self.sigma_sq, self.exponent

        def psi(s: float) -> float:
            return gain / (sig2 + s * s) ** b

        def integral(lo: float, hi: float) -> float:
            if math.isinf(hi) and 2.0 * b <= 1.0:
                return math.inf
            return _quad(psi, lo, hi)

        return Envelope(psi=psi, w_bar=gain / sig2**b, integral_fn=integral)


@dataclass(frozen=True, eq=False)
class ModulatedCoupling:
    """w_ij(t, x) = w * (1.5 + 0.5 sin t) / (|x_i - x_j| + beta_ij^2) ** delta.

    `beta` is an (n, n) matrix with entries in (0, sqrt(2)); the diagonal is
    ignored.  delta >= 0 controls how fast communication decays with distance.
    """

    family: ClassVar[str] = "modulated"
    w: float = bounded(gt=0.0)
    delta: float = bounded(ge=0.0)
    beta: np.ndarray = entries(0.0, math.sqrt(2.0))
    beta_sq: np.ndarray = field(init=False, repr=False)  # beta**2, read-only

    def __post_init__(self):
        check_fields(self)
        beta_sq = self.beta**2
        beta_sq.setflags(write=False)
        object.__setattr__(self, "beta_sq", beta_sq)

    def weights(self, t: float, dist_sq: np.ndarray) -> np.ndarray:
        n, m = dist_sq.shape[-1], self.beta.shape[-1]
        if m != n:
            raise ValueError(f"beta is {m}x{m}, state has n={n}")
        dist = np.sqrt(dist_sq)
        return self.w * (1.5 + 0.5 * np.sin(t)) / power(dist + self.beta_sq, self.delta)

    def envelope(self) -> Envelope:
        # modulation minimum is 1.0, offset uses the draw-interval supremum
        # so the envelope does not depend on the realised beta matrix
        amp, delta = self.w, self.delta
        off = ~np.eye(self.beta.shape[0], dtype=bool)
        beta_min = float(self.beta[off].min()) if off.any() else 1.0

        def psi(s: float) -> float:
            return amp / (s + BETA_SQ_SUP) ** delta

        return Envelope(
            psi=psi,
            w_bar=2.0 * amp / beta_min ** (2.0 * delta),
            integral_fn=_power_tail_integral(amp, BETA_SQ_SUP, delta),
        )


@dataclass(frozen=True)
class ConstantCoupling:
    """Distance-independent weight w_ij = w; the tightest possible envelope."""

    family: ClassVar[str] = "constant"
    w: float = bounded(gt=0.0)

    def __post_init__(self):
        check_fields(self)

    def weights(self, t: float, dist_sq: np.ndarray) -> np.ndarray:
        return np.full(dist_sq.shape, self.w)

    def envelope(self) -> Envelope:
        w = self.w
        return Envelope(
            psi=lambda s: w,
            w_bar=w,
            integral_fn=_power_tail_integral(w, 0.0, 0.0),
        )


CouplingModel = PowerLawCoupling | ModulatedCoupling | ConstantCoupling

# scenario `coupling.family` -> the class it builds
COUPLING_FAMILIES = {cls.family: cls for cls in get_args(CouplingModel)}


def weights_matrix(model, t: float, x, dist_sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Full (n, n) weight matrix at time t; diagonal forced to zero.

    `dist_sq`, when given, must be `distance_sq_matrix(x)`; a caller that
    already holds the squared distances passes them to skip the rebuild.
    A stacked model (see the module docstring) with (B, n, r) positions
    gives (B, n, n).
    """
    x = _as_stack(x)
    if dist_sq is None:
        dist_sq = distance_sq_matrix(x)
    w = model.weights(t, dist_sq)  # a fresh C-ordered array, so the reshape is a view
    n = x.shape[-2]
    w.reshape(-1, n * n)[:, :: n + 1] = 0.0
    return w


@dataclass(frozen=True)
class Envelope:
    """Certified sandwich for a coupling family.

    psi is non-increasing with w_ij(t, x) >= psi(S(x)) (spread argument, see
    module docstring); w_bar bounds every weight from above.  `integral_fn`
    evaluates integrals of psi, in closed form where the family has one,
    including the divergence bookkeeping for infinite upper limits.
    """

    psi: Callable[[float], float]
    w_bar: float
    integral_fn: Callable[[float, float], float]


def _power_tail_integral(amp: float, offset: float, exponent: float):
    """Closed form for integrals of amp / (s + offset) ** exponent."""

    def integral(a: float, b: float) -> float:
        if b < a:
            raise ValueError("integral needs b >= a")
        if math.isinf(b):
            if exponent <= 1.0:
                return math.inf
            return amp * (a + offset) ** (1.0 - exponent) / (exponent - 1.0)
        if exponent == 1.0:
            return amp * math.log((b + offset) / (a + offset))
        return amp * ((b + offset) ** (1.0 - exponent) - (a + offset) ** (1.0 - exponent)) / (1.0 - exponent)

    return integral


def _quad(psi: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive quadrature of psi over [a, b]; b may be inf."""
    from scipy.integrate import quad

    val, _ = quad(psi, a, b, epsabs=_QUAD_ABS_TOL, limit=200)
    return val


def psi_integral(env: Envelope, a: float, b: float) -> float:
    """Integral of the envelope over [a, b]; b may be inf.

    Uses the envelope's `integral_fn`.  A divergent tail reports +inf.
    """
    if a < 0:
        raise ValueError("integral lower limit must be >= 0")
    if b < a:
        raise ValueError("integral needs b >= a")
    if b == a:
        return 0.0
    return env.integral_fn(a, b)
