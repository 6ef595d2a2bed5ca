"""Every certificate equals the three hand-written verdicts it replaced, bit for bit.

The first section is the reference implementation: the standard, sync and
collision certificates as each once wrote its own budget, radius and
comparison, kept verbatim.  `flocklab.certify` now decides all
three with one tail test; the hypothesis tests compare every field of every
certificate with these.  The reference probes c psi - K out to _PROBE_CAP
even at K = 0, where a steep envelope overflows, so the draws keep
exponents small enough that psi stays finite out there.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flocklab import certify
from flocklab.certify import (
    _D_STAR_TOL,
    _MAX_BISECT,
    _PROBE_CAP,
    CollisionCertificate,
    StandardCertificate,
    SyncCertificate,
)
from flocklab.coupling import (
    ConstantCoupling,
    Envelope,
    ModulatedCoupling,
    PowerLawCoupling,
    psi_integral,
)
from flocklab.dynamics import RepulsionModel, repulsion_tail
from flocklab.state import closest_pair, distance_sq_matrix, spread_report

# power-law tails near exponent 1/2 converge slowly; both sides warn alike
pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


# ---------------------------------------------------------------------------
# the reference: each certificate's own verdict, as it was


def certify_standard(env: Envelope, spread_x0: float, spread_v0: float) -> StandardCertificate:
    """Unconditional flocking test: the envelope tail must exceed S(v0)."""
    tail = psi_integral(env, spread_x0, math.inf)
    return StandardCertificate(
        feasible=bool(spread_v0 < tail),
        spread_x0=spread_x0,
        spread_v0=spread_v0,
        tail=tail,
    )


def _budget(env: Envelope, c: int, k: float, s_x0: float, d: float) -> float:
    return c * psi_integral(env, s_x0, d) - k * (d - s_x0)


def _sync_radii(
    env: Envelope, c: int, k_bound: float, spread_x0: float, spread_v0: float
) -> tuple[float, Optional[float]]:
    """(d_max, d*) of the sync budget; d* is None when the budget falls short."""

    def head(r: float) -> float:
        return c * env.psi(r) - k_bound

    if head(spread_x0) <= 0.0:
        return spread_x0, None

    # locate d_max: psi is non-increasing, so head has a single sign change
    lo, hi = spread_x0, spread_x0 + 1.0
    d_max = math.inf
    while head(hi) > 0.0:
        lo = hi
        hi = spread_x0 + 2.0 * (hi - spread_x0)
        if hi > _PROBE_CAP:
            break
    else:
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            if head(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _D_STAR_TOL * max(1.0, hi):
                break
        d_max = 0.5 * (lo + hi)

    if math.isinf(d_max):
        if k_bound < 0.0:
            budget_sup = math.inf
        else:
            tail = psi_integral(env, spread_x0, math.inf)
            if math.isinf(tail):
                budget_sup = math.inf
            elif k_bound == 0.0:
                budget_sup = c * tail
            else:
                budget_sup = _budget(env, c, k_bound, spread_x0, _PROBE_CAP)
    else:
        budget_sup = _budget(env, c, k_bound, spread_x0, d_max)

    if not budget_sup > spread_v0:
        return d_max, None

    # root of the budget equation in (S(x0), d_max)
    if math.isinf(d_max):
        hi = spread_x0 + 1.0
        while _budget(env, c, k_bound, spread_x0, hi) <= spread_v0:
            hi = spread_x0 + 2.0 * (hi - spread_x0)
    else:
        hi = d_max
    lo = spread_x0
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if _budget(env, c, k_bound, spread_x0, mid) < spread_v0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _D_STAR_TOL:
            break
    return d_max, 0.5 * (lo + hi)


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
    d_max, d_star = _sync_radii(env, c, k_bound, spread_x0, spread_v0)
    feasible = d_star is not None
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
        epsilon=c * env.psi(d_star) - k_bound if feasible else None,
    )


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
    rail = spread_report(x0)
    s_x0 = float(rail.value)
    d2 = distance_sq_matrix(x0)
    min_d2, _, _ = closest_pair(d2)
    separation_ok = bool(min_d2 > rep.d0)
    lhs = spread_v0 / n
    psi_term = 0.5 * psi_integral(env, s_x0, math.inf)

    # the repulsion tails are finite only outside d0
    worst = math.inf
    if separation_ok:
        i, j = np.nonzero(~np.eye(n, dtype=bool))
        tails = repulsion_tail(rep, d2[i, j], i, j)
        worst = float(np.max(tails, initial=0.0))

    return CollisionCertificate(
        feasible=bool(separation_ok and lhs < psi_term - worst),
        n=n,
        spread_x0=s_x0,
        spread_v0=spread_v0,
        lhs=lhs,
        psi_term=psi_term,
        repulsion_term=worst,
        separation_ok=separation_ok,
        min_dist_sq=min_d2,
    )


# ---------------------------------------------------------------------------
# draws


@st.composite
def envelopes(draw, n: int) -> Envelope:
    """An envelope of one of the three families, psi finite out to _PROBE_CAP."""
    family = draw(st.sampled_from(["power_law", "modulated", "constant"]))
    if family == "power_law":
        model = PowerLawCoupling(
            gain=draw(st.floats(0.05, 20.0)),
            sigma=draw(st.floats(0.2, 3.0)),
            exponent=draw(st.floats(0.2, 4.0)),
        )
    elif family == "modulated":
        beta = np.full((n, n), draw(st.floats(0.1, 1.4)))
        model = ModulatedCoupling(
            w=draw(st.floats(0.05, 20.0)), delta=draw(st.floats(0.0, 4.0)), beta=beta
        )
    else:
        model = ConstantCoupling(w=draw(st.floats(0.05, 10.0)))
    return model.envelope()


spreads = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
penalties = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_min=True), st.floats(1.0, 20.0))


def _same(new, old) -> None:
    # a dataclass repr shows every field, and a float's repr round-trips its bits
    assert repr(new) == repr(old)


@given(st.data(), st.integers(1, 8), spreads, spreads)
@settings(max_examples=150, deadline=None)
def test_standard_certificate_equals_the_reference(data, n, s_x0, s_v0):
    env = data.draw(envelopes(n))
    _same(certify.certify_standard(env, s_x0, s_v0), certify_standard(env, s_x0, s_v0))


@given(st.data(), st.integers(1, 8), spreads, st.floats(0.0, 20.0), penalties, st.booleans())
@settings(max_examples=300, deadline=None)
def test_sync_certificate_equals_the_reference(data, n, s_x0, s_v0, k, relaxed):
    env = data.draw(envelopes(n))
    new = certify.certify_sync(env, s_x0, s_v0, n, k, relaxed=relaxed)
    _same(new, certify_sync(env, s_x0, s_v0, n, k, relaxed=relaxed))


@st.composite
def flocks(draw):
    """(x0, repulsion) of 2 to 8 agents; d0 puts some pairs inside and some outside it."""
    n, r = draw(st.integers(2, 8)), draw(st.integers(1, 3))
    x0 = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n * r, max_size=n * r)))
    coeffs = np.array(draw(st.lists(st.floats(0.01, 5.0), min_size=n * n, max_size=n * n)))
    rep = RepulsionModel(
        d0=draw(st.floats(1e-3, 4.0)), phi=draw(st.floats(1.1, 3.0)), coeffs=coeffs.reshape(n, n)
    )
    return x0.reshape(n, r), rep


@given(st.data(), flocks(), st.floats(0.0, 20.0))
@settings(max_examples=200, deadline=None)
def test_collision_certificate_equals_the_reference(data, flock, s_v0):
    x0, rep = flock
    n = x0.shape[0]
    env = data.draw(envelopes(n))
    new = certify.certify_collision(env, rep, x0, s_v0, n)
    _same(new, certify_collision(env, rep, x0, s_v0, n))
