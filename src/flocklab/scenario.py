"""Declarative scenario files: validation, materialization, wiring.

A scenario is a UTF-8 JSON document naming a model variant, its parameter
blocks, the initial condition (explicit or generated), integrator settings,
and an optional certificate block.  Validation is strict: unknown keys are
errors, every diagnostic carries the JSON path to the offending field.

Materialization resolves every random choice (generated initial states,
seeded coupling offsets, seeded repulsion coefficients) from independent
substreams of one master seed, so a scenario plus a seed pins the whole
run.  Substream layout: np.random.default_rng([*seed_path, block]) with one
block id per randomised quantity.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .bounds import bounded, check_fields, matrix_problem, problem, problems, rules
from .coupling import COUPLING_FAMILIES
from .certify import certify_collision, certify_standard, certify_sync
from .dynamics import (
    BUILTIN_DYNAMICS,
    InternalDynamics,
    RepulsionModel,
    k_region,
    logistic_cosine_envelope_bound,
    zero_dynamics,
)
from .integrate import IntegratorConfig
from .models import MODEL_VARIANTS, ModelSpec
from .state import FlockState, min_pair_distance_sq, spread

K_SOURCES = ("region", "trajectory", "user")

# rng substream ids, one per randomised block
_BLOCK_X = 0
_BLOCK_V = 1
_BLOCK_BETA = 2
_BLOCK_REPULSION = 3

_REJECTION_BUDGET = 10_000
_SEPARATION_HEADROOM = 1.1
_SPREAD_MATCH_TOL = 1e-12


class ScenarioError(ValueError):
    """Scenario failed validation; `diagnostics` lists path-tagged messages."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class CertificateSettings:
    k_source: Optional[str] = None
    k_value: Optional[float] = bounded(None, ge=0.0)
    relaxed: bool = False

    def __post_init__(self):
        check_fields(self)
        for text in settings_problems(vars(self)):
            raise ValueError(text)


def settings_problems(values, path="") -> list[str]:
    """`{path}{name}: {problem}` for each rule of `CertificateSettings` that values break.

    values maps field names to values, as a certificate block or the
    settings' own fields do: k_source is one of K_SOURCES or None, k_value
    is given exactly when k_source is "user", and relaxed is a boolean.
    """
    diags = []
    source = values.get("k_source")
    if source is not None and source not in K_SOURCES:
        diags.append(f"{path}k_source: must be one of {K_SOURCES}")
    if source == "user" and values.get("k_value") is None:
        diags.append(f"{path}k_value: required when k_source is 'user'")
    elif source != "user" and values.get("k_value") is not None:
        diags.append(f"{path}k_value: only valid when k_source is 'user'")
    if not isinstance(values.get("relaxed", False), bool):
        diags.append(f"{path}relaxed: must be a boolean")
    return diags


@dataclass(eq=False)
class Scenario:
    """Fully materialized scenario: every random draw already resolved.

    A run of it is `integrate(sc.spec, sc.state0, sc.integrator)`.
    """

    name: str
    seed: int
    spec: ModelSpec
    state0: FlockState  # at integrator.t0
    integrator: IntegratorConfig
    certificate: Optional[CertificateSettings]
    doc: dict  # normalized source document (defaults filled)


# ---------------------------------------------------------------------------
# validation

JSON_NUMBER = (int, float)  # what json.loads makes of a number


def _expect_keys(diags, path, block, required, optional):
    for key in block:
        if key not in required and key not in optional:
            diags.append(f"{path}{key}: unknown key")
    for key in required:
        if key not in block:
            diags.append(f"{path}{key}: required key missing")


def _number(diags, path, block, key, kind=JSON_NUMBER, **bound):
    """block[key] if it is a `kind` number in `bound` (see `bounds.problem`), else None."""
    if key not in block:
        return None
    text = problem(block[key], kind=kind, **bound)
    if text is not None:
        diags.append(f"{path}{key}: {text}")
        return None
    return block[key]


def _check_block(diags, path, block, cls, *required, n=0) -> None:
    """Report block's unknown and missing keys and its values out of range.

    The keys are `required` and cls's init fields, optional with a default;
    the ranges are the fields' own, and an (n, n) `entries` field is a draw spec.
    """
    own, _, matrices, optional = rules(cls)
    _expect_keys(diags, path, block, [*required, *own], optional)
    diags.extend(problems(cls, block, path, JSON_NUMBER))
    for name in (name for name in matrices if name in block):
        if isinstance(block[name], dict):
            _validate_draw_spec(diags, f"{path}{name}.", block[name], n, *matrices[name])
        else:
            diags.append(f"{path}{name}: must be an object")


def _matrix_or_none(diags, path, values, n):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        diags.append(f"{path}: must be an {n}x{n} matrix of numbers")
        return None
    if arr.shape != (n, n):
        diags.append(f"{path}: must have shape ({n}, {n})")
        return None
    if not np.isfinite(arr).all():
        diags.append(f"{path}: entries must be finite")
        return None
    return arr


def _validate_draw_spec(diags, path, block, n, lo_limit, hi_limit):
    """constant | explicit | seeded_uniform blocks for matrix-valued params."""
    mode = block.get("mode")
    if mode == "constant":
        _expect_keys(diags, path, block, ["mode", "value"], [])
        val = _number(diags, path, block, "value", gt=lo_limit)
        if val is not None and val >= hi_limit:
            diags.append(f"{path}value: must be < {hi_limit}")
    elif mode == "explicit":
        _expect_keys(diags, path, block, ["mode", "values"], [])
        if "values" in block:
            arr = _matrix_or_none(diags, f"{path}values", block["values"], n)
            text = arr is not None and matrix_problem(arr, lo_limit, hi_limit)
            if text:
                diags.append(f"{path}values: {text}")
    elif mode == "seeded_uniform":
        _expect_keys(diags, path, block, ["mode", "lo", "hi"], [])
        lo = _number(diags, path, block, "lo", gt=lo_limit)
        hi = _number(diags, path, block, "hi", gt=lo_limit, le=hi_limit)
        if lo is not None and hi is not None and not lo < hi:
            diags.append(f"{path}hi: must exceed lo")
    elif mode is None:
        diags.append(f"{path}mode: required key missing")
    else:
        diags.append(f"{path}mode: unknown mode {mode!r}")


def _validate_vectors(diags, path, values, n, r):
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        diags.append(f"{path}: must be numeric")
        return None
    if r == 1 and arr.shape == (n,):
        arr = arr[:, None]
    if arr.shape != (n, r):
        diags.append(f"{path}: must have shape ({n}, {r})")
        return None
    if not np.isfinite(arr).all():
        diags.append(f"{path}: entries must be finite")
        return None
    return arr


def validate(doc) -> list[str]:
    """Full schema check; returns diagnostics (empty list means valid)."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        return ["document: must be a JSON object"]

    _expect_keys(
        diags,
        "",
        doc,
        ["name", "variant", "n", "r", "seed", "coupling", "initial", "integrator"],
        ["internal", "repulsion", "certificate"],
    )
    if "name" in doc and not isinstance(doc["name"], str):
        diags.append("name: must be a string")
    variant = doc.get("variant")
    if variant is not None and variant not in MODEL_VARIANTS:
        diags.append(f"variant: must be one of {MODEL_VARIANTS}")
    n = _number(diags, "", doc, "n", int, ge=1)
    r = _number(diags, "", doc, "r", int, ge=1)
    _number(diags, "", doc, "seed", int, ge=0)

    if variant == "collision_free" and isinstance(n, int) and n < 2:
        diags.append("n: collision_free needs at least two agents")

    coupling = doc.get("coupling")
    if isinstance(coupling, dict):
        family = coupling.get("family")
        cls = COUPLING_FAMILIES.get(family) if isinstance(family, str) else None
        if cls is not None:
            _check_block(diags, "coupling.", coupling, cls, "family", n=n or 0)
        elif family is None:
            diags.append("coupling.family: required key missing")
        else:
            diags.append(f"coupling.family: unknown family {family!r}")
    elif coupling is not None:
        diags.append("coupling: must be an object")

    internal = doc.get("internal")
    if variant == "sync" and internal is None:
        diags.append("internal: required for the sync variant")
    if variant in ("baseline", "collision_free") and internal is not None:
        diags.append(f"internal: not allowed for the {variant} variant")
    if isinstance(internal, dict):
        _expect_keys(diags, "internal.", internal, ["name"], ["box"])
        name = internal.get("name")
        dyn = _builtin_dynamics(name, r if isinstance(r, int) else 1)  # a bad r is reported above
        if name is not None and dyn is None:
            diags.append(f"internal.name: unknown dynamics {name!r}")
        elif dyn is not None and isinstance(r, int) and dyn.dim != r:
            diags.append(f"internal.name: {name!r} is {dyn.dim}-dimensional but r={r}")
        if internal.get("box") is not None and isinstance(r, int):
            box = _validate_vectors(diags, "internal.box", internal["box"], r, 2)
            if box is not None and not (box[:, 0] <= box[:, 1]).all():
                diags.append("internal.box: lower bounds must not exceed upper bounds")
    elif internal is not None:
        diags.append("internal: must be an object")

    repulsion = doc.get("repulsion")
    if variant == "collision_free" and repulsion is None:
        diags.append("repulsion: required for the collision_free variant")
    if variant in ("baseline", "sync") and repulsion is not None:
        diags.append(f"repulsion: not allowed for the {variant} variant")
    if isinstance(repulsion, dict):
        _check_block(diags, "repulsion.", repulsion, RepulsionModel, n=n or 0)
    elif repulsion is not None:
        diags.append("repulsion: must be an object")

    initial = doc.get("initial")
    if isinstance(initial, dict):
        mode = initial.get("mode")
        if mode == "explicit":
            _expect_keys(diags, "initial.", initial, ["mode", "x", "v"], [])
            if isinstance(n, int) and isinstance(r, int):
                if "x" in initial:
                    _validate_vectors(diags, "initial.x", initial["x"], n, r)
                if "v" in initial:
                    _validate_vectors(diags, "initial.v", initial["v"], n, r)
        elif mode == "generate":
            _expect_keys(
                diags,
                "initial.",
                initial,
                ["mode", "spread_x", "spread_v"],
                ["x_center", "v_center"],
            )
            sx = _number(diags, "initial.", initial, "spread_x", ge=0.0)
            _number(diags, "initial.", initial, "spread_v", ge=0.0)
            for key in ("x_center", "v_center"):
                val = initial.get(key)
                if val is None:
                    continue
                if isinstance(val, JSON_NUMBER) and not isinstance(val, bool):
                    _number(diags, "initial.", initial, key)  # a scalar centre: finite
                elif isinstance(r, int):
                    _validate_vectors(diags, f"initial.{key}", val, r, 1)
            if variant == "collision_free" and sx == 0.0:
                diags.append("initial.spread_x: coincident agents violate the separation precondition")
        elif mode is None:
            diags.append("initial.mode: required key missing")
        else:
            diags.append(f"initial.mode: unknown mode {mode!r}")
    elif initial is not None:
        diags.append("initial: must be an object")

    integ = doc.get("integrator")
    if isinstance(integ, dict):
        before = len(diags)
        _check_block(diags, "integrator.", integ, IntegratorConfig)
        if len(diags) == before:  # then only a rule across fields can fail: t_end > t0
            try:
                IntegratorConfig(**integ)
            except ValueError as exc:
                diags.append(f"integrator.{exc}")
    elif integ is not None:
        diags.append("integrator: must be an object")

    cert = doc.get("certificate")
    if isinstance(cert, dict):
        if variant == "sync":
            _check_block(diags, "certificate.", cert, CertificateSettings, "k_source")
            diags.extend(settings_problems(cert, "certificate."))
            if cert.get("k_source") == "trajectory" and isinstance(internal, dict):
                if internal.get("name") != "logistic_cosine":
                    diags.append(
                        "certificate.k_source: 'trajectory' needs the logistic_cosine dynamics"
                    )
        else:
            _expect_keys(diags, "certificate.", cert, [], [])
    elif cert is not None:
        diags.append("certificate: must be an object")

    return diags


# ---------------------------------------------------------------------------
# normalization and hashing


def normalized(doc: dict) -> dict:
    """Deep copy with every optional default made explicit (idempotent).

    The integrator and certificate defaults are `IntegratorConfig`'s and
    `CertificateSettings`' own.
    """
    out = copy.deepcopy(doc)
    out["integrator"] = {**rules(IntegratorConfig)[3], **out.get("integrator", {})}
    if "internal" not in out:
        out["internal"] = None
    elif isinstance(out["internal"], dict):
        out["internal"].setdefault("box", None)
    if "repulsion" not in out:
        out["repulsion"] = None
    if "certificate" not in out:
        out["certificate"] = None
    elif isinstance(out["certificate"], dict) and out.get("variant") == "sync":
        out["certificate"] = {**rules(CertificateSettings)[3], **out["certificate"]}
    init = out.get("initial")
    if isinstance(init, dict) and init.get("mode") == "generate":
        init.setdefault("x_center", 0.0)
        init.setdefault("v_center", None)
    return out


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scenario_sha256(doc: dict) -> str:
    # imported on first use, as only `simulate` hashes; OpenSSL's `_hashlib`
    # (about 3 MiB) still loads on any scenario with seeded draws, through
    # `numpy.random`
    import hashlib

    return hashlib.sha256(canonical_json(normalized(doc)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# materialization


def _substream(seed_path, block: int) -> np.random.Generator:
    return np.random.default_rng([*seed_path, block])


def _rescale_to_spread(z: np.ndarray, target: float) -> np.ndarray:
    center = z.mean(axis=0)
    if target == 0.0:
        return np.tile(center, (z.shape[0], 1))
    current = spread(z)
    if current == 0.0:
        raise ValueError("cannot rescale coincident draws to a positive spread")
    return center + (z - center) * (target / current)


def _draw_matrix(spec: dict, n: int, rng_block, seed_path) -> np.ndarray:
    mode = spec["mode"]
    if mode == "constant":
        m = np.full((n, n), float(spec["value"]))
    elif mode == "explicit":
        m = np.asarray(spec["values"], dtype=float)
    else:
        rng = _substream(seed_path, rng_block)
        m = rng.uniform(float(spec["lo"]), float(spec["hi"]), size=(n, n))
    np.fill_diagonal(m, 1.0)  # diagonal unused downstream
    return m


@dataclass(frozen=True)
class InitialGenerator:
    """Uniform draws rescaled about the centroid to exact target spreads."""

    n: int
    r: int
    spread_x: float
    spread_v: float
    x_center: np.ndarray  # (r,)
    v_center: Optional[np.ndarray]  # ignored when v_box is given
    v_box: Optional[np.ndarray] = None  # (r, 2) containment requirement
    min_sep_sq: Optional[float] = None  # rejection threshold on squared separation


def _draw(rng, lo, hi, shape, target: float, accept, failure: str) -> np.ndarray:
    """The first uniform draw in [lo, hi), rescaled to spread target, that accept takes."""
    for _ in range(_REJECTION_BUDGET):
        cand = _rescale_to_spread(rng.uniform(lo, hi, size=shape), target)
        if accept(cand):
            return cand
    raise ValueError(f"{failure} in {_REJECTION_BUDGET} attempts")


def generate_initial(gen: InitialGenerator, seed_path) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (x0, v0); deterministic given the seed path.

    x is drawn uniform in a spread_x-wide box around x_center; v either in
    the invariant box (so the rescale shrinks and containment survives) or
    in a spread_v-wide box around v_center.  Both are rescaled about their
    centroid to hit the target spread to 1e-12.  Draws violating minimum
    separation or box containment are rejected and retried.
    """
    n, r, min_sep = gen.n, gen.r, gen.min_sep_sq
    x = _draw(_substream(seed_path, _BLOCK_X), gen.x_center - 0.5 * gen.spread_x,
              gen.x_center + 0.5 * gen.spread_x, (n, r), gen.spread_x,
              lambda x: min_sep is None or n < 2 or not min_pair_distance_sq(x)[0] <= min_sep,
              f"initial positions: no draw met min squared separation {min_sep}")
    if gen.v_box is not None:
        lo_v, hi_v = gen.v_box[:, 0], gen.v_box[:, 1]
    else:
        center = gen.v_center if gen.v_center is not None else np.zeros(r)
        lo_v, hi_v = center - 0.5 * gen.spread_v, center + 0.5 * gen.spread_v
    v = _draw(_substream(seed_path, _BLOCK_V), lo_v, hi_v, (n, r), gen.spread_v,
              lambda v: gen.v_box is None or not ((v < lo_v - 1e-12) | (v > hi_v + 1e-12)).any(),
              f"initial velocities: no draw stayed inside the invariant box with spread {gen.spread_v}")
    return x, v


def _as_center(val, r: int) -> np.ndarray:
    if val is None:
        return np.zeros(r)
    if isinstance(val, (int, float)):
        return np.full(r, float(val))
    return np.asarray(val, dtype=float).reshape(r)


def _build(cls, block: dict, n: int, seed_path, rng_block: int):
    """cls from a validated block: numbers as floats, each `entries` field drawn from its spec."""
    matrices = rules(cls)[2]
    params = {key: float(val) for key, val in block.items() if key not in ("family", *matrices)}
    params.update({key: _draw_matrix(block[key], n, rng_block, seed_path) for key in matrices})
    return cls(**params)


def _builtin_dynamics(name, r: int) -> Optional[InternalDynamics]:
    """The built-in dynamics called `name` at dimension r; None for any other name.

    Each (name, r) is built, and its g and jacobian probed, once per
    process: validation, materialization and every point of a sweep share
    the object, which is immutable.
    """
    if not isinstance(name, str) or name not in BUILTIN_DYNAMICS:
        return None
    return _build_builtin(name, r)


@lru_cache(maxsize=16)
def _build_builtin(name: str, r: int) -> InternalDynamics:
    return zero_dynamics(r) if name == "zero" else BUILTIN_DYNAMICS[name]()


def _build_internal(block, r: int) -> Optional[InternalDynamics]:
    if block is None:
        return None
    dyn = _builtin_dynamics(block["name"], r)
    box = block.get("box")
    return dyn if box is None else dyn.with_box(box)


def materialize(doc: dict, seed_path=None) -> Scenario:
    """Validated document -> Scenario with all draws resolved."""
    diags = validate(doc)
    if diags:
        raise ScenarioError(diags)
    doc = normalized(doc)
    n, r = doc["n"], doc["r"]
    seed = doc["seed"]
    if seed_path is None:
        seed_path = (seed,)

    internal = _build_internal(doc["internal"], r)
    rep, block = doc["repulsion"], doc["coupling"]
    repulsion = None if rep is None else _build(RepulsionModel, rep, n, seed_path, _BLOCK_REPULSION)
    coupling = _build(COUPLING_FAMILIES[block["family"]], block, n, seed_path, _BLOCK_BETA)

    init = doc["initial"]
    if init["mode"] == "explicit":
        x0 = np.asarray(init["x"], dtype=float).reshape(n, r)
        v0 = np.asarray(init["v"], dtype=float).reshape(n, r)
    else:
        min_sep = None
        if repulsion is not None:
            min_sep = repulsion.d0 * _SEPARATION_HEADROOM
        v_box = None
        if internal is not None and internal.box is not None:
            v_box = np.asarray(internal.box, dtype=float)
        gen = InitialGenerator(
            n=n,
            r=r,
            spread_x=float(init["spread_x"]),
            spread_v=float(init["spread_v"]),
            x_center=_as_center(init["x_center"], r),
            v_center=None if init["v_center"] is None else _as_center(init["v_center"], r),
            v_box=v_box,
            min_sep_sq=min_sep,
        )
        x0, v0 = generate_initial(gen, seed_path)
        for target, got in ((gen.spread_x, spread(x0)), (gen.spread_v, spread(v0))):
            if abs(got - target) > _SPREAD_MATCH_TOL * max(1.0, target):
                raise ValueError(f"generated spread {got} missed target {target}")

    integ = doc["integrator"]
    cfg = IntegratorConfig(**{key: None if val is None else float(val) for key, val in integ.items()})

    cert_block = doc["certificate"]
    cert = None if cert_block is None else CertificateSettings(**cert_block)

    return Scenario(
        name=doc["name"],
        seed=seed,
        spec=ModelSpec(n, r, coupling, internal, repulsion),
        state0=FlockState(t=cfg.t0, x=x0, v=v0),
        integrator=cfg,
        certificate=cert,
        doc=doc,
    )


def read_document(text: str, seed_override: Optional[int] = None):
    """Parse a scenario document and apply a seed override; no validation.

    Invalid JSON, and a seed override on a document that is not an object,
    raise ScenarioError with a `document:` diagnostic.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"document: invalid JSON ({exc})"]) from exc
    if seed_override is not None:
        if not isinstance(doc, dict):
            raise ScenarioError(["document: must be a JSON object"])
        doc = {**doc, "seed": seed_override}
    return doc


def load_scenario(text: str, seed_override: Optional[int] = None, seed_path=None) -> Scenario:
    """Parse, validate, and materialize a scenario document."""
    return materialize(read_document(text, seed_override), seed_path=seed_path)


# ---------------------------------------------------------------------------
# certificates from scenarios


@lru_cache(maxsize=32)
def _region_k(internal_json: str, r: int) -> float:
    """`k_region` of the dynamics that an `internal` block builds at dimension r."""
    return k_region(_build_internal(json.loads(internal_json), r))


def resolve_k_bound(sc: Scenario) -> tuple[float, str]:
    """K bound for a sync certificate, resolved from the configured source.

    region: the exact corner maximum of the row penalties over the
    dynamics' box (affine Jacobians), certified only where that box is
    forward invariant (the `lorenz` box is not).  trajectory: the
    closed-form orbit envelope of the logistic-cosine dynamics through the
    largest initial velocity, a diagnostic-grade estimate.  user: taken
    verbatim from the scenario.

    The region bound is memoized on the canonical JSON of the scenario's
    `internal` block and r, from which `materialize` builds `sc.spec.internal`,
    so a sweep computes it once per process instead of once per point.
    """
    if sc.certificate is None or sc.certificate.k_source is None:
        raise ValueError("scenario has no certificate block with a K source")
    source, internal = sc.certificate.k_source, sc.spec.internal
    if source == "user":
        return float(sc.certificate.k_value), "user"
    if source == "region":
        if internal is None or internal.box is None:
            raise ValueError("region K source needs internal dynamics with an invariant box")
        return _region_k(canonical_json(sc.doc["internal"]), sc.spec.r), "region"
    # trajectory: logistic_cosine only (validated on load)
    z_top = float(sc.state0.v.max())
    if not 1.0 < z_top < 2.0:
        raise ValueError("trajectory K source needs initial velocities inside (1, 2)")
    return logistic_cosine_envelope_bound(z_top), "trajectory"


def evaluate_certificate(sc: Scenario):
    """Dispatch to the certificate matching the scenario variant."""
    spec, x0 = sc.spec, sc.state0.x
    env = spec.coupling.envelope()
    s_x0 = spread(x0)
    s_v0 = spread(sc.state0.v)
    if spec.variant == "sync":
        k, source = resolve_k_bound(sc)
        return certify_sync(
            env,
            s_x0,
            s_v0,
            spec.n,
            k,
            k_source=source,
            relaxed=sc.certificate.relaxed,
        )
    if spec.variant == "collision_free":
        return certify_collision(env, spec.repulsion, x0, s_v0, spec.n)
    return certify_standard(env, s_x0, s_v0)
