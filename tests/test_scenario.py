"""Scenario schema validation, normalization hashing, and materialization."""

from __future__ import annotations

import copy
import json
import math
from importlib.resources import files
from typing import get_args

import numpy as np
import pytest

from flocklab import scenario as scenario_module
from flocklab.certify import CERTIFICATE_CLASSES
from flocklab.coupling import COUPLING_FAMILIES, ConstantCoupling, CouplingModel, ModulatedCoupling
from flocklab.dynamics import RepulsionModel, k_region
from flocklab.integrate import IntegratorConfig
from flocklab.scenario import (
    CertificateSettings,
    InitialGenerator,
    Scenario,
    ScenarioError,
    canonical_json,
    evaluate_certificate,
    generate_initial,
    load_scenario,
    materialize,
    normalized,
    resolve_k_bound,
    scenario_sha256,
    validate,
)
from flocklab.state import spread

BUNDLED = [
    "example1_delta09",
    "example1_delta4",
    "example1_delta10",
    "example1_sweep",
    "example2_strong",
    "example2_weak",
    "example3_strong",
    "example3_weak",
    "negative_control",
]


def bundled_text(name: str) -> str:
    return (files("flocklab") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")


def base_doc() -> dict:
    return {
        "name": "probe",
        "variant": "baseline",
        "n": 3,
        "r": 2,
        "seed": 0,
        "coupling": {"family": "constant", "w": 1.0},
        "initial": {"mode": "generate", "spread_x": 2.0, "spread_v": 1.0},
        "integrator": {"t_end": 1.0, "sample_dt": 0.1},
    }


# ---------------------------------------------------------------------------
# validation diagnostics


def test_minimal_document_is_valid():
    assert validate(base_doc()) == []


def test_unknown_top_level_key():
    doc = base_doc()
    doc["frobnicate"] = 1
    assert validate(doc) == ["frobnicate: unknown key"]


def test_unknown_nested_key_reports_path():
    doc = base_doc()
    doc["coupling"]["zeta"] = 1
    assert validate(doc) == ["coupling.zeta: unknown key"]


# one valid `coupling` block per family, without its "family" key
_FAMILY_BLOCKS = {
    "power_law": {"gain": 2.0, "sigma": 1.5, "exponent": 0.75},
    "modulated": {"w": 1.0, "delta": 1.2, "beta": {"mode": "constant", "value": 1.1}},
    "constant": {"w": 0.5},
}


def test_coupling_families_name_every_coupling_class_once():
    classes = get_args(CouplingModel)
    assert len(COUPLING_FAMILIES) == len(classes)
    assert set(COUPLING_FAMILIES.values()) == set(classes)
    assert all(COUPLING_FAMILIES[cls.family] is cls for cls in classes)


@pytest.mark.parametrize("family", sorted(COUPLING_FAMILIES))
def test_each_coupling_family_materializes_to_its_class(family):
    block = _FAMILY_BLOCKS[family]
    doc = base_doc()
    doc["coupling"] = {"family": family, **block}
    assert validate(doc) == []
    coupling = materialize(doc).coupling
    assert type(coupling) is COUPLING_FAMILIES[family]
    for key, val in block.items():
        if key == "beta":
            off = ~np.eye(3, dtype=bool)
            assert (coupling.beta[off] == val["value"]).all()
        else:
            assert getattr(coupling, key) == val


def test_collision_variant_requires_repulsion():
    doc = base_doc()
    doc["variant"] = "collision_free"
    assert "repulsion: required for the collision_free variant" in validate(doc)


def test_sync_variant_requires_internal_dynamics():
    doc = base_doc()
    doc["variant"] = "sync"
    assert "internal: required for the sync variant" in validate(doc)


def test_baseline_rejects_internal_dynamics():
    doc = base_doc()
    doc["internal"] = {"name": "zero"}
    assert "internal: not allowed for the baseline variant" in validate(doc)


def _sync_doc() -> dict:
    doc = base_doc()
    doc["variant"] = "sync"
    doc["r"] = 1
    doc["internal"] = {"name": "logistic_cosine"}
    doc["initial"] = {"mode": "explicit", "x": [0.0, 1.0, 2.0], "v": [1.2, 1.5, 1.8]}
    return doc


def test_k_value_only_with_user_source():
    doc = _sync_doc()
    doc["certificate"] = {"k_source": "region", "k_value": 1.0}
    assert "certificate.k_value: only valid when k_source is 'user'" in validate(doc)
    doc["certificate"] = {"k_source": "user"}
    assert "certificate.k_value: required when k_source is 'user'" in validate(doc)
    doc["certificate"] = {"k_source": "user", "k_value": 2.0}
    assert validate(doc) == []


def test_trajectory_source_needs_logistic_cosine():
    doc = _sync_doc()
    doc["internal"] = {"name": "zero"}
    doc["certificate"] = {"k_source": "trajectory"}
    diags = validate(doc)
    assert any("trajectory" in d and "logistic_cosine" in d for d in diags)


@pytest.mark.parametrize("name", [["lorenz"], {"name": "lorenz"}])
def test_non_string_dynamics_name_is_a_diagnostic(name):
    doc = _sync_doc()
    doc["internal"] = {"name": name}
    assert validate(doc) == [f"internal.name: unknown dynamics {name!r}"]


def test_dynamics_dimension_checked_against_r():
    doc = _sync_doc()
    doc["internal"] = {"name": "lorenz"}
    assert validate(doc) == ["internal.name: 'lorenz' is 3-dimensional but r=1"]
    # zero takes its dimension from r: 2^20 box corners for the region bound
    doc["internal"] = {"name": "zero"}
    doc["r"] = 20
    doc["initial"] = {"mode": "generate", "spread_x": 2.0, "spread_v": 1.0}
    doc["certificate"] = {"k_source": "region"}
    assert validate(doc) == []


def test_collision_rejects_coincident_generation():
    doc = base_doc()
    doc["variant"] = "collision_free"
    doc["repulsion"] = {"d0": 0.1, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1.0}}
    doc["initial"]["spread_x"] = 0.0
    diags = validate(doc)
    assert any(d.startswith("initial.spread_x:") for d in diags)


def test_collision_needs_two_agents():
    doc = base_doc()
    doc["variant"] = "collision_free"
    doc["n"] = 1
    doc["repulsion"] = {"d0": 0.1, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1.0}}
    assert "n: collision_free needs at least two agents" in validate(doc)


def test_beta_draws_must_stay_below_sqrt_two():
    doc = base_doc()
    doc["coupling"] = {
        "family": "modulated",
        "w": 1.0,
        "delta": 1.0,
        "beta": {"mode": "constant", "value": 1.5},
    }
    assert any(d.startswith("coupling.beta.value:") for d in validate(doc))
    doc["coupling"]["beta"] = {"mode": "seeded_uniform", "lo": 0.5, "hi": 2.0}
    assert any(d.startswith("coupling.beta.hi:") for d in validate(doc))


def test_time_span_must_be_positive():
    doc = base_doc()
    doc["integrator"] = {"t_end": 1.0, "sample_dt": 0.1, "t0": 1.0}
    assert "integrator.t_end: must exceed t0" in validate(doc)


def test_scalars_are_type_checked():
    doc = base_doc()
    doc["n"] = 2.5
    doc["seed"] = True
    diags = validate(doc)
    assert "n: must be an integer" in diags
    assert "seed: must be an integer" in diags


def test_nullable_step_bounds():
    doc = base_doc()
    doc["integrator"]["h_init"] = None
    doc["integrator"]["h_max"] = None
    assert validate(doc) == []
    doc["integrator"]["h_max"] = 0.0
    assert any(d.startswith("integrator.h_max:") for d in validate(doc))


def test_non_object_document():
    assert validate([1, 2]) == ["document: must be a JSON object"]


# (block, field, an out-of-range value, the diagnostic `validate` prints for
# it) for every bounded number of the classes a scenario builds; a coupling
# field is named with its family
BOUNDED_FIELDS = [
    ("integrator", "t_end", 0.0, "integrator.t_end: must exceed t0"),
    ("integrator", "t0", 2.0, "integrator.t_end: must exceed t0"),
    ("integrator", "sample_dt", 0.0, "integrator.sample_dt: must be > 0.0"),
    ("integrator", "rtol", -1e-6, "integrator.rtol: must be > 0.0"),
    ("integrator", "atol", 0.0, "integrator.atol: must be > 0.0"),
    ("integrator", "h_init", 0.0, "integrator.h_init: must be > 0.0"),
    ("integrator", "h_max", -0.5, "integrator.h_max: must be > 0.0"),
    ("integrator", "collision_margin", -1e-9, "integrator.collision_margin: must be >= 0.0"),
    ("coupling", "power_law.gain", 0.0, "coupling.gain: must be > 0.0"),
    ("coupling", "power_law.sigma", -1.0, "coupling.sigma: must be > 0.0"),
    ("coupling", "power_law.exponent", 0.0, "coupling.exponent: must be > 0.0"),
    ("coupling", "modulated.w", 0.0, "coupling.w: must be > 0.0"),
    ("coupling", "modulated.delta", -0.5, "coupling.delta: must be >= 0.0"),
    ("coupling", "constant.w", -2.0, "coupling.w: must be > 0.0"),
    ("repulsion", "d0", 0.0, "repulsion.d0: must be > 0.0"),
    ("repulsion", "phi", 1.0, "repulsion.phi: must be > 1.0"),
    ("certificate", "k_value", -1.0, "certificate.k_value: must be >= 0.0"),
]

COUPLING_BLOCKS = {
    "power_law": {"family": "power_law", "gain": 1.0, "sigma": 1.0, "exponent": 0.5},
    "modulated": {"family": "modulated", "w": 1.0, "delta": 1.0, "beta": {"mode": "constant", "value": 1.0}},
    "constant": {"family": "constant", "w": 1.0},
}


def _bounded_case(block: str, key: str):
    """A valid document, the class its `block` builds, and the field's name."""
    doc = base_doc()
    if block == "integrator":
        doc["integrator"].update(t0=0.0, rtol=1e-6, atol=1e-9, h_init=0.01, h_max=0.5, collision_margin=1e-9)
        return doc, IntegratorConfig, key
    if block == "coupling":
        family, key = key.split(".")
        doc["coupling"] = copy.deepcopy(COUPLING_BLOCKS[family])
        return doc, COUPLING_FAMILIES[family], key
    if block == "repulsion":
        doc["variant"] = "collision_free"
        doc["repulsion"] = {"d0": 0.1, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1.0}}
        return doc, RepulsionModel, key
    doc = _sync_doc()
    doc["certificate"] = {"k_source": "user", "k_value": 2.0}
    return doc, CertificateSettings, key


@pytest.mark.parametrize(
    "block, key, out_of_range, diagnostic", BOUNDED_FIELDS, ids=[f"{b}.{k}" for b, k, _, _ in BOUNDED_FIELDS]
)
def test_bounded_fields_reject_the_same_values_in_constructor_and_validate(
    block, key, out_of_range, diagnostic
):
    doc, cls, key = _bounded_case(block, key)
    params = doc[block]
    assert validate(doc) == []

    def build(value):
        # a draw spec stands for an n x n matrix of ones, inside every entries range
        kwargs = {k: np.ones((3, 3)) if isinstance(v, dict) else v for k, v in params.items()}
        kwargs.pop("family", None)
        return cls(**{**kwargs, key: value})

    assert getattr(build(np.float32(params[key])), key) == np.float32(params[key])
    # a document holds JSON's numbers only, as it must hash: no numpy scalar
    for scalar in (np.float32(params[key]), np.int64(1)):
        assert validate({**doc, block: {**params, key: scalar}}) == [f"{block}.{key}: must be a number"]
    cases = [(math.nan, f"{block}.{key}: must be finite"), (math.inf, f"{block}.{key}: must be finite"),
             (-math.inf, f"{block}.{key}: must be finite"), (out_of_range, diagnostic)]
    for value, expected in cases:
        with pytest.raises(ValueError) as raised:
            build(value)
        # the constructor names the field as `validate` does, without the block
        assert str(raised.value) == expected.removeprefix(f"{block}.")
        # NaN and +-inf travel as JSON's NaN, Infinity and -Infinity literals
        text = json.dumps({**doc, block: {**params, key: value}})
        assert validate(json.loads(text)) == [expected]


@pytest.mark.parametrize("block, key", [("coupling", "modulated.beta"), ("repulsion", "coeffs")])
def test_a_null_matrix_field_is_a_diagnostic(block, key):
    # a null `repulsion.coeffs` used to pass validation and end materialization in a TypeError
    doc, _, key = _bounded_case(block, key)
    doc[block][key] = None
    assert validate(doc) == [f"{block}.{key}: must be an object"]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_matrix_fields_reject_off_diagonal_entries_outside_their_range(bad):
    m = np.ones((3, 3))
    m[2, 0] = bad
    with pytest.raises(ValueError, match=r"^coeffs: off-diagonal entries must lie in \(0\.0, inf\)$"):
        RepulsionModel(d0=0.1, phi=1.5, coeffs=m)
    with pytest.raises(ValueError, match=r"^beta: off-diagonal entries must lie in \(0\.0, 1\.41421"):
        ModulatedCoupling(w=1.0, delta=1.0, beta=m)
    m[2, 0] = 1.0
    m[1, 1] = bad  # the diagonal is never read
    RepulsionModel(d0=0.1, phi=1.5, coeffs=m)
    ModulatedCoupling(w=1.0, delta=1.0, beta=m)


# ---------------------------------------------------------------------------
# normalization and hashing


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_documents_validate_and_normalize(name):
    doc = json.loads(bundled_text(name))
    assert validate(doc) == []
    norm = normalized(doc)
    assert validate(norm) == []
    assert normalized(norm) == norm
    assert scenario_sha256(doc) == scenario_sha256(norm)


def test_hash_ignores_key_order():
    doc = base_doc()
    shuffled = dict(reversed(list(doc.items())))
    assert scenario_sha256(doc) == scenario_sha256(shuffled)
    assert canonical_json(normalized(doc)) == canonical_json(normalized(shuffled))


def test_normalization_fills_integrator_defaults():
    norm = normalized(base_doc())
    integ = norm["integrator"]
    assert integ["t0"] == 0.0
    assert integ["rtol"] == 1e-6
    assert integ["atol"] == 1e-9
    assert integ["h_init"] is None
    assert integ["collision_margin"] == 1e-9
    assert norm["internal"] is None
    assert norm["repulsion"] is None
    assert norm["certificate"] is None


# ---------------------------------------------------------------------------
# materialization


def test_materialize_takes_integrator_defaults_from_the_config():
    assert materialize(base_doc()).integrator == IntegratorConfig(t_end=1.0, sample_dt=0.1)
    doc = base_doc()
    doc["integrator"] = {"t_end": 2, "sample_dt": 1, "h_max": None}
    cfg = materialize(doc).integrator
    assert cfg == IntegratorConfig(t_end=2.0, sample_dt=1.0)
    assert type(cfg.t_end) is float and type(cfg.sample_dt) is float
    assert cfg.h_max is None


def test_materialize_builds_certificate_settings_from_the_block():
    doc = base_doc()
    doc["certificate"] = {}
    assert materialize(doc).certificate == CertificateSettings()
    sync = json.loads(bundled_text("example1_delta09"))
    sync["certificate"] = {"k_source": "user", "k_value": 0.5}
    assert materialize(sync).certificate == CertificateSettings(k_source="user", k_value=0.5)


def test_bundled_explicit_scenario_loads_exactly():
    sc = load_scenario(bundled_text("example1_delta09"))
    assert isinstance(sc, Scenario)
    assert (sc.name, sc.variant, sc.n, sc.r, sc.seed) == ("example1_delta09", "sync", 5, 1, 11)
    assert isinstance(sc.coupling, ModulatedCoupling)
    assert sc.coupling.w == 1.0 and sc.coupling.delta == 0.9
    off = ~np.eye(5, dtype=bool)
    np.testing.assert_array_equal(sc.coupling.beta[off], 1.4)
    np.testing.assert_array_equal(sc.x0[:, 0], [0.0, 1.25, 2.5, 3.75, 5.0])
    np.testing.assert_array_equal(sc.v0[:, 0], [1.2, 1.4, 1.1, 1.5, 1.3])
    assert sc.integrator.t_end == 40.0 and sc.integrator.sample_dt == 0.05
    assert sc.certificate.k_source == "trajectory"


def test_bundled_generated_scenario_hits_targets():
    sc = load_scenario(bundled_text("example2_strong"))
    assert sc.internal.name == "lorenz"
    assert spread(sc.x0) == pytest.approx(9.0, abs=1e-11)
    assert spread(sc.v0) == pytest.approx(9.0, abs=1e-11)
    box = sc.internal.box
    assert (sc.v0 >= box[:, 0] - 1e-9).all() and (sc.v0 <= box[:, 1] + 1e-9).all()
    off = ~np.eye(5, dtype=bool)
    assert (sc.coupling.beta[off] > 0.5).all() and (sc.coupling.beta[off] < 1.4).all()


def test_bundled_collision_scenario_respects_separation():
    sc = load_scenario(bundled_text("example3_strong"))
    assert sc.repulsion.d0 == 0.25 and sc.repulsion.phi == 1.5
    d2 = [
        float((sc.x0[i] - sc.x0[j]) @ (sc.x0[i] - sc.x0[j]))
        for i in range(5)
        for j in range(i + 1, 5)
    ]
    assert min(d2) > 0.25 * 1.1
    off = ~np.eye(5, dtype=bool)
    assert (sc.repulsion.coeffs[off] >= 1.0).all() and (sc.repulsion.coeffs[off] <= 2.0).all()


def test_materialization_is_deterministic():
    a = load_scenario(bundled_text("example2_strong"))
    b = load_scenario(bundled_text("example2_strong"))
    np.testing.assert_array_equal(a.x0, b.x0)
    np.testing.assert_array_equal(a.v0, b.v0)
    np.testing.assert_array_equal(a.coupling.beta, b.coupling.beta)


def test_seed_override_changes_draws():
    a = load_scenario(bundled_text("example2_strong"))
    b = load_scenario(bundled_text("example2_strong"), seed_override=8)
    assert b.seed == 8
    assert not np.array_equal(a.x0, b.x0)
    assert spread(b.x0) == pytest.approx(9.0, abs=1e-11)


def test_seed_path_isolates_substreams():
    text = bundled_text("example3_strong")
    a = load_scenario(text, seed_path=(5, 0))
    b = load_scenario(text, seed_path=(5, 1))
    assert not np.array_equal(a.x0, b.x0)
    assert not np.array_equal(a.repulsion.coeffs, b.repulsion.coeffs)


def test_generate_initial_rescales_to_exact_spreads():
    gen = InitialGenerator(
        n=6,
        r=3,
        spread_x=5.0,
        spread_v=2.0,
        x_center=np.zeros(3),
        v_center=np.array([1.0, -1.0, 0.0]),
    )
    x, v = generate_initial(gen, seed_path=(42,))
    assert abs(spread(x) - 5.0) <= 1e-12 * 5.0
    assert abs(spread(v) - 2.0) <= 1e-12 * 2.0


def test_generate_initial_separation_budget_exhausts():
    gen = InitialGenerator(
        n=40,
        r=1,
        spread_x=0.1,
        spread_v=1.0,
        x_center=np.zeros(1),
        v_center=None,
        min_sep_sq=1.0,
    )
    with pytest.raises(ValueError, match="no draw met"):
        generate_initial(gen, seed_path=(0,))


def test_explicit_flat_lists_accepted_when_r_is_one():
    doc = _sync_doc()
    sc = materialize(doc)
    assert sc.x0.shape == (3, 1)
    assert sc.v0.shape == (3, 1)


def test_load_rejects_invalid_json():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario("{not json")


def test_load_rejects_schema_violations():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(ScenarioError) as err:
        load_scenario(json.dumps(doc))
    assert "extra: unknown key" in err.value.diagnostics


def test_materialize_does_not_mutate_input():
    doc = base_doc()
    snapshot = copy.deepcopy(doc)
    materialize(doc)
    assert doc == snapshot


# ---------------------------------------------------------------------------
# certificate resolution from scenarios


def test_trajectory_penalty_source_closed_form():
    sc = load_scenario(bundled_text("example1_delta09"))
    k, source = resolve_k_bound(sc)
    assert source == "trajectory"
    # orbit envelope through the top initial velocity 1.5
    expected = (1.0 - math.exp(-1.0)) / (1.0 + math.exp(-1.0))
    assert k == pytest.approx(expected, abs=1e-12)


def test_user_penalty_source_is_verbatim():
    sc = load_scenario(bundled_text("example2_strong"))
    k, source = resolve_k_bound(sc)
    assert (k, source) == (39.4, "user")
    assert sc.certificate.relaxed


def test_region_penalty_source_uses_invariant_box():
    sc = load_scenario(bundled_text("negative_control"))
    k, source = resolve_k_bound(sc)
    assert source == "region"
    assert k == pytest.approx(1.0, abs=1e-12)


def test_region_penalty_is_computed_once_per_internal_block(monkeypatch):
    calls = []

    def counting_k_region(dyn):
        calls.append(dyn.name)
        return k_region(dyn)

    monkeypatch.setattr(scenario_module, "k_region", counting_k_region)
    scenario_module._region_k.cache_clear()
    doc = json.loads(bundled_text("negative_control"))
    first, second = materialize(doc), materialize(copy.deepcopy(doc))
    k1, _ = resolve_k_bound(first)
    k2, _ = resolve_k_bound(second)
    assert calls == ["logistic_cosine"]
    assert k1 == k2 == k_region(second.internal)  # exactly the uncached value

    doc["internal"]["box"] = [[1.0, 2.5]]
    wider = materialize(doc)
    k3, source = resolve_k_bound(wider)
    assert calls == ["logistic_cosine"] * 2
    assert (k3, source) == (k_region(wider.internal), "region")
    assert k3 == pytest.approx(2.0, abs=1e-12)  # max of cos(t) (2z - 3) at z = 2.5
    scenario_module._region_k.cache_clear()


@pytest.mark.parametrize("name, box", [("example1_sweep", None), ("example2_strong", None),
                                       ("example2_strong", [[-20, 20], [-25, 25], [5, 50]])])
def test_each_load_builds_its_dynamics_once(name, box, monkeypatch):
    import flocklab.dynamics as dynamics_module

    probes = []
    probe = dynamics_module._acts_row_wise

    def counting(fn, r):
        probes.append(r)
        return probe(fn, r)

    monkeypatch.setattr(dynamics_module, "_acts_row_wise", counting)
    scenario_module._build_builtin.cache_clear()
    doc = json.loads(bundled_text(name))
    if box is not None:
        doc["internal"]["box"] = box
    sc = materialize(doc)
    assert len(probes) == 2  # g and jacobian, once each
    again = materialize(doc)
    assert len(probes) == 2 and again.internal.g is sc.internal.g
    if box is not None:
        assert sc.internal.box.tolist() == box
    scenario_module._build_builtin.cache_clear()


def test_certificate_dispatch_by_variant():
    sync_cert = evaluate_certificate(load_scenario(bundled_text("example1_delta09")))
    assert hasattr(sync_cert, "epsilon")
    coll_cert = evaluate_certificate(load_scenario(bundled_text("example3_strong")))
    assert hasattr(coll_cert, "psi_term")
    doc = base_doc()
    doc["initial"] = {"mode": "explicit", "x": [[0, 0], [1, 1], [2, 2]], "v": [[0, 0], [0.1, 0.1], [0.2, 0.2]]}
    std_cert = evaluate_certificate(materialize(doc))
    assert hasattr(std_cert, "tail")


def test_certificate_classes_name_what_dispatch_returns():
    docs = [json.loads(bundled_text(name)) for name in ("example1_delta09", "example3_strong")]
    docs.append(base_doc())
    assert sorted(doc["variant"] for doc in docs) == sorted(CERTIFICATE_CLASSES)
    for doc in docs:
        sc = materialize(doc)
        assert type(evaluate_certificate(sc)) is CERTIFICATE_CLASSES[sc.variant]


@pytest.mark.parametrize(
    "name,delta",
    [
        ("example1_delta09", 0.9),
        ("example1_delta4", 4.0),
        ("example1_delta10", 10.0),
        ("example1_sweep", 1.0),
        ("example2_strong", 0.5),
        ("example2_weak", 7.0),
        ("example3_strong", 1.0),
        ("example3_weak", 7.0),
    ],
)
def test_bundled_decay_exponents(name, delta):
    sc = load_scenario(bundled_text(name))
    assert sc.coupling.delta == delta


def test_negative_control_uses_constant_coupling():
    sc = load_scenario(bundled_text("negative_control"))
    assert isinstance(sc.coupling, ConstantCoupling)
    assert sc.coupling.w == 0.5
