"""flocklab: simulation and certification lab for perturbed flocking networks.

Agents carry positions and velocities in r dimensions; velocities align
through distance-dependent coupling while per-agent internal dynamics or
singular pair repulsion perturb the consensus.  The package simulates the
coupled system with an embedded adaptive stepper, evaluates feasibility
certificates for exponential velocity alignment and collision avoidance,
and audits finished trajectories against the differential inequalities the
certificates rest on.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .state import (
    FlockState,
    SpreadReport,
    distance_sq_matrix,
    min_pair_distance_sq,
    pairwise_distance_sq,
    spread,
    spread_dim,
    spread_report,
)
from .coupling import (
    BETA_SQ_SUP,
    COUPLING_FAMILIES,
    ConstantCoupling,
    CouplingModel,
    Envelope,
    ModulatedCoupling,
    PowerLawCoupling,
    psi_integral,
    weights_matrix,
)
from .dynamics import (
    BUILTIN_DYNAMICS,
    DEFAULT_T_GRID,
    InternalDynamics,
    RepulsionModel,
    k_pair,
    k_region,
    logistic_cosine,
    logistic_cosine_envelope_bound,
    logistic_cosine_solution,
    lorenz,
    repulsion_strength,
    repulsion_tail,
    segment_jacobian_integrals,
    zero_dynamics,
)
from .models import (
    SPREAD_GUARD,
    ModelSpec,
    SingularDistanceError,
    flat_rhs,
    pack,
    rhs,
    unpack,
)
from .integrate import (
    CollisionEvent,
    Completed,
    EventHit,
    IntegratorConfig,
    StepSizeUnderflow,
    Trajectory,
    integrate_flat,
)
from .certify import (
    CollisionCertificate,
    ContractionResult,
    StandardCertificate,
    SyncCertificate,
    TrajectoryAudit,
    audit_collision_run,
    audit_sync_run,
    certify_collision,
    certify_standard,
    certify_sync,
    contraction_coefficient,
    decay_rate_fit,
    resolution_floor,
)
from .scenario import (
    CertificateSettings,
    InitialGenerator,
    Scenario,
    ScenarioError,
    canonical_json,
    evaluate_certificate,
    generate_initial,
    load_scenario,
    load_scenario_file,
    materialize,
    normalized,
    resolve_k_bound,
    scenario_sha256,
    validate,
)

__all__ = [
    "__version__",
    # state
    "FlockState",
    "SpreadReport",
    "spread",
    "spread_dim",
    "spread_report",
    "pairwise_distance_sq",
    "distance_sq_matrix",
    "min_pair_distance_sq",
    # coupling
    "PowerLawCoupling",
    "ModulatedCoupling",
    "ConstantCoupling",
    "CouplingModel",
    "COUPLING_FAMILIES",
    "Envelope",
    "psi_integral",
    "weights_matrix",
    "BETA_SQ_SUP",
    # dynamics
    "InternalDynamics",
    "zero_dynamics",
    "logistic_cosine",
    "logistic_cosine_solution",
    "logistic_cosine_envelope_bound",
    "lorenz",
    "BUILTIN_DYNAMICS",
    "DEFAULT_T_GRID",
    "segment_jacobian_integrals",
    "k_pair",
    "k_region",
    "RepulsionModel",
    "repulsion_strength",
    "repulsion_tail",
    # models
    "ModelSpec",
    "SingularDistanceError",
    "SPREAD_GUARD",
    "rhs",
    "flat_rhs",
    "pack",
    "unpack",
    # integrate
    "IntegratorConfig",
    "Trajectory",
    "Completed",
    "CollisionEvent",
    "EventHit",
    "StepSizeUnderflow",
    "integrate_flat",
    # certify
    "ContractionResult",
    "contraction_coefficient",
    "StandardCertificate",
    "SyncCertificate",
    "CollisionCertificate",
    "certify_standard",
    "certify_sync",
    "certify_collision",
    "decay_rate_fit",
    "TrajectoryAudit",
    "audit_sync_run",
    "audit_collision_run",
    "resolution_floor",
    # scenario
    "Scenario",
    "ScenarioError",
    "CertificateSettings",
    "InitialGenerator",
    "generate_initial",
    "load_scenario",
    "load_scenario_file",
    "materialize",
    "validate",
    "normalized",
    "canonical_json",
    "scenario_sha256",
    "resolve_k_bound",
    "evaluate_certificate",
]
