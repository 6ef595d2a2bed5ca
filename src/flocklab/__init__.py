"""flocklab: simulation and certification lab for perturbed flocking networks.

Agents carry positions and velocities in r dimensions; velocities align
through distance-dependent coupling while per-agent internal dynamics or
singular pair repulsion perturb the consensus.  The package simulates the
coupled system with an embedded adaptive stepper, evaluates feasibility
certificates for exponential velocity alignment and collision avoidance,
and audits finished trajectories against the differential inequalities the
certificates rest on.
"""

__version__ = "0.1.0"
