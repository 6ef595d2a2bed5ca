"""Repulsive flock: alignment without collisions under singular pair forces.

Both bundled scenarios keep every squared pair distance above d0; the
strong-coupling one also aligns to machine precision while the weak one
barely contracts.  Artifacts land in --out.
"""

from __future__ import annotations

import argparse
import math
import pathlib
from importlib.resources import files

import numpy as np

from flocklab.artifacts import (
    certificate_report,
    plot_pairwise_distances,
    plot_spread_v,
    write_timeseries_csv,
)
from flocklab.certify import audit_collision_run
from flocklab.integrate import Completed, integrate
from flocklab.scenario import evaluate_certificate, load_scenario

SCENARIOS = ["example3_strong", "example3_weak"]


def bundled(name: str) -> str:
    return (files("flocklab") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/example3"))
    ap.add_argument("--seed", type=int, default=None, help="override the bundled seed")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for name in SCENARIOS:
        sc = load_scenario(bundled(name), seed_override=args.seed)
        cert = evaluate_certificate(sc)
        traj = integrate(sc.spec, sc.state0, sc.integrator)

        d0 = sc.spec.repulsion.d0
        min_d2 = float(np.min(traj.min_dist_sq))
        completed = isinstance(traj.termination, Completed)
        half = traj.ts >= 0.5 * traj.ts[-1]
        late = float(np.max(traj.spread_v[half])) / traj.spread_v[0]

        print(f"== {name}")
        print(f"   certificate feasible: {cert.feasible} "
              f"(lhs {cert.lhs:.4g} vs psi term {cert.psi_term:.4g}"
              f" - repulsion term {cert.repulsion_term:.4g})")
        print(f"   completed: {completed}   min |x_i-x_j|^2: {min_d2:.5g} "
              f"(wall d0 = {d0}, gap {min_d2 - d0:.3g})")
        print(f"   S(v): {traj.spread_v[0]:.4g} -> {traj.spread_v[-1]:.4g}"
              f"   late-half max ratio: {late:.3e}")

        audit = audit_collision_run(traj, sc.spec.coupling, sc.spec.repulsion)
        print(f"   audit: {audit.n_violations} violations on {audit.n_checked} checked segments"
              f" (worst margin {audit.worst_margin:.3e})")

        write_timeseries_csv(args.out / f"{name}.csv", traj)
        plot_spread_v(args.out / f"{name}_spread_v.svg", traj)
        plot_pairwise_distances(args.out / f"{name}_distances.svg", traj, d0=d0)
        (args.out / f"{name}_certificate.txt").write_text(certificate_report(cert), encoding="utf-8")

        assert min_d2 > d0, f"{name}: pair distance crossed the repulsion wall"
        assert math.isfinite(late)

    print(f"artifacts: {args.out}")


if __name__ == "__main__":
    main()
