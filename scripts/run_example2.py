"""Flock of Lorenz-driven agents: certified containment radius and decay.

The strong-coupling scenario admits a finite certified position-spread
radius and an exponential alignment rate; the weak-coupling variant fails
the certificate and visibly keeps its velocity spread.  Artifacts land in
--out.
"""

from __future__ import annotations

import argparse
import pathlib
from importlib.resources import files

import numpy as np

from flocklab.artifacts import certificate_report, plot_spread_v, write_timeseries_csv
from flocklab.certify import resolution_floor
from flocklab.integrate import integrate
from flocklab.scenario import evaluate_certificate, load_scenario

SCENARIOS = ["example2_strong", "example2_weak"]


def bundled(name: str) -> str:
    return (files("flocklab") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/example2"))
    ap.add_argument("--seed", type=int, default=None, help="override the bundled seed")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for name in SCENARIOS:
        sc = load_scenario(bundled(name), seed_override=args.seed)
        cert = evaluate_certificate(sc)
        traj = integrate(sc.spec, sc.state0, sc.integrator)

        print(f"== {name} (K = {cert.k_bound:.6g} from {cert.k_source}"
              f"{', relaxed' if cert.relaxed else ''})")
        print(f"   feasible: {cert.feasible}")
        bound = None
        if cert.feasible:
            bound = lambda t: cert.decay_bound(t, t0=sc.integrator.t0)  # noqa: E731
            print(f"   certified radius d*: {cert.d_star:.6g}   rate epsilon: {cert.epsilon:.6g}")
            over = float(np.max(traj.spread_x)) - cert.d_star
            # compare only where the sample grid can still resolve the spread
            mask = traj.spread_v > resolution_floor(traj)
            bound_ok = bool(
                np.all(traj.spread_v[mask] <= bound(traj.ts[mask]) * (1 + 1e-9))
            )
            print(f"   max S(x) - d*: {over:.3e}   S(v) under bound where resolved: {bound_ok}")
        print(f"   S(v): {traj.spread_v[0]:.4g} -> {traj.spread_v[-1]:.4g}"
              f"   S(x): {traj.spread_x[0]:.4g} -> {traj.spread_x[-1]:.4g}")

        write_timeseries_csv(args.out / f"{name}.csv", traj)
        plot_spread_v(args.out / f"{name}_spread_v.svg", traj, bound=bound)
        (args.out / f"{name}_certificate.txt").write_text(certificate_report(cert), encoding="utf-8")

    print(f"artifacts: {args.out}")


if __name__ == "__main__":
    main()
