"""Scalar flock with a logistic-cosine drive: decay across coupling strengths.

Runs the three bundled single-dimension scenarios (decay exponent 0.9, 4,
10), certifies each, integrates, and compares the observed velocity spread
against the certified exponential bound.  Artifacts land in --out.
"""

from __future__ import annotations

import argparse
import pathlib
from importlib.resources import files

from flocklab.artifacts import certificate_report, plot_spread_v, write_timeseries_csv
from flocklab.certify import audit_sync_run, decay_rate_fit
from flocklab.integrate import integrate
from flocklab.scenario import evaluate_certificate, load_scenario

SCENARIOS = ["example1_delta09", "example1_delta4", "example1_delta10"]


def bundled(name: str) -> str:
    return (files("flocklab") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results/example1"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    print(f"{'scenario':20s} {'feasible':>8s} {'epsilon':>10s} {'S_v(T)/S_v(0)':>14s} {'fit rate':>10s}")
    for name in SCENARIOS:
        sc = load_scenario(bundled(name))
        cert = evaluate_certificate(sc)
        traj = integrate(sc.spec, sc.state0, sc.integrator)

        ratio = traj.spread_v[-1] / traj.spread_v[0]
        try:
            fit = f"{decay_rate_fit(traj, t_lo=1.0, t_hi=6.0):10.4f}"
        except ValueError:
            fit = f"{'n/a':>10s}"
        eps = f"{cert.epsilon:10.4f}" if cert.feasible else f"{'-':>10s}"
        print(f"{name:20s} {str(cert.feasible):>8s} {eps} {ratio:14.3e} {fit}")

        write_timeseries_csv(args.out / f"{name}.csv", traj)
        bound = None
        if cert.feasible:
            bound = lambda t: cert.decay_bound(t, t0=sc.integrator.t0)  # noqa: E731
        plot_spread_v(args.out / f"{name}_spread_v.svg", traj, bound=bound)
        (args.out / f"{name}_certificate.txt").write_text(certificate_report(cert), encoding="utf-8")

        if cert.feasible:
            audit = audit_sync_run(traj, sc.spec.coupling.envelope(), sc.spec.n, cert.k_bound)
            print(f"{'':20s} audit: {audit.n_violations} violations on {audit.n_checked} checked segments")

    print(f"artifacts: {args.out}")


if __name__ == "__main__":
    main()
