"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Every numeric threshold here is part of the package contract.  Tests reuse
a module-level run cache so each bundled scenario is integrated once.
"""

from __future__ import annotations

import csv
import math
import time
from importlib.resources import files

import numpy as np
import pytest

from flocklab.certify import (
    audit_collision_run,
    audit_sync_run,
    certify_sync,
    contraction_coefficient,
)
from flocklab.cli import EXIT_OK, main
from flocklab.coupling import ConstantCoupling, PowerLawCoupling
from flocklab.dynamics import (
    k_region,
    logistic_cosine,
    logistic_cosine_envelope_bound,
    logistic_cosine_solution,
    lorenz,
    zero_dynamics,
)
from flocklab.integrate import Completed, IntegratorConfig, integrate
from flocklab.models import ModelSpec
from flocklab.scenario import evaluate_certificate, load_scenario, resolve_k_bound
from flocklab.state import FlockState, spread


def bundled_path(name: str) -> str:
    return str(files("flocklab") / "scenarios" / f"{name}.json")


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(name: str):
        if name not in cache:
            sc = load_scenario(
                (files("flocklab") / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
            )
            traj = integrate(sc.spec, sc.state0, sc.integrator)
            cache[name] = (sc, traj)
        return cache[name]

    return get


def test_criterion_1_integrator_accuracy_and_order(criterion):
    with criterion(1, "integrator meets 1e-5 sup error at defaults with third order steps"):
        start = time.perf_counter()
        spec = ModelSpec(
            n=1,
            r=1,
            coupling=ConstantCoupling(w=1.0),
            internal=logistic_cosine(),
        )
        state = FlockState(t=0.0, x=np.zeros((1, 1)), v=np.array([[1.5]]))
        traj = integrate(spec, state, IntegratorConfig(t_end=20.0, sample_dt=0.1))
        exact = logistic_cosine_solution(traj.ts, 1.5)
        assert float(np.max(np.abs(traj.vs[:, 0, 0] - exact))) <= 1e-5

        hs = [0.2, 0.1, 0.05, 0.025]
        errs = []
        for h in hs:
            cfg = IntegratorConfig(
                t_end=20.0, sample_dt=0.5, rtol=1e9, atol=1e9, h_init=h, h_max=h
            )
            fixed = integrate(spec, state, cfg)
            ref = logistic_cosine_solution(fixed.ts, 1.5)
            errs.append(float(np.max(np.abs(fixed.vs[:, 0, 0] - ref))))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert slope >= 3.0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_contraction_coefficient_bounds_spread(criterion):
    with criterion(2, "matrix action shrinks spread by the contraction coefficient"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 11))
            m = float(rng.uniform(0.1, 3.0))
            p = rng.random((n, n)) + 1e-6
            p = m * p / p.sum(axis=1, keepdims=True)
            tau = contraction_coefficient(p).tau
            z = rng.normal(scale=float(rng.uniform(0.1, 10.0)), size=(100, n))
            pz = z @ p.T
            lhs = pz.max(axis=1) - pz.min(axis=1)
            rhs = tau * (z.max(axis=1) - z.min(axis=1))
            assert (lhs <= rhs + 1e-12).all()
        assert time.perf_counter() - start < 5.0


def test_criterion_3_moderate_decay_aligns_strong_decay_does_not(criterion, runs, tmp_path):
    with criterion(3, "scalar driven flock: alignment at delta 0.9, none at 10, frontier near 1"):
        start = time.perf_counter()
        sc9, traj9 = runs("example1_delta09")
        k, source = resolve_k_bound(sc9)
        assert source == "trajectory"
        assert abs(k - 0.462) <= 5e-4
        assert isinstance(traj9.termination, Completed)
        assert traj9.spread_v[-1] / traj9.spread_v[0] <= 1e-3

        _, traj10 = runs("example1_delta10")
        assert float(traj10.spread_v.min()) / traj10.spread_v[0] >= 0.5

        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--scenario",
                bundled_path("example1_sweep"),
                "--out",
                str(out),
                "--axis",
                "coupling.delta=0.5:2.0:0.05",
            ]
        )
        assert code == EXIT_OK
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31
        feasible = [float(r["coupling.delta"]) for r in rows if r["feasible"] == "true"]
        assert feasible
        frontier = max(feasible)
        assert 0.95 <= frontier <= 1.25
        # feasibility is contiguous below the frontier
        for row in rows:
            if float(row["coupling.delta"]) <= frontier:
                assert row["feasible"] == "true"
        assert time.perf_counter() - start < 30.0


def test_criterion_4_chaotic_drive_certificate_and_runs(criterion, runs):
    with criterion(4, "chaotically driven flock: certified radius matches, runs behave"):
        start = time.perf_counter()
        assert 39.3 <= k_region(lorenz()) <= 39.5

        sc_s, traj_s = runs("example2_strong")
        cert = evaluate_certificate(sc_s)
        assert cert.feasible
        assert abs(cert.d_star - 11.67) <= 0.1
        assert isinstance(traj_s.termination, Completed)
        assert traj_s.spread_v[-1] / traj_s.spread_v[0] <= 1e-2

        sc_w, traj_w = runs("example2_weak")
        assert not evaluate_certificate(sc_w).feasible
        assert float(traj_w.spread_v.min()) / traj_w.spread_v[0] >= 0.3
        assert time.perf_counter() - start < 60.0


def test_criterion_5_collision_free_alignment(criterion, runs):
    with criterion(5, "repulsive flock aligns without the spread rising or pairs colliding"):
        start = time.perf_counter()
        sc3, traj3 = runs("example3_strong")
        assert isinstance(traj3.termination, Completed)
        assert float(traj3.min_dist_sq.min()) > sc3.spec.repulsion.d0
        sv0 = traj3.spread_v[0]
        assert float(traj3.spread_v.max()) <= sv0 * (1.0 + 1e-12)
        second_half = traj3.ts >= 0.5 * traj3.ts[-1]
        assert float(traj3.spread_v[second_half].max()) / sv0 <= 1e-2

        sc_w, traj_w = runs("example3_weak")
        assert isinstance(traj_w.termination, Completed)
        assert float(traj_w.min_dist_sq.min()) > sc_w.spec.repulsion.d0
        assert float(traj_w.spread_v.min()) / traj_w.spread_v[0] > 1e-2
        assert time.perf_counter() - start < 60.0


def test_criterion_6_audits_accept_clean_runs_and_flag_tampering(criterion, runs):
    with criterion(6, "inequality audits: zero violations on certified runs, tampering flagged"):
        for name in ("example1_delta09", "example2_strong", "negative_control"):
            sc, traj = runs(name)
            k, _ = resolve_k_bound(sc)
            audit = audit_sync_run(traj, sc.spec.coupling.envelope(), sc.spec.n, k)
            assert audit.n_violations == 0, name
            assert audit.n_checked > 0, name

        sc3, traj3 = runs("example3_strong")
        coll = audit_collision_run(traj3, sc3.spec.coupling, sc3.spec.repulsion)
        assert coll.n_violations == 0
        assert coll.n_checked > 0

        scn, trajn = runs("negative_control")
        kn, _ = resolve_k_bound(scn)
        tampered = audit_sync_run(trajn, scn.spec.coupling.envelope(), scn.spec.n, kn / 10.0)
        assert tampered.n_violations > 0


def test_criterion_7_certified_decay_bounds_hold_on_random_instances(criterion):
    with criterion(7, "50 random feasible certificates: runs stay inside radius and decay bound"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240814)
        n_verified = 0
        attempts = 0
        while n_verified < 50 and attempts < 400:
            attempts += 1
            n = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                internal = zero_dynamics(1)
                v0 = rng.uniform(-2.0, 2.0, size=(n, 1))
                k_bound = 0.0
            else:
                internal = logistic_cosine()
                v0 = rng.uniform(1.05, 1.95, size=(n, 1))
                k_bound = logistic_cosine_envelope_bound(float(v0.max()))
            if rng.random() < 0.5:
                coupling = ConstantCoupling(w=float(rng.uniform(0.5, 2.0)))
            else:
                coupling = PowerLawCoupling(
                    gain=float(rng.uniform(1.0, 5.0)),
                    sigma=float(rng.uniform(0.5, 2.0)),
                    exponent=float(rng.uniform(0.3, 0.8)),
                )
            x0 = rng.uniform(-1.5, 1.5, size=(n, 1))
            sx0, sv0 = spread(x0), spread(v0)
            if sv0 < 1e-3:
                continue
            cert = certify_sync(coupling.envelope(), sx0, sv0, n, k_bound)
            if not cert.feasible:
                continue

            t_end = min(15.0, max(1.0, math.log(sv0 / 1e-4) / cert.epsilon))
            cfg = IntegratorConfig(
                t_end=t_end, sample_dt=t_end / 200.0, rtol=1e-9, atol=1e-12
            )
            spec = ModelSpec(n=n, r=1, coupling=coupling, internal=internal)
            traj = integrate(spec, FlockState(t=0.0, x=x0, v=v0), cfg)
            assert isinstance(traj.termination, Completed)
            assert (traj.spread_x <= cert.d_star + 1e-6).all()
            bound = cert.decay_bound(traj.ts)
            assert (traj.spread_v <= bound * (1.0 + 1e-3)).all()
            n_verified += 1
        assert n_verified == 50
        assert time.perf_counter() - start < 300.0


def test_criterion_8_artifacts_are_reproducible(criterion, tmp_path):
    with criterion(8, "same scenario and seed reproduce byte-identical artifacts"):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            code = main(
                [
                    "simulate",
                    "--scenario",
                    bundled_path("example3_strong"),
                    "--out",
                    str(out),
                    "--seed",
                    "5",
                    "--full",
                ]
            )
            assert code == EXIT_OK
        for name in (
            "timeseries.csv",
            "velocity_components.svg",
            "pairwise_distances.svg",
            "spread_v_log.svg",
            "manifest.json",
        ):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
