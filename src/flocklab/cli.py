"""Command line front end.

Subcommands: simulate (run + artifacts), certify (evaluate the scenario's
certificate), sweep (Cartesian parameter grid of certificates, optionally
with simulations), validate (schema diagnostics), audit (replay a finished
run against the spread differential inequalities).

A sweep deals its points round-robin to at most --jobs workers.  Each
worker certifies its points one by one and hands their runs, whenever they
hold SWEEP_HELD bytes and after its last point, to
`integrate.integrate_runs`, which decides which runs share a lockstep block.

Exit codes: 0 success/feasible, 1 usage, IO, overflow or memory error, 2
infeasible or audit violations, 3 collision termination, 4 step-size
underflow.  FLOCKLAB_LOG selects the logging level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import artifacts
from .bounds import problem
from .certify import (
    CERTIFICATE_CLASSES,
    SyncCertificate,
    audit_collision_run,
    audit_sync_run,
    decay_rate_fit,
    resolution_floor,
)
from .integrate import integrate, integrate_runs
from .scenario import (
    Scenario,
    ScenarioError,
    evaluate_certificate,
    load_scenario,
    materialize,
    read_document,
    scenario_sha256,
    validate,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_COLLISION = 3
EXIT_UNDERFLOW = 4

# A sweep's parent holds a payload and a row for each of at most SWEEP_POINTS
# points (about 1 KiB each), a worker its rows and at most SWEEP_HELD bytes of
# runs to integrate: a run's state and up to three n x n matrices
SWEEP_POINTS = 100_000
SWEEP_HELD = 16 * 2**20

# termination kind -> exit code
_TERMINATION_EXITS = {
    "completed": EXIT_OK,
    "collision": EXIT_COLLISION,
    "underflow": EXIT_UNDERFLOW,
}

log = logging.getLogger("flocklab")


def _setup_logging() -> None:
    name = os.environ.get("FLOCKLAB_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _versions() -> dict:
    import scipy

    from . import __version__

    return {
        "flocklab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
    }


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(args) -> Scenario:
    text = _read_text(args.scenario)
    return load_scenario(text, seed_override=args.seed)


def _termination_exit(term) -> int:
    return _TERMINATION_EXITS[term.kind]


def _maybe_certificate(sc: Scenario):
    """Certificate for the scenario, or None when sync lacks a K source."""
    if sc.spec.variant == "sync" and (sc.certificate is None or sc.certificate.k_source is None):
        return None
    return evaluate_certificate(sc)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    sc = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cert = _maybe_certificate(sc)
    traj = integrate(sc.spec, sc.state0, sc.integrator)
    log.info(
        "simulate %s: %s after %d accepted / %d rejected steps",
        sc.name,
        type(traj.termination).__name__,
        traj.n_accepted,
        traj.n_rejected,
    )

    csv_path = out / "timeseries.csv"
    artifacts.write_timeseries_csv(csv_path, traj, full=args.full)

    plots = {
        "velocity_components": out / "velocity_components.svg",
        "pairwise_distances": out / "pairwise_distances.svg",
        "spread_v_log": out / "spread_v_log.svg",
    }
    artifacts.plot_velocity_components(plots["velocity_components"], traj)
    repulsion = sc.spec.repulsion
    artifacts.plot_pairwise_distances(
        plots["pairwise_distances"], traj, d0=None if repulsion is None else repulsion.d0
    )
    bound = None
    if isinstance(cert, SyncCertificate) and cert.feasible:
        bound = lambda t: cert.decay_bound(t, t0=sc.integrator.t0)  # noqa: E731
    artifacts.plot_spread_v(plots["spread_v_log"], traj, bound=bound)

    report_path = None
    if cert is not None:
        report_path = out / "certificate.txt"
        report_path.write_text(artifacts.certificate_report(cert), encoding="utf-8")

    manifest = {
        "command": "simulate",
        "scenario": sc.doc,
        "scenario_sha256": scenario_sha256(sc.doc),
        "full": bool(args.full),
        "certificate": _cert_doc(cert),
        "run": {
            "termination": artifacts.termination_to_doc(traj.termination),
            "n_accepted": traj.n_accepted,
            "n_rejected": traj.n_rejected,
            "rows": int(len(traj.ts)),
        },
        "artifacts": {
            "timeseries": csv_path.name,
            "plots": sorted(p.name for p in plots.values()),
            "certificate_report": None if report_path is None else report_path.name,
        },
        "versions": _versions(),
    }
    artifacts.write_manifest(out / "manifest.json", manifest)

    final_sv = traj.spread_v[-1]
    print(f"run: {sc.name}")
    print(f"termination: {artifacts.termination_to_doc(traj.termination)}")
    print(f"rows: {len(traj.ts)}")
    print(f"S(v) final: {artifacts.fmt_sig(final_sv)}")
    print(f"artifacts: {out}")
    return _termination_exit(traj.termination)


def _cert_doc(cert):
    if cert is None:
        return None
    doc = artifacts.certificate_fields(cert)
    return {key: _jsonable(val) for key, val in doc.items()}


def _jsonable(val):
    if isinstance(val, float):
        if val != val or val in (float("inf"), float("-inf")):
            return repr(val)
        return val
    return val


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    sc = _load(args)
    cert = evaluate_certificate(sc)
    report = artifacts.certificate_report(cert)
    print(report, end="")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "certificate.txt").write_text(report, encoding="utf-8")
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# sweep


def _parse_axis(spec: str) -> tuple[str, list]:
    """`key=VALUES` where VALUES is a:b:step, a JSON list, or a comma list."""
    if "=" not in spec:
        raise ValueError(f"axis {spec!r}: expected key=values")
    key, _, raw = spec.partition("=")
    key = key.strip()
    raw = raw.strip()
    if not key or not raw:
        raise ValueError(f"axis {spec!r}: expected key=values")
    if raw.startswith("["):
        values = json.loads(raw)
        if not isinstance(values, list) or not values:
            raise ValueError(f"axis {key!r}: JSON form must be a non-empty list")
        return key, values
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"axis {key!r}: range form is start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not (0 < step < math.inf and stop >= start):  # an infinite step would give NaN
            raise ValueError(f"axis {key!r}: need step > 0 and stop >= start")
        count = (stop - start) / step  # checked before the values are built; inf too
        if not count < SWEEP_POINTS:
            raise ValueError(f"axis {key!r}: {count + 1:.6g} values, over the limit of {SWEEP_POINTS}")
        from fractions import Fraction

        # value k is the double nearest to start + k step, exact in the axis text's decimals
        first, stride = Fraction(parts[0]), Fraction(parts[2])
        values = [float(first + stride * k) for k in range(round(count) + 1)]
        if values[-1] > stop + 1e-9 * max(1.0, abs(stop)):
            values.pop()
        return key, values
    parts = raw.split(",")
    if not all(part.strip() for part in parts):
        raise ValueError(f"axis {key!r}: empty item in the comma list")
    return key, [_parse_scalar(part) for part in parts]


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _set_by_path(doc: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = doc
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def _sweep_columns(variant: str, axis_keys: list[str], with_sim: bool) -> list[str]:
    cols = ["index", *axis_keys, "certificate"]
    cols += [fld.name for fld in dataclasses.fields(CERTIFICATE_CLASSES[variant])]
    if with_sim:
        cols.append("eps_observed")
    cols.append("error")
    return cols


def _point_failed(row: dict, exc: Exception) -> None:
    log.debug("sweep point %d failed", row["index"], exc_info=exc)
    row["error"] = f"{type(exc).__name__}: {exc}"


def _sweep_point(payload):
    """The point's row with its certificate, and its (spec, state0, cfg) run if it is to be simulated."""
    doc_json, idx, assignments, isolate_stream, with_sim = payload
    doc = json.loads(doc_json)
    for key, value in assignments:
        _set_by_path(doc, key, value)
    row = {"index": idx, **dict(assignments)}
    try:
        seed = doc.get("seed", 0)
        seed_path = (seed, idx) if isolate_stream else (seed,)
        sc = materialize(doc, seed_path=seed_path)
        row.update(artifacts.certificate_fields(evaluate_certificate(sc)))
    except Exception as exc:  # per-point failures recorded, sweep continues
        _point_failed(row, exc)
        return row, None
    row["error"] = ""
    return row, (sc.spec, sc.state0, sc.integrator) if with_sim else None


def _observe(row: dict, traj) -> None:
    """Record the observed decay rate of traj, or the error its run or its fit raised."""
    if isinstance(traj, Exception):
        _point_failed(row, traj)
        return
    try:
        row["eps_observed"] = decay_rate_fit(traj)
    except ValueError:
        row["eps_observed"] = None
    except Exception as exc:  # per-point failures recorded, sweep continues
        _point_failed(row, exc)


def _sweep_chunk(payloads) -> list[dict]:
    """Rows of one worker's points, certified in order; their runs integrated as they fill SWEEP_HELD."""
    rows, held, size = [], [], 0
    for k, payload in enumerate(payloads):
        row, run = _sweep_point(payload)
        rows.append(row)
        if run is not None:
            held.append((row, run))
            size += 8 * run[0].n * (3 * run[0].n + 2 * run[0].r)
        if held and (size >= SWEEP_HELD or k == len(payloads) - 1):
            for i, traj in integrate_runs([run for _, run in held]):
                _observe(held[i][0], traj)
                del traj  # a trajectory holds its block's samples; let them go before the next block
            held, size = [], 0
    return rows


def _csv_cell(val) -> str:
    return "" if val is None else artifacts.report_value(val)


def cmd_sweep(args) -> int:
    import csv as _csv

    doc = read_document(_read_text(args.scenario), args.seed)
    diags = validate(doc)
    if diags:
        raise ScenarioError(diags)

    axes = [_parse_axis(spec) for spec in args.axis or []]
    size = math.prod(len(values) for _, values in axes)
    if size > SWEEP_POINTS:
        raise ValueError(f"sweep of {size} points, over the limit of {SWEEP_POINTS}")
    axis_keys = [key for key, _ in axes]
    points = product(*(values for _, values in axes))  # one empty point when there are no axes
    with_sim = bool(args.simulate)
    doc_json = json.dumps(doc)  # one string that every payload shares
    payloads = [
        (doc_json, idx, list(zip(axis_keys, values)), bool(axes), with_sim)
        for idx, values in enumerate(points)
    ]
    workers = min(args.jobs, len(payloads))  # a pool starts every worker up front
    chunks = [payloads[k::workers] for k in range(workers)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_chunk, chunks))
    else:
        done = [_sweep_chunk(chunk) for chunk in chunks]
    rows = sorted((row for chunk in done for row in chunk), key=lambda row: row["index"])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cols = _sweep_columns(doc["variant"], axis_keys, with_sim)
    sweep_path = out / "sweep.csv"
    with open(sweep_path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_csv_cell(row.get(col)) for col in cols])

    n_err = sum(1 for row in rows if row["error"])
    n_feasible = sum(1 for row in rows if row.get("feasible") is True)
    print(f"sweep: {len(rows)} points, {n_feasible} feasible, {n_err} errors")
    print(f"artifacts: {sweep_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    try:
        materialize(read_document(_read_text(args.scenario), args.seed))
    except ScenarioError as exc:
        diags = exc.diagnostics
    except ValueError as exc:
        diags = [f"materialization: {exc}"]
    else:
        print("scenario OK")
        return EXIT_OK
    for diag in diags:
        print(diag)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# audit


def cmd_audit(args) -> int:
    run_dir = Path(args.out)
    manifest = artifacts.read_manifest(run_dir / "manifest.json")
    sc = materialize(manifest["scenario"])
    if scenario_sha256(sc.doc) != manifest.get("scenario_sha256"):
        raise ValueError("the manifest's scenario does not hash to its scenario_sha256")
    spec, run = sc.spec, manifest["run"]
    if (text := problem(run["rows"], kind=int)) is not None:
        raise ValueError(f"manifest run.rows: {text}")
    term = artifacts.termination_from_doc(run["termination"])
    traj = artifacts.trajectory_from_artifacts(run_dir / "timeseries.csv", sc.integrator, term)
    if traj.xs.shape != (run["rows"], spec.n, spec.r):
        k, n, r = traj.xs.shape
        raise ValueError(
            f"timeseries.csv holds {k} rows of n = {n}, r = {r}, "
            f"but the run wrote {run['rows']} rows of n = {spec.n}, r = {spec.r}"
        )

    if spec.variant == "collision_free":
        report = audit_collision_run(traj, spec.coupling, spec.repulsion)
        kind = "collision inequality"
    else:
        k_bound = 0.0
        if spec.variant == "sync":
            cert = manifest.get("certificate")
            if not cert or cert.get("k_bound") is None:
                print("audit: manifest records no K bound for this sync run")
                return EXIT_USAGE
            if (text := problem(cert["k_bound"], kind=(int, float))) is not None:
                raise ValueError(f"manifest certificate.k_bound: {text}")
            k_bound = float(cert["k_bound"])
        report = audit_sync_run(traj, spec.coupling.envelope(), spec.n, k_bound)
        kind = "alignment inequality"

    if report.n_checked == 0 and report.n_samples > 1:
        if traj.spread_v[0] <= resolution_floor(traj)[0]:
            # a lone agent, or agents that start aligned: no grid can help
            log.warning(
                "audit checked no step: the velocity spread starts at or below the "
                "resolution floor, so there is nothing in this run to audit"
            )
        else:
            log.warning(
                "audit checked no step: the velocity spread fell below the resolution floor "
                "within the first step (sample_dt = %g), so nothing in this run was audited; "
                "a finer sample_dt is needed to audit it",
                traj.cfg.sample_dt,
            )
    print(f"audit: {kind} on {report.n_samples} samples")
    print(f"checked: {report.n_checked}")
    print(f"skipped (below resolution floor): {report.n_skipped}")
    print(f"violations: {report.n_violations}")
    print(f"worst margin: {artifacts.fmt_sig(report.worst_margin)}")
    if report.first_violation_t is not None:
        print(f"first violation at t = {artifacts.fmt_sig(report.first_violation_t)}")
    return EXIT_INFEASIBLE if report.n_violations else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _worker_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flocklab",
        description="simulation and certification laboratory for perturbed flocking networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, *flags, out_required=True):
        """A subcommand that takes exactly `flags`, each defined once here."""
        options = {
            "--scenario": dict(required=True, help="path to a scenario JSON file"),
            "--out": dict(
                required=out_required,
                default=None,
                help="output directory" if name != "audit" else "run directory to audit",
            ),
            "--seed": dict(type=int, default=None, help="override the scenario seed"),
            "--jobs": dict(type=_worker_count, default=1, help="parallel workers, at least 1"),
            "--full": dict(action="store_true", help="write full state columns to CSV"),
        }
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
        return p

    add("simulate", cmd_simulate, "run a scenario and write artifacts",
        "--scenario", "--out", "--seed", "--full")
    add("certify", cmd_certify, "evaluate the scenario certificate",
        "--scenario", "--out", "--seed", out_required=False)
    sweep = add("sweep", cmd_sweep, "grid of certificates over axis values",
                "--scenario", "--out", "--seed", "--jobs")
    sweep.add_argument(
        "--axis",
        action="append",
        metavar="KEY=VALUES",
        help="sweep axis, e.g. coupling.delta=0:2:0.05 or seed=[1,2,3]; repeatable",
    )
    sweep.add_argument(
        "--simulate",
        action="store_true",
        help="also simulate each point and record the observed decay rate",
    )
    add("validate", cmd_validate, "check a scenario file and report diagnostics",
        "--scenario", "--seed")
    add("audit", cmd_audit, "recheck a finished run against the certified inequalities", "--out")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; this interface pins 1
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError, ArithmeticError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
