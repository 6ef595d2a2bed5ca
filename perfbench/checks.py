"""Per-operation output checks and the reference comparison.

``observe`` checks one flocklab CLI call from its exit code, what it printed
and what it wrote, and returns the quantities worth pinning.  It raises
``CheckFailed`` when the call failed.  An ``audit`` exit of 2 is a verdict
(violations found), not a failure; so is a ``certify`` exit of 2
(infeasible) and a ``simulate`` exit of 3 (collision), as long as the exit
code agrees with what the call reports.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

PLOTS = ("velocity_components.svg", "pairwise_distances.svg", "spread_v_log.svg")
EXIT_BY_TERMINATION = {"completed": 0, "collision": 3}

# d* and epsilon come from bisection to 1e-10 and are held to a relative
# 1e-9.  Trajectory quantities are held to a relative 1e-5, floored at
# criterion 1's sup tolerance of 1e-5: spreads that have decayed to round-off
# carry no digits worth pinning.
CERT_RTOL = 1e-9
TRAJ_TOL = 1e-5


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _fields(stdout: str) -> dict:
    """`key: value` lines of a report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _number(text: str):
    return None if text in ("none", "") else float(text)


def _sample_rows(integ: dict) -> int:
    # flocklab's uniform sample grid: t0, t0 + dt, ... and t_end itself
    span = integ["t_end"] - integ["t0"]
    return math.ceil(span / integ["sample_dt"] - 1e-12) + 1


def _check_validate(rc, stdout, out):
    _require(rc == 0 and "scenario OK" in stdout, f"validate exit {rc}: {stdout.strip()!r}")
    return {}


def _check_certify(rc, stdout, out):
    rep = _fields(stdout)
    _require(rep.get("feasible") in ("true", "false"), "certify printed no verdict")
    feasible = rep["feasible"] == "true"
    _require(rc == (0 if feasible else 2), f"certify exit {rc} disagrees with feasible={feasible}")
    obs = {"feasible": feasible}
    for key in ("d_star", "epsilon"):
        if key in rep:
            obs[key] = _number(rep[key])
    return obs


def _check_simulate(rc, stdout, out):
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    run = manifest["run"]
    kind = run["termination"]["kind"]
    _require(kind in EXIT_BY_TERMINATION, f"simulate ended in {kind}")
    _require(rc == EXIT_BY_TERMINATION[kind], f"simulate exit {rc} disagrees with {kind}")
    for name in ("timeseries.csv", *PLOTS):
        _require((out / name).is_file(), f"simulate wrote no {name}")
    if manifest["certificate"] is not None:
        _require((out / "certificate.txt").is_file(), "simulate wrote no certificate.txt")

    data = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1, ndmin=2)
    doc = manifest["scenario"]
    _require(data.shape[0] == run["rows"], f"CSV has {data.shape[0]} rows, manifest {run['rows']}")
    if kind == "completed":
        want = _sample_rows(doc["integrator"])
        _require(data.shape[0] == want, f"CSV has {data.shape[0]} rows, sample grid {want}")
    _require(bool(np.isfinite(data).all()), "CSV holds NaN or infinite values")

    obs = {
        "termination": kind,
        "feasible": None if manifest["certificate"] is None else manifest["certificate"]["feasible"],
        "final_spread_v": float(data[-1, 1]),
        "max_spread_x": float(data[:, 2].max()),
    }
    if doc["variant"] == "collision_free":
        min_d2 = float(data[:, 3].min())
        _require(min_d2 > doc["repulsion"]["d0"], f"pair reached squared distance {min_d2} <= d0")
        obs["min_dist_sq"] = min_d2
    return obs


def _check_audit(rc, stdout, out):
    rep = _fields(stdout)
    _require("violations" in rep and "checked" in rep, f"audit exit {rc}: {stdout.strip()!r}")
    violations = int(rep["violations"])
    _require(rc == (2 if violations else 0), f"audit exit {rc} with {violations} violations")
    return {"violations": violations, "checked": int(rep["checked"])}


_SWEEP_LINE = re.compile(r"sweep: (\d+) points, (\d+) feasible, (\d+) errors")


def _check_sweep(rc, stdout, out):
    m = _SWEEP_LINE.search(stdout)
    _require(rc == 0 and m is not None, f"sweep exit {rc}: {stdout.strip()!r}")
    points, feasible, errors = (int(g) for g in m.groups())
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == points, f"sweep.csv has {len(rows)} rows, sweep reported {points}")
    first_error = next((row["error"] for row in rows if row["error"]), "")
    _require(errors == 0, f"{errors} sweep points failed, first: {first_error}")
    _require(not any("nan" in row.values() for row in rows), "sweep.csv holds NaN")
    return {"rows": points, "feasible": feasible, "errors": errors}


_CHECKS = {
    "validate": _check_validate,
    "certify": _check_certify,
    "simulate": _check_simulate,
    "audit": _check_audit,
    "sweep": _check_sweep,
}


def observe(argv: list[str], rc: int, stdout: str, out: Path | None) -> dict:
    """Check one CLI call; returns the quantities the reference pins."""
    try:
        return _CHECKS[argv[0]](rc, stdout, out)
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"{argv[0]}: {type(exc).__name__}: {exc}") from exc


def _close(got, want, key: str) -> bool:
    if not (isinstance(want, float) and isinstance(got, float)):
        return got == want
    if key in ("d_star", "epsilon"):
        return abs(got - want) <= CERT_RTOL * abs(want)
    return abs(got - want) <= TRAJ_TOL * max(1.0, abs(want))


def compare(label: str, obs: dict, reference: dict) -> None:
    """Raise CheckFailed where obs departs from the stored reference."""
    want = reference.get(label)
    _require(want is not None, "no reference value stored")
    _require(sorted(obs) == sorted(want), f"observed {sorted(obs)}, reference {sorted(want)}")
    for key, ref in want.items():
        _require(_close(obs[key], ref, key), f"{key} = {obs[key]!r}, reference {ref!r}")
