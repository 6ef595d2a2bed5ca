"""End-to-end command line tests driven through main() in process."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import flocklab
import flocklab.cli as cli_module
from flocklab.cli import (
    EXIT_COLLISION,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_UNDERFLOW,
    EXIT_USAGE,
    _parse_axis,
    _set_by_path,
    _sweep_point,
    _termination_exit,
    build_parser,
    main,
)
from flocklab.integrate import CollisionEvent, Completed, StepSizeUnderflow


def bundled_path(name: str) -> str:
    return str(files("flocklab") / "scenarios" / f"{name}.json")


@pytest.fixture(scope="module")
def control_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("control_run")
    code = main(
        ["simulate", "--scenario", bundled_path("negative_control"), "--out", str(out), "--full"]
    )
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# validate


def test_validate_accepts_bundled_scenario(capsys):
    code = main(["validate", "--scenario", bundled_path("example1_delta09")])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "scenario OK"


def test_validate_reports_path_tagged_diagnostics(tmp_path, capsys):
    doc = json.loads(Path(bundled_path("example1_delta09")).read_text(encoding="utf-8"))
    doc["coupling"]["mystery"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["validate", "--scenario", str(bad)])
    assert code == EXIT_USAGE
    assert "coupling.mystery: unknown key" in capsys.readouterr().out


@pytest.mark.parametrize("name", [["lorenz"], {"name": "lorenz"}])
def test_validate_reports_non_string_dynamics_name(name, tmp_path, capsys):
    doc = json.loads(Path(bundled_path("example2_strong")).read_text(encoding="utf-8"))
    doc["internal"]["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == EXIT_USAGE
    assert f"internal.name: unknown dynamics {name!r}" in capsys.readouterr().out


def test_validate_reports_a_scenario_that_fails_to_materialize(tmp_path, capsys):
    # the schema admits it, but 12 agents 0.275 apart do not fit a 0.2 square
    doc = json.loads(Path(bundled_path("example3_strong")).read_text(encoding="utf-8"))
    doc["n"] = 12
    doc["initial"]["spread_x"] = 0.2
    crowded = tmp_path / "crowded.json"
    crowded.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--scenario", str(crowded)]) == EXIT_USAGE
    assert capsys.readouterr().out.splitlines() == [
        "materialization: initial positions: no draw met min squared separation 0.275 in 10000 attempts"
    ]


def test_validate_rejects_broken_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["validate", "--scenario", str(bad)]) == EXIT_USAGE
    assert "invalid JSON" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["certify", "simulate", "sweep"])
def test_truncated_json_is_a_document_diagnostic(command, tmp_path, capsys):
    bad = tmp_path / "cut.json"
    bad.write_text('{"name": "cut', encoding="utf-8")
    assert main([command, "--scenario", str(bad), "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "document: invalid JSON" in capsys.readouterr().err


def test_validate_applies_seed_override(monkeypatch, capsys):
    seeds = []
    materialize = cli_module.materialize

    def recording(doc, **kwargs):
        seeds.append(doc["seed"])
        return materialize(doc, **kwargs)

    monkeypatch.setattr(cli_module, "materialize", recording)
    scenario = bundled_path("example3_strong")
    assert main(["validate", "--scenario", scenario, "--seed", "99"]) == EXIT_OK
    assert seeds == [99]
    # the override is validated like the file's own seed
    assert main(["validate", "--scenario", scenario, "--seed", "-1"]) == EXIT_USAGE
    assert "seed: must be >= 0" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_seed_override_on_a_non_object_document_is_a_diagnostic(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1]", encoding="utf-8")
    argv = [command, "--scenario", str(path), "--seed", "3"]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "document: must be a JSON object" in captured.out + captured.err


def test_missing_scenario_file_is_usage_error():
    assert main(["certify", "--scenario", "/no/such/file.json"]) == EXIT_USAGE


def test_usage_errors_exit_one(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["simulate", "--scenario", "x.json"]) == EXIT_USAGE  # --out missing
    assert main(["certify", "--scenario", "x.json", "--bogus"]) == EXIT_USAGE
    capsys.readouterr()


# every option each subcommand reads, and options it must reject as unread
_OPTIONS = {
    "simulate": ["--scenario", "s.json", "--out", "o", "--seed", "3", "--full"],
    "certify": ["--scenario", "s.json", "--out", "o", "--seed", "3"],
    "sweep": ["--scenario", "s.json", "--out", "o", "--seed", "3", "--jobs", "2",
              "--axis", "seed=[1]", "--simulate"],
    "validate": ["--scenario", "s.json", "--seed", "3"],
    "audit": ["--out", "o"],
}
_REMOVED = [
    ("simulate", "--jobs"),
    ("certify", "--jobs"),
    ("certify", "--full"),
    ("sweep", "--full"),
    ("validate", "--jobs"),
    ("validate", "--full"),
    ("audit", "--seed"),
    ("audit", "--jobs"),
    ("audit", "--full"),
]


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_subcommand_parses_every_option_it_reads(command):
    args = build_parser().parse_args([command, *_OPTIONS[command]])
    given = {flag[2:] for flag in _OPTIONS[command] if flag.startswith("--")}
    assert set(vars(args)) - {"command", "fn"} == given


def test_cli_has_sixteen_settable_options():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {name: [a.dest for a in p._actions if a.dest != "help"] for name, p in sub.choices.items()}
    assert sorted(dests) == sorted(_OPTIONS)
    assert sum(map(len, dests.values())) == 16


@pytest.mark.parametrize("command,flag", _REMOVED)
def test_subcommand_rejects_options_it_does_not_read(command, flag, capsys):
    value = [] if flag == "--full" else ["1"]
    assert main([command, *_OPTIONS[command], flag, *value]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "simulate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# certify


def test_certify_feasible_scenario(capsys):
    code = main(["certify", "--scenario", bundled_path("example1_delta09")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("certificate: sync")
    assert "feasible: true" in out
    assert "k_source: trajectory" in out


def test_certify_infeasible_scenario_exits_two(capsys):
    code = main(["certify", "--scenario", bundled_path("example2_weak")])
    assert code == EXIT_INFEASIBLE
    assert "feasible: false" in capsys.readouterr().out


def test_certify_writes_report_when_out_given(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(
        ["certify", "--scenario", bundled_path("example3_strong"), "--out", str(out)]
    )
    assert code == EXIT_OK
    text = (out / "certificate.txt").read_text(encoding="utf-8")
    assert text == capsys.readouterr().out
    assert text.startswith("certificate: collision")


def test_certificate_floats_print_alike_in_report_stdout_and_manifest(tmp_path, capsys):
    # one number rule: the report simulate writes, certify's stdout and the
    # manifest's JSON give each float field the same digits; the text
    # drops only JSON's trailing ".0" of an integral value
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", bundled_path("example2_strong"), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", "--scenario", bundled_path("example2_strong")]) == EXIT_OK
    report = (out / "certificate.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == report
    fields = dict(line.split(": ", 1) for line in report.splitlines())
    text = (out / "manifest.json").read_text(encoding="utf-8")
    block = json.loads(text)["certificate"]
    tokens = json.loads(text, parse_float=str)["certificate"]
    floats = [key for key, val in block.items() if isinstance(val, float)]
    assert "k_bound" in floats and fields["k_bound"] == "39.4"
    for key in floats:
        assert fields[key] == tokens[key].removesuffix(".0"), key


def test_region_k_over_too_many_box_corners_fails_instead_of_hanging(tmp_path, capsys):
    # 2^40 corners of the zero dynamics' box would take weeks to walk
    doc = json.loads(Path(bundled_path("example1_delta09")).read_text(encoding="utf-8"))
    doc.update(r=40, internal={"name": "zero"}, certificate={"k_source": "region"},
               initial={"mode": "generate", "spread_x": 1.0, "spread_v": 0.5})
    path = tmp_path / "zero_r40.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    message = "k_region over 1099511627776 box points (2 a side in 40 dimensions), over the limit of 1048576"
    for argv in (["certify"], ["simulate", "--out", str(tmp_path / "run")]):
        assert main([*argv, "--scenario", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--out", str(out), "--axis", "r=[2,40]"]) == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"] for row in rows] == ["", f"ValueError: {message}"]


def test_certify_without_penalty_on_a_steep_envelope_reports_a_verdict(tmp_path, capsys):
    # psi = 1 / (1 + s^2)^12 overflows long before s = 1e15, so no radius may be probed
    doc = json.loads(Path(bundled_path("example1_delta09")).read_text(encoding="utf-8"))
    doc["coupling"] = {"family": "power_law", "gain": 1.0, "sigma": 1.0, "exponent": 12.0}
    doc["certificate"] = {"k_source": "user", "k_value": 0.0}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["certify", "--scenario", str(path)]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.out.startswith("certificate: sync\nfeasible: false\n")
    assert "d_max: inf\n" in captured.out and captured.err == ""


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_expected_artifacts(control_run, capsys):
    names = {p.name for p in control_run.iterdir()}
    assert names == {
        "timeseries.csv",
        "velocity_components.svg",
        "pairwise_distances.svg",
        "spread_v_log.svg",
        "certificate.txt",
        "manifest.json",
    }
    manifest = json.loads((control_run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "simulate"
    assert manifest["full"] is True
    assert manifest["run"]["termination"] == {"kind": "completed"}
    # ceil(6.0 / 0.02) + 1 samples
    assert manifest["run"]["rows"] == 301
    assert manifest["certificate"]["k_source"] == "region"
    assert manifest["certificate"]["k_bound"] == pytest.approx(1.0)
    assert manifest["certificate"]["feasible"] is True
    assert "resolved" not in manifest  # K is the certificate's
    assert len(manifest["scenario_sha256"]) == 64
    assert set(manifest["versions"]) == {"flocklab", "numpy", "scipy", "python"}


@pytest.mark.parametrize("name", ["example1_delta09", "example2_strong"])
def test_one_agent_flock_simulates_and_audits(name, tmp_path, capsys):
    # one agent has no pair to plot: the pairwise plot is an empty frame
    doc = json.loads(Path(bundled_path(name)).read_text(encoding="utf-8"))
    r = doc["r"]
    doc["n"] = 1
    doc["initial"] = {"mode": "explicit", "x": [[0.0] * r], "v": [[1.2] * r]}
    doc["integrator"]["t_end"] = 1.0
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--full"]) == EXIT_OK
    assert main(["audit", "--out", str(out)]) == EXIT_OK
    assert {p.name for p in out.iterdir()} == {
        "timeseries.csv",
        "velocity_components.svg",
        "pairwise_distances.svg",
        "spread_v_log.svg",
        "certificate.txt",
        "manifest.json",
    }
    svg = (out / "pairwise_distances.svg").read_text(encoding="utf-8")
    assert svg.endswith("</svg>\n") and "<path" not in svg
    # while the lone agent's velocity components are drawn, one path per axis
    assert (out / "velocity_components.svg").read_text(encoding="utf-8").count("<path") == r


def test_simulate_reports_a_non_finite_plot_series(tmp_path, capsys, monkeypatch):
    # a NaN in the certified bound is one error line, not a plot of "nan" vertices
    nan_bound = lambda self, t, t0=0.0: np.full(np.shape(t), math.nan)  # noqa: E731
    monkeypatch.setattr(cli_module.SyncCertificate, "decay_bound", nan_bound)
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", bundled_path("example1_delta09"), "--out", str(out)])
    assert code == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("error: ValueError: ")
    assert "'velocity spread'" in line and "'certified bound'" in line
    assert not (out / "spread_v_log.svg").exists()


def test_simulate_csv_has_full_state_columns(control_run):
    with open(control_run / "timeseries.csv", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["t", "S_v", "S_x", "min_dist_sq"]
    assert "v_5_1" in header and "x_5_1" in header
    assert len(header) == 4 + 2 * 5


def test_simulate_seed_override_lands_in_manifest(tmp_path):
    out = tmp_path / "seeded"
    code = main(
        [
            "simulate",
            "--scenario",
            bundled_path("example3_strong"),
            "--out",
            str(out),
            "--seed",
            "99",
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["scenario"]["seed"] == 99
    assert "seed" not in manifest  # the scenario holds it


def test_simulate_collision_exit_code(tmp_path, capsys):
    doc = {
        "name": "headon",
        "variant": "collision_free",
        "n": 2,
        "r": 1,
        "seed": 0,
        "coupling": {"family": "constant", "w": 1e-9},
        "repulsion": {"d0": 0.25, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1e-9}},
        "initial": {"mode": "explicit", "x": [0.0, 3.0], "v": [5.0, -5.0]},
        "integrator": {"t_end": 1.0, "sample_dt": 0.01, "collision_margin": 1.0},
    }
    path = tmp_path / "headon.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", str(path), "--out", str(out)])
    assert code == EXIT_COLLISION
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["run"]["termination"]["kind"] == "collision"
    assert 0.15 < manifest["run"]["termination"]["t_star"] < 0.22
    capsys.readouterr()


def test_a_stage_inside_d0_is_a_rejection_and_the_run_reports_its_collision(tmp_path, capsys):
    # the default event margin of 1e-9 is far thinner than a step, so an
    # attempt can put a stage inside d0, where the RHS is undefined; that
    # attempt is rejected, h shrinks, and the event is located in a later step
    doc = {
        "name": "singular_stage",
        "variant": "collision_free",
        "n": 2,
        "r": 1,
        "seed": 0,
        "coupling": {"family": "constant", "w": 0.001},
        "repulsion": {"d0": 0.25, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1e-6}},
        "initial": {"mode": "explicit", "x": [0.0, 2.0], "v": [1.0, -1.0]},
        "integrator": {"t_end": 2.0, "sample_dt": 0.01},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--scenario", str(path), "--out", str(out), "--full"]) == EXIT_COLLISION
    run = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["run"]
    assert run["termination"] == {"kind": "collision", "t_star": 0.7505636801938453, "i": 0, "j": 1}
    assert run["n_rejected"] > 0
    assert "SingularDistanceError" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "t_end, sample_dt, error",
    [(1e300, 1e-300, "OverflowError"), (1e13, 1.0, "MemoryError")],
    ids=["count-overflows", "grid-too-big"],
)
def test_simulate_of_a_grid_past_float_or_memory_is_a_clean_error(
    t_end, sample_dt, error, tmp_path, capsys
):
    # both documents validate; the sample count overflows an int, or its
    # grid would take 72.8 TiB, which the allocator refuses at once
    doc = json.loads(Path(bundled_path("example1_delta09")).read_text(encoding="utf-8"))
    doc["integrator"] = {"t_end": t_end, "sample_dt": sample_dt}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--scenario", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and "Traceback" not in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["x_center", "v_center"])
def test_validate_rejects_a_non_finite_scalar_centre(tmp_path, capsys, key, value):
    doc = json.loads(Path(bundled_path("example3_strong")).read_text(encoding="utf-8"))
    doc["initial"][key] = value
    path = tmp_path / "centre.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity literals
    assert main(["validate", "--scenario", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().out.splitlines() == [f"initial.{key}: must be finite"]


def test_termination_exit_mapping():
    assert _termination_exit(Completed()) == EXIT_OK
    assert _termination_exit(CollisionEvent(t_star=1.0, i=0, j=1)) == EXIT_COLLISION
    assert _termination_exit(StepSizeUnderflow(t=1.0)) == EXIT_UNDERFLOW


# ---------------------------------------------------------------------------
# audit


def test_audit_accepts_clean_run(control_run, capsys):
    code = main(["audit", "--out", str(control_run)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "violations: 0" in out
    assert "alignment inequality" in out


def _copy_run(run: Path, dest: Path) -> Path:
    dest.mkdir()
    for name in ("timeseries.csv", "manifest.json"):
        (dest / name).write_bytes((run / name).read_bytes())
    return dest


def test_audit_flags_tampered_penalty_bound(control_run, tmp_path, capsys):
    copied = _copy_run(control_run, tmp_path / "tampered")
    manifest = json.loads((copied / "manifest.json").read_text(encoding="utf-8"))
    manifest["certificate"]["k_bound"] /= 10.0
    (copied / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["audit", "--out", str(copied)])
    assert code == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "violations: 0" not in out
    assert "first violation at t" in out


def test_audit_reads_k_from_the_certificate(control_run, tmp_path, capsys):
    run = _copy_run(control_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    assert "resolved" not in manifest and "seed" not in manifest
    assert main(["audit", "--out", str(run)]) == EXIT_OK
    capsys.readouterr()
    manifest["certificate"]["k_bound"] /= 10.0
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["audit", "--out", str(run)]) == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "violations: 0" not in out and "first violation at t" in out


@pytest.mark.parametrize(
    "k_bound, want",
    [("nan", "must be a number"), ("inf", "must be a number"), ([1], "must be a number"),
     (math.nan, "must be finite")],
    ids=["nan", "inf", "list", "nan-literal"],
)
def test_audit_refuses_a_k_bound_that_is_no_finite_number(k_bound, want, control_run, tmp_path, capsys):
    run = _copy_run(control_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest["certificate"]["k_bound"] = k_bound
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")  # NaN literal
    assert f"certificate.k_bound: {want}" in _audit_error(run, capsys)


def test_audit_reads_no_step_counters(control_run, tmp_path, capsys):
    clean = main(["audit", "--out", str(control_run)]), capsys.readouterr().out
    run = _copy_run(control_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest["run"]["n_accepted"] = manifest["run"]["n_rejected"] = [1]
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert (main(["audit", "--out", str(run)]), capsys.readouterr().out) == clean
    assert clean[0] == EXIT_OK


def test_audit_refuses_a_row_count_that_is_no_integer(control_run, tmp_path, capsys):
    run = _copy_run(control_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest["run"]["rows"] = str(manifest["run"]["rows"])
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert "run.rows: must be an integer" in _audit_error(run, capsys)


def _audit_error(out: Path, capsys) -> str:
    """The one stderr line of an audit of out that must exit 1."""
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and captured.out == ""
    return line


@pytest.fixture(scope="module")
def collision_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("collision_run")
    code = main(["simulate", "--scenario", bundled_path("example3_strong"), "--out", str(out), "--full"])
    assert code == EXIT_OK
    return out


def test_audit_refuses_another_runs_timeseries(collision_run, tmp_path, capsys):
    foreign = tmp_path / "foreign"
    assert main(["simulate", "--scenario", bundled_path("example1_delta09"), "--out", str(foreign), "--full"]) == EXIT_OK
    run = _copy_run(collision_run, tmp_path / "run")
    (run / "timeseries.csv").write_bytes((foreign / "timeseries.csv").read_bytes())
    line = _audit_error(run, capsys)
    assert "801 rows of n = 5, r = 1" in line and "1001 rows of n = 5, r = 2" in line


@pytest.mark.parametrize("cut", ["last row", "last agent"])
def test_audit_refuses_a_cut_timeseries(cut, collision_run, tmp_path, capsys):
    run = _copy_run(collision_run, tmp_path / "run")
    lines = (run / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    if cut == "last row":
        lines.pop()
    else:  # n = 5, r = 2: drop v_5_* and x_5_*, the columns 12, 13 and 22, 23
        cells = [line.split(",") for line in lines]
        lines = [",".join(row[:12] + row[14:22] + row[24:]) for row in cells]
    (run / "timeseries.csv").write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    want = "1000 rows of n = 5, r = 2" if cut == "last row" else "1001 rows of n = 4, r = 2"
    assert want in _audit_error(run, capsys)


def test_audit_refuses_an_edited_scenario(collision_run, tmp_path, capsys):
    run = _copy_run(collision_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    manifest["scenario"]["coupling"]["w"] *= 2.0
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert "does not hash to its scenario_sha256" in _audit_error(run, capsys)


@pytest.mark.parametrize("field", ["document", "termination"])
def test_audit_of_a_malformed_manifest_is_one_error_line(field, collision_run, tmp_path, capsys):
    run = _copy_run(collision_run, tmp_path / "run")
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    if field == "document":
        manifest, want = [], "must hold a JSON object, not list"
    else:
        manifest["run"]["termination"], want = ["completed"], "termination: must be a JSON object"
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert want in _audit_error(run, capsys)


def test_audit_that_checks_nothing_warns(tmp_path, capsys, caplog):
    # example2_strong's w=150 coupling aligns the flock within one coarse sample
    doc = json.loads(Path(bundled_path("example2_strong")).read_text(encoding="utf-8"))
    doc["integrator"] = {"t_end": 0.3, "sample_dt": 0.1}
    scenario = tmp_path / "coarse.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "coarse"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--full"]) == EXIT_OK
    capsys.readouterr()
    caplog.clear()

    assert main(["audit", "--out", str(out)]) == EXIT_OK
    assert "checked: 0\n" in capsys.readouterr().out
    (record,) = [r for r in caplog.records if r.levelname == "WARNING"]
    assert "resolution floor" in record.getMessage()
    assert "sample_dt = 0.1" in record.getMessage()


def test_audit_of_a_run_that_starts_below_the_floor_asks_for_no_finer_grid(tmp_path, capsys, caplog):
    # a lone agent's velocity spread is 0 at every sample, so no sample_dt
    # lets the audit check a step
    doc = json.loads(Path(bundled_path("example1_delta09")).read_text(encoding="utf-8"))
    doc["n"] = 1
    doc["initial"] = {"mode": "explicit", "x": [[0.0] * doc["r"]], "v": [[1.2] * doc["r"]]}
    doc["integrator"]["t_end"] = 1.0
    scenario = tmp_path / "one.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "one"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out), "--full"]) == EXIT_OK
    capsys.readouterr()
    caplog.clear()

    assert main(["audit", "--out", str(out)]) == EXIT_OK
    assert "checked: 0\n" in capsys.readouterr().out
    (record,) = [r for r in caplog.records if r.levelname == "WARNING"]
    assert "starts at or below the resolution floor" in record.getMessage()
    assert "sample_dt" not in record.getMessage()


def test_audit_that_checks_steps_does_not_warn(control_run, capsys, caplog):
    assert main(["audit", "--out", str(control_run)]) == EXIT_OK
    assert "checked: 0\n" not in capsys.readouterr().out
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_audit_on_collision_variant(tmp_path, capsys):
    out = tmp_path / "coll"
    assert (
        main(
            [
                "simulate",
                "--scenario",
                bundled_path("example3_strong"),
                "--out",
                str(out),
                "--full",
            ]
        )
        == EXIT_OK
    )
    code = main(["audit", "--out", str(out)])
    assert code == EXIT_OK
    assert "collision inequality" in capsys.readouterr().out


def test_audit_needs_full_state_csv(tmp_path, capsys):
    out = tmp_path / "slim"
    assert (
        main(
            ["simulate", "--scenario", bundled_path("negative_control"), "--out", str(out)]
        )
        == EXIT_OK
    )
    assert main(["audit", "--out", str(out)]) == EXIT_USAGE
    capsys.readouterr()


def test_audit_missing_run_dir_is_usage_error(tmp_path):
    assert main(["audit", "--out", str(tmp_path / "nope")]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# sweep


def test_sweep_over_decay_exponent(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--scenario",
            bundled_path("example1_sweep"),
            "--out",
            str(out),
            "--axis",
            "coupling.delta=[0.5,1.0,1.5]",
        ]
    )
    assert code == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    by_delta = {row["coupling.delta"]: row for row in rows}
    assert by_delta["0.5"]["feasible"] == "true"
    assert by_delta["1"]["feasible"] == "true"
    assert by_delta["1.5"]["feasible"] == "false"
    assert by_delta["1.5"]["d_star"] == ""
    assert all(row["error"] == "" for row in rows)
    assert "3 points, 2 feasible, 0 errors" in capsys.readouterr().out


def test_sweep_seed_axis_leaves_explicit_scenario_invariant(tmp_path, capsys):
    out = tmp_path / "seeds"
    code = main(
        [
            "sweep",
            "--scenario",
            bundled_path("example1_sweep"),
            "--out",
            str(out),
            "--axis",
            "seed=1,2,3",
        ]
    )
    assert code == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert len({row["d_star"] for row in rows}) == 1
    assert len({row["epsilon"] for row in rows}) == 1
    capsys.readouterr()


def test_sweep_parallel_jobs_match_serial(tmp_path, capsys):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    argv = [
        "sweep",
        "--scenario",
        bundled_path("example1_sweep"),
        "--axis",
        "coupling.delta=[0.8,1.0]",
    ]
    assert main([*argv, "--out", str(serial)]) == EXIT_OK
    assert main([*argv, "--out", str(parallel), "--jobs", "2"]) == EXIT_OK
    assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()
    capsys.readouterr()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the points dealt, maps in process."""

    sizes: list = []
    dealt: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, chunks):
        self.dealt.append([[payload[1] for payload in chunk] for chunk in chunks])
        return map(fn, chunks)


@pytest.mark.parametrize(
    "jobs, points, pool",
    [(8, 2, [2]), (2, 3, [2]), (4, 1, [])],
    ids=["8-jobs-2-points", "2-jobs-3-points", "4-jobs-1-point"],
)
def test_sweep_pool_never_exceeds_the_points(jobs, points, pool, tmp_path, monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    deltas = ",".join(str(0.8 + 0.1 * k) for k in range(points))
    argv = ["sweep", "--scenario", bundled_path("example1_sweep"), "--out", str(tmp_path),
            "--axis", f"coupling.delta=[{deltas}]", "--jobs", str(jobs)]
    assert main(argv) == EXIT_OK
    assert _RecordingPool.sizes == pool
    assert f"sweep: {points} points" in capsys.readouterr().out


def test_sweep_deals_points_round_robin_to_the_workers(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "dealt", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    argv = ["sweep", "--scenario", bundled_path("example1_sweep"), "--out", str(tmp_path),
            "--axis", "coupling.delta=[0.6,0.7,0.8,0.9,1.0]", "--jobs", "2"]
    assert main(argv) == EXIT_OK
    assert _RecordingPool.dealt == [[[0, 2, 4], [1, 3]]]
    assert "sweep: 5 points" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_sweep_rejects_a_worker_count_below_one(jobs, tmp_path, monkeypatch, capsys):
    import concurrent.futures

    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    argv = ["sweep", "--scenario", bundled_path("example1_sweep"), "--out", str(tmp_path / "o"),
            "--axis", "coupling.delta=[0.8,1.0]", "--jobs", jobs]
    assert main(argv) == EXIT_USAGE
    assert "argument --jobs" in capsys.readouterr().err
    assert _RecordingPool.sizes == [] and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "axes, message",
    [
        (["coupling.delta=0:1:0.01"], "101 values, over the limit of 100"),
        ([f"coupling.delta=[{','.join(['1.0'] * 101)}]"], "sweep of 101 points, over the limit of 100"),
        (["coupling.delta=0:1:0.1", "coupling.w=[1,2,3,4,5,6,7,8,9,10]"],
         "sweep of 110 points, over the limit of 100"),
        (["coupling.delta=0.5:1.49:0.01"], None),
    ],
    ids=["range-axis", "list-axis", "product", "at-the-limit"],
)
def test_sweep_over_the_point_limit_exits_one_before_building_a_point(
    axes, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli_module, "SWEEP_POINTS", 100)
    argv = ["sweep", "--scenario", bundled_path("example1_sweep"), "--out", str(tmp_path / "o"),
            *(arg for axis in axes for arg in ("--axis", axis))]
    if message is None:  # 100 values of 0.5 + 0.01 k
        assert main(argv) == EXIT_OK
        assert "sweep: 100 points" in capsys.readouterr().out
        return
    assert main(argv) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_sweep_records_per_point_failures(tmp_path, capsys):
    out = tmp_path / "err"
    code = main(
        [
            "sweep",
            "--scenario",
            bundled_path("example1_sweep"),
            "--out",
            str(out),
            "--axis",
            "coupling.w=[1.0,-1.0]",
        ]
    )
    assert code == EXIT_OK
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != "" and rows[1]["feasible"] == ""
    assert "1 errors" in capsys.readouterr().out


def test_sweep_point_failure_logs_its_traceback(caplog):
    doc = json.loads(Path(bundled_path("example1_sweep")).read_text(encoding="utf-8"))
    payload = (json.dumps(doc), 3, [("coupling.w", -1.0)], True, False)
    with caplog.at_level(logging.DEBUG, logger="flocklab"):
        row, run = _sweep_point(payload)
    assert run is None and row["error"].startswith("ScenarioError: ")
    (record,) = [r for r in caplog.records if r.levelname == "DEBUG"]
    assert record.getMessage() == "sweep point 3 failed"
    assert record.exc_info[0].__name__ == "ScenarioError"
    assert f"{record.exc_info[0].__name__}: {record.exc_info[1]}" == row["error"]


# the hazard exponents 0.5 and 2.0 next to ordinary ones, in two w groups
_BATCH_AXES = ["--axis", "coupling.delta=[0.5,0.75,1.0,2.0]", "--axis", "coupling.w=[1.0,1.5]"]


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_batched_sweep_equals_each_point_integrated_alone(tmp_path, capsys):
    from flocklab import artifacts
    from flocklab.certify import decay_rate_fit
    from flocklab.integrate import integrate
    from flocklab.scenario import evaluate_certificate, materialize

    base = ["sweep", "--scenario", bundled_path("example1_sweep"), "--simulate", *_BATCH_AXES]
    assert main([*base, "--out", str(tmp_path / "serial")]) == EXIT_OK  # one block of 8
    assert main([*base, "--out", str(tmp_path / "pool"), "--jobs", "2"]) == EXIT_OK  # 4 per worker
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "pool" / "sweep.csv").read_bytes()

    doc = json.loads(Path(bundled_path("example1_sweep")).read_text(encoding="utf-8"))
    rows = _read_rows(tmp_path / "serial" / "sweep.csv")
    assert len(rows) == 8
    for idx, row in enumerate(rows):
        delta, w = [0.5, 0.75, 1.0, 2.0][idx // 2], [1.0, 1.5][idx % 2]
        point = json.loads(json.dumps(doc))
        point["coupling"].update(delta=delta, w=w)
        sc = materialize(point, seed_path=(doc["seed"], idx))
        want = artifacts.certificate_fields(evaluate_certificate(sc))
        want["eps_observed"] = decay_rate_fit(
            integrate(sc.spec, sc.state0, sc.integrator)
        )
        assert row["error"] == ""
        for key, val in want.items():
            assert row[key] == cli_module._csv_cell(val), key
    capsys.readouterr()


def test_sweep_run_that_fails_keeps_its_certificate_row(monkeypatch, caplog):
    # point 3 fails its certificate; the run of the point with delta 2.0
    # fails its start, in the block of the other runs and alone, and its
    # row keeps its certificate
    import flocklab.integrate as integrate_module

    doc = json.dumps(json.loads(Path(bundled_path("example1_sweep")).read_text(encoding="utf-8")))
    assignments = [[("coupling.delta", 0.5)], [("coupling.delta", 1.0)],
                   [("coupling.delta", 2.0)], [("coupling.w", -1.0)]]
    payloads = [(doc, idx, point, True, True) for idx, point in enumerate(assignments)]
    want = [cli_module._sweep_chunk([payload])[0] for payload in payloads]
    start = integrate_module._start

    def failing_start(spec, state, cfg):
        if spec.coupling.delta == 2.0:
            raise RuntimeError("point failed")
        return start(spec, state, cfg)

    monkeypatch.setattr(integrate_module, "_start", failing_start)
    for cap in (3, 1):  # one block of three runs, then each run alone
        monkeypatch.setattr(integrate_module, "batch_size", lambda n, r, cfg: cap)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="flocklab"):
            rows = cli_module._sweep_chunk(payloads)
        assert rows[0] == want[0] and rows[1] == want[1] and rows[3] == want[3]
        assert rows[2]["error"] == "RuntimeError: point failed" and "eps_observed" not in rows[2]
        assert rows[2]["d_star"] == want[2]["d_star"]  # its certificate still recorded
        assert rows[3]["error"].startswith("ScenarioError") and "eps_observed" not in rows[3]
        messages = [record.getMessage() for record in caplog.records]
        assert messages == ["sweep point 3 failed", "sweep point 2 failed"]


def test_collision_sweep_steps_its_singular_point_in_the_block(tmp_path, capsys, caplog, monkeypatch):
    # the middle point is the head-on pair whose stage lands inside d0; the
    # others complete without one.  All three step in one block, nothing
    # reruns alone, and each row equals its point integrated alone
    import flocklab.integrate as integrate_module
    from flocklab.certify import decay_rate_fit
    from flocklab.integrate import integrate
    from flocklab.scenario import materialize

    batch = integrate_module.integrate_batch
    blocks = []
    monkeypatch.setattr(integrate_module, "integrate_batch",
                        lambda *run: blocks.append(len(run[0])) or batch(*run))

    doc = {
        "name": "singular_stage", "variant": "collision_free", "n": 2, "r": 1, "seed": 0,
        "coupling": {"family": "constant", "w": 0.001},
        "repulsion": {"d0": 0.25, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1e-6}},
        "initial": {"mode": "explicit", "x": [0.0, 2.0], "v": [1.0, -1.0]},
        "integrator": {"t_end": 2.0, "sample_dt": 0.01},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path / "sweep"), "--simulate",
            "--jobs", "1", "--axis", "coupling.w=[1.0,0.001,2.0]"]
    with caplog.at_level(logging.DEBUG, logger="flocklab"):
        assert main(argv) == EXIT_OK
    assert blocks == [3] and caplog.records == []
    rows = _read_rows(tmp_path / "sweep" / "sweep.csv")
    trajs = []
    for idx, w in enumerate([1.0, 0.001, 2.0]):
        doc["coupling"]["w"] = w
        sc = materialize(doc, seed_path=(0, idx))
        trajs.append(integrate(sc.spec, sc.state0, sc.integrator))
        assert rows[idx]["error"] == ""
        assert rows[idx]["eps_observed"] == cli_module._csv_cell(decay_rate_fit(trajs[-1]))
    assert [traj.n_rejected > 0 for traj in trajs] == [False, True, False]
    capsys.readouterr()


def test_sweep_worker_drops_each_block_before_integrating_the_next(monkeypatch):
    import weakref

    import flocklab.integrate as integrate_module

    batch = integrate_module.integrate_batch
    made: list = []  # weak references to every trajectory a block returned
    alive_at_call = []

    def counting_batch(*args):
        alive_at_call.append(sum(ref() is not None for ref in made))
        trajs = batch(*args)
        made.extend(weakref.ref(traj) for traj in trajs)
        return trajs

    monkeypatch.setattr(integrate_module, "integrate_batch", counting_batch)
    monkeypatch.setattr(integrate_module, "batch_size", lambda n, r, cfg: 2)
    doc = json.loads(Path(bundled_path("example1_sweep")).read_text(encoding="utf-8"))
    doc["integrator"]["t_end"] = 2.0
    payloads = [(json.dumps(doc), idx, [("coupling.delta", delta)], True, True)
                for idx, delta in enumerate([0.5, 0.75, 1.0, 1.25])]
    rows = cli_module._sweep_chunk(payloads)
    assert all(row["error"] == "" and row["eps_observed"] is not None for row in rows)
    assert alive_at_call == [0, 0]


@pytest.mark.parametrize("held, pieces", [(1, [1, 1, 1]), (2**20, [3])], ids=["one-byte", "one-mebibyte"])
def test_sweep_worker_integrates_its_runs_whenever_they_fill_sweep_held(held, pieces, monkeypatch):
    # a point whose certificate fails has no run: it fills nothing, and the
    # runs before it are still integrated when it is the worker's last point
    doc = json.loads(Path(bundled_path("example1_sweep")).read_text(encoding="utf-8"))
    doc["integrator"]["t_end"] = 2.0
    points = [[("coupling.delta", 0.5)], [("coupling.w", -1.0)], [("coupling.delta", 1.0)],
              [("coupling.delta", 1.5)], [("coupling.w", -1.0)]]
    payloads = [(json.dumps(doc), idx, point, True, True) for idx, point in enumerate(points)]
    want = [cli_module._sweep_chunk([payload])[0] for payload in payloads]
    integrate_runs = cli_module.integrate_runs
    sizes = []

    def recording(runs):
        sizes.append(len(runs))
        return integrate_runs(runs)

    monkeypatch.setattr(cli_module, "integrate_runs", recording)
    monkeypatch.setattr(cli_module, "SWEEP_HELD", held)
    rows = cli_module._sweep_chunk(payloads)
    assert rows == want and sizes == pieces
    assert [row["eps_observed"] is not None for row in rows if row["error"] == ""] == [True] * 3


@pytest.mark.parametrize("jobs, sizes", [(1, [61, 61]), (2, [61, 61]), (3, [41, 41, 40]),
                                         (9, [14] * 5 + [13] * 4)])
def test_sweep_batches_hold_at_most_five_mebibytes(jobs, sizes, tmp_path, monkeypatch, capsys):
    # the frontier sweep: 122 points, 801 samples and 4 * BLOCK = 256
    # dense-output states of 2nr = 10 floats each, as `batch_size` charges
    # them (a fill's passes fit PASS_BYTES apart); each worker's round-robin
    # share is cut into blocks of at most 62 runs
    import concurrent.futures

    import flocklab.integrate as integrate_module

    blocks = []

    def recording_batch(specs, states0, cfgs):
        blocks.append((len(specs), {(spec.n * spec.r, state.t, cfg.t_end, cfg.sample_dt)
                                    for spec, state, cfg in zip(specs, states0, cfgs)}))
        return [None] * len(specs)  # no trajectories: only the blocks matter here

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(integrate_module, "integrate_batch", recording_batch)
    deltas = json.dumps([0.5 + 0.025 * k for k in range(61)])
    argv = ["sweep", "--scenario", bundled_path("example1_sweep"), "--out", str(tmp_path),
            "--axis", f"coupling.delta={deltas}", "--axis", "coupling.w=[1.0,1.5]",
            "--simulate", "--jobs", str(jobs)]
    assert main(argv) == EXIT_OK
    assert [size for size, _ in blocks] == sizes
    # nr = 5 and a grid from 0 to 40 by 0.05: 801 samples of 10 floats per run
    assert all(grids == {(5, 0.0, 40.0, 0.05)} for _, grids in blocks)
    assert all(size * (801 + 4 * integrate_module.BLOCK) * 10 * 8 <= 5 * 2**20 for size in sizes)
    assert "sweep: 122 points" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# axis parsing helpers


def test_parse_axis_range_form():
    key, values = _parse_axis("coupling.delta=0:2:0.05")
    assert key == "coupling.delta"
    assert len(values) == 41
    assert values[0] == 0.0
    assert abs(values[-1] - 2.0) < 1e-12


def test_parse_axis_range_values_are_the_decimal_grid_of_the_axis_text():
    # the frontier axis: start + step * k in floats is one ulp off the grid
    # at 13 of its 61 values (0.8500000000000001, 1.0750000000000002, ...)
    key, values = _parse_axis("coupling.delta=0.5:2.0:0.025")
    assert values == [float(f"{500 + 25 * k}e-3") for k in range(61)]
    assert [repr(v) for v in values[:3] + values[-2:]] == ["0.5", "0.525", "0.55", "1.975", "2.0"]
    assert _parse_axis("k=1e-3:2e-3:1e-4")[1] == [float(f"{10 + k}e-4") for k in range(11)]


def test_parse_axis_json_and_comma_forms():
    assert _parse_axis("seed=[1,2,3]") == ("seed", [1, 2, 3])
    key, values = _parse_axis("coupling.w=0.5,1.5")
    assert key == "coupling.w"
    assert values == [0.5, 1.5]
    assert _parse_axis("internal.name=zero,lorenz")[1] == ["zero", "lorenz"]
    assert _parse_axis("seed=7") == ("seed", [7])


def test_parse_axis_rejects_malformed_specs():
    for spec in ("novalue", "k=", "=3", "k=1:2", "k=2:1:0.5", "k=1:2:0", "k=1:2:inf", "k=[]",
                 "k=1,2,", "k=,1", "k=1,,2", "k=1, ,2"):
        with pytest.raises(ValueError):
            _parse_axis(spec)


@pytest.mark.parametrize("values", ["1,2,", "[]"])
def test_sweep_with_an_empty_axis_item_is_a_usage_error(tmp_path, values, capsys):
    out = tmp_path / "out"
    argv = ["sweep", "--scenario", bundled_path("example1_sweep"), "--out", str(out),
            "--axis", f"coupling.w={values}"]
    assert main(argv) == EXIT_USAGE
    assert not (out / "sweep.csv").exists()
    capsys.readouterr()


def test_set_by_path_creates_nested_blocks():
    doc = {"coupling": {"w": 1.0}}
    _set_by_path(doc, "coupling.delta", 2.0)
    _set_by_path(doc, "certificate.k_source", "user")
    assert doc == {
        "coupling": {"w": 1.0, "delta": 2.0},
        "certificate": {"k_source": "user"},
    }


def test_log_level_env_smoke(monkeypatch, capsys):
    monkeypatch.setenv("FLOCKLAB_LOG", "DEBUG")
    assert main(["validate", "--scenario", bundled_path("negative_control")]) == EXIT_OK
    monkeypatch.setenv("FLOCKLAB_LOG", "not-a-level")
    assert main(["validate", "--scenario", bundled_path("negative_control")]) == EXIT_OK
    capsys.readouterr()


# ---------------------------------------------------------------------------
# start-up cost: scipy.integrate loads only when quadrature runs


def _fresh_python(code: str) -> dict:
    """Run `code` in a new interpreter and return the JSON it prints last."""
    src = str(Path(flocklab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule_and_no_numpy():
    # the package root holds only __version__; each name is imported from its module
    got = _fresh_python(
        "import json, sys\n"
        "import flocklab\n"
        "print(json.dumps({'version': flocklab.__version__,\n"
        "    'loaded': sorted(m for m in sys.modules\n"
        "                     if m == 'numpy' or m.startswith('flocklab.'))}))\n"
    )
    assert got == {"version": flocklab.__version__, "loaded": []}


def test_cli_import_leaves_scipy_integrate_unloaded():
    got = _fresh_python(
        "import json, sys\n"
        "import flocklab.cli\n"
        "print(json.dumps({'loaded': 'scipy.integrate' in sys.modules}))\n"
    )
    assert got == {"loaded": False}


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial takes milliseconds to import, and no command needs it
    got = _fresh_python(
        "import json, sys\n"
        "import flocklab.cli\n"
        "print(json.dumps({'loaded': 'numpy.polynomial' in sys.modules}))\n"
    )
    assert got == {"loaded": False}


def test_simulate_leaves_scipy_integrate_unloaded(tmp_path):
    got = _fresh_python(
        "import json, sys\n"
        "from flocklab.cli import main\n"
        f"code = main(['simulate', '--scenario', {bundled_path('example1_delta09')!r}, "
        f"'--out', {str(tmp_path)!r}, '--full'])\n"
        "print(json.dumps({'code': code, 'loaded': 'scipy.integrate' in sys.modules}))\n"
    )
    assert got == {"code": EXIT_OK, "loaded": False}
    assert (tmp_path / "manifest.json").exists()


def test_simulate_and_audit_of_a_banded_flock_leave_numpy_ma_unloaded(tmp_path):
    # np.median, np.unique, np.union1d and np.setdiff1d each load numpy.ma
    # (about 14 ms and 2 MiB); an 8-agent flock over 2501 samples has its
    # plots thinned and drawn as bands, and its collision audit checks steps
    doc = json.loads(Path(bundled_path("example3_strong")).read_text(encoding="utf-8"))
    doc.update(
        n=8,
        initial={"mode": "explicit", "x": [[1.5 * a, 1.5 * b] for a in range(4) for b in range(2)],
                 "v": [[k % 4 - 0.5, float(k % 3)] for k in range(8)]},
        integrator={"t_end": 5.0, "sample_dt": 0.002},
    )
    scenario = tmp_path / "lattice8.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    got = _fresh_python(
        "import contextlib, io, json, sys\n"
        "from flocklab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        f"    codes = [main(['simulate', '--scenario', {str(scenario)!r}, '--out', {str(out)!r}, '--full']),\n"
        f"             main(['audit', '--out', {str(out)!r}])]\n"
        "print(json.dumps({'codes': codes, 'stdout': text.getvalue(), 'loaded': 'numpy.ma' in sys.modules}))\n"
    )
    assert got["codes"] == [EXIT_OK, EXIT_OK] and got["loaded"] is False
    assert "rows: 2501" in got["stdout"] and "checked: 0" not in got["stdout"]


def test_certify_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL's libcrypto (about 3 MiB); only simulate hashes
    got = _fresh_python(
        "import json, sys\n"
        "from flocklab.cli import main\n"
        f"code = main(['certify', '--scenario', {bundled_path('example1_sweep')!r}])\n"
        "print(json.dumps({'code': code, 'loaded': '_hashlib' in sys.modules}))\n"
    )
    assert got == {"code": EXIT_OK, "loaded": False}


def test_power_law_tail_integral_loads_quadrature_on_demand():
    # int_0^inf 2 / (1.5^2 + s^2) ds = 2 * pi / (2 * 1.5)
    got = _fresh_python(
        "import json, math, sys\n"
        "from flocklab.coupling import PowerLawCoupling, psi_integral\n"
        "env = PowerLawCoupling(gain=2.0, sigma=1.5, exponent=1.0).envelope()\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "val = psi_integral(env, 0.0, math.inf)\n"
        "print(json.dumps({'before': before, 'after': 'scipy.integrate' in sys.modules, "
        "'val': val}))\n"
    )
    assert got["before"] is False
    assert got["after"] is True
    assert got["val"] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-9)
