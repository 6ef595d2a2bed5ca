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
    assert manifest["resolved"]["k_source"] == "region"
    assert manifest["resolved"]["k_bound"] == pytest.approx(1.0)
    assert manifest["certificate"]["feasible"] is True
    assert len(manifest["scenario_sha256"]) == 64
    assert set(manifest["versions"]) == {"flocklab", "numpy", "scipy", "python"}


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
    assert manifest["seed"] == 99
    assert manifest["scenario"]["seed"] == 99


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


def test_audit_flags_tampered_penalty_bound(control_run, tmp_path, capsys):
    copied = tmp_path / "tampered"
    copied.mkdir()
    for name in ("timeseries.csv", "manifest.json"):
        (copied / name).write_bytes((control_run / name).read_bytes())
    manifest = json.loads((copied / "manifest.json").read_text(encoding="utf-8"))
    manifest["resolved"]["k_bound"] /= 10.0
    (copied / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["audit", "--out", str(copied)])
    assert code == EXIT_INFEASIBLE
    out = capsys.readouterr().out
    assert "violations: 0" not in out
    assert "first violation at t" in out


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
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


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
        row = _sweep_point(payload)
    assert row["error"].startswith("ScenarioError: ")
    (record,) = [r for r in caplog.records if r.levelname == "DEBUG"]
    assert record.getMessage() == "sweep point 3 failed"
    assert record.exc_info[0].__name__ == "ScenarioError"
    assert f"{record.exc_info[0].__name__}: {record.exc_info[1]}" == row["error"]


# ---------------------------------------------------------------------------
# axis parsing helpers


def test_parse_axis_range_form():
    key, values = _parse_axis("coupling.delta=0:2:0.05")
    assert key == "coupling.delta"
    assert len(values) == 41
    assert values[0] == 0.0
    assert abs(values[-1] - 2.0) < 1e-12


def test_parse_axis_json_and_comma_forms():
    assert _parse_axis("seed=[1,2,3]") == ("seed", [1, 2, 3])
    key, values = _parse_axis("coupling.w=0.5,1.5")
    assert key == "coupling.w"
    assert values == [0.5, 1.5]
    assert _parse_axis("internal.name=zero,lorenz")[1] == ["zero", "lorenz"]
    assert _parse_axis("seed=7") == ("seed", [7])


def test_parse_axis_rejects_malformed_specs():
    for spec in ("novalue", "k=", "=3", "k=1:2", "k=2:1:0.5", "k=1:2:0", "k=[]"):
        with pytest.raises(ValueError):
            _parse_axis(spec)


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


def test_cli_import_leaves_scipy_integrate_unloaded():
    got = _fresh_python(
        "import json, sys\n"
        "import flocklab.cli\n"
        "print(json.dumps({'loaded': 'scipy.integrate' in sys.modules}))\n"
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


@pytest.mark.parametrize("family_fn", [True, False], ids=["family_integral", "generic_quad"])
def test_power_law_tail_integral_loads_quadrature_on_demand(family_fn):
    # int_0^inf 2 / (1.5^2 + s^2) ds = 2 * pi / (2 * 1.5)
    got = _fresh_python(
        "import json, math, sys\n"
        "from flocklab.coupling import Envelope, PowerLawCoupling, psi_integral\n"
        "env = PowerLawCoupling(gain=2.0, sigma=1.5, exponent=1.0).envelope()\n"
        f"if not {family_fn}:\n"
        "    env = Envelope(psi=env.psi, w_bar=env.w_bar)\n"
        "before = 'scipy.integrate' in sys.modules\n"
        "val = psi_integral(env, 0.0, math.inf)\n"
        "print(json.dumps({'before': before, 'after': 'scipy.integrate' in sys.modules, "
        "'val': val}))\n"
    )
    assert got["before"] is False
    assert got["after"] is True
    assert got["val"] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-9)
