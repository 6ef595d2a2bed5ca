"""Smoke test of the example scripts, the other consumers of the public API."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (bundled scenarios it runs, the line each one starts with, certificate kind)
EXAMPLES = {
    "run_example1.py": (["example1_delta09", "example1_delta4", "example1_delta10"], "{} ", "sync"),
    "run_example2.py": (["example2_strong", "example2_weak"], "== {} (K = ", "sync"),
    "run_example3.py": (["example3_strong", "example3_weak"], "== {}", "collision"),
}


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_script_runs(script, tmp_path):
    names, line_start, kind = EXAMPLES[script]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for name in names:
        assert sum(line.startswith(line_start.format(name)) for line in lines) == 1, name
        report = (tmp_path / f"{name}_certificate.txt").read_text(encoding="utf-8")
        assert report.splitlines()[0] == f"certificate: {kind}"
        assert (tmp_path / f"{name}.csv").is_file()
    assert lines[-1] == f"artifacts: {tmp_path}"
