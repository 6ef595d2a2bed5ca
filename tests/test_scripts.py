"""Smoke test of the example scripts and README's Library example.

They are the other consumers of the public API.
"""

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


def test_readme_library_example_runs():
    # the python block under README's "## Library" heading, whose last line
    # prints `feasible spread` and gives the expected value in a comment
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    mantissa, exponent = code.rstrip().rsplit("# ", 1)[1].rsplit("e", 1)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip()
    assert line.startswith(mantissa) and line.endswith("e" + exponent), (line, mantissa)
