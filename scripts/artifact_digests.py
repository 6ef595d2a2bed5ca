"""SHA-256 digests of every artifact and printed report of the bundled scenarios.

For each bundled scenario this runs `validate`, `simulate --full`, `certify`
and `audit` through `flocklab.cli.main` into a temporary directory, then one
`sweep --simulate --jobs 1` of `example1_sweep` over coupling.delta,
`certify` on a copy of `example2_strong` with a region K bound (the exact
corner maximum over the Lorenz box), which no bundled scenario uses, and one
`sweep --simulate --jobs 2` of the collision-free `example3_strong` over
coupling.w, whose first and third points are integrated as one batch, and
one `sweep --simulate --jobs 2` of `example1_sweep` over two t_end values
and two coupling.delta values, whose worker holds runs on two sample grids.
It prints one `sha256  scenario/file` line per artifact and per command's
stdout (with its exit code); the sweeps' lines are tagged `sweep/`,
`sweep_collision/` and `sweep_grids/` and the region copy's `region_k/`.
The temporary path is stripped from the output,
so two checkouts can be compared with a plain diff:

    python3 scripts/artifact_digests.py > after.txt
    (cd ../other-checkout && python3 scripts/artifact_digests.py) > before.txt
    diff before.txt after.txt

The script imports flocklab from the `src/` directory of the checkout it
sits in, not from an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from flocklab import cli  # noqa: E402

SCENARIO_DIR = SRC / "flocklab" / "scenarios"
SWEEP_AXIS = "coupling.delta=0.5:2.0:0.25"
COLLISION_SWEEP_AXIS = "coupling.w=[8.0,10.0,12.0]"
GRID_SWEEP_AXES = ("integrator.t_end=[20.0,40.0]", "coupling.delta=[0.75,1.25]")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list[str], tmp: str) -> bytes:
    """Stdout of one CLI call plus its exit code, with the temp path removed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue().replace(tmp, "<tmp>")
    return f"{text}exit: {code}\n".encode("utf-8")


def _print_digests(tag: str, commands, out: Path, tmp: str) -> None:
    """Run each (command, argv) in turn, then digest each stdout and every file in out."""
    lines = [(f"{command}.stdout", _sha256(_run(argv, tmp))) for command, argv in commands]
    for path in sorted(out.iterdir()):
        lines.append((path.name, _sha256(path.read_bytes())))
    for label, digest in sorted(lines):
        print(f"{digest}  {tag}/{label}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in sorted(SCENARIO_DIR.glob("*.json")):
            name = scenario.stem
            out = Path(tmp) / name
            commands = (
                ("validate", ["validate", "--scenario", str(scenario)]),
                ("simulate", ["simulate", "--scenario", str(scenario), "--out", str(out), "--full"]),
                ("certify", ["certify", "--scenario", str(scenario)]),
                ("audit", ["audit", "--out", str(out)]),
            )
            _print_digests(name, commands, out, tmp)
        out = Path(tmp) / "sweep"
        scenario = SCENARIO_DIR / "example1_sweep.json"
        sweep = ["sweep", "--scenario", str(scenario), "--out", str(out), "--simulate",
                 "--jobs", "1", "--axis", SWEEP_AXIS]
        _print_digests("sweep", [("sweep", sweep)], out, tmp)
        out = Path(tmp) / "region_k"
        out.mkdir()
        doc = json.loads((SCENARIO_DIR / "example2_strong.json").read_text(encoding="utf-8"))
        doc["certificate"] = {"k_source": "region", "relaxed": True}
        scenario = out / "example2_strong.json"
        scenario.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        _print_digests("region_k", [("certify", ["certify", "--scenario", str(scenario)])], out, tmp)
        out = Path(tmp) / "sweep_collision"
        scenario = SCENARIO_DIR / "example3_strong.json"
        sweep = ["sweep", "--scenario", str(scenario), "--out", str(out), "--simulate",
                 "--jobs", "2", "--axis", COLLISION_SWEEP_AXIS]
        _print_digests("sweep_collision", [("sweep", sweep)], out, tmp)
        out = Path(tmp) / "sweep_grids"
        scenario = SCENARIO_DIR / "example1_sweep.json"
        sweep = ["sweep", "--scenario", str(scenario), "--out", str(out), "--simulate",
                 "--jobs", "2", *(arg for axis in GRID_SWEEP_AXES for arg in ("--axis", axis))]
        _print_digests("sweep_grids", [("sweep", sweep)], out, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
