"""SHA-256 digests of every artifact and printed report of the bundled scenarios.

For each bundled scenario this runs `validate`, `simulate --full`, `certify`
and `audit` through `flocklab.cli.main` into a temporary directory, then one
`sweep --simulate --jobs 1` of `example1_sweep` over coupling.delta,
`certify` on a copy of `example2_strong` with a region K bound (the exact
corner maximum over the Lorenz box), which no bundled scenario uses, and one
`sweep --simulate --jobs 2` of the collision-free `example3_strong` over
coupling.w, whose first and third points are integrated as one batch, and
one `sweep --simulate --jobs 2` of `example1_sweep` over two t_end values
and two coupling.delta values, whose worker holds runs on two sample grids,
and the benchmark's 122-point frontier sweep of `example1_sweep` at
`--jobs 1`, integrated as two blocks of 61 runs whose flushes each fill
several slices of samples.  Five more flocks run `simulate --full` and
`audit`: three above n = 5, whose plots draw min/median/max bands instead of
one line per pair (a collision-free 4 x 3 lattice of 12 agents in the plane,
the same lattice to t_end 5 on a 0.001 grid, whose 5,001 samples are
thinned to 2,000 in the plots and span several slices of the CSV writer
and reader, and a Lorenz sync flock of 8 agents in three dimensions),
`example1_delta09` to t_end 5 on a 0.001 grid, whose 57 steps reach 5,000
samples in one flush of ten slices, and two agents head on whose
Runge-Kutta stage lands inside d0, which the integrator rejects before it
reports the collision.  A `sweep --simulate --jobs 1` of that head-on pair
over coupling.w integrates it in one block between two points at higher w,
which complete without a singular stage.
Last, `validate` runs on invalid documents: every bounded number of the
integrator, coupling, repulsion and certificate blocks is set out of its
range, to NaN, to +-Infinity (written as JSON's literals) and to a string,
with one problem in each block, so a block's diagnostics have one order;
one more document has an unknown and a missing key, one a draw spec out
of its entries' range, and six a scalar `initial.x_center` or `v_center`
that is NaN or +-Infinity.
Four certify-only sweeps close it: a baseline flock under power-law and
constant couplings, a sync flock over a user K from 0 up, relaxed and not,
and a collision flock over w and d0 whose closest pair ends inside d0.
It prints one `sha256  scenario/file` line per artifact and per command's
stdout (with its exit code); the sweeps' lines are tagged `sweep/`,
`sweep_collision/`, `sweep_grids/`, `frontier/` and `sweep_singular/`, the region copy's
`region_k/`, the six flocks' `lattice12/`, `long_lattice12/`, `lattice3d/`, `lorenz8/`,
`fine_delta09/` and `singular_stage/`, the invalid documents'
`invalid/` and `centre/`, and the certify-only sweeps' `certificates/`.
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
import copy
import hashlib
import io
import json
import math
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
FRONTIER_AXES = ("coupling.delta=0.5:2.0:0.025", "coupling.w=[1.0,1.5]")
SINGULAR_SWEEP_AXIS = "coupling.w=[1.0,0.001,2.0]"  # the middle point is singular_stage


def _extra_flocks() -> dict[str, dict]:
    """Six flocks past the bundled runs: three lattices, a Lorenz flock, a fine grid, a singular stage.

    They are example3_strong as a 12-agent lattice to t_end 1 on a 0.002
    grid and to t_end 5 on a 0.001 grid and as a jittered 12-agent lattice
    in three dimensions to t_end 1, example2_strong with 8 agents,
    example1_delta09 to t_end 5 on a 0.001 grid, whose one-run flush fills
    several slices, and two agents head on at a constant w = 0.001 with
    d0 = 0.25, one of whose stages lands inside d0.  The 0.002 grid lets the
    audit check some steps of the stiff Lorenz flock before its velocity
    spread falls below the resolution floor.
    """
    docs = {}
    lattice = ([[1.5 * a, 1.5 * b] for a in range(4) for b in range(3)],
               [[k % 4 - 0.5, float(k % 3)] for k in range(12)])
    cube = [(a, b, c) for a in range(2) for b in range(2) for c in range(3)]
    lattice3d = ([[1.5 * a + 0.1 * (k % 5), 1.5 * b - 0.07 * (k % 3), 1.5 * c + 0.05 * (k % 7)]
                  for k, (a, b, c) in enumerate(cube)],
                 [[k % 4 - 1.5, 1.0 - k % 3, 0.5 * (k % 5) - 1.0] for k in range(12)])
    for name, base, (x, v), grid in (
        ("lattice12", "example3_strong", lattice, (1.0, 0.002)),
        ("long_lattice12", "example3_strong", lattice, (5.0, 0.001)),
        ("lattice3d", "example3_strong", lattice3d, (1.0, 0.002)),
        ("lorenz8", "example2_strong",
         ([[k % 2 * 3.0, k % 3 - 1.0, k / 4] for k in range(8)],
          [[k - 4.0, 2.0 - k % 5, 20.0 + k] for k in range(8)]), (1.0, 0.002)),
    ):
        doc = json.loads((SCENARIO_DIR / f"{base}.json").read_text(encoding="utf-8"))
        doc.update(name=name, n=len(x), r=len(x[0]), initial={"mode": "explicit", "x": x, "v": v},
                   integrator={"t_end": grid[0], "sample_dt": grid[1]})
        docs[name] = doc
    doc = json.loads((SCENARIO_DIR / "example1_delta09.json").read_text(encoding="utf-8"))
    doc.update(name="fine_delta09", integrator={"t_end": 5.0, "sample_dt": 0.001})
    docs["fine_delta09"] = doc
    docs["singular_stage"] = {
        "name": "singular_stage", "variant": "collision_free", "n": 2, "r": 1, "seed": 0,
        "coupling": {"family": "constant", "w": 0.001},
        "repulsion": {"d0": 0.25, "phi": 1.5, "coeffs": {"mode": "constant", "value": 1e-6}},
        "initial": {"mode": "explicit", "x": [0.0, 2.0], "v": [1.0, -1.0]},
        "integrator": {"t_end": 2.0, "sample_dt": 0.01},
    }
    return docs


def _certificate_sweeps() -> dict[str, tuple[dict, tuple[str, ...]]]:
    """Certify-only sweeps of all three certificates, as (document, axes) by name.

    A baseline flock (example1_delta09's state without its drive) under
    power-law couplings, whose tails are quadratures, and under constant
    ones; the sync example1_delta09 with a user K from 0 up, relaxed and
    not; and example3_strong's repulsion with a finite envelope tail
    (delta = 2) on five explicit agents over w and d0, whose largest d0
    holds the closest initial pair (squared distance 1).
    """
    def load(name: str) -> dict:
        return json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))

    baseline = load("example1_delta09")
    del baseline["internal"], baseline["certificate"]
    baseline.update(name="baseline", variant="baseline")
    power_law = {"family": "power_law", "gain": 1.0, "sigma": 1.0, "exponent": 1.0}
    sync = load("example1_delta09")
    sync["certificate"] = {"k_source": "user", "k_value": 0.0}
    collision = load("example3_strong")
    collision["coupling"]["delta"] = 2.0
    collision["initial"] = {
        "mode": "explicit",
        "x": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.5], [2.0, 2.0], [3.0, 0.5]],
        "v": [[1.0, -1.0], [-2.0, 0.5], [0.5, 2.0], [-1.0, -1.5], [1.5, 0.0]],
    }
    return {
        "baseline_power_law": ({**baseline, "coupling": power_law},
                               ("coupling.exponent=[0.25,0.5,0.75,1.0,2.0,4.0]",
                                "coupling.gain=[0.5,2.0,8.0]")),
        "baseline_constant": ({**baseline, "coupling": {"family": "constant", "w": 1.0}},
                              ("coupling.w=[0.01,1.0,100.0]",)),
        "sync_user_k": (sync, ("certificate.k_value=[0.0,0.25,0.5,1.0,2.0,4.0]",
                               "certificate.relaxed=[false,true]")),
        "collision": (collision, ("coupling.w=[10.0,60.0,120.0]", "repulsion.d0=[0.25,0.75,1.5]")),
    }


# each bounded number's out-of-range value, by block; a coupling key names its family
OUT_OF_RANGE = {
    "integrator": {"t_end": 0.0, "sample_dt": 0.0, "t0": 50.0, "rtol": -1e-6, "atol": 0.0,
                   "h_init": 0.0, "h_max": -0.5, "collision_margin": -1e-9},
    "coupling": {"power_law.gain": 0.0, "power_law.sigma": -1.0, "power_law.exponent": 0.0,
                 "modulated.w": 0.0, "modulated.delta": -0.5, "constant.w": -2.0},
    "repulsion": {"d0": 0.0, "phi": 1.0},
    "certificate": {"k_value": -1.0},
}
BAD_VALUES = {"range": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "type": "1.0"}
COUPLINGS = {
    "power_law": {"gain": 1.0, "sigma": 1.0, "exponent": 0.5},
    "modulated": {"w": 1.0, "delta": 1.0, "beta": {"mode": "constant", "value": 1.0}},
    "constant": {"w": 1.0},
}


def _invalid_documents() -> dict[str, dict]:
    """Documents `validate` rejects, with at most one problem in each block.

    Document i of a kind of bad value puts it into field i (cycling) of
    each block the document has: documents 0, 1, 4, 5 are the collision-free
    example3_strong, with a repulsion block, and 2, 3, 6, 7 the sync
    example2_strong, with a user K.  So every field meets every kind.
    """
    bases = [json.loads((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
             for name in ("example3_strong", "example2_strong")]
    docs = {}
    for kind, bad in BAD_VALUES.items():
        for i in range(len(OUT_OF_RANGE["integrator"])):
            doc = copy.deepcopy(bases[i // 2 % 2])
            for block, values in OUT_OF_RANGE.items():
                if not doc.get(block):  # the sync flock has no repulsion, the other no K
                    continue
                key, value = list(values.items())[i % len(values)]
                if block == "coupling":
                    family, key = key.split(".")
                    doc["coupling"] = {"family": family, **COUPLINGS[family]}
                doc[block][key] = value if bad is None else bad
            docs[f"{kind}{i}"] = doc
    doc = copy.deepcopy(bases[0])
    doc["integrator"]["t_stop"] = 1.0
    del doc["repulsion"]["phi"]
    docs["keys"] = doc
    doc = copy.deepcopy(bases[0])
    doc["coupling"]["beta"]["value"] = 1.5
    doc["repulsion"]["coeffs"]["lo"] = 0.0
    docs["entries"] = doc
    return docs


def _centre_documents() -> dict[str, dict]:
    """A baseline n = 3 generate document with each scalar centre NaN or +-Infinity."""
    docs = {}
    for key in ("x_center", "v_center"):
        for label, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
            docs[f"{key}_{label}"] = {
                "name": "centre", "variant": "baseline", "n": 3, "r": 1, "seed": 0,
                "coupling": {"family": "constant", "w": 1.0},
                "initial": {"mode": "generate", "spread_x": 4.0, "spread_v": 1.0, key: value},
                "integrator": {"t_end": 1.0, "sample_dt": 0.1},
            }
    return docs


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
        out = Path(tmp) / "frontier"
        sweep = ["sweep", "--scenario", str(scenario), "--out", str(out), "--simulate",
                 "--jobs", "1", *(arg for axis in FRONTIER_AXES for arg in ("--axis", axis))]
        _print_digests("frontier", [("sweep", sweep)], out, tmp)
        for name, doc in _extra_flocks().items():
            scenario = Path(tmp) / f"{name}.json"
            scenario.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            out = Path(tmp) / name
            commands = (
                ("simulate", ["simulate", "--scenario", str(scenario), "--out", str(out), "--full"]),
                ("audit", ["audit", "--out", str(out)]),
            )
            _print_digests(name, commands, out, tmp)
        out = Path(tmp) / "sweep_singular"
        sweep = ["sweep", "--scenario", str(Path(tmp) / "singular_stage.json"), "--out", str(out),
                 "--simulate", "--jobs", "1", "--axis", SINGULAR_SWEEP_AXIS]
        _print_digests("sweep_singular", [("sweep", sweep)], out, tmp)
        for tag, documents in (("invalid", _invalid_documents()), ("centre", _centre_documents())):
            out = Path(tmp) / tag
            out.mkdir()
            commands = []
            for label, doc in documents.items():
                scenario = out / f"{label}.json"
                scenario.write_text(json.dumps(doc, indent=2), encoding="utf-8")  # NaN, Infinity literals
                commands.append((label, ["validate", "--scenario", str(scenario)]))
            _print_digests(tag, commands, out, tmp)
        for name, (doc, axes) in _certificate_sweeps().items():
            scenario = Path(tmp) / f"certificates_{name}.json"
            scenario.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            out = Path(tmp) / "certificates" / name
            sweep = ["sweep", "--scenario", str(scenario), "--out", str(out), "--jobs", "1",
                     *(arg for axis in axes for arg in ("--axis", axis))]
            _print_digests(f"certificates/{name}", [("sweep", sweep)], out, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
