"""flocklab benchmark: three closed-loop workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  flocklab is driven only through its CLI
in a fresh interpreter (``python -m flocklab.cli``) or through
``flocklab.cli.main(argv)`` in a fresh interpreter (``perfbench/child.py``).
One client sends each call only after the previous one has finished.  The
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See NOTES.md for why each workload
exists and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED_DIR = SRC / "flocklab" / "scenarios"
REFERENCE = HERE / "reference.json"

DEADLINE_S = 170.0  # the whole run, set-up included, ends well within 180 s
SETUP_SAMPLES = 1  # per iteration
MIN_ITERATIONS = 3
TRACE_PAIRS = 2  # untraced, traced, untraced, traced
MIB = 1024.0 * 1024.0

BUNDLED = ("example1_delta09", "example2_strong", "example3_strong")
SWEEP_AXES = ("coupling.delta=0.5:2.0:0.025", "coupling.w=[1.0,1.5]")
SWEEP_POINTS = 61 * 2
SWEEP_JOBS = 2
SINGLE_THREADED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class Op:
    """One flocklab CLI call: its argv and the --out directory it uses."""

    label: str
    argv: list[str]
    out: Path | None = None


@dataclass
class Workload:
    name: str
    first_scenario: Path
    processes: list[list[Op]]  # each inner list runs in one fresh interpreter
    direct_cli: bool  # run each process as `python -m flocklab.cli` (one op each)
    sweep_points: int = 0


@dataclass
class Proc:
    wall_s: float
    maxrss_mb: float
    ops: list[dict]  # rc, stdout, main_s per op


@dataclass
class Iteration:
    wall_s: float
    procs: list[Proc]
    out_bytes: int
    failed: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)


class Runner:
    def __init__(self, work: Path, started: float):
        self.work = work
        self.started = started
        # One BLAS thread per process: on a host with few cores, BLAS thread
        # pools contend with each other and with the sweep's workers, and the
        # figures then measure the scheduler rather than flocklab.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREADED)
        self.env.pop("FLOCKLAB_LOG", None)
        self.n_spawned = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Run argv to completion: exit code, wall seconds, peak RSS, stdout.

        The child gets its own session so that a timeout also kills its pool
        workers.  os.wait4 reports the peak RSS of this child and of the
        children it reaped itself (sweep workers), so no earlier process
        leaks into the figure.
        """
        self.n_spawned += 1
        out_path = self.work / f"stdout-{self.n_spawned}.txt"
        timeout = max(1.0, self.time_left())
        with open(out_path, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        out_path.unlink()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout

    def run_process(self, ops: list[Op], direct: bool, spans: Path | None = None) -> Proc:
        if direct:
            (op,) = ops
            rc, wall, rss, stdout = self.spawn([sys.executable, "-m", "flocklab.cli", *op.argv])
            return Proc(wall, rss, [{"rc": rc, "stdout": stdout, "main_s": None}])
        request = {"ops": [op.argv for op in ops], "spans": None if spans is None else str(spans)}
        rc, wall, rss, stdout = self.spawn(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)])
        last = stdout.rstrip().rpartition("\n")[2]
        if rc != 0 or not last.startswith("{"):
            failed = {"rc": None, "stdout": f"child exit {rc}: {stdout[-2000:]}", "main_s": None}
            return Proc(wall, rss, [failed] * len(ops))
        return Proc(wall, rss, json.loads(last)["ops"])

    def iteration(self, wl: Workload, trace_dir: Path | None = None, jobs: int | None = None,
                  reference: dict | None = None) -> Iteration:
        """Run every process of the workload once, then check every call."""
        processes = wl.processes if jobs is None else [with_jobs(p, jobs) for p in wl.processes]
        for ops in processes:
            for op in ops:
                if op.out is not None and op.argv[0] != "audit":
                    shutil.rmtree(op.out, ignore_errors=True)
        direct = wl.direct_cli and trace_dir is None
        t0 = perf_counter()
        procs = []
        for idx, ops in enumerate(processes):
            spans = None if trace_dir is None else trace_dir / f"spans-{idx:02d}.json"
            procs.append(self.run_process(ops, direct, spans))
        it = Iteration(perf_counter() - t0, procs, out_bytes(processes))

        for ops, proc in zip(processes, procs):
            for op, res in zip(ops, proc.ops):
                try:
                    if res["rc"] is None:
                        raise checks.CheckFailed(res["stdout"])
                    obs = checks.observe(op.argv, res["rc"], res["stdout"], op.out)
                    it.observed[op.label] = obs
                    if reference is not None:
                        checks.compare(op.label, obs, reference)
                except checks.CheckFailed as exc:
                    it.failed.append(f"{op.label}: {exc}")
        return it

    def time_left(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)


def with_jobs(ops: list[Op], jobs: int) -> list[Op]:
    out = []
    for op in ops:
        argv = list(op.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = str(jobs)
        out.append(Op(op.label, argv, op.out))
    return out


def out_bytes(processes: list[list[Op]]) -> int:
    dirs = {op.out for ops in processes for op in ops if op.out is not None}
    return sum(p.stat().st_size for d in dirs if d.is_dir() for p in d.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# workloads


def bundled_cli(work: Path, seed: int) -> Workload:
    """Shell session: validate, certify, simulate --full, audit on 3 scenarios."""
    processes = []
    for name in BUNDLED:
        path = BUNDLED_DIR / f"{name}.json"
        generated = json.loads(path.read_text(encoding="utf-8"))["initial"]["mode"] == "generate"
        seed_args = ["--seed", str(seed)] if generated and seed != inputs.DEFAULT_SEED else []
        out = work / "out" / name
        scen = ["--scenario", str(path), *seed_args]
        processes += [
            [Op(f"{name}/validate", ["validate", *scen])],
            [Op(f"{name}/certify", ["certify", *scen])],
            [Op(f"{name}/simulate", ["simulate", *scen, "--out", str(out), "--full"], out)],
            [Op(f"{name}/audit", ["audit", "--out", str(out)], out)],
        ]
    return Workload("bundled_cli", BUNDLED_DIR / f"{BUNDLED[0]}.json", processes, direct_cli=True)


def large_flock(work: Path, seed: int) -> Workload:
    """n=50 collision_free and stiff n=40 sync Lorenz flocks, simulated and audited."""
    processes = []
    first = None
    for label, doc in (("collision", inputs.collision_flock(seed)), ("sync", inputs.sync_flock(seed))):
        path = inputs.write(work / f"{label}.json", doc)
        first = first or path
        out = work / "out" / label
        processes.append([
            Op(f"{label}/simulate", ["simulate", "--scenario", str(path), "--out", str(out), "--full"], out),
            Op(f"{label}/audit", ["audit", "--out", str(out)], out),
        ])
    return Workload("large_flock", first, processes, direct_cli=False)


def frontier_sweep(work: Path, seed: int) -> Workload:
    """One certificate-and-simulation sweep over 61 delta x 2 w values."""
    bundled = json.loads((BUNDLED_DIR / "example1_sweep.json").read_text(encoding="utf-8"))
    path = inputs.write(work / "sweep_base.json", inputs.sweep_base(bundled, seed))
    out = work / "out" / "sweep"
    axes = [arg for axis in SWEEP_AXES for arg in ("--axis", axis)]
    argv = ["sweep", "--scenario", str(path), "--out", str(out), "--simulate",
            "--jobs", str(SWEEP_JOBS), *axes]
    return Workload("frontier_sweep", path, [[Op("sweep", argv, out)]], direct_cli=False,
                    sweep_points=SWEEP_POINTS)


WORKLOADS = {"bundled_cli": bundled_cli, "large_flock": large_flock, "frontier_sweep": frontier_sweep}


# ---------------------------------------------------------------------------
# measurement


def setup_time(runner: Runner, wl: Workload) -> float:
    """Time from spawning `flocklab validate` on the first scenario to its exit.

    validate imports flocklab.cli and materializes the scenario, so this is
    the time to a materialized first scenario.
    """
    argv = [sys.executable, "-m", "flocklab.cli", "validate", "--scenario", str(wl.first_scenario)]
    rc, wall, _, stdout = runner.spawn(argv)
    if rc != 0:
        raise RuntimeError(f"set-up failed: {stdout.strip()}")
    return wall


def n_ops(wl: Workload) -> int:
    return sum(len(ops) for ops in wl.processes)


def end_to_end(runner: Runner, wl: Workload, seconds: float, reference: dict | None):
    """Iterate the workload for about `seconds`, set-up samples interleaved.

    Set-up is sampled SETUP_SAMPLES times before each iteration rather than
    all at once, so that its median spans the same stretch of machine time
    as the other metrics.  One unmeasured spawn first fills the bytecode cache.
    """
    setup_time(runner, wl)
    setups: list[float] = []
    iters: list[Iteration] = []
    start = perf_counter()
    while True:
        setups += [setup_time(runner, wl) for _ in range(SETUP_SAMPLES)]
        it = runner.iteration(wl, reference=reference)
        iters.append(it)
        elapsed = perf_counter() - start
        per_iter = elapsed / len(iters)
        if it.failed or runner.time_left() < 2.0 * per_iter:
            break
        if len(iters) >= MIN_ITERATIONS and elapsed + per_iter > seconds:
            break

    # Times are means over the whole run, not medians of its few iterations:
    # the host's speed flips between a fast and a slow state for seconds at
    # a time, so each iteration is a random mix of the two, and the mean of
    # a run averages over more flips than the middle one of three does.
    walls = [it.wall_s for it in iters]
    # per process slot first, so that a workload whose processes differ in
    # length (large_flock's two flocks) does not take its median from the
    # edges of two clusters
    slots = [statistics.fmean(it.procs[k].wall_s for it in iters)
             for k in range(len(wl.processes))]
    if wl.sweep_points:
        # sweep wall: cli.main("sweep") inside its process, import excluded
        rate = len(iters) * wl.sweep_points / sum(it.procs[0].ops[0]["main_s"] for it in iters)
    else:
        rate = len(iters) * n_ops(wl) / sum(walls)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(walls), "s"),
        "call_p50_s": (statistics.median(slots), "s"),
        "points_per_s": (rate, "1/s"),
        "peak_rss_mb": (statistics.median(max(p.maxrss_mb for p in it.procs) for it in iters), "MiB"),
        "artifact_mb": (statistics.median(it.out_bytes for it in iters) / MIB, "MiB"),
    }
    notes = [f"iterations: {len(iters)}", f"call samples: {len(iters) * len(slots)}",
             f"set-up samples: {len(setups)}",
             f"iteration wall_s: {', '.join(f'{w:.4f}' for w in walls)}"]
    return metrics, iters, notes


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_files: list[Path], traced: Iteration) -> dict:
    """Per-layer busy time and work counts from the spans of one traced iteration."""
    durations: dict[str, list[float]] = {}
    info: dict[str, list[int]] = {}  # summed work counts
    integrate_self = 0.0  # integrate_flat minus the spans nested in it
    uncovered = 0.0
    for path, proc in zip(span_files, traced.procs):
        spans = json.loads(path.read_text(encoding="utf-8"))
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        root = 0.0
        for (name, t0, t1, parent, counts), inner in zip(spans, child_time):
            durations.setdefault(name, []).append(t1 - t0)
            if name == "integrate":
                integrate_self += t1 - t0 - inner
            if counts is not None:
                info[name] = [a + b for a, b in zip(info.get(name, [0] * len(counts)), counts)]
            if parent < 0:
                root += t1 - t0
        uncovered += proc.wall_s - root

    def calls(name):
        return len(durations.get(name, ()))

    def busy(name):
        return sum(durations.get(name, ()), 0.0)

    def median(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    accepted, rejected = info.get("integrate", [0, 0])
    audit_checked, audit_violations = info.get("certify.audit", [0, 0])
    return {
        "cli.import_s": (median("cli.import"), "s"),
        "cli.sweep_point_s": (median("cli.sweep_point"), "s"),
        "scenario.load_s": (busy("scenario.load"), "s"),
        "scenario.load_calls": (calls("scenario.load"), "count"),
        "dynamics.k_region_s": (busy("dynamics.k_region"), "s"),
        "dynamics.k_region_calls": (calls("dynamics.k_region"), "count"),
        "certify.certificate_s": (busy("certify.certificate"), "s"),
        "certify.certificate_calls": (calls("certify.certificate"), "count"),
        "certify.audit_s": (busy("certify.audit"), "s"),
        "certify.audit_samples": (audit_checked, "count"),
        "certify.audit_violations": (audit_violations, "count"),
        "integrate.self_s": (integrate_self, "s"),
        "integrate.steps_accepted": (accepted, "count"),
        "integrate.steps_rejected": (rejected, "count"),
        "integrate.accept_ratio": (_safe_div(accepted, accepted + rejected), "ratio"),
        "integrate.self_us_per_step": (_safe_div(1e6 * integrate_self, accepted), "us"),
        "models.rhs_calls": (calls("models.rhs"), "count"),
        "models.rhs_s": (busy("models.rhs"), "s"),
        "models.rhs_us": (_safe_div(1e6 * busy("models.rhs"), calls("models.rhs")), "us"),
        "models.rhs_per_step": (_safe_div(calls("models.rhs"), accepted), "ratio"),
        "coupling.weights_calls": (calls("coupling.weights"), "count"),
        "coupling.weights_s": (busy("coupling.weights"), "s"),
        "state.event_calls": (calls("state.event"), "count"),
        "state.event_s": (busy("state.event"), "s"),
        "state.events_per_step": (_safe_div(calls("state.event"), accepted), "ratio"),
        "artifacts.csv_write_s": (busy("artifacts.csv_write"), "s"),
        "artifacts.csv_read_s": (busy("artifacts.csv_read"), "s"),
        "artifacts.svg_s": (busy("artifacts.svg"), "s"),
        "artifacts.bytes": (traced.out_bytes, "count"),
        "trace.uncovered_s": (uncovered, "s"),
    }


def traced_run(runner: Runner, wl: Workload, reference: dict | None):
    """Untraced and traced iterations in turn; spans are kept under perfbench/traces/.

    The per-layer figures come from the last traced iteration; the tracing
    overhead is the median traced minus the median untraced wall time.  A
    traced sweep runs in-process with --jobs 1 (see layertrace.py), so its
    overhead is taken against untraced --jobs 1 sweeps, and the pool's
    efficiency from one more untraced sweep at the workload's --jobs.
    """
    span_dir = runner.work / "spans"
    span_dir.mkdir()
    jobs = 1 if wl.sweep_points else None
    pool_run = runner.iteration(wl, reference=reference) if wl.sweep_points else None
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(runner.iteration(wl, jobs=jobs, reference=reference))
        traced.append(runner.iteration(wl, trace_dir=span_dir, jobs=jobs, reference=reference))
    span_files = sorted(span_dir.glob("spans-*.json"))
    iters = [it for it in (pool_run, *untraced, *traced) if it is not None]
    if any(it.failed for it in iters) or len(span_files) != len(traced[-1].procs):
        return {}, iters, ["trace incomplete"]

    metrics = layer_metrics(span_files, traced[-1])
    pool_eff = 0.0
    if pool_run is not None:
        # (serial sweep time) / (jobs x pooled sweep time), both untraced
        # and both from cli.main("sweep"), the import excluded
        serial_s = statistics.median(it.procs[0].ops[0]["main_s"] for it in untraced)
        pool_eff = serial_s / (SWEEP_JOBS * pool_run.procs[0].ops[0]["main_s"])
    metrics["cli.pool_efficiency"] = (pool_eff, "ratio")
    overhead = (statistics.median(it.wall_s for it in traced)
                - statistics.median(it.wall_s for it in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")

    keep = HERE / "traces" / wl.name
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    for path in span_files:
        shutil.move(str(path), keep / path.name)
    return metrics, iters, [f"spans written to {keep.relative_to(ROOT)}"]


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's observed values as the reference (default seed only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    if not (SRC / "flocklab" / "cli.py").is_file():
        print(f"error: no flocklab sources at {SRC}; run from a flocklab checkout", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != inputs.DEFAULT_SEED:
        print(f"error: references are stored for seed {inputs.DEFAULT_SEED} only", file=sys.stderr)
        return 2
    reference = None
    if args.seed == inputs.DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(work, started)
        wl = WORKLOADS[args.workload](work, args.seed)
        if args.trace:
            metrics, iters, notes = traced_run(runner, wl, reference)
        else:
            metrics, iters, notes = end_to_end(runner, wl, args.seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(n_ops(wl) for _ in iters)
    failures = [msg for it in iters for msg in it.failed]
    if args.write_reference:
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        stored[args.workload] = iters[0].observed
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for line in notes + failures:
        print(line)
    print(f"failed_frac: {len(failures) / attempted:.6g} ({len(failures)} of {attempted} calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
