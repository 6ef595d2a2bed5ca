"""Outside-in layer trace of flocklab.

Each public function is wrapped where its caller looks it up, so flocklab
itself carries no timing code.  Spans stay in memory as
``[name, t0, t1, parent, info]`` rows (``parent`` is the index of the
enclosing span or -1) and are written out once the process is done.

Lookup points, and why each is patched where it is:

- ``flocklab/__init__.py`` rebinds ``flocklab.integrate`` to the function,
  so modules are reached through ``sys.modules``.
- ``integrate()`` calls ``flat_rhs``, ``min_pair_distance_sq`` and
  ``integrate_flat`` through the integrate module's globals; the RHS
  variants call ``weights_matrix`` through the models module's globals;
  ``resolve_k_bound`` calls ``k_region`` through the scenario module's.
- The CLI imported its scenario and certify entry points by name, so those
  are patched on ``flocklab.cli``; it calls the artifact writers as
  attributes of the artifacts module, so those are patched there.
- ``_sweep_point`` is patched too, which means a traced sweep must run with
  ``--jobs 1``: a pool pickles the function by name, and forked workers'
  spans would never reach this process anyway.
"""

from __future__ import annotations

import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        """`fn` recording one span per call; `info(result)` adds work counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if info is not None:
                spans[idx][4] = info(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, info=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), info))

    def record(self, name: str, t0: float, t1: float) -> None:
        """A root span timed by the caller (the import of flocklab.cli)."""
        self.spans.append([name, t0, t1, -1, None])


def _audit_counts(report):
    return [report.n_checked, report.n_violations]


def _step_counts(result):
    # integrate_flat returns (ts, ys, termination, n_accepted, n_rejected)
    return [result[3], result[4]]


def install(tracer: Tracer) -> None:
    """Wrap flocklab's layer boundaries; flocklab.cli must be imported."""
    mod = {name: sys.modules[f"flocklab.{name}"]
           for name in ("cli", "scenario", "integrate", "models", "artifacts")}
    cli, integ, art = mod["cli"], mod["integrate"], mod["artifacts"]

    tracer.patch(cli, "_sweep_point", "cli.sweep_point")
    tracer.patch(cli, "load_scenario", "scenario.load")
    tracer.patch(cli, "materialize", "scenario.load")
    tracer.patch(mod["scenario"], "k_region", "dynamics.k_region")
    tracer.patch(cli, "evaluate_certificate", "certify.certificate")
    tracer.patch(cli, "audit_sync_run", "certify.audit", _audit_counts)
    tracer.patch(cli, "audit_collision_run", "certify.audit", _audit_counts)
    tracer.patch(integ, "integrate_flat", "integrate", _step_counts)
    tracer.patch(integ, "min_pair_distance_sq", "state.event")
    tracer.patch(mod["models"], "weights_matrix", "coupling.weights")

    flat_rhs = integ.flat_rhs
    integ.flat_rhs = lambda spec: tracer.wrap("models.rhs", flat_rhs(spec))

    tracer.patch(art, "write_timeseries_csv", "artifacts.csv_write")
    tracer.patch(art, "read_timeseries_csv", "artifacts.csv_read")
    for plot in ("plot_velocity_components", "plot_pairwise_distances", "plot_spread_v"):
        tracer.patch(art, plot, "artifacts.svg")
