"""Run artifacts: timeseries CSV, SVG plots, manifests, certificate reports.

Everything here is deterministic text output: the same trajectory and
manifest produce byte-identical files, which makes artifacts diffable in
tests and reproducible across machines.  CSV rows carry 17 significant
digits (enough to round-trip IEEE doubles); agent and coordinate indices
in CSV headers and plot legends are 1-based for human consumption, while
every in-code API stays 0-based.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
from typing import Optional

import numpy as np

from .certify import CollisionCertificate, StandardCertificate, SyncCertificate
from .integrate import CollisionEvent, Completed, IntegratorConfig, StepSizeUnderflow, Trajectory

_SVG_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)


def fmt_sig(value: float) -> str:
    """17 significant digits, '.' decimal separator, round-trip exact."""
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# timeseries CSV


def timeseries_header(n: int, r: int, full: bool) -> list[str]:
    cols = ["t", "S_v", "S_x", "min_dist_sq"]
    if full:
        cols += [f"v_{i + 1}_{l + 1}" for i in range(n) for l in range(r)]
        cols += [f"x_{i + 1}_{l + 1}" for i in range(n) for l in range(r)]
    return cols


def write_timeseries_csv(path, traj: Trajectory, full: bool = False) -> None:
    k, n, r = traj.xs.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # csv defaults are RFC-4180 (CRLF rows)
        writer.writerow(timeseries_header(n, r, full))
        for row in range(k):
            rec = [
                fmt_sig(traj.ts[row]),
                fmt_sig(traj.spread_v[row]),
                fmt_sig(traj.spread_x[row]),
                fmt_sig(traj.min_dist_sq[row]),
            ]
            if full:
                rec += [fmt_sig(val) for val in traj.vs[row].ravel()]
                rec += [fmt_sig(val) for val in traj.xs[row].ravel()]
            writer.writerow(rec)


def read_timeseries_csv(path) -> dict:
    """Parse a timeseries CSV back into arrays.

    Returns ts / spread_v / spread_x / min_dist_sq always, and xs / vs of
    shape (k, n, r) when the file carries full-state columns.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in rec] for rec in reader if rec]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    expected = ["t", "S_v", "S_x", "min_dist_sq"]
    if header[: len(expected)] != expected:
        raise ValueError(f"{path}: unexpected header {header[: len(expected)]}")
    out = {
        "ts": data[:, 0],
        "spread_v": data[:, 1],
        "spread_x": data[:, 2],
        "min_dist_sq": data[:, 3],
    }
    state_cols = header[len(expected) :]
    if state_cols:
        tags = [re.fullmatch(r"([vx])_(\d+)_(\d+)", col) for col in state_cols]
        if any(tag is None for tag in tags):
            raise ValueError(f"{path}: malformed state columns")
        n = max(int(tag.group(2)) for tag in tags)
        r = max(int(tag.group(3)) for tag in tags)
        if len(state_cols) != 2 * n * r:
            raise ValueError(f"{path}: expected {2 * n * r} state columns, found {len(state_cols)}")
        k = data.shape[0]
        out["vs"] = data[:, 4 : 4 + n * r].reshape(k, n, r)
        out["xs"] = data[:, 4 + n * r :].reshape(k, n, r)
    return out


def trajectory_from_artifacts(csv_path, cfg: IntegratorConfig, termination, stats=None) -> Trajectory:
    """Rebuild a Trajectory from a full-state CSV for post-hoc audits."""
    data = read_timeseries_csv(csv_path)
    if "xs" not in data:
        raise ValueError(f"{csv_path}: audits need the full-state columns (run simulate --full)")
    stats = stats or {}
    return Trajectory(
        ts=data["ts"],
        xs=data["xs"],
        vs=data["vs"],
        termination=termination,
        n_accepted=int(stats.get("n_accepted", 0)),
        n_rejected=int(stats.get("n_rejected", 0)),
        cfg=cfg,
    )


# ---------------------------------------------------------------------------
# termination <-> manifest


def termination_to_doc(term) -> dict:
    if isinstance(term, Completed):
        return {"kind": "completed"}
    if isinstance(term, CollisionEvent):
        return {"kind": "collision", "t_star": term.t_star, "i": term.i, "j": term.j}
    if isinstance(term, StepSizeUnderflow):
        return {"kind": "underflow", "t": term.t}
    raise TypeError(f"unknown termination {term!r}")


def termination_from_doc(doc: dict):
    kind = doc["kind"]
    if kind == "completed":
        return Completed()
    if kind == "collision":
        return CollisionEvent(t_star=doc["t_star"], i=doc["i"], j=doc["j"])
    if kind == "underflow":
        return StepSizeUnderflow(t=doc["t"])
    raise ValueError(f"unknown termination kind {kind!r}")


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# certificate reports


def _report_value(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if val is None:
        return "none"
    if isinstance(val, float):
        return fmt_sig(val)
    return str(val)


# model variant -> (certificate class, label printed in reports, manifests
# and sweep CSVs)
CERTIFICATE_KINDS = {
    "sync": (SyncCertificate, "sync"),
    "collision_free": (CollisionCertificate, "collision"),
    "baseline": (StandardCertificate, "standard"),
}


def _certificate_label(cert) -> str:
    for cls, label in CERTIFICATE_KINDS.values():
        if type(cert) is cls:
            return label
    return type(cert).__name__


def certificate_report(cert) -> str:
    """Flat `key: value` text block, one line per certificate field."""
    label = _certificate_label(cert)
    lines = [f"certificate: {label}"]
    for fld in dataclasses.fields(cert):
        lines.append(f"{fld.name}: {_report_value(getattr(cert, fld.name))}")
    return "\n".join(lines) + "\n"


def certificate_fields(cert) -> dict:
    """Certificate as a flat dict for sweep CSV rows and manifests."""
    out = {"certificate": _certificate_label(cert)}
    out.update(dataclasses.asdict(cert))
    return out


# ---------------------------------------------------------------------------
# SVG plots


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + step * k for k in range(count)]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class SvgPlot:
    """Minimal deterministic line plot writer (SVG 1.1, fixed layout).

    Coordinates are rounded to 0.01 px so output depends only on the data,
    never on float printing quirks of the platform.
    """

    WIDTH = 640
    HEIGHT = 420
    MARGIN_L = 70
    MARGIN_R = 160
    MARGIN_T = 42
    MARGIN_B = 48

    def __init__(self, title: str, xlabel: str, ylabel: str, log_y: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.log_y = log_y
        self.series: list[tuple[str, np.ndarray, np.ndarray]] = []
        self.hlines: list[tuple[str, float]] = []

    def add_series(self, label: str, t, values) -> None:
        self.series.append((label, np.asarray(t, dtype=float), np.asarray(values, dtype=float)))

    def add_hline(self, label: str, value: float) -> None:
        self.hlines.append((label, value))

    def _prepare(self, values: np.ndarray) -> np.ndarray:
        if not self.log_y:
            return values
        # keep zeros plottable without stretching the axis to -inf
        return np.log10(np.clip(values, 1e-16, None))

    def render(self) -> str:
        xs_all = np.concatenate([t for _, t, _ in self.series])
        ys_all = np.concatenate([self._prepare(v) for _, _, v in self.series])
        for _, val in self.hlines:
            ys_all = np.append(ys_all, self._prepare(np.array([val])))
        x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
        y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi, y_lo = y_lo + 0.5, y_lo - 0.5
        pad = 0.05 * (y_hi - y_lo)
        y_lo -= pad
        y_hi += pad

        px_w = self.WIDTH - self.MARGIN_L - self.MARGIN_R
        px_h = self.HEIGHT - self.MARGIN_T - self.MARGIN_B

        def sx(x: float) -> float:
            return self.MARGIN_L + (x - x_lo) / (x_hi - x_lo) * px_w

        def sy(y: float) -> float:
            return self.MARGIN_T + (y_hi - y) / (y_hi - y_lo) * px_h

        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{self.WIDTH}" height="{self.HEIGHT}" '
            f'viewBox="0 0 {self.WIDTH} {self.HEIGHT}">',
            f'<rect x="0" y="0" width="{self.WIDTH}" height="{self.HEIGHT}" fill="#ffffff"/>',
            f'<text x="{self.WIDTH / 2:.2f}" y="24" font-family="sans-serif" font-size="15" '
            f'text-anchor="middle">{_esc(self.title)}</text>',
        ]

        # frame, grid, ticks
        x0, y0 = self.MARGIN_L, self.MARGIN_T
        x1, y1 = self.MARGIN_L + px_w, self.MARGIN_T + px_h
        for xt in _ticks(x_lo, x_hi):
            px = sx(xt)
            out.append(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y1}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{px:.2f}" y="{y1 + 18}" font-family="sans-serif" font-size="11" '
                f'text-anchor="middle">{format(xt, ".4g")}</text>'
            )
        for yt in _ticks(y_lo, y_hi):
            py = sy(yt)
            label = format(10.0**yt, ".3g") if self.log_y else format(yt, ".4g")
            out.append(
                f'<line x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" '
                f'stroke="#dddddd" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{x0 - 6}" y="{py + 4:.2f}" font-family="sans-serif" font-size="11" '
                f'text-anchor="end">{label}</text>'
            )
        out.append(
            f'<rect x="{x0}" y="{y0}" width="{px_w}" height="{px_h}" '
            f'fill="none" stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{self.HEIGHT - 10}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle">{_esc(self.xlabel)}</text>'
        )
        out.append(
            f'<text x="18" y="{(y0 + y1) / 2:.2f}" font-family="sans-serif" font-size="12" '
            f'text-anchor="middle" transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">'
            f"{_esc(self.ylabel)}</text>"
        )

        for _, value in self.hlines:
            py = sy(float(self._prepare(np.array([value]))[0]))
            out.append(
                f'<line x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" '
                f'stroke="#999999" stroke-width="1" stroke-dasharray="6,3"/>'
            )

        legend_y = y0 + 4
        for idx, (label, t, values) in enumerate(self.series):
            color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
            pts = " ".join(
                f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                for a, b in zip(t, self._prepare(values))
            )
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.3" points="{pts}"/>'
            )
            ly = legend_y + 16 * idx
            out.append(
                f'<line x1="{x1 + 10}" y1="{ly + 8:.2f}" x2="{x1 + 34}" y2="{ly + 8:.2f}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{x1 + 40}" y="{ly + 12:.2f}" font-family="sans-serif" '
                f'font-size="11">{_esc(label)}</text>'
            )
        for idx, (label, _) in enumerate(self.hlines):
            ly = legend_y + 16 * (len(self.series) + idx)
            out.append(
                f'<line x1="{x1 + 10}" y1="{ly + 8:.2f}" x2="{x1 + 34}" y2="{ly + 8:.2f}" '
                f'stroke="#999999" stroke-width="1" stroke-dasharray="6,3"/>'
            )
            out.append(
                f'<text x="{x1 + 40}" y="{ly + 12:.2f}" font-family="sans-serif" '
                f'font-size="11">{_esc(label)}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.render())


def _thin_indices(k: int, cap: int = 2000) -> np.ndarray:
    if k <= cap:
        return np.arange(k)
    idx = np.linspace(0, k - 1, cap).round().astype(int)
    return np.unique(idx)


def _small_flock(n: int) -> bool:
    """Whether a flock of n is plotted member by member: its pairs fit the palette."""
    return n * (n - 1) // 2 <= len(_SVG_PALETTE)


def plot_velocity_components(path, traj: Trajectory) -> None:
    """Velocity components over time.

    Small flocks (n <= 5) get one polyline per agent and axis.  Larger ones
    get the min, median and max over agents for each axis, so the file size
    and the legend do not grow with n.
    """
    k, n, r = traj.vs.shape
    idx = _thin_indices(k)
    ts, vs = traj.ts[idx], traj.vs[idx]
    plot = SvgPlot("velocity components", "t", "v")
    if _small_flock(n):
        for i in range(n):
            for l in range(r):
                plot.add_series(f"v[{i + 1},{l + 1}]", ts, vs[:, i, l])
    else:
        bands = (vs.min(axis=1), np.median(vs, axis=1), vs.max(axis=1))
        for l in range(r):
            for label, band in zip(("min", "median", "max"), bands):
                plot.add_series(f"{label} v[i,{l + 1}]", ts, band[:, l])
    plot.write(path)


def _pair_distance_bands(xs: np.ndarray) -> np.ndarray:
    """Min, median and max of |x_i - x_j| over pairs at each sample, (3, k).

    Samples are taken in chunks so no more than about 2**18 pair distances
    are held at once, whatever n is.
    """
    iu, ju = np.triu_indices(xs.shape[1], k=1)
    chunk = max(1, 2**18 // len(iu))
    bands = []
    for lo in range(0, len(xs), chunk):
        diff = xs[lo : lo + chunk, iu, :] - xs[lo : lo + chunk, ju, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        bands.append([dist.min(axis=1), np.median(dist, axis=1), dist.max(axis=1)])
    return np.concatenate(bands, axis=1)


def plot_pairwise_distances(path, traj: Trajectory, d0: Optional[float] = None) -> None:
    """Pair distances |x_i - x_j| over time, with sqrt(d0) dashed if given.

    While the n(n-1)/2 pairs fit the 10-colour palette (n <= 5), each pair
    gets its own polyline.  Above that the plot draws three bands instead:
    the min, median and max over all pairs at each sample, so the file size
    does not grow with n^2.
    """
    k, n, _ = traj.xs.shape
    idx = _thin_indices(k)
    ts = traj.ts[idx]
    plot = SvgPlot("pairwise distances", "t", "|x_i - x_j|")
    if _small_flock(n):
        for i in range(n):
            for j in range(i + 1, n):
                diff = traj.xs[idx, i, :] - traj.xs[idx, j, :]
                dist = np.sqrt((diff * diff).sum(axis=1))
                plot.add_series(f"|x_{i + 1}-x_{j + 1}|", ts, dist)
    else:
        bands = _pair_distance_bands(traj.xs[idx])
        for label, band in zip(("min", "median", "max"), bands):
            plot.add_series(f"{label} |x_i-x_j|", ts, band)
    if d0 is not None:
        plot.add_hline("sqrt(d0)", math.sqrt(d0))
    plot.write(path)


def plot_spread_v(path, traj: Trajectory, bound=None) -> None:
    """Velocity spread on a log axis, with the certified bound if given."""
    idx = _thin_indices(len(traj.ts))
    plot = SvgPlot("velocity spread", "t", "S(v)", log_y=True)
    plot.add_series("S(v)", traj.ts[idx], traj.spread_v[idx])
    if bound is not None:
        plot.add_series("certified bound", traj.ts[idx], bound(traj.ts[idx]))
    plot.write(path)
