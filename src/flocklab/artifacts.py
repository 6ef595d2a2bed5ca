"""Run artifacts: timeseries CSV, SVG plots, manifests, certificate reports.

Everything here is deterministic text output: the same trajectory and
manifest produce byte-identical files, which makes artifacts diffable in
tests and reproducible across machines.  Every number written as text
(CSV cells, certificate reports, sweep rows, printed summaries) is
`fmt_sig`'s: the shortest decimal that reads back to the same double, as
Python's `repr` and the JSON manifests print it, less a trailing `.0`.
Agent and coordinate indices in CSV headers and plot legends are 1-based
for human consumption, while every in-code API stays 0-based.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings
from itertools import accumulate, islice, pairwise
from typing import Optional, get_args

import numpy as np

from .integrate import IntegratorConfig, Termination, Trajectory
from .state import PASS_BYTES, pair_distances_sq

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
    """The shortest text that reads back to the same double: `repr`, less a trailing `.0`.

    '.' is the decimal separator.  Integral values below 1e16 print as
    integers (`0`, `-0`, `10`), as `%.17g` prints them; `inf`, `-inf` and
    `nan` print as they are.  A `repr` holds `.0` only at its end.
    """
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


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
    cols = [traj.ts, traj.spread_v, traj.spread_x, traj.min_dist_sq]
    header = timeseries_header(n, r, full)
    # RFC-4180 rows ending in CRLF, whose cells are fmt_sig's text and need
    # no quoting: a slice of rows is printed with repr, and the cells that
    # end in `.0` (before a comma or the row's end) lose it, which is safe
    # since a repr holds `.0` only at its end.  A row's floats live only
    # while it is printed; a whole-slice tolist() would hold them all (32
    # bytes a value) in pages the rest of the run does not reuse.  Per
    # value, a slice holds its stacked table (8 bytes) beside its rows'
    # text (about 24), then the slice's text beside them, then that text
    # and its two trimmed copies (about 72): 128 bytes a value fit PASS_BYTES
    width = len(header)
    chunk = max(1, PASS_BYTES // (128 * width))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, k, chunk):
            part = [col[lo : lo + chunk] for col in cols]
            if full:
                part += [traj.vs[lo : lo + chunk].reshape(-1, n * r),
                         traj.xs[lo : lo + chunk].reshape(-1, n * r)]
            lines = [",".join(map(repr, rec.tolist())) for rec in np.column_stack(part)]
            del part
            lines.append("")  # the last row's CRLF
            text = "\r\n".join(lines)
            del lines
            fh.write(text.replace(".0,", ",").replace(".0\r\n", "\r\n"))


def read_timeseries_csv(path) -> dict:
    """Parse a timeseries CSV back into arrays.

    Returns ts / spread_v / spread_x / min_dist_sq always, and xs / vs of
    shape (k, n, r) when the file carries full-state columns, all views of
    one (k, columns) array.  The file is read twice: once to count its
    lines, then in slices of lines, each parsed into its rows of that array.
    A ragged or non-numeric row, or rows whose width is not the header's,
    raise ValueError.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        width = len(header)
        start = fh.tell()
        data = np.empty((sum(1 for _ in fh), width))
        fh.seek(start)
        # np.loadtxt takes a slice's lines one at a time.  Beside the line it
        # parses (its 4-byte characters and field buffers, about 128 bytes a
        # value), a slice's parsed rows (8 bytes a value) take at most half
        # of PASS_BYTES, leaving the rest to the text buffers of reading
        chunk = max(1, (PASS_BYTES - 128 * width) // (16 * width))
        filled = 0
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*input contained no data", UserWarning)
            for _ in range(0, len(data), chunk):
                part = np.loadtxt(islice(fh, chunk), delimiter=",", ndmin=2, max_rows=chunk)
                if part.size and part.shape[1] != width:
                    raise ValueError(f"{path}: rows of {part.shape[1]} values under {width} columns")
                data[filled : filled + len(part)] = part
                filled += len(part)
                del part  # else the next slice is parsed while this one is held
    data = data[:filled]  # blank lines hold no row
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


def trajectory_from_artifacts(csv_path, cfg: IntegratorConfig, termination) -> Trajectory:
    """Rebuild a Trajectory from a full-state CSV for post-hoc audits, with no step counts."""
    data = read_timeseries_csv(csv_path)
    if "xs" not in data:
        raise ValueError(f"{csv_path}: audits need the full-state columns (run simulate --full)")
    return Trajectory(
        ts=data["ts"],
        xs=data["xs"],
        vs=data["vs"],
        termination=termination,
        n_accepted=0,
        n_rejected=0,
        cfg=cfg,
    )


# ---------------------------------------------------------------------------
# termination <-> manifest


_TERMINATIONS = {cls.kind: cls for cls in get_args(Termination)}


def termination_to_doc(term) -> dict:
    return {"kind": term.kind, **dataclasses.asdict(term)}


def termination_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError(f"termination: must be a JSON object, not {type(doc).__name__}")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in _TERMINATIONS:
        raise ValueError(f"unknown termination kind {kind!r}")
    cls = _TERMINATIONS[kind]
    return cls(**{fld.name: doc[fld.name] for fld in dataclasses.fields(cls)})


def write_manifest(path, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def read_manifest(path) -> dict:
    """The manifest at path; ValueError names its run or certificate block if that is no object."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: must hold a JSON object, not {type(manifest).__name__}")
    if not isinstance(manifest.get("run", {}), dict):
        raise ValueError(f"{path}: run: must be a JSON object")
    if not isinstance(manifest.get("certificate") or {}, dict):
        raise ValueError(f"{path}: certificate: must be a JSON object or null")
    return manifest


# ---------------------------------------------------------------------------
# certificate reports


def report_value(val) -> str:
    """One value as reports and sweep CSVs print it."""
    if isinstance(val, bool):
        return "true" if val else "false"
    if val is None:
        return "none"
    if isinstance(val, float):
        return fmt_sig(val)
    return str(val)


def certificate_report(cert) -> str:
    """Flat `key: value` text block, one line per certificate field."""
    lines = [f"certificate: {cert.kind}"]
    for fld in dataclasses.fields(cert):
        lines.append(f"{fld.name}: {report_value(getattr(cert, fld.name))}")
    return "\n".join(lines) + "\n"


def certificate_fields(cert) -> dict:
    """Certificate as a flat dict for sweep CSV rows and manifests."""
    out = {"certificate": cert.kind}
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


def _hundredths(px: np.ndarray) -> np.ndarray:
    """Pixel coordinates in integer hundredths, as `format(px, ".2f")` rounds them.

    `rint(100 * px)` can differ only where 100 * px lies within rounding
    error of a half (the product may land on the half, and rint rounds it
    to even); there `format` decides from px's exact value.
    """
    scaled = 100.0 * px
    out = np.rint(scaled).astype(np.int64)
    for i in np.flatnonzero(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6):
        out[i] = int(format(px[i], ".2f").replace(".", ""))
    return out


# a drawn line may pass this far from a printed point, in hundredths of a
# pixel: 1/9 px, matplotlib's default path.simplify_threshold.  No integer
# point lies exactly this far from a segment between integer points
_TOLERANCE = (100, 9)  # numerator, denominator


def _farthest(x: np.ndarray, y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """For each segment from point lo to point hi, its interior point farthest from it, or -1.

    -1 marks a segment whose interior points all lie within _TOLERANCE of
    it.  Distances are to the segment, not to its line, and are compared in
    exact integer arithmetic as L * dist^2, with L the segment's squared
    length (1 for a segment of length 0).  For a segment running d from
    its start and a point u from it, with t = u.d and cross = d x u, that
    key is cross^2 + e^2, where e is how far t lies outside [0, L]:
    cross^2 when the point projects into the segment, L |u|^2 or
    L |u - d|^2 when it projects before or beyond it.  Of tied points, the
    first is taken.  A key is at most the fourth power of the distance
    between two points of the series; in the plot frame, whose diagonal is
    410 x 330 px, that is under 2^63.  The interior points are taken in
    blocks of PASS_BYTES / 1024 points, whose temporaries (about 128 bytes a
    point) take an eighth of PASS_BYTES: the segments of all lines of a plot
    come in one call, and blocks that filled PASS_BYTES raised a bundled
    run's peak resident memory by about 0.5 MiB.
    """
    count = hi - lo - 1
    ends = np.cumsum(count)
    starts = ends - count
    dx, dy = x[hi] - x[lo], y[hi] - y[lo]
    size = dx * dx + dy * dy
    # a segment of length 0 measures along (1, 0) with [0, L] = [0, 0], so
    # that its key cross^2 + e^2 is |u|^2
    dx[size == 0] = 1
    key = np.full(len(lo), -1)  # of the farthest point found so far
    far = np.full(len(lo), -1)
    total, block = int(ends[-1]), PASS_BYTES // 1024
    for start in range(0, total, block):
        stop = min(start + block, total)
        s = slice(int(np.searchsorted(ends, start, "right")), int(np.searchsorted(starts, stop)))
        piece = np.minimum(ends[s], stop) - np.maximum(starts[s], start)
        seg = np.repeat(np.arange(s.start, s.stop), piece)
        idx = np.arange(start, stop) + (lo + 1 - starts)[seg]
        ux, uy, ex, ey = x[idx] - x[lo[seg]], y[idx] - y[lo[seg]], dx[seg], dy[seg]
        t = ux * ex + uy * ey
        cross = ex * uy - ey * ux
        e = t - np.clip(t, 0, size[seg])
        dist = cross * cross + e * e
        # each segment's first farthest point within the block
        first = np.cumsum(piece) - piece
        top = np.maximum.reduceat(dist, first)
        at = np.minimum.reduceat(np.where(dist == np.repeat(top, piece), idx, len(x)), first)
        better = top > key[s]  # an earlier block's point wins a tie
        key[s][better], far[s][better] = top[better], at[better]
    num, den = _TOLERANCE
    # key * den^2 > num^2 * L in int64: a key clamped to 2^56 is still far
    # beyond num^2 * L, and den^2 * 2^56 is under 2^63
    return np.where(den * den * np.minimum(key, 2**56) > num * num * np.maximum(size, 1), far, -1)


def _simplified(x: np.ndarray, y: np.ndarray, bounds: list[int]) -> np.ndarray:
    """Douglas-Peucker on the integer points (x, y): a mask of the kept ones.

    The points are lines laid end to end, line i the points from bounds[i]
    up to bounds[i + 1].  The first, last, lowest and highest points of
    each line (the first of tied ones) are kept to start with.  Between
    each two kept points the one farthest from the segment joining them is
    kept if it lies beyond _TOLERANCE, splitting the segment in two.  Each
    level splits every open segment of every line at once.  No segment
    spans two lines: one's last point and the next one's first are kept
    and adjacent, so nothing lies between them.
    """
    keep = np.zeros(len(x), dtype=bool)
    for lo, hi in zip(bounds, bounds[1:]):
        line = y[lo:hi]
        keep[[lo, hi - 1, lo + line.argmin(), lo + line.argmax()]] = True
    kept = np.flatnonzero(keep)
    lo, hi = kept[:-1], kept[1:]
    while True:
        inner = hi - lo > 1
        lo, hi = lo[inner], hi[inner]
        if not len(lo):
            return keep
        far = _farthest(x, y, lo, hi)
        split = far >= 0
        keep[far[split]] = True
        lo, hi = np.concatenate((lo[split], far[split])), np.concatenate((far[split], hi[split]))


def _path_data(lines) -> list[str]:
    """Path data near each line's pixel points: `M` to the first, then relative `l` steps.

    The points are rounded to integer hundredths and simplified, all lines
    at once: the vertices are the points `_simplified` keeps, so every
    rounded point lies within 1/9 px of its drawn line, and each line's
    first, last, lowest and highest are vertices.  No interior vertex lies
    where its line goes straight on: along a straight run, the distance to
    a segment is convex and the height linear, so each reaches its largest
    value at one of the run's ends, and `_simplified` takes the first of
    tied farthest points and of tied extremes.
    """
    pts = [np.column_stack((_hundredths(px), _hundredths(py))) for px, py in lines]
    bounds = [0, *accumulate(map(len, pts))]
    pts = np.concatenate(pts)
    at = np.flatnonzero(_simplified(pts[:, 0], pts[:, 1], bounds))
    verts = pts[at]
    out = []
    for lo, hi in pairwise(np.searchsorted(at, bounds).tolist()):
        head = f"M{verts[lo, 0]} {verts[lo, 1]}"
        if hi - lo == 1:
            out.append(head)
            continue
        steps = " ".join(map(str, np.diff(verts[lo:hi], axis=0).ravel().tolist()))
        out.append(f"{head}l{steps.replace(' -', '-')}")
    return out


class SvgPlot:
    """Minimal deterministic line plot writer (SVG 1.1, fixed layout).

    Coordinates are rounded to 0.01 px so output depends only on the data,
    never on float printing quirks of the platform.  Each series is one
    `<path>` in integer hundredths of a pixel, inside a group scaled by
    0.01: its first vertex is absolute (`M`) and each later one a relative
    `l` step from the one before.  A line keeps only the points that move
    it by more than 1/9 px (`_path_data`), by Douglas-Peucker.  A
    non-finite value raises ValueError.
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
        xs = [t for _, t, _ in self.series]
        ys = [self._prepare(v) for _, _, v in self.series]
        for (label, _, _), t, y in zip(self.series, xs, ys):
            if not (np.isfinite(t).all() and np.isfinite(y).all()):
                raise ValueError(f"plot {self.title!r}: series {label!r} holds a non-finite value")
        ys += [self._prepare(np.array([val])) for _, val in self.hlines]
        # nothing to draw (one agent has no pairs): an empty frame on the unit axes
        xs_all = np.concatenate(xs or [np.zeros(1)])
        ys_all = np.concatenate(ys or [np.zeros(1)])
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

        if self.series:
            out.append('<g transform="scale(.01)" fill="none" stroke-width="130">')
            paths = _path_data((sx(t), sy(y)) for t, y in zip(xs, ys))
            for idx, d in enumerate(paths):
                color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
                out.append(f'<path stroke="{color}" d="{d}"/>')
            out.append("</g>")
        legend_y = y0 + 4
        for idx, (label, _, _) in enumerate(self.series):
            color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
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
        text = self.render()  # a plot that fails to render leaves no file
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _thin_indices(k: int, cap: int = 2000) -> slice | np.ndarray:
    """At most cap sample indices spread evenly over k, in increasing order.

    Rounded `linspace` indices are strictly increasing when k > cap, since
    their spacing (k - 1) / (cap - 1) exceeds 1.
    """
    if k <= cap:
        return slice(None)
    return np.linspace(0, k - 1, cap).round().astype(int)


def _small_flock(n: int) -> bool:
    """Whether a flock of n is plotted member by member: its pairs fit the palette."""
    return n * (n - 1) // 2 <= len(_SVG_PALETTE)


def plot_velocity_components(path, traj: Trajectory) -> None:
    """Velocity components over time.

    Small flocks (n <= 5) get one line per agent and axis.  Larger ones
    get the min, median and max over agents for each axis, so the file size
    and the legend do not grow with n.
    """
    k, n, r = traj.vs.shape
    idx = _thin_indices(k)
    ts = traj.ts[idx]
    plot = SvgPlot("velocity components", "t", "v")
    if _small_flock(n):
        vs = traj.vs[idx]
        for i in range(n):
            for l in range(r):
                plot.add_series(f"v[{i + 1},{l + 1}]", ts, vs[:, i, l])
    else:
        bands = _agent_bands(traj.vs, idx)
        for l in range(r):
            for label, band in zip(("min", "median", "max"), bands):
                plot.add_series(f"{label} v[i,{l + 1}]", ts, band[:, l])
    plot.write(path)


def _select_bands(values: np.ndarray, out: np.ndarray) -> None:
    """Min, median and max of each row of the (m, P) values, into the (3, m) out.

    The values are partitioned in place.  The median is np.median's own
    arithmetic, bit for bit: a partition at the middle positions, the mean
    of the middle one or two values (which turns -0.0 into 0.0), and NaN in
    a row that holds one.  np.median itself would load numpy.ma.  Min and
    max are the row reductions; a reduction over another layout can differ
    from them only in the sign of a zero tied with a zero of the other sign,
    which no plot coordinate shows.
    """
    low, mid, high = out
    p = values.shape[1]
    middle = slice((p - 1) // 2, p // 2 + 1)
    values.min(axis=1, out=low)
    values.max(axis=1, out=high)
    values.partition([middle.start, middle.stop - 1], axis=1)
    values[:, middle].mean(axis=1, out=mid)
    mid[np.isnan(high)] = np.nan


def _agent_bands(vs: np.ndarray, idx=slice(None)) -> np.ndarray:
    """Min, median and max over agents of each coordinate at the samples idx, (3, m, r).

    A chunk of samples is gathered and laid out as one row of agents per
    sample and coordinate, both copies within PASS_BYTES (or one sample).
    """
    _, n, r = vs.shape
    picked = np.arange(len(vs))[idx]
    chunk = max(1, PASS_BYTES // (16 * n * r))
    bands = np.empty((3, len(picked) * r))
    for lo in range(0, len(picked), chunk):
        rows = vs[picked[lo : lo + chunk]].transpose(0, 2, 1).reshape(-1, n)  # (m * r, n)
        _select_bands(rows, bands[:, lo * r : (lo + chunk) * r])
    return bands.reshape(3, -1, r)


def _pair_distance_bands(xs: np.ndarray, idx=slice(None)) -> np.ndarray:
    """Min, median and max of |x_i - x_j| over pairs at the samples idx, (3, m).

    The distances are the square roots of `pair_distances_sq`'s, chunk by
    chunk, so the bands equal their min, np.median and max bit for bit.
    """
    bands = np.empty((3, len(np.arange(len(xs))[idx])))
    for lo, d2 in pair_distances_sq(xs, idx):
        _select_bands(np.sqrt(d2, out=d2), bands[:, lo : lo + len(d2)])
    return bands


def plot_pairwise_distances(path, traj: Trajectory, d0: Optional[float] = None) -> None:
    """Pair distances |x_i - x_j| over time, with sqrt(d0) dashed if given.

    While the n(n-1)/2 pairs fit the 10-colour palette (n <= 5), each pair
    gets its own line.  Above that the plot draws three bands instead:
    the min, median and max over all pairs at each sample, so the file size
    does not grow with n^2.
    """
    k, n, _ = traj.xs.shape
    idx = _thin_indices(k)
    ts = traj.ts[idx]
    plot = SvgPlot("pairwise distances", "t", "|x_i - x_j|")
    if _small_flock(n):
        dist = np.concatenate([np.sqrt(d2) for _, d2 in pair_distances_sq(traj.xs, idx)])
        for (i, j), series in zip(zip(*np.triu_indices(n, 1)), dist.T):
            plot.add_series(f"|x_{i + 1}-x_{j + 1}|", ts, series)
    else:
        bands = _pair_distance_bands(traj.xs, idx)
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
