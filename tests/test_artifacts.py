"""Artifact round-trips: CSV, manifests, certificate reports, SVG plots."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET
from importlib.resources import files

import numpy as np
import pytest

from flocklab import artifacts
from flocklab.artifacts import (
    SvgPlot,
    certificate_fields,
    certificate_report,
    fmt_sig,
    plot_pairwise_distances,
    plot_spread_v,
    plot_velocity_components,
    read_manifest,
    read_timeseries_csv,
    termination_from_doc,
    termination_to_doc,
    timeseries_header,
    trajectory_from_artifacts,
    write_manifest,
    write_timeseries_csv,
)
from flocklab.certify import certify_collision, certify_standard, certify_sync
from flocklab.coupling import ConstantCoupling
from flocklab.dynamics import RepulsionModel
from flocklab.integrate import (
    CollisionEvent,
    Completed,
    IntegratorConfig,
    StepSizeUnderflow,
    Trajectory,
    integrate,
)
from flocklab.scenario import load_scenario
from flocklab.state import PASS_BYTES, pair_dot


@pytest.fixture
def small_traj() -> Trajectory:
    rng = np.random.default_rng(3)
    k, n, r = 7, 2, 2
    ts = np.linspace(0.0, 1.0, k)
    # awkward mantissas so 17-digit round-tripping is actually exercised
    xs = rng.normal(size=(k, n, r)) * math.pi
    vs = rng.normal(size=(k, n, r)) / 3.0
    return Trajectory(
        ts=ts,
        xs=xs,
        vs=vs,
        termination=Completed(),
        n_accepted=6,
        n_rejected=1,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=1.0 / 6.0),
    )


def _fmt_sig_inputs() -> np.ndarray:
    """Doubles that stress a shortest-text formatter.

    Seeded random bit patterns over every binade (subnormals among them),
    +-0.0, integral values, and neighbours of 1e-5, 1e16 and 1e17, where
    the fixed and exponent layouts of `repr` and `%.17g` switch over.
    """
    rng = np.random.default_rng(34)
    bits = rng.integers(0, 2**63, 20_000, dtype=np.uint64, endpoint=False)
    bits |= rng.integers(0, 2, len(bits), dtype=np.uint64) << np.uint64(63)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    binades = np.ldexp(1.0 + rng.random(2046), np.arange(-1022, 1024))
    subnormals = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    integral = np.concatenate((np.arange(-1000.0, 1001.0), np.rint(rng.normal(size=500) * 1e12)))
    edges = []
    for edge in (1e-5, 1e16, 1e17, 2.0**53):
        below = above = edge
        for _ in range(50):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            edges += [below, above]
        edges += [edge, 0.5 * edge, 9.5 * edge, edge + 2.0 * edge * rng.random()]
    edges += [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]
    edges += [1.0 / 3.0, math.pi, 1e-300, -7.25, 6.0221408e23, 12345678901234568.0]
    return np.concatenate((values, binades, -binades, subnormals, integral, edges))


def test_fmt_sig_round_trips_doubles():
    for v in _fmt_sig_inputs().tolist():
        text = fmt_sig(v)
        # bit for bit, so the sign of a zero counts
        assert np.float64(float(text)).tobytes() == np.float64(v).tobytes(), text
        assert text == repr(v).removesuffix(".0")
        # repr's digits are never more than %.17g's; in [1e16, 1e17),
        # where %.17g prints an integer and repr an exponent, neither is its layout
        sig17 = format(v, ".17g")
        if 1e16 <= abs(v) < 1e17:
            mantissa = text.partition("e")[0].lstrip("-").replace(".", "")
            assert len(mantissa) <= len(sig17.lstrip("-")), (text, sig17)
        else:
            assert len(text) <= len(sig17), (text, sig17)
    for v, text in [(1.0, "1"), (0.5, "0.5"), (0.07, "0.07"), (39.4, "39.4"), (5e-324, "5e-324"),
                    (1e16, "1e+16")]:
        assert fmt_sig(v) == text
    for v in (0.0, -0.0, 9.0, 10.0, math.inf, -math.inf, math.nan):
        assert fmt_sig(v) == format(v, ".17g")


def test_timeseries_header_layout():
    assert timeseries_header(2, 2, full=False) == ["t", "S_v", "S_x", "min_dist_sq"]
    assert timeseries_header(2, 2, full=True) == [
        "t",
        "S_v",
        "S_x",
        "min_dist_sq",
        "v_1_1",
        "v_1_2",
        "v_2_1",
        "v_2_2",
        "x_1_1",
        "x_1_2",
        "x_2_1",
        "x_2_2",
    ]


def test_timeseries_csv_uses_crlf_rows(tmp_path, small_traj):
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, small_traj, full=False)
    raw = path.read_bytes()
    assert raw.count(b"\r\n") == 8  # header + 7 samples
    assert b"\n" not in raw.replace(b"\r\n", b"")


def test_timeseries_round_trip_is_exact(tmp_path, small_traj):
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, small_traj, full=True)
    data = read_timeseries_csv(path)
    np.testing.assert_array_equal(data["ts"], small_traj.ts)
    np.testing.assert_array_equal(data["spread_v"], small_traj.spread_v)
    np.testing.assert_array_equal(data["spread_x"], small_traj.spread_x)
    np.testing.assert_array_equal(data["min_dist_sq"], small_traj.min_dist_sq)
    np.testing.assert_array_equal(data["xs"], small_traj.xs)
    np.testing.assert_array_equal(data["vs"], small_traj.vs)


def _edge_traj(n: int) -> Trajectory:
    """Values that stress a float formatter: -0.0, subnormals, 1e308."""
    k, r = 4, 2
    edges = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1.0 / 3.0, -1.5e-7])
    xs = np.resize(edges, (k, n, r))
    vs = np.resize(np.append(edges, 1e308), (k, n, r))
    if n > 1:
        xs[:, 1:, 0] += np.arange(1, n)  # keep pairs apart so min_dist_sq is finite
    ts = np.array([0.0, 5e-324, 0.1, 1e308])
    return Trajectory(
        ts=ts,
        xs=xs,
        vs=vs,
        termination=Completed(),
        n_accepted=3,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=0.25),
    )


def _csv_writer_reference(path, traj: Trajectory, full: bool) -> None:
    """Cell-by-cell writer: csv.writer rows of fmt_sig strings."""
    k, n, r = traj.xs.shape
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(timeseries_header(n, r, full))
        for row in range(k):
            cols = [traj.ts, traj.spread_v, traj.spread_x, traj.min_dist_sq]
            rec = [fmt_sig(col[row]) for col in cols]
            if full:
                rec += [fmt_sig(val) for val in traj.vs[row].ravel()]
                rec += [fmt_sig(val) for val in traj.xs[row].ravel()]
            writer.writerow(rec)


@pytest.mark.parametrize("full", [False, True], ids=["summary", "full"])
@pytest.mark.parametrize("n", [1, 3])
def test_timeseries_csv_bytes_match_cell_writer(tmp_path, n, full):
    traj = _edge_traj(n)
    assert math.isinf(traj.min_dist_sq[0]) == (n == 1)
    write_timeseries_csv(tmp_path / "rows.csv", traj, full=full)
    _csv_writer_reference(tmp_path / "cells.csv", traj, full=full)
    raw = (tmp_path / "rows.csv").read_bytes()
    assert raw == (tmp_path / "cells.csv").read_bytes()
    if full:
        assert b",-0," in raw and b"5e-324" in raw and b"e+308" in raw


@pytest.mark.parametrize("n", [1, 3])
def test_timeseries_round_trip_keeps_edge_values(tmp_path, n):
    traj = _edge_traj(n)
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, traj, full=True)
    data = read_timeseries_csv(path)
    # byte comparison: assert_array_equal would not tell -0.0 from 0.0
    for key, want in [
        ("ts", traj.ts),
        ("spread_v", traj.spread_v),
        ("spread_x", traj.spread_x),
        ("min_dist_sq", traj.min_dist_sq),
        ("xs", traj.xs),
        ("vs", traj.vs),
    ]:
        assert data[key].shape == want.shape
        assert data[key].tobytes() == want.tobytes(), key


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "no data rows"),
        ("t,S_v,S_x,min_dist_sq\r\n", "no data rows"),
        ("t,S_x,S_v,min_dist_sq\r\n0,1,2,3\r\n", "unexpected header"),
        ("t,S_v,S_x,min_dist_sq\r\n0,1,2,3\r\n0.1,1,2\r\n", None),
        ("t,S_v,S_x,min_dist_sq\r\n0,1,2,3\r\n0.1,1,x,3\r\n", None),
        ("t,S_v,S_x,min_dist_sq,v_1_1,x_1_1\r\n0,1,2,3\r\n", "rows of 4 values under 6 columns"),
    ],
    ids=["empty", "header_only", "bad_header", "ragged_row", "non_numeric", "narrow_rows"],
)
def test_timeseries_read_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "ts.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError, match=message):
        read_timeseries_csv(path)


def _large_state_traj(k: int = 200, n: int = 400, r: int = 3) -> Trajectory:
    rng = np.random.default_rng(9)
    return Trajectory(
        ts=np.linspace(0.0, 1.0, k),
        xs=rng.normal(size=(k, n, r)) * 10.0,
        vs=rng.normal(size=(k, n, r)),
        termination=Completed(),
        n_accepted=k - 1,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=1.0 / (k - 1)),
    )


def _traced(fn):
    """(fn's result, the tracemalloc peak of its call)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_min_dist_sq_holds_one_pass_budget_beyond_its_result():
    # 200 samples of 400 agents in 3 dimensions are 1.8 MiB of positions;
    # a transposed copy of them all would exceed the budget by itself
    traj = _large_state_traj()
    got, peak = _traced(lambda: traj.min_dist_sq)
    assert got.shape == (200,) and peak - got.nbytes <= PASS_BYTES


def test_csv_writer_and_reader_hold_one_pass_budget_beyond_their_results(tmp_path):
    # the full table is 200 rows of 2404 values, 3.7 MiB; the folds are
    # read first, so the writer's peak is its own
    traj = _large_state_traj()
    _ = traj.spread_v, traj.spread_x, traj.min_dist_sq
    path = tmp_path / "ts.csv"
    _, peak = _traced(lambda: write_timeseries_csv(path, traj, full=True))
    assert peak <= PASS_BYTES
    data, peak = _traced(lambda: read_timeseries_csv(path))
    table = data["xs"].base
    assert table.shape == (200, 2404) and all(np.shares_memory(v, table) for v in data.values())
    assert peak - table.nbytes <= PASS_BYTES
    assert data["xs"].tobytes() == traj.xs.tobytes() and data["vs"].tobytes() == traj.vs.tobytes()


def test_csv_round_trip_holds_over_many_slices(tmp_path, monkeypatch, small_traj):
    # a budget of 200 bytes writes and reads one row per slice
    monkeypatch.setattr(artifacts, "PASS_BYTES", 200)
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, small_traj, full=True)
    monkeypatch.undo()
    write_timeseries_csv(tmp_path / "whole.csv", small_traj, full=True)
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    monkeypatch.setattr(artifacts, "PASS_BYTES", 200)
    data = read_timeseries_csv(path)
    assert data["xs"].tobytes() == small_traj.xs.tobytes()
    assert data["ts"].tobytes() == small_traj.ts.tobytes()


def test_summary_csv_has_no_state_columns(tmp_path, small_traj):
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, small_traj, full=False)
    data = read_timeseries_csv(path)
    assert "xs" not in data and "vs" not in data


def test_trajectory_rebuild_requires_full_state(tmp_path, small_traj):
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, small_traj, full=False)
    with pytest.raises(ValueError, match="full"):
        trajectory_from_artifacts(path, small_traj.cfg, Completed())


def test_trajectory_rebuild_matches_source(tmp_path, small_traj):
    path = tmp_path / "ts.csv"
    write_timeseries_csv(path, small_traj, full=True)
    rebuilt = trajectory_from_artifacts(path, small_traj.cfg, Completed())
    np.testing.assert_array_equal(rebuilt.xs, small_traj.xs)
    np.testing.assert_array_equal(rebuilt.vs, small_traj.vs)
    np.testing.assert_array_equal(rebuilt.spread_v, small_traj.spread_v)
    # an audit reads no step counts: the CSV holds none
    assert rebuilt.n_accepted == rebuilt.n_rejected == 0


def test_termination_documents_round_trip():
    cases = [
        Completed(),
        CollisionEvent(t_star=0.1875, i=0, j=1),
        StepSizeUnderflow(t=2.5),
    ]
    for term in cases:
        assert termination_from_doc(termination_to_doc(term)) == term
    assert termination_to_doc(Completed()) == {"kind": "completed"}
    with pytest.raises(ValueError):
        termination_from_doc({"kind": "exploded"})


def test_termination_documents_keep_field_order():
    # no bundled run ends in a collision or an underflow, so the artifact
    # digests never see these two documents
    collision = termination_to_doc(CollisionEvent(t_star=0.1875, i=0, j=1))
    assert list(collision.items()) == [("kind", "collision"), ("t_star", 0.1875), ("i", 0), ("j", 1)]
    assert str(collision) == "{'kind': 'collision', 't_star': 0.1875, 'i': 0, 'j': 1}"
    underflow = termination_to_doc(StepSizeUnderflow(t=2.5))
    assert list(underflow.items()) == [("kind", "underflow"), ("t", 2.5)]
    assert str(underflow) == "{'kind': 'underflow', 't': 2.5}"
    with pytest.raises(KeyError):
        termination_from_doc({"kind": "underflow"})


def test_manifest_round_trip_and_stability(tmp_path):
    manifest = {
        "scenario": {"seed": 7},
        "scenario_sha256": "ab" * 32,
        "run": {"termination": {"kind": "completed"}, "rows": 41},
        "certificate": {"k_bound": 0.4621171572600098, "k_source": "trajectory"},
    }
    path = tmp_path / "manifest.json"
    write_manifest(path, manifest)
    assert read_manifest(path) == manifest
    first = path.read_bytes()
    write_manifest(path, manifest)
    assert path.read_bytes() == first
    assert first.endswith(b"}\n")
    # key order in the source dict must not leak into the bytes
    write_manifest(path, dict(reversed(list(manifest.items()))))
    assert path.read_bytes() == first


@pytest.mark.parametrize(
    "manifest,field",
    [([], "must hold a JSON object"), ({"run": []}, "run:"), ({"certificate": [1]}, "certificate:")],
)
def test_read_manifest_names_a_block_that_is_no_object(manifest, field, tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        read_manifest(path)


@pytest.mark.parametrize("doc", [["completed"], "completed", {"kind": ["completed"]}])
def test_termination_from_doc_rejects_what_is_no_termination(doc):
    with pytest.raises(ValueError):
        termination_from_doc(doc)


def test_manifest_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "m.json", {"bad": math.inf})


def test_certificate_report_formatting():
    env = ConstantCoupling(w=0.1).envelope()
    cert = certify_sync(env, 2.0, 0.1, n=2, k_bound=10.0)
    report = certificate_report(cert)
    lines = report.splitlines()
    assert lines[0] == "certificate: sync"
    assert "feasible: false" in lines
    assert "d_star: none" in lines
    assert "k_source: user" in lines
    assert report.endswith("\n")

    std = certificate_report(certify_standard(env, 0.0, 0.5))
    assert std.splitlines()[0] == "certificate: standard"
    assert "feasible: true" in std  # constant coupling has a divergent tail
    assert "tail: inf" in std


def test_certificate_fields_flatten_for_csv():
    env = ConstantCoupling(w=1.0).envelope()
    cert = certify_sync(env, 1.0, 0.4, n=5, k_bound=0.462)
    fields = certificate_fields(cert)
    assert fields["certificate"] == "sync"
    assert fields["feasible"] is True
    assert fields["epsilon"] == cert.epsilon
    assert set(fields) > {"d_star", "d_max", "k_bound", "relaxed"}


def _certificate_of_each_kind():
    env = ConstantCoupling(w=1.0).envelope()
    rep = RepulsionModel(d0=0.25, phi=1.5, coeffs=np.ones((2, 2)))
    return [
        ("sync", certify_sync(env, 1.0, 0.4, n=5, k_bound=0.462)),
        ("collision", certify_collision(env, rep, np.array([[0.0], [3.0]]), 0.1, 2)),
        ("standard", certify_standard(env, 0.0, 0.5)),
    ]


@pytest.mark.parametrize("label", ["sync", "collision", "standard"])
def test_certificate_label_of_each_kind(label):
    cert = dict(_certificate_of_each_kind())[label]
    assert certificate_fields(cert)["certificate"] == label
    assert certificate_report(cert).splitlines()[0] == f"certificate: {label}"
    # the label is not a field: reports, manifests and sweep columns keep theirs
    names = [fld.name for fld in dataclasses.fields(cert)]
    assert "kind" not in names
    assert list(certificate_fields(cert)) == ["certificate", *names]


def _parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


_PATH_DATA = re.compile(r"M-?\d+ -?\d+(l-?\d+( ?-?\d+)*)?")


def _decode_path(d: str) -> np.ndarray:
    """The (m, 2) integer vertices, in hundredths of a pixel, of a series path's data."""
    assert _PATH_DATA.fullmatch(d), d
    steps = np.array([int(v) for v in re.findall(r"-?\d+", d)]).reshape(-1, 2)
    return np.cumsum(steps, axis=0)


def _series(text: str) -> list[np.ndarray]:
    """Each series path's vertices, in drawing order."""
    return [_decode_path(el.attrib["d"]) for el in _parse_svg(text).iter() if el.tag.endswith("path")]


def test_svg_render_is_valid_and_deterministic():
    plot = SvgPlot("spread", "t", "S(v)", log_y=True)
    t = np.linspace(0.0, 5.0, 50)
    plot.add_series("S(v)", t, np.exp(-t))
    plot.add_hline("floor", 1e-3)
    first = plot.render()
    assert first == plot.render()
    assert first.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert first.endswith("</svg>\n")
    root = _parse_svg(first)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"


def test_svg_escapes_labels():
    plot = SvgPlot("a < b & c", "t", "y")
    plot.add_series("s<1>&", np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    text = plot.render()
    _parse_svg(text)
    assert "a &lt; b &amp; c" in text


def test_svg_log_axis_clips_zeros():
    plot = SvgPlot("spread", "t", "S(v)", log_y=True)
    plot.add_series("S(v)", np.array([0.0, 1.0, 2.0]), np.array([1.0, 1e-20, 0.0]))
    _parse_svg(plot.render())


def _hundredths(px) -> list[int]:
    """Pixel coordinates as "%.2f" prints them, in hundredths."""
    return [int(format(float(v), ".2f").replace(".", "")) for v in px]


def _vertex_samples(pts: np.ndarray, px) -> np.ndarray:
    """The index of the printed point that each path vertex is.

    px are the printed x, which must increase strictly; each vertex must
    lie at a printed x, and the vertices must keep the points' order.
    """
    px = np.asarray(px)
    at = np.searchsorted(px, pts[:, 0])
    assert (at < len(px)).all() and px[at].tolist() == pts[:, 0].tolist()
    assert (np.diff(at) > 0).all()
    return at


def _strays(points, vertices) -> list:
    """The points farther than 100/9 hundredths from every segment of the polyline.

    Exact in Python integers: a point at u from a segment's start a, whose
    end b lies d from a, is within 100/9 of it when 81 |u|^2 <= 10000 for
    u.d <= 0, when 81 |u - d|^2 <= 10000 for u.d >= |d|^2, and when
    81 (d x u)^2 <= 10000 |d|^2 in between.  A lone vertex is a segment of
    length 0.
    """
    verts = [tuple(map(int, v)) for v in vertices]
    segments = list(zip(verts, verts[1:])) or [(verts[0], verts[0])]
    out = []
    for px, py in (tuple(map(int, p)) for p in points):
        for (ax, ay), (bx, by) in segments:
            dx, dy, ux, uy = bx - ax, by - ay, px - ax, py - ay
            t, size = ux * dx + uy * dy, dx * dx + dy * dy
            if t <= 0:
                near = 81 * (ux * ux + uy * uy) <= 10_000
            elif t >= size:
                near = 81 * ((px - bx) ** 2 + (py - by) ** 2) <= 10_000
            else:
                near = 81 * (dx * uy - dy * ux) ** 2 <= 10_000 * size
            if near:
                break
        else:
            out.append((px, py))
    return out


def _check_path(points: np.ndarray, d: str) -> None:
    """The path rule, checked for the (m, 2) integer points that path data d draws."""
    verts = _decode_path(d).tolist()
    pts = points.tolist()
    # the vertices are an ordered subsequence of the points, the first and the last among them
    assert verts[0] == pts[0] and verts[-1] == pts[-1]
    rest = iter(pts)
    assert all(v in rest for v in verts)
    # the lowest and highest points are vertices
    assert pts[int(points[:, 1].argmin())] in verts and pts[int(points[:, 1].argmax())] in verts
    # every point lies within 1/9 px of the drawn line
    assert _strays(pts, verts) == []
    # no vertex goes straight on
    steps = np.diff(verts, axis=0).tolist()
    for (dx, dy), (ex, ey) in zip(steps, steps[1:]):
        assert not (dx * ey == dy * ex and dx * ex + dy * ey > 0), d


def test_svg_path_vertices_are_the_printed_hundredths():
    # t = 0.05 k maps to 70 + 0.5125 k px: every other sample is a decimal
    # tie, where 100 px can round to .5 on the other side of px's own value
    t = np.linspace(0.0, 40.0, 801)
    y = np.sin(t)
    plot = SvgPlot("ties", "t", "y")
    plot.add_series("sin", t, y)
    (d,) = [el.attrib["d"] for el in _parse_svg(plot.render()).iter() if el.tag.endswith("path")]
    lo, hi = y.min() - 0.05 * (y.max() - y.min()), y.max() + 0.05 * (y.max() - y.min())
    px = np.array(_hundredths(70 + (t - 0.0) / (40.0 - 0.0) * 410))
    py = np.array(_hundredths(42 + (hi - y) / (hi - lo) * 330))
    # every vertex is a printed point, in order, the first and the last among them
    pts = _decode_path(d)
    at = _vertex_samples(pts, px)
    assert at[0] == 0 and at[-1] == len(px) - 1
    assert pts[:, 1].tolist() == py[at].tolist()
    # the lowest and highest printed points are vertices, and every printed
    # point lies within 1/9 px of the drawn line
    _check_path(np.column_stack((px, py)), d)
    assert len(pts) < len(px)  # some points were dropped


def test_a_sine_sampled_finer_than_a_pixel_keeps_fewer_than_half_its_points():
    # 1,001 samples 0.41 px apart, few of them where the line runs straight on
    t = np.linspace(0.0, 40.0, 1001)
    plot = SvgPlot("sin", "t", "y")
    plot.add_series("sin", t, np.sin(t))
    (pts,) = _series(plot.render())
    assert len(pts) < 1001 // 2


def _random_series(rng: np.random.Generator, pieces: int) -> np.ndarray:
    """(m, 2) integer points, drawn as runs of steps that the path rule must handle.

    Flat runs, spikes, steps of 0 and +-1, repeated points, doublings back
    by 5, 11, 12 and 40 hundredths (100/9 lies between 11 and 12), and
    points 11 or 12 hundredths off the chord between their neighbours: the
    nearest integer distances on either side of 100/9, since no integer
    point lies exactly 100/9 from a segment between integer points.
    """
    steps = [(0, 0)]
    for _ in range(pieces):
        kind = rng.integers(6)
        sign = int(rng.choice([-1, 1]))
        if kind == 0:  # a flat run
            steps += [(1, 0)] * int(rng.integers(2, 8))
        elif kind == 1:  # a spike
            h = sign * int(rng.integers(5, 60))
            steps += [(1, h), (1, -h)]
        elif kind == 2:  # steps of 0 and +-1
            steps += rng.integers(-1, 2, (int(rng.integers(2, 10)), 2)).tolist()
        elif kind == 3:  # repeated points
            steps += [(0, 0)] * int(rng.integers(1, 3))
        elif kind == 4:  # doubling back
            back = sign * int(rng.choice([5, 11, 12, 40]))
            steps += [(back, 0), (-back, 0)]
        else:  # a point just inside or just beyond 100/9 of its chord
            off = sign * int(rng.choice([11, 12]))
            steps += [(10, off), (10, -off)]
    return 5_000 + np.cumsum(np.array(steps, dtype=np.int64), axis=0)


def _reference_kept(points: np.ndarray) -> list[bool]:
    """Douglas-Peucker one segment at a time, in Python integers: the kept mask.

    The first, last, lowest and highest points (the first of tied ones)
    start it; a segment's first farthest interior point is kept while it
    lies more than 100/9 from the segment, compared as dist^2 = key / L.
    """
    pts = [tuple(p) for p in points.tolist()]
    ys = [p[1] for p in pts]
    keep = [False] * len(pts)
    for i in (0, len(pts) - 1, ys.index(min(ys)), ys.index(max(ys))):
        keep[i] = True
    kept = [i for i, k in enumerate(keep) if k]
    todo = list(zip(kept, kept[1:]))
    while todo:
        lo, hi = todo.pop()
        (ax, ay), (bx, by) = pts[lo], pts[hi]
        size = (bx - ax) ** 2 + (by - ay) ** 2
        best, far = -1, None
        for i in range(lo + 1, hi):
            px, py = pts[i]
            t = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
            if size == 0 or t <= 0:
                key = ((px - ax) ** 2 + (py - ay) ** 2) * max(size, 1)
            elif t >= size:
                key = ((px - bx) ** 2 + (py - by) ** 2) * size
            else:
                key = ((bx - ax) * (py - ay) - (by - ay) * (px - ax)) ** 2
            if key > best:
                best, far = key, i
        if far is not None and 81 * best > 10_000 * max(size, 1):
            keep[far] = True
            todo += [(lo, far), (far, hi)]
    return keep


@pytest.mark.parametrize("seed", range(40))
def test_path_data_keeps_every_printed_point_within_a_ninth_of_a_pixel(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    points = _random_series(rng, int(rng.integers(1, 60)))
    if seed % 2:  # x that runs both ways
        points[:, 0] = 5_000 + np.cumsum(rng.integers(-3, 4, len(points)))
    px, py = points.T / 100.0
    (d,) = artifacts._path_data([(px, py)])
    _check_path(points, d)
    assert artifacts._simplified(*points.T, [0, len(points)]).tolist() == _reference_kept(points)
    assert artifacts._path_data([(px, py)]) == [d]
    # blocks of eight points, whose segments and ties run across blocks
    monkeypatch.setattr(artifacts, "PASS_BYTES", 8192)
    assert artifacts._path_data([(px, py)]) == [d]


@pytest.mark.parametrize("seed", range(8))
def test_path_data_simplifies_a_plots_lines_at_once_as_each_alone(seed, monkeypatch):
    # lines that cross one another's range, a one-point line and a two-point
    # one: one line's ends and extremes must not split another's segments
    rng = np.random.default_rng(100 + seed)
    lines = [_random_series(rng, int(rng.integers(1, 30))) for _ in range(int(rng.integers(2, 7)))]
    lines.insert(int(rng.integers(len(lines) + 1)), lines[0][:1])
    lines.append(lines[-1][:2])
    points = np.concatenate(lines)
    bounds = np.cumsum([0] + [len(line) for line in lines]).tolist()
    kept = [k for line in lines for k in _reference_kept(line)]
    assert artifacts._simplified(*points.T, bounds).tolist() == kept
    pixels = [(line[:, 0] / 100.0, line[:, 1] / 100.0) for line in lines]
    paths = artifacts._path_data(pixels)
    for line, d in zip(lines, paths):
        _check_path(line, d)
    assert paths == [artifacts._path_data([xy])[0] for xy in pixels]
    monkeypatch.setattr(artifacts, "PASS_BYTES", 8192)  # blocks of eight points
    assert artifacts._path_data(pixels) == paths
    # a line that runs straight on into the next keeps its last vertex
    run = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert artifacts._path_data([(run[:3], run[:3]), (run[3:], run[3:])]) == ["M0 0l200 200", "M300 300l100 100"]


def test_path_simplification_holds_one_pass_budget(monkeypatch):
    # one segment over 200,000 points: all at once, its temporaries would be 20 MiB
    x = np.arange(200_000) // 5
    y = np.rint(10_000 * np.sin(x / 2_000)).astype(np.int64)
    lo, hi = np.array([0]), np.array([len(x) - 1])
    far, peak = _traced(lambda: artifacts._farthest(x, y, lo, hi))
    assert peak <= PASS_BYTES
    monkeypatch.setattr(artifacts, "PASS_BYTES", 2**30)  # in one block
    assert artifacts._farthest(x, y, lo, hi).tolist() == far.tolist()


@pytest.mark.parametrize(
    "px, py, d",
    [
        pytest.param([0, 1, 2, 3, 4], [5, 5, 5, 5, 5], "M0 500l400 0", id="flat-run-keeps-its-ends"),
        pytest.param([0, 1, 2, 1, 0], [0, 0, 0, 0, 0], "M0 0l200 0-200 0", id="doubling-back-keeps-its-turn"),
        pytest.param([0, 0.05, 0], [0, 0, 0], "M0 0l0 0", id="doubling-back-within-a-ninth-goes"),
        pytest.param([0, 0.12, 0], [0, 0, 0], "M0 0l12 0-12 0", id="doubling-back-beyond-a-ninth-stays"),
        pytest.param([0, 0.11, 0], [0, 5, 10], "M0 0l0 1000", id="a-point-11-off-its-chord-goes"),
        pytest.param([0, 0.12, 0], [0, 5, 10], "M0 0l12 500-12 500", id="a-point-12-off-its-chord-stays"),
        # the repeat on the line goes; the repeated last point is an end, and stays
        pytest.param([0, 1, 1, 2, 2], [0, 1, 1, 2, 2], "M0 0l200 200 0 0", id="repeated-point-stays"),
        pytest.param([0, 1, 2, 3], [0, 1, 1, 2], "M0 0l100 100 100 0 100 100", id="turns-stay"),
    ],
)
def test_path_data_keeps_the_ends_turns_and_points_beyond_a_ninth(px, py, d):
    assert artifacts._path_data([(np.array(px, dtype=float), np.array(py, dtype=float))]) == [d]
    assert _PATH_DATA.fullmatch(d)


@pytest.mark.parametrize("pass_bytes", [PASS_BYTES, 8192], ids=["default-blocks", "blocks-of-eight"])
def test_path_data_keeps_no_vertex_where_a_line_goes_straight_on(pass_bytes, monkeypatch):
    # lines of runs of one step each, the steps drawn from a small set, so
    # plateaus, collinear runs and tied extremes are common; at 8192 bytes
    # `_farthest` takes blocks of eight points, whose ties run across blocks
    monkeypatch.setattr(artifacts, "PASS_BYTES", pass_bytes)
    rng = np.random.default_rng(17)
    directions = np.array([(1, 0), (1, 1), (1, -1), (2, 1), (0, 1), (-1, 0), (0, 0)])
    for _ in range(300):
        lines = []
        for _ in range(int(rng.integers(2, 6))):
            picks = rng.integers(len(directions), size=int(rng.integers(1, 12)))
            runs = np.repeat(picks, rng.integers(1, 7, size=len(picks)))
            steps = directions[runs] * int(rng.choice([6, 12, 25]))
            points = np.cumsum(np.vstack(([5_000, 5_000], steps)), axis=0)
            lines.append((points[:, 0] / 100.0, points[:, 1] / 100.0))
        for d in artifacts._path_data(lines):
            steps = np.diff(_decode_path(d), axis=0).tolist()
            for (dx, dy), (ex, ey) in zip(steps, steps[1:]):
                assert not (dx * ey == dy * ex and dx * ex + dy * ey > 0), d


def test_a_converged_flock_plots_its_pair_distances_in_few_bytes(tmp_path):
    # example3_strong aligns: its pair distances settle, and their lines run
    # straight on (55 KB when every sample was a vertex)
    sc = load_scenario((files("flocklab") / "scenarios" / "example3_strong.json").read_text())
    path = tmp_path / "d.svg"
    traj = integrate(sc.spec, sc.state0, sc.integrator)
    plot_pairwise_distances(path, traj, d0=sc.spec.repulsion.d0)
    assert len(_series(path.read_text(encoding="utf-8"))) == 10
    assert path.stat().st_size < 10_000


def test_svg_one_point_series_is_a_lone_moveto():
    plot = SvgPlot("point", "t", "y")
    plot.add_series("p", np.array([3.0]), np.array([2.0]))
    (path,) = [el for el in _parse_svg(plot.render()).iter() if el.tag.endswith("path")]
    assert path.attrib["d"] == "M7000 20700"  # the left edge, halfway up the frame


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_svg_refuses_non_finite_values(tmp_path, bad):
    plot = SvgPlot("velocity spread", "t", "S(v)", log_y=True)
    plot.add_series("S(v)", np.arange(3.0), np.ones(3))
    plot.add_series("certified bound", np.arange(3.0), np.array([1.0, bad, 0.5]))
    with pytest.raises(ValueError, match="'velocity spread'.*'certified bound'"):
        plot.write(tmp_path / "s.svg")
    assert not (tmp_path / "s.svg").exists()


def test_plot_writers_produce_parseable_files(tmp_path, small_traj):
    p1 = tmp_path / "v.svg"
    p2 = tmp_path / "d.svg"
    p3 = tmp_path / "s.svg"
    plot_velocity_components(p1, small_traj)
    plot_pairwise_distances(p2, small_traj, d0=0.25)
    plot_spread_v(p3, small_traj, bound=lambda t: np.exp(-t))
    for p in (p1, p2, p3):
        root = _parse_svg(p.read_text(encoding="utf-8"))
        assert root.attrib["width"] == "640"
    assert "sqrt(d0)" in p2.read_text(encoding="utf-8")


def test_plot_thinning_caps_point_count(tmp_path):
    k = 5000
    ts = np.linspace(0.0, 1.0, k)
    traj = Trajectory(
        ts=ts,
        xs=np.zeros((k, 1, 1)),
        vs=np.sin(ts)[:, None, None],
        termination=Completed(),
        n_accepted=k - 1,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=1.0, sample_dt=1.0 / (k - 1)),
    )
    path = tmp_path / "v.svg"
    plot_velocity_components(path, traj)
    text = path.read_text(encoding="utf-8")
    (pts,) = _series(text)
    assert len(pts) <= 2000


def _random_flock(n: int, k: int = 201) -> Trajectory:
    rng = np.random.default_rng(n)
    ts = np.linspace(0.0, 2.0, k)
    xs = rng.normal(size=(1, n, 2)) * 5.0 + np.cumsum(rng.normal(size=(k, n, 2)) * 0.05, axis=0)
    return Trajectory(
        ts=ts,
        xs=xs,
        vs=np.zeros((k, n, 2)),
        termination=Completed(),
        n_accepted=k - 1,
        n_rejected=0,
        cfg=IntegratorConfig(t_end=2.0, sample_dt=0.01),
    )


def _legend(text: str) -> list[str]:
    """Series labels; the y-axis label is spaced as "|x_i - x_j|"."""
    return [el.text for el in _parse_svg(text).iter() if el.tag.endswith("text") and "-x_" in el.text]


def test_pairwise_plot_draws_each_pair_while_pairs_fit_the_palette(tmp_path):
    path = tmp_path / "d.svg"
    plot_pairwise_distances(path, _random_flock(5), d0=0.25)
    text = path.read_text(encoding="utf-8")
    assert len(_series(text)) == 10
    labels = [f"|x_{i + 1}-x_{j + 1}|" for i in range(5) for j in range(i + 1, 5)]
    assert _legend(text) == labels


def test_pairwise_plot_draws_bands_beyond_the_palette(tmp_path):
    traj = _random_flock(6)
    path = tmp_path / "d.svg"
    plot_pairwise_distances(path, traj, d0=0.25)
    text = path.read_text(encoding="utf-8")
    assert len(_series(text)) == 3
    assert _legend(text) == ["min |x_i-x_j|", "median |x_i-x_j|", "max |x_i-x_j|"]
    assert text.count('stroke-dasharray="6,3"') == 2  # sqrt(d0) line and its legend
    assert "sqrt(d0)" in text

    # the min band is the smallest pair distance of each sample: its lowest
    # and highest printed points are vertices, drawn at the samples where
    # that distance is largest and smallest
    pts = _series(text)[0]
    at = _vertex_samples(pts, _hundredths(70 + traj.ts / 2.0 * 410))
    dist = np.sqrt(traj.min_dist_sq)
    assert at[np.argmax(pts[:, 1])] == np.argmin(dist) and at[np.argmin(pts[:, 1])] == np.argmax(dist)


def test_pairwise_plot_stays_small_for_large_flocks(tmp_path):
    path = tmp_path / "d.svg"
    plot_pairwise_distances(path, _random_flock(60), d0=0.25)
    assert path.stat().st_size < 100_000


def _reference_bands(xs: np.ndarray) -> np.ndarray:
    """Min, median and max pair distance per sample, from all (r, k, P) differences at once."""
    iu, ju = np.triu_indices(xs.shape[1], k=1)
    diff = (xs[:, iu, :] - xs[:, ju, :]).transpose(2, 0, 1)
    dist = np.sqrt(pair_dot(diff, diff))
    return np.array([dist.min(axis=1), np.median(dist, axis=1), dist.max(axis=1)])


@pytest.mark.parametrize("n", [6, 7, 8, 50])  # 15, 21, 28 and 1225 pairs
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_pair_distance_bands_match_the_reference_bit_for_bit(n, r):
    rng = np.random.default_rng(10 * n + r)
    # at n = 50 a chunk holds 26 samples, so 60 samples take three chunks
    xs = rng.normal(size=(60, n, r)) * math.pi
    assert np.array_equal(artifacts._pair_distance_bands(xs), _reference_bands(xs))


def test_pair_distance_bands_hold_one_pass_budget_beyond_one_sample():
    # at n = 400 one sample's 79,800 pair distances are 0.6 MiB; two gathers
    # and a difference of all its pairs at once would add 1.8 MiB more
    xs = _large_state_traj().xs[::50]
    got, peak = _traced(lambda: artifacts._pair_distance_bands(xs))
    assert peak - 400 * 399 // 2 * xs.itemsize <= PASS_BYTES
    assert np.array_equal(got, _reference_bands(xs))


def _degenerate_samples(kind: str) -> np.ndarray:
    xs = np.random.default_rng(4).normal(size=(5, 9, 2))
    if kind == "lattice":  # 9 agents on a 3 x 3 grid: many tied distances
        xs[:] = np.indices((3, 3)).reshape(2, 9).T * 0.7
    elif kind == "collapsed":
        xs[:] = 0.0
    else:
        xs[2, 4, 1] = np.nan
    return xs


@pytest.mark.parametrize("kind", ["lattice", "collapsed", "nan"])
def test_pair_distance_bands_match_the_reference_on_degenerate_samples(kind):
    xs = _degenerate_samples(kind)
    got = artifacts._pair_distance_bands(xs)
    assert np.array_equal(got, _reference_bands(xs), equal_nan=True)
    assert np.isnan(got[:, 2]).all() == (kind == "nan")


def _median_reference(vs: np.ndarray) -> np.ndarray:
    return np.array([vs.min(axis=1), np.median(vs, axis=1), vs.max(axis=1)])


@pytest.mark.parametrize("n", [6, 7])  # an even and an odd number of agents
@pytest.mark.parametrize("kind", ["random", "ties", "nan"])
def test_agent_bands_equal_min_median_and_max_bit_for_bit(monkeypatch, n, kind):
    # a budget of 1 KiB cuts the 40 samples into chunks of 3 or 4
    monkeypatch.setattr(artifacts, "PASS_BYTES", 1024)
    rng = np.random.default_rng(n)
    vs = rng.normal(size=(40, n, 2)) * math.pi
    if kind == "ties":
        vs = np.round(vs) + 0.25  # few distinct values per sample, none of them zero
        vs[5] = 1.5
    elif kind == "nan":
        vs[[4, 17], 2, 1] = np.nan
        vs[30, 0, 0] = np.inf
        vs[31, :, 1] = -np.inf
    assert artifacts._agent_bands(vs).tobytes() == _median_reference(vs).tobytes()
    idx = np.arange(0, 40, 3)
    assert artifacts._agent_bands(vs, idx).tobytes() == _median_reference(vs[idx]).tobytes()


def test_agent_bands_of_signed_zeros_equal_the_reference_in_value():
    # tied zeros of both signs: the median keeps np.median's bits (its mean
    # makes them +0.0), min and max may differ from it only in a zero's sign
    vs = np.random.default_rng(2).choice([-0.0, 0.0, 1.0, -1.0], size=(30, 7, 3))
    got, want = artifacts._agent_bands(vs), _median_reference(vs)
    assert got[1].tobytes() == want[1].tobytes()
    assert np.array_equal(got, want)


def test_thinned_samples_are_strictly_increasing_without_np_unique(monkeypatch):
    # np.unique would load numpy.ma, and the thinned plots need no
    # de-duplication: above the cap, the rounded linspace steps by more than 1
    monkeypatch.setattr(np, "unique", None)
    for k in range(2001, 6001):
        idx = artifacts._thin_indices(k)
        assert len(idx) == 2000 and idx[0] == 0 and idx[-1] == k - 1
        assert np.diff(idx).min() >= 1
    assert artifacts._thin_indices(2000) == slice(None)


def test_pairwise_plot_of_a_large_flock_stays_within_a_few_mebibytes(tmp_path):
    traj = _random_flock(50, k=1001)
    tracemalloc.start()
    try:
        plot_pairwise_distances(tmp_path / "d.svg", traj, d0=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (k, P, r) pair differences alone would be 18.7 MiB
    assert peak < 4 * 2**20


def test_unthinned_plots_draw_views_of_the_samples(tmp_path, monkeypatch):
    # up to 2000 samples nothing is thinned, and no plot copies a sample array
    drawn = []
    add_series = SvgPlot.add_series

    def recording(self, label, t, values):
        drawn.append((t, values))
        add_series(self, label, t, values)

    monkeypatch.setattr(SvgPlot, "add_series", recording)
    small, large = _moving_flock(5), _moving_flock(6)
    plot_velocity_components(tmp_path / "v5.svg", small)  # 10 components
    plot_velocity_components(tmp_path / "v6.svg", large)  # 6 bands
    plot_pairwise_distances(tmp_path / "d.svg", large)  # 3 bands
    plot_spread_v(tmp_path / "s.svg", large)
    assert len(drawn) == 20
    assert all(np.shares_memory(t, small.ts) and np.shares_memory(v, small.vs) for t, v in drawn[:10])
    assert all(np.shares_memory(t, large.ts) for t, _ in drawn[10:])
    assert np.shares_memory(drawn[-1][1], large.spread_v)


def _velocity_legend(text: str) -> list[str]:
    return [el.text for el in _parse_svg(text).iter() if el.tag.endswith("text") and "v[" in el.text]


def _moving_flock(n: int, k: int = 201) -> Trajectory:
    vs = np.random.default_rng(n + 1).normal(size=(k, n, 2))
    return dataclasses.replace(_random_flock(n, k), vs=vs)


def test_velocity_plot_draws_each_agent_while_pairs_fit_the_palette(tmp_path):
    path = tmp_path / "v.svg"
    plot_velocity_components(path, _moving_flock(5))
    text = path.read_text(encoding="utf-8")
    assert len(_series(text)) == 10
    assert _velocity_legend(text) == [f"v[{i + 1},{l + 1}]" for i in range(5) for l in range(2)]


def test_velocity_plot_draws_bands_beyond_the_palette(tmp_path):
    traj = _moving_flock(6)
    path = tmp_path / "v.svg"
    plot_velocity_components(path, traj)
    text = path.read_text(encoding="utf-8")
    assert len(_series(text)) == 6
    assert _velocity_legend(text) == [
        f"{band} v[i,{l}]" for l in (1, 2) for band in ("min", "median", "max")
    ]
    # the first band is the smallest first component of each sample: its
    # lowest and highest printed points are vertices, drawn at the samples
    # where that component is largest and smallest
    pts = _series(text)[0]
    at = _vertex_samples(pts, _hundredths(70 + traj.ts / 2.0 * 410))
    lowest = traj.vs[:, :, 0].min(axis=1)
    assert at[np.argmax(pts[:, 1])] == np.argmin(lowest) and at[np.argmin(pts[:, 1])] == np.argmax(lowest)


def test_velocity_plot_of_a_small_flock_stays_small(tmp_path):
    # ten lines of 1,001 noisy samples; absolute "x.xx,y.yy" pairs took 144 KB
    path = tmp_path / "v.svg"
    plot_velocity_components(path, _moving_flock(5, k=1001))
    assert path.stat().st_size < 120_000


def test_velocity_plot_stays_small_for_large_flocks(tmp_path):
    path = tmp_path / "v.svg"
    plot_velocity_components(path, _moving_flock(50, k=1001))
    assert path.stat().st_size < 100_000
    assert len(_velocity_legend(path.read_text(encoding="utf-8"))) == 6
