"""Artifact round-trips: CSV, manifests, certificate reports, SVG plots."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import re
import tracemalloc
import xml.etree.ElementTree as ET

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
)
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


def test_fmt_sig_round_trips_doubles():
    values = [1.0 / 3.0, math.pi, 1e-300, -7.25, 0.1 + 0.2, 6.0221408e23, 0.0]
    for v in values:
        assert float(fmt_sig(v)) == v
    assert fmt_sig(1.0) == "1"
    assert fmt_sig(0.5) == "0.5"


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
        assert b",-0," in raw and b"4.9406564584124654e-324" in raw and b"e+308" in raw


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


def test_svg_path_vertices_are_the_printed_hundredths():
    # t = 0.05 k maps to 70 + 0.5125 k px: every other sample is a decimal
    # tie, where 100 px can round to .5 on the other side of px's own value
    t = np.linspace(0.0, 40.0, 801)
    y = np.sin(t)
    plot = SvgPlot("ties", "t", "y")
    plot.add_series("sin", t, y)
    (pts,) = _series(plot.render())
    lo, hi = y.min() - 0.05 * (y.max() - y.min()), y.max() + 0.05 * (y.max() - y.min())
    assert pts[:, 0].tolist() == _hundredths(70 + (t - 0.0) / (40.0 - 0.0) * 410)
    assert pts[:, 1].tolist() == _hundredths(42 + (hi - y) / (hi - lo) * 330)


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

    # the min band is the smallest pair distance of each sample
    ys = _series(text)[0][:, 1]
    dist = np.sqrt(traj.min_dist_sq)
    assert np.argmax(ys) == np.argmin(dist) and np.argmin(ys) == np.argmax(dist)


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
    # the first band is the smallest first component of each sample
    ys = _series(text)[0][:, 1]
    lowest = traj.vs[:, :, 0].min(axis=1)
    assert np.argmax(ys) == np.argmin(lowest) and np.argmin(ys) == np.argmax(lowest)


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
