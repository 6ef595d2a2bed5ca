"""Artifact round-trips: CSV, manifests, certificate reports, SVG plots."""

from __future__ import annotations

import dataclasses
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

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
from flocklab.certify import certify_standard, certify_sync
from flocklab.coupling import ConstantCoupling, envelope_of
from flocklab.integrate import (
    CollisionEvent,
    Completed,
    IntegratorConfig,
    StepSizeUnderflow,
    Trajectory,
)


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
    rebuilt = trajectory_from_artifacts(
        path, small_traj.cfg, Completed(), stats={"n_accepted": 6, "n_rejected": 1}
    )
    np.testing.assert_array_equal(rebuilt.xs, small_traj.xs)
    np.testing.assert_array_equal(rebuilt.vs, small_traj.vs)
    np.testing.assert_array_equal(rebuilt.spread_v, small_traj.spread_v)
    assert rebuilt.n_accepted == 6 and rebuilt.n_rejected == 1


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


def test_manifest_round_trip_and_stability(tmp_path):
    manifest = {
        "seed": 7,
        "scenario_sha256": "ab" * 32,
        "run": {"termination": {"kind": "completed"}, "rows": 41},
        "resolved": {"k_bound": 0.4621171572600098, "k_source": "trajectory"},
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


def test_manifest_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        write_manifest(tmp_path / "m.json", {"bad": math.inf})


def test_certificate_report_formatting():
    env = envelope_of(ConstantCoupling(w=0.1))
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
    env = envelope_of(ConstantCoupling(w=1.0))
    cert = certify_sync(env, 1.0, 0.4, n=5, k_bound=0.462)
    fields = certificate_fields(cert)
    assert fields["certificate"] == "sync"
    assert fields["feasible"] is True
    assert fields["epsilon"] == cert.epsilon
    assert set(fields) > {"d_star", "d_max", "k_bound", "relaxed"}


def _parse_svg(text: str) -> ET.Element:
    return ET.fromstring(text)


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
    pts = text.split('points="')[1].split('"')[0]
    assert len(pts.split()) <= 2000


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
    assert text.count("<polyline") == 10
    labels = [f"|x_{i + 1}-x_{j + 1}|" for i in range(5) for j in range(i + 1, 5)]
    assert _legend(text) == labels


def test_pairwise_plot_draws_bands_beyond_the_palette(tmp_path):
    traj = _random_flock(6)
    path = tmp_path / "d.svg"
    plot_pairwise_distances(path, traj, d0=0.25)
    text = path.read_text(encoding="utf-8")
    assert text.count("<polyline") == 3
    assert _legend(text) == ["min |x_i-x_j|", "median |x_i-x_j|", "max |x_i-x_j|"]
    assert text.count('stroke-dasharray="6,3"') == 2  # sqrt(d0) line and its legend
    assert "sqrt(d0)" in text

    # the min band is the smallest pair distance of each sample
    root = _parse_svg(text)
    low = next(el for el in root.iter() if el.tag.endswith("polyline"))
    ys = [float(pt.split(",")[1]) for pt in low.attrib["points"].split()]
    dist = np.sqrt(traj.min_dist_sq)
    assert np.argmax(ys) == np.argmin(dist) and np.argmin(ys) == np.argmax(dist)


def test_pairwise_plot_stays_small_for_large_flocks(tmp_path):
    path = tmp_path / "d.svg"
    plot_pairwise_distances(path, _random_flock(60), d0=0.25)
    assert path.stat().st_size < 100_000


def _velocity_legend(text: str) -> list[str]:
    return [el.text for el in _parse_svg(text).iter() if el.tag.endswith("text") and "v[" in el.text]


def _moving_flock(n: int, k: int = 201) -> Trajectory:
    vs = np.random.default_rng(n + 1).normal(size=(k, n, 2))
    return dataclasses.replace(_random_flock(n, k), vs=vs)


def test_velocity_plot_draws_each_agent_while_pairs_fit_the_palette(tmp_path):
    path = tmp_path / "v.svg"
    plot_velocity_components(path, _moving_flock(5))
    text = path.read_text(encoding="utf-8")
    assert text.count("<polyline") == 10
    assert _velocity_legend(text) == [f"v[{i + 1},{l + 1}]" for i in range(5) for l in range(2)]


def test_velocity_plot_draws_bands_beyond_the_palette(tmp_path):
    traj = _moving_flock(6)
    path = tmp_path / "v.svg"
    plot_velocity_components(path, traj)
    text = path.read_text(encoding="utf-8")
    assert text.count("<polyline") == 6
    assert _velocity_legend(text) == [
        f"{band} v[i,{l}]" for l in (1, 2) for band in ("min", "median", "max")
    ]
    # the first band is the smallest first component of each sample
    root = _parse_svg(text)
    low = next(el for el in root.iter() if el.tag.endswith("polyline"))
    ys = [float(pt.split(",")[1]) for pt in low.attrib["points"].split()]
    lowest = traj.vs[:, :, 0].min(axis=1)
    assert np.argmax(ys) == np.argmin(lowest) and np.argmin(ys) == np.argmax(lowest)


def test_velocity_plot_stays_small_for_large_flocks(tmp_path):
    path = tmp_path / "v.svg"
    plot_velocity_components(path, _moving_flock(50, k=1001))
    assert path.stat().st_size < 100_000
    assert len(_velocity_legend(path.read_text(encoding="utf-8"))) == 6
