"""End-to-end tests for the command line harness."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import pentawave as pw
from pentawave import cli

TAU = (1.0 + math.sqrt(5.0)) / 2.0


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "pentawave.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_field_outputs(tmp_path):
    out = tmp_path / "field_run"
    proc = run_cli(
        "field", "--k", "1", "--radius", "3", "--grid-step", "0.5",
        "--terms", "6", "--out", str(out), "--format", "csv,json,svg",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out / "field.csv")
    assert rows[0] == ["x", "y", "s5", "p5_lead", "series_N"]
    body = rows[1:]
    assert len(body) > 0
    pts = [(float(x), float(y)) for x, y, *_ in body]
    # csv cells round-trip exactly through repr of the same batched evaluation
    s5_batch = pw.s5(1.0, np.array(pts))
    for (x, y, s5v, p5v, ser), want in zip(body, s5_batch):
        px, py = float(x), float(y)
        assert math.hypot(px, py) <= 3.0 + 1e-12
        assert float(s5v) == want
        bound = pw.tail_bound(1.0, math.hypot(px, py), 6).scaled_bound
        assert abs(float(s5v) - float(ser)) <= bound
    report = json.loads((out / "field.json").read_text())
    assert set(report) == {"config", "report", "version"}
    assert report["config"]["k"] == 1.0
    assert report["report"]["num_samples"] == len(body)
    echo = json.loads((out / "config.json").read_text())
    assert echo["radius"] == 3.0
    assert echo["terms"] == 6
    svg = (out / "field.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_field_zero_radius_single_sample(tmp_path):
    out = tmp_path / "zero"
    proc = run_cli("field", "--radius", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out / "field.csv")
    assert len(rows) == 2
    assert [float(v) for v in rows[1]] == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_field_grid_too_fine_is_config_error(tmp_path):
    out = tmp_path / "fine"
    proc = run_cli("field", "--radius", "10", "--grid-step", "1e-6", "--out", str(out))
    assert proc.returncode == 2
    assert "grid" in proc.stderr.lower()


def test_converge_outputs(tmp_path):
    out = tmp_path / "conv"
    proc = run_cli(
        "converge", "--k", "1", "--radius", "5", "--terms", "9",
        "--seed", "3", "--out", str(out), "--format", "csv,json",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out / "converge.csv")
    assert rows[0] == ["N", "max_error", "bound"]
    body = [(int(n), float(e), float(b)) for n, e, b in rows[1:]]
    assert [n for n, _, _ in body] == list(range(10))
    for _, err, bound in body:
        assert err <= bound
    # bound decays at least geometrically with ratio tau^-4
    for (_, _, b0), (_, _, b1) in zip(body, body[1:]):
        assert b1 <= b0 * TAU**-4 * (1.0 + 1e-12)
    report = json.loads((out / "converge.json").read_text())["report"]
    assert len(report["rows"]) == 10
    assert [row["N"] for row in report["rows"]] == list(range(10))
    assert report["num_samples"] > 0


def _series_errors_one_n_at_a_time(k, pts, terms):
    """converge's per-N maximum error, computed with series_partial for each N."""
    s5_vals = pw.s5(k, pts)
    return [
        float(np.abs(s5_vals - pw.series_partial(pw.SeriesSpec(k, n), pts)).max())
        for n in range(terms + 1)
    ]


def _chunk_leaving_one_point(num_points):
    """A chunk size that splits num_points into at least three chunks plus one point."""
    return next(c for c in range(num_points // 3, 1, -1) if num_points % c == 1)


@pytest.mark.parametrize("k, radius, step, terms, several_chunks", [
    (1.0, 6.0, 0.25, 10, True),
    (0.93, 5.0, 0.2, 12, True),
    (2.5, 3.0, 0.1, 9, False),
    (5e-324, 0.0, 0.25, 3, False),  # every term wavenumber underflows to zero
])
def test_converge_errors_equal_series_partial(tmp_path, monkeypatch, k, radius, step, terms,
                                              several_chunks):
    pts = cli._disk_grid(radius, step)
    if several_chunks:
        chunk = _chunk_leaving_one_point(len(pts))
        monkeypatch.setattr(cli, "_CONVERGE_BLOCK_BYTES", 8 * terms * chunk)
    out = tmp_path / "conv"
    code = cli.main([
        "converge", "--k", repr(k), "--radius", repr(radius), "--grid-step", repr(step),
        "--terms", str(terms), "--out", str(out),
    ])
    assert code == 0
    want = _series_errors_one_n_at_a_time(k, pts, terms)
    assert [float(e) for _, e, _ in read_csv(out / "converge.csv")[1:]] == want
    report = json.loads((out / "converge.json").read_text())["report"]
    assert [row["max_error"] for row in report["rows"]] == want


def test_converge_errors_equal_series_partial_past_fib_switch(tmp_path, monkeypatch):
    terms = pw.wavefield._FIB_FLOAT_SWITCH + 10
    # At this many terms double rounding exceeds the truncation bound at any
    # point off the origin, so the CLI run samples only the origin, and the
    # per-N errors off it are checked through the helper converge calls.
    out = tmp_path / "conv"
    assert cli.main(["converge", "--radius", "0.1", "--terms", str(terms), "--out", str(out)]) == 0
    want = _series_errors_one_n_at_a_time(1.0, cli._disk_grid(0.1, 0.25), terms)
    assert [float(e) for _, e, _ in read_csv(out / "converge.csv")[1:]] == want
    # Three chunks of 100 points and one more, placed last where it sets the
    # maximum error: numpy projects a lone point through a different BLAS
    # call, whose rounding shows unless that point shares a chunk.
    pts = np.random.default_rng(1).uniform(-3.0, 3.0, (301, 2))
    s5_vals = pw.s5(1.0, pts)
    worst = np.abs(s5_vals - pw.series_partial(pw.SeriesSpec(1.0, 5), pts)).argmax()
    pts = np.vstack([np.delete(pts, worst, axis=0), pts[worst]])
    monkeypatch.setattr(cli, "_CONVERGE_BLOCK_BYTES", 8 * terms * 100)
    got = cli._series_max_errors(pw.SeriesSpec(1.0, terms), pts, pw.s5(1.0, pts))
    assert list(map(float, got)) == _series_errors_one_n_at_a_time(1.0, pts, terms)


def test_converge_rounding_violation_reported_at_first_failing_n(tmp_path):
    k, radius, step, terms = 1.0, 10.0, 0.5, 30
    errors = _series_errors_one_n_at_a_time(k, cli._disk_grid(radius, step), terms)
    bounds = [pw.tail_bound(k, radius, n).scaled_bound for n in range(terms + 1)]
    n = next(n for n in range(terms + 1) if errors[n] > bounds[n])
    proc = run_cli("converge", "--radius", "10", "--grid-step", "0.5", "--terms", "30",
                   "--out", str(tmp_path / "conv"))
    assert proc.returncode == 4
    assert proc.stderr == (
        f"pentawave: contract violation: max error {errors[n]:g} "
        f"exceeds bound {bounds[n]:g} at {n} terms\n"
    )


def test_converge_evaluates_each_term_once_per_chunk(tmp_path, monkeypatch):
    terms, radius, step = 9, 4.0, 0.25
    num_points = len(cli._disk_grid(radius, step))
    chunk = _chunk_leaving_one_point(num_points)
    monkeypatch.setattr(cli, "_CONVERGE_BLOCK_BYTES", 8 * terms * chunk)
    calls = {"p5": 0, "series_partial": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    code = cli.main(["converge", "--radius", repr(radius), "--grid-step", repr(step),
                     "--terms", str(terms), "--out", str(tmp_path / "conv")])
    assert code == 0
    # the last point joins the final full chunk instead of forming its own
    num_chunks = num_points // chunk
    assert num_chunks > 1
    assert calls == {"p5": terms * num_chunks, "series_partial": 0}


@pytest.mark.parametrize("args, message", [
    (("converge", "--k", "1e80"), "k * radius is too large"),
    (("field", "--terms", "1600", "--radius", "1"), "num_terms must be at most"),
])
def test_overflowing_series_inputs_are_config_errors(tmp_path, args, message):
    proc = run_cli(*args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("pentawave: config error: ")
    assert message in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    (("field", "--k", "5e-324"), "lead wavenumber k/(2*tau) underflows to zero"),
    (("extrema", "--k", "5e-324"), "dedupe_radius must be smaller than seed_spacing"),
    (("tiling", "--k", "5e-324"), "c must be finite and positive"),
    (("match", "--k", "5e-324"), "c must be finite and positive"),
    (("tiling", "--radius", "1e6"), "6.15073e+11 tiling line crossings exceed 100000000"),
    (("tiling", "--radius", "1e9"), "tiling line crossings exceed 100000000"),
    (("extrema", "--radius", "1e6"), "6.48456e+12 extrema seeds exceed 100000000"),
    (("extrema", "--radius", "1e9"), "extrema seeds exceed 100000000"),
    (("match", "--radius", "1e6", "--format", "csv,json,svg"), "extrema seeds exceed"),
    (("match", "--radius", "1e9"), "extrema seeds exceed"),
    (("match", "--k", "1e300", "--radius", "1e300"), "inf extrema seeds exceed"),
])
def test_underflowing_and_oversized_inputs_are_config_errors(tmp_path, capsys, args, message):
    assert cli.main([*args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pentawave: config error: ")
    assert message in err
    assert err.count("\n") == 1


def test_tiling_crossing_cap_is_checked_before_tiles(tmp_path, monkeypatch):
    spec = cli.PentagridSpec(1.0 / (2.0 * TAU))
    allowed = cli.crossing_count(spec, (-300.0, 300.0, -300.0, 300.0))
    monkeypatch.setattr(cli, "_MAX_GRID_SAMPLES", allowed)
    monkeypatch.setattr(cli, "tiles", lambda *a, **kw: pytest.fail("tiles ran past the cap"))
    assert cli.main(["tiling", "--radius", "340", "--out", str(tmp_path)]) == 2
    assert cli.crossing_count(spec, (-340.0, 340.0, -340.0, 340.0)) > allowed


def test_match_csv_and_svg_read_the_report_correspondences(tmp_path, monkeypatch):
    calls = {"match_report": 0}
    match_report = cli.match_report

    def counted(*args, **kwargs):
        calls["match_report"] += 1
        return match_report(*args, **kwargs)

    monkeypatch.setattr(cli, "match_report", counted)
    monkeypatch.setattr(cli, "matching_correspondences",
                        lambda *a, **kw: pytest.fail("correspondences recomputed"))
    out = tmp_path / "m"
    assert cli.main(["match", "--radius", "40", "--out", str(out), "--format", "csv,json,svg"]) == 0
    assert calls == {"match_report": 1}
    rows = read_csv(out / "match.csv")[1:]
    report = json.loads((out / "match.json").read_text())["report"]
    assert len(rows) == len(report["residuals"]) > 2
    assert [float(r[-1]) for r in rows] == report["residuals"]
    assert (out / "match.svg").read_text().count('stroke="#dd8800"') == len(rows)


@pytest.mark.parametrize("command", ["field", "converge", "extrema", "tiling", "match"])
def test_no_svg_canvas_built_without_svg_format(tmp_path, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVG canvas was built for a run without svg output")

    monkeypatch.setattr(cli, "SvgCanvas", refuse)
    code = cli.main([command, "--radius", "25", "--grid-step", "1", "--out", str(tmp_path),
                     "--format", "csv,json"])
    assert code == 0


def test_identity_outputs(tmp_path):
    out = tmp_path / "ident"
    proc = run_cli("identity", "--seed", "5", "--out", str(out), "--format", "csv,json")
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out / "identity.csv")
    assert len(rows) == 5
    names = [r[0] for r in rows[1:]]
    assert sorted(names) == ["direction_sums", "expansion", "functional", "two_wave"]
    report = json.loads((out / "identity.json").read_text())
    assert report["report"]["max_abs_residual"] <= 1e-9


def test_identity_svg_not_defined(tmp_path):
    out = tmp_path / "identsvg"
    proc = run_cli("identity", "--out", str(out), "--format", "svg")
    assert proc.returncode == 0
    assert not (out / "identity.svg").exists()
    assert "svg" in proc.stderr.lower()


def test_extrema_outputs(tmp_path):
    out = tmp_path / "ext"
    proc = run_cli(
        "extrema", "--k", "1", "--radius", "10", "--out", str(out),
        "--format", "csv,json,svg",
    )
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out / "extrema.csv")
    assert rows[0] == ["x", "y", "value", "kind", "eig_low", "eig_high"]
    kinds = [r[3] for r in rows[1:]]
    assert set(kinds) <= {"maximum", "minimum", "saddle", "degenerate"}
    report = json.loads((out / "extrema.json").read_text())["report"]
    assert report["num_points"] == len(kinds)
    assert sum(report["counts"].values()) == report["num_points"]
    for kind, count in report["counts"].items():
        assert count == kinds.count(kind)
    assert (out / "extrema.svg").read_text().startswith("<svg")


def test_tiling_outputs(tmp_path):
    out = tmp_path / "tile"
    proc = run_cli("tiling", "--k", "1", "--radius", "25", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(out / "tiling.csv")
    assert rows[0][:5] == ["kind", "family_i", "family_j", "cross_x", "cross_y"]
    kinds = [r[0] for r in rows[1:]]
    assert len(kinds) > 0
    report = json.loads((out / "tiling.json").read_text())["report"]
    assert report["num_tiles"] == len(kinds)
    assert report["num_thin"] == kinds.count("thin")
    assert report["num_thick"] == kinds.count("thick")
    assert report["num_thin"] + report["num_thick"] == report["num_tiles"]
    assert report["num_thin"] > 0 and report["num_thick"] > 0


def test_tiling_window_below_one_spacing_is_empty(tmp_path):
    # at k=1 the grid spacing is pi/(k/(2*tau)) ~ 10.2, so a +-8 window
    # contains no complete crossing away from the singular origin
    out = tmp_path / "tile_empty"
    proc = run_cli("tiling", "--k", "1", "--radius", "8", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "tiling.json").read_text())["report"]
    assert report["num_tiles"] == 0
    assert report["skipped_singular"] > 0
    assert len(read_csv(out / "tiling.csv")) == 1


def test_match_outputs_and_determinism(tmp_path):
    out = tmp_path / "match"
    args = (
        "match", "--k", "1", "--radius", "25", "--out", str(out),
        "--format", "csv,json,svg",
    )
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    first_json = (out / "match.json").read_bytes()
    first_csv = (out / "match.csv").read_bytes()
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert (out / "match.json").read_bytes() == first_json
    assert (out / "match.csv").read_bytes() == first_csv
    report = json.loads(first_json)["report"]
    for key in (
        "num_extrema", "num_regions_hit", "regions_with_exactly_one",
        "mean_residual", "median_residual", "max_residual",
        "excluded_near_singular", "dual_position_collisions", "transform",
    ):
        assert key in report
    assert report["num_extrema"] > 0
    assert set(report["transform"]) == {"scale", "rotation", "translation"}
    rows = read_csv(out / "match.csv")
    assert rows[0] == [
        "x", "y", "kind", "m0", "m1", "m2", "m3", "m4",
        "dual_x", "dual_y", "residual",
    ]
    assert (out / "match.svg").read_text().startswith("<svg")


def test_match_insufficient_extrema_contract_error(tmp_path):
    out = tmp_path / "short"
    proc = run_cli("match", "--k", "1", "--radius", "1", "--out", str(out))
    assert proc.returncode == 4
    assert "insufficient" in proc.stderr.lower()
    envelope = json.loads((out / "match.json").read_text())
    assert envelope["report"] is None
    assert "insufficient" in envelope["error"]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"k": 2.0, "radius": 4.0, "grid_step": 0.5}))
    out = tmp_path / "cfg"
    proc = run_cli("field", "--config", str(cfg), "--k", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    echo = json.loads((out / "config.json").read_text())
    assert echo["k"] == 3.0
    assert echo["radius"] == 4.0
    assert echo["grid_step"] == 0.5


def test_config_file_tolerance_keys(tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"identity_num_points": 500}}))
    out = tmp_path / "tol_out"
    proc = run_cli("identity", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "identity.json").read_text())
    assert report["report"]["num_points"] == 500


def test_unknown_tolerance_key_rejected(tmp_path):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"newton_tol": 1e-8}}))
    proc = run_cli("identity", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "newton_tol" in proc.stderr


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"wavelength": 5.0}))
    proc = run_cli("field", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "wavelength" in proc.stderr


def test_malformed_config_file(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    proc = run_cli("field", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_missing_config_file(tmp_path):
    proc = run_cli(
        "field", "--config", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "o"),
    )
    assert proc.returncode == 2


def test_invalid_flag_values(tmp_path):
    out = str(tmp_path / "o")
    assert run_cli("field", "--k", "-1", "--out", out).returncode == 2
    assert run_cli("field", "--k", "0", "--out", out).returncode == 2
    assert run_cli("field", "--radius", "-3", "--out", out).returncode == 2
    assert run_cli("field", "--terms", "-2", "--out", out).returncode == 2
    assert run_cli("field", "--format", "csv,bogus", "--out", out).returncode == 2


def test_unknown_command():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def test_unwritable_out_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    proc = run_cli("field", "--radius", "1", "--out", str(blocker))
    assert proc.returncode == 3


def test_version_in_envelope(tmp_path):
    out = tmp_path / "ver"
    proc = run_cli("converge", "--radius", "2", "--terms", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "converge.json").read_text())
    assert report["version"] == pw.__version__
