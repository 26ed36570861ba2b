"""End-to-end tests for the command line harness."""

import csv
import json
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields

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


def test_one_cell_field_svg(tmp_path):
    # a radius below the grid step samples the origin alone, where s5 is 0: the one
    # heatmap cell is white, as diverging_colors gives for vmax = 0
    out = tmp_path / "cell"
    argv = ["field", "--radius", "0.1", "--grid-step", "0.25", "--format", "svg", "--out", str(out)]
    assert cli.main(argv) == 0
    assert (out / "field.svg").read_text() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">\n'
        '<rect width="800" height="800" fill="#ffffff" />\n'
        '<polygon points="-50.00,850.00 850.00,850.00 850.00,-50.00 -50.00,-50.00" fill="#ffffff" '
        'fill-opacity="1" stroke="none" stroke-width="1" />\n'
        '<circle cx="400.00" cy="400.00" r="360.00" fill="none" stroke="#333333" '
        'stroke-width="1.5" />\n'
        '</svg>\n'
    )


def test_field_grid_too_fine_is_config_error(tmp_path):
    out = tmp_path / "fine"
    proc = run_cli("field", "--radius", "10", "--grid-step", "1e-6", "--out", str(out))
    assert proc.returncode == 2
    assert "grid" in proc.stderr.lower()


@pytest.mark.parametrize("args, remedy", [
    (("converge", "--radius", "1", "--grid-step", "5e-324"), "0.00020002"),
    (("field", "--radius", "1e60", "--grid-step", "1e-300"), "2.0002e+56"),
    (("field", "--radius", "1", "--grid-step", "1e-300"), "0.00020002"),
])
def test_grid_count_overflow_is_config_error(tmp_path, args, remedy):
    proc = run_cli(*args, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == (
        "pentawave: config error: inf disk grid samples exceed 100000000; "
        f"use --grid-step of at least {remedy}\n"
    )


def _disk_grid(radius, step):
    """The whole disk grid that field samples, as one array."""
    return pw.wavefield._disk_lattice(radius, step)


def _old_disk_grid(radius, step):
    """The disk grid as one array, before it was generated block by block, kept verbatim."""
    n = int(math.floor(radius / step))
    total = (2 * n + 1) ** 2
    if total > cli._MAX_GRID_SAMPLES:
        suggestion = radius / (0.5 * (math.sqrt(cli._MAX_GRID_SAMPLES) - 1.0))
        raise cli.ConfigError(
            f"grid of {total} samples exceeds {cli._MAX_GRID_SAMPLES}; "
            f"use --grid-step of at least {suggestion:.6g}"
        )
    vals = step * np.arange(-n, n + 1)
    gx, gy = np.meshgrid(vals, vals, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 <= radius ** 2]


@pytest.mark.parametrize("radius, step", [
    (0.0, 0.25),  # radius 0: the origin alone
    (0.3, 0.5),  # step > radius: the origin alone
    (2.0, 0.5),  # the edge columns x = -2 and x = 2 hold one point each
    (3.0, 0.1),
    (20 / 0.93, 0.05 / 0.93),  # a k-scaled radius and pitch
    # the golden field grids at scales 0.1, 1 and 2 (at k = 1 and 0.93 alike)
    (0.30000000000000004, 0.1),
    (0.6000000000000001, 0.1),
    (6.0, 0.1),
    # the benchmark's field grids at k = 1 and k = 0.93
    (14.0, 0.05),
    (14 / 0.93, 0.05 / 0.93),
    (0.0, 0.1),  # radius 0 at the golden step
    (0.05, 0.1),  # a radius below the step: the origin alone
])
def test_disk_blocks_are_the_block_edges_slices_of_the_old_grid(radius, step):
    # the blocks hold the half of the grid from its middle row, the origin, on
    whole = _old_disk_grid(radius, step)
    want = whole[len(whole) // 2:]
    assert want[0].tolist() == [0.0, 0.0]
    total = len(want)
    sizes = {1, 2, 3, 5, 64, total, total + 1, pw.wavefield._series_block_size(14), 1 << 16}
    if total > 2:
        sizes.add(total - 1)  # a lone last point
    if total > 6:
        sizes.add(_chunk_leaving_one_point(total))
    for size in sorted(sizes):
        if total // size > 5000:
            continue  # keep the block count small on the large grid
        edges = pw.wavefield._block_edges(total, size)
        blocks = list(pw.wavefield._disk_lattice_blocks(radius, step, size))
        assert [len(block) for block in blocks] == np.diff(edges).tolist()
        for block, start, stop in zip(blocks, edges, edges[1:]):
            assert block.tobytes() == want[start:stop].tobytes()
    assert _disk_grid(radius, step).tobytes() == whole.tobytes()


def test_converge_memory_does_not_grow_with_radius(tmp_path, monkeypatch):
    # converge holds one block of the disk grid at a time.
    terms, step = 8, 0.05
    monkeypatch.setattr(pw.wavefield, "_SERIES_BLOCK_BYTES", 8 * terms * 1024)
    # one worker: with two, the peak counts however many blocks are in flight at
    # once, which varies from run to run by more than the margin below
    monkeypatch.setattr(pw.wavefield, "_pool_workers", lambda: 1)

    def peak(radius):
        tracemalloc.start()
        try:
            code = cli.main(["converge", "--radius", repr(radius), "--grid-step", repr(step),
                             "--terms", str(terms), "--out", str(tmp_path / "conv")])
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        return traced

    small, large = (len(_disk_grid(radius, step)) for radius in (5.0, 10.0))
    peak(5.0)  # the first run fills import and allocation caches
    # building the whole grid grew by about 66 B per point
    assert peak(10.0) - peak(5.0) < large - small


def test_field_memory_per_point(tmp_path, monkeypatch):
    monkeypatch.setattr(pw.wavefield, "_pool_workers", lambda: 1)
    radius, step = 14.0, 0.05
    tracemalloc.start()
    try:
        code = cli.main(["field", "--radius", repr(radius), "--grid-step", repr(step),
                         "--terms", "12", "--out", str(tmp_path / "field")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # 112.9 B per point over these 246,245 points (27.8 MB), set by s5 on the whole grid
    assert peak <= 120 * len(_disk_grid(radius, step))


def test_series_partial_memory_per_point():
    pts = _disk_grid(14.0, 0.05)
    spec = pw.SeriesSpec(1.0, 12)
    for _ in range(2):  # the first run fills numpy's allocation caches
        tracemalloc.start()
        try:
            pw.series_partial(spec, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 54 B per point above its input: the projection (40 B per point), the result
    # (8 B) and one block's table of terms (1 MB)
    assert peak <= 60 * len(pts)


def test_converge_chunk_memory_is_its_table_and_one_term(monkeypatch):
    # one worker, so the peak is one chunk's
    monkeypatch.setattr(pw.wavefield, "_pool_workers", lambda: 1)
    spec = pw.SeriesSpec(1.0, 14)
    chunk = pw.wavefield._series_block_size(14)
    pts = next(pw.wavefield._disk_lattice_blocks(20.0, 0.05, chunk))
    row = 8 * len(pts)
    for _ in range(2):  # the first run fills numpy's allocation caches
        tracemalloc.start()
        try:
            pw.wavefield._blocked_series_max_errors(spec, [pts])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the terms x points table, and while a term is made the projection (5 rows), s5
    # (1) and the term's five sines (5), its product going straight into its table
    # row; 11.2 rows besides the table, 12.2 when the product and its coefficient
    # were multiplied outside the table
    assert peak <= (spec.num_terms + 11) * row + 32 * 1024


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


def _series_partial_reference(spec, p):
    """series_partial before it summed through wavefield._series_sums, kept verbatim."""
    a = pw.project(p)
    total = np.zeros(a.shape[:-1])
    for n in range(spec.num_terms - 1, -1, -1):
        coeff, kn = pw.wavefield.series_term(spec.k, n)
        total = total + coeff * pw.wavefield._sin_prod(kn, a)
    return pw.wavefield._maybe_scalar(16.0 * total)


def _assert_series_partial_is_its_reference(spec, pts):
    got, want = pw.series_partial(spec, pts), _series_partial_reference(spec, pts)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (spec, np.shape(pts))


@pytest.mark.parametrize("k", [1.0, 0.93, 2.5, 1e-3])
def test_series_partial_equals_its_reference_byte_for_byte(monkeypatch, k):
    rng = np.random.default_rng(23)
    small = [(2,), (1, 2), (2, 2), (5, 1, 2), (3, 4, 2)]
    for terms in [*range(31), 70, 71, 72, 200, 1474]:
        # stacked shapes keep the rounding of their own projection; 1,474 terms on small inputs
        for shape in small + [(1000, 2)] * (terms <= 72):
            pts = rng.uniform(-10.0, 10.0, shape)
            _assert_series_partial_is_its_reference(pw.SeriesSpec(k, terms), pts)
    # 20,000 rows in five blocks, the golden field grids at scale 1, and the benchmark's
    grids = [(rng.uniform(-10.0, 10.0, (20000, 2)), 30), (_disk_grid(3.0, 0.1), 8),
             (_disk_grid(6.0, 0.1), 8), (_disk_grid(14.0, 0.05), 12)]
    for pts, terms in grids:
        _assert_series_partial_is_its_reference(pw.SeriesSpec(k, terms), pts)
    # blocks of 100 rows and a lone last row
    monkeypatch.setattr(pw.wavefield, "_SERIES_BLOCK_BYTES", 8 * 9 * 100)
    _assert_series_partial_is_its_reference(pw.SeriesSpec(k, 9), rng.uniform(-10.0, 10.0, (301, 2)))


def _series_errors_one_n_at_a_time(k, pts, terms):
    """converge's per-N maximum error, computed with the series_partial reference for each N."""
    s5_vals = pw.s5(k, pts)
    return [
        float(np.abs(s5_vals - _series_partial_reference(pw.SeriesSpec(k, n), pts)).max())
        for n in range(terms + 1)
    ]


def _series_max_errors(spec, pts):
    """The per-N maxima of series_max_errors over its blocks of an array of points."""
    chunk = pw.wavefield._series_block_size(spec.num_terms)
    edges = pw.wavefield._block_edges(len(pts), chunk)
    blocks = (pts[start:stop] for start, stop in zip(edges, edges[1:]))
    return pw.wavefield._blocked_series_max_errors(spec, blocks)[0]


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
    pts = _disk_grid(radius, step)
    if several_chunks:
        chunk = _chunk_leaving_one_point(len(pts))
        monkeypatch.setattr(pw.wavefield, "_SERIES_BLOCK_BYTES", 8 * terms * chunk)
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
    want = _series_errors_one_n_at_a_time(1.0, _disk_grid(0.1, 0.25), terms)
    assert [float(e) for _, e, _ in read_csv(out / "converge.csv")[1:]] == want
    # Three chunks of 100 points and one more, placed last where it sets the
    # maximum error: numpy projects a lone point through a different BLAS
    # call, whose rounding shows unless that point shares a chunk.
    pts = np.random.default_rng(1).uniform(-3.0, 3.0, (301, 2))
    s5_vals = pw.s5(1.0, pts)
    worst = np.abs(s5_vals - _series_partial_reference(pw.SeriesSpec(1.0, 5), pts)).argmax()
    pts = np.vstack([np.delete(pts, worst, axis=0), pts[worst]])
    monkeypatch.setattr(pw.wavefield, "_SERIES_BLOCK_BYTES", 8 * terms * 100)
    got = _series_max_errors(pw.SeriesSpec(1.0, terms), pts)
    assert list(map(float, got)) == _series_errors_one_n_at_a_time(1.0, pts, terms)
    # a block of one row off the origin: numpy would sum a one-column table pairwise
    row = pts[-1:]
    got = pw.wavefield._blocked_series_max_errors(pw.SeriesSpec(1.0, terms), [row])[0]
    assert list(map(float, got)) == _series_errors_one_n_at_a_time(1.0, row, terms)


@pytest.mark.parametrize("k, radius, step", [
    (1.0, 3.25, 0.25),  # a half of 3 * 88 + 1 points: the lone last row joins block 3
    (0.93, 0.75, 0.1),  # a half of 88 + 1 points: the lone last row joins the one block
    (1.0, 0.05, 0.1),  # a radius below the step: the origin alone
])
def test_converge_errors_equal_series_partial_at_the_term_count_extremes(k, radius, step):
    # Past about 22 terms double rounding exceeds the bound off the origin, so the CLI
    # cannot run these; series_max_errors is called as converge calls it. N = 70-72
    # span the switch of the Fibonacci coefficients to the closed form.
    terms = pw.wavefield._MAX_SERIES_TERMS
    assert pw.wavefield._series_block_size(terms) == 88
    pts = pw.wavefield._disk_lattice(radius, step)
    s5_vals = pw.s5(k, pts)
    errors, num_samples = pw.series_max_errors(pw.SeriesSpec(k, terms), radius, step)
    assert num_samples == len(pts)
    for n in (0, 1, 70, 71, 72, terms - 1, terms):
        want = np.abs(s5_vals - _series_partial_reference(pw.SeriesSpec(k, n), pts)).max()
        assert errors[n].tobytes() == want.tobytes(), n


def test_converge_rounding_violation_reported_at_first_failing_n(tmp_path):
    k, radius, step, terms = 1.0, 10.0, 0.5, 30
    errors = _series_errors_one_n_at_a_time(k, _disk_grid(radius, step), terms)
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
    # converge evaluates the half of the grid from the origin on
    num_points = len(_disk_grid(radius, step)) // 2 + 1
    chunk = _chunk_leaving_one_point(num_points)
    monkeypatch.setattr(pw.wavefield, "_SERIES_BLOCK_BYTES", 8 * terms * chunk)
    calls = {"project": 0, "_sin_sum": 0, "_sin_prod": 0, "s5": 0, "p5": 0, "series_partial": 0}
    lock = threading.Lock()  # the blocks run on the block pool's threads

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the kernel's names in wavefield, and the evaluators cli also binds
    for module in (pw.wavefield, cli):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code = cli.main(["converge", "--radius", repr(radius), "--grid-step", repr(step),
                     "--terms", str(terms), "--out", str(tmp_path / "conv")])
    assert code == 0
    # the last point joins the final full chunk instead of forming its own
    num_chunks = num_points // chunk
    assert num_chunks > 1
    assert calls == {"project": num_chunks, "_sin_sum": num_chunks,
                     "_sin_prod": terms * num_chunks, "s5": 0, "p5": 0, "series_partial": 0}


def test_outputs_do_not_depend_on_the_block_pool_size(tmp_path, monkeypatch):
    # converge: several chunks and a lone last point; identity: 50,002 points,
    # several sweep blocks and a short last one
    radius, step, terms = 4.0, 0.25, 9
    pts = _disk_grid(radius, step)
    chunk = _chunk_leaving_one_point(len(pts))
    monkeypatch.setattr(pw.wavefield, "_SERIES_BLOCK_BYTES", 8 * terms * chunk)
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"identity_num_points": 50002}}))
    runs = {
        "converge": ["--radius", repr(radius), "--grid-step", repr(step), "--terms", str(terms)],
        "identity": ["--radius", "10", "--seed", "5", "--config", str(cfg)],
    }
    outputs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(pw.wavefield, "_pool_workers", lambda: workers)
        for command, flags in runs.items():
            out = tmp_path / f"{command}-{workers}"
            assert cli.main([command, *flags, "--out", str(out), "--format", "csv,json"]) == 0
            report = json.loads((out / f"{command}.json").read_text())["report"]
            outputs.setdefault(command, []).append(
                ((out / f"{command}.csv").read_bytes(), json.dumps(report)))
    for command, got in outputs.items():
        assert got[1:] == got[:1] * 2, command
    errors = [float(row[1]) for row in read_csv(tmp_path / "converge-2" / "converge.csv")[1:]]
    assert errors == _series_errors_one_n_at_a_time(1.0, pts, terms)


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
    (("extrema", "--k", "1e155", "--radius", "1e-160"), "up to 2.5*k*k, overflow"),
    (("tiling", "--k", "5e-324"), "c must be finite and positive"),
    (("match", "--k", "5e-324"), "c must be finite and positive"),
    (("tiling", "--radius", "1e6"), "6.15073e+11 tiling line crossings exceed 100000000"),
    (("tiling", "--radius", "1e9"), "tiling line crossings exceed 100000000"),
    (("extrema", "--radius", "1e6"), "6.48456e+12 extrema seeds exceed 100000000"),
    (("extrema", "--radius", "1e9"), "extrema seeds exceed 100000000"),
    (("match", "--radius", "1e6", "--format", "csv,json,svg"), "extrema seeds exceed"),
    (("match", "--radius", "1e9"), "extrema seeds exceed"),
    (("match", "--k", "1e300", "--radius", "1e300"), "inf extrema seeds exceed"),
    (("identity", "--radius", "1e300"), "residual allowance"),
    # the search runs at k = 1 in u = k p, but the eigenvalues it maps back would overflow
    (("extrema", "--k", "1e160", "--radius", "1e-160"), "up to 2.5*k*k, overflow"),
    (("match", "--k", "1e155", "--radius", "4e-155"), "up to 2.5*k*k, overflow"),
    # beside the --k 5e-324 cases above: c = k/(2*tau) is positive, but pi/c overflows
    (("tiling", "--k", "1e-310", "--radius", "1e150"), "the line spacing pi/c overflows"),
    (("match", "--k", "1e-310"), "the line spacing pi/c overflows"),
])
def test_underflowing_and_oversized_inputs_are_config_errors(tmp_path, capsys, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*args, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pentawave: config error: ")
    assert message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("field", "--k", "1e-160", "--radius", "1e160", "--grid-step", "1e159"),
    ("converge", "--k", "1e-160", "--radius", "1e160", "--grid-step", "1e159"),
    ("extrema", "--k", "1e-154", "--radius", "2e154"),
    ("match", "--k", "1e-154", "--radius", "2e154"),
    ("tiling", "--k", "1e-310", "--radius", "1e150"),
])
def test_disk_squares_that_overflow_end_in_a_documented_exit_code(tmp_path, args):
    # x**2 + y**2 <= radius**2 overflows on these disks unless it is scaled
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "pentawave.cli", *args,
                           "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert proc.stderr.count("\n") <= 1 and "Traceback" not in proc.stderr, proc.stderr


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


@pytest.mark.parametrize("args", [
    ("extrema", "--radius", "1e-310"),
    ("field", "--radius", "1e-310", "--grid-step", "1"),
])
def test_radius_too_small_to_draw_is_config_error(tmp_path, args):
    # the canvas scale 720 / 2e-310 overflows a double
    out = tmp_path / "o"
    proc = run_cli(*args, "--format", "svg", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == (
        "pentawave: config error: a world span of 2e-310 is too small to scale onto the canvas\n"
    )
    assert not list(out.glob("*.svg"))


def test_point_too_far_to_draw_is_config_error(tmp_path):
    # the scale 720 / 2e-300 is finite, but times the 5e299 half-width of the
    # heatmap cells it overflows: each mapped coordinate is checked, not the scale only
    out = tmp_path / "o"
    proc = run_cli("field", "--radius", "1e-300", "--grid-step", "1e300", "--format", "svg",
                   "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == (
        "pentawave: config error: a world point lies too far outside the canvas to map onto it\n"
    )
    assert not list(out.glob("*.svg"))


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


@pytest.mark.parametrize("radius", ["1.6e-6", "5e-6"])
def test_extrema_finds_the_origin_alone_in_a_disk(tmp_path, radius):
    # at k = 3e5 a radius of 1.6e-6 seeds the origin alone and 5e-6 a 3 x 3 lattice;
    # as a lone row the origin's gradient norm rounded to 1.167e-10, above
    # grad_tol = 1e-10, as a row of a batch to 9.10e-11
    out = tmp_path / "ext"
    assert cli.main(["extrema", "--k", "300000", "--radius", radius, "--out", str(out),
                     "--format", "csv"]) == 0
    assert read_csv(out / "extrema.csv")[1:] == [["0.0", "0.0", "0.0", "degenerate", "-0.0", "0.0"]]


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


def test_match_error_file_is_written_by_the_shared_json_writer(tmp_path):
    # the error envelope is written even when json is not among the formats
    out = tmp_path / "short"
    assert cli.main(["match", "--radius", "1", "--out", str(out), "--format", "csv"]) == 4
    text = (out / "match.json").read_text(encoding="utf-8")
    payload = json.loads(text)
    assert sorted(payload) == ["config", "error", "report", "version"]
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    config = (out / "config.json").read_text(encoding="utf-8")
    assert config == json.dumps(payload["config"], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["extrema", "match"])
def test_seed_spacing_above_quarter_wavelength_is_config_error(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"seed_spacing": 5.0}}))
    proc = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == "pentawave: config error: seed_spacing must not exceed pi/2\n"


def test_seed_spacing_that_overflows_is_config_error(tmp_path):
    # the seed spacing is in u = k p, so no k makes the default pi/4 overflow; one
    # written past the float range reads as inf, and a seed grid of inf * 0 = nan
    # spacing would find nothing and exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tolerances": {"seed_spacing": 1e999, "dedupe_radius": 0.25}}')
    proc = run_cli("extrema", "--k", "5e-324", "--radius", "2", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == "pentawave: config error: tolerance seed_spacing must be finite\n"


def _cell_reference(value):
    """The per-cell CSV formatter before column-wise writing, kept verbatim."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # repr of a Python float is the shortest round-trip decimal form
    return repr(float(value))


def test_column_csv_writer_matches_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(3)
    floats = np.concatenate([
        rng.standard_normal(9000) * 10.0 ** rng.integers(-300, 300, 9000),  # several chunks
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e16, 0.1, 1.0, -2.5],
    ])
    n = len(floats)
    columns = [
        floats,
        floats.tolist(),
        rng.integers(-10**12, 10**12, n),
        [int(v) for v in rng.integers(-5, 5, n)],
        rng.random(n) < 0.5,
        [("thin" if v < 0.3 else "saddle" if v < 0.6 else "maximum") for v in rng.random(n)],
    ]
    cfg = cli.RunConfig("field", 1.0, 1.0, 0, 1.0, 0, str(tmp_path), ("csv",), {})
    header = [f"c{j}" for j in range(len(columns))]
    cli._write_csv(cfg, "got", header, columns)
    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_cell_reference(v) for v in row])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    cli._write_csv(cfg, "empty", ["a", "b"], [[], np.zeros(0, dtype=int)])
    assert (tmp_path / "empty.csv").read_text() == "a,b\n"
    # cells are never quoted, so a cell that would need quoting is refused
    for cell in ("a,b", 'x"y', "a\nb", "a\rb"):
        with pytest.raises(AssertionError):
            cli._write_csv(cfg, "bad", ["a", "b"], [[1.0] * 5000, ["ok"] * 4999 + [cell]])


def test_csv_writer_memory_does_not_grow_with_rows(tmp_path):
    cfg = cli.RunConfig("field", 1.0, 1.0, 0, 1.0, 0, str(tmp_path), ("csv",), {})

    def peak(rows):
        columns = [np.linspace(-1.0, 1.0, rows) * math.pi for _ in range(4)] + [np.arange(rows)]
        tracemalloc.start()
        try:
            cli._write_csv(cfg, "t", list("abcde"), columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(cli._CSV_CHUNK)  # the first run fills import and allocation caches
    # one chunk of each column is turned into cells at a time: 61 KB more at 80,000
    # rows than at 20,000; 9.7 MB more when whole columns were turned into lists first
    assert peak(80_000) - peak(20_000) < 256 * 1024


_CSV_RUNS = {
    "field": ["--radius", "4", "--grid-step", "0.05", "--terms", "8"],  # several chunks of rows
    "identity": [],
    "converge": ["--radius", "3", "--grid-step", "0.1", "--terms", "10"],
    "extrema": ["--radius", "20"],
    "tiling": ["--radius", "30"],
    "match": ["--radius", "40"],
}


@pytest.mark.parametrize("command", sorted(_CSV_RUNS))
def test_csv_writer_equals_the_csv_module_on_every_command(tmp_path, monkeypatch, command):
    tables = []
    write_csv = cli._write_csv

    def recorded(cfg, name, header, columns):
        tables.append((name, header, columns))
        write_csv(cfg, name, header, columns)

    monkeypatch.setattr(cli, "_write_csv", recorded)
    out = tmp_path / "out"
    assert cli.main([command, *_CSV_RUNS[command], "--out", str(out), "--format", "csv"]) == 0
    [(name, header, columns)] = tables
    with open(tmp_path / "want.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_cell_reference(v) for v in row])
    got = (out / f"{name}.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\n") > 2


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


def test_config_file_search_tolerances_reach_the_search(tmp_path, monkeypatch):
    search = {"seed_spacing": 0.5, "grad_tol": 1e-11, "dedupe_radius": 0.1,
              "max_newton_steps": 30, "eig_degenerate_tol": 1e-7}
    assert set(search) == {f.name for f in fields(cli.SearchConfig)} & set(cli._TOLERANCES)
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": search}))
    seen = []
    find_critical_points = cli.find_critical_points

    def captured(k, config, **kwargs):
        seen.append(config)
        return find_critical_points(k, config, **kwargs)

    monkeypatch.setattr(cli, "find_critical_points", captured)
    assert cli.main(["extrema", "--radius", "5", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
    [config] = seen
    assert {key: getattr(config, key) for key in search} == search
    assert type(config.max_newton_steps) is int


def test_identity_sample_cap_is_checked_before_the_sweep(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"identity_num_points": 1000000000}}))
    monkeypatch.setattr(cli, "suite_residual_breakdown",
                        lambda *a, **kw: pytest.fail("the sweep ran past the cap"))
    assert cli.main(["identity", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "pentawave: config error: 1e+09 identity sample points exceed 100000000; "
        "use a smaller identity_num_points\n"
    )


def test_resolve_config_leaves_the_loaded_tolerances_unchanged(monkeypatch):
    loaded = {"radius": 3, "tolerances": {"grad_tol": 1, "max_newton_steps": 30.0}}
    text = json.dumps(loaded)
    monkeypatch.setattr(cli, "_load_config_file", lambda path: loaded)
    args = cli.build_parser().parse_args(["extrema", "--config", "unused.json"])
    cfg = cli.resolve_config(args)
    assert json.dumps(loaded) == text
    assert cfg.tolerances == {"grad_tol": 1.0, "max_newton_steps": 30}
    assert type(cfg.tolerances["grad_tol"]) is float
    assert type(cfg.tolerances["max_newton_steps"]) is int


@pytest.mark.parametrize("command, tolerance", [
    ("extrema", '"max_newton_steps": Infinity'),
    ("identity", '"identity_k_max": 1e400'),  # parsed as inf
    ("identity", '"identity_num_points": 1%s' % ("0" * 400)),  # an int beyond the doubles
], ids=["inf-steps", "inf-k-max", "huge-points"])
def test_non_finite_tolerance_is_config_error(tmp_path, capsys, command, tolerance):
    cfg = tmp_path / "tol.json"
    cfg.write_text('{"tolerances": {%s}}' % tolerance)
    assert cli.main([command, "--radius", "40", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("pentawave: config error: tolerance ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, key", [("tiling", "singular_eps"), ("match", "boundary_eps")])
def test_removed_tolerance_keys_are_refused(tmp_path, capsys, command, key):
    # tiles decides singular crossings exactly, and the on-line margin of the match is fixed
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {key: 1e-9}}))
    assert cli.main([command, "--radius", "40", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"pentawave: config error: unknown tolerance keys: {key}\n"


@pytest.mark.parametrize("value, message", [
    ('"terms": Infinity', "terms must be finite"),  # was an OverflowError traceback
    ('"seed": -Infinity', "seed must be finite"),  # was an OverflowError traceback
    ('"terms": 2.5', "terms must be a whole number, not 2.5"),  # ran with 2 terms
    ('"k": true', "k must be numeric"),  # ran with k = 1.0
    ('"terms": "8"', "terms must be numeric"),  # ran
    ('"out": null', "out must be a string"),  # wrote into a directory named None
    ('"radius": 1e400', "radius must be finite"),
    ('"seed": 1%s' % ("0" * 400), "seed is out of range"),  # an int beyond the doubles
])
def test_bad_config_file_value_is_config_error(tmp_path, capsys, monkeypatch, value, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text("{%s}" % value)
    # --k wins over a k in the file, which is checked all the same
    assert cli.main(["converge", "--k", "1", "--radius", "1", "--config", "c.json"]) == 2
    assert capsys.readouterr().err == f"pentawave: config error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "c.json"]


@pytest.mark.parametrize("command", ["extrema", "match"])
@pytest.mark.parametrize("dedupe_radius, message", [
    (0.0, "dedupe_radius must be positive"),
    (-0.1, "dedupe_radius must be positive"),
    (1e-310, "dedupe_radius must cut the domain into finitely many cells"),
])
def test_dedupe_radius_without_finitely_many_cells_is_config_error(tmp_path, capsys, command,
                                                                   dedupe_radius, message):
    # 0 divided by zero and 1e-310 overflowed a cell index to inf, both in a traceback
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"dedupe_radius": dedupe_radius}}))
    assert cli.main([command, "--radius", "12", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"pentawave: config error: {message}\n"


def test_degeneracy_tolerance_whose_square_overflows_marks_every_point_degenerate(tmp_path):
    # its square used to raise OverflowError. Now every Hessian counts as degenerate, so
    # every step is a damped gradient step and only the seed at the origin converges.
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"eig_degenerate_tol": 1e300}}))
    out = tmp_path / "o"
    assert cli.main(["extrema", "--radius", "12", "--config", str(cfg), "--out", str(out)]) == 0
    counts = json.loads((out / "extrema.json").read_text())["report"]["counts"]
    assert counts == {"degenerate": 1, "maximum": 0, "minimum": 0, "saddle": 0}


@pytest.mark.parametrize("command, key", [
    ("identity", "identity_num_points"),
    ("extrema", "max_newton_steps"),
])
def test_fractional_integral_tolerance_is_config_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {key: 2.5}}))
    assert cli.main([command, "--radius", "5", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"pentawave: config error: tolerance {key} must be a whole number, not 2.5\n"
    )


def test_identity_non_finite_derived_wavenumber_is_config_error(tmp_path):
    # 1e308 is finite, but the functional check also evaluates s5 at 2 * tau * k
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps({"tolerances": {"identity_k_min": 1.0, "identity_k_max": 1e308}}))
    proc = run_cli("identity", "--radius", "0", "--config", str(cfg),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == ("pentawave: config error: the functional check's wavenumber "
                           "2 * tau * identity_k_max is not finite\n")


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


def test_match_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on first use, about 10 ms of every match run
    code = ("import sys; from pentawave import cli; "
            f"code = cli.main(['match', '--radius', '30', '--out', {str(tmp_path / 'm')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "0 False\n", proc.stderr
