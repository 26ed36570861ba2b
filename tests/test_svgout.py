"""Tests for the batched SVG element writers."""

import itertools
import math
import warnings

import numpy as np
import pytest

from pentawave import svgout
from pentawave.svgout import SvgCanvas, diverging_colors


def _polygon_reference(canvas, points, fill="none", stroke="#000000", width=1.0, opacity=1.0):
    """SvgCanvas.polygon before batching, kept verbatim as the oracle."""
    mapped = " ".join(
        f"{px:.2f},{py:.2f}" for px, py in (canvas.map_point(x, y) for x, y in points)
    )
    return (
        f'<polygon points="{mapped}" fill="{fill}" fill-opacity="{opacity:g}" '
        f'stroke="{stroke}" stroke-width="{width:g}" />'
    )


def _line_reference(canvas, p0, p1, stroke="#888888", width=1.0, opacity=1.0):
    """SvgCanvas.line before batching, kept verbatim as the oracle."""
    x0, y0 = canvas.map_point(*p0)
    x1, y1 = canvas.map_point(*p1)
    return (
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="{stroke}" stroke-width="{width:g}" stroke-opacity="{opacity:g}" />'
    )


def _circle_reference(canvas, center, radius_px, fill="#000000", stroke="none", width=1.0):
    """SvgCanvas.circle before batching, kept verbatim as the oracle."""
    x, y = canvas.map_point(*center)
    return (
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius_px:g}" fill="{fill}" '
        f'stroke="{stroke}" stroke-width="{width:g}" />'
    )


def _text_reference(canvas, anchor, label, size_px=12, fill="#333333"):
    """SvgCanvas.text before it was formatted by _add, kept verbatim as the oracle."""
    x, y = canvas.map_point(*anchor)
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size_px:g}" '
        f'font-family="monospace" fill="{fill}">{label}</text>'
    )


def _world_circle_reference(canvas, center, radius, stroke="#333333", width=1.0, fill="none"):
    """SvgCanvas.world_circle before it was formatted by _add, kept verbatim as the oracle."""
    x, y = canvas.map_point(*center)
    return (
        f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius * canvas.scale:.2f}" '
        f'fill="{fill}" stroke="{stroke}" stroke-width="{width:g}" />'
    )


def _random_canvas(rng):
    """A canvas over a random bounding box, and the world point at its pixel (0, 0)."""
    lo = rng.uniform(-50.0, 0.0, 2)
    span = rng.uniform(0.1, 90.0, 2)
    canvas = SvgCanvas((lo[0], lo[0] + span[0], lo[1], lo[1] + span[1]))
    half_view = 0.5 * canvas.size / canvas.scale
    return canvas, np.array([canvas._cx - half_view, canvas._cy + half_view])


def test_circles_equal_per_element_bytes(monkeypatch):
    # blocks of 7 rows, so the fills of a batch run on across its blocks
    monkeypatch.setattr(svgout, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(6)
    for trial in range(20):
        canvas, origin = _random_canvas(rng)
        centers = rng.uniform(-200.0, 200.0, (150, 2))
        # points a hair from pixel (0, 0), which format as -0.00 or 0.00
        centers[:10] = origin + rng.uniform(-0.004, 0.004, (10, 2)) / canvas.scale
        fills = rng.choice(["#cc3333", "none", "rgb(10%,20%,30%)"], len(centers)).tolist()
        radius = float(rng.choice([2.5, 3, 1.25e-7]))
        canvas.circles(centers, radius, fills)
        canvas.circles(centers[:3], radius, ["#10%"] * 3)
        canvas.circles(np.zeros((0, 2)), radius, [])
        canvas.circle(tuple(centers[0]), radius, "#000000")
        canvas.circle((1, -2), 4, "#dd8800")
        want = [_circle_reference(canvas, c, radius, fill=f)
                for c, f in zip(centers.tolist(), fills)]
        want += [_circle_reference(canvas, c, radius, fill="#10%") for c in centers[:3].tolist()]
        want += [_circle_reference(canvas, tuple(centers[0]), radius),
                 _circle_reference(canvas, (1, -2), 4, fill="#dd8800")]
        assert canvas.to_string().splitlines()[2:-1] == want
        assert 'cx="-0.00"' in canvas.to_string() or 'cy="-0.00"' in canvas.to_string()


def test_polygons_and_lines_equal_per_element_bytes(monkeypatch):
    monkeypatch.setattr(svgout, "_BLOCK_ROWS", 7)
    rng = np.random.default_rng(5)
    for trial in range(20):
        canvas, origin = _random_canvas(rng)
        polys = rng.uniform(-200.0, 200.0, (150, int(rng.integers(3, 6)), 2))
        # points a hair from pixel (0, 0), which format as -0.00 or 0.00
        polys[:10] = origin + rng.uniform(-0.004, 0.004, (10, polys.shape[1], 2)) / canvas.scale
        fills = rng.choice(["#f0d060", "none", "rgb(10%,20%,30%)"], len(polys)).tolist()
        starts, ends = rng.uniform(-200.0, 200.0, (2, 80, 2))
        stroke, width = "#33%", float(rng.choice([0.8, 1, 1.25e-7]))
        canvas.polygons(polys, fills, stroke, width=width, opacity=0.85)
        canvas.polygons(polys[:3], ["none"] * 3, stroke, width=width)
        canvas.polygons(np.zeros((0, 4, 2)), [], stroke)
        canvas.lines(starts, ends, stroke, width)
        canvas.lines([], [], stroke, width)
        canvas.polygon(polys[0].tolist(), "none", "#000000")
        canvas.line(tuple(starts[0]), tuple(ends[0]), "#888888", 1.0)
        want = [_polygon_reference(canvas, p, fill=f, stroke=stroke, width=width, opacity=0.85)
                for p, f in zip(polys.tolist(), fills)]
        want += [_polygon_reference(canvas, p, stroke=stroke, width=width)
                 for p in polys[:3].tolist()]
        want += [_line_reference(canvas, a, b, stroke=stroke, width=width)
                 for a, b in zip(starts.tolist(), ends.tolist())]
        want += [_polygon_reference(canvas, polys[0].tolist()),
                 _line_reference(canvas, tuple(starts[0]), tuple(ends[0]))]
        assert canvas.to_string().splitlines()[2:-1] == want
        assert "-0.00," in canvas.to_string()


def test_text_and_world_circle_equal_their_former_bytes():
    rng = np.random.default_rng(7)
    labels = ["log10 max_error (red), log10 bound (blue)", "100% %s %d {} %%", ""]
    for trial in range(20):
        canvas, origin = _random_canvas(rng)
        anchors = rng.uniform(-200.0, 200.0, (20, 2))
        # anchors a hair from pixel (0, 0), which format as -0.00 or 0.00
        anchors[:5] = origin + rng.uniform(-0.004, 0.004, (5, 2)) / canvas.scale
        radii = [0.0, 5e-3 / canvas.scale, *rng.uniform(0.0, 300.0, 5)]
        want = []
        for anchor, label in zip(anchors.tolist(), itertools.cycle(labels)):
            canvas.text(tuple(anchor), label)
            want.append(_text_reference(canvas, tuple(anchor), label))
        for radius in radii:
            canvas.world_circle(radius)
            want.append(_world_circle_reference(canvas, (0.0, 0.0), radius, width=1.5))
        assert canvas.to_string().splitlines()[2:-1] == want
        assert 'x="-0.00"' in canvas.to_string() or 'y="-0.00"' in canvas.to_string()


def test_canvas_is_800_pixels_with_a_40_pixel_margin():
    canvas = SvgCanvas((-3.0, 5.0, 1.0, 2.0))
    assert canvas.scale == 720.0 / 8.0
    assert canvas.map_point(-3.0, 1.5) == (40.0, 400.0)
    assert canvas.map_point(5.0, 1.5) == (760.0, 400.0)
    assert canvas.to_string() == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">\n'
        '<rect width="800" height="800" fill="#ffffff" />\n</svg>\n'
    )


def _diverging_color_reference(value, vmax):
    """The one-value color function before the batch form, kept verbatim as the oracle."""
    if vmax <= 0:
        return "#ffffff"
    t = max(-1.0, min(1.0, value / vmax))
    if t >= 0:
        r, g, b = 255, round(255 * (1 - t)), round(255 * (1 - t))
    else:
        r, g, b = round(255 * (1 + t)), round(255 * (1 + t)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def _half_way_ratios():
    """Ratios t in (0, 1) whose 255 * (1 - t) is exactly m + 0.5, for every m that has one."""
    found = []
    for m in range(255):
        t = 1.0 - (m + 0.5) / 255.0
        for _ in range(8):
            if 255 * (1 - t) == m + 0.5:
                found.append(t)
                break
            t = math.nextafter(t, 0.0 if 255 * (1 - t) < m + 0.5 else 1.0)
    return found


def test_diverging_colors_equal_the_scalar_formula_bit_for_bit():
    half = np.array(_half_way_ratios())
    assert len(half) > 100
    # round half to even goes up from odd m + 0.5 and down from even m + 0.5
    assert {round(255 * (1 - t)) > 255 * (1 - t) for t in half} == {True, False}
    rng = np.random.default_rng(8)
    for vmax in (1.0, 2.5, 3.7e-3, 1e300, 1e-300):
        values = np.concatenate([
            [vmax, -vmax, 0.0, -0.0, 2 * vmax, -2 * vmax, math.inf, -math.inf, math.nan],
            half, -half,  # half-way cases at vmax = 1
            rng.uniform(-1.5, 1.5, 500) * vmax,
        ])
        want = [_diverging_color_reference(float(v), vmax) for v in values]
        assert diverging_colors(values, vmax) == want
        assert [diverging_colors([float(v)], vmax)[0] for v in values] == want
    for vmax in (0.0, -1.0):
        assert diverging_colors([0.3, -2.0], vmax) == ["#ffffff", "#ffffff"]
    assert diverging_colors(np.zeros(0), 1.0) == []
    assert diverging_colors(np.array([1.0, -1.0, 0.0, -0.0]), 1.0) == [
        "#ff0000", "#0000ff", "#ffffff", "#ffffff"]


def test_canvas_refuses_a_span_too_small_to_scale():
    # 720 pixels over a span below about 4e-306 overflows the scale to inf
    for span in (2e-310, 4e-306, 5e-324):
        with pytest.raises(ValueError, match="too small to scale onto the canvas"):
            SvgCanvas((0.0, span, -span, 0.0))
    canvas = SvgCanvas((0.0, 5e-306, -5e-306, 0.0))
    assert math.isfinite(canvas.scale)
    assert all(math.isfinite(v) for v in canvas.map_point(5e-306, -5e-306))


def test_canvas_refuses_a_point_that_maps_to_no_finite_coordinate():
    # a finite scale of 3.6e302 times a world offset of 1e10 overflows; so does an inf or nan point
    canvas = SvgCanvas((-1e-300, 1e-300, -1e-300, 1e-300))
    assert math.isfinite(canvas.scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in ((1e10, 0.0), (0.0, -1e10), (math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="too far outside the canvas"):
                canvas.map_point(x, y)
            with pytest.raises(ValueError, match="too far outside the canvas"):
                canvas.circles([(0.0, 0.0), (x, y)], 2.0, ["none", "none"])
            with pytest.raises(ValueError, match="too far outside the canvas"):
                canvas.polygons([[(0.0, 0.0), (x, y), (0.0, 1e-300)]], ["none"], "#000000")
        assert all(math.isfinite(v) for v in canvas.map_point(1e-300, -1e-300))
    assert canvas.to_string().count("\n") == 3


_BOX = (-1.0, 2.0, -3.0, 4.0)


def test_clip_axis_parallel_line_spans_the_box_or_misses_it():
    # a zero direction component takes the abs(d) < 1e-15 branch
    assert svgout.clip_line_to_box((0.5, 0.0), (0.0, 1.0), _BOX) == ((0.5, -3.0), (0.5, 4.0))
    assert svgout.clip_line_to_box((0.0, 1.0), (2.0, 1e-16), _BOX) == ((-1.0, 1.0), (2.0, 1.0))
    assert svgout.clip_line_to_box((3.0, 0.0), (0.0, 1.0), _BOX) is None
    assert svgout.clip_line_to_box((0.0, -3.5), (1.0, 0.0), _BOX) is None


def test_clip_line_touching_a_corner_or_missing_the_box_is_none():
    assert svgout.clip_line_to_box((2.0, 4.0), (1.0, -1.0), _BOX) is None
    assert svgout.clip_line_to_box((6.0, 0.0), (1.0, 1.0), _BOX) is None


def test_clip_diagonal_line_ends_on_the_box_either_way():
    point, direction = (0.5, 0.25), (0.3, 0.7)
    ends = svgout.clip_line_to_box(point, direction, _BOX)
    xmin, xmax, ymin, ymax = _BOX
    for x, y in ends:
        assert xmin - 1e-12 <= x <= xmax + 1e-12 and ymin - 1e-12 <= y <= ymax + 1e-12
        on_edge = min(abs(x - xmin), abs(x - xmax), abs(y - ymin), abs(y - ymax))
        assert on_edge <= 1e-12
        # on the line through point along direction
        assert abs((x - point[0]) * direction[1] - (y - point[1]) * direction[0]) <= 1e-12
    # it enters through the bottom edge and leaves through the right one
    assert ends[0][1] == ymin and ends[1][0] == xmax
    reversed_ends = svgout.clip_line_to_box(point, (-0.3, -0.7), _BOX)
    assert reversed_ends == ends[::-1]
