"""Tests for the batched SVG element writers."""

import math

import numpy as np

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


def test_circles_equal_per_element_bytes():
    rng = np.random.default_rng(6)
    for trial in range(20):
        lo = rng.uniform(-50.0, 0.0, 2)
        bbox = (lo[0], lo[0] + rng.uniform(0.1, 90.0), lo[1], lo[1] + rng.uniform(0.1, 90.0))
        canvas = SvgCanvas(bbox, size=int(rng.integers(100, 1200)))
        centers = rng.uniform(-200.0, 200.0, (150, 2))
        # points a hair from pixel (0, 0), which format as -0.00 or 0.00
        half_view = 0.5 * canvas.size / canvas.scale
        origin = np.array([canvas._cx - half_view, canvas._cy + half_view])
        centers[:10] = origin + rng.uniform(-0.004, 0.004, (10, 2)) / canvas.scale
        fills = rng.choice(["#cc3333", "none", "rgb(10%,20%,30%)"], len(centers)).tolist()
        radius = float(rng.choice([2.5, 3, 1.25e-7]))
        style = dict(stroke=str(rng.choice(["none", "#33%"])), width=float(rng.choice([1, 0.8])))
        canvas.circles(centers, radius, fill=fills, **style)
        canvas.circles(centers[:3], radius, fill="#10%", **style)
        canvas.circles(np.zeros((0, 2)), radius, **style)
        canvas.circle(tuple(centers[0]), radius)
        canvas.circle((1, -2), 4, fill="#dd8800", **style)
        want = [_circle_reference(canvas, c, radius, fill=f, **style)
                for c, f in zip(centers.tolist(), fills)]
        want += [_circle_reference(canvas, c, radius, fill="#10%", **style)
                 for c in centers[:3].tolist()]
        want += [_circle_reference(canvas, tuple(centers[0]), radius),
                 _circle_reference(canvas, (1, -2), 4, fill="#dd8800", **style)]
        assert canvas._elements == want
        assert 'cx="-0.00"' in canvas.to_string() or 'cy="-0.00"' in canvas.to_string()


def test_polygons_and_lines_equal_per_element_bytes():
    rng = np.random.default_rng(5)
    for trial in range(20):
        lo = rng.uniform(-50.0, 0.0, 2)
        bbox = (lo[0], lo[0] + rng.uniform(0.1, 90.0), lo[1], lo[1] + rng.uniform(0.1, 90.0))
        canvas = SvgCanvas(bbox, size=int(rng.integers(100, 1200)))
        polys = rng.uniform(-200.0, 200.0, (150, int(rng.integers(3, 6)), 2))
        # points a hair from pixel (0, 0), which format as -0.00 or 0.00
        half_view = 0.5 * canvas.size / canvas.scale
        origin = np.array([canvas._cx - half_view, canvas._cy + half_view])
        polys[:10] = origin + rng.uniform(-0.004, 0.004, (10, polys.shape[1], 2)) / canvas.scale
        fills = rng.choice(["#f0d060", "none", "rgb(10%,20%,30%)"], len(polys)).tolist()
        starts, ends = rng.uniform(-200.0, 200.0, (2, 80, 2))
        style = dict(stroke="#33%", width=float(rng.choice([0.8, 1, 1.25e-7])), opacity=0.85)
        canvas.polygons(polys, fill=fills, **style)
        canvas.polygons(polys[:3], **style)
        canvas.polygons(np.zeros((0, 4, 2)), **style)
        canvas.lines(starts, ends, **style)
        canvas.polygon(polys[0].tolist())
        canvas.line(tuple(starts[0]), tuple(ends[0]))
        want = [_polygon_reference(canvas, p, fill=f, **style)
                for p, f in zip(polys.tolist(), fills)]
        want += [_polygon_reference(canvas, p, **style) for p in polys[:3].tolist()]
        want += [_line_reference(canvas, a, b, **style)
                 for a, b in zip(starts.tolist(), ends.tolist())]
        want += [_polygon_reference(canvas, polys[0].tolist()),
                 _line_reference(canvas, tuple(starts[0]), tuple(ends[0]))]
        assert canvas._elements == want
        assert "-0.00," in canvas.to_string()


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
