"""Tests for the batched SVG element writers."""

import numpy as np

from pentawave.svgout import SvgCanvas


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
