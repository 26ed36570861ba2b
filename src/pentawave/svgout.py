"""Minimal hand-rolled SVG output: schematic lines, circles, and polygons.

World coordinates map linearly onto a square pixel viewport with the y
axis flipped (world +y is up, SVG +y is down). The world bounding box
given at construction is centered and scaled uniformly to fill the
viewport minus a margin, so aspect ratio is preserved. No rasterization
and no third-party drawing dependency.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_BLOCK_ROWS = 1 << 12  # rows of elements mapped, formatted and held as one text at a time


def diverging_colors(values, vmax):
    """Blue-white-red hex colors for values in [-vmax, vmax], one per value, in one array pass.

    t = value / vmax clipped to [-1, 1] (NaN reads as 1); t >= 0 fades green
    and blue to round(255 * (1 - t)), t < 0 fades red and green to
    round(255 * (1 + t)); rounding is half to even.
    """
    values = np.asarray(values, dtype=float).ravel()
    if vmax <= 0:
        return ["#ffffff"] * len(values)
    t = np.fmax(-1.0, np.fmin(1.0, values / vmax))
    # 1 - |t| equals 1 + t exactly for t < 0
    fade = np.rint(255 * (1 - np.abs(t))).astype(np.int64)
    warm = t >= 0
    rgb = np.where(warm, 255, fade) << 16 | fade << 8 | np.where(warm, fade, 255)
    return ["#%06x" % code for code in rgb.tolist()]


class SvgCanvas:
    """Accumulates SVG elements in world coordinates and serializes them."""

    def __init__(self, world_bbox, size=800, margin=40):
        xmin, xmax, ymin, ymax = (float(v) for v in world_bbox)
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("world_bbox must have positive extent")
        self.size = int(size)
        span = max(xmax - xmin, ymax - ymin)
        self.scale = (self.size - 2.0 * margin) / span
        if not math.isfinite(self.scale):
            raise ValueError(f"a world span of {span:g} is too small to scale onto the canvas")
        self._cx = 0.5 * (xmin + xmax)
        self._cy = 0.5 * (ymin + ymax)
        self._elements = []

    def map_point(self, x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            px = 0.5 * self.size + self.scale * (x - self._cx)
            py = 0.5 * self.size - self.scale * (y - self._cy)
        if not (np.isfinite(px).all() and np.isfinite(py).all()):
            raise ValueError("a world point lies too far outside the canvas to map onto it")
        return px, py

    def _add(self, template, xy, extras):
        """One element per row of xy, world points: template % (mapped row, *next(extras)),
        and a newline. Held as one text per block of rows, so a drawing is a few long strings."""
        for start in range(0, len(xy), _BLOCK_ROWS):
            block = xy[start:start + _BLOCK_ROWS]
            mapped = np.stack(self.map_point(block[..., 0], block[..., 1]), axis=-1)
            rows = zip(mapped.reshape(len(block), -1).tolist(), extras)
            self._elements.append("\n".join(template % (*r, *e) for r, e in rows) + "\n")

    def line(self, p0, p1, stroke="#888888", width=1.0, opacity=1.0):
        self.lines([p0], [p1], stroke=stroke, width=width, opacity=opacity)

    def lines(self, starts, ends, stroke="#888888", width=1.0, opacity=1.0):
        """One line per row of starts and ends, (n, 2) arrays of world points.

        Formatted with one template, in the bytes line() writes.
        """
        xy = np.hstack([np.asarray(starts, dtype=float).reshape(-1, 2),
                        np.asarray(ends, dtype=float).reshape(-1, 2)])
        style = f'stroke="{stroke}" stroke-width="{width:g}" stroke-opacity="{opacity:g}"'
        template = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" {} />'.format(
            style.replace("%", "%%")
        )
        self._add(template, xy.reshape(-1, 2, 2), itertools.repeat(()))

    def circle(self, center, radius_px, fill="#000000", stroke="none", width=1.0):
        self.circles([center], radius_px, fill=[fill], stroke=stroke, width=width)

    def circles(self, centers, radius_px, fill="#000000", stroke="none", width=1.0):
        """One circle of radius_px pixels per row of centers, an (n, 2) array of world points.

        fill is one color for all of them or a sequence of n colors. Formatted
        with one template, in the bytes circle() writes.
        """
        style = f'stroke="{stroke}" stroke-width="{width:g}"'
        template = '<circle cx="%.2f" cy="%.2f" r="{:g}" fill="%s" {} />'.format(
            radius_px, style.replace("%", "%%")
        )
        fills = itertools.repeat((fill,)) if isinstance(fill, str) else zip(fill)
        self._add(template, np.asarray(centers, dtype=float).reshape(-1, 2), fills)

    def polygon(self, points, fill="none", stroke="#000000", width=1.0, opacity=1.0):
        self.polygons([points], fill=fill, stroke=stroke, width=width, opacity=opacity)

    def polygons(self, polys, fill="none", stroke="#000000", width=1.0, opacity=1.0):
        """One polygon per row of polys, an (n, m, 2) array of world vertices.

        fill is one color for all of them or a sequence of n colors. Each
        element is formatted with one template, in the bytes polygon() writes.
        """
        polys = np.asarray(polys, dtype=float)
        if len(polys) == 0:
            return
        points = " ".join(["%.2f,%.2f"] * polys.shape[1])
        style = f'fill-opacity="{opacity:g}" stroke="{stroke}" stroke-width="{width:g}"'
        template = '<polygon points="{}" fill="%s" {} />'.format(points, style.replace("%", "%%"))
        fills = itertools.repeat((fill,)) if isinstance(fill, str) else zip(fill)
        self._add(template, polys, fills)

    def text(self, anchor, label, size_px=12, fill="#333333"):
        x, y = self.map_point(*anchor)
        self._elements.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size_px:g}" '
            f'font-family="monospace" fill="{fill}">{label}</text>\n'
        )

    def world_circle(self, center, radius, stroke="#333333", width=1.0, fill="none"):
        """Circle whose radius is given in world units rather than pixels."""
        x, y = self.map_point(*center)
        self._elements.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius * self.scale:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{width:g}" />\n'
        )

    def _pieces(self):
        """The document's text in order: the head, each text of elements, the tail."""
        yield (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">\n'
            f'<rect width="{self.size}" height="{self.size}" fill="#ffffff" />\n'
        )
        yield from self._elements
        yield "</svg>\n"

    def to_string(self):
        return "".join(self._pieces())

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._pieces())


def clip_line_to_box(point, direction, bbox):
    """Clip the infinite line point + t*direction to a rectangle.

    Returns (p0, p1) world endpoints, or None when the line misses the box.
    """
    xmin, xmax, ymin, ymax = bbox
    px, py = point
    dx, dy = direction
    t_lo, t_hi = -math.inf, math.inf
    for p, d, lo, hi in ((px, dx, xmin, xmax), (py, dy, ymin, ymax)):
        if abs(d) < 1e-15:
            if p < lo or p > hi:
                return None
            continue
        t0, t1 = (lo - p) / d, (hi - p) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
    if t_lo >= t_hi:
        return None
    return (
        (px + t_lo * dx, py + t_lo * dy),
        (px + t_hi * dx, py + t_hi * dy),
    )
