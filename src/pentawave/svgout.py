"""Minimal hand-rolled SVG output: schematic lines, circles, and polygons.

World coordinates map linearly onto a square pixel viewport with the y
axis flipped (world +y is up, SVG +y is down). The world bounding box
given at construction is centered and scaled uniformly to fill the
viewport minus a margin, so aspect ratio is preserved. No rasterization
and no third-party drawing dependency.
"""

from __future__ import annotations

import math

import numpy as np


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
        self._scale = (self.size - 2.0 * margin) / span
        self._cx = 0.5 * (xmin + xmax)
        self._cy = 0.5 * (ymin + ymax)
        self._elements = []

    def map_point(self, x, y):
        px = 0.5 * self.size + self._scale * (x - self._cx)
        py = 0.5 * self.size - self._scale * (y - self._cy)
        return px, py

    @property
    def scale(self):
        return self._scale

    def _map_points(self, xy):
        """map_point over the trailing axis of an array of world points, same bits."""
        return np.stack(self.map_point(xy[..., 0], xy[..., 1]), axis=-1)

    def line(self, p0, p1, stroke="#888888", width=1.0, opacity=1.0):
        self.lines([p0], [p1], stroke=stroke, width=width, opacity=opacity)

    def lines(self, starts, ends, stroke="#888888", width=1.0, opacity=1.0):
        """One line per row of starts and ends, (n, 2) arrays of world points.

        Formatted with one template, in the bytes line() writes.
        """
        xy = np.hstack([np.asarray(starts, dtype=float).reshape(-1, 2),
                        np.asarray(ends, dtype=float).reshape(-1, 2)])
        coords = self._map_points(xy.reshape(-1, 2, 2)).reshape(-1, 4).tolist()
        style = f'stroke="{stroke}" stroke-width="{width:g}" stroke-opacity="{opacity:g}"'
        template = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" {} />'.format(
            style.replace("%", "%%")
        )
        self._elements.extend(template % tuple(c) for c in coords)

    def circle(self, center, radius_px, fill="#000000", stroke="none", width=1.0):
        self.circles([center], radius_px, fill=[fill], stroke=stroke, width=width)

    def circles(self, centers, radius_px, fill="#000000", stroke="none", width=1.0):
        """One circle of radius_px pixels per row of centers, an (n, 2) array of world points.

        fill is one color for all of them or a sequence of n colors. Formatted
        with one template, in the bytes circle() writes.
        """
        coords = self._map_points(np.asarray(centers, dtype=float).reshape(-1, 2)).tolist()
        fills = [fill] * len(coords) if isinstance(fill, str) else fill
        style = f'stroke="{stroke}" stroke-width="{width:g}"'
        template = '<circle cx="%.2f" cy="%.2f" r="{:g}" fill="%s" {} />'.format(
            radius_px, style.replace("%", "%%")
        )
        self._elements.extend(template % (x, y, color) for (x, y), color in zip(coords, fills))

    def polygon(self, points, fill="none", stroke="#000000", width=1.0, opacity=1.0):
        self.polygons([points], fill=fill, stroke=stroke, width=width, opacity=opacity)

    def polygons(self, polys, fill="none", stroke="#000000", width=1.0, opacity=1.0):
        """One polygon per row of polys, an (n, m, 2) array of world vertices.

        fill is one color for all of them or a sequence of n colors. All
        vertices are mapped in one array pass and each element is formatted
        with one template, in the bytes polygon() writes.
        """
        polys = np.asarray(polys, dtype=float)
        if len(polys) == 0:
            return
        coords = self._map_points(polys).reshape(len(polys), -1).tolist()
        fills = [fill] * len(coords) if isinstance(fill, str) else fill
        points = " ".join(["%.2f,%.2f"] * polys.shape[1])
        style = f'fill-opacity="{opacity:g}" stroke="{stroke}" stroke-width="{width:g}"'
        template = '<polygon points="{}" fill="%s" {} />'.format(points, style.replace("%", "%%"))
        self._elements.extend(template % (*xy, color) for xy, color in zip(coords, fills))

    def text(self, anchor, label, size_px=12, fill="#333333"):
        x, y = self.map_point(*anchor)
        self._elements.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size_px:g}" '
            f'font-family="monospace" fill="{fill}">{label}</text>'
        )

    def world_circle(self, center, radius, stroke="#333333", width=1.0, fill="none"):
        """Circle whose radius is given in world units rather than pixels."""
        x, y = self.map_point(*center)
        self._elements.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius * self._scale:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{width:g}" />'
        )

    def to_string(self):
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">'
        )
        background = f'<rect width="{self.size}" height="{self.size}" fill="#ffffff" />'
        return "\n".join([head, background, *self._elements, "</svg>"]) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_string())


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
