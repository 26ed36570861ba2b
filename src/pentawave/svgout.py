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
    """Accumulates SVG elements in world coordinates and serializes them.

    Every element is formatted by _add; the styles no command varies are
    written into the templates.
    """

    size = 800  # pixels on each side of the square viewport
    margin = 40  # pixels kept clear around the world bounding box

    def __init__(self, world_bbox):
        xmin, xmax, ymin, ymax = (float(v) for v in world_bbox)
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("world_bbox must have positive extent")
        span = max(xmax - xmin, ymax - ymin)
        self.scale = (self.size - 2.0 * self.margin) / span
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
        xy, extras = np.asarray(xy, dtype=float), iter(extras)
        for start in range(0, len(xy), _BLOCK_ROWS):
            block = xy[start:start + _BLOCK_ROWS]
            mapped = np.stack(self.map_point(block[..., 0], block[..., 1]), axis=-1)
            rows = zip(mapped.reshape(len(block), -1).tolist(), extras)
            self._elements.append("\n".join(template % (*r, *e) for r, e in rows) + "\n")

    def line(self, p0, p1, stroke, width):
        self.lines([p0], [p1], stroke, width)

    def lines(self, starts, ends, stroke, width):
        """One line per row of starts and ends, (n, 2) arrays of world points."""
        xy = np.hstack([np.asarray(starts, dtype=float).reshape(-1, 2),
                        np.asarray(ends, dtype=float).reshape(-1, 2)])
        template = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                    f'stroke="%s" stroke-width="{width:g}" stroke-opacity="1" />')
        self._add(template, xy.reshape(-1, 2, 2), itertools.repeat((stroke,)))

    def circle(self, center, radius_px, fill):
        self.circles([center], radius_px, [fill])

    def circles(self, centers, radius_px, fills):
        """One circle of radius_px pixels per row of centers, an (n, 2) array of world
        points, filled with the color of its row in fills."""
        template = (f'<circle cx="%.2f" cy="%.2f" r="{radius_px:g}" fill="%s" '
                    'stroke="none" stroke-width="1" />')
        self._add(template, centers, zip(fills))

    def polygon(self, points, fill, stroke, width=1.0, opacity=1.0):
        self.polygons([points], [fill], stroke, width, opacity)

    def polygons(self, polys, fills, stroke, width=1.0, opacity=1.0):
        """One polygon per row of polys, an (n, m, 2) array of world vertices, filled
        with the color of its row in fills."""
        polys = np.asarray(polys, dtype=float)
        if len(polys) == 0:
            return
        points = " ".join(["%.2f,%.2f"] * polys.shape[1])
        template = (f'<polygon points="{points}" fill="%s" fill-opacity="{opacity:g}" '
                    f'stroke="%s" stroke-width="{width:g}" />')
        self._add(template, polys, zip(fills, itertools.repeat(stroke)))

    def text(self, anchor, label):
        template = ('<text x="%.2f" y="%.2f" font-size="12" font-family="monospace" '
                    'fill="#333333">%s</text>')
        self._add(template, [anchor], [(label,)])

    def world_circle(self, radius):
        """The rim: a circle about the world origin whose radius is in world units."""
        template = ('<circle cx="%.2f" cy="%.2f" r="%.2f" fill="none" '
                    'stroke="#333333" stroke-width="1.5" />')
        self._add(template, [(0.0, 0.0)], [(radius * self.scale,)])

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
