"""Pentagrid regions, dual rhombus tiling, and extremum registration.

The pentagrid is the zero set of the five-sine product at grid wavenumber
c: five families of parallel lines with normals e_i and spacing pi/c, all
offsets zero, so every family passes through the origin. Regions between
lines carry the strip-index 5-tuple m_i = floor(c*a_i/pi); dualization in
de Bruijn's sense sends a region to the tiling-space vertex sum_i m_i e_i
and each transverse line intersection to a unit-edge rhombus. A
least-squares similarity transform registers dual vertices against field
extrema and scores the match in units of the fitted tile edge.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .extrema import KIND_MAXIMUM, KIND_MINIMUM, _same_columns
from .wavefield import _DIRECTIONS, _combine, project

THIN = "thin"
THICK = "thick"

# Distance from a grid line, in grid spacings, within which tiles and
# matching_correspondences treat a point as on the line unless given their own.
_ON_LINE_SPACINGS = 1e-9


@dataclass(frozen=True)
class PentagridSpec:
    """Grid wavenumber c; line family i is {p : c * a_i(p) = m*pi, m integer}."""

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be finite and positive")
        if not math.isfinite(self.spacing):
            raise ValueError("c is too small: the line spacing pi/c overflows")

    @property
    def spacing(self):
        return math.pi / self.c


def _strip_coords(spec, pts):
    """Projections in units of the line spacing: t_i = c * a_i / pi."""
    return spec.c * project(pts) / math.pi


def region_indices(spec, pts):
    """Vectorized strip indices and line margins for a batch of points.

    Returns (m, margin): m has shape (..., 5) with m_i = floor(c*a_i/pi) and
    margin is the distance from each point to the nearest grid line of any
    family. No boundary check is applied; callers filter on margin.
    """
    t = _strip_coords(spec, pts)
    margin = spec.spacing * np.abs(t - np.round(t)).min(axis=-1)
    return np.floor(t).astype(np.int64), margin


def region_sign(iv):
    """Sign of the product field on the region: (-1) to the sum of the indices."""
    arr = np.asarray(iv)
    s = np.where(arr.sum(axis=-1) % 2 == 0, 1, -1)
    return int(s) if s.ndim == 0 else s


def dual_vertices(m):
    """Tiling-space vertices sum_i m_i e_i of region indices m (..., 5), as (..., 2).

    Each index vector is combined as a stacked single row, so a batch rounds
    row by row as one index vector does.
    """
    return _combine(np.asarray(m, dtype=float)[..., None, :])[..., 0, :]


@dataclass(frozen=True, eq=False)
class TilingPatch:
    """Tiles dualized from a window as columns, plus the count of skipped singular crossings.

    Row n of vertices (n, 4, 2), thin (bool), families (n, 2) and
    intersection (n, 2) is one unit-edge rhombus, dual to one transverse grid
    intersection: its four dual-vertex positions in cyclic order, whether it
    is thin (acute angle 36 degrees) or thick (72 degrees), the two line
    families i < j whose crossing it dualizes, and that grid-space crossing.
    """

    vertices: np.ndarray
    thin: np.ndarray
    families: np.ndarray
    intersection: np.ndarray
    skipped_singular: int

    __eq__ = _same_columns

    @property
    def tiles(self):
        """The vertices, one row per tile; perfbench/trace_child.py counts tiles by its len."""
        return self.vertices


# Quadrant visit order around an intersection that walks the rhombus
# perimeter (not its diagonals): lower-lower, upper-lower, upper-upper,
# lower-upper in the (i, j) strip coordinates.
_QUADRANTS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _line_ranges(spec, window):
    """First and last line index of each family that meets the window, as floats."""
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    if not (xmin < xmax and ymin < ymax) or not all(
        math.isfinite(v) for v in (xmin, xmax, ymin, ymax)
    ):
        raise ValueError("window must be a finite rectangle with positive area")
    corners = np.array([[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]])
    corner_t = project(corners) / spec.spacing
    return np.ceil(corner_t.min(axis=0) - 1e-12), np.floor(corner_t.max(axis=0) + 1e-12)


def crossing_count(spec, window):
    """Number of line pairs tiles() intersects for the window, counted before any allocation.

    Returned as a float, which is inf when the count does not fit a double.
    """
    line_lo, line_hi = _line_ranges(spec, window)
    lines = np.maximum(line_hi - line_lo + 1.0, 0.0)
    with np.errstate(over="ignore"):
        return float(sum(lines[i] * lines[j] for i, j in itertools.combinations(range(5), 2)))


def tiles(spec, window, singular_eps=None):
    """Dualize every transverse pair intersection inside the window.

    Intersections within singular_eps (default _ON_LINE_SPACINGS * spacing)
    of a line from a third family are singular in de Bruijn's sense (three or
    more lines meet, as at the origin of this zero-offset grid); they produce
    no tile and are tallied in skipped_singular. Thin tiles come from family
    pairs at cyclic distance 2 or 3, thick tiles from distance 1 or 4.
    Each family pair is dualized as one batch, its vertices by dual_vertices.
    """
    if singular_eps is None:
        singular_eps = _ON_LINE_SPACINGS * spec.spacing
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    spacing = spec.spacing
    line_lo, line_hi = (v.astype(int) for v in _line_ranges(spec, window))

    columns = []
    skipped = 0
    for i, j in itertools.combinations(range(5), 2):
        others = [l for l in range(5) if l != i and l != j]
        inv = np.linalg.inv(_DIRECTIONS[[i, j]])
        rr, ss = np.meshgrid(np.arange(line_lo[i], line_hi[i] + 1),
                             np.arange(line_lo[j], line_hi[j] + 1), indexing="ij")
        line_ids = np.column_stack([rr.ravel(), ss.ravel()]).astype(float)
        pts = (line_ids * spacing) @ inv.T
        in_window = (
            (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
            & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
        )
        pts, line_ids = pts[in_window], line_ids[in_window]
        t = _strip_coords(spec, pts)
        t_other = t[:, others]
        singular = spacing * np.abs(t_other - np.round(t_other)).min(axis=1) <= singular_eps
        skipped += int(singular.sum())
        pts, line_ids = pts[~singular], line_ids[~singular]
        base = np.floor(t[~singular])
        base[:, [i, j]] = line_ids - 1.0
        corners = np.repeat(base[:, None, :], len(_QUADRANTS), axis=1)
        corners[:, :, [i, j]] += _QUADRANTS
        columns.append((
            dual_vertices(corners),
            np.full(len(pts), (j - i) in (2, 3)),
            np.tile((i, j), (len(pts), 1)),
            pts,
        ))
    vertices, thin, families, intersection = map(np.concatenate, zip(*columns))
    return TilingPatch(vertices, thin, families, intersection, skipped)


@dataclass(frozen=True)
class SimilarityTransform:
    """Scale, rotation (radians), and translation mapping source to target points."""

    scale: float
    rotation: float
    translation: tuple[float, float]

    def apply(self, pts):
        arr = np.asarray(pts, dtype=float)
        c = self.scale * math.cos(self.rotation)
        s = self.scale * math.sin(self.rotation)
        x, y = arr[..., 0], arr[..., 1]
        return np.stack(
            [c * x - s * y + self.translation[0], s * x + c * y + self.translation[1]],
            axis=-1,
        )


def fit_similarity(pairs):
    """Least-squares similarity from source to target points, closed form.

    pairs is a sequence of (source, target) points, or an (n, 2, 2) array of
    them. Treats points as planar complex values: after centering both sets,
    alpha = sum(conj(zs) * zt) / sum(|zs|^2) carries the scale (modulus) and
    rotation (argument); the translation aligns the centroids. Raises on
    fewer than two pairs or coincident sources.
    """
    pairs = np.asarray(pairs, dtype=float)
    if len(pairs) < 2:
        raise ValueError("need at least two source/target pairs")
    zs = pairs[:, 0, 0] + 1j * pairs[:, 0, 1]
    zt = pairs[:, 1, 0] + 1j * pairs[:, 1, 1]
    zs_c = zs - zs.mean()
    zt_c = zt - zt.mean()
    denom = float(np.sum(np.abs(zs_c) ** 2))
    if denom == 0.0:
        raise ValueError("need at least two distinct source points")
    alpha = complex(np.sum(np.conj(zs_c) * zt_c) / denom)
    scale = abs(alpha)
    if scale == 0.0:
        raise ValueError("degenerate fit: zero cross-covariance")
    shift = complex(zt.mean() - alpha * zs.mean())
    return SimilarityTransform(
        scale=float(scale),
        rotation=math.atan2(alpha.imag, alpha.real),
        translation=(float(shift.real), float(shift.imag)),
    )


@dataclass(frozen=True, eq=False)
class Correspondences:
    """Matched extrema as columns, one row per extremum.

    rows are the extrema's rows in the CriticalSet they came from, index the
    region index vectors (n, 5) of region_indices and position the dual
    vertex positions (n, 2) of dual_vertices.
    """

    rows: np.ndarray
    index: np.ndarray
    position: np.ndarray

    __eq__ = _same_columns


def matching_correspondences(spec, extrema, disk_radius, boundary_eps=None):
    """Region index and dual vertex of each extremum of a CriticalSet used for matching.

    Keeps maxima and minima only, trims extrema within one grid spacing of
    the rim of the searched disk of radius disk_radius (edge regions are
    truncated and would bias the fit), and drops those within boundary_eps
    (default _ON_LINE_SPACINGS * spacing) of any grid line, where the region
    is undefined. Returns (kept, correspondences, excluded_near_singular): kept
    holds the rows of the extrema that passed the kind and rim filters, and
    correspondences those of them that were matched. All extrema are indexed
    as stacked single points, so each rounds as region_indices of that one
    point does.
    """
    if boundary_eps is None:
        boundary_eps = _ON_LINE_SPACINGS * spec.spacing
    kept = np.flatnonzero(extrema.of_kind(KIND_MAXIMUM, KIND_MINIMUM))
    # math.hypot, not np.hypot: the two round differently
    x, y = extrema.location[kept].T.tolist()
    kept = kept[np.array(list(map(math.hypot, x, y))) <= disk_radius - spec.spacing]
    m, margin = region_indices(spec, extrema.location[kept, None, :])
    usable = margin[:, 0] > boundary_eps
    m = m[usable, 0]
    matched = Correspondences(kept[usable], m, dual_vertices(m))
    return kept, matched, len(kept) - len(matched.rows)


@dataclass(frozen=True)
class MatchReport:
    """Registration quality of dual tiling vertices against field extrema.

    num_extrema counts the maxima/minima that entered matching after the
    boundary trim; excluded_near_singular of them were dropped for sitting
    too close to a grid line. residuals (one per matched extremum, in units
    of the fitted physical tile edge) drive the summary statistics.
    dual_position_collisions counts matched regions whose dual vertex
    coincides with that of a different matched region. correspondences
    holds the Correspondences the fit used, in the order of residuals.
    """

    num_extrema: int
    num_regions_hit: int
    regions_with_exactly_one: int
    residuals: tuple[float, ...]
    mean_residual: float
    median_residual: float
    max_residual: float
    excluded_near_singular: int
    dual_position_collisions: int
    transform: SimilarityTransform
    correspondences: Correspondences


def _median(values):
    """np.median of a nonempty 1-D array without NaN, bit for bit, without the NaN check
    that imports numpy.ma (about 10 ms): the np.mean of its middle value or two."""
    n = len(values)
    return np.mean(np.sort(values)[(n - 1) // 2:n // 2 + 1])


def match_report(spec, extrema, disk_radius, boundary_eps=None):
    """Register dual vertices against the extrema of a CriticalSet and score the correspondence.

    Fits the least-squares similarity from dual-vertex positions to extremum
    locations over all retained correspondences and reports per-extremum
    residuals in units of the fitted scale (the physical tile edge), region
    occupancy counts, and exclusion tallies. Deterministic for fixed inputs.
    Raises ValueError when fewer than two usable correspondences remain.
    """
    kept, matched, excluded = matching_correspondences(spec, extrema, disk_radius, boundary_eps)
    if len(matched.rows) < 2:
        raise ValueError("insufficient extrema for registration (need at least 2)")
    sources, targets = matched.position, extrema.location[matched.rows]
    _, first, occupancy = np.unique(matched.index, axis=0, return_index=True,
                                    return_counts=True)
    # Python's round, not np.round: the two can differ in the last place.
    groups = Counter((round(x, 6), round(y, 6)) for x, y in sources[first].tolist())
    transform = fit_similarity(np.stack([sources, targets], axis=1))
    residuals = np.hypot(*(transform.apply(sources) - targets).T) / transform.scale
    return MatchReport(
        num_extrema=len(kept),
        num_regions_hit=len(occupancy),
        regions_with_exactly_one=int((occupancy == 1).sum()),
        residuals=tuple(residuals.tolist()),
        mean_residual=float(np.mean(residuals)),
        median_residual=float(_median(residuals)),
        max_residual=float(np.max(residuals)),
        excluded_near_singular=excluded,
        dual_position_collisions=sum(n for n in groups.values() if n > 1),
        transform=transform,
        correspondences=matched,
    )
