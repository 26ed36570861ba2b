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

from .extrema import KIND_MAXIMUM, KIND_MINIMUM
from .wavefield import _as_points, direction_basis

_E = direction_basis()

THIN = "thin"
THICK = "thick"


class OnBoundaryError(ValueError):
    """Point lies within boundary_eps of a grid line, so its region is undefined."""


@dataclass(frozen=True)
class PentagridSpec:
    """Grid wavenumber c; line family i is {p : c * a_i(p) = m*pi, m integer}."""

    c: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be finite and positive")

    @property
    def spacing(self):
        return math.pi / self.c


def _strip_coords(spec, pts):
    """Projections in units of the line spacing: t_i = c * a_i / pi."""
    return spec.c * (_as_points(pts) @ _E.T) / math.pi


def region_indices(spec, pts):
    """Vectorized strip indices and line margins for a batch of points.

    Returns (m, margin): m has shape (..., 5) with m_i = floor(c*a_i/pi) and
    margin is the distance from each point to the nearest grid line of any
    family. No boundary check is applied; callers filter on margin.
    """
    t = _strip_coords(spec, pts)
    margin = spec.spacing * np.abs(t - np.round(t)).min(axis=-1)
    return np.floor(t).astype(np.int64), margin


def index_vector(spec, p, boundary_eps=None):
    """Strip indices m_i = floor(c*a_i/pi) of the region containing one point.

    Raises OnBoundaryError when the point lies within boundary_eps (default
    1e-9 * spacing) of any grid line, where the floor is unreliable.
    """
    if boundary_eps is None:
        boundary_eps = 1e-9 * spec.spacing
    m, margin = region_indices(spec, p)
    if m.ndim != 1:
        raise ValueError("index_vector expects a single point; use region_indices for batches")
    if margin <= boundary_eps:
        raise OnBoundaryError(
            f"point within {boundary_eps:g} of a grid line; region index undefined"
        )
    return tuple(int(v) for v in m)


def region_sign(iv):
    """Sign of the product field on the region: (-1) to the sum of the indices."""
    arr = np.asarray(iv)
    s = np.where(arr.sum(axis=-1) % 2 == 0, 1, -1)
    return int(s) if s.ndim == 0 else s


@dataclass(frozen=True)
class DualVertex:
    """Tiling-space vertex of a region: position = sum_i m_i e_i, unit edges."""

    index: tuple[int, int, int, int, int]
    position: tuple[float, float]


def dual_vertex(iv):
    """Dualize a region index to its tiling-space vertex."""
    m = np.asarray(iv, dtype=float)
    pos = m @ _E
    return DualVertex(
        index=tuple(int(v) for v in iv),
        position=(float(pos[0]), float(pos[1])),
    )


@dataclass(frozen=True)
class RhombusTile:
    """Unit-edge rhombus dual to one transverse grid intersection.

    vertices are the four dual-vertex positions in cyclic order; kind is
    thin (acute angle 36 degrees) or thick (72 degrees); families are the
    two line families (i < j) whose intersection the tile dualizes, and
    intersection is that grid-space crossing point.
    """

    vertices: tuple[tuple[float, float], ...]
    kind: str
    families: tuple[int, int]
    intersection: tuple[float, float]


@dataclass(frozen=True)
class TilingPatch:
    """Tiles dualized from a window, plus the count of skipped singular crossings."""

    tiles: tuple[RhombusTile, ...]
    skipped_singular: int


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
    corners = np.array(
        [[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]]
    )
    corner_t = corners @ _E.T / spec.spacing
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

    Intersections within singular_eps (default 1e-9 * spacing) of a line
    from a third family are singular in de Bruijn's sense (three or more
    lines meet, as at the origin of this zero-offset grid); they produce no
    tile and are tallied in skipped_singular. Thin tiles come from family
    pairs at cyclic distance 2 or 3, thick tiles from distance 1 or 4.
    Each family pair is dualized as one batch; vertices are projected as
    stacked single index vectors, so they round as dual_vertex does.
    """
    if singular_eps is None:
        singular_eps = 1e-9 * spec.spacing
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    spacing = spec.spacing
    line_lo, line_hi = (v.astype(int) for v in _line_ranges(spec, window))

    out = []
    skipped = 0
    for i, j in itertools.combinations(range(5), 2):
        others = [l for l in range(5) if l != i and l != j]
        inv = np.linalg.inv(np.array([_E[i], _E[j]]))
        kind = THIN if (j - i) in (2, 3) else THICK
        r_vals = np.arange(line_lo[i], line_hi[i] + 1)
        s_vals = np.arange(line_lo[j], line_hi[j] + 1)
        if len(r_vals) == 0 or len(s_vals) == 0:
            continue
        rr, ss = np.meshgrid(r_vals, s_vals, indexing="ij")
        line_ids = np.column_stack([rr.ravel(), ss.ravel()]).astype(float)
        pts = (line_ids * spacing) @ inv.T
        in_window = (
            (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
            & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
        )
        pts, line_ids = pts[in_window], line_ids[in_window]
        t_other = spec.c * (pts @ _E[others].T) / math.pi
        dist_other = spacing * np.abs(t_other - np.round(t_other))
        singular = dist_other.min(axis=1) <= singular_eps
        skipped += int(singular.sum())
        pts, line_ids = pts[~singular], line_ids[~singular]
        base = np.zeros((len(pts), 5))
        base[:, others] = np.floor(t_other[~singular])
        base[:, [i, j]] = line_ids - 1.0
        corners = np.repeat(base[:, None, :], len(_QUADRANTS), axis=1)
        corners[:, :, [i, j]] += _QUADRANTS
        verts = (corners[..., None, :] @ _E)[..., 0, :]
        out.extend(
            RhombusTile(vertices=tuple(map(tuple, quad)), kind=kind, families=(i, j),
                        intersection=tuple(cross))
            for quad, cross in zip(verts.tolist(), pts.tolist())
        )
    return TilingPatch(tiles=tuple(out), skipped_singular=skipped)


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

    def inverse(self):
        inv_scale = 1.0 / self.scale
        c, s = math.cos(-self.rotation), math.sin(-self.rotation)
        tx, ty = self.translation
        return SimilarityTransform(
            scale=inv_scale,
            rotation=-self.rotation,
            translation=(
                -inv_scale * (c * tx - s * ty),
                -inv_scale * (s * tx + c * ty),
            ),
        )


def fit_similarity(pairs):
    """Least-squares similarity from source to target points, closed form.

    Treats points as planar complex values: after centering both sets,
    alpha = sum(conj(zs) * zt) / sum(|zs|^2) carries the scale (modulus) and
    rotation (argument); the translation aligns the centroids. Raises on
    fewer than two pairs or coincident sources.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two source/target pairs")
    src = np.array([np.asarray(s, dtype=float) for s, _ in pairs])
    tgt = np.array([np.asarray(t, dtype=float) for _, t in pairs])
    zs = src[:, 0] + 1j * src[:, 1]
    zt = tgt[:, 0] + 1j * tgt[:, 1]
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


def matching_correspondences(spec, extrema, disk_radius=None, boundary_eps=None):
    """Region index and dual vertex of each extremum used for matching.

    Keeps maxima and minima only, trims extrema within one grid spacing of
    the disk boundary when disk_radius is given (edge regions are truncated
    and would bias the fit), and drops those within boundary_eps (default
    1e-9 * spacing) of any grid line, where the region is undefined. Returns
    (kept_extrema, trips, excluded_near_singular), where trips holds one
    (extremum, index_vector, DualVertex) per matched extremum. All extrema
    are indexed and dualized as stacked single points, so each result rounds
    as index_vector and dual_vertex do.
    """
    if boundary_eps is None:
        boundary_eps = 1e-9 * spec.spacing
    kept = [cp for cp in extrema if cp.kind in (KIND_MAXIMUM, KIND_MINIMUM)]
    if disk_radius is not None:
        limit = disk_radius - spec.spacing
        kept = [cp for cp in kept if math.hypot(*cp.location) <= limit]
    locations = np.array([cp.location for cp in kept], dtype=float).reshape(-1, 1, 2)
    m, margin = region_indices(spec, locations)
    usable = margin[:, 0] > boundary_eps
    m = m[usable]
    positions = (m.astype(float) @ _E)[:, 0]
    trips = [
        (cp, iv, DualVertex(index=iv, position=tuple(pos)))
        for cp, iv, pos in zip(
            itertools.compress(kept, usable.tolist()), map(tuple, m[:, 0].tolist()),
            positions.tolist(),
        )
    ]
    return kept, trips, len(kept) - len(trips)


@dataclass(frozen=True)
class MatchReport:
    """Registration quality of dual tiling vertices against field extrema.

    num_extrema counts the maxima/minima that entered matching after the
    boundary trim; excluded_near_singular of them were dropped for sitting
    too close to a grid line. residuals (one per matched extremum, in units
    of the fitted physical tile edge) drive the summary statistics.
    dual_position_collisions counts matched regions whose dual vertex
    coincides with that of a different matched region. correspondences
    holds the (extremum, index_vector, DualVertex) trips the fit used, in
    the order of residuals.
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
    correspondences: tuple


def match_report(spec, extrema, disk_radius=None, boundary_eps=None):
    """Register dual vertices against extrema and score the correspondence.

    Fits the least-squares similarity from dual-vertex positions to extremum
    locations over all retained correspondences and reports per-extremum
    residuals in units of the fitted scale (the physical tile edge), region
    occupancy counts, and exclusion tallies. Deterministic for fixed inputs.
    Raises ValueError when fewer than two usable correspondences remain.
    """
    kept, trips, excluded = matching_correspondences(spec, extrema, disk_radius, boundary_eps)
    if len(trips) < 2:
        raise ValueError("insufficient extrema for registration (need at least 2)")
    indices = np.array([iv for _, iv, _ in trips])
    pairs = [(dv.position, cp.location) for cp, _, dv in trips]
    sources = np.array([src for src, _ in pairs])
    _, first, occupancy = np.unique(indices, axis=0, return_index=True, return_counts=True)
    # Python's round, not np.round: the two can differ in the last place.
    groups = Counter((round(x, 6), round(y, 6)) for x, y in sources[first].tolist())
    transform = fit_similarity(pairs)
    mapped = transform.apply(sources)
    targets = np.array([tgt for _, tgt in pairs])
    residuals = np.hypot(*(mapped - targets).T) / transform.scale
    return MatchReport(
        num_extrema=len(kept),
        num_regions_hit=len(occupancy),
        regions_with_exactly_one=int((occupancy == 1).sum()),
        residuals=tuple(residuals.tolist()),
        mean_residual=float(np.mean(residuals)),
        median_residual=float(np.median(residuals)),
        max_residual=float(np.max(residuals)),
        excluded_near_singular=excluded,
        dual_position_collisions=sum(n for n in groups.values() if n > 1),
        transform=transform,
        correspondences=tuple(trips),
    )
