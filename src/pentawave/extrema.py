"""Critical point search and classification for the standing-wave fields.

Batched Newton iteration from a regular seed grid, with a damped gradient
fallback wherever the Hessian is near singular. The search is generic
over a (value, gradient, Hessian) triple, so the exactly solvable
checkerboard field s2 drives the same pipeline as the fivefold field s5
and serves as a closed-form oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .wavefield import grad_s2, grad_s5, hess_s2, hess_s5, s2, s5

KIND_MAXIMUM = "maximum"
KIND_MINIMUM = "minimum"
KIND_SADDLE = "saddle"
KIND_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class FieldTriple:
    """Value, gradient, and Hessian evaluators sharing the signature (k, points)."""

    value: Callable
    grad: Callable
    hess: Callable


S5_FIELD = FieldTriple(s5, grad_s5, hess_s5)
S2_FIELD = FieldTriple(s2, grad_s2, hess_s2)


@dataclass(frozen=True)
class CriticalPoint:
    """A converged zero of the field gradient.

    eigenvalues is the Hessian spectrum in ascending order; kind follows the
    eigenvalue-sign rule of classify().
    """

    location: tuple[float, float]
    value: float
    kind: str
    eigenvalues: tuple[float, float]


@dataclass(frozen=True)
class SearchConfig:
    """Search domain and stopping controls for find_critical_points.

    The domain is the disk of the given radius centered on the origin unless
    window = (xmin, xmax, ymin, ymax) is set, in which case the axis-aligned
    rectangle is used for both seeding and the retention filter.
    eig_degenerate_tol should scale with the Hessian magnitude (k^2); the
    default suits k near 1, default_search_config scales it.
    """

    radius: float
    seed_spacing: float
    grad_tol: float = 1e-10
    dedupe_radius: Optional[float] = None
    max_newton_steps: int = 40
    eig_degenerate_tol: float = 1e-8
    window: Optional[tuple[float, float, float, float]] = None

    def __post_init__(self):
        if self.dedupe_radius is None:
            object.__setattr__(self, "dedupe_radius", self.seed_spacing / 4.0)
        if not (self.seed_spacing > 0):
            raise ValueError("seed_spacing must be positive")
        if self.window is None and not (self.radius > 0):
            raise ValueError("radius must be positive for a disk search")
        if self.window is not None:
            xmin, xmax, ymin, ymax = self.window
            if not (xmin < xmax and ymin < ymax):
                raise ValueError("window must satisfy xmin < xmax and ymin < ymax")
        if not (self.dedupe_radius < self.seed_spacing):
            raise ValueError("dedupe_radius must be smaller than seed_spacing")
        if not (self.grad_tol > 0 and self.eig_degenerate_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_newton_steps < 1:
            raise ValueError("max_newton_steps must be at least 1")


def default_search_config(k, radius, **overrides):
    """Standard search controls for wavenumber k over a disk.

    Seed spacing pi/(4k) puts eight seeds per field wavelength; the
    degeneracy threshold scales with the Hessian magnitude k^2.
    """
    base = dict(
        radius=float(radius),
        seed_spacing=math.pi / (4.0 * k),
        grad_tol=1e-10,
        dedupe_radius=math.pi / (16.0 * k),
        max_newton_steps=40,
        eig_degenerate_tol=1e-8 * k * k,
    )
    base.update(overrides)
    return SearchConfig(**base)


def seed_count(cfg):
    """Number of lattice points the seed grid lays out before the disk clip.

    Computed without allocating, as a float (inf when it does not fit a
    double), so callers can refuse a search too large to hold in memory.
    """
    s = cfg.seed_spacing
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.window is not None:
            xmin, xmax, ymin, ymax = cfg.window
            return float((np.floor((xmax - xmin) / s) + 1) * (np.floor((ymax - ymin) / s) + 1))
        return float((2 * np.floor(cfg.radius / s) + 1) ** 2)


def _seed_grid(cfg):
    s = cfg.seed_spacing
    if cfg.window is not None:
        xmin, xmax, ymin, ymax = cfg.window
        xs = xmin + s * np.arange(int(math.floor((xmax - xmin) / s)) + 1)
        ys = ymin + s * np.arange(int(math.floor((ymax - ymin) / s)) + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    n = int(math.floor(cfg.radius / s))
    vals = s * np.arange(-n, n + 1)
    gx, gy = np.meshgrid(vals, vals, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= cfg.radius ** 2
    return pts[inside]


def _in_domain(pts, cfg):
    if cfg.window is not None:
        xmin, xmax, ymin, ymax = cfg.window
        return (
            (pts[:, 0] >= xmin)
            & (pts[:, 0] <= xmax)
            & (pts[:, 1] >= ymin)
            & (pts[:, 1] <= ymax)
        )
    return pts[:, 0] ** 2 + pts[:, 1] ** 2 <= cfg.radius ** 2


def _refine_batch(field, k, seeds, cfg):
    """Newton-iterate every seed; returns (points, converged, gradient_norm).

    Convergence is checked before stepping, so a seed already at a critical
    point is accepted unchanged. Rows whose Hessian determinant falls below
    eig_degenerate_tol^2 take a damped gradient step of length
    0.1*seed_spacing in whichever of the +-gradient directions reduces the
    gradient norm.
    """
    pts = np.array(seeds, dtype=float)
    del seeds
    n = len(pts)
    converged = np.zeros(n, dtype=bool)
    gnorm = np.full(n, np.inf)
    active = np.ones(n, dtype=bool)
    det_tol = cfg.eig_degenerate_tol ** 2
    fallback_step = 0.1 * cfg.seed_spacing
    for step in range(cfg.max_newton_steps + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        cur = pts[idx]
        g = field.grad(k, cur)
        gn = np.hypot(g[:, 0], g[:, 1])
        done = gn <= cfg.grad_tol
        converged[idx[done]] = True
        gnorm[idx[done]] = gn[done]
        active[idx[done]] = False
        if step == cfg.max_newton_steps:
            break
        idx = idx[~done]
        if idx.size == 0:
            continue
        cur, g, gn = cur[~done], g[~done], gn[~done]
        hess = field.hess(k, cur)
        det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
        regular = np.abs(det) >= det_tol
        new = np.empty_like(cur)
        if regular.any():
            hr, gr, dr = hess[regular], g[regular], det[regular]
            dx = (hr[:, 1, 1] * gr[:, 0] - hr[:, 0, 1] * gr[:, 1]) / dr
            dy = (hr[:, 0, 0] * gr[:, 1] - hr[:, 1, 0] * gr[:, 0]) / dr
            new[regular] = cur[regular] - np.column_stack([dx, dy])
        flat = ~regular
        if flat.any():
            direction = g[flat] / gn[flat][:, None]
            lo = cur[flat] - fallback_step * direction
            hi = cur[flat] + fallback_step * direction
            glo = field.grad(k, lo)
            ghi = field.grad(k, hi)
            take_lo = np.hypot(glo[:, 0], glo[:, 1]) <= np.hypot(ghi[:, 0], ghi[:, 1])
            new[flat] = np.where(take_lo[:, None], lo, hi)
        bad = ~np.isfinite(new).all(axis=1)
        if bad.any():
            active[idx[bad]] = False
            new[bad] = cur[bad]
        pts[idx] = new
    return pts, converged, gnorm


def _dedupe(pts, gnorm, dedupe_radius):
    """Greedy dedupe keyed on a spatial hash; returns indices of kept rows.

    Candidates are visited by ascending gradient norm (ties by x then y), and
    each is kept unless a kept point in its own or an adjacent cell of side h
    = dedupe_radius lies within h, so each cluster keeps its minimum-gradient-
    norm representative. Two points in one fine cell of side h/2 are always
    that close, so a point whose fine cell already holds a kept point is
    dropped without a scan. Squares are taken with ** on plain floats, which
    rounds as C pow does (not always as x*x does).
    """
    order = np.lexsort((pts[:, 1], pts[:, 0], gnorm))
    ordered = pts[order]
    h = dedupe_radius
    # number the fine cells: ids of equal cells agree after sorting by cell
    fine = np.floor(ordered / (0.5 * h))
    by_cell = np.lexsort((fine[:, 1], fine[:, 0]))
    fine = fine[by_cell]
    cell = np.empty(len(order), dtype=np.intp)
    cell[by_cell] = np.cumsum(np.r_[False, (fine[1:] != fine[:-1]).any(axis=1)])
    taken = bytearray(len(order))
    near = {}
    kept = []
    for r, g in enumerate(cell.tolist()):
        if taken[g]:
            continue
        x, y = ordered[r].tolist()
        cx, cy = math.floor(x / h), math.floor(y / h)
        if any(
            (px - x) ** 2 + (py - y) ** 2 <= h * h
            for nx in (cx - 1, cx, cx + 1)
            for ny in (cy - 1, cy, cy + 1)
            for px, py in near.get((nx, ny), ())
        ):
            continue
        near.setdefault((cx, cy), []).append((x, y))
        taken[g] = 1
        kept.append(int(order[r]))
    return kept


_KINDS = (KIND_MAXIMUM, KIND_MINIMUM, KIND_SADDLE, KIND_DEGENERATE)


def classify(k, location, cfg, field=S5_FIELD):
    """Hessian eigenvalue classification at converged critical points.

    Both eigenvalues below -eig_degenerate_tol is a maximum, both above +tol
    a minimum, straddling signs beyond tol a saddle, anything else degenerate.
    For one location (x, y) returns (kind, (lambda_min, lambda_max)); for an
    (n, 2) batch returns (kinds, eigenvalues), a list of n kinds and an (n, 2)
    array. A batch is evaluated as n stacked single points, so every row
    rounds exactly as the single-point call does.
    """
    pts = np.asarray(location, dtype=float)
    single = pts.ndim == 1
    hess = field.hess(k, pts if single else pts[:, None, :]).reshape(-1, 2, 2)
    a, b, c = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
    half_trace = 0.5 * (a + b)
    # math.hypot, not np.hypot: the two round differently
    spread = np.array(list(map(math.hypot, (0.5 * (a - b)).tolist(), c.tolist())))
    lo, hi = half_trace - spread, half_trace + spread
    tol = cfg.eig_degenerate_tol
    codes = np.select([hi < -tol, lo > tol, (lo < -tol) & (hi > tol)], [0, 1, 2], 3)
    kinds = [_KINDS[code] for code in codes.tolist()]
    if single:
        return kinds[0], (float(lo[0]), float(hi[0]))
    return kinds, np.column_stack([lo, hi])


def newton_refine(k, seed, cfg, field=S5_FIELD):
    """Refine a single seed; returns the converged location or None."""
    seed_arr = np.asarray(seed, dtype=float).reshape(1, 2)
    pts, converged, _ = _refine_batch(field, k, seed_arr, cfg)
    if not converged[0]:
        return None
    return (float(pts[0, 0]), float(pts[0, 1]))


def find_critical_points(k, cfg, field=S5_FIELD):
    """Locate, deduplicate, and classify all critical points in the domain.

    Seeds a regular grid, Newton-refines every seed in one batch, keeps
    converged points inside the domain, deduplicates within dedupe_radius
    keeping the smallest-gradient-norm representative, and returns the
    classified points sorted by (x, y).
    """
    if cfg.seed_spacing > math.pi / (2.0 * k) * (1.0 + 1e-12):
        raise ValueError("seed_spacing must not exceed pi/(2k)")
    # no name holds the seed grid, so _refine_batch can free it once copied
    pts, converged, gnorm = _refine_batch(field, k, _seed_grid(cfg), cfg)
    keep = converged & _in_domain(pts, cfg)
    pts, gnorm = pts[keep], gnorm[keep]
    if len(pts) == 0:
        return []
    found = pts[_dedupe(pts, gnorm, cfg.dedupe_radius)]
    found = found[np.lexsort((found[:, 1], found[:, 0]))]
    kinds, eigenvalues = classify(k, found, cfg, field=field)
    # stacked single points, to round as a one-point evaluation does
    values = field.value(k, found[:, None, :])[:, 0]
    return [
        CriticalPoint(location=tuple(loc), value=value, kind=kind, eigenvalues=tuple(eig))
        for loc, value, kind, eig in zip(
            found.tolist(), values.tolist(), kinds, eigenvalues.tolist()
        )
    ]


def s2_oracle(k, window):
    """Exact critical set of the two-wave field in a rectangle.

    Critical points sit at ((2a+1)pi/(2k), (2b+1)pi/(2k)); the sine signs
    (-1)^a and (-1)^b give kind and value analytically: (+,+) is a maximum
    of value 2, (-,-) a minimum of value -2, mixed signs a saddle of value 0.
    """
    if not (k > 0):
        raise ValueError("k must be positive")
    xmin, xmax, ymin, ymax = window

    def lattice(lo, hi):
        first = int(math.ceil((2.0 * k * lo / math.pi - 1.0) / 2.0))
        last = int(math.floor((2.0 * k * hi / math.pi - 1.0) / 2.0))
        return range(first, last + 1)

    out = []
    kk2 = k * k
    for a in lattice(xmin, xmax):
        x = (2 * a + 1) * math.pi / (2.0 * k)
        sx = -1.0 if a % 2 else 1.0
        for b in lattice(ymin, ymax):
            y = (2 * b + 1) * math.pi / (2.0 * k)
            sy = -1.0 if b % 2 else 1.0
            eigenvalues = tuple(sorted((-kk2 * sx, -kk2 * sy)))
            if sx > 0 and sy > 0:
                kind = KIND_MAXIMUM
            elif sx < 0 and sy < 0:
                kind = KIND_MINIMUM
            else:
                kind = KIND_SADDLE
            out.append(CriticalPoint((x, y), float(sx + sy), kind, eigenvalues))
    out.sort(key=lambda cp: cp.location)
    return out
