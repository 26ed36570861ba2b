"""Critical point search and classification for the standing-wave fields.

Batched Newton iteration from a regular seed grid, with a damped gradient
fallback wherever the Hessian is near singular. The search is generic
over a (value, gradient, Hessian) triple, so the exactly solvable
checkerboard field s2 drives the same pipeline as the fivefold field s5
and serves as a closed-form oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .wavefield import (
    _block_edges,
    _disk_lattice_blocks,
    _whole_lattice,
    grad_s2,
    grad_s5,
    hess_s2,
    hess_s5,
    s2,
    s5,
)

KIND_MAXIMUM = "maximum"
KIND_MINIMUM = "minimum"
KIND_SADDLE = "saddle"
KIND_DEGENERATE = "degenerate"
# A CriticalSet's kind column holds codes into this tuple.
KINDS = (KIND_MAXIMUM, KIND_MINIMUM, KIND_SADDLE, KIND_DEGENERATE)

# Rows per block of a Newton step's field work.
_NEWTON_BLOCK = 1 << 14


@dataclass(frozen=True)
class FieldTriple:
    """Value, gradient, and Hessian evaluators sharing the signature (k, points); odd
    declares the value and Hessian odd and the gradient even under p -> 0.0 - p, bit for bit."""

    value: Callable
    grad: Callable
    hess: Callable
    odd: bool = False


# Sums of sines of projections: numpy's sin is odd and cos even bit for bit.
S5_FIELD = FieldTriple(s5, grad_s5, hess_s5, odd=True)
S2_FIELD = FieldTriple(s2, grad_s2, hess_s2, odd=True)


def _same_columns(a, b):
    """Dataclass equality for records of arrays: every field equal by np.array_equal."""
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
    )


@dataclass(frozen=True, eq=False)
class CriticalSet:
    """Critical points as columns, one row per point, sorted by (x, y).

    location (n, 2), value (n,), kind (n,) codes into KINDS and eigenvalues
    (n, 2), the Hessian spectrum in ascending order; kind follows the
    eigenvalue-sign rule of classify().
    """

    location: np.ndarray
    value: np.ndarray
    kind: np.ndarray
    eigenvalues: np.ndarray

    __eq__ = _same_columns

    def __len__(self):
        return len(self.value)

    def of_kind(self, *kinds):
        """Boolean mask of the rows whose kind is one of the given kind names."""
        return np.isin(self.kind, [KINDS.index(kind) for kind in kinds])


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
        if not (self.dedupe_radius > 0):
            raise ValueError("dedupe_radius must be positive")
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


def _seed_half(cfg):
    """The disk seed lattice from its centre row, the origin, on."""
    return np.concatenate(list(_disk_lattice_blocks(cfg.radius, cfg.seed_spacing, 1 << 16)))


def _seed_grid(cfg):
    s = cfg.seed_spacing
    if cfg.window is not None:
        xmin, xmax, ymin, ymax = cfg.window
        xs = xmin + s * np.arange(int(math.floor((xmax - xmin) / s)) + 1)
        ys = ymin + s * np.arange(int(math.floor((ymax - ymin) / s)) + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])
    return _whole_lattice(_seed_half(cfg))


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


def _row_blocks(num_rows):
    """Slices of _block_edges(num_rows, _NEWTON_BLOCK). No block is a lone row
    unless num_rows is 1, so each block rounds as the same rows of one batch do.
    """
    edges = _block_edges(num_rows, _NEWTON_BLOCK)
    return map(slice, edges[:-1], edges[1:])


def _evaluate(fn, k, rows, paired):
    """fn(k, rows), where a lone row that stands for a pair is evaluated as two
    identical rows, so it rounds as the pair did in one batch.
    """
    if len(rows) == 1 and paired[0]:
        return fn(k, np.repeat(rows, 2, axis=0))[:1]
    return fn(k, rows)


def _newton_step(field, k, cur, g, paired, cfg):
    """Next point of each row: a Newton step, or where the Hessian determinant
    falls below eig_degenerate_tol^2 a damped gradient step of length
    0.1*seed_spacing in whichever of the +-gradient directions reduces the
    gradient norm. The Newton step is computed block by block for every row,
    elementwise, and the fallback, one batch with its own gradient norms,
    overwrites the degenerate rows;
    every row is regular on almost every step. A function of its own, so the
    step's arrays are freed before the caller compacts its rows.

    Returns (new, split, mate). A paired row's mate steps to 0.0 - its new
    point, except at a fallback whose norms tie (or hold a NaN): the mate's lo
    and hi are 0.0 - hi and 0.0 - lo, so it takes the same side. Those rows,
    as positions into cur, are split, and mate holds their mates' next points.
    """
    try:
        det_tol = cfg.eig_degenerate_tol ** 2
    except OverflowError:  # above every finite determinant
        det_tol = math.inf
    new = np.empty_like(cur)
    regular = np.empty(len(cur), dtype=bool)
    for rows in _row_blocks(len(cur)):
        hess = _evaluate(field.hess, k, cur[rows], paired[rows])
        det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
        gb = g[rows]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx = (hess[:, 1, 1] * gb[:, 0] - hess[:, 0, 1] * gb[:, 1]) / det
            dy = (hess[:, 0, 0] * gb[:, 1] - hess[:, 1, 0] * gb[:, 0]) / det
        new[rows] = cur[rows] - np.column_stack([dx, dy])
        regular[rows] = np.abs(det) >= det_tol
    if regular.all():
        return new, np.empty(0, dtype=np.intp), np.empty((0, 2))
    flat = np.flatnonzero(~regular)
    fallback_step = 0.1 * cfg.seed_spacing
    g, cur, paired = g[flat], cur[flat], paired[flat]
    direction = g / np.hypot(g[:, 0], g[:, 1])[:, None]
    lo = cur - fallback_step * direction
    hi = cur + fallback_step * direction
    glo = _evaluate(field.grad, k, lo, paired)
    ghi = _evaluate(field.grad, k, hi, paired)
    nlo, nhi = np.hypot(glo[:, 0], glo[:, 1]), np.hypot(ghi[:, 0], ghi[:, 1])
    take_lo = nlo <= nhi
    new[flat] = np.where(take_lo[:, None], lo, hi)
    split = paired & (take_lo == (nhi <= nlo))
    return new, flat[split], 0.0 - np.where(take_lo[split, None], hi[split], lo[split])


def _refine_batch(field, k, seeds, cfg, mirror=False):
    """Newton-iterate every seed; returns (points, converged, gradient_norm).

    Convergence is checked before stepping, so a seed already at a critical
    point is accepted unchanged. The loop keeps a compacted working set of
    the active rows (idx, cur, g) and writes a row back to the result only
    when it converges, turns non-finite (it keeps its last finite point) or
    the steps run out. Rows are gathered with compress, which copies the
    rows a boolean index does, several times faster on (n, 2) arrays. The
    gradient norm is taken only on rows whose larger gradient component is
    within grad_tol. grad sees the active rows and
    hess the rows not yet converged, cut into the blocks of
    _row_blocks: numpy rounds a one-row batch differently from a larger one,
    but any two or more rows round as the same rows of one larger batch do,
    so the bits depend neither on the blocks nor on the order of the rows.

    With mirror, seeds is a lattice from its centre row on (_seed_half), field
    is odd, and the results are those of _whole_lattice(seeds), whose row n-1-i
    mirrors row i. Each row after the centre stands for itself and its mate,
    whose state is 0.0 - p and whose flag and gradient norm are the row's. A
    one-row batch rounds as a lone row only when it is the search's only
    active seed; a paired one is evaluated as two rows (_evaluate). Where a
    fallback splits a pair (_newton_step), the mate goes on as its own row.
    """
    mates = max(len(seeds) - 1, 0) if mirror else 0
    pts = np.empty((mates + len(seeds), 2))
    pts[mates:] = seeds
    del seeds
    n = len(pts)
    converged = np.zeros(n, dtype=bool)
    gnorm = np.full(n, np.inf)
    idx = np.arange(mates, n)
    cur = pts[mates:]  # safe to share: a row of pts is only ever set to its current point
    paired = (idx > mates) & mirror
    own = np.ones(mates, dtype=bool)  # mates still 0.0 - their row's point
    for step in range(cfg.max_newton_steps + 1):
        if idx.size == 0:
            break
        g = np.empty_like(cur)
        for rows in _row_blocks(len(cur)):
            g[rows] = _evaluate(field.grad, k, cur[rows], paired[rows])
        # hypot is never below either component, so only these rows can converge
        within = np.abs(g) <= cfg.grad_tol
        done = within[:, 0] & within[:, 1]
        gd = g.compress(done, axis=0)
        gn = np.hypot(gd[:, 0], gd[:, 1])
        small = gn <= cfg.grad_tol
        done[done] = small
        if small.any():
            hit = idx.compress(done)
            converged[hit] = True
            gnorm[hit] = gn.compress(small)
            pts[hit] = cur.compress(done, axis=0)
            live = ~done
            # one at a time, so each old array is freed before the next copy
            idx = idx.compress(live)
            cur = cur.compress(live, axis=0)
            g = g.compress(live, axis=0)
            paired = paired.compress(live)
        if step == cfg.max_newton_steps or idx.size == 0:
            break
        new, pair, mate = _newton_step(field, k, cur, g, paired, cfg)
        del g
        if pair.size:
            own[n - 1 - idx[pair]] = False
            paired[pair] = False
            idx = np.concatenate([idx, n - 1 - idx[pair]])
            cur = np.concatenate([cur, 0.0 - cur[pair]])
            new = np.concatenate([new, mate])
            paired = np.concatenate([paired, np.zeros(pair.size, dtype=bool)])
        bad = ~(np.isfinite(new[:, 0]) & np.isfinite(new[:, 1]))
        if bad.any():
            pts[idx.compress(bad)] = cur.compress(bad, axis=0)
            live = ~bad
            idx, new, paired = idx.compress(live), new.compress(live, axis=0), paired.compress(live)
        cur = new
        del new  # else the next compaction keeps the old rows alive
    pts[idx] = cur
    # the mates, from reversed views of their rows (empty without mirror): no temporaries
    np.subtract(0.0, pts[n - mates:][::-1], out=pts[:mates], where=own[:, None])
    np.copyto(converged[:mates], converged[n - mates:][::-1], where=own)
    np.copyto(gnorm[:mates], gnorm[n - mates:][::-1], where=own)
    return pts, converged, gnorm


def _cell_keys(cells):
    """int64 key of each row of cells, an (n, 2) array of whole numbers, and the key width.

    Equal rows get equal keys, and cell (x + dx, y + dy) has key + dx * width + dy for
    |dx|, |dy| <= 1. A column spanning 2**30 or more cells first has each gap between
    its values that is wider than one cell closed to two, which keeps both facts.
    """
    cols = []
    for c in cells.T:
        c = c - c.min()
        if c.max() >= 2.0 ** 30:
            values, c = np.unique(c, return_inverse=True)
            c = np.concatenate([[0.0], np.cumsum(np.minimum(np.diff(values), 2.0))])[c]
        cols.append(c.astype(np.int64) + 1)
    width = int(cols[1].max()) + 2
    return cols[0] * width + cols[1], width


def _leaders(rows, group, columns):
    """Per group, the least value of the last column over the rows that tie for least
    in each column before it, taken column by column; with the row numbers last, the
    row first in the lexicographic order of the columns.

    rows come in runs of equal group; == ties -0.0 with 0.0, as a sort does.
    """
    for column in columns:
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        v = column[rows]
        least = np.minimum.reduceat(v, starts)
        first = v == np.repeat(least, np.diff(starts, append=len(v)))
        rows, group = rows[first], group[first]
    return least


def _dedupe(pts, gnorm, dedupe_radius):
    """Greedy dedupe keyed on a spatial hash; returns indices of kept rows in visiting order.

    Candidates are visited by ascending gradient norm (ties by x, y, then row), and
    each is kept unless a kept point in its own or an adjacent cell of side h =
    dedupe_radius lies within h, so each cluster keeps its minimum-gradient-norm
    representative. Two points in one fine cell of side h/2 are always that close,
    so a kept point drops the rest of its fine cell. The fine cell floor(x / (h/2))
    lies in the cell floor(fine / 2) of side h, since x / (h/2) is x / h doubled. So
    a fine cell with no other occupied fine cell in the 3 x 3 cells of side h around
    its own keeps its first row, its leader, and drops the rest, whatever the other
    cells keep; only the rows of the other fine cells go through _greedy_keep.
    """
    h = dedupe_radius
    fine = np.floor(pts / (0.5 * h))
    # fails only where pts / h is subnormal; then every row goes through the greedy
    halves = np.array_equal(np.floor(0.5 * fine), np.floor(pts / h))
    key, _ = _cell_keys(fine)
    by_cell = np.argsort(key)
    key = key[by_cell]
    group = np.cumsum(np.diff(key, prepend=key[0]) != 0)  # fine cell of each sorted row
    del key
    leaders = _leaders(by_cell, group, (gnorm, pts[:, 0], pts[:, 1], np.arange(len(pts))))
    coarse, width = _cell_keys(np.floor(0.5 * fine[leaders]))
    del fine
    # occupied fine cells in the 3 x 3 cells of side h around each, its own included
    occupied = np.sort(coarse)
    near = sum(np.searchsorted(occupied, coarse + dx * width + 1, "right")
               - np.searchsorted(occupied, coarse + dx * width - 1, "left") for dx in (-1, 0, 1))
    alone = halves & (near == 1)
    cell = np.empty(len(pts), dtype=np.intp)
    cell[by_cell] = group
    rows = np.sort(by_cell[~alone[group]])
    del by_cell, group
    rows = rows[np.lexsort((pts[rows, 1], pts[rows, 0], gnorm[rows]))]
    kept = np.concatenate([leaders[alone], rows[_greedy_keep(pts[rows], cell[rows], h)]])
    kept.sort()
    return kept[np.lexsort((pts[kept, 1], pts[kept, 0], gnorm[kept]))].tolist()


def _greedy_keep(pts, cell, h):
    """Which rows the dedupe greedy keeps, for rows in visiting order with their fine cells.

    A row is dropped when an earlier kept row shares its fine cell, without a scan, or
    lies in its own or an adjacent cell of side h and within h; so the work grows with
    the rows times the kept rows around them. Squares are taken with ** on plain
    floats, which rounds as C pow does (not always as x*x does).
    """
    taken = set()
    near = {}
    keep = np.zeros(len(pts), dtype=bool)
    for r, g in enumerate(cell.tolist()):
        if g in taken:
            continue
        x, y = pts[r].tolist()
        cx, cy = math.floor(x / h), math.floor(y / h)
        if any(
            (px - x) ** 2 + (py - y) ** 2 <= h * h
            for nx in (cx - 1, cx, cx + 1)
            for ny in (cy - 1, cy, cy + 1)
            for px, py in near.get((nx, ny), ())
        ):
            continue
        near.setdefault((cx, cy), []).append((x, y))
        taken.add(g)
        keep[r] = True
    return keep


def classify(k, location, cfg, field=S5_FIELD):
    """Hessian eigenvalue classification at converged critical points.

    Both eigenvalues below -eig_degenerate_tol is a maximum, both above +tol
    a minimum, straddling signs beyond tol a saddle, anything else degenerate.
    For one location (x, y) returns (kind, (lambda_min, lambda_max)); for an
    (n, 2) batch returns (kinds, eigenvalues), n int8 codes into KINDS and an
    (n, 2) array. A batch is evaluated as n stacked single points, so every row
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
    if single:
        return KINDS[codes[0]], (float(lo[0]), float(hi[0]))
    return codes.astype(np.int8), np.column_stack([lo, hi])


def check_search_grid(k, cfg):
    """Refuse a seed grid coarser than pi/(2k), which could skip critical points, and a
    dedupe radius so small that the domain spans 2**52 or more dedupe cells across.
    """
    if cfg.seed_spacing > math.pi / (2.0 * k) * (1.0 + 1e-12):
        raise ValueError("seed_spacing must not exceed pi/(2k)")
    # the dedupe divides coordinates by dedupe_radius / 2
    extent = cfg.radius if cfg.window is None else max(map(abs, cfg.window))
    cells = 2.0 * extent / cfg.dedupe_radius
    if not math.isfinite(cells):
        raise ValueError("dedupe_radius must cut the domain into finitely many cells")
    # below it a cell index and its neighbours are exact doubles and int64s
    if cells >= 2.0 ** 52:
        raise ValueError("dedupe_radius must cut the domain into fewer than 2**52 cells across")


def find_critical_points(k, cfg, field=S5_FIELD):
    """Locate, deduplicate, and classify all critical points in the domain.

    Seeds a regular grid, Newton-refines all seeds in lockstep (each step's
    field work cut into row blocks), keeps converged points inside the
    domain, deduplicates within dedupe_radius keeping the
    smallest-gradient-norm representative, and returns the classified
    points sorted by (x, y) as one CriticalSet.
    """
    check_search_grid(k, cfg)
    # no name holds the seeds, so _refine_batch can free them once copied
    if field.odd and cfg.window is None:
        pts, converged, gnorm = _refine_batch(field, k, _seed_half(cfg), cfg, mirror=True)
    else:
        pts, converged, gnorm = _refine_batch(field, k, _seed_grid(cfg), cfg)
    keep = converged & _in_domain(pts, cfg)
    del converged  # with keep, freed before the dedupe, where the search peaks
    pts, gnorm = pts[keep], gnorm[keep]
    del keep
    if len(pts):
        pts = pts[_dedupe(pts, gnorm, cfg.dedupe_radius)]
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    kinds, eigenvalues = classify(k, pts, cfg, field=field)
    # stacked single points, to round as a one-point evaluation does
    values = field.value(k, pts[:, None, :])[:, 0]
    return CriticalSet(location=pts, value=values, kind=kinds, eigenvalues=eigenvalues)


def s2_oracle(k, window):
    """Exact critical set of the two-wave field in a rectangle, as a CriticalSet.

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
        return np.arange(first, last + 1)

    # x-major, so the rows come sorted by (x, y)
    ab = np.stack(np.meshgrid(lattice(xmin, xmax), lattice(ymin, ymax), indexing="ij"), -1)
    ab = ab.reshape(-1, 2)
    signs = np.where(ab % 2, -1.0, 1.0)
    kind = np.select([signs.min(axis=1) > 0, signs.max(axis=1) < 0], [0, 1], 2)
    return CriticalSet(location=(2 * ab + 1) * math.pi / (2.0 * k), value=signs.sum(axis=1),
                       kind=kind.astype(np.int8), eigenvalues=np.sort(-(k * k) * signs, axis=1))
