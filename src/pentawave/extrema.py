"""Critical point search and classification for the standing-wave fields.

Batched Newton iteration from a regular seed grid, with a damped gradient
fallback wherever the Hessian is near singular. The search is generic
over a (value, gradient, Hessian) triple, so the exactly solvable
checkerboard field s2, the sine sum over the two axes, drives the same
pipeline as the fivefold field s5 and serves as a closed-form oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .wavefield import _SineSum, _disk_lattice_blocks, _in_disk, grad_s5, hess_s5, s5

KIND_MAXIMUM = "maximum"
KIND_MINIMUM = "minimum"
KIND_SADDLE = "saddle"
KIND_DEGENERATE = "degenerate"
# A CriticalSet's kind column holds codes into this tuple.
KINDS = (KIND_MAXIMUM, KIND_MINIMUM, KIND_SADDLE, KIND_DEGENERATE)

# Seed rows per band of the search, each band Newton-refined on its own.
_NEWTON_BLOCK = 1 << 14


@dataclass(frozen=True)
class FieldTriple:
    """Value, gradient, and Hessian evaluators sharing the signature (k, points), which the
    search calls at k = 1; it takes the value and Hessian to be odd and the gradient even
    under p -> 0.0 - p, bit for bit. S5_FIELD and S2_FIELD are sine sums (wavefield._SineSum), which hold this by
    construction."""

    value: Callable
    grad: Callable
    hess: Callable


S5_FIELD = FieldTriple(s5, grad_s5, hess_s5)
_S2 = _SineSum(np.eye(2))
S2_FIELD = FieldTriple(_S2.value, _S2.grad, _S2.hess)


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
    """Search domain and stopping controls for find_critical_points, in the k-free units
    u = k p in which the search runs: the field at k and p is the field at 1 and u.

    The domain is the disk of the given radius, k times the radius in p, centered on the
    origin. Seed spacing pi/4 puts eight seeds per field wavelength 2 pi; one coarser
    than pi/2 could skip critical points. The dedupe cuts the domain into cells of side
    dedupe_radius / 2, which must be finitely many, and fewer than 2**52 across, so that
    a cell index and its neighbours are exact doubles and int64s.
    """

    radius: float
    seed_spacing: float = math.pi / 4.0
    grad_tol: float = 1e-10
    dedupe_radius: Optional[float] = None
    max_newton_steps: int = 40
    eig_degenerate_tol: float = 1e-8

    def __post_init__(self):
        if self.dedupe_radius is None:
            object.__setattr__(self, "dedupe_radius", self.seed_spacing / 4.0)
        if not (self.seed_spacing > 0):
            raise ValueError("seed_spacing must be positive")
        if not (self.seed_spacing <= math.pi / 2.0):
            raise ValueError("seed_spacing must not exceed pi/2")
        if not (self.radius > 0):
            raise ValueError("radius must be positive for a disk search")
        if not (self.dedupe_radius < self.seed_spacing):
            raise ValueError("dedupe_radius must be smaller than seed_spacing")
        if not (self.dedupe_radius > 0):
            raise ValueError("dedupe_radius must be positive")
        if self.max_newton_steps < 1:
            raise ValueError("max_newton_steps must be at least 1")
        cells = 2.0 * self.radius / self.dedupe_radius
        if not math.isfinite(cells):
            raise ValueError("dedupe_radius must cut the domain into finitely many cells")
        if cells >= 2.0 ** 52:
            raise ValueError(
                "dedupe_radius must cut the domain into fewer than 2**52 cells across")


def _evaluate(fn, rows):
    """fn(1.0, rows), where a one-row batch is evaluated as two identical rows: numpy
    rounds a lone row differently from a batch, and any two or more rows round as the
    same rows of one larger batch do, so each row's bits depend on that row alone.
    """
    if len(rows) == 1:
        return fn(1.0, np.repeat(rows, 2, axis=0))[:1]
    return fn(1.0, rows)


def _newton_step(field, cur, g, paired, cfg):
    """Next point of each row: a Newton step, or where the Hessian determinant
    falls below eig_degenerate_tol^2 a damped gradient step of length
    0.1*seed_spacing in whichever of the +-gradient directions reduces the
    gradient norm. The Hessian, its determinant and the Newton step are taken
    once over all rows, elementwise, and the fallback, one batch with its own
    gradient norms, overwrites the degenerate rows; every row is regular on
    almost every step. A function of its own, so the step's arrays are freed
    before the caller compacts its rows.

    Returns (new, split, mate). A paired row's mate steps to 0.0 - its new
    point, except at a fallback whose norms tie (or hold a NaN): the mate's lo
    and hi are 0.0 - hi and 0.0 - lo, so it takes the same side. Those rows,
    as positions into cur, are split, and mate holds their mates' next points.
    """
    try:
        det_tol = cfg.eig_degenerate_tol ** 2
    except OverflowError:  # above every finite determinant
        det_tol = math.inf
    hess = _evaluate(field.hess, cur)
    det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx = (hess[:, 1, 1] * g[:, 0] - hess[:, 0, 1] * g[:, 1]) / det
        dy = (hess[:, 0, 0] * g[:, 1] - hess[:, 1, 0] * g[:, 0]) / det
    new = cur - np.column_stack([dx, dy])
    regular = np.abs(det) >= det_tol
    if regular.all():
        return new, np.empty(0, dtype=np.intp), np.empty((0, 2))
    flat = np.flatnonzero(~regular)
    fallback_step = 0.1 * cfg.seed_spacing
    g, cur, paired = g[flat], cur[flat], paired[flat]
    direction = g / np.hypot(g[:, 0], g[:, 1])[:, None]
    lo = cur - fallback_step * direction
    hi = cur + fallback_step * direction
    glo = _evaluate(field.grad, lo)
    ghi = _evaluate(field.grad, hi)
    nlo, nhi = np.hypot(glo[:, 0], glo[:, 1]), np.hypot(ghi[:, 0], ghi[:, 1])
    take_lo = nlo <= nhi
    new[flat] = np.where(take_lo[:, None], lo, hi)
    split = paired & (take_lo == (nhi <= nlo))
    return new, flat[split], 0.0 - np.where(take_lo[split, None], hi[split], lo[split])


def _refine_batch(field, seeds, cfg):
    """Newton-iterate every seed and the mate 0.0 - p of each seed but the origin, on the
    field at k = 1; returns (points, gradient_norm) of the rows that converge inside the
    disk of radius cfg.radius, in no set order.

    Convergence is checked before stepping, so a seed already at a critical point is
    accepted unchanged. The working set (cur, g, paired) drops a row as it converges or
    turns non-finite; compress gathers rows as a boolean index does, several times faster
    on (n, 2) arrays. The gradient norm is taken only on rows whose larger gradient
    component is within grad_tol. grad sees the active rows and hess the rows not yet
    converged, each in one call (_evaluate), so every seed's trajectory, and so the
    result, is the same whichever other seeds share the batch: the search may cut its
    seeds into bands and refine them one by one.

    The field is odd (FieldTriple), so a mate's trajectory is 0.0 minus its row's: each
    row but the origin stands for itself and its mate, with the row's gradient norm,
    until a fallback splits the pair (_newton_step) and the mate goes on as its own row.
    """
    cur = np.asarray(seeds, dtype=float)  # never written in place, so the seeds are not copied
    paired = np.any(cur != 0.0, axis=1)
    found, norms = [np.empty((0, 2))], [np.empty(0)]
    for step in range(cfg.max_newton_steps + 1):
        if len(cur) == 0:
            break
        g = _evaluate(field.grad, cur)
        # hypot is never below either component, so only these rows can converge
        done = np.logical_and(*(np.abs(g) <= cfg.grad_tol).T)
        gd = g.compress(done, axis=0)
        gn = np.hypot(gd[:, 0], gd[:, 1])
        small = gn <= cfg.grad_tol
        done[done] = small
        if small.any():
            p, gn, pair = cur.compress(done, axis=0), gn.compress(small), paired.compress(done)
            # a mate 0.0 - p has the squares of p, so it lies inside exactly when p does
            inside = _in_disk(p[:, 0], p[:, 1], cfg.radius)
            p, gn, pair = p.compress(inside, axis=0), gn.compress(inside), pair.compress(inside)
            found += [p, 0.0 - p.compress(pair, axis=0)]
            norms += [gn, gn.compress(pair)]
            live = ~done
            cur, g, paired = (a.compress(live, axis=0) for a in (cur, g, paired))
        if step == cfg.max_newton_steps or len(cur) == 0:
            break
        cur, pair, mate = _newton_step(field, cur, g, paired, cfg)
        if pair.size:
            paired[pair] = False
            cur = np.concatenate([cur, mate])
            paired = np.concatenate([paired, np.zeros(pair.size, dtype=bool)])
        good = np.isfinite(cur[:, 0]) & np.isfinite(cur[:, 1])
        if not good.all():
            cur, paired = cur.compress(good, axis=0), paired.compress(good)
    return np.concatenate(found), np.concatenate(norms)


def _cell_keys(columns):
    """int64 key of each row of cells, given as its two columns of whole numbers (made one
    at a time when they come from a generator, and overwritten), and the key width.

    Equal rows get equal keys, and cell (x + dx, y + dy) has key + dx * width + dy for
    |dx|, |dy| <= 1. A column spanning 2**30 or more cells first has each gap between
    its values that is wider than one cell closed to two, which keeps both facts.
    """
    key = None
    for c in columns:
        c -= c.min()
        if c.max() >= 2.0 ** 30:
            values, c = np.unique(c, return_inverse=True)
            c = np.concatenate([[0.0], np.cumsum(np.minimum(np.diff(values), 2.0))])[c]
        c = c.astype(np.int64)
        c += 1
        width = int(c.max()) + 2
        if key is None:
            key = c
        else:
            key *= width
            key += c
    return key, width


def _floor(a):
    """np.floor of a float array that nothing else holds, in place."""
    return np.floor(a, out=a)


def _leaders(rows, starts, columns):
    """Per run of rows, the runs beginning at starts, the least row number over the rows
    that tie for least in each column, taken column by column: the row first in the
    lexicographic order of the columns and then of the row numbers.

    == ties -0.0 with 0.0, as a sort does.
    """
    for column in columns:
        v = column[rows]
        first = v == np.repeat(np.minimum.reduceat(v, starts), np.diff(starts, append=len(v)))
        counts = np.add.reduceat(first, starts)
        rows, starts = rows[first], np.cumsum(counts) - counts
    return np.minimum.reduceat(rows, starts)


def _dedupe(pts, gnorm, dedupe_radius):
    """Greedy dedupe keyed on a spatial hash; returns the indices of the kept rows, in any order.

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
    # fails only where pts / h is subnormal; then every row goes through the greedy
    halves = all(np.array_equal(_floor(0.5 * _floor(c / (0.5 * h))), _floor(c / h)) for c in pts.T)
    key, _ = _cell_keys(_floor(c / (0.5 * h)) for c in pts.T)
    by_cell = np.argsort(key)
    key.sort()
    first = np.concatenate([[True], key[1:] != key[:-1]])  # each fine cell's first sorted row
    del key
    starts = np.flatnonzero(first)
    del first
    leaders = _leaders(by_cell, starts, (gnorm, pts[:, 0], pts[:, 1]))
    coarse, width = _cell_keys(_floor(0.5 * _floor(c / (0.5 * h))) for c in pts[leaders].T)
    # occupied fine cells in the 3 x 3 cells of side h around each, its own included
    occupied = np.sort(coarse)
    near = sum(np.searchsorted(occupied, coarse + dx * width + 1, "right")
               - np.searchsorted(occupied, coarse + dx * width - 1, "left") for dx in (-1, 0, 1))
    alone = halves & (near == 1)
    sizes = np.diff(starts, append=len(by_cell))
    rows = by_cell[np.repeat(~alone, sizes)]
    del by_cell
    cell = np.repeat(np.flatnonzero(~alone), sizes[~alone])  # fine cell of each of rows
    order = np.lexsort((rows, pts[rows, 1], pts[rows, 0], gnorm[rows]))
    rows, cell = rows[order], cell[order]
    return np.concatenate([leaders[alone], rows[_greedy_keep(pts[rows], cell, h)]])


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


def classify(location, cfg, field=S5_FIELD):
    """Hessian eigenvalue classification at converged critical points of the field at k = 1.

    Both eigenvalues below -eig_degenerate_tol is a maximum, both above +tol
    a minimum, straddling signs beyond tol a saddle, anything else degenerate.
    For an (n, 2) batch of locations returns (kinds, eigenvalues), n int8 codes
    into KINDS and an (n, 2) array. The batch is evaluated as n stacked single
    points, so every row rounds exactly as a single (2,) point does.
    """
    hess = field.hess(1.0, np.asarray(location, dtype=float)[:, None, :]).reshape(-1, 2, 2)
    a, b, c = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
    half_trace = 0.5 * (a + b)
    # math.hypot, not np.hypot: the two round differently
    spread = np.array(list(map(math.hypot, (0.5 * (a - b)).tolist(), c.tolist())))
    lo, hi = half_trace - spread, half_trace + spread
    tol = cfg.eig_degenerate_tol
    codes = np.select([hi < -tol, lo > tol, (lo < -tol) & (hi > tol)], [0, 1, 2], 3)
    return codes.astype(np.int8), np.column_stack([lo, hi])


def find_critical_points(k, cfg, field=S5_FIELD):
    """Locate, deduplicate, and classify all critical points of the field at wavenumber k
    in the disk of radius cfg.radius / k.

    The one place that sees k: the field at k and p is the field at 1 and u = k p, so
    the search runs at k = 1 in u, over cfg in those units, and maps its points back
    once, location u / k and eigenvalues k^2 times those at u; the values are those
    at u. At k = 1 both are exact. A k whose eigenvalues (up to 2.5 k^2 for s5, k^2 for
    s2) overflow is refused.

    Seeds the disk lattice from the origin on, band by band, _NEWTON_BLOCK rows at a
    time, each row standing for its mirror 0.0 - p too, so no lattice is ever built
    whole; Newton-refines each band in lockstep to the points that converge inside the
    disk, joins the bands' points, deduplicates them within dedupe_radius
    keeping the smallest-gradient-norm representative, and returns the classified points
    sorted by (x, y) as one CriticalSet. Each seed's trajectory depends on that seed
    alone (_refine_batch), so the bands leave the bits unchanged. The dedupe breaks ties
    by row number, but rows equal under == differ only at +-0.0, which the search never
    makes (its mates are 0.0 - p), so the order of the loop's rows does not matter.
    """
    if not math.isfinite(2.5 * k * k):
        raise ValueError("k is too large: the eigenvalues, up to 2.5*k*k, overflow")
    bands = [_refine_batch(field, seeds, cfg) for seeds in
             _disk_lattice_blocks(cfg.radius, cfg.seed_spacing, _NEWTON_BLOCK)]
    pts, gnorm = zip(*bands)
    del bands
    pts = np.concatenate(pts)  # then the norms, so the bands' points are freed first
    gnorm = np.concatenate(gnorm)
    if len(pts):
        pts = pts[_dedupe(pts, gnorm, cfg.dedupe_radius)]
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    kinds, eigenvalues = classify(pts, cfg, field=field)
    # stacked single points, to round as a one-point evaluation does
    values = field.value(1.0, pts[:, None, :])[:, 0]
    pts /= k
    eigenvalues *= k * k
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
