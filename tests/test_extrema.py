"""Tests for critical point search, refinement, and classification."""

import math
import tracemalloc
import warnings
from collections import namedtuple

import numpy as np
import pytest

import pentawave as pw
from pentawave import extrema as ex

TAU = (1.0 + math.sqrt(5.0)) / 2.0
TWO_PI = 2.0 * math.pi


# One critical point, as the per-point references below build them.
_Point = namedtuple("_Point", "location value kind eigenvalues")


def _seed_grid(cfg):
    """The whole disk lattice the search stands for, as one array."""
    return pw.wavefield._disk_lattice(cfg.radius, cfg.seed_spacing)


def _half_grid(cfg):
    """The seeds the search refines: the disk lattice from its centre row, the origin, on,
    as one array."""
    return np.concatenate(list(pw.wavefield._disk_lattice_blocks(cfg.radius, cfg.seed_spacing,
                                                                 1 << 16)))


def _with_mates(seeds):
    """seeds followed by the mate 0.0 - p of each row but the origin: the rows that
    ex._refine_batch refines, each mate with its row until a fallback splits them."""
    seeds = np.asarray(seeds, dtype=float)
    return np.concatenate([seeds, 0.0 - seeds[np.any(seeds != 0.0, axis=1)]])


def _rectangle_seeds(window, spacing):
    """Seeds at spacing over the rectangle window = (xmin, xmax, ymin, ymax), from its
    lower left corner, x-major."""
    xmin, xmax, ymin, ymax = window
    xs = xmin + spacing * np.arange(int(math.floor((xmax - xmin) / spacing)) + 1)
    ys = ymin + spacing * np.arange(int(math.floor((ymax - ymin) / spacing)) + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _s2_oracle_in_disk(k, radius):
    """s2_oracle over the square about the disk, clipped to the disk."""
    square = ex.s2_oracle(k, (-radius, radius, -radius, radius))
    inside = np.hypot(*square.location.T) <= radius
    return ex.CriticalSet(*(column[inside] for column in (
        square.location, square.value, square.kind, square.eigenvalues)))


def _kinds(points):
    """The kind name of each row of a CriticalSet."""
    return [ex.KINDS[code] for code in points.kind.tolist()]


def _sorted_rows(pts, gnorm):
    """The rows (x, y, gradient norm) as bytes, sorted by their bits, so results that
    hold the same rows in another order compare equal, and -0.0 differs from 0.0."""
    bits = np.column_stack([pts, gnorm]).view(np.uint64)
    return bits[np.lexsort(bits.T[::-1])].tobytes()


def _in_disk(refined, cfg):
    """The converged rows inside the disk of a (points, converged, gradient_norm) result,
    as (points, gradient_norm): the rows ex._refine_batch returns."""
    pts, converged, gnorm = refined
    keep = converged & (pts[:, 0] ** 2 + pts[:, 1] ** 2 <= cfg.radius ** 2)
    return pts[keep], gnorm[keep]


def test_s2_oracle_full_period():
    pts = ex.s2_oracle(1.0, (0.0, TWO_PI, 0.0, TWO_PI))
    kinds = _kinds(pts)
    assert sorted(kinds) == [ex.KIND_MAXIMUM, ex.KIND_MINIMUM, ex.KIND_SADDLE, ex.KIND_SADDLE]
    mx = kinds.index(ex.KIND_MAXIMUM)
    mn = kinds.index(ex.KIND_MINIMUM)
    assert np.allclose(pts.location[mx], (math.pi / 2, math.pi / 2), atol=1e-15)
    assert pts.value[mx] == 2.0
    assert np.allclose(pts.location[mn], (3 * math.pi / 2, 3 * math.pi / 2), atol=1e-15)
    assert pts.value[mn] == -2.0


def test_s2_oracle_counts_scale_quadratically():
    for m in (1, 2, 3):
        window = (0.0, TWO_PI * m, 0.0, TWO_PI * m)
        pts = ex.s2_oracle(1.0, window)
        assert pts.of_kind(ex.KIND_MAXIMUM).sum() == m * m
        assert pts.of_kind(ex.KIND_MINIMUM).sum() == m * m
        assert pts.of_kind(ex.KIND_SADDLE).sum() == 2 * m * m


def test_s2_oracle_respects_wavenumber():
    pts = ex.s2_oracle(2.0, (0.0, math.pi, 0.0, math.pi))
    # with k=2 the lattice shrinks by half: one full period fits
    assert len(pts) == 4
    mx = pts.location[pts.of_kind(ex.KIND_MAXIMUM)]
    assert len(mx) == 1
    assert np.allclose(mx[0], (math.pi / 4, math.pi / 4), atol=1e-15)


def _s2_oracle_reference(k, window):
    """s2_oracle as it built one record per point, kept verbatim as the oracle."""
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
                kind = ex.KIND_MAXIMUM
            elif sx < 0 and sy < 0:
                kind = ex.KIND_MINIMUM
            else:
                kind = ex.KIND_SADDLE
            out.append(_Point((x, y), float(sx + sy), kind, eigenvalues))
    out.sort(key=lambda cp: cp.location)
    return out


@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
def test_s2_oracle_equals_the_object_building_reference(k):
    rng = np.random.default_rng(12)
    windows = [(0.0, TWO_PI, 0.0, TWO_PI), (-20.0, 20.0, -3.0, 9.0), (0.1, 0.2, 0.1, 0.2)]
    for _ in range(50):
        x0, y0 = rng.uniform(-30.0, 30.0, 2)
        windows.append((x0, x0 + rng.uniform(0.0, 15.0), y0, y0 + rng.uniform(0.0, 15.0)))
    sizes = []
    for window in windows:
        got = ex.s2_oracle(k, window)
        _assert_critical_set_equals(got, _s2_oracle_reference(k, window))
        sizes.append(len(got))
    assert sizes[2] == 0 and max(sizes) > 40


def test_pipeline_matches_s2_oracle():
    # oracle points lie as close as 0.039 to the rim of these disks
    for k, radius, count in ((1.0, 3.0, 4), (1.0, 7.3, 16), (0.93, 14.0, 52), (2.5, 6.0, 76),
                             (1.0, 40.0, 500)):
        found = pw.find_critical_points(k, pw.default_search_config(k, radius),
                                        field=ex.S2_FIELD)
        oracle = _s2_oracle_in_disk(k, radius)
        assert len(found) == len(oracle) == count, (k, radius)
        assert _kinds(found) == _kinds(oracle)
        assert np.all(np.hypot(*(found.location - oracle.location).T) <= 1e-9)
        assert np.all(np.abs(found.value - oracle.value) <= 1e-9)
        assert np.allclose(found.eigenvalues, oracle.eigenvalues, atol=1e-8 * k * k)


def _refine_one(k, seed, cfg, field=ex.S5_FIELD):
    """Refine a one-row seed array; returns the converged location or None."""
    pts, _ = ex._refine_batch(field, k, np.array([seed], dtype=float), cfg)
    return tuple(pts[0].tolist()) if len(pts) else None


def test_refine_one_row_fixed_at_exact_critical_point():
    cfg = pw.default_search_config(1.0, TWO_PI)
    seed = (math.pi / 2.0, math.pi / 2.0)
    got = _refine_one(1.0, seed, cfg, field=ex.S2_FIELD)
    assert got == seed


def test_refine_one_row_converges_from_offset_seed():
    cfg = pw.default_search_config(1.0, TWO_PI)
    got = _refine_one(1.0, (math.pi / 2 + 0.3, math.pi / 2 - 0.2), cfg, field=ex.S2_FIELD)
    assert got is not None
    assert math.hypot(got[0] - math.pi / 2, got[1] - math.pi / 2) <= 1e-10


def test_refine_one_row_origin_seed_degenerate():
    # the fivefold field has a degenerate critical point at the origin where
    # the Hessian vanishes; the damped fallback must not produce NaN
    cfg = pw.default_search_config(1.0, 1.0)
    got = _refine_one(1.0, (0.0, 0.0), cfg)
    assert got == (0.0, 0.0)
    codes, _ = ex.classify(1.0, np.array([got]), cfg)
    assert codes.tolist() == [ex.KINDS.index(ex.KIND_DEGENERATE)]


def test_tiny_disk_returns_only_origin():
    found = pw.find_critical_points(1.0, pw.default_search_config(1.0, 0.1))
    assert len(found) == 1
    assert found.location.tolist() == [[0.0, 0.0]]
    assert _kinds(found) == [ex.KIND_DEGENERATE]
    assert found.value.tolist() == [0.0]


def test_gradient_postcondition_and_sorted_output():
    cfg = pw.default_search_config(1.0, 6.0)
    found = pw.find_critical_points(1.0, cfg)
    assert len(found) > 0
    locs = found.location.tolist()
    assert locs == sorted(locs)
    for loc in locs:
        g = pw.grad_s5(1.0, loc)
        assert math.hypot(g[0], g[1]) <= cfg.grad_tol
        assert math.hypot(*loc) <= 6.0 + 1e-9


def test_results_stable_under_seed_refinement():
    # halving the seed spacing must find the same critical set
    coarse = pw.find_critical_points(1.0, pw.default_search_config(1.0, 6.0))
    fine = pw.find_critical_points(
        1.0, pw.default_search_config(1.0, 6.0, seed_spacing=math.pi / 8.0)
    )
    assert len(coarse) == len(fine)
    assert np.all(np.hypot(*(coarse.location - fine.location).T) <= 1e-8)
    assert _kinds(coarse) == _kinds(fine)


def test_deterministic_across_calls():
    a = pw.find_critical_points(1.3, pw.default_search_config(1.3, 5.0))
    b = pw.find_critical_points(1.3, pw.default_search_config(1.3, 5.0))
    assert a == b


def test_classification_against_eigenvalues():
    found = pw.find_critical_points(1.0, pw.default_search_config(1.0, 10.0))
    kinds = _kinds(found)
    assert ex.KIND_MAXIMUM in kinds
    assert ex.KIND_MINIMUM in kinds
    assert ex.KIND_SADDLE in kinds
    for loc, (lo, hi), kind in zip(found.location.tolist(), found.eigenvalues.tolist(), kinds):
        assert lo <= hi
        h = pw.hess_s5(1.0, loc)
        want = np.linalg.eigvalsh(h)
        assert abs(lo - want[0]) <= 1e-9
        assert abs(hi - want[1]) <= 1e-9
        if kind == ex.KIND_MAXIMUM:
            assert hi < 0
        elif kind == ex.KIND_MINIMUM:
            assert lo > 0
        elif kind == ex.KIND_SADDLE:
            assert lo < 0 < hi


def test_classify_helper_cases():
    cfg = pw.default_search_config(1.0, TWO_PI)
    codes, eigs = ex.classify(1.0, np.array([(math.pi / 2, math.pi / 2)]), cfg,
                              field=ex.S2_FIELD)
    assert ex.KINDS[codes[0]] == ex.KIND_MAXIMUM
    assert np.allclose(eigs, [(-1.0, -1.0)], atol=1e-12)
    codes, eigs = ex.classify(1.0, np.array([(3 * math.pi / 2, math.pi / 2)]), cfg,
                              field=ex.S2_FIELD)
    assert ex.KINDS[codes[0]] == ex.KIND_SADDLE
    assert eigs[0, 0] < 0 < eigs[0, 1]
    codes, eigs = ex.classify(1.0, np.zeros((1, 2)), cfg)
    assert ex.KINDS[codes[0]] == ex.KIND_DEGENERATE
    assert codes.dtype == np.int8 and eigs.shape == (1, 2)


def test_field_symmetry_of_critical_set():
    found = pw.find_critical_points(1.0, pw.default_search_config(1.0, 8.0))
    locs = found.location
    kinds = _kinds(found)
    c5, s5 = math.cos(TWO_PI / 5.0), math.sin(TWO_PI / 5.0)
    rot = locs @ np.array([[c5, s5], [-s5, c5]])
    for p, kind in zip(rot, kinds):
        d = np.hypot(locs[:, 0] - p[0], locs[:, 1] - p[1])
        j = int(d.argmin())
        assert d[j] <= 1e-8
        assert kinds[j] == kind
    swap = {
        ex.KIND_MAXIMUM: ex.KIND_MINIMUM,
        ex.KIND_MINIMUM: ex.KIND_MAXIMUM,
        ex.KIND_SADDLE: ex.KIND_SADDLE,
        ex.KIND_DEGENERATE: ex.KIND_DEGENERATE,
    }
    for p, kind in zip(-locs, kinds):
        d = np.hypot(locs[:, 0] - p[0], locs[:, 1] - p[1])
        j = int(d.argmin())
        assert d[j] <= 1e-8
        assert kinds[j] == swap[kind]


def test_dense_seed_grid_cross_check():
    # brute-force style scan at quadruple seed density agrees with defaults
    base = pw.find_critical_points(1.0, pw.default_search_config(1.0, 12.0))
    dense = pw.find_critical_points(
        1.0,
        pw.default_search_config(
            1.0, 12.0, seed_spacing=math.pi / 16.0, dedupe_radius=math.pi / 64.0
        ),
    )
    assert len(base) == len(dense)
    assert np.all(np.hypot(*(base.location - dense.location).T) <= 1e-8)
    assert _kinds(base) == _kinds(dense)


def test_search_config_validation():
    with pytest.raises(ValueError):
        ex.SearchConfig(radius=-1.0, seed_spacing=0.5)
    with pytest.raises(ValueError):
        ex.SearchConfig(radius=5.0, seed_spacing=0.0)
    with pytest.raises(ValueError):
        ex.SearchConfig(radius=5.0, seed_spacing=0.5, dedupe_radius=0.6)
    with pytest.raises(ValueError):
        ex.SearchConfig(radius=5.0, seed_spacing=0.5, max_newton_steps=0)
    with pytest.raises(ValueError):
        ex.SearchConfig(radius=0.0, seed_spacing=0.5)


def test_seed_spacing_guard_against_aliasing():
    # spacing above half the shortest wavelength risks skipping extrema
    cfg = ex.SearchConfig(radius=4.0, seed_spacing=2.0)
    with pytest.raises(ValueError):
        pw.find_critical_points(2.0, cfg)


def test_search_grid_refuses_a_k_whose_hessian_determinant_overflows():
    # (2.5 k^2)^2 is finite up to k of about 7.3e76
    ex.check_search_grid(5e76, ex.default_search_config(5e76, 1e-76))
    with pytest.raises(ValueError, match=r"\(2\.5\*k\*k\)\*\*2 overflows"):
        ex.check_search_grid(1e77, ex.default_search_config(1e77, 1e-76))


def test_default_search_config_values():
    cfg = pw.default_search_config(2.0, 7.5)
    assert cfg.radius == 7.5
    assert abs(cfg.seed_spacing - math.pi / 8.0) <= 1e-15
    assert abs(cfg.dedupe_radius - math.pi / 32.0) <= 1e-15
    assert cfg.grad_tol == 1e-10
    assert cfg.max_newton_steps == 40
    over = pw.default_search_config(2.0, 7.5, grad_tol=1e-8)
    assert over.grad_tol == 1e-8


def _same_rows(got, want):
    """Whether the dedupe kept the rows of the reference, in whatever order."""
    return sorted(np.asarray(got).tolist()) == sorted(want)


def _greedy_dedupe_reference(pts, gnorm, dedupe_radius):
    """The original one-point-at-a-time greedy loop, kept verbatim as the oracle."""
    order = np.lexsort((pts[:, 1], pts[:, 0], gnorm))
    cells = {}
    kept = []
    h = dedupe_radius
    for j in order:
        x, y = pts[j]
        cx, cy = int(math.floor(x / h)), int(math.floor(y / h))
        clash = False
        for nx in (cx - 1, cx, cx + 1):
            for ny in (cy - 1, cy, cy + 1):
                for i in cells.get((nx, ny), ()):
                    if (pts[i, 0] - x) ** 2 + (pts[i, 1] - y) ** 2 <= h * h:
                        clash = True
                        break
                if clash:
                    break
            if clash:
                break
        if not clash:
            cells.setdefault((cx, cy), []).append(j)
            kept.append(j)
    return kept


def _dedupe_cases(rng, h):
    """Point sets where the greedy order, ties and cell edges decide the result."""
    centers = rng.uniform(-30 * h, 30 * h, size=(60, 2))
    sizes = rng.integers(1, 12, size=len(centers))
    spread = rng.choice([1e-12, 0.05 * h, 0.4 * h, 1.2 * h], size=len(centers))
    clusters = np.concatenate(
        [c + s * rng.standard_normal((n, 2)) for c, n, s in zip(centers, sizes, spread)]
    )
    yield clusters, rng.random(len(clusters))
    # chains at about 0.9 h: which links survive depends on the visit order
    t = np.arange(40)[:, None] * (0.9 * h) * np.array([[1.0, 0.3]]) / math.hypot(1.0, 0.3)
    chains = np.concatenate([t + (-7.0 * h, -3.0 * h), t[::-1] * (-1.0, 1.0) + (2 * h, 9 * h)])
    chains += rng.uniform(-0.02 * h, 0.02 * h, size=chains.shape)
    yield chains, rng.random(len(chains))
    # gradient-norm ties broken by x then y, on a lattice of cell and half-cell edges
    edges = h * np.array([(a / 2.0, b / 2.0) for a in range(-6, 7) for b in range(-6, 7)])
    edges = np.concatenate([edges, edges + (h, 0.0), edges * -1.0])
    yield edges, rng.choice([0.0, 1e-12, 1e-11], size=len(edges))
    # exactly h apart along the axes and on a diagonal, on both sides of zero
    exact = np.array([(0.0, 0.0), (h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h), (h, h),
                      (-0.0, 2 * h), (0.5 * h, 0.5 * h), (-0.5 * h, -0.5 * h)])
    yield exact, np.zeros(len(exact))
    # isolated pairs just over h apart on the diagonal, anywhere relative to the cells:
    # both are kept, so a shortcut over any cell wider than h / sqrt(2) drops some
    starts = 4 * h * np.array([(a, b) for a in range(-20, 20) for b in range(-20, 20)])
    starts += rng.uniform(0.0, h, size=starts.shape)
    pairs = np.concatenate([starts, starts + 1.0001 * h / math.sqrt(2.0)])
    yield pairs, np.arange(len(pairs), dtype=float)


def _pow_straddles_threshold(h):
    """An offset (dx, dy) that dx**2 + dy**2 puts within h but dx*dx + dy*dy does not, or vice versa.

    ** rounds as C pow, which is not always the correctly rounded x*x.
    """
    hh = h * h
    for n in range(1, 200000):
        dx = h * n / 200000.0
        dy = math.sqrt(hh - dx * dx)
        for _ in range(4):
            if (dx ** 2 + dy ** 2 <= hh) != (dx * dx + dy * dy <= hh):
                return dx, dy
            dy = math.nextafter(dy, math.inf)
    raise AssertionError("no straddling offset found")


def test_dedupe_squares_with_pow_like_the_reference():
    h = math.pi / 16.0
    dx, dy = _pow_straddles_threshold(h)
    pts = np.array([(0.0, 0.0), (dx, dy), (-dx, -dy), (3 * h, 0.0), (3 * h + dx, dy)])
    gnorm = np.arange(len(pts), dtype=float)
    assert _same_rows(ex._dedupe(pts, gnorm, h), _greedy_dedupe_reference(pts, gnorm, h))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("h", [math.pi / 16.0, 0.1, 1.0 / 3.0])
def test_dedupe_matches_greedy_reference(seed, h):
    rng = np.random.default_rng(seed)
    for pts, gnorm in _dedupe_cases(rng, h):
        assert _same_rows(ex._dedupe(pts, gnorm, h), _greedy_dedupe_reference(pts, gnorm, h))


def test_dedupe_matches_greedy_reference_on_converged_seeds():
    cfg = ex.default_search_config(1.0, 30.0)
    pts, gnorm = ex._refine_batch(ex.S5_FIELD, 1.0, _half_grid(cfg), cfg)
    assert len(pts) > 1000
    want = _greedy_dedupe_reference(pts, gnorm, cfg.dedupe_radius)
    assert _same_rows(ex._dedupe(pts, gnorm, cfg.dedupe_radius), want)


def _dedupe_checked(monkeypatch, pts, gnorm, h, traced=False):
    """Rows that went through ex._greedy_keep, once ex._dedupe has matched the reference;
    traced, also the tracemalloc peak of ex._dedupe per row."""
    seen = []
    greedy = ex._greedy_keep

    def spy(rows, cell, radius):
        seen.append(len(rows))
        return greedy(rows, cell, radius)

    with monkeypatch.context() as patched:
        patched.setattr(ex, "_greedy_keep", spy)
        if traced:
            tracemalloc.start()
        try:
            got = ex._dedupe(pts, gnorm, h)
            peak = tracemalloc.get_traced_memory()[1] if traced else 0
        finally:
            tracemalloc.stop()
    assert _same_rows(got, _greedy_dedupe_reference(pts, gnorm, h))
    return (seen[0], peak / len(pts)) if traced else seen[0]


@pytest.mark.parametrize("k", [0.93, 2.5])
def test_dedupe_matches_greedy_reference_on_a_search_of_radius_100(monkeypatch, k):
    cfg = ex.default_search_config(k, 100.0)
    pts, gnorm = ex._refine_batch(ex.S5_FIELD, k, _half_grid(cfg), cfg)
    assert 0 < _dedupe_checked(monkeypatch, pts, gnorm, cfg.dedupe_radius) < len(pts)


def test_dedupe_matches_greedy_reference_with_a_radius_near_the_seed_spacing(monkeypatch):
    cfg = ex.default_search_config(1.0, 100.0, dedupe_radius=0.9 * math.pi / 4.0)
    pts, gnorm = ex._refine_batch(ex.S5_FIELD, 1.0, _half_grid(cfg), cfg)
    assert 0 < _dedupe_checked(monkeypatch, pts, gnorm, cfg.dedupe_radius) < len(pts)


def test_dedupe_keeps_the_lowest_of_tied_rows(monkeypatch):
    # equal rows, and rows tied on gradient norm and x but not on y, in fine cells alone
    # and in fine cells next to another, in shuffled row order
    rng = np.random.default_rng(11)
    h = 0.1
    centers = 10 * h * np.array([(a, b) for a in range(-20, 20) for b in range(-20, 20)])
    centers += 0.25 * h + rng.uniform(-0.2 * h, 0.2 * h, size=centers.shape)
    centers = np.concatenate([centers, centers[::2] + (0.5 * h, 0.0)])
    gnorm = rng.choice([0.0, 1e-13, 2e-13], size=len(centers))
    copies = rng.integers(1, 6, size=len(centers))
    pts, gnorm = np.repeat(centers, copies, axis=0), np.repeat(gnorm, copies)
    shifted = pts[::3] + (0.0, rng.choice([-0.1, 0.1]) * h)
    pts, gnorm = np.concatenate([pts, shifted]), np.concatenate([gnorm, gnorm[::3]])
    order = rng.permutation(len(pts))
    assert 0 < _dedupe_checked(monkeypatch, pts[order], gnorm[order], h) < len(pts)


@pytest.mark.parametrize("neighbours", [(), ((0.6, 0.0),), ((0.6, 0.0), (-0.6, -0.3))])
def test_dedupe_keeps_the_lowest_of_signed_zeros(monkeypatch, neighbours):
    # -0.0 ties with 0.0, so the lowest row wins, and the CSV shows its sign
    h = math.pi / 16.0
    zeros = np.array([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)] * 3)
    for order in np.random.default_rng(3).permuted(np.tile(np.arange(12), (8, 1)), axis=1):
        pts = np.concatenate([zeros[order], h * np.array(neighbours).reshape(-1, 2)])
        gnorm = np.zeros(len(pts))
        greedy_rows = _dedupe_checked(monkeypatch, pts, gnorm, h)
        assert greedy_rows == (len(pts) if neighbours else 0)


def test_dedupe_with_every_cell_alone_and_with_none(monkeypatch):
    rng = np.random.default_rng(5)
    h = 0.1
    apart = 4 * h * np.array([(a, b) for a in range(-30, 30) for b in range(-30, 30)])
    apart = np.repeat(apart + 0.25 * h, 3, axis=0) + rng.uniform(-0.2, 0.2, (10800, 2)) * h
    assert _dedupe_checked(monkeypatch, apart, rng.random(len(apart)), h) == 0
    # one point in every fine cell of a square of 60 x 60 of them
    packed = 0.5 * h * (np.array([(a, b) for a in range(60) for b in range(60)]) + 0.5)
    packed += rng.uniform(-0.2, 0.2, packed.shape) * h
    assert _dedupe_checked(monkeypatch, packed, rng.random(len(packed)), h) == len(packed)
    # -5e-324 / 3 rounds to -0.0 but -5e-324 / 1.5 to -5e-324, so the first point's fine
    # cell -1 does not lie in its cell 0 of side 3: every row goes through the greedy,
    # which drops (3, 0), within 3 of it; by fine cells the two would be two cells apart
    tiny = np.array([(-5e-324, 0.0), (3.0, 0.0)])
    assert _dedupe_checked(monkeypatch, tiny, np.array([0.0, 1.0]), 3.0) == len(tiny)


def test_dedupe_matches_greedy_reference_over_more_than_2_30_cells(monkeypatch):
    # cell indices that span 2**30 or more are numbered with their gaps closed
    rng = np.random.default_rng(9)
    h = 1e-9
    pts = rng.uniform(-12.0, 12.0, size=(4000, 2))
    pts = np.concatenate([pts, pts[:2000] + rng.uniform(-1.2, 1.2, (2000, 2)) * h])
    greedy_rows = _dedupe_checked(monkeypatch, pts, rng.random(len(pts)), h)
    assert 0 < greedy_rows < len(pts)
    assert ex._cell_keys(np.floor(pts / h).T)[1] < 2 ** 31


def test_dedupe_memory_stays_linear_on_coincident_rows(monkeypatch):
    # rows at +-tiny coordinates fill the four fine cells around the origin, all in
    # conflict; any work per pair of rows would take gigabytes here
    rng = np.random.default_rng(13)
    pts = rng.choice([-1e-17, -0.0, 0.0, 1e-17], size=(20000, 2))
    gnorm = rng.random(len(pts))
    greedy_rows, per_row = _dedupe_checked(monkeypatch, pts, gnorm, 0.002, traced=True)
    assert greedy_rows == len(pts)
    # measured 64 B per row
    assert per_row < 100


def test_dedupe_memory_stays_linear_on_a_dense_seed_grid(monkeypatch):
    # nearly every converged seed lands in a fine cell with occupied neighbours
    cfg = ex.default_search_config(1.0, 1.0, seed_spacing=0.01, dedupe_radius=0.002)
    pts, gnorm = ex._refine_batch(ex.S5_FIELD, 1.0, _half_grid(cfg), cfg)
    h = cfg.dedupe_radius
    greedy_rows, per_row = _dedupe_checked(monkeypatch, pts, gnorm, h, traced=True)
    assert greedy_rows > 0.9 * len(pts)
    # measured 64 B per row
    assert per_row < 100


def _classify_reference(k, location, cfg, field):
    """The original single-point classify, kept verbatim as the oracle."""
    hess = field.hess(k, np.asarray(location, dtype=float))
    half_trace = 0.5 * (hess[0, 0] + hess[1, 1])
    spread = math.hypot(0.5 * (hess[0, 0] - hess[1, 1]), hess[0, 1])
    lo, hi = half_trace - spread, half_trace + spread
    tol = cfg.eig_degenerate_tol
    if hi < -tol:
        kind = ex.KIND_MAXIMUM
    elif lo > tol:
        kind = ex.KIND_MINIMUM
    elif lo < -tol and hi > tol:
        kind = ex.KIND_SADDLE
    else:
        kind = ex.KIND_DEGENERATE
    return kind, (float(lo), float(hi))


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
def test_batched_classify_and_value_equal_single_points(field, k):
    cfg = ex.default_search_config(k, 12.0 / k)
    found = ex.find_critical_points(k, cfg, field=field)
    assert len(found) > 20
    for loc, value, kind, eig in zip(found.location.tolist(), found.value.tolist(),
                                     _kinds(found), found.eigenvalues.tolist()):
        assert _classify_reference(k, loc, cfg, field) == (kind, tuple(eig))
        assert value == float(field.value(k, np.asarray(loc)))
    rng = np.random.default_rng(7)
    pts = np.concatenate([found.location, rng.uniform(-60.0, 60.0, (4000, 2))])
    codes, eigenvalues = ex.classify(k, pts, cfg, field=field)
    for p, code, eig in zip(pts.tolist(), codes.tolist(), eigenvalues.tolist()):
        kind = ex.KINDS[code]
        assert _classify_reference(k, p, cfg, field) == (kind, tuple(eig))
        one_code, one_eig = ex.classify(k, np.array([p]), cfg, field=field)
        assert (one_code.tolist(), one_eig.tolist()) == ([code], [eig])


def _find_critical_points_reference(k, cfg, field):
    """find_critical_points as it built one record per point, kept verbatim as the oracle,
    on the rows of the whole lattice that _refine_batch_reference converges inside the disk,
    with one-row batches evaluated as two rows.

    The batch classify of that version (kind names) is inlined.
    """
    pts, gnorm = _in_disk(
        _refine_batch_reference(_two_row_batches(field), k, _seed_grid(cfg), cfg), cfg)
    if len(pts) == 0:
        return []
    found = pts[ex._dedupe(pts, gnorm, cfg.dedupe_radius)]
    found = found[np.lexsort((found[:, 1], found[:, 0]))]
    hess = field.hess(k, found[:, None, :]).reshape(-1, 2, 2)
    a, b, c = hess[:, 0, 0], hess[:, 1, 1], hess[:, 0, 1]
    half_trace = 0.5 * (a + b)
    spread = np.array(list(map(math.hypot, (0.5 * (a - b)).tolist(), c.tolist())))
    lo, hi = half_trace - spread, half_trace + spread
    tol = cfg.eig_degenerate_tol
    codes = np.select([hi < -tol, lo > tol, (lo < -tol) & (hi > tol)], [0, 1, 2], 3)
    kinds = [ex.KINDS[code] for code in codes.tolist()]
    eigenvalues = np.column_stack([lo, hi])
    values = field.value(k, found[:, None, :])[:, 0]
    return [
        _Point(location=tuple(loc), value=value, kind=kind, eigenvalues=tuple(eig))
        for loc, value, kind, eig in zip(
            found.tolist(), values.tolist(), kinds, eigenvalues.tolist()
        )
    ]


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def _assert_critical_set_equals(got, want):
    """The CriticalSet holds, bit for bit, the points of the object-building reference."""
    assert isinstance(got, ex.CriticalSet)
    assert len(got) == len(want)
    n = len(want)
    assert _bits(got.location) == _bits(np.array([cp.location for cp in want]).reshape(n, 2))
    assert _bits(got.value) == _bits(np.array([cp.value for cp in want], dtype=float))
    assert _bits(got.eigenvalues) == _bits(
        np.array([cp.eigenvalues for cp in want]).reshape(n, 2))
    assert _kinds(got) == [cp.kind for cp in want]
    assert got.of_kind(ex.KIND_SADDLE).tolist() == [cp.kind == ex.KIND_SADDLE for cp in want]
    assert got.of_kind().sum() == 0


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
def test_critical_set_equals_the_object_building_reference(field, k):
    configs = [
        ex.default_search_config(k, 14.0 / k),
        # the origin alone of s5, no critical point of s2
        ex.default_search_config(k, 0.1),
        ex.SearchConfig(radius=9.5 / k, seed_spacing=math.pi / (5.0 * k)),
        ex.default_search_config(k, 6.0 / k, max_newton_steps=2),
    ]
    sizes = []
    for cfg in configs:
        got = ex.find_critical_points(k, cfg, field=field)
        want = _find_critical_points_reference(k, cfg, field)
        _assert_critical_set_equals(got, want)
        assert got == ex.find_critical_points(k, cfg, field=field)
        sizes.append(len(got))
    assert sizes[0] > 20 and sizes[1] == (field is ex.S5_FIELD)
    assert got != ex.find_critical_points(k, configs[0], field=field)
    with pytest.raises(TypeError):
        hash(got)


def test_find_critical_points_classifies_in_one_call(monkeypatch):
    calls = []
    single = ex.classify

    def counted(k, location, cfg, field=ex.S5_FIELD):
        calls.append(np.shape(location))
        return single(k, location, cfg, field=field)

    monkeypatch.setattr(ex, "classify", counted)
    found = ex.find_critical_points(1.0, ex.default_search_config(1.0, 15.0))
    assert calls == [(len(found), 2)]


@pytest.mark.parametrize("k", [1.0, 0.93])
def test_traced_field_triple_takes_the_paired_search(k):
    # perfbench/trace_child.py times the search through a FieldTriple of three wrapped
    # S5_FIELD callables; it searches as S5_FIELD does, seeding the half lattice. The
    # disk holds two bands of it, so the first band is not the whole half lattice.
    cfg = ex.default_search_config(k, 100.0 / k)
    first_grad = []

    def grad(kk, p):
        if not first_grad:
            first_grad.append(np.array(p))
        return ex.S5_FIELD.grad(kk, p)

    def wrapped(fn):
        return lambda kk, p: fn(kk, p)

    traced = ex.FieldTriple(wrapped(ex.S5_FIELD.value), grad, wrapped(ex.S5_FIELD.hess))
    assert ex.find_critical_points(k, cfg, field=traced) == ex.find_critical_points(k, cfg)
    band = next(pw.wavefield._disk_lattice_blocks(cfg.radius, cfg.seed_spacing,
                                                  ex._NEWTON_BLOCK))
    assert len(band) == ex._NEWTON_BLOCK < len(_half_grid(cfg))
    assert first_grad[0].tobytes() == band.tobytes()


def _refine_batch_reference(field, k, seeds, cfg):
    """The Newton loop before the compacted working set, kept verbatim as the oracle."""
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


def _two_row_batches(field):
    """field, evaluating a one-row batch of grad or hess as two identical rows, as
    ex._evaluate does, so _refine_batch_reference rounds as the search does."""
    def two_rows(fn):
        def evaluated(k, p):
            if len(p) == 1:
                return fn(k, np.repeat(p, 2, axis=0))[:1]
            return fn(k, p)
        return evaluated

    return ex.FieldTriple(field.value, two_rows(field.grad), two_rows(field.hess))


def _assert_refine_matches_reference(field, k, seeds, cfg, traced=None, band=None):
    """ex._refine_batch's rows, checked byte for byte against the converged rows inside
    the disk of the reference on the seeds and their mates (_with_mates), in any order;
    returns them and the reference's result on the seeds' own rows. traced, a copy of
    field that records its calls, is the one ex._refine_batch calls; with band,
    ex._refine_batch runs on consecutive bands of that many seeds, and their rows are
    joined."""
    band = band or max(len(seeds), 1)
    bands = [ex._refine_batch(traced or field, k, seeds[i:i + band], cfg)
             for i in range(0, max(len(seeds), 1), band)]
    got = tuple(map(np.concatenate, zip(*bands)))
    want = _refine_batch_reference(_two_row_batches(field), k, _with_mates(seeds), cfg)
    assert _sorted_rows(*got) == _sorted_rows(*_in_disk(want, cfg))
    return got, tuple(column[:len(seeds)] for column in want)


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
def test_refine_batch_matches_reference(field, k):
    # the seeds of the search, which with their mates are the whole lattice
    cfg = ex.default_search_config(k, 20.0 / k)
    seeds = _half_grid(cfg)
    (pts, _), _ = _assert_refine_matches_reference(field, k, seeds, cfg)
    assert len(pts) > 0.5 * len(_seed_grid(cfg))
    # few steps leave rows unconverged when the loop ends
    short = ex.default_search_config(k, 20.0 / k, max_newton_steps=3)
    (pts, _), _ = _assert_refine_matches_reference(field, k, seeds, short)
    assert 0 < len(pts) < len(_seed_grid(cfg))


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
def test_refine_batch_matches_reference_on_fallback_steps(field):
    # a degeneracy threshold this large sends many rows through the damped
    # gradient branch, next to regular rows in the same step
    cfg = ex.default_search_config(1.0, 15.0, eig_degenerate_tol=0.5)
    _assert_refine_matches_reference(field, 1.0, _half_grid(cfg), cfg)


def test_refine_batch_matches_reference_on_window_and_critical_seeds():
    window = (-3.0, 11.5, 0.25, 9.0)
    cfg = pw.default_search_config(1.0, 10.0)
    rectangle = _rectangle_seeds(window, cfg.seed_spacing)
    exact = ex.s2_oracle(1.0, window).location
    seeds = np.concatenate([exact, rectangle, exact[:1]])
    (pts, _), (_, converged, _) = _assert_refine_matches_reference(ex.S2_FIELD, 1.0, seeds, cfg)
    assert converged[: len(exact)].all()
    # the critical seeds inside the disk come back unchanged, those outside do not
    inside = exact[:, 0] ** 2 + exact[:, 1] ** 2 <= cfg.radius ** 2
    assert 0 < inside.sum() < len(exact)
    found = set(map(tuple, pts.tolist()))
    assert [tuple(p) in found for p in exact.tolist()] == inside.tolist()
    for field in (ex.S5_FIELD, ex.S2_FIELD):
        _assert_refine_matches_reference(field, 1.0, rectangle, cfg)


def test_refine_batch_matches_reference_on_small_batches():
    cfg = ex.default_search_config(1.0, 10.0)
    grid = _half_grid(cfg)
    rng = np.random.default_rng(11)
    for field in (ex.S5_FIELD, ex.S2_FIELD):
        for seeds in (grid[:0], grid[:1], grid[7:9], grid[[0, -1]], np.zeros((1, 2))):
            _assert_refine_matches_reference(field, 1.0, seeds, cfg)
    for _ in range(300):
        seeds = rng.uniform(-10.0, 10.0, (int(rng.integers(1, 6)), 2))
        field = (ex.S5_FIELD, ex.S2_FIELD)[int(rng.integers(2))]
        _assert_refine_matches_reference(field, float(rng.uniform(0.9, 1.1)), seeds, cfg)


def _non_finite_field(field=ex.S5_FIELD):
    """field with its Hessian zeroed near critical points (gradient norm below 1e-3).

    With a zero determinant threshold a row that steps there divides 0/0 on
    its next step: it stops at its last finite point, unconverged.
    """
    def hess(k, p):
        g = field.grad(k, p)
        return field.hess(k, p) * (np.hypot(g[..., 0], g[..., 1]) >= 1e-3)[..., None, None]

    return ex.FieldTriple(field.value, field.grad, hess)


def test_refine_batch_matches_reference_when_rows_turn_non_finite():
    field = _non_finite_field()
    cfg = ex.SearchConfig(radius=4.0, seed_spacing=0.2, eig_degenerate_tol=1e-200)
    seeds = _rectangle_seeds((0.0, 4.0, -2.0, 2.0), cfg.seed_spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        (pts, _), (last, converged, _) = _assert_refine_matches_reference(field, 1.0, seeds, cfg)
    # the reference keeps the last finite point of the rows that turned non-finite
    assert (~converged & (last != seeds).any(axis=1)).sum() > 10 and len(pts) > 0


def _recording(fn, rows):
    """fn, appending the row count of every batch it is called with to rows."""
    def recorded(k, p):
        rows.append(len(p))
        return fn(k, p)

    return recorded


@pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
def test_refine_batch_matches_reference_across_blocks(field, block):
    # the seeds refined in bands of block rows each, one band after another, as
    # find_critical_points refines the disk lattice
    grads, hessians = [], []
    traced = ex.FieldTriple(field.value, _recording(field.grad, grads),
                            _recording(field.hess, hessians))
    # random seeds converge after different step counts, so each band's working
    # set runs through every size down to one row; 61 and 961 are 1 more than a
    # multiple of the band size, so the last band is a lone row
    seeds = np.random.default_rng(4).uniform(-8.0, 8.0, (961, 2))[: 961 if block == 64 else 61]
    # a degeneracy threshold this large sends rows through the fallback on the
    # first step already
    hess = field.hess(1.0, seeds)
    det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    assert (np.abs(det) < 0.5 ** 2).any()
    for cfg in (
        ex.default_search_config(1.0, 8.0),
        ex.default_search_config(1.0, 8.0, eig_degenerate_tol=0.5),
        ex.default_search_config(1.0, 8.0, max_newton_steps=3),
    ):
        _assert_refine_matches_reference(field, 1.0, seeds, cfg, traced, block)
    # full bands, and one-row batches, which reach the field as two rows
    full = max(block, 2)
    assert grads.count(full) > 2 and hessians.count(full) > 2
    assert 2 in grads and 2 in hessians and 1 not in grads + hessians
    cfg = ex.SearchConfig(radius=4.0, seed_spacing=0.4, eig_degenerate_tol=1e-200)
    seeds = _rectangle_seeds((0.0, 4.0, -2.0, 2.0), cfg.seed_spacing)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, (last, converged, _) = _assert_refine_matches_reference(
            _non_finite_field(field), 1.0, seeds, cfg, band=block)
    assert (~converged & (last != seeds).any(axis=1)).sum() > 10


def _band_counting(grad, tol, band):
    """grad, appending to band the number of rows whose larger component is within tol
    but whose norm is not."""
    def counted(k, p):
        g = grad(k, p)
        near = (np.abs(g).max(axis=1) <= tol) & (np.hypot(g[:, 0], g[:, 1]) > tol)
        band.append(int(near.sum()))
        return g

    return counted


@pytest.mark.parametrize("block", [2, 3, 5])
@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
def test_refine_batch_matches_reference_with_rows_between_component_and_norm(field, block):
    # the gradient norm is taken only on rows whose larger component is within
    # grad_tol; at these coarse tolerances many rows sit between the two, where
    # only the norm decides, next to fallback steps and rows that turn non-finite;
    # the seeds are refined in bands of block rows
    rng = np.random.default_rng(9)
    exact = ex.s2_oracle(1.0, (-8.0, 8.0, -8.0, 8.0)).location
    for base, tol in ((field, 1e-3), (_non_finite_field(field), 1e-4)):
        # s2's gradient is (cos x, cos y), so these offsets from its critical
        # points put both components just within tol on the first step
        offsets = 0.9 * tol * rng.choice([-1.0, 1.0], (len(exact), 2))
        seeds = np.concatenate([rng.uniform(-8.0, 8.0, (61, 2)), exact + offsets])
        band = []
        traced = ex.FieldTriple(base.value, _band_counting(base.grad, tol, band), base.hess)
        for degenerate in (1e-8, 0.5, 1e-200):
            cfg = ex.default_search_config(1.0, 8.0, grad_tol=tol, eig_degenerate_tol=degenerate)
            with np.errstate(divide="ignore", invalid="ignore"):
                _, want = _assert_refine_matches_reference(base, 1.0, seeds, cfg, traced, block)
        assert sum(band) > 5
    # the last run: the reference stopped rows at their last finite point, unconverged
    last, converged, _ = want
    assert (~converged & (last != seeds).any(axis=1)).any()


def test_blocked_newton_step_emits_no_runtime_warning(monkeypatch):
    # s2's Hessian is singular where sin(k x) or sin(k y) is 0, as on the seed
    # rows through the origin, so the Newton step divides by zero in several
    # bands
    monkeypatch.setattr(ex, "_NEWTON_BLOCK", 8)
    cfg = ex.default_search_config(1.0, 10.0, eig_degenerate_tol=0.5)
    seeds = _half_grid(cfg)
    hess = ex.S2_FIELD.hess(1.0, seeds)
    assert (hess[:, 0, 0] * hess[:, 1, 1] == 0).sum() > 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = ex.find_critical_points(1.0, cfg, field=ex.S2_FIELD)
    assert len(found)


def _seed_grid_reference(cfg):
    """The disk seed grid as it was built before the disk lattice blocks, kept verbatim."""
    s = cfg.seed_spacing
    n = int(math.floor(cfg.radius / s))
    vals = s * np.arange(-n, n + 1)
    gx, gy = np.meshgrid(vals, vals, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= cfg.radius ** 2
    return pts[inside]


@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
@pytest.mark.parametrize("radius", [0.2, 1.0, 7.3, 40.0, 200.0])
def test_disk_seed_grid_matches_the_meshgrid_reference(k, radius):
    configs = [ex.default_search_config(k, radius / k)]
    s = configs[0].seed_spacing
    # a radius on the lattice puts points exactly on the rim
    configs.append(ex.default_search_config(k, 12 * s))
    configs += [ex.SearchConfig(radius=radius, seed_spacing=h) for h in (0.25, 0.37, 1.0)]
    for cfg in configs:
        got, want = _seed_grid(cfg), _seed_grid_reference(cfg)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_find_critical_points_memory_per_seed():
    cfg = ex.default_search_config(1.0, 100.0)
    seeds = len(_seed_grid(cfg))
    tracemalloc.start()
    try:
        ex.find_critical_points(1.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 132.4 B per seed with the one-point-at-a-time dedupe, 130.9 B since, 89.4 B
    # with the mirrored Newton loop, 70.9 B with its half-size result table, 56.7 B
    # with only the rows that converge inside the disk returned, 51.5 B with the
    # lattice refined band by band
    assert peak / seeds <= 58


def test_dedupe_memory_per_candidate():
    cfg = ex.default_search_config(1.0, 100.0)
    pts, gnorm = ex._refine_batch(ex.S5_FIELD, 1.0, _half_grid(cfg), cfg)
    tracemalloc.start()
    try:
        ex._dedupe(pts, gnorm, cfg.dedupe_radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 115.8 B per candidate with the one-point-at-a-time dedupe, 87.6 B since, 64.0 B
    # later, 27.1 B with its columns made one at a time and no row-number column, 26.0 B
    # with the keys made and sorted in place and no fine-cell number per row
    assert peak / len(pts) < 27


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _first_band(cfg):
    """The first band of seeds find_critical_points refines, from the origin on."""
    return next(pw.wavefield._disk_lattice_blocks(cfg.radius, cfg.seed_spacing,
                                                  ex._NEWTON_BLOCK))


def test_mirrored_refine_batch_memory_per_seed():
    # one band of the half lattice, each row but the origin standing for its mate too
    cfg = ex.default_search_config(1.0, 200.0)
    seeds = _first_band(cfg)
    peak = _traced_peak(ex._refine_batch, ex.S5_FIELD, 1.0, seeds, cfg)
    # on the half lattice at R = 100, per seed of the whole lattice: 89.4 B with the
    # whole result table held from the start; 70.9 B with the mates' rows made as the
    # loop ends, 56.7 B with only the rows that converge inside the disk kept. On one
    # band: 124.2 B per row
    assert len(seeds) == ex._NEWTON_BLOCK
    assert peak / len(seeds) < 126


def _search_phase_peaks(monkeypatch, radius):
    """The traced peak of each phase of one search at k = 1, per seed of the whole
    lattice: the seeding before the first band, the bands (their Newton loops and the
    seeding between them), and everything after the last band (join, dedupe,
    classify)."""
    cfg = ex.default_search_config(1.0, radius)
    refine, peaks = ex._refine_batch, []

    def phased(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        result = refine(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return result

    with monkeypatch.context() as patched:
        patched.setattr(ex, "_refine_batch", phased)
        peaks.append(_traced_peak(ex.find_critical_points, 1.0, cfg))
    seeds = len(_seed_grid(cfg))
    return peaks[0] / seeds, max(peaks[1:-1]) / seeds, peaks[-1] / seeds


def test_find_critical_points_memory_per_phase(monkeypatch):
    before, newton, after = _search_phase_peaks(monkeypatch, 200.0)
    # the dedupe set the search's peak at 84.0 B per seed, over the loop's 68.0 B;
    # then the loop peaked at 49.6 B per seed and the phases after it at 48.7 B.
    # With only the rows that converge inside the disk returned, the loop peaked at
    # 38.3 B, the dedupe after it at 48.6 B and the seeding before it at 16.4 B. With
    # the lattice refined band by band, the bands peak at 30.6 B (the last band's
    # loop, over the rows the others found), the phases after them at 48.6 B, and the
    # seeding before them, one band, at 5.1 B. With the dedupe's keys made and sorted
    # in place, the phases after the bands peak at 47.7 B.
    assert newton <= 32 and after <= 48 and before <= 6
    # a band's working set is fixed, so the bands' peak per seed does not grow with
    # the disk: 25.1 B per seed at R = 400
    assert _search_phase_peaks(monkeypatch, 400.0)[1] <= newton
