"""Tests for pentagrid indexing, dualization, tiling, and registration."""

import dataclasses
import math
from collections import namedtuple

import numpy as np
import pytest

import pentawave as pw
from pentawave import pentagrid as pg
from pentawave.extrema import (
    KIND_MAXIMUM,
    KIND_MINIMUM,
    KIND_SADDLE,
    KINDS,
    CriticalSet,
)

TAU = (1.0 + math.sqrt(5.0)) / 2.0
_E = pw.direction_basis()

# One critical point, as the per-extremum references below read them.
_Point = namedtuple("_Point", "location value kind eigenvalues")
# One tile, as the one-crossing-at-a-time reference below builds them.
_Tile = namedtuple("_Tile", "vertices kind families intersection")


def _disk_points(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _fake_extremum(location, kind=KIND_MAXIMUM):
    sign = -1.0 if kind == KIND_MAXIMUM else 1.0
    return _Point(
        location=(float(location[0]), float(location[1])),
        value=-sign,
        kind=kind,
        eigenvalues=(sign, sign),
    )


def _points(extrema):
    """The rows of a CriticalSet as _Points, in order."""
    return [_Point(tuple(loc), value, KINDS[kind], tuple(eig)) for loc, value, kind, eig in zip(
        extrema.location.tolist(), extrema.value.tolist(), extrema.kind.tolist(),
        extrema.eigenvalues.tolist())]


def _critical_set(points):
    """The CriticalSet whose rows are the given _Points, in order."""
    return CriticalSet(
        location=np.array([cp.location for cp in points], dtype=float).reshape(-1, 2),
        value=np.array([cp.value for cp in points], dtype=float),
        kind=np.array([KINDS.index(cp.kind) for cp in points], dtype=np.int8),
        eigenvalues=np.array([cp.eigenvalues for cp in points], dtype=float).reshape(-1, 2),
    )


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def _region(spec, p):
    """The region index vector of one point, which must lie off every grid line."""
    m, margin = pg.region_indices(spec, p)
    assert margin > 1e-9 * spec.spacing
    return tuple(m.tolist())


def _dual_vertex(iv):
    """The dual vertex of one region index vector, projected as a lone row: the oracle."""
    return tuple((np.asarray(iv, dtype=float) @ _E).tolist())


def test_spec_spacing():
    assert pg.PentagridSpec(1.0).spacing == math.pi
    assert abs(pg.PentagridSpec(0.5).spacing - 2.0 * math.pi) <= 1e-15
    with pytest.raises(ValueError):
        pg.PentagridSpec(0.0)
    with pytest.raises(ValueError):
        pg.PentagridSpec(-2.0)


def test_index_vector_example():
    spec = pg.PentagridSpec(1.0)
    assert _region(spec, (0.5, 0.5)) == (0, 0, -1, -1, -1)


def test_index_vector_origin_is_singular():
    spec = pg.PentagridSpec(1.0)
    # the origin, and a point on a single family-0 line, sit on a grid line
    for p in ((0.0, 0.0), (math.pi, 0.1)):
        assert pg.region_indices(spec, p)[1] <= 1e-9 * spec.spacing


def test_region_indices_batch_consistent_with_scalar():
    spec = pg.PentagridSpec(1.0)
    rng = np.random.default_rng(51)
    pts = _disk_points(rng, 200, 15.0)
    m, margin = pg.region_indices(spec, pts)
    assert m.shape == (200, 5) and margin.shape == (200,)
    for i in range(0, 200, 17):
        mi, gi = pg.region_indices(spec, pts[i])
        # batched and scalar paths agree to rounding, not bit-for-bit
        assert abs(gi - margin[i]) <= 1e-12
        if margin[i] > 1e-9 * spec.spacing:
            assert tuple(mi) == tuple(m[i])


def test_crossing_one_line_changes_one_index():
    spec = pg.PentagridSpec(1.0)
    e = pw.direction_basis()
    rng = np.random.default_rng(53)
    delta = 1e-3 * spec.spacing
    for fam in range(5):
        hits = 0
        attempts = 0
        while hits < 5:
            attempts += 1
            assert attempts < 1000
            r = int(rng.integers(-3, 4))
            s = float(rng.uniform(-8.0, 8.0))
            perp = np.array([-e[fam, 1], e[fam, 0]])
            on_line = r * spec.spacing * e[fam] + s * perp
            # reject samples where some other family's line passes nearby
            strips = spec.c * (pw.project(on_line)) / math.pi
            others = np.abs(strips - np.round(strips)) * spec.spacing
            others[fam] = math.inf
            if others.min() <= 3.0 * delta:
                continue
            iv_lo = _region(spec, on_line - delta * e[fam])
            iv_hi = _region(spec, on_line + delta * e[fam])
            diff = [a - b for a, b in zip(iv_hi, iv_lo)]
            assert diff[fam] == 1
            assert all(d == 0 for i, d in enumerate(diff) if i != fam)
            hits += 1


def test_region_sign_parity():
    assert pg.region_sign((0, 0, 0, 0, 0)) == 1
    assert pg.region_sign((0, 0, -1, -1, -1)) == -1
    assert pg.region_sign((1, 1, 0, 0, 0)) == 1
    rng = np.random.default_rng(57)
    ivs = rng.integers(-10, 10, size=(100, 5))
    signs = pg.region_sign(ivs)
    assert signs.shape == (100,)
    for row, s in zip(ivs, signs):
        assert s == (-1) ** (int(row.sum()) % 2)
        flipped = row.copy()
        flipped[3] += 1
        assert pg.region_sign(flipped) == -s


def test_region_sign_matches_product_field_sign():
    spec = pg.PentagridSpec(1.0)
    rng = np.random.default_rng(59)
    pts = _disk_points(rng, 2000, 20.0)
    m, margin = pg.region_indices(spec, pts)
    ok = margin > 1e-6 * spec.spacing
    signs = pg.region_sign(m[ok])
    field_signs = np.sign(pw.p5(1.0, pts[ok]))
    assert np.all(signs == field_signs)


def test_dual_vertex_examples():
    assert pg.dual_vertices((0, 0, 0, 0, 0)).tolist() == [0.0, 0.0]
    e = pw.direction_basis()
    position = pg.dual_vertices((1, 0, 0, 0, 0))
    assert abs(position[0] - e[0, 0]) <= 1e-15
    assert abs(position[1] - e[0, 1]) <= 1e-15
    assert math.hypot(*pg.dual_vertices((1, 1, 1, 1, 1))) <= 1e-15


def test_tiles_geometry():
    spec = pg.PentagridSpec(1.0)
    patch = pg.tiles(spec, (-10.0, 10.0, -10.0, 10.0))
    assert patch.skipped_singular > 0
    assert len(patch.vertices) > 100
    assert set(patch.thin.tolist()) == {True, False}
    want_thin = {36.0, 144.0}
    want_thick = {72.0, 108.0}
    for v, thin, (i, j), intersection in zip(patch.vertices, patch.thin.tolist(),
                                             patch.families.tolist(), patch.intersection):
        assert v.shape == (4, 2)
        # closed rhombus: opposite edges equal
        assert np.abs((v[0] - v[1]) + (v[2] - v[3])).max() <= 1e-12
        angles = set()
        for c in range(4):
            d1 = v[(c + 1) % 4] - v[c]
            d2 = v[(c - 1) % 4] - v[c]
            n1, n2 = math.hypot(*d1), math.hypot(*d2)
            assert abs(n1 - 1.0) <= 1e-12
            ang = math.degrees(math.acos(float(d1 @ d2) / (n1 * n2)))
            angles.add(round(ang, 6))
        want = want_thin if thin else want_thick
        for ang in angles:
            assert min(abs(ang - w) for w in want) <= 1e-10
        assert 0 <= i < j <= 4
        assert thin == ((j - i) in (2, 3))
        # the zero-offset grid is singular at the origin: that crossing
        # must have been skipped
        assert math.hypot(*intersection) > 1e-6


def test_tiles_window_census():
    spec = pg.PentagridSpec(1.0)
    for span in (3.5, 6.0):
        half = span * spec.spacing / 2.0
        patch = pg.tiles(spec, (-half, half, -half, half))
        assert patch.thin.any() and not patch.thin.all()


def test_tiles_intersections_inside_window():
    spec = pg.PentagridSpec(2.0)
    window = (-4.0, 4.0, -2.0, 5.0)
    patch = pg.tiles(spec, window)
    assert len(patch.intersection) > 0
    for x, y in patch.intersection.tolist():
        assert window[0] <= x <= window[1]
        assert window[2] <= y <= window[3]


def test_tiles_deterministic():
    spec = pg.PentagridSpec(1.0)
    a = pg.tiles(spec, (-6.0, 6.0, -6.0, 6.0))
    b = pg.tiles(spec, (-6.0, 6.0, -6.0, 6.0))
    assert a == b


def test_fit_similarity_identity():
    pairs = [((0.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))]
    t = pg.fit_similarity(pairs)
    assert abs(t.scale - 1.0) <= 1e-12
    assert abs(t.rotation) <= 1e-12
    assert abs(t.translation[0]) <= 1e-12 and abs(t.translation[1]) <= 1e-12


def test_fit_similarity_recovers_constructed_transform():
    rng = np.random.default_rng(61)
    src = rng.normal(size=(40, 2)) * 5.0
    scale, rot = 3.0, math.pi / 2.0
    rmat = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
    tgt = scale * src @ rmat.T + np.array([2.0, -7.0])
    t = pg.fit_similarity(list(zip(map(tuple, src), map(tuple, tgt))))
    assert abs(t.scale - scale) <= 1e-12
    assert abs(t.rotation - rot) <= 1e-12
    assert abs(t.translation[0] - 2.0) <= 1e-10
    assert abs(t.translation[1] + 7.0) <= 1e-10
    assert np.abs(t.apply(src) - tgt).max() <= 1e-10


def test_fit_similarity_noise_floor():
    rng = np.random.default_rng(63)
    src = rng.normal(size=(500, 2)) * 4.0
    sigma = 0.05
    tgt = 2.0 * src + rng.normal(size=(500, 2)) * sigma
    t = pg.fit_similarity(list(zip(map(tuple, src), map(tuple, tgt))))
    res = np.hypot(*(t.apply(src) - tgt).T)
    rms = float(np.sqrt(np.mean(res**2)))
    assert 0.5 * sigma <= rms <= 1.5 * sigma
    assert abs(t.scale - 2.0) <= 0.01


def test_fit_similarity_validation():
    with pytest.raises(ValueError):
        pg.fit_similarity([((0.0, 0.0), (1.0, 1.0))])
    with pytest.raises(ValueError):
        pg.fit_similarity([((1.0, 1.0), (0.0, 0.0)), ((1.0, 1.0), (2.0, 2.0))])


def _planted_scene(spec, transform, n_target, seed):
    """Extrema planted at transformed dual vertices of self-consistent regions."""
    rng = np.random.default_rng(seed)
    extrema = []
    ivs = []
    kinds = (KIND_MAXIMUM, KIND_MINIMUM)
    tries = 0
    while len(extrema) < n_target and tries < 50:
        tries += 1
        pts = _disk_points(rng, 400, 25.0)
        m, margin = pg.region_indices(spec, pts)
        for row, g in zip(m, margin):
            if g <= 1e-6 * spec.spacing:
                continue
            iv = tuple(int(v) for v in row)
            if iv in ivs:
                continue
            loc = transform.apply(pg.dual_vertices(iv))
            mm, gg = pg.region_indices(spec, loc)
            # keep only regions the transform maps back into themselves so
            # the planted extremum really lies in the region it labels
            if gg <= 1e-6 * spec.spacing or tuple(int(v) for v in mm) != iv:
                continue
            ivs.append(iv)
            extrema.append(_fake_extremum(loc, kinds[len(extrema) % 2]))
            if len(extrema) >= n_target:
                break
    return extrema, ivs


def test_match_report_recovers_planted_transform():
    spec = pg.PentagridSpec(1.0)
    natural = 2.0 * spec.spacing / 5.0
    planted = pg.SimilarityTransform(
        scale=natural * 1.03, rotation=0.02, translation=(0.3, -0.2)
    )
    extrema, ivs = _planted_scene(spec, planted, 40, seed=67)
    assert len(extrema) >= 30
    extrema = _critical_set(extrema)
    # the planted extrema lie within 26 of the origin, clear of the rim trim
    report = pg.match_report(spec, extrema, 40.0)
    assert report.num_extrema == len(extrema)
    assert report.num_regions_hit == len(extrema)
    assert report.regions_with_exactly_one == len(extrema)
    assert report.excluded_near_singular == 0
    assert abs(report.transform.scale - planted.scale) <= 1e-9
    assert abs(report.transform.rotation - planted.rotation) <= 1e-9
    assert report.max_residual <= 1e-9
    assert report.mean_residual <= 1e-9
    assert len(report.residuals) == len(extrema)
    assert pg.match_report(spec, extrema, 40.0) == report


def test_match_report_counts_shared_regions():
    spec = pg.PentagridSpec(1.0)
    # two extrema inside each of two distinct regions
    a1, a2 = (0.4, 0.4), (0.6, 0.55)
    b1, b2 = (4.0, 4.0), (4.2, 4.1)
    iv_a = _region(spec, a1)
    assert _region(spec, a2) == iv_a
    iv_b = _region(spec, b1)
    assert _region(spec, b2) == iv_b
    assert iv_a != iv_b
    extrema = _critical_set([
        _fake_extremum(a1),
        _fake_extremum(a2, KIND_MINIMUM),
        _fake_extremum(b1),
        _fake_extremum(b2, KIND_MINIMUM),
    ])
    report = pg.match_report(spec, extrema, 20.0)
    assert report.num_extrema == 4
    assert report.num_regions_hit == 2
    assert report.regions_with_exactly_one == 0


def test_match_report_ignores_saddles_and_requires_two():
    spec = pg.PentagridSpec(1.0)
    saddles = [
        _fake_extremum((0.5, 0.5), KIND_SADDLE),
        _fake_extremum((4.0, 4.0), KIND_SADDLE),
    ]
    with pytest.raises(ValueError):
        pg.match_report(spec, _critical_set(saddles), 20.0)
    with pytest.raises(ValueError):
        pg.match_report(spec, _critical_set([]), 20.0)
    with pytest.raises(ValueError):
        pg.match_report(spec, _critical_set([_fake_extremum((0.5, 0.5))]), 20.0)


def test_matching_correspondences_filters():
    spec = pg.PentagridSpec(1.0)
    inside = _fake_extremum((0.5, 0.5))
    saddle = _fake_extremum((4.0, 4.0), KIND_SADDLE)
    on_line = _fake_extremum((math.pi, 0.2))
    far = _fake_extremum((19.5, 0.0))
    extrema = _critical_set([inside, saddle, on_line, far])
    kept, matched, excluded = pg.matching_correspondences(spec, extrema, disk_radius=20.0)
    # saddle dropped by kind, far extremum trimmed at one spacing from the
    # rim, on-line extremum counted as excluded
    points = _points(extrema)
    assert [points[row] for row in kept] == [inside, on_line]
    assert excluded == 1
    assert len(matched.rows) == 1
    cp, iv = points[matched.rows[0]], tuple(matched.index[0].tolist())
    position = matched.position[0]
    assert cp == inside
    assert iv == (0, 0, -1, -1, -1)
    assert tuple(position.tolist()) == _dual_vertex(iv)


def test_correspondences_basic():
    spec = pg.PentagridSpec(1.0)
    for points in ([_fake_extremum((0.5, 0.5))], []):
        columns = _critical_set(points)
        _assert_matching_equals(columns, pg.matching_correspondences(spec, columns, 20.0),
                                _matching_reference(spec, points, 20.0))
    matched = pg.matching_correspondences(
        spec, _critical_set([_fake_extremum((0.5, 0.5))]), 20.0)[1]
    assert len(matched.rows) == 1
    assert matched.index[0].tolist() == [0, 0, -1, -1, -1]
    kept, matched, excluded = pg.matching_correspondences(spec, _critical_set([]), 20.0)
    assert (kept.tolist(), matched.rows.tolist(), excluded) == ([], [], 0)
    assert matched.index.shape == (0, 5) and matched.position.shape == (0, 2)


def _tiles_reference(spec, window, singular_eps=None):
    """The original one-crossing-at-a-time dualization, kept verbatim as the oracle but for
    its record type, now _Tile."""
    import itertools

    if singular_eps is None:
        singular_eps = 1e-9 * spec.spacing
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    spacing = spec.spacing
    corners = np.array([[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]])
    corner_t = corners @ _E.T / spacing
    line_lo = np.ceil(corner_t.min(axis=0) - 1e-12).astype(int)
    line_hi = np.floor(corner_t.max(axis=0) + 1e-12).astype(int)
    out = []
    skipped = 0
    for i, j in itertools.combinations(range(5), 2):
        others = [l for l in range(5) if l != i and l != j]
        inv = np.linalg.inv(np.array([_E[i], _E[j]]))
        kind = pg.THIN if (j - i) in (2, 3) else pg.THICK
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
        m_other = np.floor(t_other).astype(int)
        for (x, y), (r, s), mo in zip(pts[~singular], line_ids[~singular], m_other[~singular]):
            base = np.zeros(5)
            base[others] = mo
            base[i] = round(r) - 1
            base[j] = round(s) - 1
            verts = []
            for ei, ej in ((0, 0), (1, 0), (1, 1), (0, 1)):
                m = base.copy()
                m[i] += ei
                m[j] += ej
                pos = m @ _E
                verts.append((float(pos[0]), float(pos[1])))
            out.append(_Tile(vertices=tuple(verts), kind=kind, families=(i, j),
                             intersection=(float(x), float(y))))
    return tuple(out), skipped


def _assert_patch_equals(got, want):
    """The columnar patch holds, bit for bit, the tiles of the object-building reference."""
    tiles, skipped = want
    assert got.skipped_singular == skipped
    n = len(tiles)
    assert _bits(got.vertices) == _bits(np.array([t.vertices for t in tiles]).reshape(n, 4, 2))
    assert _bits(got.intersection) == _bits(
        np.array([t.intersection for t in tiles]).reshape(n, 2))
    assert got.thin.dtype == bool and got.thin.tolist() == [t.kind == pg.THIN for t in tiles]
    assert got.families.shape == (n, 2)
    assert got.families.tolist() == [list(t.families) for t in tiles]


@pytest.mark.parametrize("c", [1.0, 1.0 / (2.0 * TAU), 0.93 / (2.0 * TAU), 2.5 / (2.0 * TAU),
                               2.3])
@pytest.mark.parametrize("window", [
    (-12.0, 12.0, -12.0, 12.0),      # centred: the singular crossing at the origin
    (0.0, 17.5, -9.0, 0.0),          # corner on the origin
    (-31.7, 4.2, -0.5, 22.9),
    (3.0, 3.5, 3.0, 3.5),            # smaller than one spacing
    (3.0, 3.25, 2.25, 2.5),          # one tile at c = 1
])
def test_tiles_match_reference_loop(c, window):
    spec = pg.PentagridSpec(c)
    got = pg.tiles(spec, window)
    _assert_patch_equals(got, _tiles_reference(spec, window))
    assert pg.crossing_count(spec, window) >= len(got.tiles) + got.skipped_singular
    assert got == pg.tiles(spec, window)


@pytest.mark.parametrize("k", [1.0, 0.93])
@pytest.mark.parametrize("radius", [600.0, 1500.0])
def test_tiles_match_reference_loop_on_large_windows(k, radius):
    # the integer strip indices and singular test against the float ones of the reference,
    # on centred windows of up to about 7,600 lines a family at k = 1
    spec = pg.PentagridSpec(k / (2.0 * TAU))
    window = (-radius, radius, -radius, radius)
    got = pg.tiles(spec, window)
    _assert_patch_equals(got, _tiles_reference(spec, window))
    assert got.skipped_singular > 10


def _isqrt(n):
    """math.isqrt of every entry of an int64 array below 2**53."""
    root = np.floor(np.sqrt(n.astype(float))).astype(np.int64)
    root -= root * root > n
    root += (root + 1) * (root + 1) <= n
    assert (root * root <= n).all() and ((root + 1) * (root + 1) > n).all()
    return root


def test_floor_tau_is_exact_for_every_b_up_to_2_22():
    # floor(b tau) = floor((b + floor(b sqrt 5)) / 2), and floor(b sqrt 5) is isqrt(5 b^2)
    # for b >= 0 and -isqrt(5 b^2) - 1 for b < 0, as 5 b^2 is no square unless b = 0
    limit = 1 << 22
    for start in range(-limit, limit + 1, 1 << 20):
        b = np.arange(start, min(start + (1 << 20), limit + 1), dtype=np.int64)
        root = _isqrt(5 * b * b)
        want = (b + np.where(b >= 0, root, -root - 1)) // 2
        assert (np.floor(b * pw.wavefield.GOLDEN_RATIO) == want).all(), start
    for n in (0, 1, 2, 4, 5, 5 * limit * limit, 5 * limit * limit - 1):
        assert _isqrt(np.array([n]))[0] == math.isqrt(n)


def test_tiles_refuses_a_window_at_line_index_2_24():
    spec = pg.PentagridSpec(1.0)
    far = (1 << 24) * spec.spacing
    with pytest.raises(ValueError, match="line index"):
        pg.tiles(spec, (far, far + 1.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="line index"):
        pg.tiles(spec, (-1e300, 1e300, -1e300, 1e300))
    near = far - 4.0 * spec.spacing
    patch = pg.tiles(spec, (near - 3.0 * spec.spacing, near, 0.0, 3.0 * spec.spacing))
    assert len(patch.tiles) > 0 and patch.skipped_singular == 0


def test_empty_tiling_patch():
    spec = pg.PentagridSpec(1.0)
    got = pg.tiles(spec, (3.0, 3.5, 3.0, 3.5))
    _assert_patch_equals(got, _tiles_reference(spec, (3.0, 3.5, 3.0, 3.5)))
    assert len(got.tiles) == 0 and got.skipped_singular == 0
    assert got.vertices.shape == (0, 4, 2) and got.intersection.shape == (0, 2)


def test_tile_views():
    # tiles is the vertices column, one row per tile, as the other columns hold
    patch = pg.tiles(pg.PentagridSpec(1.0), (-6.0, 6.0, -6.0, 6.0))
    assert patch.tiles is patch.vertices
    n = len(patch.tiles)
    assert n > 0 and patch.tiles.shape == (n, 4, 2)
    assert len(patch.thin) == len(patch.families) == len(patch.intersection) == n


def test_crossing_count_overflows_to_inf_without_allocating():
    spec = pg.PentagridSpec(1.0 / (2.0 * TAU))
    assert pg.crossing_count(spec, (-1e6, 1e6, -1e6, 1e6)) > 1e11
    assert pg.crossing_count(spec, (-1e300, 1e300, -1e300, 1e300)) == math.inf


def _matching_reference(spec, extrema, disk_radius, boundary_eps=None):
    """The original per-extremum correspondence loop, kept as the oracle."""
    if boundary_eps is None:
        boundary_eps = 1e-9 * spec.spacing
    kept = [cp for cp in extrema if cp.kind in (KIND_MAXIMUM, KIND_MINIMUM)]
    limit = disk_radius - spec.spacing
    kept = [cp for cp in kept if math.hypot(*cp.location) <= limit]
    trips = []
    excluded = 0
    for cp in kept:
        m, margin = pg.region_indices(spec, np.asarray(cp.location))
        if margin <= boundary_eps:
            excluded += 1
            continue
        iv = tuple(int(v) for v in m)
        trips.append((cp, iv, _dual_vertex(iv)))
    return kept, trips, excluded


def _report_reference(spec, extrema, disk_radius, boundary_eps=None):
    """The original match_report scoring, on the reference correspondences."""
    kept, trips, excluded = _matching_reference(spec, extrema, disk_radius, boundary_eps)
    occupancy = {}
    for _, iv, _ in trips:
        occupancy[iv] = occupancy.get(iv, 0) + 1
    position_groups = {}
    for iv in occupancy:
        pos = _dual_vertex(iv)
        position_groups.setdefault((round(pos[0], 6), round(pos[1], 6)), set()).add(iv)
    pairs = [(position, cp.location) for cp, _, position in trips]
    transform = pg.fit_similarity(pairs)
    mapped = transform.apply(np.array([p[0] for p in pairs]))
    residuals = tuple(
        float(v) for v in np.hypot(*(mapped - np.array([p[1] for p in pairs])).T) / transform.scale
    )
    return pg.MatchReport(
        num_extrema=len(kept),
        num_regions_hit=len(occupancy),
        regions_with_exactly_one=sum(1 for v in occupancy.values() if v == 1),
        residuals=residuals,
        mean_residual=float(np.mean(residuals)),
        median_residual=float(np.median(residuals)),
        max_residual=float(np.max(residuals)),
        excluded_near_singular=excluded,
        dual_position_collisions=sum(len(g) for g in position_groups.values() if len(g) > 1),
        transform=transform,
        correspondences=tuple(trips),
    )


def _assert_trips_equal(extrema, matched, trips):
    """Columnar correspondences of a CriticalSet hold, bit for bit, the reference trips."""
    points = _points(extrema)
    assert [points[row] for row in matched.rows] == [cp for cp, _, _ in trips]
    n = len(trips)
    assert _bits(matched.index) == _bits(np.array([iv for _, iv, _ in trips], dtype=np.int64)
                                         .reshape(n, 5))
    assert _bits(matched.position) == _bits(np.array([pos for _, _, pos in trips]).reshape(n, 2))


def _assert_matching_equals(extrema, got, want):
    kept, matched, excluded = got
    want_kept, trips, want_excluded = want
    points = _points(extrema)
    assert [points[row] for row in kept] == want_kept and excluded == want_excluded
    _assert_trips_equal(extrema, matched, trips)


def _assert_report_equals(extrema, got, want):
    """match_report equals the reference report, its correspondences bit for bit."""
    assert dataclasses.replace(got, correspondences=None) == dataclasses.replace(
        want, correspondences=None)
    _assert_trips_equal(extrema, got.correspondences, want.correspondences)


def _registration_extrema(k, radius, spec, rng):
    """Field extrema plus planted points on, just beside and just off grid lines and the rim."""
    found = _points(pw.find_critical_points(k, pw.SearchConfig(k * radius)))
    planted = []
    for n in range(40):
        i = n % 5
        normal, tangent = _E[i], np.array([-_E[i][1], _E[i][0]])
        offset = rng.choice([0.0, 0.3e-9, 0.9e-9, 1.1e-9, 1e-6]) * spec.spacing
        along = rng.uniform(-0.6, 0.6) * radius
        line = int(rng.integers(-2, 3)) * spec.spacing
        p = (line + offset) * normal + along * tangent
        planted.append(_fake_extremum(p, (KIND_MAXIMUM, KIND_MINIMUM, KIND_SADDLE)[n % 3]))
    limit = radius - spec.spacing
    for theta in rng.uniform(0.0, 2.0 * math.pi, 6):
        rim = (limit * math.cos(theta), limit * math.sin(theta))
        planted.append(_fake_extremum(rim, KIND_MINIMUM))
    return found + planted


@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
def test_batched_correspondences_and_report_match_reference(k, monkeypatch):
    spec = pg.PentagridSpec(k / (2.0 * TAU))
    extrema = _registration_extrema(k, 45.0, spec, np.random.default_rng(3))
    columns = _critical_set(extrema)
    want = _matching_reference(spec, extrema, disk_radius=45.0)
    matched = pg.matching_correspondences(spec, columns, disk_radius=45.0)
    _assert_matching_equals(columns, matched, want)
    assert want[2] >= 5
    _assert_report_equals(columns, pg.match_report(spec, columns, 45.0),
                          _report_reference(spec, extrema, 45.0))
    # an extremum exactly _ON_LINE_SPACINGS spacings from its nearest line is excluded
    row = int(matched[1].rows[0])
    _, margin = pg.region_indices(spec, np.asarray(extrema[row].location))
    on_line = float(margin) / spec.spacing
    assert on_line * spec.spacing == margin
    monkeypatch.setattr(pg, "_ON_LINE_SPACINGS", on_line)
    got = pg.matching_correspondences(spec, columns, 45.0)
    _assert_matching_equals(columns, got,
                            _matching_reference(spec, extrema, 45.0, boundary_eps=float(margin)))
    assert row not in got[1].rows


def _rim_straddlers(limit, rng, count):
    """Points a few ulps from the circle of radius limit that math.hypot puts on one side
    of it and np.hypot on the other."""
    out = []
    while len(out) < count:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        x, y = limit * math.cos(theta), limit * math.sin(theta)
        for _ in range(4):
            y = math.nextafter(y, math.inf)
            if (math.hypot(x, y) <= limit) != (float(np.hypot(x, y)) <= limit):
                out.append((x, y))
    return out


def test_rim_trim_rounds_as_math_hypot():
    spec = pg.PentagridSpec(1.0 / (2.0 * TAU))
    radius = 45.0
    points = _rim_straddlers(radius - spec.spacing, np.random.default_rng(5), 12)
    extrema = [_fake_extremum(p, (KIND_MAXIMUM, KIND_MINIMUM)[n % 2])
               for n, p in enumerate(points)]
    columns = _critical_set(extrema)
    want = _matching_reference(spec, extrema, disk_radius=radius)
    _assert_matching_equals(
        columns, pg.matching_correspondences(spec, columns, disk_radius=radius), want)
    assert 0 < len(want[0]) < len(extrema)


def test_correspondences_of_the_search_output_match_reference():
    # the CriticalSet find_critical_points returns, read directly; and no extremum at all
    spec = pg.PentagridSpec(1.0 / (2.0 * TAU))
    found = pw.find_critical_points(1.0, pw.SearchConfig(60.0))
    for columns in (found, pw.find_critical_points(1.0, pw.SearchConfig(0.1))):
        want = _matching_reference(spec, _points(columns), disk_radius=60.0)
        _assert_matching_equals(columns, pg.matching_correspondences(spec, columns, 60.0), want)
    _assert_report_equals(found, pg.match_report(spec, found, 60.0),
                          _report_reference(spec, _points(found), 60.0))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 4970, 4971])
def test_median_is_numpy_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for values in (rng.uniform(0.0, 1.0, n), rng.standard_normal(n) * 1e-3,
                   np.repeat(rng.uniform(0.0, 1.0, (n + 1) // 2), 2)[:n]):
        assert pg._median(values).tobytes() == np.median(values).tobytes()


# The pentagrid's products with the basis as they were written before wavefield owned them
# (project and its adjoint _combine), kept verbatim as oracles with their own copy _E.

def _local_basis_strip_coords(spec, pts):
    return spec.c * (pw.wavefield._as_points(pts) @ _E.T) / math.pi


def _local_basis_region_indices(spec, pts):
    t = _local_basis_strip_coords(spec, pts)
    margin = spec.spacing * np.abs(t - np.round(t)).min(axis=-1)
    return np.floor(t).astype(np.int64), margin


def _local_basis_dual_vertices(m):
    return (np.asarray(m, dtype=float)[..., None, :] @ _E)[..., 0, :]


def _local_basis_grad_s5(k, p):
    kk = pw.wavefield._as_wavenumber(k)[..., None]
    ka = kk * pw.project(p)
    np.cos(ka, out=ka)
    ka *= kk
    return ka @ pw.wavefield._DIRECTIONS


# the oracle's own quadrant order, offsets from the strips (r - 1, s - 1) below lines r and s
_LOCAL_QUADRANTS = ((0, 0), (1, 0), (1, 1), (0, 1))


def _local_basis_tiles(spec, window, singular_eps=None):
    import itertools

    if singular_eps is None:
        singular_eps = 1e-9 * spec.spacing
    xmin, xmax, ymin, ymax = (float(v) for v in window)
    spacing = spec.spacing
    corners = np.array([[xmin, ymin], [xmin, ymax], [xmax, ymin], [xmax, ymax]])
    corner_t = corners @ _E.T / spec.spacing
    line_lo = np.ceil(corner_t.min(axis=0) - 1e-12).astype(int)
    line_hi = np.floor(corner_t.max(axis=0) + 1e-12).astype(int)

    columns = []
    skipped = 0
    for i, j in itertools.combinations(range(5), 2):
        others = [l for l in range(5) if l != i and l != j]
        inv = np.linalg.inv(np.array([_E[i], _E[j]]))
        rr, ss = np.meshgrid(np.arange(line_lo[i], line_hi[i] + 1),
                             np.arange(line_lo[j], line_hi[j] + 1), indexing="ij")
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
        corners = np.repeat(base[:, None, :], len(_LOCAL_QUADRANTS), axis=1)
        corners[:, :, [i, j]] += _LOCAL_QUADRANTS
        columns.append((
            _local_basis_dual_vertices(corners),
            np.full(len(pts), (j - i) in (2, 3)),
            np.tile((i, j), (len(pts), 1)),
            pts,
        ))
    vertices, thin, families, intersection = map(np.concatenate, zip(*columns))
    return pg.TilingPatch(vertices, thin, families, intersection, skipped)


def _golden_windows():
    """Half-widths of the square windows the golden tiling and match runs tile, at scales
    0.1, 1 and 3 (bench/golden.py: tiling radius 30 and match radius 40, at sizes 1 and 2,
    and match at the fixed radii 10 and 20)."""
    return sorted({r * size * scale for scale in (0.1, 1, 3) for size in (1, 2) for r in (30, 40)}
                  | {10, 20})


@pytest.mark.parametrize("k", [1.0, 0.93])
def test_geometry_through_wavefield_equals_the_local_basis_expressions_byte_for_byte(k):
    spec = pg.PentagridSpec(k / (2.0 * TAU))
    for half in _golden_windows():
        window = (-half, half, -half, half)
        got, want = pg.tiles(spec, window), _local_basis_tiles(spec, window)
        assert got.skipped_singular == want.skipped_singular
        for name in ("vertices", "thin", "families", "intersection"):
            assert _bits(getattr(got, name)) == _bits(getattr(want, name)), (half, name)
        # the crossings lie on grid lines, the vertices and the lattice anywhere
        lattice = np.stack(np.meshgrid(*[np.linspace(-half, half, 21)] * 2), -1).reshape(-1, 2)
        pts = np.concatenate([got.intersection, got.vertices.reshape(-1, 2), lattice])
        for p in (pts, pts[:, None, :], pts[:1], pts[0], pts[:2]):
            for a, b in zip(pg.region_indices(spec, p), _local_basis_region_indices(spec, p)):
                assert _bits(a) == _bits(b), half
            m = pg.region_indices(spec, p)[0]
            assert _bits(pg.dual_vertices(m)) == _bits(_local_basis_dual_vertices(m)), half
            assert _bits(pw.grad_s5(k, p)) == _bits(_local_basis_grad_s5(k, p)), half
