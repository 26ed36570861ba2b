"""Tests for the exact algebraic identities linking s5, p5, and the two-wave sum
sin(kx) + sin(ky)."""

import math
import tracemalloc

import numpy as np
import pytest

import pentawave as pw
from pentawave import identities as ident

TAU = (1.0 + math.sqrt(5.0)) / 2.0


def _disk_points(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_expansion_term_table_shape():
    terms = pw.expansion_terms()
    assert len(terms) == 16
    coeffs = [t[0] for t in terms]
    assert coeffs.count(1) == 11 and coeffs.count(-1) == 5
    # one all-plus term, five single sign flips, ten double flips
    flips = sorted(sum(1 for s in signs if s < 0) for _, signs in terms)
    assert flips == [0] + [1] * 5 + [2] * 10
    for coef, signs in terms:
        n_flips = sum(1 for s in signs if s < 0)
        assert coef == (-1 if n_flips == 1 else 1)
        assert all(s in (-1, 1) for s in signs)


def test_expansion_table_matches_even_flip_form():
    # flipping an even number of signs and negating overall reproduces the
    # canonical table term by term
    canon = set()
    for coef, signs in pw.expansion_terms():
        if coef < 0:
            signs = tuple(-s for s in signs)
        canon.add(signs)
    even = set()
    for coef, signs in ident.even_flip_terms():
        assert coef == 1
        assert sum(1 for s in signs if s < 0) % 2 == 0
        even.add(signs)
    assert canon == even
    # numeric agreement of the two forms
    rng = np.random.default_rng(19)
    pts = _disk_points(rng, 300, 10.0)
    a = pw.project(pts)
    total = np.zeros(len(pts))
    for coef, signs in ident.even_flip_terms():
        total += coef * np.sin(1.3 * (a @ np.array(signs, dtype=float)))
    assert np.abs(total - pw.expansion_lhs(1.3, pts)).max() <= 1e-12


def test_expansion_lhs_equals_product_form():
    rng = np.random.default_rng(23)
    pts = _disk_points(rng, 10000, 20.0)
    ks = rng.uniform(0.1, 10.0, 10000)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    tol = 1e-10 * (1.0 + ks * norms) ** 5
    res = np.abs(pw.expansion_lhs(ks, pts) - 16.0 * pw.p5(ks, pts))
    assert np.all(res <= tol)


def test_expansion_lhs_odd_and_zero_at_origin():
    assert pw.expansion_lhs(1.0, (0.0, 0.0)) == 0.0
    rng = np.random.default_rng(29)
    pts = _disk_points(rng, 500, 10.0)
    assert np.abs(pw.expansion_lhs(2.0, -pts) + pw.expansion_lhs(2.0, pts)).max() <= 1e-12


def test_functional_residual_examples():
    assert pw.functional_residual(1.0, (0.0, 0.0)) == 0.0
    assert abs(pw.functional_residual(0.8, (2.3, -1.1))) <= 1e-12
    assert abs(pw.functional_residual(3.0, (5.0, 5.0))) <= 1e-11


def test_functional_residual_sweep():
    rng = np.random.default_rng(31)
    pts = _disk_points(rng, 5000, 20.0)
    ks = rng.uniform(0.1, 10.0, 5000)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    res = np.abs(pw.functional_residual(ks, pts))
    assert np.all(res <= 1e-9 * (1.0 + ks * norms) ** 5)


def test_direction_sum_residuals_structure():
    res = pw.direction_sum_residuals((0.0, 0.0))
    assert res.shape == (11,)
    assert np.all(res == 0.0)
    res = pw.direction_sum_residuals(np.zeros((4, 2)) + 1.5)
    assert res.shape == (4, 11)


def test_direction_sum_residuals_sweep():
    rng = np.random.default_rng(37)
    pts = _disk_points(rng, 10000, 20.0)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    res = np.abs(pw.direction_sum_residuals(pts)).max(axis=-1)
    assert np.all(res <= 1e-12 * norms)


def test_direction_sums_encode_golden_ratio():
    # a_i + a_{i+1} = -tau * a_{i+3} and a_i + a_{i+2} = a_{i+1} / tau
    a = pw.project((0.37, -1.42))
    for i in range(5):
        assert abs(a[i] + a[(i + 1) % 5] + TAU * a[(i + 3) % 5]) <= 1e-14
        assert abs(a[i] + a[(i + 2) % 5] - a[(i + 1) % 5] / TAU) <= 1e-14


def test_two_wave_residual():
    assert pw.two_wave_residual(1.0, (0.0, 0.0)) == 0.0
    assert abs(pw.two_wave_residual(1.7, (0.4, -2.2))) <= 1e-13
    rng = np.random.default_rng(41)
    pts = _disk_points(rng, 5000, 20.0)
    ks = rng.uniform(0.1, 10.0, 5000)
    assert np.abs(pw.two_wave_residual(ks, pts)).max() <= 1e-12


def test_identity_suite_small():
    parts = pw.suite_residual_breakdown(num_points=1, seed=0, k_range=(1.0, 1.0), radius=0.0)
    assert max(parts.values()) == 0.0


def test_identity_suite_full_sweep():
    parts = pw.suite_residual_breakdown(
        num_points=10000, seed=42, k_range=(0.1, 10.0), radius=20.0
    )
    assert max(parts.values()) <= 1e-9


def test_identity_suite_deterministic():
    a = pw.suite_residual_breakdown(num_points=500, seed=7, k_range=(0.5, 5.0), radius=10.0)
    b = pw.suite_residual_breakdown(num_points=500, seed=7, k_range=(0.5, 5.0), radius=10.0)
    assert a == b
    c = pw.suite_residual_breakdown(num_points=500, seed=8, k_range=(0.5, 5.0), radius=10.0)
    assert max(c.values()) != max(a.values())


def test_identity_suite_breakdown_keys():
    parts = ident.suite_residual_breakdown(
        num_points=200, seed=3, k_range=(0.5, 2.0), radius=5.0
    )
    assert set(parts) == {"expansion", "functional", "direction_sums", "two_wave"}
    assert all(v >= 0.0 for v in parts.values())


def test_identity_suite_validation():
    with pytest.raises(ValueError):
        pw.suite_residual_breakdown(num_points=0, seed=0, k_range=(1.0, 2.0), radius=1.0)
    with pytest.raises(ValueError):
        pw.suite_residual_breakdown(num_points=10, seed=0, k_range=(2.0, 1.0), radius=1.0)
    with pytest.raises(ValueError):
        pw.suite_residual_breakdown(num_points=10, seed=0, k_range=(0.0, 1.0), radius=1.0)
    with pytest.raises(ValueError):
        pw.suite_residual_breakdown(num_points=10, seed=0, k_range=(1.0, 2.0), radius=-1.0)


def _old_s5(k, p):
    kk = pw.wavefield._as_wavenumber(k)
    return np.sin(kk[..., None] * pw.project(p)).sum(axis=-1)


def _old_p5(k, p):
    kk = pw.wavefield._as_wavenumber(k)
    return np.prod(np.sin(kk[..., None] * pw.project(p)), axis=-1)


def _old_expansion_lhs(k, p):
    kk = pw.wavefield._as_wavenumber(k)
    phases = pw.project(p) @ ident._EXP_SIGNS.T
    return np.sin(kk[..., None] * phases) @ ident._EXP_COEFFS


def _old_functional_residual(k, p):
    kk = pw.wavefield._as_wavenumber(k)
    return (_old_s5(2.0 * kk, p) + _old_s5(2.0 * TAU * kk, p) - _old_s5(2.0 * kk / TAU, p)
            - 16.0 * _old_p5(kk, p))


def _old_direction_sum_residuals(p):
    a = pw.project(p)
    i = np.arange(5)
    total = a.sum(axis=-1, keepdims=True)
    adjacent = a + a[..., (i + 1) % 5] + TAU * a[..., (i + 3) % 5]
    skipping = a + a[..., (i + 2) % 5] - a[..., (i + 1) % 5] / TAU
    return np.concatenate([total, adjacent, skipping], axis=-1)


def _old_sample_sweep(num_points, seed, k_range, radius):
    """The sweep drawn whole from one generator, before it was drawn block by block, kept verbatim."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(num_points))
    theta = 2.0 * np.pi * rng.random(num_points)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    ks = rng.uniform(float(k_range[0]), float(k_range[1]), num_points)
    return pts, ks


def _old_suite_residual_breakdown(num_points, seed, k_range, radius):
    """The sweep as one full batch, before it ran block by block, kept verbatim."""
    pts, ks = _old_sample_sweep(num_points, seed, k_range, radius)
    return {
        "expansion": float(np.abs(_old_expansion_lhs(ks, pts) - 16.0 * _old_p5(ks, pts)).max()),
        "functional": float(np.abs(_old_functional_residual(ks, pts)).max()),
        "direction_sums": float(np.abs(_old_direction_sum_residuals(pts)).max()),
        "two_wave": float(np.abs(pw.two_wave_residual(ks, pts)).max()),
    }


@pytest.mark.parametrize("block, sizes", [
    # 1 and 2 points; every residue mod 4; a lone last point after full blocks
    (4, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 18, 19, 37, 1001, 1002, 1003)),
    (8, (7, 9, 17, 18, 19, 20, 1025, 1026, 1027)),
    (1024, (1, 2, 1023, 1025, 4096, 4097, 4098, 4099, 5002)),
    (None, (ident._SWEEP_BLOCK + 2, 2 * ident._SWEEP_BLOCK + 1)),
])
def test_blocked_sweep_equals_full_batch_bit_for_bit(monkeypatch, block, sizes):
    # Blocks of a multiple of 4 points leave the rows the BLAS matrix-vector
    # call rounds as a tail (rows mod 4 of 2 or 3) on the same points as one
    # call over the whole sweep; a block size of 2 mod 4 breaks this.
    if block is None:
        assert ident._SWEEP_BLOCK % 4 == 0
    else:
        monkeypatch.setattr(ident, "_SWEEP_BLOCK", block)
    for num_points in sizes:
        for seed in range(8):
            args = (num_points, seed, (0.1, 10.0), 10.0)
            assert ident.suite_residual_breakdown(*args) == _old_suite_residual_breakdown(*args)


# The eleven direction relations, one function of the projections each, in the order
# of direction_sum_residuals' last axis.
_RELATIONS = [
    lambda a: a.sum(axis=-1),
    *(lambda a, i=i: a[..., i] + a[..., (i + 1) % 5] + TAU * a[..., (i + 3) % 5]
      for i in range(5)),
    *(lambda a, i=i: a[..., i] + a[..., (i + 2) % 5] - a[..., (i + 1) % 5] / TAU
      for i in range(5)),
]


def test_identity_functions_equal_reference_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(31)
    pts = _disk_points(rng, 1003, 15.0)
    ks = rng.uniform(0.1, 10.0, 1003)
    for k, p in ((ks, pts), (1.7, pts), (0.93, pts[5]), (ks[:3, None], pts[:7])):
        for got, want in ((pw.expansion_lhs(k, p), _old_expansion_lhs(k, p)),
                          (pw.functional_residual(k, p), _old_functional_residual(k, p)),
                          (pw.p5(k, p), _old_p5(k, p)), (pw.s5(k, p), _old_s5(k, p))):
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
    assert np.array_equal(pw.direction_sum_residuals(pts), _old_direction_sum_residuals(pts))
    # the public relations and the sweep's running maximum hold to one list
    a = pw.project(pts)
    want = np.stack([relation(a) for relation in _RELATIONS], axis=-1)
    assert pw.direction_sum_residuals(pts).tobytes() == want.tobytes()
    one = pw.project(pts[5])
    assert pw.direction_sum_residuals(pts[5]).tolist() == [relation(one) for relation in _RELATIONS]
    worst = ident._block_residuals((pts, ks))[2]
    assert worst == np.abs(want).max()
    # the running maximum lets a NaN through as .max() does, wherever it comes
    for nan_at in range(3):
        columns = [np.full(len(pts), 1.0), np.full(len(pts), 2.0), np.full(len(pts), 0.5)]
        columns[nan_at][7] = np.nan
        monkeypatch.setattr(ident, "_direction_relations", lambda a, c=columns: iter(c))
        assert np.isnan(ident._block_residuals((pts, ks))[2])


@pytest.mark.parametrize("num_points", [
    1, 2, 3, ident._SWEEP_BLOCK - 1, ident._SWEEP_BLOCK + 1,
    2 * ident._SWEEP_BLOCK - 1, 2 * ident._SWEEP_BLOCK + 1, 4 * ident._SWEEP_BLOCK - 1,
    4 * ident._SWEEP_BLOCK + 1, 8 * ident._SWEEP_BLOCK + 1, 50002,
])
@pytest.mark.parametrize("k_range", [(0.1, 10.0), (2.5, 2.5)])
def test_streamed_sweep_blocks_equal_the_full_draw_bit_for_bit(num_points, k_range):
    edges = ident._block_edges(num_points, ident._SWEEP_BLOCK)
    for seed in (0, 1, 7, 2 ** 40):
        pts, ks = _old_sample_sweep(num_points, seed, k_range, 10.0)
        blocks = list(ident._sweep_blocks(num_points, seed, k_range, 10.0))
        assert [len(p) for p, _ in blocks] == np.diff(edges).tolist()
        for (p, k), start, stop in zip(blocks, edges, edges[1:]):
            assert p.tobytes() == pts[start:stop].tobytes()
            assert k.tobytes() == ks[start:stop].tobytes()


def test_identity_sweep_memory_does_not_grow_with_points(monkeypatch):
    # The sweep draws and checks one block at a time.
    monkeypatch.setattr(ident, "_SWEEP_BLOCK", 256)
    # one worker: with two, the peak counts however many blocks are in flight at
    # once, which varies from run to run by more than the margin below
    monkeypatch.setattr(pw.wavefield, "_pool_workers", lambda: 1)

    def peak(num_points):
        tracemalloc.start()
        try:
            ident.suite_residual_breakdown(num_points, 1, (0.1, 10.0), 10.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 4096, 32768
    for _ in range(3):  # the first runs fill numpy's allocation caches
        peak(small), peak(large)
    # drawing the whole sweep before checking it grew by 48 B per point
    assert peak(large) - peak(small) < large - small


def test_identity_block_memory_per_point():
    # one block holds its projection, 16*p5, the 16-phase table its sines are taken
    # in, and one array of its rows per residual; it held 432 B per point when each
    # step made a new table and the eleven relations were stacked into one array
    block = next(ident._sweep_blocks(ident._SWEEP_BLOCK, 0, (0.1, 10.0), 10.0))
    for _ in range(2):  # the first run fills numpy's allocation caches
        tracemalloc.start()
        try:
            ident._block_residuals(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # 192.4 B per point
    assert peak / ident._SWEEP_BLOCK <= 200
