"""Tests for the field evaluators, Fibonacci helpers, series, and tail bound."""

import importlib.util
import math
import threading
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pentawave as pw
from pentawave import extrema as ex

TAU = (1.0 + math.sqrt(5.0)) / 2.0
ROOT = Path(__file__).resolve().parent.parent

# Reference values computed independently with mpmath at 40 significant
# digits, then rounded to the nearest double.
S5_K1_HALFPI_0 = 0.022453571232578215
S5_K1_07_03 = -0.0002854023462858399
P5_K1_05_05 = -0.006326304609325629
E1 = (0.30901699437494745, 0.9510565162951535)
RAW_BOUND_1_1_0 = 0.003772341036933013
GRAD_S5_K1_03_08 = (0.0008824532110866910, 0.0065934892473002385)


def _disk_points(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_direction_basis_unit_vectors():
    e = pw.direction_basis()
    assert e.shape == (5, 2)
    assert np.allclose(np.hypot(e[:, 0], e[:, 1]), 1.0, rtol=0, atol=1e-15)
    assert e[0, 0] == 1.0 and e[0, 1] == 0.0
    assert abs(e[1, 0] - E1[0]) <= 1e-15
    assert abs(e[1, 1] - E1[1]) <= 1e-15


def test_direction_basis_pairwise_angles():
    e = pw.direction_basis()
    for i in range(5):
        for j in range(5):
            want = math.cos(2.0 * math.pi * (i - j) / 5.0)
            assert abs(float(e[i] @ e[j]) - want) <= 1e-14


def test_direction_basis_sums_to_zero():
    e = pw.direction_basis()
    assert np.abs(e.sum(axis=0)).max() <= 1e-15


def test_direction_basis_returns_independent_copy():
    e = pw.direction_basis()
    e[0, 0] = 99.0
    assert pw.direction_basis()[0, 0] == 1.0


def test_project_examples():
    a = pw.project((1.0, 0.0))
    assert a.shape == (5,)
    assert a[0] == 1.0
    # a0 + a1 = -tau * a3 at (1, 0)
    assert abs((a[0] + a[1]) + TAU * a[3]) <= 1e-15
    assert np.all(pw.project((0.0, 0.0)) == 0.0)


def test_project_components_sum_to_zero():
    rng = np.random.default_rng(3)
    pts = _disk_points(rng, 10000, 20.0)
    a = pw.project(pts)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    assert np.all(np.abs(a.sum(axis=-1)) <= 1e-12 * norms)


def test_project_batch_shapes():
    pts = np.zeros((4, 3, 2))
    assert pw.project(pts).shape == (4, 3, 5)
    with pytest.raises(ValueError):
        pw.project((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        pw.project((np.nan, 0.0))


def test_s5_reference_values():
    assert pw.s5(1.0, (0.0, 0.0)) == 0.0
    assert abs(pw.s5(1.0, (math.pi / 2.0, 0.0)) - S5_K1_HALFPI_0) <= 5e-15
    assert abs(pw.s5(1.0, (0.7, 0.3)) - S5_K1_07_03) <= 5e-15


def test_s5_odd_and_rotation_invariant():
    rng = np.random.default_rng(17)
    pts = _disk_points(rng, 2000, 20.0)
    ks = rng.uniform(0.1, 10.0, 2000)
    assert np.abs(pw.s5(ks, -pts) + pw.s5(ks, pts)).max() <= 1e-12
    c, s = math.cos(2.0 * math.pi / 5.0), math.sin(2.0 * math.pi / 5.0)
    rot = pts @ np.array([[c, s], [-s, c]])
    assert np.abs(pw.s5(ks, rot) - pw.s5(ks, pts)).max() <= 1e-12


def test_p5_reference_values():
    assert pw.p5(1.0, (0.0, 0.0)) == 0.0
    # first factor is sin(pi) up to rounding of pi itself
    assert abs(pw.p5(1.0, (math.pi, 0.0))) <= 1e-15
    assert abs(pw.p5(1.0, (0.5, 0.5)) - P5_K1_05_05) <= 1e-15


def test_p5_odd_and_rotation_invariant():
    rng = np.random.default_rng(18)
    pts = _disk_points(rng, 2000, 20.0)
    ks = rng.uniform(0.1, 10.0, 2000)
    assert np.abs(pw.p5(ks, -pts) + pw.p5(ks, pts)).max() <= 1e-12
    c, s = math.cos(2.0 * math.pi / 5.0), math.sin(2.0 * math.pi / 5.0)
    rot = pts @ np.array([[c, s], [-s, c]])
    assert np.abs(pw.p5(ks, rot) - pw.p5(ks, pts)).max() <= 1e-12


def test_s2_values():
    s2 = ex.S2_FIELD.value
    assert abs(s2(1.0, (math.pi / 2.0, math.pi / 2.0)) - 2.0) <= 1e-15
    assert s2(1.0, (0.0, 0.0)) == 0.0
    got = s2(2.0, (0.3, -0.4))
    want = math.sin(0.6) + math.sin(-0.8)
    assert abs(got - want) <= 1e-15


def test_field_broadcasting_and_scalar_return():
    pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    ks = np.array([1.0, 2.0, 3.0])
    batch = pw.s5(ks, pts)
    assert batch.shape == (3,)
    # batched and single-point evaluation may route through different BLAS
    # kernels; agreement is to rounding, not bit-for-bit
    for i in range(3):
        assert abs(batch[i] - pw.s5(float(ks[i]), pts[i])) <= 1e-14
    assert isinstance(pw.s5(1.0, (0.1, 0.2)), float)
    assert isinstance(pw.p5(1.0, (0.1, 0.2)), float)


def test_wavenumber_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            pw.s5(bad, (0.1, 0.2))
    with pytest.raises(ValueError):
        pw.s5(np.array([1.0, -2.0]), np.zeros((2, 2)))


def test_fib_small_values():
    assert [pw.fib(n) for n in range(5)] == [1, 1, 2, 3, 5]
    assert pw.fib(10) == 89


def test_fib_recurrence_matches_closed_form():
    sqrt5 = math.sqrt(5.0)
    for n in range(41):
        closed = round((TAU ** (n + 1) - (-1.0 / TAU) ** (n + 1)) / sqrt5)
        assert pw.fib(n) == closed
        if n >= 2:
            assert pw.fib(n) == pw.fib(n - 1) + pw.fib(n - 2)


def test_fib_closed_form_helper_tracks_exact_values():
    for n in range(0, 71, 7):
        exact = pw.fib(n)
        assert abs(pw.fib_closed_form(n) - exact) <= 1e-9 * exact


def test_fib_rejects_bad_input():
    with pytest.raises(ValueError):
        pw.fib(-1)
    with pytest.raises(ValueError):
        pw.fib(2.5)
    with pytest.raises(ValueError):
        pw.fib(True)


def test_series_spec_validation():
    with pytest.raises(ValueError):
        pw.SeriesSpec(k=0.0, num_terms=3)
    with pytest.raises(ValueError):
        pw.SeriesSpec(k=1.0, num_terms=-1)
    with pytest.raises(ValueError):
        pw.SeriesSpec(k=1.0, num_terms=2.5)
    # past 1474 terms the closed-form coefficient tau**(n+1)/sqrt(5) overflows
    with pytest.raises(ValueError):
        pw.SeriesSpec(k=1.0, num_terms=1475)
    assert math.isfinite(pw.series_partial(pw.SeriesSpec(k=1.0, num_terms=1474), (0.3, 0.2)))


def test_series_partial_edge_cases():
    spec = pw.SeriesSpec(k=1.0, num_terms=0)
    assert pw.series_partial(spec, (0.4, -0.2)) == 0.0
    spec = pw.SeriesSpec(k=1.0, num_terms=12)
    assert pw.series_partial(spec, (0.0, 0.0)) == 0.0
    pts = np.zeros((7, 2)) + 0.25
    assert pw.series_partial(spec, pts).shape == (7,)


def test_series_partial_converges_within_bound():
    rng = np.random.default_rng(5)
    pts = _disk_points(rng, 500, 10.0)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    target = pw.s5(1.0, pts)
    for n in (0, 2, 5, 8):
        approx = pw.series_partial(pw.SeriesSpec(k=1.0, num_terms=n), pts)
        bounds = np.array(
            [pw.tail_bound(1.0, float(r), n).scaled_bound for r in norms]
        )
        assert np.all(np.abs(target - approx) <= bounds)


def test_tail_bound_reference_value():
    tb = pw.tail_bound(1.0, 1.0, 0)
    assert abs(tb.raw_bound - RAW_BOUND_1_1_0) <= 1e-17
    assert tb.scaled_bound == 16.0 * tb.raw_bound
    assert abs(tb.C - (1.0 / math.sqrt(5.0)) * 0.5**5) <= 1e-18
    assert tb.radius == 1.0


def test_tail_bound_zero_radius():
    tb = pw.tail_bound(1.0, 0.0, 3)
    assert tb.raw_bound == 0.0
    assert tb.scaled_bound == 0.0


def test_tail_bound_geometric_decay():
    prev = None
    for n in range(20):
        raw = pw.tail_bound(2.0, 5.0, n).raw_bound
        if prev is not None:
            assert raw <= prev * TAU**-4 * (1.0 + 1e-12)
        prev = raw


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        pw.tail_bound(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        pw.tail_bound(1.0, -1.0, 0)
    with pytest.raises(ValueError):
        pw.tail_bound(1.0, 1.0, -1)
    # (k*radius/2)**5 past the double range
    with pytest.raises(ValueError):
        pw.tail_bound(1e80, 10.0, 0)
    with pytest.raises(ValueError):
        pw.tail_bound(1e300, 1e10, 0)


def test_terms_for_tolerance_minimal():
    assert pw.terms_for_tolerance(1.0, 0.0, 1e-12) == 0
    n = pw.terms_for_tolerance(1.0, 1.0, 1e-6)
    assert n == 6
    for k, r, eps in ((1.0, 5.0, 1e-8), (3.0, 10.0, 1e-4), (0.5, 2.0, 1e-10)):
        n = pw.terms_for_tolerance(k, r, eps)
        assert pw.tail_bound(k, r, n).scaled_bound <= eps
        if n > 0:
            assert pw.tail_bound(k, r, n - 1).scaled_bound > eps
    with pytest.raises(ValueError):
        pw.terms_for_tolerance(1.0, 1.0, 0.0)


def test_grad_s5_reference_value():
    g = pw.grad_s5(1.0, (0.3, 0.8))
    assert abs(g[0] - GRAD_S5_K1_03_08[0]) <= 2e-15
    assert abs(g[1] - GRAD_S5_K1_03_08[1]) <= 2e-15
    assert np.abs(pw.grad_s5(1.0, (0.0, 0.0))).max() <= 1e-15


def test_grad_s5_matches_finite_differences():
    rng = np.random.default_rng(101)
    pts = _disk_points(rng, 100, 3.0)
    ks = rng.uniform(0.5, 2.0, 100)
    h = 1e-6
    for p, k in zip(pts, ks):
        g = pw.grad_s5(float(k), p)
        fx = (pw.s5(float(k), p + [h, 0]) - pw.s5(float(k), p - [h, 0])) / (2 * h)
        fy = (pw.s5(float(k), p + [0, h]) - pw.s5(float(k), p - [0, h])) / (2 * h)
        assert abs(g[0] - fx) <= 1e-6
        assert abs(g[1] - fy) <= 1e-6


def test_hess_s5_matches_finite_differences():
    rng = np.random.default_rng(102)
    pts = _disk_points(rng, 100, 3.0)
    ks = rng.uniform(0.5, 2.0, 100)
    h = 1e-5
    for p, k in zip(pts, ks):
        kf = float(k)
        hess = pw.hess_s5(kf, p)
        assert hess.shape == (2, 2)
        assert abs(hess[0, 1] - hess[1, 0]) <= 1e-15
        for i, j in ((0, 0), (0, 1), (1, 1)):
            ei = np.array([h if i == 0 else 0.0, h if i == 1 else 0.0])
            gp = pw.grad_s5(kf, p + ei)
            gm = pw.grad_s5(kf, p - ei)
            assert abs(hess[i, j] - (gp[j] - gm[j]) / (2 * h)) <= 1e-5


def test_grad_hess_s2_match_finite_differences():
    s2, grad_s2, hess_s2 = ex.S2_FIELD.value, ex.S2_FIELD.grad, ex.S2_FIELD.hess
    rng = np.random.default_rng(104)
    pts = _disk_points(rng, 100, 3.0)
    h = 1e-6
    for p in pts:
        g = grad_s2(1.0, p)
        fx = (s2(1.0, p + [h, 0]) - s2(1.0, p - [h, 0])) / (2 * h)
        fy = (s2(1.0, p + [0, h]) - s2(1.0, p - [0, h])) / (2 * h)
        assert abs(g[0] - fx) <= 1e-6
        assert abs(g[1] - fy) <= 1e-6
        hess = hess_s2(1.0, p)
        assert hess[0, 1] == 0.0 and hess[1, 0] == 0.0
        assert abs(hess[0, 0] + math.sin(p[0])) <= 1e-15
        assert abs(hess[1, 1] + math.sin(p[1])) <= 1e-15


def test_hess_s5_trace_identity():
    # trace H = -k^2 * s5 because each direction is a unit vector
    rng = np.random.default_rng(103)
    pts = _disk_points(rng, 200, 5.0)
    for p in pts:
        hess = pw.hess_s5(1.3, p)
        assert abs(np.trace(hess) + 1.3**2 * pw.s5(1.3, p)) <= 1e-12


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
def test_grad_batch_shapes(field):
    pts = np.zeros((6, 2)) + 0.3
    assert field.grad(1.0, pts).shape == (6, 2)
    assert field.hess(1.0, pts).shape == (6, 2, 2)


# The two-wave field's evaluators as they were written out before it became the sine sum
# over the two axes (extrema.S2_FIELD), kept verbatim, with wavefield's helpers named
# through the module, as its reference.

def s2(k, p):
    """Two perpendicular standing waves: sin(k*x) + sin(k*y)."""
    kk = pw.wavefield._as_wavenumber(k)
    arr = pw.wavefield._as_points(p)
    return pw.wavefield._maybe_scalar(np.sin(kk * arr[..., 0]) + np.sin(kk * arr[..., 1]))


def grad_s2(k, p):
    """Analytic gradient of s2: (k cos(k*x), k cos(k*y))."""
    kk = pw.wavefield._as_wavenumber(k)
    arr = pw.wavefield._as_points(p)
    gx = kk * np.cos(kk * arr[..., 0])
    gy = kk * np.cos(kk * arr[..., 1])
    return np.stack(np.broadcast_arrays(gx, gy), axis=-1)


def hess_s2(k, p):
    """Analytic Hessian of s2: -k^2 diag(sin(k*x), sin(k*y))."""
    kk = pw.wavefield._as_wavenumber(k)
    arr = pw.wavefield._as_points(p)
    d0, d1 = np.broadcast_arrays(
        -(kk ** 2) * np.sin(kk * arr[..., 0]),
        -(kk ** 2) * np.sin(kk * arr[..., 1]),
    )
    out = np.zeros(d0.shape + (2, 2))
    out[..., 0, 0] = d0
    out[..., 1, 1] = d1
    return out


@pytest.mark.parametrize("k", [1.0, 0.93, 1e5, 1e-8])
def test_s2_field_equals_the_written_out_s2(k):
    # value and gradient bit for bit; the Hessian under ==, as its off-diagonal zeros are
    # sums of sin * 0.0 scaled by -k^2, so mostly -0.0 where the written-out form has 0.0
    rng = np.random.default_rng(107)
    pts = _disk_points(rng, 20001, 1.0)
    for p in (pts, 80.0 * pts, 1e6 * pts[:, None, :], pts[5], tuple(80.0 * pts[9])):
        got, want = ex.S2_FIELD.value(k, p), s2(k, p)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got, want = ex.S2_FIELD.grad(k, p), grad_s2(k, p)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = ex.S2_FIELD.hess(k, p), hess_s2(k, p)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert type(ex.S2_FIELD.value(k, (0.3, -0.4))) is float


def _grad_s5_reference(k, p):
    """grad_s5 before its temporaries were reused in place, kept verbatim."""
    kk = pw.wavefield._as_wavenumber(k)
    a = pw.project(p)
    w = kk[..., None] * np.cos(kk[..., None] * a)
    return w @ pw.wavefield._DIRECTIONS


def _hess_s5_reference(k, p):
    """hess_s5 before its temporaries were reused in place, kept verbatim but for the outer
    products e_i e_i^T, made here as they were made at import."""
    kk = pw.wavefield._as_wavenumber(k)
    a = pw.project(p)
    s = np.sin(kk[..., None] * a)
    e = pw.direction_basis()
    outer = np.einsum("ia,ib->iab", e, e)
    return -((kk ** 2)[..., None, None]) * np.einsum("...i,iab->...ab", s, outer)


def test_grad_hess_s5_equal_reference_bit_for_bit():
    rng = np.random.default_rng(105)
    pts = _disk_points(rng, 500, 80.0)
    ks = rng.uniform(0.5, 3.0, 500)
    cases = [(k, pts) for k in (1.0, 0.93, 2.5)]
    cases += [(1.0, pts[:, None, :]), (0.93, pts[:1]), (1.0, pts[7]), (2.5, tuple(pts[3]))]
    cases += [(ks, pts), (ks[:4, None], pts[:6])]
    for k, p in cases:
        for got, want in ((pw.grad_s5(k, p), _grad_s5_reference(k, p)),
                          (pw.hess_s5(k, p), _hess_s5_reference(k, p))):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_sin_prod_equals_np_prod_bit_for_bit():
    rng = np.random.default_rng(106)
    a = pw.project(_disk_points(rng, 2000, 80.0))
    ks = rng.uniform(0.1, 10.0, 2000)
    cases = [(np.asarray(1.0), a), (np.asarray(0.93), a[17]), (np.asarray(2.5), a[:, None, :]),
             (ks, a), (ks[:, None], a[:, None, :]), (0.37, a[:1])]
    for kk, proj in cases:
        got = pw.wavefield._sin_prod(kk, proj)
        want = np.prod(np.sin(np.asarray(kk)[..., None] * proj), axis=-1)
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_blocks_yields_in_order_and_draws_at_most_workers_ahead(monkeypatch, workers):
    monkeypatch.setattr(pw.wavefield, "_pool_workers", lambda: workers)
    consumed = 0
    ahead = []

    def blocks():
        for i in range(12):
            ahead.append(i + 1 - consumed)  # drawn and not yet consumed, this one included
            yield i

    def slow_square(i):
        time.sleep(0.002 * (i % 3))  # later blocks may finish first
        return i * i

    for got in pw.wavefield._map_blocks(slow_square, blocks()):
        assert got == consumed * consumed
        consumed += 1
    assert consumed == 12
    assert max(ahead) == workers


def test_map_blocks_passes_a_block_error_to_the_caller():
    def fail_at_three(i):
        if i == 3:
            raise ValueError("block 3")
        return i

    seen, raised = [], []

    def consume():
        try:
            seen.extend(pw.wavefield._map_blocks(fail_at_three, range(100)))
        except ValueError as exc:
            raised.append(str(exc))

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive()  # no hang
    assert raised == ["block 3"]
    assert seen == [0, 1, 2]


def test_disk_lattice_size_is_the_lattice_size_before_clipping():
    for radius, step in ((7.3, math.pi / 4.0), (3.0, 0.5), (0.1, 0.25), (0.0, 1.0)):
        n = int(math.floor(radius / step))
        assert pw.wavefield._disk_lattice_size(radius, step) == (2 * n + 1) ** 2
    # counted in floats: a count or a ratio that overflows reads inf
    assert pw.wavefield._disk_lattice_size(1e300, math.pi / 4.0) == math.inf
    assert pw.wavefield._disk_lattice_size(1.0, 5e-324) == math.inf


@pytest.mark.parametrize("e", [-600, -300, 0, 300, 600])
def test_disk_lattice_scales_by_powers_of_two(e):
    # squares of these lattices overflow (e = 600) or underflow (e = -600) unscaled
    want = np.ldexp(pw.wavefield._disk_lattice(3.0, 0.1), e)
    got = pw.wavefield._disk_lattice(math.ldexp(3.0, e), math.ldexp(0.1, e))
    assert got.shape == want.shape and len(got) < 61 * 61
    assert got.tobytes() == want.tobytes()


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def _golden_and_benchmark_disks():
    """(radius, step) of every disk lattice the golden runs (bench/golden.py, at scales 0.1,
    1 and 3) and the benchmark (perfbench/run.py, seeds 0-9) sample or seed."""
    golden = _load("golden", "bench/golden.py")
    disks = set()
    for scale in (0.1, 1.0, 3.0):
        for _, argv in golden.invocations(scale):
            flags = dict(zip(argv[1::2], argv[2::2]))
            if argv[0] not in ("field", "converge", "extrema", "match"):
                continue
            k, radius = float(flags["--k"]), float(flags["--radius"])
            step = float(flags["--grid-step"]) if "--grid-step" in flags else math.pi / (4.0 * k)
            disks.add((radius, step))
    bench = _load("perfbench_run", "perfbench/run.py")
    for seed in range(10):
        k = bench.wavenumber(seed)
        disks |= {(14 / k, 0.05 / k), (20 / k, 0.05 / k), (200 / k, math.pi / (4.0 * k))}
    return sorted(disks)


def test_in_disk_decides_as_the_unscaled_squares_on_every_golden_and_benchmark_lattice():
    for radius, step in _golden_and_benchmark_disks():
        n = int(np.floor(radius / step))
        vals = step * np.arange(-n, n + 1)
        x, y = vals[:, None], vals[None, :]
        want = x ** 2 + y ** 2 <= radius ** 2  # the disk test before _in_disk
        assert np.array_equal(pw.wavefield._in_disk(x, y, radius), want), (radius, step)


def _pow_sensitive_radii(rng, count):
    """Radii whose square, by ** (C pow), is not that of the radius scaled to [0.5, 1)
    scaled back: a disk test that scaled every radius would move their rims."""
    found = []
    while len(found) < count:
        r = float(rng.uniform(0.5, 1.0)) * 2.0 ** int(rng.integers(-500, 500))
        m, e = math.frexp(r)
        if r ** 2 != math.ldexp(m ** 2, 2 * e):
            found.append(r)
    return found


def test_in_disk_decides_as_the_unscaled_squares_on_rows_straddling_the_rim():
    rng = np.random.default_rng(25)
    radii = [r for r, _ in _golden_and_benchmark_disks()]
    radii += [float(r) for r in rng.uniform(0.5, 1.0, 40) * 2.0 ** rng.integers(-500, 500, 40)]
    radii += _pow_sensitive_radii(rng, 20)
    for radius in radii:
        angle = rng.uniform(0.0, 2.0 * np.pi, 4000)
        x, y = radius * np.cos(angle), radius * np.sin(angle)
        nudge = rng.integers(-3, 4, (2, len(angle)))
        x, y = x + nudge[0] * np.spacing(x), y + nudge[1] * np.spacing(y)
        want = x ** 2 + y ** 2 <= radius ** 2
        got = pw.wavefield._in_disk(x, y, radius)
        assert want.any() and not want.all()
        assert np.array_equal(got, want), radius
        # the type of the radius does not move the rim
        for typed in (np.float64(radius), np.array(radius)):
            assert np.array_equal(pw.wavefield._in_disk(x, y, typed), got), (radius, typed)


@pytest.mark.parametrize("radius", [1e-170, 1e160, 1e308])
def test_in_disk_decides_where_the_squares_leave_the_doubles(radius):
    # rows at 0.999 and 1.001 of the radius along the axes and the diagonals
    s = 1.0 / math.sqrt(2.0)
    directions = np.array([[1.0, 0.0], [0.0, -1.0], [s, s], [-s, s]])
    inner, outer = (np.float64(f * radius) * directions for f in (0.999, 1.001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pw.wavefield._in_disk(inner[:, 0], inner[:, 1], radius).all()
        assert not pw.wavefield._in_disk(outer[:, 0], outer[:, 1], radius).any()
        far = pw.wavefield._in_disk(np.array([0.0, 1e308]), np.array([0.0, 1e308]), radius)
    assert far.tolist() == [True, False]


def test_in_disk_decides_on_the_least_subnormal_radius():
    tiny = 5e-324
    got = pw.wavefield._in_disk(np.array([tiny, 0.0, tiny, 2 * tiny]),
                                np.array([0.0, -tiny, tiny, 0.0]), tiny)
    assert got.tolist() == [True, True, False, False]
