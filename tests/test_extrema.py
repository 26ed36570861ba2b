"""Tests for critical point search, refinement, and classification."""

import math

import numpy as np
import pytest

import pentawave as pw
from pentawave import extrema as ex

TAU = (1.0 + math.sqrt(5.0)) / 2.0
TWO_PI = 2.0 * math.pi


def _window_config(window, spacing=math.pi / 4.0, **overrides):
    return ex.SearchConfig(radius=0.0, seed_spacing=spacing, window=window, **overrides)


def test_s2_oracle_full_period():
    pts = ex.s2_oracle(1.0, (0.0, TWO_PI, 0.0, TWO_PI))
    kinds = sorted(p.kind for p in pts)
    assert kinds == [ex.KIND_MAXIMUM, ex.KIND_MINIMUM, ex.KIND_SADDLE, ex.KIND_SADDLE]
    by_kind = {p.kind: p for p in pts if p.kind != ex.KIND_SADDLE}
    mx = by_kind[ex.KIND_MAXIMUM]
    mn = by_kind[ex.KIND_MINIMUM]
    assert np.allclose(mx.location, (math.pi / 2, math.pi / 2), atol=1e-15)
    assert mx.value == 2.0
    assert np.allclose(mn.location, (3 * math.pi / 2, 3 * math.pi / 2), atol=1e-15)
    assert mn.value == -2.0


def test_s2_oracle_counts_scale_quadratically():
    for m in (1, 2, 3):
        window = (0.0, TWO_PI * m, 0.0, TWO_PI * m)
        pts = ex.s2_oracle(1.0, window)
        n_max = sum(1 for p in pts if p.kind == ex.KIND_MAXIMUM)
        n_min = sum(1 for p in pts if p.kind == ex.KIND_MINIMUM)
        n_sad = sum(1 for p in pts if p.kind == ex.KIND_SADDLE)
        assert n_max == m * m
        assert n_min == m * m
        assert n_sad == 2 * m * m


def test_s2_oracle_respects_wavenumber():
    pts = ex.s2_oracle(2.0, (0.0, math.pi, 0.0, math.pi))
    # with k=2 the lattice shrinks by half: one full period fits
    assert len(pts) == 4
    mx = [p for p in pts if p.kind == ex.KIND_MAXIMUM]
    assert len(mx) == 1
    assert np.allclose(mx[0].location, (math.pi / 4, math.pi / 4), atol=1e-15)


def test_pipeline_matches_s2_oracle():
    window = (0.5, TWO_PI - 0.5, 0.5, TWO_PI - 0.5)
    found = pw.find_critical_points(1.0, _window_config(window), field=ex.S2_FIELD)
    oracle = ex.s2_oracle(1.0, window)
    assert len(found) == len(oracle) == 4
    for f, o in zip(found, oracle):
        assert f.kind == o.kind
        assert math.hypot(
            f.location[0] - o.location[0], f.location[1] - o.location[1]
        ) <= 1e-9
        assert abs(f.value - o.value) <= 1e-9
        assert np.allclose(f.eigenvalues, o.eigenvalues, atol=1e-8)


def test_newton_refine_fixed_at_exact_critical_point():
    cfg = _window_config((0.0, TWO_PI, 0.0, TWO_PI))
    seed = (math.pi / 2.0, math.pi / 2.0)
    got = ex.newton_refine(1.0, seed, cfg, field=ex.S2_FIELD)
    assert got == seed


def test_newton_refine_converges_from_offset_seed():
    cfg = _window_config((0.0, TWO_PI, 0.0, TWO_PI))
    got = ex.newton_refine(1.0, (math.pi / 2 + 0.3, math.pi / 2 - 0.2), cfg, field=ex.S2_FIELD)
    assert got is not None
    assert math.hypot(got[0] - math.pi / 2, got[1] - math.pi / 2) <= 1e-10


def test_newton_refine_origin_seed_degenerate():
    # the fivefold field has a degenerate critical point at the origin where
    # the Hessian vanishes; the damped fallback must not produce NaN
    cfg = pw.default_search_config(1.0, 1.0)
    got = ex.newton_refine(1.0, (0.0, 0.0), cfg)
    assert got == (0.0, 0.0)
    kind, _ = ex.classify(1.0, got, cfg)
    assert kind == ex.KIND_DEGENERATE


def test_tiny_disk_returns_only_origin():
    found = pw.find_critical_points(1.0, pw.default_search_config(1.0, 0.1))
    assert len(found) == 1
    assert found[0].location == (0.0, 0.0)
    assert found[0].kind == ex.KIND_DEGENERATE
    assert found[0].value == 0.0


def test_gradient_postcondition_and_sorted_output():
    cfg = pw.default_search_config(1.0, 6.0)
    found = pw.find_critical_points(1.0, cfg)
    assert len(found) > 0
    locs = [c.location for c in found]
    assert locs == sorted(locs)
    for c in found:
        g = pw.grad_s5(1.0, c.location)
        assert math.hypot(g[0], g[1]) <= cfg.grad_tol
        assert math.hypot(*c.location) <= 6.0 + 1e-9


def test_results_stable_under_seed_refinement():
    # halving the seed spacing must find the same critical set
    coarse = pw.find_critical_points(1.0, pw.default_search_config(1.0, 6.0))
    fine = pw.find_critical_points(
        1.0, pw.default_search_config(1.0, 6.0, seed_spacing=math.pi / 8.0)
    )
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert math.hypot(a.location[0] - b.location[0], a.location[1] - b.location[1]) <= 1e-8
        assert a.kind == b.kind


def test_deterministic_across_calls():
    a = pw.find_critical_points(1.3, pw.default_search_config(1.3, 5.0))
    b = pw.find_critical_points(1.3, pw.default_search_config(1.3, 5.0))
    assert a == b


def test_classification_against_eigenvalues():
    found = pw.find_critical_points(1.0, pw.default_search_config(1.0, 10.0))
    kinds = {c.kind for c in found}
    assert ex.KIND_MAXIMUM in kinds
    assert ex.KIND_MINIMUM in kinds
    assert ex.KIND_SADDLE in kinds
    for c in found:
        lo, hi = c.eigenvalues
        assert lo <= hi
        h = pw.hess_s5(1.0, c.location)
        want = np.linalg.eigvalsh(h)
        assert abs(lo - want[0]) <= 1e-9
        assert abs(hi - want[1]) <= 1e-9
        if c.kind == ex.KIND_MAXIMUM:
            assert hi < 0
        elif c.kind == ex.KIND_MINIMUM:
            assert lo > 0
        elif c.kind == ex.KIND_SADDLE:
            assert lo < 0 < hi


def test_classify_helper_cases():
    cfg = _window_config((0.0, TWO_PI, 0.0, TWO_PI))
    kind, eigs = ex.classify(1.0, (math.pi / 2, math.pi / 2), cfg, field=ex.S2_FIELD)
    assert kind == ex.KIND_MAXIMUM
    assert np.allclose(eigs, (-1.0, -1.0), atol=1e-12)
    kind, eigs = ex.classify(1.0, (3 * math.pi / 2, math.pi / 2), cfg, field=ex.S2_FIELD)
    assert kind == ex.KIND_SADDLE
    assert eigs[0] < 0 < eigs[1]
    kind, _ = ex.classify(1.0, (0.0, 0.0), cfg)
    assert kind == ex.KIND_DEGENERATE


def test_field_symmetry_of_critical_set():
    found = pw.find_critical_points(1.0, pw.default_search_config(1.0, 8.0))
    locs = np.array([c.location for c in found])
    kinds = [c.kind for c in found]
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
    for a, b in zip(base, dense):
        assert math.hypot(a.location[0] - b.location[0], a.location[1] - b.location[1]) <= 1e-8
        assert a.kind == b.kind


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
        ex.SearchConfig(radius=0.0, seed_spacing=0.5, window=(1.0, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        ex.SearchConfig(radius=0.0, seed_spacing=0.5, window=None)


def test_seed_spacing_guard_against_aliasing():
    # spacing above half the shortest wavelength risks skipping extrema
    cfg = ex.SearchConfig(radius=4.0, seed_spacing=2.0)
    with pytest.raises(ValueError):
        pw.find_critical_points(2.0, cfg)


def test_default_search_config_values():
    cfg = pw.default_search_config(2.0, 7.5)
    assert cfg.radius == 7.5
    assert abs(cfg.seed_spacing - math.pi / 8.0) <= 1e-15
    assert abs(cfg.dedupe_radius - math.pi / 32.0) <= 1e-15
    assert cfg.grad_tol == 1e-10
    assert cfg.max_newton_steps == 40
    over = pw.default_search_config(2.0, 7.5, grad_tol=1e-8)
    assert over.grad_tol == 1e-8


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
    assert ex._dedupe(pts, gnorm, h) == _greedy_dedupe_reference(pts, gnorm, h)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("h", [math.pi / 16.0, 0.1, 1.0 / 3.0])
def test_dedupe_matches_greedy_reference(seed, h):
    rng = np.random.default_rng(seed)
    for pts, gnorm in _dedupe_cases(rng, h):
        assert ex._dedupe(pts, gnorm, h) == _greedy_dedupe_reference(pts, gnorm, h)


def test_dedupe_matches_greedy_reference_on_converged_seeds():
    cfg = ex.default_search_config(1.0, 30.0)
    pts, converged, gnorm = ex._refine_batch(ex.S5_FIELD, 1.0, ex._seed_grid(cfg), cfg)
    pts, gnorm = pts[converged], gnorm[converged]
    assert len(pts) > 1000
    want = _greedy_dedupe_reference(pts, gnorm, cfg.dedupe_radius)
    assert ex._dedupe(pts, gnorm, cfg.dedupe_radius) == want


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
    for cp in found:
        assert _classify_reference(k, cp.location, cfg, field) == (cp.kind, cp.eigenvalues)
        assert cp.value == float(field.value(k, np.asarray(cp.location)))
    rng = np.random.default_rng(7)
    pts = np.concatenate([[cp.location for cp in found], rng.uniform(-60.0, 60.0, (4000, 2))])
    kinds, eigenvalues = ex.classify(k, pts, cfg, field=field)
    for p, kind, eig in zip(pts.tolist(), kinds, eigenvalues.tolist()):
        assert _classify_reference(k, p, cfg, field) == (kind, tuple(eig))
        assert ex.classify(k, p, cfg, field=field) == (kind, tuple(eig))


def test_find_critical_points_classifies_in_one_call(monkeypatch):
    calls = []
    single = ex.classify

    def counted(k, location, cfg, field=ex.S5_FIELD):
        calls.append(np.shape(location))
        return single(k, location, cfg, field=field)

    monkeypatch.setattr(ex, "classify", counted)
    found = ex.find_critical_points(1.0, ex.default_search_config(1.0, 15.0))
    assert calls == [(len(found), 2)]


def test_seed_count_is_the_seed_grid_size_before_clipping():
    for cfg in (ex.default_search_config(1.0, 7.3), _window_config((-1.0, 2.5, 0.3, 4.0))):
        n = int(math.floor(cfg.radius / cfg.seed_spacing)) if cfg.window is None else None
        want = (2 * n + 1) ** 2 if n is not None else len(ex._seed_grid(cfg))
        assert ex.seed_count(cfg) == want
    assert ex.seed_count(ex.default_search_config(1.0, 1e300)) == math.inf
