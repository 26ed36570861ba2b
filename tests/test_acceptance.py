"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail line on the real stdout (bypassing
pytest capture) so a full run always shows the acceptance summary, then
asserts so pytest fails loudly on any regression.
"""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import pentawave as pw
from pentawave import extrema as ex
from pentawave import pentagrid as pg

TAU = (1.0 + math.sqrt(5.0)) / 2.0
TWO_PI = 2.0 * math.pi

# Pinned regression values for the matching pipeline at k=1, radius 40,
# seed 7, captured from the first validated pilot run. The pilot's critical
# point set was cross-checked once against a brute-force dense seed scan at
# pitch pi/16 (identical points), so these values are trusted as an oracle.
PINNED_MATCH = {
    "num_extrema": 130,
    "num_regions_hit": 110,
    "regions_with_exactly_one": 90,
    "mean_residual": 0.25417661094469146,
    "median_residual": 0.1504318860116373,
    "max_residual": 0.868493163255616,
}


@pytest.fixture
def verdict(capsys):
    """Print one pass/fail line per criterion on the uncaptured stdout."""

    def emit(num, name, ok, detail=""):
        line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _disk_points(rng, n, radius):
    r = radius * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def test_criterion_1_identity_suite(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    pts = _disk_points(rng, 10000, 20.0)
    ks = rng.uniform(0.1, 10.0, 10000)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    tol = 1e-9 * (1.0 + ks * norms) ** 5

    residuals = {
        "expansion": np.abs(pw.expansion_lhs(ks, pts) - 16.0 * pw.p5(ks, pts)),
        "functional": np.abs(pw.functional_residual(ks, pts)),
        "direction_sums": np.abs(pw.direction_sum_residuals(pts)).max(axis=-1),
        "two_wave": np.abs(pw.two_wave_residual(ks, pts)),
    }
    elapsed = time.perf_counter() - start
    worst = {name: float((res / tol).max()) for name, res in residuals.items()}
    ok = all(v <= 1.0 for v in worst.values()) and elapsed <= 5.0
    verdict(
        1,
        "identity suite",
        ok,
        f"worst residual/tolerance {max(worst.values()):.3g}, {elapsed:.2f}s",
    )


def test_criterion_2_bound_dominance(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    pts = _disk_points(rng, 1000, 10.0)
    norms = np.hypot(pts[:, 0], pts[:, 1])
    target = pw.s5(1.0, pts)
    violations = 0
    max_errors = []
    for n in range(11):
        approx = pw.series_partial(pw.SeriesSpec(1.0, n), pts)
        err = np.abs(target - approx)
        bounds = np.array([pw.tail_bound(1.0, float(r), n).scaled_bound for r in norms])
        violations += int((err > bounds).sum())
        max_errors.append(float(err.max()))
    elapsed = time.perf_counter() - start
    lo, hi = TAU**-5 / 2.0, 2.0 * TAU**-4
    ratios = [max_errors[n + 1] / max_errors[n] for n in range(3, 10)]
    ratios_ok = all(lo <= r <= hi for r in ratios)
    ok = violations == 0 and ratios_ok and elapsed <= 10.0
    verdict(
        2,
        "bound dominance",
        ok,
        f"{violations} violations, ratios in [{min(ratios):.3f}, {max(ratios):.3f}], {elapsed:.2f}s",
    )


def test_criterion_3_fibonacci(verdict):
    sqrt5 = math.sqrt(5.0)
    ok = [pw.fib(n) for n in range(5)] == [1, 1, 2, 3, 5]
    for n in range(41):
        closed = round((TAU ** (n + 1) - (-1.0 / TAU) ** (n + 1)) / sqrt5)
        ok = ok and pw.fib(n) == closed
    verdict(3, "fibonacci closed form", ok, "n = 0..40 exact")


def test_criterion_4_checkerboard_oracle(verdict):
    start = time.perf_counter()
    # the disk of radius 3 holds the four oracle points at (+-pi/2, +-pi/2)
    radius = 3.0
    found = pw.find_critical_points(1.0, pw.SearchConfig(radius), field=ex.S2_FIELD)
    # the oracle's square about the disk, clipped to the disk
    oracle = ex.s2_oracle(1.0, (-radius, radius, -radius, radius))
    inside = np.hypot(*oracle.location.T) <= radius
    oracle = ex.CriticalSet(oracle.location[inside], oracle.value[inside], oracle.kind[inside],
                            oracle.eigenvalues[inside])
    elapsed = time.perf_counter() - start
    ok = len(found) == len(oracle) == 4
    if ok:
        ok = ok and bool(np.all(np.hypot(*(found.location - oracle.location).T) <= 1e-9))
        ok = ok and found.kind.tolist() == oracle.kind.tolist()
        ok = ok and bool(np.all(np.abs(found.value - oracle.value) <= 1e-9))
    kinds = sorted(ex.KINDS[code] for code in found.kind.tolist())
    ok = ok and kinds == ["maximum", "minimum", "saddle", "saddle"]
    ok = ok and elapsed <= 2.0
    verdict(
        4,
        "checkerboard oracle",
        ok,
        f"{len(found)} points, {elapsed:.3f}s",
    )


def test_criterion_5_sign_law(verdict):
    spec = pg.PentagridSpec(1.0)
    rng = np.random.default_rng(13)
    accepted = 0
    agreed = 0
    while accepted < 10000:
        pts = _disk_points(rng, 20000, 20.0)
        m, margin = pg.region_indices(spec, pts)
        keep = margin > 1e-6 * spec.spacing
        m, pts = m[keep], pts[keep]
        take = min(len(m), 10000 - accepted)
        signs = pg.region_sign(m[:take])
        field = np.sign(pw.p5(spec.c, pts[:take]))
        agreed += int((signs == field).sum())
        accepted += take
    ok = agreed == 10000
    verdict(5, "pentagrid sign law", ok, f"{agreed}/10000 exact agreement")


def test_criterion_6_tiling_geometry(verdict):
    spec = pg.PentagridSpec(1.0)
    patch = pg.tiles(spec, (-10.0, 10.0, -10.0, 10.0))
    edges_ok = True
    angles_ok = True
    for v in patch.vertices:
        for c in range(4):
            d1 = v[(c + 1) % 4] - v[c]
            d2 = v[(c - 1) % 4] - v[c]
            edges_ok = edges_ok and abs(math.hypot(*d1) - 1.0) <= 1e-12
            ang = math.degrees(
                math.acos(float(d1 @ d2) / (math.hypot(*d1) * math.hypot(*d2)))
            )
            angles_ok = angles_ok and min(
                abs(ang - w) for w in (36.0, 72.0, 108.0, 144.0)
            ) <= 1e-10
    min_origin = min(map(math.hypot, *patch.intersection.T.tolist()), default=math.inf)
    ok = (
        len(patch.vertices) > 0
        and edges_ok
        and angles_ok
        and set(patch.thin.tolist()) == {True, False}
        and patch.skipped_singular > 0
        and min_origin > 1e-6
    )
    verdict(
        6,
        "tiling geometry",
        ok,
        f"{len(patch.vertices)} tiles, {patch.skipped_singular} singular crossings skipped",
    )


def test_criterion_7_registration_recovery(verdict):
    spec = pg.PentagridSpec(1.0)
    rng = np.random.default_rng(11)
    pts = _disk_points(rng, 400, 30.0)
    m, margin = pg.region_indices(spec, pts)
    regions = {}
    for row, g in zip(m, margin):
        if g > 1e-6 * spec.spacing:
            regions[tuple(int(v) for v in row)] = None
    planted = pg.SimilarityTransform(scale=3.7, rotation=0.4, translation=(5.0, -2.0))
    sources = pg.dual_vertices(list(regions))
    targets = planted.apply(sources)
    fitted = pg.fit_similarity(np.stack([sources, targets], axis=1))
    mapped = fitted.apply(sources)
    max_residual = float(np.hypot(*(mapped - targets).T).max())
    ok = (
        len(sources) >= 40
        and abs(fitted.scale - 3.7) <= 1e-9
        and abs(fitted.rotation - 0.4) <= 1e-9
        and max_residual <= 1e-9
    )
    verdict(
        7,
        "registration recovery",
        ok,
        f"{len(sources)} pairs, scale err {abs(fitted.scale - 3.7):.2g}, "
        f"max residual {max_residual:.2g}",
    )


def test_criterion_8_matching_regression(tmp_path, verdict):
    out = tmp_path / "match_run"
    args = [
        sys.executable, "-m", "pentawave.cli", "match",
        "--k", "1", "--radius", "40", "--seed", "7", "--out", str(out),
    ]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first = (out / "match.json").read_bytes()
    first_csv = (out / "match.csv").read_bytes()
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    deterministic = (
        (out / "match.json").read_bytes() == first
        and (out / "match.csv").read_bytes() == first_csv
    )
    report = json.loads(first)["report"]
    mismatches = [
        key for key, want in PINNED_MATCH.items() if report[key] != want
    ]
    ok = deterministic and not mismatches
    verdict(
        8,
        "matching regression",
        ok,
        "bit-for-bit reproduction" if ok else f"mismatched: {mismatches}",
    )


def test_criterion_9_symmetry_suite(verdict):
    rng = np.random.default_rng(21)
    pts = _disk_points(rng, 10000, 20.0)
    ks = rng.uniform(0.1, 10.0, 10000)
    c5, s5_ = math.cos(TWO_PI / 5.0), math.sin(TWO_PI / 5.0)
    rot = pts @ np.array([[c5, s5_], [-s5_, c5]])
    point_ok = (
        float(np.abs(pw.s5(ks, -pts) + pw.s5(ks, pts)).max()) <= 1e-12
        and float(np.abs(pw.p5(ks, -pts) + pw.p5(ks, pts)).max()) <= 1e-12
        and float(np.abs(pw.s5(ks, rot) - pw.s5(ks, pts)).max()) <= 1e-12
        and float(np.abs(pw.p5(ks, rot) - pw.p5(ks, pts)).max()) <= 1e-12
    )

    found = pw.find_critical_points(1.0, pw.SearchConfig(10.0))
    locs = found.location
    kinds = [ex.KINDS[code] for code in found.kind.tolist()]
    set_ok = len(found) > 0
    for p, kind in zip(locs @ np.array([[c5, s5_], [-s5_, c5]]), kinds):
        d = np.hypot(locs[:, 0] - p[0], locs[:, 1] - p[1])
        j = int(d.argmin())
        set_ok = set_ok and d[j] <= 1e-8 and kinds[j] == kind
    swap = {
        ex.KIND_MAXIMUM: ex.KIND_MINIMUM,
        ex.KIND_MINIMUM: ex.KIND_MAXIMUM,
        ex.KIND_SADDLE: ex.KIND_SADDLE,
        ex.KIND_DEGENERATE: ex.KIND_DEGENERATE,
    }
    for p, kind in zip(-locs, kinds):
        d = np.hypot(locs[:, 0] - p[0], locs[:, 1] - p[1])
        j = int(d.argmin())
        set_ok = set_ok and d[j] <= 1e-8 and kinds[j] == swap[kind]
    ok = point_ok and set_ok
    verdict(
        9,
        "symmetry suite",
        ok,
        f"10000 field points, {len(found)} critical points",
    )
