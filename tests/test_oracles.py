"""Recompute the frozen double-precision reference values at high precision.

The literals asserted elsewhere in the suite were produced once with mpmath
at 40 significant digits. This module rederives them from scratch so a
transcription error in any frozen constant fails loudly. It also checks the
paper's truncation bound at 50 digits, past where double precision resolves it,
and criterion 8's pinned registration residuals against their 50-digit values.
"""

import math

import mpmath as mp
import pytest

import pentawave as pw

from test_wavefield import (
    E1,
    GRAD_S5_K1_03_08,
    P5_K1_05_05,
    RAW_BOUND_1_1_0,
    S5_K1_07_03,
    S5_K1_HALFPI_0,
)

mp.mp.dps = 40


def _directions():
    return [
        (mp.cos(2 * mp.pi * i / 5), mp.sin(2 * mp.pi * i / 5)) for i in range(5)
    ]


def _s5_mp(k, x, y):
    return mp.fsum(mp.sin(k * (x * ex + y * ey)) for ex, ey in _directions())


def _p5_mp(k, x, y):
    out = mp.mpf(1)
    for ex, ey in _directions():
        out *= mp.sin(k * (x * ex + y * ey))
    return out


def test_direction_constant():
    ex, ey = _directions()[1]
    assert abs(float(ex) - E1[0]) <= 1e-16
    assert abs(float(ey) - E1[1]) <= 1e-16


def test_s5_constants():
    want = _s5_mp(1, mp.pi / 2, mp.mpf(0))
    assert abs(float(want) - S5_K1_HALFPI_0) <= 1e-17
    want = _s5_mp(1, mp.mpf("0.7"), mp.mpf("0.3"))
    assert abs(float(want) - S5_K1_07_03) <= 1e-19
    # the double-precision evaluator agrees with the exact value to a few ulp
    assert abs(pw.s5(1.0, (0.7, 0.3)) - float(want)) <= 5e-15


def test_p5_constant():
    want = _p5_mp(1, mp.mpf("0.5"), mp.mpf("0.5"))
    assert abs(float(want) - P5_K1_05_05) <= 1e-18
    assert abs(pw.p5(1.0, (0.5, 0.5)) - float(want)) <= 1e-15


def test_raw_bound_constant():
    tau = (1 + mp.sqrt(5)) / 2
    C = (1 / mp.sqrt(5)) * mp.mpf("0.5") ** 5
    raw = C * (tau ** -4 / (1 - tau ** -4) + tau ** -5 / (1 - tau ** -5))
    assert abs(float(raw) - RAW_BOUND_1_1_0) <= 1e-18
    assert abs(pw.tail_bound(1.0, 1.0, 0).raw_bound - float(raw)) <= 1e-17


def test_grad_constant():
    x, y = mp.mpf("0.3"), mp.mpf("0.8")
    gx = mp.fsum(ex * mp.cos(x * ex + y * ey) for ex, ey in _directions())
    gy = mp.fsum(ey * mp.cos(x * ex + y * ey) for ex, ey in _directions())
    assert abs(float(gx) - GRAD_S5_K1_03_08[0]) <= 1e-18
    assert abs(float(gy) - GRAD_S5_K1_03_08[1]) <= 1e-18


def _series_deviations_mp(k, radius, num_terms, num_angles=20):
    """Worst |s5 - series_N| for N = 0..num_terms at 50 digits, over num_angles points on
    the rim of the disk, every 360/num_angles degrees from the x axis, and two inside it."""
    with mp.workdps(50):
        k, radius = mp.mpf(k), mp.mpf(radius)
        tau = (1 + mp.sqrt(5)) / 2
        angles = [2 * mp.pi * j / num_angles for j in range(num_angles)]
        points = [(radius * mp.cos(t), radius * mp.sin(t)) for t in angles]
        points += [(radius / 2, mp.mpf(0)), (mp.mpf(0), radius / 3)]
        worst = [mp.mpf(0)] * (num_terms + 1)
        for x, y in points:
            a = [x * ex + y * ey for ex, ey in _directions()]
            s5 = mp.fsum(mp.sin(k * ai) for ai in a)
            partial = mp.mpf(0)
            for n in range(num_terms + 1):
                worst[n] = max(worst[n], abs(s5 - 16 * partial))
                if n < num_terms:
                    kn = k / (2 * tau ** (n + 1))
                    partial += (-1) ** n * pw.fib(n) * mp.fprod(mp.sin(kn * ai) for ai in a)
        return [float(w) for w in worst]


@pytest.mark.parametrize("k, radius", [(1.0, 10.0), (0.93, 14.0 / 0.93), (2.5, 3.0)])
def test_series_deviation_is_a_fixed_share_of_the_tail_bound(k, radius):
    # The paper's uniform convergence on the disk, for N = 8-40 terms: double
    # precision resolves |s5 - series_N| at R = 10 only up to about N = 22. The worst
    # deviation lies on the rim, where prod_i a_i peaks every 36 degrees, and stays
    # 0.0458-0.0466 of the bound (0.0466 once the sines are linear in their small
    # arguments), so it never exceeds the bound.
    worst = _series_deviations_mp(k, radius, 40)
    for n in range(8, 41):
        ratio = worst[n] / pw.tail_bound(k, radius, n).scaled_bound
        assert 0.0455 <= ratio <= 0.047, (n, ratio)


def _registration_mp(index, targets):
    """Criterion 8's similarity fit and residuals at 50 digits: the sources are the dual
    vertices sum_i m_i e_i of the region indices, computed exactly, the targets the
    extremum locations as doubles. Returns (mean, median, max) of the residuals in units
    of the fitted scale, as fit_similarity and match_report define them."""
    with mp.workdps(50):
        basis = _directions()
        zs = [mp.mpc(mp.fsum(m * ex for m, (ex, _) in zip(row, basis)),
                     mp.fsum(m * ey for m, (_, ey) in zip(row, basis))) for row in index]
        zt = [mp.mpc(mp.mpf(x), mp.mpf(y)) for x, y in targets]
        ms, mt = mp.fsum(zs) / len(zs), mp.fsum(zt) / len(zt)
        alpha = (mp.fsum(mp.conj(s - ms) * (t - mt) for s, t in zip(zs, zt))
                 / mp.fsum(abs(s - ms) ** 2 for s in zs))
        shift = mt - alpha * ms
        residuals = sorted(abs(alpha * s + shift - t) / abs(alpha) for s, t in zip(zs, zt))
        n = len(residuals)
        median = (residuals[(n - 1) // 2] + residuals[n // 2]) / 2
        return mp.fsum(residuals) / n, median, residuals[-1]


def test_pinned_registration_lies_within_16_ulp_of_its_50_digit_value():
    # The yardstick for moving the registration's rounding (ROADMAP item 2). Measured
    # distances, in ulps of each 50-digit value: 4.9 (mean), 17.8 (median), 7.6 (max). A
    # residual is a difference of points up to 40 from the origin over the fitted scale, so
    # its rounding error is absolute: the median, a quarter of the largest residual's binade
    # below it, is held to 16 ulp of the largest residual (4.4 of them measured).
    from test_acceptance import PINNED_MATCH

    cfg = pw.default_search_config(1.0, 40.0)
    found = pw.find_critical_points(1.0, cfg)
    spec = pw.PentagridSpec(1.0 / (2.0 * pw.wavefield.GOLDEN_RATIO))  # as cli builds it
    report = pw.match_report(spec, found, disk_radius=40.0)
    assert report.mean_residual == PINNED_MATCH["mean_residual"]
    matched = report.correspondences
    mean, median, largest = _registration_mp(matched.index.tolist(),
                                             found.location[matched.rows].tolist())
    for key, ref, unit in (("mean_residual", mean, mean), ("median_residual", median, largest),
                           ("max_residual", largest, largest)):
        ulps = abs(mp.mpf(PINNED_MATCH[key]) - ref) / math.ulp(float(unit))
        assert ulps <= 16, (key, float(ulps))
