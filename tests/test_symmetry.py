"""The point-inversion symmetry p -> 0.0 - p that the extrema search and converge use.

s5 and s2 are sums of sines of projections of p, so under p -> 0.0 - p the
field is odd, its gradient even and its Hessian odd, bit for bit with numpy's
sin and cos. The Newton loop therefore runs half of each disk lattice, and
converge samples half of its grid; these tests hold the loop to its reference
on the whole lattice and converge to the whole-grid results, byte for byte
(tobytes, which tells -0.0 from 0.0). The Newton loop returns its rows in no
set order, so its results are compared as sorted rows.
"""

import json
from collections import Counter

import numpy as np
import pytest

import pentawave as pw
from pentawave import cli
from pentawave import extrema as ex
from pentawave.wavefield import (
    _blocked_series_max_errors,
    _disk_lattice,
    _disk_lattice_blocks,
    _series_block_size,
)
from test_extrema import (
    _half_grid,
    _in_disk,
    _refine_batch_reference,
    _seed_grid,
    _seed_grid_reference,
    _sorted_rows,
    _two_row_batches,
)


def _reference(field, k, seeds, cfg):
    """The reference Newton loop's converged rows inside the disk: the rows that
    ex._refine_batch returns, without pairs."""
    return _in_disk(_refine_batch_reference(_two_row_batches(field), k, seeds, cfg), cfg)


def _samples():
    rng = np.random.default_rng(5)
    return np.concatenate([
        rng.uniform(-60.0, 60.0, 1 << 18),
        rng.uniform(-1.0, 1.0, 1 << 16) * 10.0 ** rng.uniform(-320.0, 300.0, 1 << 16),
        [0.0, 5e-324, 1e-300, np.pi, 1e22, 1.7e308],
    ])


def test_numpy_sin_is_odd_and_cos_even_bit_for_bit():
    x = _samples()
    assert np.sin(-x).tobytes() == (-np.sin(x)).tobytes()
    assert np.cos(-x).tobytes() == np.cos(x).tobytes()


def test_projection_of_the_mirror_point_is_the_mirrored_projection():
    rng = np.random.default_rng(6)
    pts = np.concatenate([rng.uniform(-200.0, 200.0, (4001, 2)),
                          [[0.0, 3.5], [-2.25, 0.0], [0.0, 0.0], [0.0, -0.0]]])
    # equal up to the sign of zeros, in a batch and as a lone row
    assert np.array_equal(pw.project(0.0 - pts), 0.0 - pw.project(pts))
    for row in pts[::97]:
        assert np.array_equal(pw.project(0.0 - row[None]), 0.0 - pw.project(row[None]))


def test_the_whole_lattice_mirrors_its_half():
    for cfg in (ex.default_search_config(1.0, 7.3), ex.default_search_config(0.93, 0.3)):
        half, whole = _half_grid(cfg), _seed_grid(cfg)
        assert half[0].tolist() == [0.0, 0.0] and len(whole) == 2 * len(half) - 1
        assert whole.tobytes() == (0.0 - whole[::-1]).tobytes()
        assert whole[len(half) - 1:].tobytes() == half.tobytes()
        # the mirrored half is the lattice built whole from a meshgrid
        assert whole.tobytes() == _seed_grid_reference(cfg).tobytes()


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
def test_paired_loop_is_the_whole_loop_byte_for_byte(monkeypatch, field):
    events = Counter()
    step, evaluate = ex._newton_step, ex._evaluate

    def counted_step(*args):
        new, split, mate = step(*args)
        events["split"] += split.size
        return new, split, mate

    def counted_evaluate(fn, k, rows):
        events["lone row"] += len(rows) == 1
        return evaluate(fn, k, rows)

    monkeypatch.setattr(ex, "_newton_step", counted_step)
    monkeypatch.setattr(ex, "_evaluate", counted_evaluate)
    for k in (1.0, 0.93, 1.05, 2.5):
        for radius in (0.3, 1.0, 3.0, 20.0, 40.0, 100.0):
            for overrides in ({}, {"eig_degenerate_tol": 0.5}, {"max_newton_steps": 3},
                              {"grad_tol": 1e-14}):
                cfg = ex.default_search_config(k, radius, **overrides)
                got = ex._refine_batch(field, k, _half_grid(cfg), cfg)
                want = _reference(field, k, _seed_grid(cfg), cfg)
                assert _sorted_rows(*got) == _sorted_rows(*want), (k, radius, overrides)
    # fallback ties split pairs, and s5's last active rows step alone
    assert events["split"] > 0
    assert events["lone row"] > 0 or field is ex.S2_FIELD


def _arc_grad(k, p):
    y = p[..., 1]
    with np.errstate(invalid="ignore"):
        return np.stack([0.0 * y, np.sqrt(1.0 - y * y) - 0.3], axis=-1)


# An odd field on the y axis whose gradient (0, sqrt(1 - y^2) - 0.3) vanishes at
# |y| = 0.954 and turns NaN past |y| = 1. Its zero Hessian sends every step
# through the fallback, and x stays exactly 0.0. The coarse grad_tol lets rows
# converge on the fallback's fixed steps, split mates among them.
_ARC_FIELD = ex.FieldTriple(None, _arc_grad, lambda k, p: np.zeros(p.shape + (2,)))
_ARC_SEARCH = ex.default_search_config(1.0, 10.0, grad_tol=0.05)
_ARC_SEEDS = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 0.95], [0.0, -0.95], [0.0, 0.97],
                       [0.0, 1.5]])


def _refine_arc(refine, seeds):
    with np.errstate(divide="ignore", invalid="ignore"):
        return refine(_ARC_FIELD, 1.0, seeds, _ARC_SEARCH)


def test_split_mates_keep_positive_zeros(monkeypatch):
    # Near y = +-1 one of lo and hi has a NaN gradient norm, so a row and its
    # mate take the same side and split; at y = 1.5 both are NaN and the pair
    # stops at once. Each mate goes on from 0.0 minus the row's point, whose x
    # is +0.0, where -p would give -0.0.
    splits = []
    step = ex._newton_step

    def counted(*args):
        new, split, mate = step(*args)
        splits.append(split.size)
        return new, split, mate

    monkeypatch.setattr(ex, "_newton_step", counted)
    got = _refine_arc(ex._refine_batch, _ARC_SEEDS)
    # the whole lattice of a half, the mirror relation the paired search rests on
    want = _refine_arc(_reference, np.concatenate([0.0 - _ARC_SEEDS[:0:-1], _ARC_SEEDS]))
    assert _sorted_rows(*got) == _sorted_rows(*want)
    assert sum(splits) == 3
    # converged pairs come back as two rows and the origin does not converge, so an
    # odd count holds a split mate that converged without its row
    assert len(got[0]) % 2 == 1


def test_search_does_not_depend_on_the_order_of_the_refined_rows(monkeypatch):
    # The dedupe breaks a tie in (gradient norm, x, y) by row number, so the rows'
    # order could matter only between rows that tie under == with other bits: at
    # -0.0 and 0.0, which the search never makes.
    refine, rng, returned = ex._refine_batch, np.random.default_rng(8), []

    def reordered(reverse):
        def refined(*args, **kwargs):
            pts, gnorm = refine(*args, **kwargs)
            returned.append(pts)
            rows = np.arange(len(pts))[::-1] if reverse else rng.permutation(len(pts))
            return pts[rows], gnorm[rows]
        return refined

    for k in (1.0, 0.93):
        for field in (ex.S5_FIELD, ex.S2_FIELD):
            for overrides in ({}, {"eig_degenerate_tol": 0.5}):
                cfg = ex.default_search_config(k, 40.0 / k, **overrides)
                want = ex.find_critical_points(k, cfg, field=field)
                for reverse in (True, False):
                    with monkeypatch.context() as patched:
                        patched.setattr(ex, "_refine_batch", reordered(reverse))
                        got = ex.find_critical_points(k, cfg, field=field)
                    for name in ("location", "value", "kind", "eigenvalues"):
                        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    returned.append(_refine_arc(ex._refine_batch, _ARC_SEEDS)[0])
    assert len(returned) == 17 and min(map(len, returned)) > 0
    assert not any((np.signbit(pts) & (pts == 0.0)).any() for pts in returned)


@pytest.mark.parametrize("k", [0.93, 1.05, 3e5])
def test_one_seed_search_rounds_its_seed_as_a_row_of_a_batch(k):
    # the origin alone is evaluated as two identical rows: with OpenBLAS's Haswell
    # kernels a lone row's projection rounds differently at these k (gnorm 4.13e-16,
    # not 2.57e-16, at k = 1.05), and at k = 3e5 its gnorm 1.167e-10 is above
    # grad_tol, so the lone row would not converge
    cfg = ex.default_search_config(k, 0.3 / k)
    origin = np.zeros((1, 2))
    batch = pw.grad_s5(k, np.zeros((2, 2)))[:1]
    half = _half_grid(cfg)
    assert half.tobytes() == origin.tobytes()
    pts, gnorm = ex._refine_batch(ex.S5_FIELD, k, half, cfg)
    assert pts.tobytes() == origin.tobytes()
    assert gnorm.tobytes() == np.hypot(batch[:, 0], batch[:, 1]).tobytes()
    found = ex.find_critical_points(k, cfg)
    assert found.location.tobytes() == origin.tobytes()


@pytest.mark.parametrize("field", [ex.S5_FIELD, ex.S2_FIELD], ids=["s5", "s2"])
@pytest.mark.parametrize("k", [1.0, 0.93])
def test_search_does_not_depend_on_the_band_size(monkeypatch, field, k):
    # a one-row batch is evaluated as two rows, so each seed's trajectory depends on
    # that seed alone; bands of one row up to the default give the same bytes. Each
    # band costs a Python loop of its own, so bands of 1 to 3 rows stop at 12/k: at
    # 40/k they would take about 3 minutes
    for radius in (0.3, 3.0, 12.0, 40.0):
        for overrides in ({}, {"eig_degenerate_tol": 0.5 * k * k}, {"max_newton_steps": 3}):
            cfg = ex.default_search_config(k, radius / k, **overrides)
            want = ex.find_critical_points(k, cfg, field=field)
            for band in (64,) if radius == 40.0 else (1, 2, 3, 64):
                with monkeypatch.context() as patched:
                    patched.setattr(ex, "_NEWTON_BLOCK", band)
                    got = ex.find_critical_points(k, cfg, field=field)
                for name in ("location", "value", "kind", "eigenvalues"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (
                        radius, overrides, band, name)


@pytest.mark.parametrize("k", [1.0, 0.93, 2.5])
def test_converge_maxima_on_the_half_grid_are_those_of_the_whole_grid(k):
    terms, step = 12, 0.1 / k
    chunk = _series_block_size(terms)
    spec = pw.SeriesSpec(k, terms)
    # down to a radius below one step, where the grid is the origin alone
    for radius in (20.0 / k, 3.0, 1.0, 0.15, 0.05):
        whole = _disk_lattice(radius, step)
        edges = pw.wavefield._block_edges(len(whole), chunk)
        want, count = _blocked_series_max_errors(
            spec, (whole[a:b] for a, b in zip(edges, edges[1:])))
        assert count == len(whole)
        got, half = _blocked_series_max_errors(spec, _disk_lattice_blocks(radius, step, chunk))
        assert got.tobytes() == want.tobytes(), radius
        assert 2 * half - 1 == len(whole)


@pytest.mark.parametrize("radius, step", [(5.0, 0.25), (0.2, 0.25), (0.0, 0.5)])
def test_converge_counts_the_whole_grid(tmp_path, radius, step):
    out = tmp_path / "conv"
    assert cli.main(["converge", "--radius", repr(radius), "--grid-step", repr(step),
                     "--out", str(out), "--format", "json"]) == 0
    report = json.loads((out / "converge.json").read_text())["report"]
    assert report["num_samples"] == len(_disk_lattice(radius, step))
