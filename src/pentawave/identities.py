"""Residual checks for the algebraic identities behind the series.

Every identity the series construction relies on is exposed as a residual
that vanishes in exact arithmetic: the 16-term sine expansion of the
five-wave product, the functional equation tying s5 at three wavenumbers
to p5, the eleven linear relations among the five projections, and the
two-wave product factorization. A seeded suite runner sweeps random
points and wavenumbers and reports the worst absolute residual of each.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .wavefield import (
    GOLDEN_RATIO,
    _as_points,
    _as_wavenumber,
    _block_edges,
    _map_blocks,
    _maybe_scalar,
    _sin_prod,
    _sin_sum,
    project,
)

# Sign table of the 16-term expansion of 16*p5, transcribed literally:
# the all-plus sine, minus the five single-flip sines, plus the ten
# double-flip sines. even_flip_terms() below rebuilds the same sum from
# first principles as a transcription guard.
_EXPANSION_TERMS = (
    (1.0, (1, 1, 1, 1, 1)),
    (-1.0, (-1, 1, 1, 1, 1)),
    (-1.0, (1, -1, 1, 1, 1)),
    (-1.0, (1, 1, -1, 1, 1)),
    (-1.0, (1, 1, 1, -1, 1)),
    (-1.0, (1, 1, 1, 1, -1)),
    (1.0, (-1, -1, 1, 1, 1)),
    (1.0, (-1, 1, -1, 1, 1)),
    (1.0, (-1, 1, 1, -1, 1)),
    (1.0, (-1, 1, 1, 1, -1)),
    (1.0, (1, -1, -1, 1, 1)),
    (1.0, (1, -1, 1, -1, 1)),
    (1.0, (1, -1, 1, 1, -1)),
    (1.0, (1, 1, -1, -1, 1)),
    (1.0, (1, 1, -1, 1, -1)),
    (1.0, (1, 1, 1, -1, -1)),
)
_EXP_COEFFS = np.array([c for c, _ in _EXPANSION_TERMS])
_EXP_SIGNS = np.array([s for _, s in _EXPANSION_TERMS], dtype=float)

# Points per block of the identity sweep. A multiple of 4: the BLAS
# matrix-vector call behind the expansion's final sum rounds the last
# (rows mod 4) rows of a batch differently when that remainder is 2 or 3,
# and blocks starting at multiples of 4 leave those rows on the same points
# as one call over the whole sweep would.
_SWEEP_BLOCK = 1 << 12


def expansion_terms():
    """The hard-coded (coefficient, sign-vector) table of the 16-term expansion."""
    return _EXPANSION_TERMS


def even_flip_terms():
    """Equivalent all-plus-coefficient form of the expansion.

    Because sine is odd, a term (c, sigma) equals (-c, -sigma); canonicalizing
    every term to an even number of flipped signs makes all 16 coefficients +1.
    Kept independent of the table above so the two derivations cross-check.
    """
    out = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(5), r) for r in (0, 2, 4)
    )
    for flips in subsets:
        signs = [1] * 5
        for i in flips:
            signs[i] = -1
        out.append((1.0, tuple(signs)))
    return out


def _expansion(kk, a):
    """The signed sum of the sixteen sines, for wavenumbers kk broadcast against a's rows.

    The 16 phases of every row are scaled by k and their sines taken in the table
    they were made in, unless kk broadcasts that table larger.
    """
    phases = a @ _EXP_SIGNS.T
    kk = np.expand_dims(kk, -1)
    owned = np.broadcast_shapes(kk.shape, phases.shape) == phases.shape
    phases = np.multiply(kk, phases, out=phases if owned else None)
    return np.sin(phases, out=phases) @ _EXP_COEFFS


def _functional(kk, a, p16):
    """((s5(2k) + s5(2k tau)) - s5(2k / tau)) - p16, accumulated in one array."""
    tau = GOLDEN_RATIO
    out = _sin_sum(_as_wavenumber(2.0 * kk), a)
    out += _sin_sum(_as_wavenumber(2.0 * tau * kk), a)
    out -= _sin_sum(_as_wavenumber(2.0 * kk / tau), a)
    out -= p16
    return out


def _direction_relations(a):
    """Yield the eleven linear relations among projections a, one array of a's rows each.

    Order: the total sum a_0+..+a_4, the five cyclic a_i + a_{i+1} + tau*a_{i+3},
    and the five cyclic a_i + a_{i+2} - a_{i+1}/tau.
    """
    yield a.sum(axis=-1)
    for i in range(5):
        yield a[..., i] + a[..., (i + 1) % 5] + GOLDEN_RATIO * a[..., (i + 3) % 5]
    for i in range(5):
        yield a[..., i] + a[..., (i + 2) % 5] - a[..., (i + 1) % 5] / GOLDEN_RATIO


def expansion_lhs(k, p):
    """Signed sum of the sixteen sines of the +-a_0 +- a_1 ... +- a_4 combinations.

    Equals 16 * p5(k, p) identically.
    """
    return _maybe_scalar(_expansion(_as_wavenumber(k), project(p)))


def functional_residual(k, p):
    """s5 at 2k, plus s5 at 2k*tau, minus s5 at 2k/tau, minus 16*p5 at k."""
    kk = _as_wavenumber(k)
    a = project(p)
    return _maybe_scalar(_functional(kk, a, 16.0 * _sin_prod(kk, a)))


def direction_sum_residuals(p):
    """The eleven linear relations among the five projections, last axis length 11,
    in the order of _direction_relations."""
    return np.stack(list(_direction_relations(project(p))), axis=-1)


def two_wave_residual(k, p):
    """sin(kx) + sin(ky) minus the product form 2 sin(k(x+y)/2) cos(k(x-y)/2)."""
    kk = _as_wavenumber(k)
    arr = _as_points(p)
    x, y = arr[..., 0], arr[..., 1]
    lhs = np.sin(kk * x) + np.sin(kk * y)
    rhs = 2.0 * np.sin(kk * (x + y) / 2.0) * np.cos(kk * (x - y) / 2.0)
    return _maybe_scalar(np.asarray(lhs - rhs))


def _sweep_blocks(num_points, seed, k_range, radius):
    """Yield the (points, wavenumbers) of a seeded sweep, _SWEEP_BLOCK points at a time.

    The sweep draws num_points disk radii, then as many angles, then as many
    wavenumbers in k_range, all from one PCG64 stream seeded with seed. Each
    double of random() and uniform() takes one 64-bit draw, so the three start
    at draws 0, n and 2n of the stream. Three copies of the generator, advanced
    to those draws, yield every block in turn without drawing the sweep as a whole.
    """
    if num_points < 1:
        raise ValueError("num_points must be at least 1")
    lo, hi = float(k_range[0]), float(k_range[1])
    if not (0.0 < lo <= hi):
        raise ValueError("k_range must be a nonempty positive interval")
    if not (radius >= 0):
        raise ValueError("radius must be nonnegative")
    r_rng, theta_rng, k_rng = (np.random.default_rng(seed) for _ in range(3))
    theta_rng.bit_generator.advance(num_points)
    k_rng.bit_generator.advance(2 * num_points)
    edges = _block_edges(num_points, _SWEEP_BLOCK)
    for count in np.diff(edges).tolist():
        r = radius * np.sqrt(r_rng.random(count))
        theta = 2.0 * np.pi * theta_rng.random(count)
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        yield pts, k_rng.uniform(lo, hi, count)


def _block_residuals(block):
    """Worst absolute residual of each identity over one (points, wavenumbers) block.

    The block is projected once, and its 16*p5 serves both the expansion and
    the functional check. Each residual is made and taken absolute in one array
    of the block's rows; the direction relations go one at a time into a running
    maximum (np.maximum, which lets a NaN through as .max() does).
    """
    p, ks = block
    kk = _as_wavenumber(ks)
    a = project(p)
    p16 = _sin_prod(kk, a)
    p16 *= 16.0
    expansion = _expansion(kk, a)
    expansion -= p16
    functional = _functional(kk, a, p16)
    del p16
    directions = functools.reduce(
        np.maximum, (np.abs(r, out=r).max() for r in _direction_relations(a)))
    del a
    return [
        np.abs(expansion, out=expansion).max(),
        np.abs(functional, out=functional).max(),
        directions,
        np.abs(two_wave_residual(kk, p)).max(),
    ]


def suite_residual_breakdown(num_points, seed, k_range, radius):
    """Per-identity worst absolute residuals over one seeded sweep.

    The sweep is drawn block by block in the calling thread, and the blocks
    are checked on the block pool (_map_blocks).
    """
    worst = np.zeros(4)  # every residual is an absolute value
    blocks = _sweep_blocks(num_points, seed, k_range, radius)
    for residuals in _map_blocks(_block_residuals, blocks):
        worst = np.maximum(worst, residuals)
    names = ("expansion", "functional", "direction_sums", "two_wave")
    return dict(zip(names, map(float, worst)))

