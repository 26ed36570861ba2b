"""Scalar standing-wave superpositions with fivefold symmetry.

Evaluates the five-wave field s5, the sine sum (_SineSum) over five
directions, with its analytic first and second derivatives, its
single-product counterpart p5, the golden-ratio series approximant of s5,
its worst error over a disk lattice, and the closed-form bound on that error.

Conventions:
    Directions e_i = (cos(2*pi*i/5), sin(2*pi*i/5)) for i = 0..4.
    Projections a_i = p . e_i.
    s5(k, p) = sum_i sin(k * a_i)
    p5(k, p) = prod_i sin(k * a_i)
    Fibonacci numbers use the shifted convention F0 = F1 = 1, one index
    ahead of the common F0 = 0 convention.

All field evaluators broadcast: points may be a single (2,) pair or any
(..., 2) batch, and k may be a scalar or an array broadcastable against
the batch shape. Scalar inputs produce plain Python floats.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

# Shifted Fibonacci numbers stay exactly representable as doubles up to
# n = 77 (F_77 < 2**53); the series switches to the closed form before that.
_FIB_FLOAT_SWITCH = 70

# tau**1474 is the largest power of the golden ratio below the double range,
# so term n = 1473 is the last whose coefficient tau**(n+1)/sqrt(5) is finite.
_MAX_SERIES_TERMS = 1474

# Bytes of the terms x points table of series terms that each worker of the block
# pool holds at once in series_max_errors, which sizes its blocks of points to fit.
_SERIES_BLOCK_BYTES = 1 << 20


def _as_points(p):
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise ValueError("expected point(s) with a trailing dimension of 2")
    if not np.isfinite(arr).all():
        raise ValueError("point coordinates must be finite")
    return arr


def _as_wavenumber(k):
    arr = np.asarray(k, dtype=float)
    if not np.isfinite(arr).all() or not (arr > 0).all():
        raise ValueError("wavenumber must be finite and positive")
    return arr


def _maybe_scalar(arr):
    return float(arr) if arr.ndim == 0 else arr


def _block_edges(num_points, size):
    """Edges of consecutive blocks of size points; a lone last point joins the block before.

    numpy projects a lone point with a BLAS matrix-vector call, which can round
    differently from the matrix-matrix call a batch of two or more points gets.
    """
    return [*range(0, max(num_points - 1, 1), size), num_points]


def _disk_lattice_blocks(radius, step, size):
    """Yield the lattice step * (-n..n)^2 clipped to the disk from the origin on (its half),
    rows ordered by (x, y), in the blocks _block_edges(total, size) cuts from it.
    Whole x-columns are generated band by band, so only about one block is held.
    """
    n = int(np.floor(radius / step))
    vals = step * np.arange(-n, n + 1)
    cols = max(1, size // len(vals))
    pending = np.empty((0, 2))
    for first in range(n, len(vals), cols):
        xs = vals[first:first + cols, None]
        keep = _in_disk(xs, vals, radius)
        if first == n:
            keep[0, :n] = False  # the column x = 0 from the origin on
        band = np.column_stack([np.broadcast_to(xs, keep.shape)[keep],
                                np.broadcast_to(vals, keep.shape)[keep]])
        pending = np.concatenate([pending, band])
        # emit a full block only while two rows stay behind for the last one
        while len(pending) >= size + 2:
            yield pending[:size]
            pending = pending[size:]
    yield pending


def _in_disk(x, y, radius):
    """x**2 + y**2 <= radius**2, elementwise, radius taken as a float, so ** squares it by C
    pow whatever its type. Where radius**2 leaves the normal doubles, x, y and radius are
    scaled by 2**-e, e the exponent of radius (math.frexp), which is exact; only there, as
    pow can round a scaled radius's square differently."""
    m, e = math.frexp(radius)
    if -510 <= e <= 512:  # 2**-1022 <= radius**2 < 2**1024
        m, e = float(radius), 0
    with np.errstate(over="ignore"):  # a point whose square overflows lies outside
        x, y = np.ldexp(x, -e), np.ldexp(y, -e)
        return x ** 2 + y ** 2 <= m ** 2


def _disk_lattice_size(radius, step):
    """Points of the lattice step * (-n..n)^2 before the disk clip, (2n + 1)^2 for
    n = floor(radius / step): counted in floats without allocating, so a lattice too
    large to hold is refused before it is made (inf where the count overflows)."""
    side = 2.0 * float(np.floor(radius / step)) + 1.0
    return side * side


def _disk_lattice(radius, step):
    """The whole lattice of _disk_lattice_blocks as one array: 0.0 - half[:0:-1] followed by
    the half, bit for bit, since step * -i is -(step * i) and a zero coordinate is +0.0
    both ways."""
    half = np.concatenate(list(_disk_lattice_blocks(radius, step, 1 << 16)))
    return np.concatenate([0.0 - half[:0:-1], half])


def _pool_workers():
    """Threads of the block pool: two, or one where only one core is usable."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _map_blocks(fn, blocks):
    """Yield fn(block) for each block of an iterable, in order, from a thread pool.

    numpy releases the GIL inside its ufuncs and BLAS calls, so independent
    blocks run concurrently while each block's arithmetic stays unchanged.
    Blocks are drawn in the calling thread, each only once fewer than
    _pool_workers() blocks are in flight. An exception raised by fn reaches
    the caller once the other blocks in flight have finished.
    """
    # imported here, not at the top: it adds about 8 ms to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    workers = _pool_workers()
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for block in blocks:
            pending.append(pool.submit(fn, block))
            if len(pending) == workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _sin_sum(kk, a):
    """sum_i sin(kk * a_i) over projections a of shape (..., m)."""
    ka = np.expand_dims(kk, -1) * a
    return np.sin(ka, out=ka).sum(axis=-1)


def _sin_prod(kk, a, out=None):
    """prod_i sin(kk * a_i) over projections a of shape (..., 5), into out if given.

    Multiplies columns 0..4 left to right, the order (and so the bits) of
    np.prod over the last axis, without its reduction overhead.
    """
    ka = np.expand_dims(kk, -1) * a
    np.sin(ka, out=ka)
    out = np.multiply(ka[..., 0], ka[..., 1], out=out)
    for i in range(2, 5):
        out *= ka[..., i]
    return out


class _SineSum:
    """The field sum_i sin(k * p . d_i) over the unit directions d_i, the rows of an
    (m, 2) array, with its analytic gradient and Hessian. Each is a sum of sines or
    cosines of the projections, so the value and Hessian are odd and the gradient even
    under p -> 0.0 - p, bit for bit (numpy's sin is odd and cos even)."""

    def __init__(self, directions):
        self.directions = np.array(directions, dtype=float)
        self.directions.setflags(write=False)
        self.outer = np.einsum("ia,ib->iab", self.directions, self.directions)
        self.outer.setflags(write=False)

    def project(self, p):
        """Projections a_i = p . d_i onto the directions, shape (..., m)."""
        return _as_points(p) @ self.directions.T

    def combine(self, c):
        """sum_i c_i d_i of coefficients c (..., m), shape (..., 2): the adjoint of project."""
        return c @ self.directions

    def value(self, k, p):
        """The sum of the standing waves: sum_i sin(k * a_i)."""
        return _maybe_scalar(_sin_sum(_as_wavenumber(k), self.project(p)))

    def grad(self, k, p):
        """Analytic gradient: sum_i k * cos(k * a_i) * d_i, shape (..., 2)."""
        kk = _as_wavenumber(k)[..., None]
        ka = kk * self.project(p)
        np.cos(ka, out=ka)
        ka *= kk
        return self.combine(ka)

    def hess(self, k, p):
        """Analytic Hessian: -k^2 * sum_i sin(k * a_i) d_i d_i^T, shape (..., 2, 2)."""
        kk = _as_wavenumber(k)
        ka = kk[..., None] * self.project(p)
        np.sin(ka, out=ka)
        out = np.einsum("...i,iab->...ab", ka, self.outer)
        out *= -((kk ** 2)[..., None, None])
        return out


_ANGLES = 2.0 * np.pi * np.arange(5) / 5.0
_S5 = _SineSum(np.column_stack([np.cos(_ANGLES), np.sin(_ANGLES)]))
_DIRECTIONS = _S5.directions
s5, grad_s5, hess_s5 = _S5.value, _S5.grad, _S5.hess
project, _combine = _S5.project, _S5.combine


def direction_basis():
    """The five unit direction vectors e_i = (cos(2*pi*i/5), sin(2*pi*i/5))."""
    return _DIRECTIONS.copy()


def p5(k, p):
    """Product of the five standing waves: prod_i sin(k * a_i)."""
    return _maybe_scalar(_sin_prod(_as_wavenumber(k), project(p)))


def fib(n):
    """Shifted-convention Fibonacci number: F0 = F1 = 1, exact integer."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError("n must be an integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    a, b = 1, 1
    for _ in range(int(n)):
        a, b = b, a + b
    return a


def fib_closed_form(n):
    """Closed form (tau^(n+1) - (-1/tau)^(n+1)) / sqrt(5) as a float."""
    tau = GOLDEN_RATIO
    return (tau ** (n + 1) - (-1.0 / tau) ** (n + 1)) / math.sqrt(5.0)


@dataclass(frozen=True)
class SeriesSpec:
    """Wavenumber and number of retained series terms (indices 0..num_terms-1)."""

    k: float
    num_terms: int

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("k must be finite and positive")
        if isinstance(self.num_terms, bool) or not isinstance(
            self.num_terms, (int, np.integer)
        ):
            raise ValueError("num_terms must be an integer")
        if self.num_terms < 0:
            raise ValueError("num_terms must be nonnegative")
        if self.num_terms > _MAX_SERIES_TERMS:
            raise ValueError(f"num_terms must be at most {_MAX_SERIES_TERMS}")


def series_term(k, n):
    """Signed coefficient (-1)^n F_n and wavenumber k / (2 tau^(n+1)) of series term n."""
    coeff = float(fib(n)) if n <= _FIB_FLOAT_SWITCH else fib_closed_form(n)
    return (-coeff if n % 2 else coeff), k / (2.0 * GOLDEN_RATIO ** (n + 1))


def series_partial(spec, p):
    """Partial sum of the golden-ratio series approximating s5.

    Evaluates 16 * sum_{n=0}^{num_terms-1} (-1)^n F_n prod_i sin(k a_i / (2 tau^(n+1)))
    by _series_sums, _series_block_size rows at a time; num_terms = 0 returns 0. The
    input is projected once on its own shape, so a stacked batch keeps its rounding.
    """
    a = project(p)
    rows, size = a.reshape(-1, 5), _series_block_size(spec.num_terms)
    out = np.empty(len(rows))
    for i in range(0, len(rows), size):
        out[i:i + size] = next(_series_sums(spec, rows[i:i + size], [spec.num_terms]))
    return _maybe_scalar(out.reshape(a.shape[:-1]))


def _series_block_size(terms):
    """Points per block of series_max_errors, so terms x points doubles fit _SERIES_BLOCK_BYTES."""
    return max(2, _SERIES_BLOCK_BYTES // (8 * max(1, terms)))


def _series_sums(spec, a, nums):
    """Yield 16 * S_N, the sum of terms n < N, over projections a (m, 5) for each N in nums.

    The one place that orders series terms. Each S_N is one reduction of the terms' table,
    first N rows reversed, which numpy adds in order from +0.0 (n = N-1 down to 0); a lone
    row is tabled twice, as numpy sums one column pairwise. All N share one buffer.
    """
    m = len(a)
    a = np.concatenate([a, a]) if m == 1 else a
    table = np.empty((spec.num_terms, len(a)))
    for n, row in enumerate(table):
        coeff, kn = series_term(spec.k, n)
        _sin_prod(kn, a, out=row)
        row *= coeff
    total = np.empty(len(a))
    del a
    for num in nums:
        np.add.reduce(table[:num][::-1], axis=0, out=total, initial=0.0)
        total *= 16.0
        yield total[:m]


def _blocked_series_max_errors(spec, blocks):
    """series_max_errors over an iterable of point blocks: (maxima, points counted), each
    block projected once for s5 and _series_sums, on the block pool (_map_blocks)."""

    def block_errors(pts):
        a = project(pts)
        s5_vals = _sin_sum(spec.k, a)
        sums = _series_sums(spec, a, range(spec.num_terms + 1))
        del a
        return [np.abs(np.subtract(s5_vals, t, out=t), out=t).max() for t in sums], len(pts)

    worst = np.zeros(spec.num_terms + 1)  # every error is an absolute value
    num_points = 0
    for errors, size in _map_blocks(block_errors, blocks):
        num_points += size
        worst = np.maximum(worst, errors)
    return worst, num_points


def series_max_errors(spec, radius, step):
    """(max |s5 - series_partial(SeriesSpec(spec.k, N))| for N = 0..spec.num_terms,
    samples) over the disk lattice of _disk_lattice(radius, step), held a block at a time.

    s5 (a sum of sines) and each term (a product of five) are odd bit for bit, so
    |s5 - series_N| is the same at p and -p and the half lattice has every maximum.
    """
    blocks = _disk_lattice_blocks(radius, step, _series_block_size(spec.num_terms))
    errors, half = _blocked_series_max_errors(spec, blocks)
    return errors, 2 * half - 1


@dataclass(frozen=True)
class TailBound:
    """Truncation-error bound over a disk.

    raw_bound bounds the tail of the unscaled alternating sum; scaled_bound
    is 16 * raw_bound and bounds |s5 - series_partial| for every point with
    norm <= radius. raw_bound is monotone nonincreasing in the term count.
    """

    radius: float
    C: float
    raw_bound: float
    scaled_bound: float


def tail_bound(k, radius, num_terms):
    """Closed-form bound on the series tail after num_terms retained terms.

    C = (1/sqrt(5)) (k*radius/2)^5 and the tail is bounded by
    C * (tau^-(4N+4)/(1 - tau^-4) + tau^-(5N+5)/(1 - tau^-5)) with N = num_terms.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValueError("k must be finite and positive")
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError("radius must be finite and nonnegative")
    if num_terms < 0:
        raise ValueError("num_terms must be nonnegative")
    tau = GOLDEN_RATIO
    n = int(num_terms)
    try:
        big_c = (k * radius / 2.0) ** 5 / math.sqrt(5.0)
    except OverflowError:
        big_c = math.inf
    if not math.isfinite(big_c):
        raise ValueError("k * radius is too large for a finite truncation bound")
    raw = big_c * (
        tau ** -(4 * n + 4) / (1.0 - tau ** -4)
        + tau ** -(5 * n + 5) / (1.0 - tau ** -5)
    )
    return TailBound(radius=float(radius), C=big_c, raw_bound=raw, scaled_bound=16.0 * raw)


def terms_for_tolerance(k, radius, eps):
    """Smallest term count whose scaled bound does not exceed eps."""
    if not (eps > 0):
        raise ValueError("eps must be positive")
    n = 0
    while tail_bound(k, radius, n).scaled_bound > eps:
        n += 1
    return n
