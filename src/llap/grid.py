"""Truncated periodic discretization of R^d and the unitary Fourier transform.

Everything in this package lives on a uniform grid over the box [-L, L)^d
with n points per axis and spacing h = 2L/n.  Frequency modes are

    p_k = (pi / L) * k,   k in {-n/2, ..., n/2 - 1}  per axis,

stored in numpy's native FFT ordering.  The transform pair is the unitary
convention

    F(p) = (2 pi)^(-d/2) * integral f(x) exp(-i p.x) dx,
    f(x) = (2 pi)^(-d/2) * integral F(p) exp(+i p.x) dp,

approximated by the quadratures

    F(p_k) = (2 pi)^(-d/2) * h^d       * sum_j f(x_j) exp(-i p_k.x_j),
    f(x_j) = (2 pi)^(-d/2) * (pi/L)^d  * sum_k F(p_k) exp(+i p_k.x_j).

Under this pairing the discrete Parseval identity

    h^d sum_j |f_j|^2  =  (pi/L)^d sum_k |F_k|^2

holds exactly, and the periodic convolution theorem carries the factor
(2 pi)^(d/2):  ft(conv(f, g)) = (2 pi)^(d/2) ft(f) ft(g).

All quantitative claims made by this package are about the discrete problem
on the box.  Periodization stands in for R^d; L should be chosen so that the
fields of interest decay below roughly 1e-10 of their peak at the boundary
(``boundary_decay`` reports this ratio as a diagnostic).

Every operation here is a pure function of its inputs, and field values are
frozen at construction, so grids, fields and spectra are safe to share
across threads.

Fields are transformed on the half spectrum by ``_rfftn`` and ``_irfftn``;
``_half_ft`` is the quadrature above times (2 pi)^(d/2).  Large transforms
and the Picard step run in slabs on a pool of worker threads, with numpy's
own 1-D transforms in numpy's axis order, so a transform equals numpy's
n-D real transform bit for bit, however many threads there are.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "GridSpec",
    "RealField",
    "SymbolSpec",
    "make_grid",
    "sample",
    "default_eta",
    "nudft",
    "boundary_decay",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L, L)^d with n points per axis."""

    d: int
    L: float
    n: int

    @property
    def h(self) -> float:
        """Grid spacing 2L/n."""
        return 2.0 * self.L / self.n

    @property
    def mode_spacing(self) -> float:
        """Frequency spacing pi/L."""
        return math.pi / self.L

    @property
    def npoints(self) -> int:
        return self.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def nyquist_radius(self) -> float:
        """Largest resolved frequency magnitude per axis, pi*n/(2L)."""
        return math.pi * self.n / (2.0 * self.L)

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates -L + j*h for one axis."""
        return -self.L + self.h * np.arange(self.n)

    def coord_meshes(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coords()
        return np.meshgrid(*([x] * self.d), indexing="ij")

    def mode_axis(self) -> np.ndarray:
        """Frequency values (pi/L)*k for one axis in FFT ordering."""
        return self.mode_spacing * np.fft.fftfreq(self.n, d=1.0 / self.n)

    def radius_mesh(self) -> np.ndarray:
        """Euclidean |x| at every grid point, a new array on every call."""
        return _radius([self.axis_coords()] * self.d)


def make_grid(d: int, L: float, n: int) -> GridSpec:
    """Validate parameters and build a GridSpec.

    d must be 1, 2 or 3; n must be even and at least 8; L positive.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"points per axis must be an integer, got {n!r}")
    if n % 2 != 0:
        raise ValueError(f"points per axis must be even, got {n}")
    if n < 8:
        raise ValueError(f"need at least 8 points per axis, got {n}")
    if not (np.isfinite(L) and L > 0):
        raise ValueError(f"box half-width must be positive and finite, got {L}")
    nyquist = math.pi * n / (2.0 * L)
    if not math.isfinite(d * nyquist * nyquist):
        raise ValueError(
            f"box half-width {L} is too small for n = {n}: squared frequencies overflow"
        )
    return GridSpec(d=int(d), L=float(L), n=int(n))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RealField:
    """Real samples over a grid, immutable after construction."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite entries")
        object.__setattr__(self, "values", _freeze(vals))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "RealField":
        return cls(np.zeros(grid.shape), grid)

    @classmethod
    def _adopt(cls, values: np.ndarray, grid: GridSpec) -> "RealField":
        """A field that takes over values, frozen in place rather than copied.

        values must be a finite float array of the grid's shape that nothing
        else writes to; the caller has checked it.
        """
        field = object.__new__(cls)
        object.__setattr__(field, "values", _freeze(values))
        object.__setattr__(field, "grid", grid)
        return field

    def l2_norm(self) -> float:
        """Quadrature L2 norm sqrt(h^d sum_j v_j^2)."""
        v = self.values
        return math.sqrt(self.grid.h**self.grid.d * float(np.sum(v * v)))


@dataclass(frozen=True)
class SymbolSpec:
    """Location and regularization of the singular sphere of the symbol.

    The inverse multiplier 1/(ln|p| - shift) is singular on |p| = exp(shift).
    Modes with |ln|p| - shift| < eta fall in a thin annulus around that
    sphere and are zeroed rather than inverted; eta is measured in
    log-radius units.
    """

    shift: float
    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not np.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")

    @property
    def sphere_radius(self) -> float:
        return math.exp(self.shift)


def default_eta(grid: GridSpec, shift: float) -> float:
    """Two mode spacings in radius, expressed in log-radius units."""
    return 2.0 * grid.mode_spacing / math.exp(shift)


def sample(grid: GridSpec, fn: Callable[..., np.ndarray]) -> RealField:
    """Sample fn(x1, ..., xd) on the grid."""
    return RealField(np.asarray(fn(*grid.coord_meshes()), dtype=float), grid)


# SplitMix64 (Steele, Lea and Flood 2014): draw i of the stream seeded with s
# is the finalizer below applied to s + (i + 1) * _GOLDEN mod 2^64.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
# Draws per chunk: a field-sized draw holds its output and a few chunks of
# scratch (256 KiB each), never a second field.
_DRAW_CHUNK = 2**15


class _SplitMix64:
    """The seeded generator behind every sampled check and the random start.

    Counter-based: each call takes the next draws of the stream, and draw i
    depends only on the seed and i, so the values do not depend on how the
    output is split into chunks.  Uniforms are the top 53 bits times 2^-53,
    in [0, 1); normals come from Box-Muller on two uniforms each; integers
    are a 64-bit draw modulo the range.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) % 2**64
        self._used = 0

    def _bits(self, count: int) -> np.ndarray:
        z = np.arange(self._used + 1, self._used + count + 1, dtype=np.uint64)
        self._used += count
        z *= _GOLDEN
        z += self._seed
        for shift, mult in zip((30, 27), _MIX):
            z ^= z >> shift
            z *= mult
        z ^= z >> 31
        return z

    def _draw(self, size, per: int, fill, dtype=float) -> np.ndarray:
        """An array of shape size, each entry made by fill from per draws."""
        out = np.empty(size, dtype=dtype)
        flat = out.reshape(-1)
        step = max(_DRAW_CHUNK // per, 1)
        for lo in range(0, flat.size, step):
            chunk = flat[lo : lo + step]
            fill(self._bits(per * chunk.size), chunk)
        return out

    @staticmethod
    def _unit(bits: np.ndarray, out: np.ndarray) -> None:
        bits >>= 11
        np.multiply(bits, 2.0**-53, out=out)

    @staticmethod
    def _box_muller(bits: np.ndarray, out: np.ndarray) -> None:
        bits >>= 11
        u = bits * 2.0**-53
        np.multiply(u[1::2], TWO_PI, out=out)
        np.cos(out, out=out)
        # 1 - u lies in (0, 1], so the logarithm is finite.
        out *= np.sqrt(-2.0 * np.log1p(-u[0::2]))

    def random(self, size=()) -> np.ndarray:
        return self._draw(size, 1, self._unit)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=()) -> np.ndarray:
        out = self.random(size)
        out *= high - low
        out += low
        return out

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=()) -> np.ndarray:
        out = self._draw(size, 2, self._box_muller)
        out *= scale
        out += loc
        return out

    def integers(self, low: int, high: int, size=()) -> np.ndarray:
        """Integers in [low, high), high - low < 2^63."""
        span = int(high) - int(low)
        if span < 1:
            raise ValueError(f"empty range [{low}, {high})")

        def fill(bits, out):
            bits %= span
            out[...] = bits

        out = self._draw(size, 1, fill, dtype=np.int64)
        out += low
        return out


def _phase(grid: GridSpec) -> np.ndarray:
    # exp(+i pi k) = (-1)^k per axis relates samples on [-L, L) to the
    # index-space DFT; the last axis keeps the half spectrum's n/2 + 1 modes.
    sign = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)
    return reduce(np.multiply.outer, [sign] * (grid.d - 1) + [sign[: grid.n // 2 + 1]])


# Slabs go to worker threads only for arrays of at least this many points
# with a second axis to split.  Below it the hand-off costs more than the
# second core saves: at d=2, n=256 (65,536 points) a two-thread rfftn took
# 0.6 ms against numpy's 0.34 ms.  2^19 points is d=3 from n=81 and d=2 from
# n=725.
_POOL_MIN_POINTS = 2**19
_pool = None

# The Picard step's physical stage runs in row blocks of at most this many
# bytes of real field where the rows allow (see _Slabs), so that each
# block's inverse stages, sums, F and forward stages stay in cache and a
# solve needs one block of scratch per slab instead of a second real field.
# At d=3, n=96 on two slabs of a 2-core host, the stage took 16.3, 15.4,
# 15.0 and 14.8 ms a step with blocks of 256 KiB, 512 KiB, 1 MiB and whole
# slabs; 512 KiB keeps the scratch at an eighth of that field and a d=2,
# n=256 field at one block.
_BLOCK_BYTES = 2**19


def _worker_count() -> int:
    return len(os.sched_getaffinity(0))


def _pairwise_total(sums: list[float]) -> float:
    """Add 2^k block sums (see _Slabs) pairwise, neighbours first, as np.sum adds its halves."""
    while len(sums) > 1:
        sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
    return sums[0]


class _Slabs(NamedTuple):
    """How a transform or a Picard step is split between threads.

    Axis 0 of n rows is cut into 2^k row blocks, block j holding rows
    floor(n j / 2^k) to floor(n (j + 1) / 2^k), for the least k at which
    every block holds at most _BLOCK_BYTES of real field, but with 2^k <= n,
    so that every block has a row; at d = 1 there is one block.  The blocks
    depend on the shape alone, never on the number of threads.  Each slab is
    a run of consecutive blocks, one run per worker thread: blocks holds
    each slab's blocks, and rows slices axis 0 of a field and of its
    spectrum, one slice per slab, for the transform stages along the other
    axes and the Picard step's pointwise passes (F, the update and norm
    sums, the finiteness checks).  The step sums each block on its own and
    adds the block sums with _pairwise_total in block order, so its sums
    are the same bits on any number of threads.  Where the blocks fall on
    the split points of numpy's pairwise summation (d=3, n=96 and d=2,
    n=1024 at the default block size) they equal np.sum of the whole field;
    elsewhere they may differ from it in the last ulp.

    cols index slabs of axis 1 of the spectrum, for the transform stage
    along axis 0 and the residual's sums.  Slabs of axis 1 rather than of
    the last axis keep each thread's share of a row contiguous, with no
    cache line written by both.  There are as many cols as rows, and a
    single slab (the whole array) runs inline on the calling thread.
    """

    rows: tuple[slice, ...]
    cols: tuple[tuple, ...]
    blocks: tuple[tuple[slice, ...], ...]

    def map(self, fn: Callable, items) -> list:
        """fn over items, in the worker pool unless there is one slab.

        Every item finishes before this returns or raises, and the error
        raised is the first item's in order, so neither results nor errors
        depend on thread scheduling.
        """
        if len(self.rows) == 1:
            return [fn(item) for item in items]
        global _pool
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_worker_count(), thread_name_prefix="llap-slab")
        futures = [_pool.submit(fn, item) for item in items]
        for future in futures:
            future.exception()
        return [future.result() for future in futures]


def _slabs(shape: tuple[int, ...], spectrum: tuple[int, ...]) -> _Slabs:
    """Slabs for a field of this shape and its spectrum of the given shape."""
    n, row = shape[0], 8 * math.prod(shape[1:])
    count = 1
    while len(shape) > 1 and 2 * count <= n and -(-n // count) * row > _BLOCK_BYTES:
        count *= 2
    blocks = [slice(n * j // count, n * (j + 1) // count) for j in range(count)]
    pooled = len(shape) > 1 and math.prod(shape) >= _POOL_MIN_POINTS
    slabs = min(_worker_count(), count) if pooled else 1
    runs = tuple(tuple(blocks[count * s // slabs : count * (s + 1) // slabs]) for s in range(slabs))
    rows = tuple(slice(run[0].start, run[-1].stop) for run in runs)
    if slabs == 1:
        return _Slabs(rows, ((Ellipsis,),), runs)
    cols = [spectrum[1] * k // slabs for k in range(slabs + 1)]
    return _Slabs(rows, tuple((slice(None), slice(a, b)) for a, b in zip(cols, cols[1:])), runs)


def _rfft_rows(a: np.ndarray, out: np.ndarray) -> None:
    """The stages of rfftn inside an axis-0 slab: the last axis, then axes d-2..1."""
    np.fft.rfft(a, axis=-1, out=out)
    for axis in range(a.ndim - 2, 0, -1):
        np.fft.fft(out, axis=axis, out=out)


def _irfft_rows(a: np.ndarray, out: np.ndarray) -> None:
    """The stages of irfftn inside an axis-0 slab; a is overwritten when d >= 3."""
    for axis in range(1, a.ndim - 1):
        np.fft.ifft(a, axis=axis, out=a)
    np.fft.irfft(a, n=out.shape[-1], axis=-1, out=out)


def _rfftn(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.fft.rfftn(a) over every axis, bit for bit, in slabs."""
    half = a.shape[:-1] + (a.shape[-1] // 2 + 1,)
    out = np.empty(half, dtype=complex) if out is None else out
    slabs = _slabs(a.shape, half)
    slabs.map(lambda rows: _rfft_rows(a[rows], out[rows]), slabs.rows)
    if a.ndim > 1:
        slabs.map(lambda cols: np.fft.fft(out[cols], axis=0, out=out[cols]), slabs.cols)
    return out


def _irfftn(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """np.fft.irfftn(spectrum, out.shape) over every axis, bit for bit, in slabs.

    The mirror of _rfftn; spectrum is overwritten when d >= 2.
    """
    slabs = _slabs(out.shape, spectrum.shape)
    if out.ndim > 1:
        slabs.map(lambda cols: np.fft.ifft(spectrum[cols], axis=0, out=spectrum[cols]), slabs.cols)
    slabs.map(lambda rows: _irfft_rows(spectrum[rows], out[rows]), slabs.rows)
    return out


def _half_ft(f: RealField) -> np.ndarray:
    """(2 pi)^(d/2) times the transform F of f on the half spectrum: h^d (-1)^k rfftn(f), read-only."""
    g = f.grid
    out = _rfftn(f.values)
    np.multiply(out, g.h**g.d * _phase(g), out=out)
    return _freeze(out)


def _convolution(fhat: np.ndarray, ghat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Periodic convolution h^d sum_m f(x_m) g(x_j - x_m) from _half_ft(f) and _half_ft(g).

    By the convolution theorem above, _half_ft(f * g) = fhat ghat.
    """
    spectrum = fhat * ghat * (_phase(grid) / grid.h**grid.d)
    return _irfftn(spectrum, np.empty(grid.shape))


class _HalfModes(NamedTuple):
    """The symbol ln|p| - shift of one (grid, spec) on the half spectrum.

    A real field's transform is conjugate-symmetric, so a half spectrum keeps
    the last-axis modes 0..n/2 of numpy's rfftn layout.  weights counts each
    mode with its twin, which has the same radial symbol, so weighted half
    sums and counts equal those over the full grid.
    """

    symbol: np.ndarray  # ln|p| - shift on the active modes, zero elsewhere
    active: np.ndarray  # unmasked, non-DC modes
    inactive: np.ndarray  # ~active: the masked annulus and DC
    weights: np.ndarray  # 1 on last-axis modes 0 and n/2, else 2; a broadcast view
    masked_modes: int  # modes of the full grid with |ln|p| - shift| < eta


def _radius(axes: list[np.ndarray]) -> np.ndarray:
    """sqrt(a0^2 + a1^2 + ...) over the axes' outer grid, as one array from broadcast squares."""
    r = sum(m * m for m in np.meshgrid(*axes, indexing="ij", sparse=True))
    return np.sqrt(r, out=r)


def _half_radius(grid: GridSpec) -> np.ndarray:
    """|p| on the half spectrum."""
    return _radius([grid.mode_axis()] * (grid.d - 1) + [grid.mode_axis()[: grid.n // 2 + 1]])


def _half_weights(grid: GridSpec) -> np.ndarray:
    """Each half-spectrum mode counted with its twin (see _HalfModes); a broadcast view."""
    last = np.where(np.arange(grid.n // 2 + 1) % (grid.n // 2), 2.0, 1.0)
    return np.broadcast_to(last, grid.shape[:-1] + last.shape)


@lru_cache(maxsize=32)
def _half_modes(grid: GridSpec, spec: SymbolSpec) -> _HalfModes:
    with np.errstate(divide="ignore"):
        t = np.log(_half_radius(grid))
    t -= spec.shift
    active = np.isfinite(t) & (np.abs(t) >= spec.eta)
    weights = _half_weights(grid)
    masked = int(np.sum(weights, where=np.abs(t) < spec.eta))
    symbol = _freeze(np.where(active, t, 0.0))
    return _HalfModes(symbol, _freeze(active), _freeze(~active), weights, masked)


def nudft(f: RealField, points: np.ndarray) -> np.ndarray:
    """Fourier transform quadrature of a field at arbitrary frequencies.

    points has shape (m, d); returns the m complex values

        (2 pi)^(-d/2) h^d sum_j f(x_j) exp(-i p.x_j),

    an exact quadrature, not an interpolation.  The phase separates over
    axes, so the sum is a chunked separable contraction in real arithmetic.
    For a chunk of c points, the axis-0 cosines and negated sines (2c x n)
    multiply the samples viewed as an (n, n^(d-1)) matrix in one matrix
    product, whose rows are the real and imaginary parts; every further
    axis is contracted point by point with its own cosines and sines in one
    batched matrix product.  A chunk holds at most min(n/2, n^(d-1)) points,
    so neither a phase block nor the product (2c x n^(d-1)) exceeds the
    bytes of one real n^d field; in one dimension that means one point at a
    time.  Phases, products and contractions are written into buffers made
    once per call, so a call never holds two chunks' temporaries.

    The work runs in _nudft, which takes several fields on one grid: each
    chunk's phases are computed once and then contracted with every field
    in turn, by the same products as for a single field, so each field's
    values are the ones a call of its own gives, bit for bit.  The
    diagnostics pass (``kernels.inverse_symbol_gain``) and the projector
    use it to measure a whole kernel sequence with one set of phases.
    """
    return _nudft([f.values], f.grid, points)[0]


def _nudft(values: list[np.ndarray], grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """nudft of k sample arrays of the grid's shape at the same points, as (k, m) complex."""
    g = grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != g.d:
        raise ValueError(f"points must have shape (m, {g.d}), got {pts.shape}")
    x = g.axis_coords()
    pref = g.h**g.d / TWO_PI ** (g.d / 2.0)
    rest = g.n ** (g.d - 1)
    out = np.empty((len(values), pts.shape[0]), dtype=complex)
    chunk = min(g.n // 2, rest)
    trig_buf = np.empty((2 * chunk, g.n))
    phase_buf = np.empty((g.d - 1, chunk, 2, g.n))
    prod_buf = np.empty(2 * chunk * rest)
    parts_buf = np.empty(4 * chunk * (rest // g.n))
    for start in range(0, pts.shape[0], chunk):
        p = pts[start : start + chunk]
        c = p.shape[0]
        trig = trig_buf[: 2 * c]
        np.multiply.outer(p[:, 0], x, out=trig[c:])
        np.cos(trig[c:], out=trig[:c])
        np.sin(trig[c:], out=trig[c:])
        np.negative(trig[c:], out=trig[c:])
        # One (c, 2, n) block of cosines and sines per further axis.
        phases = phase_buf[:, :c]
        for axis, phase in enumerate(phases, start=1):
            np.multiply.outer(p[:, axis], x, out=phase[:, 1])
            np.cos(phase[:, 1], out=phase[:, 0])
            np.sin(phase[:, 1], out=phase[:, 1])
        for samples, row in zip(values, out):
            # Rows [:c] hold the real parts, rows [c:] the imaginary parts.
            acc = prod_buf[: 2 * c * rest].reshape(2 * c, rest)
            np.matmul(trig, samples.reshape(g.n, rest), out=acc)
            for phase in phases:
                # (cos - i sin)(re + i im) summed over this axis, per point.
                k = acc.shape[1] // g.n
                parts = parts_buf[: 4 * c * k].reshape(2, c, 2, k)
                np.matmul(phase, acc.reshape(2, c, g.n, k), out=parts)
                # The product has been read; its buffer takes the contraction.
                acc = prod_buf[: 2 * c * k].reshape(2 * c, k)
                np.add(parts[0, :, 0], parts[1, :, 1], out=acc[:c])
                np.subtract(parts[1, :, 0], parts[0, :, 1], out=acc[c:])
            np.multiply(acc[:c, 0], pref, out=row.real[start : start + c])
            np.multiply(acc[c:, 0], pref, out=row.imag[start : start + c])
    return out


def boundary_decay(f: RealField) -> float:
    """Max |f| on the outermost grid layer relative to the global max.

    Diagnoses whether the box is large enough for the periodization to be
    harmless; values near 1 mean the field does not fit in the box.
    """
    a = np.abs(f.values)
    peak = float(np.max(a))
    if peak == 0.0:
        return 0.0
    edge = max(float(np.max(np.take(a, [0, -1], axis=axis))) for axis in range(f.grid.d))
    return edge / peak
